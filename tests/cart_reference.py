"""Per-sample reference for :meth:`repro.stats.cart.ClassificationTree._best_split`.

The vectorized split search replaced this loop; it is kept verbatim as
the behavioural oracle the equivalence suite compares against.
"""

from __future__ import annotations

import numpy as np

from repro.stats.cart import _gini

__all__ = ["_best_split_reference"]


def _best_split_reference(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    *,
    n_classes: int,
    min_samples_leaf: int = 1,
) -> tuple[int, float] | None:
    """Reference per-sample split search (the pre-vectorization loop).

    The behavioural oracle for ``ClassificationTree._best_split``: the
    equivalence suite runs
    both over random and adversarially tied datasets and requires the
    identical ``(feature, threshold)`` choice, including the
    lexicographic ``(gini, feature, threshold)`` tie-break.
    """
    n = y.shape[0]
    parent_gini = _gini(counts)
    best: tuple[float, int, float] | None = None  # (gini, feature, thr)

    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        left_counts = np.zeros(n_classes)
        right_counts = counts.astype(float).copy()
        for i in range(n - 1):
            c = ys[i]
            left_counts[c] += 1
            right_counts[c] -= 1
            if xs[i] == xs[i + 1]:
                continue  # cannot split between equal values
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            g = (n_left * _gini(left_counts) + n_right * _gini(right_counts)) / n
            thr = 0.5 * (xs[i] + xs[i + 1])
            key = (g, f, thr)
            if best is None or key < best:
                best = key

    if best is None or best[0] >= parent_gini - 1e-12:
        return None
    return best[1], best[2]
