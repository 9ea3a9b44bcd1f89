"""Partitioning Around Medoids (PAM) on a dissimilarity matrix.

The paper clusters kernels *relationally*: the only input is a pairwise
kernel dissimilarity matrix derived from frontier-order Kendall
correlations (it used the R ``fossil`` package).  PAM is the canonical
relational clustering algorithm — it never needs coordinates, only
pairwise dissimilarities — so it is the faithful substitute here.

The implementation follows Kaufman & Rousseeuw (1990):

* **BUILD** greedily seeds medoids to minimize total within-cluster
  dissimilarity (deterministic).
* **SWAP** iterates over all (medoid, non-medoid) exchanges and applies
  the best strictly-improving swap until a local optimum.

``pam`` optionally accepts ``init_medoids`` to *warm-start* SWAP from a
known-good seeding instead of running BUILD — the leave-one-out driver
seeds every fold from the full-suite clustering, so folds typically
converge in zero or one swap (``train.pam.{builds,swaps}`` telemetry
shows the effect; see ``docs/TRAINING_ENGINE.md``).

:func:`silhouette_score` supports the paper's empirical choice of the
cluster count (five clusters; Section III-B) and our cluster-count
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.telemetry import counter

__all__ = ["KMedoidsResult", "pam", "silhouette_score"]

# Training-engine instrumentation (see docs/OBSERVABILITY.md).
_BUILDS = counter("train.pam.builds")
_SWAPS = counter("train.pam.swaps")


@dataclass(frozen=True)
class KMedoidsResult:
    """Result of a PAM run.

    Attributes
    ----------
    medoids:
        Indices of the ``k`` medoid points.
    labels:
        ``(n,)`` cluster index in ``[0, k)`` for every point; label ``j``
        means "closest to ``medoids[j]``".
    cost:
        Total dissimilarity of points to their assigned medoids.
    n_iter:
        Number of SWAP iterations performed.
    """

    medoids: np.ndarray
    labels: np.ndarray
    cost: float
    n_iter: int


def _check_dissimilarity(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"dissimilarity matrix must be square, got {D.shape}")
    if not np.all(np.isfinite(D)):
        raise ValueError("dissimilarity matrix must be finite")
    if np.any(D < -1e-12):
        raise ValueError("dissimilarities must be non-negative")
    if not np.allclose(D, D.T, atol=1e-9):
        raise ValueError("dissimilarity matrix must be symmetric")
    return D


def _assign(D: np.ndarray, medoids: np.ndarray) -> tuple[np.ndarray, float]:
    """Label each point with its nearest medoid; return labels and cost.

    Medoids always own themselves, even when another medoid sits at
    zero dissimilarity (ties are otherwise broken by lowest index,
    which could orphan a medoid's cluster).
    """
    sub = D[:, medoids]  # (n, k)
    labels = np.argmin(sub, axis=1)
    labels[medoids] = np.arange(medoids.shape[0])
    cost = float(sub[np.arange(D.shape[0]), labels].sum())
    return labels, cost


def _build(D: np.ndarray, k: int) -> list[int]:
    """BUILD phase: greedy deterministic seeding."""
    # First medoid: point minimizing total dissimilarity to all others.
    first = int(np.argmin(D.sum(axis=1)))
    medoids = [first]
    nearest = D[:, first].copy()  # distance to nearest chosen medoid
    while len(medoids) < k:
        # Gain per candidate: total reduction in nearest-medoid distance
        # if that point were added.  Chosen medoids gain exactly zero and
        # are masked out; ties break to the lowest candidate index.
        gains = np.maximum(nearest[:, None] - D, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        best_j = int(np.argmax(gains))
        medoids.append(best_j)
        nearest = np.minimum(nearest, D[:, best_j])
    return medoids


def pam(
    D: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    init_medoids: Sequence[int] | np.ndarray | None = None,
) -> KMedoidsResult:
    """Cluster ``n`` points into ``k`` groups given dissimilarities ``D``.

    Parameters
    ----------
    D:
        ``(n, n)`` symmetric non-negative dissimilarity matrix.
    k:
        Number of clusters, ``1 <= k <= n``.
    max_iter:
        Safety bound on SWAP iterations (PAM converges long before this
        for the problem sizes in this package).
    init_medoids:
        Optional ``k`` distinct point indices to seed SWAP from,
        skipping the BUILD phase.  SWAP still runs to a local optimum,
        so any seeding yields a valid clustering; a seeding near the
        optimum (e.g. the previous clustering of a slightly smaller
        point set) converges in very few swaps.

    Returns
    -------
    KMedoidsResult
    """
    D = _check_dissimilarity(D)
    n = D.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n} points")

    if init_medoids is None:
        medoids = np.array(_build(D, k), dtype=int)
        _BUILDS.inc()
    else:
        medoids = np.array(init_medoids, dtype=int)
        if medoids.shape != (k,):
            raise ValueError(
                f"init_medoids must supply exactly k={k} indices, "
                f"got shape {medoids.shape}"
            )
        if np.unique(medoids).shape[0] != k:
            raise ValueError("init_medoids must be distinct")
        if medoids.min() < 0 or medoids.max() >= n:
            raise ValueError(f"init_medoids out of range for n={n} points")
    labels, cost = _assign(D, medoids)

    n_iter = 0
    n_swaps = 0
    for n_iter in range(1, max_iter + 1):
        # Evaluate every (medoid mi, candidate h) exchange at once.
        # Removing medoid mi leaves each point with its nearest remaining
        # medoid — d1 if mi was not its owner, else d2 (second nearest) —
        # and adding h offers D[:, h]; the trial cost is the sum of the
        # elementwise minimum.  With k == 1, d2 is +inf so the candidate
        # column alone decides.
        sub = D[:, medoids]  # (n, k)
        owner = np.argmin(sub, axis=1)
        d1 = sub[np.arange(n), owner]
        if medoids.shape[0] > 1:
            d2 = np.partition(sub, 1, axis=1)[:, 1]
        else:
            d2 = np.full(n, np.inf)
        # base[mi, i]: distance to nearest medoid once mi is removed.
        base = np.where(owner[None, :] == np.arange(medoids.shape[0])[:, None], d2, d1)
        trial_costs = np.minimum(base[:, :, None], D[None, :, :]).sum(axis=1)  # (k, n)
        deltas = cost - trial_costs
        deltas[:, medoids] = -np.inf  # existing medoids are not candidates
        flat = int(np.argmax(deltas))  # ties break to first (mi, h) in order
        if deltas.flat[flat] <= 1e-12:
            # No strictly-improving swap: local optimum.  (A looser
            # threshold would accept zero-delta swaps and cycle through
            # equal-cost medoid sets until max_iter.)
            break
        mi, h = divmod(flat, n)
        medoids[mi] = h
        n_swaps += 1
        labels, cost = _assign(D, medoids)
    _SWAPS.inc(n_swaps)
    return KMedoidsResult(medoids=medoids, labels=labels, cost=cost, n_iter=n_iter)


def silhouette_score(D: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette width for a relational clustering.

    For each point ``i`` with cluster ``C``: ``a(i)`` is its mean
    dissimilarity to other members of ``C``; ``b(i)`` is the minimum over
    other clusters of the mean dissimilarity to that cluster; the
    silhouette is ``(b - a) / max(a, b)``.  Singleton clusters contribute
    0 (Kaufman & Rousseeuw convention).

    Returns ``nan`` when there are fewer than two clusters.
    """
    D = _check_dissimilarity(D)
    labels = np.asarray(labels)
    if labels.shape[0] != D.shape[0]:
        raise ValueError("labels length must match matrix size")
    uniq = np.unique(labels)
    if uniq.shape[0] < 2:
        return float("nan")

    n = D.shape[0]
    sil = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_count = int(own.sum())
        if own_count <= 1:
            sil[i] = 0.0
            continue
        a = float(D[i, own].sum() / (own_count - 1))  # exclude self (D[i,i]=0)
        b = np.inf
        for c in uniq:
            if c == labels[i]:
                continue
            mask = labels == c
            b = min(b, float(D[i, mask].mean()))
        denom = max(a, b)
        sil[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(sil.mean())
