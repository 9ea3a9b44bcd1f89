"""CART classification tree (Gini impurity).

The paper trains "a classification tree [36]" (Breiman et al., CART) on
performance-counter and power data gathered at the two sample
configurations, and uses it online to assign each new kernel to one of
the offline clusters (Section III-B, Figure 3).  This is a compact,
deterministic implementation of axis-aligned binary splitting:

* splits minimize weighted Gini impurity;
* candidate thresholds are midpoints between consecutive distinct sorted
  feature values;
* stopping: pure node, ``max_depth``, ``min_samples_split``,
  ``min_samples_leaf``, or no impurity-reducing split;
* ties are broken by lowest feature index, then lowest threshold, so the
  fit is fully deterministic.

Split search is fully vectorized (``docs/TRAINING_ENGINE.md``):
:meth:`ClassificationTree.fit` stably argsorts every feature column
*once* into an index matrix, recursion partitions that matrix (a stable
partition of a stable sort is the stable sort of the subset, so
per-node re-sorting is never needed), and :meth:`_best_split` scores
every candidate threshold of every feature in one numpy pass —
cumulative one-hot class counts down the sorted order give the left/
right Gini of all split points at once.  The arithmetic mirrors the
scalar loop operation for operation, so chosen splits are bit-identical
to the per-sample reference loop kept in ``tests/cart_reference.py``,
which the equivalence suite pins.

:meth:`ClassificationTree.render` produces a text rendering in the spirit
of the paper's Figure 3 (feature comparisons at internal nodes, cluster
ids at leaves), used by the Figure 3 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry import counter

__all__ = ["ClassificationTree", "TreeNode"]

# Training-engine instrumentation: nodes grown and splits applied
# across all tree fits (see docs/OBSERVABILITY.md).
_NODES = counter("train.cart.nodes")
_SPLITS = counter("train.cart.splits")


@dataclass
class TreeNode:
    """A node of the fitted tree.

    Internal nodes carry ``feature``/``threshold`` and children; leaves
    carry ``prediction``.  ``class_counts`` is retained on every node for
    introspection and confidence reporting.
    """

    depth: int
    n_samples: int
    class_counts: np.ndarray
    prediction: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node carries a prediction (no split)."""
        return self.feature is None

    @property
    def purity(self) -> float:
        """Fraction of samples at this node belonging to the majority class."""
        total = self.class_counts.sum()
        return float(self.class_counts.max() / total) if total else 0.0


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    # Sum of squared *integer* counts before the single division: integer
    # partial sums are exact in float64, so the result is identical under
    # any class ordering — Gini must be label-permutation invariant to
    # the last bit or tied splits break the tree's permutation covariance
    # (pinned by the CART property suite).
    ss = float(np.sum(counts * counts))
    return float(1.0 - ss / (total * total))


class ClassificationTree:
    """Axis-aligned binary classification tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    min_samples_split:
        Minimum samples required at a node to consider splitting.
    min_samples_leaf:
        Minimum samples each child must retain for a split to be valid.
    feature_names:
        Optional labels used by :meth:`render` (defaults to ``x0..xp``).

    Notes
    -----
    Class labels may be arbitrary hashables; internally they are encoded
    to ``0..K-1`` and decoded on prediction.
    """

    def __init__(
        self,
        *,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        feature_names: tuple[str, ...] | list[str] = (),
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.feature_names = tuple(feature_names)
        self.root: TreeNode | None = None
        self.classes_: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ClassificationTree":
        """Fit the tree on ``(n, p)`` features ``X`` and labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} incompatible with X {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = self.classes_.shape[0]
        self._n_features = X.shape[1]
        self._X = X
        self._y = y_enc
        # Presort every feature column once; recursion partitions this
        # index matrix instead of re-sorting per node.
        idx_sorted = np.argsort(X, axis=0, kind="stable")
        self._grown_nodes = 0
        self._grown_splits = 0
        self.root = self._grow(idx_sorted, depth=0)
        _NODES.inc(self._grown_nodes)
        _SPLITS.inc(self._grown_splits)
        del self._X, self._y
        return self

    def _grow(self, idx_sorted: np.ndarray, depth: int) -> TreeNode:
        """Grow one subtree over the samples in ``idx_sorted`` — an
        ``(m, p)`` matrix whose column ``f`` lists the node's sample
        indices in stable-sorted order of feature ``f``."""
        y_here = self._y[idx_sorted[:, 0]]
        counts = np.bincount(y_here, minlength=self._n_classes)
        self._grown_nodes += 1
        node = TreeNode(
            depth=depth,
            n_samples=idx_sorted.shape[0],
            class_counts=counts,
            prediction=self._majority(idx_sorted[:, 0], counts),
        )
        if (
            depth >= self.max_depth
            or idx_sorted.shape[0] < self.min_samples_split
            or _gini(counts) == 0.0
        ):
            return node

        split = self._best_split(idx_sorted, counts)
        if split is None:
            return node
        feature, threshold = split
        self._grown_splits += 1
        node.feature = feature
        node.threshold = threshold
        # Stable partition of every presorted column: each column keeps
        # exactly the left (resp. right) samples in sorted order.
        left_member = np.zeros(self._X.shape[0], dtype=bool)
        col = idx_sorted[:, feature]
        left_member[col[self._X[col, feature] <= threshold]] = True
        in_left = left_member[idx_sorted]  # (m, p)
        m_left = int(in_left[:, 0].sum())
        p = idx_sorted.shape[1]
        idx_left = idx_sorted.T[in_left.T].reshape(p, m_left).T
        idx_right = idx_sorted.T[~in_left.T].reshape(
            p, idx_sorted.shape[0] - m_left
        ).T
        node.left = self._grow(idx_left, depth + 1)
        node.right = self._grow(idx_right, depth + 1)
        return node

    def _majority(self, samples: np.ndarray, counts: np.ndarray) -> int:
        """The node's predicted class: majority, with ties broken by the
        class of the earliest (lowest-index) sample among the tied
        classes.

        The tie-break is *label-permutation covariant*: renumbering the
        classes renumbers the prediction identically, so a clustering
        that differs only by cluster-id permutation (e.g. a warm-started
        PAM run that found the same partition in a different medoid
        order) yields a tree predicting the same partition clusters.
        Breaking ties by lowest class id would make tied leaves depend
        on the arbitrary numbering.
        """
        tied = np.flatnonzero(counts == counts.max())
        if tied.size == 1:
            return int(tied[0])
        eligible = samples[np.isin(self._y[samples], tied)]
        return int(self._y[eligible.min()])

    def _best_split(
        self, idx_sorted: np.ndarray, counts: np.ndarray
    ) -> tuple[int, float] | None:
        """Vectorized exhaustive search for the impurity-minimizing
        ``(feature, threshold)`` over the presorted index matrix.

        One numpy pass scores every candidate boundary of every feature:
        cumulative one-hot class counts down each sorted column give all
        left/right class distributions at once, and the weighted Gini is
        evaluated for the whole ``(m-1, p)`` candidate grid.  Each
        scalar operation matches the per-sample reference loop
        (``tests/cart_reference.py``) exactly
        (integer-valued counts, identical division/summation order), so
        the selected split — including the lexicographic
        ``(gini, feature, threshold)`` tie-break — is bit-identical.
        """
        m, p = idx_sorted.shape
        if m < 2:
            return None
        parent_gini = _gini(counts)

        XS = self._X[idx_sorted, np.arange(p)[np.newaxis, :]]  # (m, p) sorted values
        YS = self._y[idx_sorted]  # (m, p) labels in that order
        # left[i, f, c]: samples of class c among the first i+1 of column f.
        onehot = YS[:, :, np.newaxis] == np.arange(self._n_classes)
        left = np.cumsum(onehot, axis=0, dtype=float)[:-1]  # (m-1, p, K)
        right = counts.astype(float) - left
        n_left = np.arange(1, m, dtype=float)[:, np.newaxis]  # (m-1, 1)
        n_right = float(m) - n_left
        # Square-then-sum the integer counts (exact partial sums) before
        # the single division — the same label-permutation-invariant
        # arithmetic as _gini, and bit-identical to the reference loop.
        gini_left = 1.0 - np.sum(left * left, axis=2) / (n_left * n_left)
        gini_right = 1.0 - np.sum(right * right, axis=2) / (n_right * n_right)
        weighted = (n_left * gini_left + n_right * gini_right) / m  # (m-1, p)

        valid = XS[:-1] != XS[1:]  # cannot split between equal values
        if self.min_samples_leaf > 1:
            leaf_ok = (n_left >= self.min_samples_leaf) & (
                n_right >= self.min_samples_leaf
            )
            valid &= leaf_ok
        if not valid.any():
            return None
        scores = np.where(valid, weighted, np.inf)

        # Per feature: argmin takes the first (= lowest-threshold)
        # minimizer, matching the reference loop's tie-break; across
        # features a strict < keeps the lowest feature index on ties.
        best_rows = np.argmin(scores, axis=0)  # (p,)
        best: tuple[float, int, float] | None = None
        for f in range(p):
            g = scores[best_rows[f], f]
            if np.isinf(g):
                continue
            if best is None or g < best[0]:
                i = best_rows[f]
                best = (float(g), f, float(0.5 * (XS[i, f] + XS[i + 1, f])))

        if best is None or best[0] >= parent_gini - 1e-12:
            return None
        return best[1], best[2]

    # -- inference ---------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels for ``(n, p)`` (or a single ``(p,)``) input."""
        if self.root is None or self.classes_ is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[np.newaxis, :]
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        out = np.empty(X.shape[0], dtype=int)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        decoded = self.classes_[out]
        return decoded[0] if single else decoded

    def depth(self) -> int:
        """Maximum depth of the fitted tree (root = 0)."""

        def _d(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return node.depth if node else 0
            return max(_d(node.left), _d(node.right))

        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return _d(self.root)

    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""

        def _n(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return _n(node.left) + _n(node.right)

        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return _n(self.root)

    # -- reporting ---------------------------------------------------------

    def _feature_name(self, f: int) -> str:
        if f < len(self.feature_names):
            return self.feature_names[f]
        return f"x{f}"

    def render(self) -> str:
        """Text rendering in the style of the paper's Figure 3."""
        if self.root is None or self.classes_ is None:
            raise RuntimeError("tree is not fitted")
        lines: list[str] = []

        def _walk(node: TreeNode, prefix: str, tag: str) -> None:
            if node.is_leaf:
                label = self.classes_[node.prediction]
                lines.append(
                    f"{prefix}{tag}cluster {label}  "
                    f"(n={node.n_samples}, purity={node.purity:.2f})"
                )
                return
            name = self._feature_name(node.feature)
            lines.append(f"{prefix}{tag}{name} <= {node.threshold:.4g} ?")
            child_prefix = prefix + ("    " if tag else "")
            _walk(node.left, child_prefix, "yes: ")
            _walk(node.right, child_prefix, "no:  ")

        _walk(self.root, "", "")
        return "\n".join(lines)
