"""Unit and property tests for repro.stats.cart (CART classification tree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ClassificationTree


def test_single_threshold_problem():
    X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = ClassificationTree().fit(X, y)
    np.testing.assert_array_equal(tree.predict(X), y)
    assert tree.depth() == 1
    assert tree.n_leaves() == 2


def test_two_feature_problem():
    # Class determined by x0 > 0.5 XOR-free: quadrant split needs depth 2.
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 2))
    y = (X[:, 0] > 0.5).astype(int) * 2 + (X[:, 1] > 0.5).astype(int)
    tree = ClassificationTree(max_depth=4).fit(X, y)
    acc = np.mean(tree.predict(X) == y)
    assert acc > 0.95


def test_arbitrary_labels_roundtrip():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array(["alpha", "alpha", "beta", "beta"])
    tree = ClassificationTree().fit(X, y)
    assert tree.predict(np.array([0.5])) == "alpha"
    assert tree.predict(np.array([2.5])) == "beta"


def test_pure_node_is_leaf():
    X = np.arange(5, dtype=float).reshape(-1, 1)
    y = np.zeros(5, dtype=int)
    tree = ClassificationTree().fit(X, y)
    assert tree.root.is_leaf
    assert tree.n_leaves() == 1


def test_max_depth_zero_gives_majority_stump():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array([0] * 7 + [1] * 3)
    tree = ClassificationTree(max_depth=0).fit(X, y)
    assert tree.root.is_leaf
    assert np.all(tree.predict(X) == 0)


def test_min_samples_leaf_respected():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array([0] * 9 + [1])
    tree = ClassificationTree(min_samples_leaf=3).fit(X, y)

    def check(node):
        if node.is_leaf:
            assert node.n_samples >= 3 or node.depth == 0
        else:
            check(node.left)
            check(node.right)

    check(tree.root)


def test_identical_features_cannot_split():
    X = np.ones((6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    tree = ClassificationTree().fit(X, y)
    assert tree.root.is_leaf  # no valid threshold exists


def test_render_mentions_feature_names_and_clusters():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    tree = ClassificationTree(feature_names=("l2_miss_rate", "power")).fit(X, y)
    text = tree.render()
    assert "l2_miss_rate" in text
    assert "cluster" in text
    assert "yes:" in text and "no:" in text


def test_unfitted_tree_raises():
    tree = ClassificationTree()
    with pytest.raises(RuntimeError):
        tree.predict(np.zeros((1, 1)))
    with pytest.raises(RuntimeError):
        tree.render()


def test_invalid_hyperparameters():
    with pytest.raises(ValueError):
        ClassificationTree(max_depth=-1)
    with pytest.raises(ValueError):
        ClassificationTree(min_samples_split=1)
    with pytest.raises(ValueError):
        ClassificationTree(min_samples_leaf=0)


def test_invalid_fit_inputs():
    tree = ClassificationTree()
    with pytest.raises(ValueError):
        tree.fit(np.zeros((3,)), np.zeros(3))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        tree.fit(np.array([[np.inf]]), np.array([0]))


def test_predict_feature_width_check():
    tree = ClassificationTree().fit(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError):
        tree.predict(np.zeros((1, 2)))


def test_deterministic_fit():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    t1 = ClassificationTree(max_depth=5).fit(X, y)
    t2 = ClassificationTree(max_depth=5).fit(X, y)
    assert t1.render() == t2.render()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_training_accuracy_with_unbounded_depth(n, p, k, seed):
    """With distinct rows and no depth cap, CART fits training data exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    # Perturb to guarantee distinct values in feature 0.
    X[:, 0] += np.arange(n) * 1e-3
    y = rng.integers(0, k, size=n)
    tree = ClassificationTree(max_depth=64).fit(X, y)
    np.testing.assert_array_equal(tree.predict(X), y)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_predictions_are_training_labels(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 3, size=30)
    tree = ClassificationTree(max_depth=3).fit(X, y)
    preds = tree.predict(rng.normal(size=(20, 2)))
    assert set(np.unique(preds)).issubset(set(np.unique(y)))


# -- vectorized split search vs the retained reference loop --------------------

from tests.cart_reference import _best_split_reference  # noqa: E402


def _reference_structure(X, y, *, max_depth, min_samples_split, min_samples_leaf):
    """Grow a tree with the reference split search; return its shape as
    nested ``(feature, threshold, left, right)`` tuples (leaves are the
    majority count vector as a tuple)."""
    classes, y_enc = np.unique(y, return_inverse=True)
    n_classes = classes.shape[0]

    def grow(idx, depth):
        counts = np.bincount(y_enc[idx], minlength=n_classes)
        gini = 1.0 - np.sum((counts / counts.sum()) ** 2)
        if depth >= max_depth or idx.shape[0] < min_samples_split or gini == 0.0:
            return tuple(counts)
        split = _best_split_reference(
            X[idx], y_enc[idx], counts,
            n_classes=n_classes, min_samples_leaf=min_samples_leaf,
        )
        if split is None:
            return tuple(counts)
        f, thr = split
        left = idx[X[idx, f] <= thr]
        right = idx[X[idx, f] > thr]
        return (f, thr, grow(left, depth + 1), grow(right, depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def _fitted_structure(tree):
    def walk(node):
        if node.is_leaf:
            return tuple(node.class_counts)
        return (node.feature, node.threshold, walk(node.left), walk(node.right))

    return walk(tree.root)


def test_split_matches_reference_on_tied_and_duplicated_columns():
    # Adversarial design: duplicated feature columns (identical split
    # candidates in two features → lowest feature index must win), runs
    # of duplicated values (no split between equals), and a constant
    # column (never splittable).
    X = np.array(
        [
            [0.0, 0.0, 7.0],
            [0.0, 0.0, 7.0],
            [1.0, 1.0, 7.0],
            [1.0, 1.0, 7.0],
            [2.0, 2.0, 7.0],
            [2.0, 2.0, 7.0],
            [3.0, 3.0, 7.0],
            [3.0, 3.0, 7.0],
        ]
    )
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    for leaf in (1, 2):
        tree = ClassificationTree(min_samples_leaf=leaf).fit(X, y)
        assert _fitted_structure(tree) == _reference_structure(
            X, y, max_depth=6, min_samples_split=2, min_samples_leaf=leaf
        )
        # The duplicated column tie must resolve to the lower index.
        assert tree.root.feature == 0


def test_split_matches_reference_on_equal_gini_thresholds():
    # Symmetric data: two thresholds achieve the same weighted Gini; the
    # reference's lexicographic key takes the lowest threshold.
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    tree = ClassificationTree().fit(X, y)
    assert _fitted_structure(tree) == _reference_structure(
        X, y, max_depth=6, min_samples_split=2, min_samples_leaf=1
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_tree_identical_to_reference_growth(
    n, p, k, n_values, min_leaf, seed
):
    """The vectorized fit grows the identical tree — same splits, same
    thresholds, same leaf counts — as reference-loop growth, including
    on heavily tied (few distinct values) feature columns."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, p)).astype(float)
    y = rng.integers(0, k, size=n)
    tree = ClassificationTree(max_depth=4, min_samples_leaf=min_leaf).fit(X, y)
    assert _fitted_structure(tree) == _reference_structure(
        X, y, max_depth=4, min_samples_split=2, min_samples_leaf=min_leaf
    )


def test_leaf_tie_break_is_label_permutation_covariant():
    # One unsplittable node with tied class counts: constant features.
    X = np.zeros((4, 2))
    y = np.array([2, 0, 0, 2])
    tree = ClassificationTree().fit(X, y)
    # Tie between classes 0 and 2; the earliest sample (index 0) has
    # class 2, so the covariant rule predicts 2 — not the lowest id.
    assert tree.predict(np.zeros(2)) == 2

    # Relabeling the classes relabels the prediction identically.
    perm = {0: 1, 2: 0}
    y_perm = np.array([perm[c] for c in y])
    tree_perm = ClassificationTree().fit(X, y_perm)
    assert tree_perm.predict(np.zeros(2)) == perm[2]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=30),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_predictions_label_permutation_covariant(n, k, seed):
    """Permuting class ids permutes every prediction identically, even
    through tied leaves (the warm-started-PAM invariance the evaluation
    driver relies on; see docs/TRAINING_ENGINE.md)."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, 2)).astype(float)
    y = rng.integers(0, k, size=n)
    perm = rng.permutation(k)
    tree = ClassificationTree(max_depth=3).fit(X, y)
    tree_perm = ClassificationTree(max_depth=3).fit(X, perm[y])
    np.testing.assert_array_equal(perm[tree.predict(X)], tree_perm.predict(X))
