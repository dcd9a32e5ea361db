import hashlib

import numpy as np
import pytest

from jamcodec import forest
from jamcodec.errors import ShapeError


def tied_data(seed, n=90):
    """Rows on a coarse grid (many tied values) with labels 1, 4, 7 that depend on them."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, 12))
    X[:, :8] = rng.integers(0, 5, size=(n, 8)) * 0.5  # five distinct values per feature
    X[:, 8:] = np.round(rng.normal(size=(n, 4)), 1)
    score = X[:, 0] + X[:, 3] - X[:, 8] + rng.normal(scale=0.5, size=n)
    y = np.where(score < 1.5, 1, np.where(score < 3.0, 4, 7))
    return X, y


def dump(node, thresholds=True):
    """Pre-order (feature, threshold, label) of every node; floats as exact hex."""
    if node.label >= 0:
        return f"L{node.label}"
    t = f":{float(node.threshold).hex()}" if thresholds else ""
    return (f"N{node.feature}{t}"
            f"({dump(node.left, thresholds)},{dump(node.right, thresholds)})")


def fingerprint(model, X_test):
    h = hashlib.sha256()
    for tree in model.trees:
        h.update(dump(tree).encode())
        h.update(b"\n")
    h.update(np.asarray(forest.predict_batch(model, X_test), dtype=np.int64).tobytes())
    return h.hexdigest()


GOLDEN = {
    "default": (forest.ForestConfig(n_trees=25, seed=3),
                "5c749713500cddf1f2f0afe7eaf307dc51feb6c8aa772e5c6a862a08d2846c46"),
    "min_leaf_3": (forest.ForestConfig(n_trees=25, min_leaf=3, seed=5),
                   "32b85b96103fef36f78d3bf4e9439452931ee911fb8c7b7653c678def6de0e09"),
    "max_depth_4": (forest.ForestConfig(n_trees=25, max_depth=4, seed=7),
                    "2c8e91c592f54ce9f01a3f6af7344bc36191c9f563032f8beb115fccc349dd68"),
    "full_width_no_bootstrap": (forest.ForestConfig(n_trees=3, features_per_split=12,
                                                    bootstrap=False, seed=11),
                                "965ce39de84850b3adc2873fba992ae0d8ec44679e6cd397a7d9336bedb6ee26"),
}


class TestTrees:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_trees_and_predictions(self, name):
        cfg, expect = GOLDEN[name]
        X, y = tied_data(0)
        X_test, _ = tied_data(1, n=60)
        assert fingerprint(forest.train_forest(X, y, cfg), X_test) == expect

    def test_tie_break_first_feature_then_first_cut(self):
        # columns 0 and 1 are identical; both cuts of column 0 score 1/3
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        cfg = forest.ForestConfig(n_trees=1, features_per_split=2, bootstrap=False)
        root = forest.train_forest(X, [0, 1, 0], cfg).trees[0]
        assert (root.feature, root.threshold) == (0, 1.0)

    def test_monotone_transform_invariance(self):
        X, y = tied_data(2)
        X_test, _ = tied_data(3, n=60)
        transforms = [np.exp, lambda v: 3.0 * v - 7.0, lambda v: v**3 + v, np.arctan]

        def warp(A):
            return np.column_stack([transforms[j % 4](A[:, j]) for j in range(A.shape[1])])

        cfg = forest.ForestConfig(n_trees=30, seed=4)
        plain = forest.train_forest(X, y, cfg)
        warped = forest.train_forest(warp(X), y, cfg)
        assert ([dump(t, thresholds=False) for t in plain.trees]
                == [dump(t, thresholds=False) for t in warped.trees])
        np.testing.assert_array_equal(forest.predict_batch(plain, X_test),
                                      forest.predict_batch(warped, warp(X_test)))


class TestPredict:
    def test_single_row_matches_batch(self):
        X, y = tied_data(4)
        X_test, _ = tied_data(5, n=40)
        X_test[7, 2] = np.nan
        X_test[8, :] = np.nan
        model = forest.train_forest(X, y, forest.ForestConfig(n_trees=40, seed=2))
        batch = forest.predict_batch(model, X_test)
        assert [forest.predict(model, row) for row in X_test] == batch.tolist()

    def test_vote_tie_goes_to_smallest_class(self):
        X = np.array([[0.0], [1.0]])
        model = forest.train_forest(X, [3, 9], forest.ForestConfig(n_trees=2, bootstrap=False))
        model.trees[1] = model.trees[1].right  # a leaf for class index 1
        model.trees[0] = model.trees[0].left  # a leaf for class index 0
        assert forest.predict(model, [1.0]) == 3
        assert forest.predict_batch(model, [[1.0]]).tolist() == [3]

    def test_wrong_feature_count(self):
        X, y = tied_data(4)
        model = forest.train_forest(X, y, forest.ForestConfig(n_trees=2))
        with pytest.raises(ShapeError):
            forest.predict(model, X[0, :5])
        with pytest.raises(ShapeError):
            forest.predict_batch(model, X[:, :5])


class TestFBeta:
    def test_two_class_hand_count(self):
        cm = forest.ConfusionMatrix([[3, 1], [2, 4]], ("a", "b"))
        # a: P = 3/5, R = 3/4; b: P = 4/5, R = 4/6
        f2 = forest.fbeta(cm, 2.0)
        np.testing.assert_allclose(f2.precision, [0.6, 0.8], rtol=1e-15)
        np.testing.assert_allclose(f2.recall, [0.75, 2 / 3], rtol=1e-15)
        np.testing.assert_allclose(f2.per_class, [5 / 7, 20 / 29], rtol=1e-14)
        assert f2.macro == pytest.approx((5 / 7 + 20 / 29) / 2, rel=1e-14)
        f05 = forest.fbeta(cm, 0.5)
        np.testing.assert_allclose(f05.per_class, [5 / 8, 10 / 13], rtol=1e-14)

    def test_class_absent_from_truth(self):
        # y never occurs in truth but is predicted once; it scores 0 and is left
        # out of the macro average.
        cm = forest.ConfusionMatrix([[2, 0, 1], [0, 0, 0], [1, 1, 3]], ("x", "y", "z"))
        f2 = forest.fbeta(cm, 2.0)
        np.testing.assert_allclose(f2.precision, [2 / 3, 0.0, 3 / 4], rtol=1e-15)
        np.testing.assert_allclose(f2.recall, [2 / 3, 0.0, 3 / 5], rtol=1e-15)
        np.testing.assert_allclose(f2.per_class, [2 / 3, 0.0, 5 / 8], rtol=1e-14)
        assert f2.macro == pytest.approx((2 / 3 + 5 / 8) / 2, rel=1e-14)
