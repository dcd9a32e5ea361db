import hashlib
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from jamcodec import forest, nn, quantize
from jamcodec.errors import InvalidSpecError, ShapeError

from conftest import CPUS


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


def per_node_split(X, y, feats, n_classes, min_leaf):
    """One node at a time: the split search trees were grown with before batching."""
    n = len(y)
    if n < 2:
        return None
    cols = X[:, feats]
    order = np.argsort(cols, axis=0, kind="stable").T  # (k, n)
    xs = np.take_along_axis(cols.T, order, axis=1)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    cum = np.cumsum(onehot[order], axis=1)  # (k, n, n_classes)
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n
    left_counts = cum[:, :-1]
    right_counts = cum[:, -1:] - left_counts
    gini_l = 1.0 - np.sum(left_counts**2, axis=2) / left_n**2
    gini_r = 1.0 - np.sum(right_counts**2, axis=2) / right_n**2
    w = (left_n * gini_l + right_n * gini_r) / n
    w[xs[:, :-1] >= xs[:, 1:]] = math.inf
    w[:, (left_n < min_leaf) | (right_n < min_leaf)] = math.inf
    f, i = divmod(int(np.argmin(w)), n - 1)
    if not math.isfinite(w[f, i]):
        return None
    return int(feats[f]), float(xs[f, i]).hex()


@st.composite
def split_batches(draw):
    """Tie-heavy rows, 1-6 classes and a batch of nodes of 1-40 (possibly repeated) rows."""
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 6))
    levels = draw(st.integers(0, 4))
    X = draw(arrays(np.int64, (n_rows, n_features), elements=st.integers(0, levels))) * 0.5
    y = draw(arrays(np.int64, n_rows, elements=st.integers(0, n_classes - 1)))
    k = draw(st.integers(1, n_features))
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=40))
        feats = sorted(draw(st.permutations(range(n_features)))[:k])
        nodes.append((np.asarray(rows), np.asarray(feats)))
    return X, y, n_classes, nodes, draw(st.integers(1, 3))


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


def baseline_shaped(seed, n=144):
    """Continuous rows shaped like the Baseline train split: 177 features, 6 balanced classes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 177))
    score = X[:, :6] @ rng.normal(size=6) + 0.3 * rng.normal(size=n)
    y = np.digitize(score, np.quantile(score, [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6]))
    return X, y


def no_cut_data(seed, n=60):
    """Constant and duplicated columns, labels they cannot separate: many nodes have no cut."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, 8))
    X[:, 0:3] = 2.5
    X[:, 3] = rng.integers(0, 3, size=n)
    X[:, 4] = X[:, 3]
    X[:, 5] = rng.integers(0, 2, size=n) * 1.5
    X[:, 6] = X[:, 5]
    X[:, 7] = -1.0
    return X, rng.integers(0, 3, size=n)


class TestTrees:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_trees_and_predictions(self, name):
        cfg, expect = GOLDEN[name]
        X, y = tied_data(0)
        X_test, _ = tied_data(1, n=60)
        assert fingerprint(forest.train_forest(X, y, cfg), X_test) == expect

    def test_golden_baseline_shaped(self):
        X, y = baseline_shaped(0)
        X_test, _ = baseline_shaped(1, n=36)
        model = forest.train_forest(X, y, forest.ForestConfig(n_trees=120, seed=0))
        assert (fingerprint(model, X_test)
                == "1b18dfb96a2a10269b3e71c4bd074f80fb13eb03652d5238b8b77595ed2e6d4f")

    def test_golden_single_class(self):
        X, _ = baseline_shaped(0, n=40)
        X_test, _ = baseline_shaped(1, n=36)
        model = forest.train_forest(X, np.full(40, 5), forest.ForestConfig(n_trees=7, seed=2))
        assert model.classes == (5,) and {dump(t) for t in model.trees} == {"L0"}
        assert (fingerprint(model, X_test)
                == "0bd98dfed517aea8d82d0b89959b191f1de13fc4ab31785a2894f96b08abd439")

    def test_golden_constant_and_duplicated_columns(self):
        X, y = no_cut_data(0)
        X_test, _ = no_cut_data(1, n=30)
        model = forest.train_forest(X, y, forest.ForestConfig(n_trees=30, features_per_split=2,
                                                              seed=4))
        assert "L1" in [dump(t) for t in model.trees]  # a root with no valid cut
        assert (fingerprint(model, X_test)
                == "a526d3b3df7593976e1bb56bfb120128c110045a5ed34ddc764d0cc7ee31c23f")

    def test_golden_min_leaf_2_full_width(self):
        X, y = baseline_shaped(2, n=80)
        X_test, _ = baseline_shaped(1, n=36)
        cfg = forest.ForestConfig(n_trees=10, min_leaf=2, features_per_split=20, seed=6)
        model = forest.train_forest(X[:, :20], y, cfg)
        assert (fingerprint(model, X_test[:, :20])
                == "72171accf851b227b339fb3a3ab124813ffb3ec1b06ce162b7b0330695981852")

    def test_tree_does_not_depend_on_forest_size(self):
        X, y = baseline_shaped(3, n=100)
        small = forest.train_forest(X, y, forest.ForestConfig(n_trees=10, seed=9))
        large = forest.train_forest(X, y, forest.ForestConfig(n_trees=40, seed=9))
        assert [dump(t) for t in large.trees[:10]] == [dump(t) for t in small.trees]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_value_is_rejected(self, bad):
        X = np.array([[np.nan], [np.nan], [1.0], [np.nan]])
        cfg = forest.ForestConfig(n_trees=1, bootstrap=False)
        with pytest.raises(InvalidSpecError):
            forest.train_forest(np.where(np.isnan(X), bad, X), [0, 1, 0, 1], cfg)


class TestBatchedSearch:
    @given(split_batches())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_node_search(self, batch):
        X, y, n_classes, nodes, min_leaf = batch
        feature, threshold = forest._best_splits(
            X, forest._dense_ranks(X), y, np.concatenate([r for r, _ in nodes]),
            [len(r) for r, _ in nodes], np.array([f for _, f in nodes]), n_classes, min_leaf)
        got = [None if f < 0 else (int(f), float(t).hex()) for f, t in zip(feature, threshold)]
        assert got == [per_node_split(X[r], y[r], f, n_classes, min_leaf) for r, f in nodes]

    @pytest.mark.parametrize("budget", [1, 300])
    def test_row_budget_does_not_change_trees(self, monkeypatch, budget):
        monkeypatch.setattr(forest, "_STEP_ROWS", budget)
        for name in ("default", "min_leaf_3"):
            cfg, expect = GOLDEN[name]
            X, y = tied_data(0)
            X_test, _ = tied_data(1, n=60)
            assert fingerprint(forest.train_forest(X, y, cfg), X_test) == expect


def protocol_data(seed=0, n=72, d=12):
    """evaluate_protocol's arguments: the raw rows and their float and int8 reconstructions by an
    untrained AE, the rows' labels for two tasks, and a train mask."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    score = X[:, :3] @ rng.normal(size=3)
    cls = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3]))
    labels = {"detection": np.where(cls > 0, "jam", "clean"),
              "classification": np.asarray(["a", "b", "c"])[cls]}
    ae = nn.build_autoencoder(d, (8,), 3, seed=seed)
    qae = quantize.quantize_model(ae, quantize.calibrate(ae, X))
    reps = {forest.RAW: X, forest.FLOAT_RECON: nn.forward(ae, X)[0],
            forest.INT8_RECON: quantize.int8_forward(qae, X)}
    return reps, labels, np.arange(n) % 3 != 0


def protocol_digest(results):
    """SHA-256 of every (variant, task) score in result order; floats as exact hex."""
    flat = [[variant, task, r["f2"].hex(), r["f05"].hex(), list(r["confusion"].labels),
             r["confusion"].counts.tolist(), {l: v.hex() for l, v in r["per_class_f2"].items()}]
            for variant, tasks in results.items() for task, r in tasks.items()]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


class TestEvaluateProtocol:
    GOLDEN = "6492d82f6d0e1dd93d1ba548bd9d6666fe10762b8fe28caffc431b9071d84f48"  # the serial loop's scores

    def test_both_paths_give_the_golden_scores(self, cpus):
        results = forest.evaluate_protocol(*protocol_data(), forest.ForestConfig(n_trees=8, seed=1))
        assert [(v, list(t)) for v, t in results.items()] == [
            (v, ["detection", "classification"]) for v in (forest.RAW, forest.FLOAT_RECON, forest.INT8_RECON)]
        assert protocol_digest(results) == self.GOLDEN

    @pytest.mark.parametrize("cpu_set", sorted(CPUS))
    def test_a_non_finite_matrix_raises_invalid_spec_in_the_caller(self, cpu_set, monkeypatch):
        """The check covers every representation and runs before any worker forks, whether or not
        fork_map would use workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[cpu_set])
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: contexts.append(method) or get_context(method))
        reps, labels, train = protocol_data()
        reps[forest.RAW][1, 2] = np.nan
        with pytest.raises(InvalidSpecError, match="finite"):
            forest.evaluate_protocol(reps, labels, train, forest.ForestConfig(n_trees=2))
        assert contexts == []


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
        # F-beta tends to precision as beta -> 0 and to recall as beta -> inf
        np.testing.assert_allclose(forest.fbeta(cm, 1e-6)[0], [0.6, 0.8], rtol=1e-10)
        np.testing.assert_allclose(forest.fbeta(cm, 1e6)[0], [0.75, 2 / 3], rtol=1e-10)
        per_class, macro = forest.fbeta(cm, 2.0)
        np.testing.assert_allclose(per_class, [5 / 7, 20 / 29], rtol=1e-14)
        assert macro == pytest.approx((5 / 7 + 20 / 29) / 2, rel=1e-14)
        np.testing.assert_allclose(forest.fbeta(cm, 0.5)[0], [5 / 8, 10 / 13], rtol=1e-14)

    def test_class_absent_from_truth(self):
        # y never occurs in truth but is predicted once; it scores 0 and is left
        # out of the macro average.
        cm = forest.ConfusionMatrix([[2, 0, 1], [0, 0, 0], [1, 1, 3]], ("x", "y", "z"))
        np.testing.assert_allclose(forest.fbeta(cm, 1e-6)[0], [2 / 3, 0.0, 3 / 4], rtol=1e-10)  # precision
        np.testing.assert_allclose(forest.fbeta(cm, 1e6)[0], [2 / 3, 0.0, 3 / 5], rtol=1e-10)  # recall
        per_class, macro = forest.fbeta(cm, 2.0)
        np.testing.assert_allclose(per_class, [2 / 3, 0.0, 5 / 8], rtol=1e-14)
        assert macro == pytest.approx((2 / 3 + 5 / 8) / 2, rel=1e-14)
