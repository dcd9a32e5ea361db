"""Random-forest detection and classification with F-beta scoring.

Trees grow greedily on Gini impurity with exact threshold search. Each node
scores every sampled feature and every cut in one pass; among equal Gini
values it takes the first sampled feature (in ascending feature order), then
the first cut. The split threshold is the largest left-group value
(predicate x <= t), which makes tree structure and predictions invariant
under any strictly monotone per-feature transform. Vote ties resolve to the
smallest class index.
"""

from dataclasses import dataclass, field
import csv
import json
import math

import numpy as np

from . import nn, quantize
from .errors import InvalidSpecError, LeakageError, ShapeError
from .signals import derived_rng

RAW = "raw"
FLOAT_RECON = "float_recon"
INT8_RECON = "int8_recon"
VARIANTS = (RAW, FLOAT_RECON, INT8_RECON)
TASK_DETECTION = "detection"
TASK_CLASSIFICATION = "classification"


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None  # default ceil(sqrt(n_features))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidSpecError("need at least one tree")
        if self.min_leaf < 1:
            raise InvalidSpecError("min_leaf must be >= 1")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.label = -1


def _majority(y, n_classes):
    return int(np.argmax(np.bincount(y, minlength=n_classes)))


def _best_split(X, y, feats, n_classes, min_leaf):
    """Lowest weighted Gini over (feature, threshold); None when unsplittable.

    Scores every sampled feature in one pass over a (feature, cut) array.
    Ties go to the first feature in ``feats`` order, then to its first cut.
    """
    n = len(y)
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
    # class counts are small integers, so these sums are exact in any order
    gini_l = 1.0 - np.sum(left_counts**2, axis=2) / left_n**2
    gini_r = 1.0 - np.sum(right_counts**2, axis=2) / right_n**2
    w = (left_n * gini_l + right_n * gini_r) / n
    w[xs[:, :-1] >= xs[:, 1:]] = math.inf  # only between distinct values
    w[:, (left_n < min_leaf) | (right_n < min_leaf)] = math.inf
    f, i = divmod(int(np.argmin(w)), n - 1)
    if not math.isfinite(w[f, i]):
        return None
    return int(feats[f]), float(xs[f, i])


def _grow(X, y, n_classes, depth, cfg, k_features, rng):
    node = _Node()
    if (
        y.min() == y.max()
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
        or len(y) < 2 * cfg.min_leaf
    ):
        node.label = _majority(y, n_classes)
        return node
    if k_features < X.shape[1]:
        feats = np.sort(rng.choice(X.shape[1], size=k_features, replace=False))
    else:
        feats = np.arange(X.shape[1])
    split = _best_split(X, y, feats, n_classes, cfg.min_leaf)
    if split is None:
        node.label = _majority(y, n_classes)
        return node
    node.feature, node.threshold = split
    mask = X[:, node.feature] <= node.threshold
    node.left = _grow(X[mask], y[mask], n_classes, depth + 1, cfg, k_features, rng)
    node.right = _grow(X[~mask], y[~mask], n_classes, depth + 1, cfg, k_features, rng)
    return node


@dataclass
class Forest:
    trees: list
    classes: tuple  # sorted original labels; index order breaks vote ties
    n_features: int
    degenerate: bool = False  # trained on a single class

    def predict_indices(self, X):
        """Majority-vote class index per row, walking each tree on Python floats."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ShapeError(f"forest expects {self.n_features} features, got {X.shape[1]}")
        out = []
        for row in X.tolist():
            votes = [0] * len(self.classes)
            for node in self.trees:
                while node.label < 0:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                votes[node.label] += 1
            out.append(votes.index(max(votes)))  # first max: smallest class index
        return np.asarray(out, dtype=np.int64)


def train_forest(X, y, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Bootstrap-sampled Gini trees; deterministic for a fixed config seed.

    Single-class data yields a flagged constant classifier rather than an
    error.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise InvalidSpecError("X and y must be non-empty and aligned")
    classes = tuple(sorted(set(y.tolist())))
    y_idx = np.searchsorted(np.asarray(classes, dtype=y.dtype), y).astype(np.int64)
    n_classes = len(classes)
    k = cfg.features_per_split or int(math.ceil(math.sqrt(X.shape[1])))
    k = min(max(k, 1), X.shape[1])

    trees = []
    for t in range(cfg.n_trees):
        rng = derived_rng(cfg.seed, t)
        if cfg.bootstrap:
            rows = rng.integers(0, X.shape[0], size=X.shape[0])
        else:
            rows = np.arange(X.shape[0])
        trees.append(_grow(X[rows], y_idx[rows], n_classes, 0, cfg, k, rng))
    return Forest(trees=trees, classes=classes, n_features=X.shape[1], degenerate=n_classes == 1)


def predict(forest: Forest, x):
    """Majority-vote label for one sample."""
    return forest.classes[int(forest.predict_indices(np.atleast_2d(x))[0])]


def predict_batch(forest: Forest, X) -> np.ndarray:
    idx = forest.predict_indices(X)
    return np.asarray([forest.classes[i] for i in idx])


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = true class, columns = predicted
    labels: tuple

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        c = len(self.labels)
        if self.counts.shape != (c, c):
            raise InvalidSpecError("confusion matrix must be square over its labels")
        if np.any(self.counts < 0):
            raise InvalidSpecError("confusion counts must be non-negative")

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(y_true, y_pred, labels=None) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise InvalidSpecError("prediction/truth lengths differ")
    if labels is None:
        labels = tuple(sorted(set(y_true.tolist()) | set(y_pred.tolist())))
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(counts, tuple(labels))


@dataclass
class FBetaScore:
    beta: float
    precision: np.ndarray
    recall: np.ndarray
    per_class: np.ndarray
    macro: float


def fbeta(cm: ConfusionMatrix, beta: float) -> FBetaScore:
    """One-vs-rest F-beta per class, macro-averaged over classes present in truth."""
    if beta <= 0:
        raise InvalidSpecError("beta must be positive")
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    b2 = beta * beta
    denom = b2 * precision + recall
    per_class = np.divide((1 + b2) * precision * recall, denom,
                          out=np.zeros_like(denom), where=denom > 0)
    present = row > 0
    macro = float(np.mean(per_class[present])) if present.any() else 0.0
    return FBetaScore(beta=beta, precision=precision, recall=recall,
                      per_class=per_class, macro=macro)


@dataclass
class FeatureDataset:
    """Feature matrix plus labels and the scenario-based split."""

    X: np.ndarray
    class_labels: np.ndarray
    detection_labels: np.ndarray
    scenario_ids: np.ndarray
    train_scenarios: frozenset
    test_scenarios: frozenset

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if set(self.train_scenarios) & set(self.test_scenarios):
            raise InvalidSpecError("train and test scenarios overlap")

    @property
    def train_mask(self) -> np.ndarray:
        return np.isin(self.scenario_ids, sorted(self.train_scenarios))

    @property
    def test_mask(self) -> np.ndarray:
        return np.isin(self.scenario_ids, sorted(self.test_scenarios))


@dataclass
class EvaluationReport:
    """F2/F0.5 and confusion matrices for raw / float-recon / int8-recon."""

    results: dict
    n_train: int
    n_test: int

    def score(self, variant, task, beta=2.0) -> float:
        key = "f2" if beta == 2.0 else "f05"
        return self.results[variant][task][key]

    def confusions(self) -> list:
        return [self.results[v][t]["confusion"] for v in self.results for t in self.results[v]]

    def to_json(self) -> dict:
        out = {"n_train": self.n_train, "n_test": self.n_test, "results": {}}
        for variant, tasks in self.results.items():
            out["results"][variant] = {}
            for task, r in tasks.items():
                cm = r["confusion"]
                out["results"][variant][task] = {
                    "f2": r["f2"],
                    "f05": r["f05"],
                    "labels": list(cm.labels),
                    "confusion": cm.counts.tolist(),
                    "per_class_f2": r["per_class_f2"],
                }
        return out


def _score_task(train_X, train_y, test_X, test_y, cfg, labels) -> dict:
    model = train_forest(train_X, train_y, cfg)
    pred = predict_batch(model, test_X)
    cm = confusion_matrix(test_y, pred, labels=labels)
    f2 = fbeta(cm, 2.0)
    f05 = fbeta(cm, 0.5)
    return {
        "f2": f2.macro,
        "f05": f05.macro,
        "confusion": cm,
        "per_class_f2": {l: float(v) for l, v in zip(cm.labels, f2.per_class)},
    }


def evaluate_protocol(dataset: FeatureDataset, ae: nn.AeModel, qae: quantize.QuantizedModel,
                      cfg: ForestConfig = ForestConfig()) -> EvaluationReport:
    """Three forests (raw, float-recon, int8-recon) on detection + classification.

    The autoencoder must carry its training scenarios in
    ``metadata["train_scenarios"]``; any overlap with the dataset's test
    scenarios raises LeakageError. Each forest trains and evaluates on its
    own representation of the scenario split.
    """
    ae_scen = ae.metadata.get("train_scenarios")
    if ae_scen is not None:
        overlap = set(int(s) for s in ae_scen) & set(int(s) for s in dataset.test_scenarios)
        if overlap:
            raise LeakageError(f"AE was trained on test scenarios {sorted(overlap)}")

    train_m, test_m = dataset.train_mask, dataset.test_mask
    if not train_m.any() or not test_m.any():
        raise InvalidSpecError("both scenario splits must be non-empty")

    reps = {RAW: dataset.X}
    recon_f, _ = nn.forward(ae, dataset.X)
    reps[FLOAT_RECON] = recon_f
    reps[INT8_RECON] = quantize.int8_forward(qae, dataset.X)

    class_labels = tuple(sorted(set(dataset.class_labels.tolist())))
    det_labels = tuple(sorted(set(dataset.detection_labels.tolist())))
    results = {}
    for variant in VARIANTS:
        X = reps[variant]
        results[variant] = {
            TASK_DETECTION: _score_task(
                X[train_m], dataset.detection_labels[train_m],
                X[test_m], dataset.detection_labels[test_m], cfg, det_labels,
            ),
            TASK_CLASSIFICATION: _score_task(
                X[train_m], dataset.class_labels[train_m],
                X[test_m], dataset.class_labels[test_m], cfg, class_labels,
            ),
        }
    return EvaluationReport(results=results, n_train=int(train_m.sum()), n_test=int(test_m.sum()))


def write_confusion_csv(path, cm: ConfusionMatrix) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["true\\pred"] + list(cm.labels))
        for label, row in zip(cm.labels, cm.counts):
            w.writerow([label] + [int(v) for v in row])


def write_metrics_json(path, report: EvaluationReport) -> None:
    """Flat records: {task, model_variant, f2, f05, per_class}."""
    records = []
    for variant, tasks in report.results.items():
        for task, r in tasks.items():
            records.append({
                "task": task,
                "model_variant": variant,
                "f2": r["f2"],
                "f05": r["f05"],
                "per_class": r["per_class_f2"],
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True, indent=2)
