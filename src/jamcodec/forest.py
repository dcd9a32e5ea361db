"""Random-forest detection and classification with F-beta scoring.

Trees grow greedily on Gini impurity with exact threshold search. All trees
of a forest grow in lockstep: each step takes the next node of every live
tree, up to a fixed budget of rows, and scores every sampled feature and
every cut of all of them in one batched search. Among equal Gini values a
node takes the first sampled feature (in ascending feature order), then the
first cut. Trees do not depend on the batching: each tree draws from its own
generator in depth-first pre-order, and the Gini sums are exact integers.
The split threshold is the largest left-group value (predicate x <= t), which
makes tree structure and predictions invariant under any strictly monotone
per-feature transform. Vote ties resolve to the smallest class index.

``evaluate_protocol(reps, labels, train, cfg)`` is the paper's comparison: a
forest per representation (raw features, float and int8 reconstructions),
trained on the ``train`` rows and scored on the rest. It is the one call
here that fans out: its six forests train in forked workers (see
``parallel``), while ``train_forest`` and ``predict`` run in their caller.
"""

from dataclasses import dataclass
import csv
import json
import math

import numpy as np

from . import parallel
from .errors import InvalidSpecError, ShapeError
from .signals import derived_rng

RAW = "raw"
FLOAT_RECON = "float_recon"
INT8_RECON = "int8_recon"
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
        if self.max_depth is not None and self.max_depth < 1:
            raise InvalidSpecError(f"max_depth must be >= 1 or null, got {self.max_depth}")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.label = -1


_STEP_ROWS = 2048  # rows per batched split search; bounds its (k, rows) arrays


def _dense_ranks(X):
    """Per-column rank of each value among that column's distinct values.

    Ranks order like the values and tie exactly where the values tie, so a
    sort by rank is a sort by value.
    """
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ranks_sorted = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[1:] != xs[:-1], axis=0, out=ranks_sorted[1:])
    ranks = np.empty_like(ranks_sorted)
    np.put_along_axis(ranks, order, ranks_sorted, axis=0)
    return ranks


def _best_splits(X, ranks, y, rows, sizes, feats, n_classes, min_leaf):
    """Lowest weighted Gini over (feature, threshold) for a batch of nodes.

    Node ``b`` owns the next ``sizes[b]`` entries of ``rows`` (indices into
    ``X``, duplicates allowed) and the sampled feature indices ``feats[b]``;
    ``ranks`` is ``_dense_ranks(X)``. Returns ``(feature, threshold)`` arrays;
    a node with no valid cut gets feature -1 and threshold +inf. Within a node
    ties go to the first feature in ``feats[b]`` order, then to its first cut.

    All nodes are segments of one (k, M) array, sorted at once by the key
    ``node * len(ranks) + rank``. The class sums of squares left and right of
    every cut are exact integers, so every Gini value is bit-equal to a
    per-node search over the same rows.
    """
    n_nodes, k = feats.shape
    m = len(rows)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(n_nodes), sizes)
    pos = np.arange(m)
    flat = np.arange(0, k * m, m)[:, None]  # row offsets into a raveled (k, M) array
    keys = seg * len(ranks) + ranks.ravel()[rows * ranks.shape[1] + feats[seg].T]
    keys = keys.astype(np.min_scalar_type(n_nodes * len(ranks) - 1))  # radix sort if narrow
    order = np.argsort(keys, axis=1, kind="stable")
    keys = keys.ravel()[order + flat]

    # Adding a row of class c to the left raises sum L_c^2 by 2*occ + 1, where
    # occ counts the rows of class c before it in the node's sorted order, and
    # changes sum R_c^2 by 2*occ + 1 - 2*T_c. A stable sort by (node, class)
    # puts group g in the same tot[g] slots of every row, which gives occ.
    y_rows = y[rows]
    tot = np.bincount(seg * n_classes + y_rows, minlength=n_nodes * n_classes)
    groups = seg * n_classes + y_rows[order]
    g_order = np.argsort(groups.astype(np.min_scalar_type(n_nodes * n_classes - 1)),
                         axis=1, kind="stable")
    left_sq = np.empty((k, m))
    left_sq.ravel()[g_order + flat] = 2.0 * (pos - np.repeat(np.cumsum(tot) - tot, tot)) + 1.0
    right_sq = (2.0 * tot)[groups]
    np.subtract(left_sq, right_sq, out=right_sq)
    # one cumsum per row, reset at node starts by the node's sum T_c^2; every
    # partial sum is a small integer, so float64 holds it exactly
    tot_sq = (tot.reshape(n_nodes, n_classes) ** 2).sum(axis=1).astype(np.float64)
    left_sq[:, starts[1:]] -= tot_sq[:-1]
    right_sq[:, starts] += tot_sq
    np.cumsum(left_sq, axis=1, out=left_sq)
    np.cumsum(right_sq, axis=1, out=right_sq)

    # w = (left_n * gini_l + right_n * gini_r) / n with gini = 1 - sq / count**2:
    # the IEEE operations of a per-node search, in place to spare page faults
    n = np.repeat(sizes.astype(np.float64), sizes)
    left_n = (pos - np.repeat(starts, sizes) + 1).astype(np.float64)
    right_n = n - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 after each node's last row
        gini_l = np.subtract(1.0, np.divide(left_sq, left_n**2, out=left_sq), out=left_sq)
        gini_r = np.subtract(1.0, np.divide(right_sq, right_n**2, out=right_sq), out=right_sq)
    w = np.multiply(left_n, gini_l, out=gini_l)
    w += np.multiply(right_n, gini_r, out=gini_r)
    w /= n
    invalid = np.empty(w.shape, dtype=bool)
    np.equal(keys[:, :-1], keys[:, 1:], out=invalid[:, :-1])  # only between distinct values
    invalid[:, -1] = True
    invalid |= (left_n < min_leaf) | (right_n < min_leaf)  # masks each node's last row too
    w = np.where(invalid, math.inf, w)

    row_min = np.minimum.reduceat(w, starts, axis=1)  # (k, n_nodes)
    best = row_min.min(axis=0)
    f = np.argmax(row_min == best, axis=0)
    cut = np.minimum.reduceat(np.where(w[f[seg], pos] == best[seg], pos, m), starts)
    feature = feats[np.arange(n_nodes), f]
    threshold = X[rows[order[f, cut]], feature]
    ok = np.isfinite(best)
    return np.where(ok, feature, -1), np.where(ok, threshold, math.inf)


@dataclass
class Forest:
    trees: list
    classes: tuple  # sorted original labels; index order breaks vote ties
    n_features: int

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

    All trees grow in lockstep: each step takes the next node of every live
    tree, up to a budget of rows, and scores them in one batched split
    search. Each tree keeps its own ``derived_rng(seed, t)`` and a depth-first
    stack (right child pushed before left), so it draws its features in the
    same pre-order as a recursive grower, and trees share no state, so which
    trees share a step cannot change any of them. Gini sums are exact
    integers, which makes every split the one a per-node search would choose.

    Single-class data yields a constant classifier (``classes`` holds one
    label), not an error; a NaN or infinite value in X raises InvalidSpecError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise InvalidSpecError("X and y must be non-empty and aligned")
    if not np.isfinite(X).all():
        raise InvalidSpecError("X must be finite")
    classes = tuple(sorted(set(y.tolist())))
    y_idx = np.searchsorted(np.asarray(classes, dtype=y.dtype), y).astype(np.int64)
    n_rows, n_features = X.shape
    n_classes = len(classes)
    k = cfg.features_per_split or int(math.ceil(math.sqrt(n_features)))
    k = min(max(k, 1), n_features)
    max_depth = math.inf if cfg.max_depth is None else cfg.max_depth
    ranks = _dense_ranks(X)

    def settle(node, rows, depth, label, pure, stack):
        if pure or depth >= max_depth or len(rows) < 2 * cfg.min_leaf:
            node.label = label
        else:
            stack.append((node, rows, depth))

    trees, rngs, stacks = [], [], []
    for t in range(cfg.n_trees):
        rng = derived_rng(cfg.seed, t)
        rows = rng.integers(0, n_rows, size=n_rows) if cfg.bootstrap else np.arange(n_rows)
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        trees.append(_Node())
        rngs.append(rng)
        stacks.append([])
        settle(trees[-1], rows, 0, int(np.argmax(counts)), int(counts.max()) == n_rows,
               stacks[-1])

    live = [t for t in range(cfg.n_trees) if stacks[t]]
    while live:
        batch, n_batch = [], 0
        for t in live:
            node, rows, depth = stacks[t][-1]
            if batch and n_batch + len(rows) > _STEP_ROWS:
                continue
            stacks[t].pop()
            if k < n_features:
                feats = np.sort(rngs[t].choice(n_features, size=k, replace=False))
            else:
                feats = np.arange(n_features)
            batch.append((t, node, rows, depth, feats))
            n_batch += len(rows)
        rows = np.concatenate([b[2] for b in batch])
        sizes = [len(b[2]) for b in batch]
        feature, threshold = _best_splits(X, ranks, y_idx, rows, sizes,
                                          np.array([b[4] for b in batch]), n_classes,
                                          cfg.min_leaf)
        # children as segments 2b (left) and 2b + 1 (right); a node without a
        # cut has threshold +inf, so all its rows land left and give its label
        side = 2 * np.repeat(np.arange(len(batch)), sizes)
        side += X[rows, np.repeat(feature, sizes)] > np.repeat(threshold, sizes)
        child_rows = rows[np.argsort(side.astype(np.min_scalar_type(2 * len(batch))),
                                     kind="stable")]
        counts = np.bincount(side * n_classes + y_idx[rows],
                             minlength=2 * len(batch) * n_classes).reshape(-1, n_classes)
        ends = [0] + np.cumsum(counts.sum(axis=1)).tolist()
        labels = counts.argmax(axis=1).tolist()
        pure = (counts.max(axis=1) == counts.sum(axis=1)).tolist()
        for b, ((t, node, _, depth, _), f, thr) in enumerate(
                zip(batch, feature.tolist(), threshold.tolist())):
            lo, mid, hi = ends[2 * b : 2 * b + 3]
            if f < 0:
                node.label = labels[2 * b]
                continue
            node.feature, node.threshold = f, thr
            node.left, node.right = _Node(), _Node()
            settle(node.right, child_rows[mid:hi], depth + 1, labels[2 * b + 1],
                   pure[2 * b + 1], stacks[t])
            settle(node.left, child_rows[lo:mid], depth + 1, labels[2 * b], pure[2 * b],
                   stacks[t])
        live = [t for t in live if stacks[t]]
    return Forest(trees=trees, classes=classes, n_features=n_features)


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


def confusion_matrix(y_true, y_pred, labels) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise InvalidSpecError("prediction/truth lengths differ")
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(counts, tuple(labels))


def fbeta(cm: ConfusionMatrix, beta: float) -> tuple:
    """One-vs-rest F-beta per class, and its macro average over classes present in truth."""
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
    return per_class, macro


def _score_task(X, y, train, cfg) -> dict:
    """A forest trained on the ``train`` rows of (X, y), scored on the other rows."""
    model = train_forest(X[train], y[train], cfg)
    cm = confusion_matrix(y[~train], predict_batch(model, X[~train]), tuple(sorted(set(y.tolist()))))
    f2_per_class, f2 = fbeta(cm, 2.0)
    return {
        "f2": f2,
        "f05": fbeta(cm, 0.5)[1],
        "confusion": cm,
        "per_class_f2": {l: float(v) for l, v in zip(cm.labels, f2_per_class)},
    }


def evaluate_protocol(reps, labels, train, cfg: ForestConfig = ForestConfig()) -> dict:
    """Score a forest per representation and task: {variant: {task: scores}}.

    ``reps`` maps each variant to its matrix and ``labels`` each task to the
    matrices' row labels, both in result order. Each forest trains on the rows
    the boolean mask ``train`` marks and is scored on the rest; scores hold
    F2, F0.5, the confusion matrix and the per-class F2. A non-finite matrix
    raises InvalidSpecError before any fork. Each (variant, task) forest is one
    parallel.fork_map job that returns only its scores, never its trees.
    """
    train = np.asarray(train, dtype=bool)
    if train.all() or not train.any():
        raise InvalidSpecError("both scenario splits must be non-empty")
    if not all(np.isfinite(X).all() for X in reps.values()):
        raise InvalidSpecError("every representation must be finite")
    jobs = [(reps[variant], labels[task]) for variant in reps for task in labels]
    scores = iter(parallel.fork_map(lambda i: _score_task(*jobs[i], train, cfg), len(jobs)))
    return {variant: {task: next(scores) for task in labels} for variant in reps}


def write_confusion_csv(path, cm: ConfusionMatrix) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["true\\pred"] + list(cm.labels))
        for label, row in zip(cm.labels, cm.counts):
            w.writerow([label] + [int(v) for v in row])


def write_metrics_json(path, results) -> None:
    """evaluate_protocol's results as flat records: {task, model_variant, f2, f05, per_class}."""
    records = []
    for variant, tasks in results.items():
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
