"""Random forest training and evaluation over one flat set of trees.

Three modes share one engine: classification, regression, and
unsupervised, which trains real rows (class 0) against as many synthetic
rows (class 1) whose columns are permuted independently: every marginal
is kept, every cross-feature dependency destroyed. Trees grow on
n-out-of-n bootstrap samples from streams keyed by (seed, tree_id), and
each node draws its candidate features from a stream keyed by its path
from the root, so a forest is a bit-identical function of the data and
the config.

A Forest stores all its trees as one set of concatenated node arrays.
Every reader that routes rows through the trees (leaf assignment,
prediction, query leaves, importance perturbations) uses one walk,
`_walk`, which moves all (row, tree) cells down a level per numpy step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, ConfigError
from .rng import (ROOT_ROUTE, STREAM_LIMIT, NodeStreams, child_route,
                  synthetic_rng, tree_rng)
from .splitfind import find_node_split

MODES = ("classification", "regression", "unsupervised")
STRATEGIES = ("presort", "histogram")

_LEAF = -1


@dataclass
class ForestConfig:
    """Training configuration.

    mtry and min_node_size default to None and resolve per mode at train
    time: mtry = floor(sqrt(m)) for classification/unsupervised and
    floor(m/3) for regression (at least 1); min_node_size = 1 for
    classification/unsupervised and 5 for regression. max_depth = None
    grows trees fully, to min_node_size or purity.
    """

    mode: str
    n_trees: int = 100
    mtry: int | None = None
    min_node_size: int | None = None
    max_depth: int | None = None
    split_strategy: str = "presort"
    n_bins: int = 256
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 1 <= self.n_trees <= STREAM_LIMIT:
            raise ConfigError(f"n_trees must be in 1..{STREAM_LIMIT}: random "
                              "streams are keyed by tree id")
        if self.split_strategy not in STRATEGIES:
            raise ConfigError(f"unknown split strategy {self.split_strategy!r}")
        if self.n_bins < 2:
            raise ConfigError("n_bins must be >= 2")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError("mtry must be >= 1")
        if self.min_node_size is not None and self.min_node_size < 1:
            raise ConfigError("min_node_size must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")

    def resolved_mtry(self, n_features: int) -> int:
        if self.mtry is not None:
            if self.mtry > n_features:
                raise ConfigError(
                    f"mtry {self.mtry} exceeds n_features {n_features}")
            return self.mtry
        if self.mode == "regression":
            return max(1, n_features // 3)
        return max(1, int(math.isqrt(n_features)))

    def resolved_min_node_size(self) -> int:
        if self.min_node_size is not None:
            return self.min_node_size
        return 5 if self.mode == "regression" else 1


@dataclass
class Tree:
    """One tree as parallel node arrays.

    Internal nodes have feature >= 0 and children (node indices local to
    the tree); leaves have feature == -1 and a dense leaf_id in
    0..n_leaves-1. value holds the in-bag class counts (n_nodes, K) or,
    for regression, the in-bag target mean. A sample goes left iff its
    value <= threshold. split_gain is the gain credited to each feature.
    held_out_left, set only by `train_held_out` and never saved, says per
    node whether a row whose split feature is held out goes left.

    A Forest built from Trees copies their arrays into its flat storage
    and rebinds each field to a view of it, so writes show in both.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    n_node: np.ndarray
    value: np.ndarray
    split_gain: np.ndarray
    held_out_left: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def apply_nodes(self, data, rows, override=None, held_out=None) -> np.ndarray:
        """Terminal node of each row by `_walk`; override = (feature, values)."""
        rows = np.asarray(rows, dtype=np.int64)
        if override is not None:
            override = (np.full(len(rows), override[0]), np.asarray(override[1]))
        return _walk(self, data, rows, np.zeros_like(rows), override,
                     held_out).astype(np.int32)

    def apply(self, data, rows, override=None, held_out=None) -> np.ndarray:
        """Leaf id for each row."""
        return self.leaf_id[self.apply_nodes(data, rows, override, held_out)]

    def leaf_value(self, leaf_ids) -> np.ndarray:
        leaves = np.flatnonzero(self.feature < 0)
        return self.value[leaves[np.argsort(self.leaf_id[leaves])][leaf_ids]]


# per-node fields, stored concatenated over a forest's trees
_NODE_FIELDS = ("feature", "threshold", "left", "right", "leaf_id", "n_node",
                "value", "held_out_left")


@dataclass
class Forest:
    """A trained forest in one set of node arrays, plus per-row bookkeeping.

    The forest concatenates its Trees' node fields (_NODE_FIELDS) tree
    after tree; tree t owns nodes node_offset[t]:node_offset[t + 1], and
    its children and leaf ids stay local, as in a model file. Leaf `leaf`
    of tree t has the global id leaf_offset[t] + leaf; leaf_nodes maps
    global leaf ids to nodes. split_gain is (T, n_features). `trees`
    keeps the Tree objects, each field now a view of the tree's slice.

    inbag_counts[i, t] is row i's multiplicity in tree t's bootstrap;
    a zero marks the row out-of-bag. leaf_of_train[i, t] is the leaf id
    row i reaches in tree t. For unsupervised forests both cover the
    augmented matrix (real rows first, synthetic rows after
    synthetic_offset).
    """

    config: ForestConfig
    trees: list[Tree]
    inbag_counts: np.ndarray
    leaf_of_train: np.ndarray
    n_features: int
    n_classes: int | None
    synthetic_offset: int | None
    oob_error: float
    oob_skipped: int

    def __post_init__(self):
        trees = self.trees
        self.node_offset = np.cumsum([0] + [tree.n_nodes for tree in trees])
        for name in _NODE_FIELDS:
            parts = [getattr(tree, name) for tree in trees]
            setattr(self, name, None if parts[0] is None else np.concatenate(parts))
        self.split_gain = np.stack([tree.split_gain for tree in trees])
        leaves = np.flatnonzero(self.feature < 0)
        self.leaf_offset = np.searchsorted(leaves, self.node_offset)
        # each tree's leaves in leaf-id order
        owner = self.node_tree()[leaves]
        self.leaf_nodes = leaves[np.lexsort((self.leaf_id[leaves], owner))]
        for t, tree in enumerate(trees):
            a, b = self.node_offset[t:t + 2]
            for name in _NODE_FIELDS:
                flat = getattr(self, name)
                setattr(tree, name, None if flat is None else flat[a:b])
            tree.split_gain = self.split_gain[t]

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_train_rows(self) -> int:
        return self.inbag_counts.shape[0]

    @property
    def n_scored_rows(self) -> int:
        """Rows eligible for proximity work: the real rows only."""
        if self.synthetic_offset is not None:
            return self.synthetic_offset
        return self.n_train_rows

    def oob_mask(self) -> np.ndarray:
        return self.inbag_counts == 0

    def node_tree(self) -> np.ndarray:
        """The tree that owns each node."""
        return np.repeat(np.arange(self.n_trees), np.diff(self.node_offset))

    def node_of_leaf(self, leaves) -> np.ndarray:
        """Global node of each leaf id in an (..., T) array of per-tree leaves."""
        return self.leaf_nodes[self.leaf_offset[:-1] + leaves]


@dataclass
class OOBResult:
    value: float
    n_skipped: int
    n_evaluated: int


# -- column access and the walk ---------------------------------------------

def _read(data, rows, feats):
    """data's value at each (rows, feats) cell, the two broadcast together."""
    if isinstance(data, np.ndarray):
        return data[rows, feats]
    return data.read_cells(rows, feats)


def _walk(nodes, data, rows, start, override=None, held_out=None) -> np.ndarray:
    """Terminal node of every cell; all cells move down one level per step.

    `nodes` is a Forest or a Tree (children local to their tree). Cell c
    walks row rows[c] of data (dense array or CSR Dataset) from the root
    at node start[c]. override = (feature, value), arrays over the cells,
    replaces cell c's value of feature[c] with value[c]. held_out, a bool
    mask over data's cells, sends a cell whose split feature is held out
    to the node's held_out_left side unread. Returns global node ids.
    """
    node = start.copy()
    live = np.arange(len(node))
    while live.size:
        at = node[live]
        feat = nodes.feature[at]
        inner = feat >= 0
        live, at, feat = live[inner], at[inner], feat[inner]
        r = rows[live]
        v = _read(data, r, feat)
        if override is not None:
            v = np.where(override[0][live] == feat, override[1][live], v)
        go_left = v <= nodes.threshold[at]
        if held_out is not None:
            go_left = np.where(held_out[r, feat], nodes.held_out_left[at],
                               go_left)
        node[live] = start[live] + np.where(go_left, nodes.left[at],
                                            nodes.right[at])
    return node


def _node_blocks(forest: Forest, data, n_rows: int, held_out=None):
    """(b, T) global terminal nodes of each successive block of data's rows."""
    T = forest.n_trees
    step = max(1, (1 << 16) // T)  # rows per walk: bounds its temporaries
    for a in range(0, max(n_rows, 1), step):
        b = np.arange(a, min(a + step, n_rows))
        yield _walk(forest, data, np.repeat(b, T),
                    np.tile(forest.node_offset[:-1], len(b)),
                    held_out=held_out).reshape(len(b), T)


def _node_grid(forest: Forest, data, n_rows: int, held_out=None) -> np.ndarray:
    """(n_rows, T) global terminal node of every row of data in every tree."""
    return np.concatenate(list(_node_blocks(forest, data, n_rows, held_out)))


def _block_sum(per_node, forest: Forest, data, n_rows: int) -> np.ndarray:
    """_tree_sum of per_node over data's rows, one walked block at a time."""
    return np.concatenate([_tree_sum(per_node, nodes) for nodes in
                           _node_blocks(forest, data, n_rows)])


def _tree_sum(per_node, nodes, keep=None) -> np.ndarray:
    """Sum of per_node[nodes[:, t]] over trees in order, cells in keep only."""
    acc = np.zeros(nodes.shape[:1] + per_node.shape[1:], dtype=np.float64)
    for t in range(nodes.shape[1]):
        col = per_node[nodes[:, t]]
        if keep is not None:
            col[~keep[:, t]] = 0.0
        acc += col
    return acc


# -- synthetic rows --------------------------------------------------------

def _permute_columns(values: np.ndarray, seed: int) -> np.ndarray:
    """Copy of a dense array with column c permuted by synthetic_rng(seed, c)."""
    out = np.empty_like(values)
    for c in range(values.shape[1]):
        perm = synthetic_rng(seed, c).permutation(values.shape[0])
        out[:, c] = values[perm, c]
    return out


def generate_synthetic(ds: Dataset, seed: int) -> Dataset:
    """Column-wise permuted copy of a Dataset.

    Every column of the result is an independent uniform permutation of
    the original column, so each univariate marginal is preserved exactly
    while all cross-column dependencies are destroyed. Requires complete
    data. The result carries no target.
    """
    if ds.n_rows == 0 or ds.n_features == 0:
        raise ArgumentError("cannot generate synthetic rows for an empty dataset")
    if ds.has_missing:
        raise ArgumentError("synthetic generation requires complete data")
    n, m = ds.n_rows, ds.n_features
    if not ds.is_sparse:
        return Dataset.from_dense(_permute_columns(ds.values, seed), ds.schema)

    all_rows = np.arange(n)
    rows, cols, vals = [], [], []
    for c in range(m):
        col = ds.read_cells(all_rows, c)[synthetic_rng(seed, c).permutation(n)]
        nz = np.flatnonzero(col != 0.0)
        rows.append(nz)
        cols.append(np.full(nz.size, c, dtype=np.int32))
        vals.append(col[nz])
    rows = np.concatenate(rows)
    # stable, so columns stay ascending within each row
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Dataset.from_csr(indptr, np.concatenate(cols)[order],
                            np.concatenate(vals)[order], m, schema=ds.schema)


class _TrainingView:
    """The rows a forest is grown on: labels, real-row count and columns.

    Labels are checked against the mode. An unsupervised forest grows on
    ds's rows (label 0) and a column-permuted synthetic copy (label 1);
    `columns` joins the two on first use, into one CSR Dataset for CSR.
    """

    def __init__(self, ds: Dataset, mode: str, seed: int):
        self.ds, self.seed, self.n_real = ds, seed, ds.n_rows
        self.unsupervised, target = mode == "unsupervised", ds.target
        self.n_classes = None
        if self.unsupervised:
            if target is not None:
                raise ConfigError("unsupervised mode takes no target")
            self.y, self.n_classes = np.repeat(np.arange(2), ds.n_rows), 2
        elif target is None:
            raise ConfigError(f"{mode} requires a target")
        elif not np.all(np.isfinite(target)):
            raise ConfigError(f"{mode} target must be finite")
        elif mode == "regression":
            self.y = target.astype(np.float64)
        elif np.any(target != np.floor(target)) or target.min() < 0:
            raise ConfigError(
                "classification target must be integer labels >= 0")
        else:
            self.y = target.astype(np.int64)
            self.n_classes = int(self.y.max()) + 1

    @cached_property
    def columns(self):
        """The matrix trees are grown on: a dense array, or a CSR Dataset."""
        ds = self.ds
        if not self.unsupervised:
            return ds if ds.is_sparse else ds.values
        synthetic = generate_synthetic(ds, self.seed)
        if not ds.is_sparse:
            return np.vstack([ds.values, synthetic.values])
        return Dataset.from_csr(
            np.concatenate([ds.indptr, synthetic.indptr[1:] + ds.indptr[-1]]),
            np.concatenate([ds.indices, synthetic.indices]),
            np.concatenate([ds.data, synthetic.data]),
            ds.n_features, schema=ds.schema)


# -- growth ----------------------------------------------------------------

def _grow_tree(data, y, tree_id, *, task, n_classes, n_features, mtry,
               min_node_size, max_depth, strategy, n_bins, seed,
               categorical, held_out=None):
    n_rows = len(y)
    draw = tree_rng(seed, tree_id).integers(0, n_rows, size=n_rows)
    node_rng = NodeStreams(seed, tree_id)
    inbag = np.bincount(draw, minlength=n_rows).astype(np.uint16)

    # a sample of n_rows rows fills at most n_rows leaves
    cap = 2 * n_rows - 1
    feature, left, right, leaf_id = (np.full(cap, _LEAF, dtype=np.int32)
                                     for _ in range(4))
    threshold = np.full(cap, np.nan)
    n_node = np.zeros(cap, dtype=np.int64)
    value = np.zeros((cap, n_classes) if task == "classification" else cap)
    held_left = np.zeros(cap, dtype=bool)
    split_gain = np.zeros(n_features, dtype=np.float64)
    n_made, next_leaf = 1, 0
    stack = [(0, draw, 0, ROOT_ROUTE)]
    while stack:
        node, rows, depth, route = stack.pop()
        yv = y[rows]
        n = len(rows)
        n_node[node] = n
        if task == "classification":
            value[node] = np.bincount(yv, minlength=n_classes)
            pure = value[node].max() == n
        else:
            value[node] = yv.mean()
            pure = bool(np.all(yv == yv[0]))

        split = None
        at_depth = max_depth is not None and depth >= max_depth
        if not (pure or at_depth or n <= min_node_size):
            feats = node_rng(route).choice(n_features, size=mtry,
                                           replace=False)
            feats.sort()
            cols = _read(data, rows[:, None], feats)
            cat = categorical[feats] if categorical is not None else None
            held = None if held_out is None else held_out[rows[:, None], feats]
            split = find_node_split(
                cols, feats, yv, task=task, n_classes=n_classes,
                strategy=strategy, n_bins=n_bins, categorical=cat, held=held)
            if split is not None:
                j = int(np.searchsorted(feats, split.feature))
                go_left = cols[:, j] <= split.threshold
                if held is not None:
                    # held-out rows follow the side with more observed rows
                    obs = ~held[:, j]
                    held_left[node] = \
                        2 * np.count_nonzero(go_left & obs) >= np.count_nonzero(obs)
                    go_left = np.where(obs, go_left, held_left[node])
                # histogram bin edges can land on a value and leave one
                # side empty on the raw data; fall back to a leaf
                if not go_left.any() or go_left.all():
                    split = None

        if split is None:
            leaf_id[node] = next_leaf
            next_leaf += 1
            continue

        feature[node] = split.feature
        threshold[node] = split.threshold
        split_gain[split.feature] += split.gain * n
        left[node], right[node] = n_made, n_made + 1
        n_made += 2
        stack.append((right[node], rows[~go_left], depth + 1,
                      child_route(route, True)))
        stack.append((left[node], rows[go_left], depth + 1,
                      child_route(route, False)))

    return Tree(*(a[:n_made].copy() for a in (
        feature, threshold, left, right, leaf_id, n_node, value)),
        split_gain=split_gain,
        held_out_left=held_left[:n_made].copy() if held_out is not None
        else None), inbag


def train(ds: Dataset, config: ForestConfig) -> Forest:
    """Grow a forest on a complete Dataset.

    Classification and regression require a target; unsupervised mode
    requires the target to be absent and trains real-vs-synthetic on the
    column-permuted augmentation. Returns a Forest with per-tree in-bag
    counts, per-row leaf assignments, and the OOB error filled in.
    Deterministic for a fixed (data, config).
    """
    return _train(ds, config, held_out=None)


def train_held_out(ds: Dataset, held_out, config: ForestConfig) -> Forest:
    """Grow a forest that never reads the cells marked in held_out.

    ds must be dense and complete; its held-out cells hold placeholder
    fills. Every node makes the one sorted scan of `find_node_split`,
    with the node's held-out cells as its held mask: each candidate
    feature is scored on the node's rows where that cell is observed, its
    gain scaled by the observed share, and the exact tie rule of every
    other node picks among features.
    A row whose split feature is held out goes to the child holding more
    of the node's observed in-bag rows, both during growth and in
    leaf_of_train. In unsupervised mode the synthetic half carries the
    mask, permuted along with the values. The forest, and everything read
    from its leaf assignments, is then a function of the observed cells
    alone. With no cell held out this is exactly `train`.
    """
    held_out = np.asarray(held_out, dtype=bool)
    if held_out.shape != (ds.n_rows, ds.n_features):
        raise ArgumentError("held-out mask shape must match the dataset")
    if ds.is_sparse:
        raise ArgumentError("held-out training requires dense storage")
    return _train(ds, config, held_out if held_out.any() else None)


def _train(ds: Dataset, config: ForestConfig,
           held_out: np.ndarray | None) -> Forest:
    config.validate()
    if ds.n_rows == 0 or ds.n_features == 0:
        raise ArgumentError("cannot train on an empty dataset")
    if ds.n_features > STREAM_LIMIT:
        raise ConfigError(f"n_features must be <= {STREAM_LIMIT}: random "
                          "streams are keyed by feature id")
    if ds.has_missing:
        raise ArgumentError(
            "dataset contains missing values; run imputation first")

    view = _TrainingView(ds, config.mode, config.seed)
    if held_out is not None and view.unsupervised:
        held_out = np.vstack([held_out, _permute_columns(held_out, config.seed)])
    data = view.columns
    task = "regression" if config.mode == "regression" else "classification"
    mtry = config.resolved_mtry(ds.n_features)
    min_node = config.resolved_min_node_size()
    categorical = ds.schema.is_categorical()
    if not categorical.any():
        categorical = None

    grown = [_grow_tree(
        data, view.y, t, task=task, n_classes=view.n_classes or 0,
        n_features=ds.n_features, mtry=mtry, min_node_size=min_node,
        max_depth=config.max_depth, strategy=config.split_strategy,
        n_bins=config.n_bins, seed=config.seed, categorical=categorical,
        held_out=held_out) for t in range(config.n_trees)]

    forest = Forest(
        config=replace(config),
        trees=[g[0] for g in grown],
        inbag_counts=np.column_stack([g[1] for g in grown]),
        leaf_of_train=None,
        n_features=ds.n_features,
        n_classes=view.n_classes,
        synthetic_offset=view.n_real if view.unsupervised else None,
        oob_error=np.nan,
        oob_skipped=0,
    )
    forest.leaf_of_train = forest.leaf_id[
        _node_grid(forest, data, len(view.y), held_out)]
    oob = oob_error(forest, ds)
    forest.oob_error = oob.value
    forest.oob_skipped = oob.n_skipped
    return forest


# -- prediction --------------------------------------------------------------

def _check_dataset(forest: Forest, ds: Dataset, role: str) -> None:
    """Reject a Dataset the forest cannot walk: another width, unfilled cells."""
    if ds.n_features != forest.n_features:
        raise ArgumentError(f"{role} has {ds.n_features} features, "
                            f"model expects {forest.n_features}")
    if not ds.is_filled:
        raise ArgumentError(f"{role} contains missing values")


def _query_matrix(forest: Forest, query) -> tuple:
    """Normalize a query to (data, n_rows); validates width and missingness."""
    if isinstance(query, Dataset):
        _check_dataset(forest, query, "query")
        return (query if query.is_sparse else query.values), query.n_rows
    arr = np.asarray(query, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != forest.n_features:
        raise ArgumentError(
            f"query shape {arr.shape} does not match "
            f"n_features {forest.n_features}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("query contains non-finite values")
    return arr, arr.shape[0]


def predict_proba(forest: Forest, query) -> np.ndarray:
    """Per-class probabilities: the average of per-tree leaf vote fractions."""
    if forest.n_classes is None:
        raise ConfigError("predict_proba requires a classification-style forest")
    data, nq = _query_matrix(forest, query)
    votes = forest.value / forest.value.sum(axis=1, keepdims=True)
    return _block_sum(votes, forest, data, nq) / forest.n_trees


def predict(forest: Forest, query) -> np.ndarray:
    """Predicted class labels (ties to the lower id) or regression means."""
    if forest.mode == "regression":
        data, nq = _query_matrix(forest, query)
        return _block_sum(forest.value, forest, data, nq) / forest.n_trees
    return np.argmax(predict_proba(forest, query), axis=1)


def p_synthetic(forest: Forest, query) -> np.ndarray:
    """P(synthetic): how little a row resembles the training distribution."""
    if forest.mode != "unsupervised":
        raise ConfigError("p_synthetic requires an unsupervised forest")
    return predict_proba(forest, query)[:, 1]


def _query_leaves(forest: Forest, query) -> np.ndarray:
    """(T,) leaf ids a single complete feature vector reaches, per tree."""
    if np.ndim(query) != 1:
        raise ArgumentError("query must be a vector of n_features values")
    data, _ = _query_matrix(forest, query)
    return forest.leaf_id[_node_grid(forest, data, 1)[0]]


def oob_error(forest: Forest, ds: Dataset) -> OOBResult:
    """Out-of-bag error: misclassification fraction or MSE.

    Each training row is predicted using only the trees where it is
    out-of-bag; rows that are in-bag everywhere are skipped and counted.
    """
    if ds.n_rows != forest.n_scored_rows:
        raise ArgumentError("dataset row count does not match the forest")
    y = _TrainingView(ds, forest.mode, forest.config.seed).y
    oob = forest.oob_mask()
    seen = oob.any(axis=1)
    n_seen = int(seen.sum())
    if n_seen == 0:
        return OOBResult(float("nan"), forest.n_train_rows, 0)
    nodes = forest.node_of_leaf(forest.leaf_of_train)
    if forest.mode == "regression":
        pred = _tree_sum(forest.value, nodes, oob)[seen] / oob.sum(axis=1)[seen]
        value = float(np.mean((pred - y[seen]) ** 2))
    else:
        votes = forest.value / forest.value.sum(axis=1, keepdims=True)
        votes = _tree_sum(votes, nodes, oob)[seen]
        value = float(np.mean(np.argmax(votes, axis=1) != y[seen]))
    return OOBResult(value, forest.n_train_rows - n_seen, n_seen)
