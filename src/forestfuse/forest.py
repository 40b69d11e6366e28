"""Random forest training and evaluation.

Three modes share one engine: classification, regression, and
unsupervised. Unsupervised training builds a two-class problem from the
input: the original rows are class 0 ("real") and an equally sized block
of synthetic rows — each column independently permuted, which preserves
every univariate marginal while destroying cross-feature dependencies —
is class 1. A low OOB error on that problem means the forest found real
dependency structure to exploit.

Trees are grown on n-out-of-n bootstrap samples; each tree's random
stream is keyed by (seed, tree_id), so results are bit-identical at any
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, ConfigError
from .rng import ROOT_ROUTE, child_route, node_rng, synthetic_rng, tree_rng
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
    proximity_pairs: str = "all"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
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
        if self.proximity_pairs not in ("all", "oob"):
            raise ConfigError(f"unknown proximity_pairs {self.proximity_pairs!r}")

    def resolved_mtry(self, n_features: int) -> int:
        if self.mtry is not None:
            if self.mtry > n_features:
                raise ConfigError(
                    f"mtry {self.mtry} exceeds n_features {n_features}"
                )
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
    """One grown tree as parallel node arrays.

    Internal nodes have feature >= 0 and children; leaves have
    feature == -1 and a dense leaf_id in 0..n_leaves-1. value holds the
    in-bag class counts (n_nodes, K) for classification or the in-bag
    target mean (n_nodes,) for regression. Traversal sends a sample left
    iff value <= threshold.

    held_out_left is set only on trees grown with held-out cells (see
    `train_held_out`): per node, True when a row whose split feature is
    held out goes left. It is never saved; other trees leave it None.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    n_node: np.ndarray
    value: np.ndarray
    split_gain: np.ndarray
    leaf_nodes: np.ndarray = field(default=None)
    held_out_left: np.ndarray | None = None

    def __post_init__(self):
        if self.leaf_nodes is None:
            leaves = np.flatnonzero(self.leaf_id >= 0)
            order = np.argsort(self.leaf_id[leaves])
            self.leaf_nodes = leaves[order].astype(np.int32)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_nodes)

    def apply_nodes(self, data, rows, override=None, held_out=None) -> np.ndarray:
        """Terminal node index for each row; override replaces one feature.

        held_out, a bool mask over data's cells, routes a row whose split
        feature is held out to the node's held_out_left side unread.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(len(rows), dtype=np.int32)
        if len(rows) == 0:
            return out
        stack = [(0, np.arange(len(rows)))]
        while stack:
            node, pos = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[pos] = node
                continue
            if override is not None and override[0] == f:
                v = override[1][pos]
            else:
                v = _gather(data, rows[pos], int(f))
            go_left = v <= self.threshold[node]
            if held_out is not None:
                go_left = np.where(held_out[rows[pos], f],
                                   self.held_out_left[node], go_left)
            left_pos = pos[go_left]
            right_pos = pos[~go_left]
            if len(left_pos):
                stack.append((int(self.left[node]), left_pos))
            if len(right_pos):
                stack.append((int(self.right[node]), right_pos))
        return out

    def apply(self, data, rows, override=None, held_out=None) -> np.ndarray:
        """Leaf id for each row."""
        return self.leaf_id[self.apply_nodes(data, rows, override, held_out)]

    def leaf_value(self, leaf_ids) -> np.ndarray:
        return self.value[self.leaf_nodes[np.asarray(leaf_ids)]]

    def predicted_class(self, leaf_ids) -> np.ndarray:
        """Per-leaf majority class (ties resolve to the lower class id)."""
        return np.argmax(self.leaf_value(leaf_ids), axis=-1)


@dataclass
class Forest:
    """A trained forest plus the per-row training bookkeeping.

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


@dataclass
class OOBResult:
    value: float
    n_skipped: int
    n_evaluated: int


# -- column access over dense arrays and Datasets --------------------------

def _gather(data, rows, feature):
    if isinstance(data, np.ndarray):
        return data[rows, feature]
    return data.gather_column(rows, feature)


def _data_rows(data):
    if isinstance(data, np.ndarray):
        return data.shape[0]
    return data.n_rows


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
        col = ds.gather_column(all_rows, c)[synthetic_rng(seed, c).permutation(n)]
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


def _training_data(ds: Dataset, mode: str, seed: int):
    """The matrix trees are grown on: a dense array, or ds itself for CSR.

    Unsupervised forests grow on ds's rows followed by its synthetic
    rows; for CSR the two are joined into one CSR Dataset.
    """
    if mode != "unsupervised":
        return ds.values if not ds.is_sparse else ds
    synthetic = generate_synthetic(ds, seed)
    if not ds.is_sparse:
        return np.vstack([ds.values, synthetic.values])
    return Dataset.from_csr(
        np.concatenate([ds.indptr, synthetic.indptr[1:] + ds.indptr[-1]]),
        np.concatenate([ds.indices, synthetic.indices]),
        np.concatenate([ds.data, synthetic.data]),
        ds.n_features, schema=ds.schema)


# -- growth ----------------------------------------------------------------

def _observed_split(cols, feats, y, held, categorical, **kw):
    """Best split when some of the node's candidate cells are held out.

    Each feature is scored only on the rows where its cell is observed,
    and its gain is scaled by that observed share of the node. Ties
    resolve as in find_node_split: lowest feature id, then threshold.
    """
    n = len(y)
    best = None
    for j in range(len(feats)):
        obs = ~held[:, j]
        cand = find_node_split(
            cols[obs, j:j + 1], feats[j:j + 1], y[obs],
            categorical=categorical[j:j + 1] if categorical is not None else None,
            **kw)
        if cand is None:
            continue
        cand = replace(cand, gain=cand.gain * np.count_nonzero(obs) / n)
        if best is None or (cand.gain, -cand.feature, -cand.threshold) > \
                (best.gain, -best.feature, -best.threshold):
            best = cand
    return best


def _grow_tree(data, y, tree_id, *, task, n_classes, n_features, mtry,
               min_node_size, max_depth, strategy, n_bins, seed,
               categorical, held_out=None):
    n_rows = _data_rows(data)
    rng = tree_rng(seed, tree_id)
    draw = rng.integers(0, n_rows, size=n_rows)
    inbag = np.bincount(draw, minlength=n_rows).astype(np.uint16)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_id: list[int] = []
    n_node: list[int] = []
    values: list[np.ndarray | float] = []
    held_left: list[bool] = []
    split_gain = np.zeros(n_features, dtype=np.float64)

    def new_node():
        feature.append(_LEAF)
        threshold.append(np.nan)
        left.append(_LEAF)
        right.append(_LEAF)
        leaf_id.append(_LEAF)
        n_node.append(0)
        values.append(None)
        held_left.append(False)
        return len(feature) - 1

    next_leaf = 0
    root = new_node()
    stack = [(root, draw, 0, ROOT_ROUTE)]
    while stack:
        node, rows, depth, route = stack.pop()
        yv = y[rows]
        n = len(rows)
        n_node[node] = n
        if task == "classification":
            counts = np.bincount(yv, minlength=n_classes).astype(np.float64)
            values[node] = counts
            pure = counts.max() == n
        else:
            values[node] = float(yv.mean())
            pure = bool(np.all(yv == yv[0]))

        split = None
        at_depth = max_depth is not None and depth >= max_depth
        if not (pure or at_depth or n <= min_node_size):
            feats = node_rng(seed, tree_id, route).choice(
                n_features, size=mtry, replace=False)
            feats.sort()
            cols = np.empty((n, mtry), dtype=np.float64)
            for j, f in enumerate(feats):
                cols[:, j] = _gather(data, rows, int(f))
            cat = categorical[feats] if categorical is not None else None
            held = held_out[np.ix_(rows, feats)] if held_out is not None else None
            if held is not None and held.any():
                split = _observed_split(
                    cols, feats, yv, held, cat, task=task,
                    n_classes=n_classes, strategy=strategy, n_bins=n_bins)
            else:
                split = find_node_split(
                    cols, feats, yv, task=task, n_classes=n_classes,
                    strategy=strategy, n_bins=n_bins, categorical=cat)
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
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], rows[~go_left], depth + 1,
                      child_route(route, True)))
        stack.append((left[node], rows[go_left], depth + 1,
                      child_route(route, False)))

    if task == "classification":
        value_arr = np.vstack(values)
    else:
        value_arr = np.asarray(values, dtype=np.float64)
    tree = Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_id=np.array(leaf_id, dtype=np.int32),
        n_node=np.array(n_node, dtype=np.int64),
        value=value_arr,
        split_gain=split_gain,
        held_out_left=np.array(held_left) if held_out is not None else None,
    )
    return tree, inbag


def _class_labels(ds: Dataset) -> tuple[np.ndarray, int]:
    t = ds.target
    if not np.all(np.isfinite(t)) or np.any(t != np.floor(t)) or t.min() < 0:
        raise ConfigError("classification target must be integer labels >= 0")
    y = t.astype(np.int64)
    return y, int(y.max()) + 1


def train(ds: Dataset, config: ForestConfig, *, n_threads: int = 1) -> Forest:
    """Grow a forest on a complete Dataset.

    Classification and regression require a target; unsupervised mode
    requires the target to be absent and trains real-vs-synthetic on the
    column-permuted augmentation. Returns a Forest with per-tree in-bag
    counts, per-row leaf assignments, and the OOB error filled in.

    Deterministic for a fixed (data, config) at any n_threads
    (0 = one thread per CPU).
    """
    return _train(ds, config, n_threads, held_out=None)


def train_held_out(ds: Dataset, held_out, config: ForestConfig) -> Forest:
    """Grow a forest that never reads the cells marked in held_out.

    ds must be dense and complete; its held-out cells hold placeholder
    fills. Split search scores each candidate feature on the node's rows
    where that cell is observed and scales the gain by the observed share.
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
    return _train(ds, config, 1, held_out if held_out.any() else None)


def _train(ds: Dataset, config: ForestConfig, n_threads: int,
           held_out: np.ndarray | None) -> Forest:
    config.validate()
    if ds.n_rows == 0 or ds.n_features == 0:
        raise ArgumentError("cannot train on an empty dataset")
    if ds.has_missing:
        raise ArgumentError(
            "dataset contains missing values; run imputation first")

    mode = config.mode
    synthetic_offset = None
    if mode == "classification":
        if ds.target is None:
            raise ConfigError("classification requires a target")
        y, n_classes = _class_labels(ds)
        task = "classification"
    elif mode == "regression":
        if ds.target is None:
            raise ConfigError("regression requires a target")
        if not np.all(np.isfinite(ds.target)):
            raise ConfigError("regression target must be finite")
        y = ds.target.astype(np.float64)
        n_classes = 0
        task = "regression"
    else:
        if ds.target is not None:
            raise ConfigError("unsupervised mode takes no target")
        if held_out is not None:
            held_out = np.vstack(
                [held_out, _permute_columns(held_out, config.seed)])
        y = np.concatenate([
            np.zeros(ds.n_rows, dtype=np.int64),
            np.ones(ds.n_rows, dtype=np.int64),
        ])
        n_classes = 2
        task = "classification"
        synthetic_offset = ds.n_rows

    data = _training_data(ds, mode, config.seed)
    n_train = _data_rows(data)
    mtry = config.resolved_mtry(ds.n_features)
    min_node = config.resolved_min_node_size()
    categorical = ds.schema.is_categorical()
    if not categorical.any():
        categorical = None

    def grow(t):
        return _grow_tree(
            data, y, t, task=task, n_classes=n_classes,
            n_features=ds.n_features, mtry=mtry, min_node_size=min_node,
            max_depth=config.max_depth, strategy=config.split_strategy,
            n_bins=config.n_bins, seed=config.seed, categorical=categorical,
            held_out=held_out)

    if n_threads == 0:
        import os
        n_threads = os.cpu_count() or 1
    if n_threads > 1 and config.n_trees > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            grown = list(pool.map(grow, range(config.n_trees)))
    else:
        grown = [grow(t) for t in range(config.n_trees)]

    trees = [g[0] for g in grown]
    inbag = np.column_stack([g[1] for g in grown])
    all_rows = np.arange(n_train)
    leaf_of_train = np.column_stack(
        [tree.apply(data, all_rows, held_out=held_out) for tree in trees]
    ).astype(np.int32)

    forest = Forest(
        config=replace(config),
        trees=trees,
        inbag_counts=inbag,
        leaf_of_train=leaf_of_train,
        n_features=ds.n_features,
        n_classes=n_classes if task == "classification" else None,
        synthetic_offset=synthetic_offset,
        oob_error=np.nan,
        oob_skipped=0,
    )
    oob = oob_error(forest, ds)
    forest.oob_error = oob.value
    forest.oob_skipped = oob.n_skipped
    return forest


# -- prediction --------------------------------------------------------------

def _query_matrix(forest: Forest, query) -> tuple:
    """Normalize a query to (data, n_rows); validates width and missingness."""
    if isinstance(query, Dataset):
        if query.n_features != forest.n_features:
            raise ArgumentError(
                f"query has {query.n_features} features, "
                f"model expects {forest.n_features}")
        if not query.is_filled:
            raise ArgumentError("query contains missing values")
        data = query.values if not query.is_sparse else query
        return data, query.n_rows
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
    rows = np.arange(nq)
    acc = np.zeros((nq, forest.n_classes), dtype=np.float64)
    for tree in forest.trees:
        counts = tree.value[tree.apply_nodes(data, rows)]
        acc += counts / counts.sum(axis=1, keepdims=True)
    return acc / forest.n_trees


def predict(forest: Forest, query) -> np.ndarray:
    """Predicted class labels (ties to the lower id) or regression means."""
    if forest.mode == "regression":
        data, nq = _query_matrix(forest, query)
        rows = np.arange(nq)
        acc = np.zeros(nq, dtype=np.float64)
        for tree in forest.trees:
            acc += tree.value[tree.apply_nodes(data, rows)]
        return acc / forest.n_trees
    return np.argmax(predict_proba(forest, query), axis=1)


def p_synthetic(forest: Forest, query) -> np.ndarray:
    """P(synthetic): how little a row resembles the training distribution."""
    if forest.mode != "unsupervised":
        raise ConfigError("p_synthetic requires an unsupervised forest")
    return predict_proba(forest, query)[:, 1]


def leaf_of(forest: Forest, tree_id: int, query) -> int:
    """Leaf id reached by a single complete feature vector in one tree."""
    if not (0 <= tree_id < forest.n_trees):
        raise IndexError(f"tree {tree_id} out of range")
    return int(_query_leaves(forest, query)[tree_id])


def _query_leaves(forest: Forest, query) -> np.ndarray:
    """(T,) leaf ids a single complete feature vector reaches, per tree."""
    vec = np.asarray(query, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != forest.n_features:
        raise ArgumentError("query must be a vector of n_features values")
    if not np.all(np.isfinite(vec)):
        raise ArgumentError("query contains non-finite values")
    return np.array([tree.apply(vec[None, :], np.array([0]))[0]
                     for tree in forest.trees])


def _train_labels(forest: Forest, ds: Dataset) -> np.ndarray:
    """Labels for the forest's training matrix, rebuilt from ds."""
    if forest.mode == "unsupervised":
        n = forest.synthetic_offset
        return np.concatenate([
            np.zeros(n, dtype=np.int64),
            np.ones(forest.n_train_rows - n, dtype=np.int64)])
    if ds.target is None:
        raise ConfigError("dataset has no target")
    if forest.mode == "classification":
        return ds.target.astype(np.int64)
    return ds.target.astype(np.float64)


def oob_error(forest: Forest, ds: Dataset) -> OOBResult:
    """Out-of-bag error: misclassification fraction or MSE.

    Each training row is predicted using only the trees where it is
    out-of-bag; rows that are in-bag everywhere are skipped and counted.
    """
    if ds.n_rows != forest.n_scored_rows:
        raise ArgumentError("dataset row count does not match the forest")
    y = _train_labels(forest, ds)
    n_train = forest.n_train_rows
    oob = forest.oob_mask()
    n_oob = oob.sum(axis=1)

    if forest.mode == "regression":
        acc = np.zeros(n_train, dtype=np.float64)
        for t, tree in enumerate(forest.trees):
            rows = np.flatnonzero(oob[:, t])
            acc[rows] += tree.leaf_value(forest.leaf_of_train[rows, t])
        evaluated = n_oob > 0
        if not evaluated.any():
            return OOBResult(float("nan"), n_train, 0)
        pred = acc[evaluated] / n_oob[evaluated]
        mse = float(np.mean((pred - y[evaluated]) ** 2))
        return OOBResult(mse, int(n_train - evaluated.sum()),
                         int(evaluated.sum()))

    prob = np.zeros((n_train, forest.n_classes), dtype=np.float64)
    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(oob[:, t])
        counts = tree.leaf_value(forest.leaf_of_train[rows, t])
        prob[rows] += counts / counts.sum(axis=1, keepdims=True)
    evaluated = n_oob > 0
    if not evaluated.any():
        return OOBResult(float("nan"), n_train, 0)
    pred = np.argmax(prob[evaluated], axis=1)
    err = float(np.mean(pred != y[evaluated]))
    return OOBResult(err, int(n_train - evaluated.sum()), int(evaluated.sum()))
