"""Random forest training and evaluation over one flat set of trees.

Three modes share one engine: classification, regression, and
unsupervised, which trains real rows (class 0) against as many synthetic
rows (class 1) whose columns are permuted independently: every marginal
is kept, every cross-feature dependency destroyed. Trees grow on
n-out-of-n bootstrap samples from streams keyed by (seed, tree_id), and
each node draws its candidate features from a stream keyed by its path
from the root, so a forest is a bit-identical function of the data and
the config.

A Forest stores its trees in one node layout, `NODE_LAYOUT`, with one
array per field over all trees. Every reader that routes rows through
the trees (leaf assignment, prediction, query leaves, importance
perturbations) uses one walk, `_walk`, which moves all (row, tree)
cells down a level per numpy step.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from types import SimpleNamespace

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
        for name in ("n_trees", "mtry", "min_node_size", "max_depth",
                     "n_bins", "seed"):
            value = getattr(self, name)
            if value is None and name in ("mtry", "min_node_size",
                                          "max_depth"):
                continue
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
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


# The node layout, in model-file order: each array a tree stores and its
# dtype. Internal nodes have feature >= 0 and children left and right,
# node indices local to their tree; leaves have feature -1 and a dense
# leaf_id in 0..n_leaves-1 (-1 on internal nodes). A row goes left iff
# its value <= threshold. n_node counts the node's in-bag rows; value
# holds their class counts, (nodes, K), or for regression their target
# mean. split_gain has one entry per feature, not per node: the gain the
# tree credits to each feature.
NODE_LAYOUT = (("feature", np.int32), ("threshold", np.float64),
               ("left", np.int32), ("right", np.int32),
               ("leaf_id", np.int32), ("n_node", np.int64),
               ("value", np.float64), ("split_gain", np.float64))


class Tree(SimpleNamespace):
    """Views of one tree's NODE_LAYOUT arrays in a Forest: `Forest.trees`."""

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply_nodes(self, data, rows) -> np.ndarray:
        """Terminal node of each row: `_walk` over this tree alone."""
        rows = np.asarray(rows, dtype=np.int64)
        return _walk(self, data, rows, np.zeros_like(rows)).astype(np.int32)


@dataclass
class Forest:
    """A trained forest in one set of node arrays, plus per-row bookkeeping.

    Built from tree_arrays, one dict of NODE_LAYOUT arrays per tree, which
    it concatenates tree after tree into one array per field: tree t owns
    nodes node_offset[t]:node_offset[t + 1], its children and leaf ids
    stay local, and split_gain is (T, n_features). held_out_left says per
    node whether a row whose split feature is held out goes left; only
    `train_held_out` puts it in the dicts, and it is never saved. Leaf
    `leaf` of tree t has the global id leaf_offset[t] + leaf; leaf_nodes
    maps global leaf ids to nodes.

    inbag_counts[i, t] is row i's multiplicity in tree t's bootstrap;
    a zero marks the row out-of-bag. leaf_of_train[i, t] is the leaf id
    row i reaches in tree t. For unsupervised forests both cover the
    augmented matrix (real rows first, synthetic rows after
    synthetic_offset).
    """

    config: ForestConfig
    tree_arrays: InitVar[list[dict]]
    inbag_counts: np.ndarray
    leaf_of_train: np.ndarray
    n_features: int
    n_classes: int | None
    synthetic_offset: int | None
    oob_error: float
    oob_skipped: int

    def __post_init__(self, tree_arrays):
        self.node_offset = np.cumsum([0] + [len(a["feature"])
                                            for a in tree_arrays])
        for name, dtype in (*NODE_LAYOUT, ("held_out_left", bool)):
            parts = [a.get(name) for a in tree_arrays]
            join = np.stack if name == "split_gain" else np.concatenate
            setattr(self, name, None if parts[0] is None
                    else join(parts, dtype=dtype))
        leaves = np.flatnonzero(self.feature < 0)
        self.leaf_offset = np.searchsorted(leaves, self.node_offset)
        # each tree's leaves in leaf-id order
        owner = self.node_tree()[leaves]
        self.leaf_nodes = leaves[np.lexsort((self.leaf_id[leaves], owner))]

    def arrays_of(self, t: int) -> dict:
        """Tree t's NODE_LAYOUT arrays: views of its slice of the forest's."""
        nodes = slice(*self.node_offset[t:t + 2])
        return {name: getattr(self, name)[t if name == "split_gain" else nodes]
                for name, _ in NODE_LAYOUT}

    @cached_property
    def trees(self) -> list[Tree]:
        """A Tree view of each tree, writes showing in the forest: kept for
        the benchmark in ffbench/, while the program reads flat arrays."""
        return [Tree(**self.arrays_of(t)) for t in range(self.n_trees)]

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def n_trees(self) -> int:
        return len(self.node_offset) - 1

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


# bytes of temporaries that one block of a blocked walk may hold: row
# blocks here, importance cells and their ancestor tables, proximity blocks
BLOCK_BYTES = 8 << 20
# bytes one `_walk` cell holds at its peak, its rows and roots included
# (tracemalloc read 82 on 100,000 cells of a 30-tree forest)
_WALK_CELL_BYTES = 96


def _walk(nodes, data, rows, root, override=None, held_out=None,
          begin=None) -> np.ndarray:
    """Terminal node of every cell; all cells move down one level per step.

    `nodes` holds NODE_LAYOUT arrays, children local to their tree. Cell c
    walks row rows[c] of data (dense array or CSR Dataset) in the tree
    whose root is node root[c], from node begin[c] (default: the root).
    override = (feature, value), arrays over the cells, replaces cell c's
    value of feature[c] with value[c]. held_out, a bool mask over data's
    cells, sends a cell whose split feature is held out to the node's
    held_out_left side unread. Returns global node ids.

    The callers bound their temporaries, about _WALK_CELL_BYTES a cell,
    by BLOCK_BYTES: `_node_blocks` walks rows in blocks, and importance
    walks only the cells a perturbation moves (`_perturbed_walk`), in
    blocks of (tree, feature) runs.
    """
    node = root.copy() if begin is None else begin.copy()
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
        node[live] = root[live] + np.where(go_left, nodes.left[at],
                                           nodes.right[at])
    return node


def _ancestors(forest: Forest, t0: int, t1: int, feats) -> tuple:
    """Nearest ancestor splitting on each feature, for trees t0..t1-1.

    Returns (table, col, base). For a node n of those trees and a feature
    k in feats, table[n - base, col[k]] is 2a + s, where node base + a is
    n's nearest proper ancestor that splits on k and s is 1 when n lies
    right of it, or -1 when no ancestor splits on k. Only the features in
    feats get a column, so the table is (nodes, distinct feats) int32.
    Built top-down, one level of all the trees at a time.
    """
    base, end = forest.node_offset[t0], forest.node_offset[t1]
    # not np.unique, whose first call imports numpy.ma (1.1 MB)
    used = np.flatnonzero(np.bincount(feats, minlength=forest.n_features))
    col = np.full(forest.n_features, -1, dtype=np.int64)
    col[used] = np.arange(len(used))
    table = np.full((end - base, len(used)), -1, dtype=np.int32)
    level = root = forest.node_offset[t0:t1]
    while level.size:
        feat = forest.feature[level]
        inner = feat >= 0
        level, root, c = level[inner], root[inner], col[feat[inner]]
        hit, above = c >= 0, table[level - base]
        kids = []
        for side, child in enumerate((forest.left, forest.right)):
            kid = root + child[level]
            table[kid - base] = above
            table[kid[hit] - base, c[hit]] = 2 * (level[hit] - base) + side
            kids.append(kid)
        level, root = np.concatenate(kids), np.concatenate([root, root])
    return table, col, base


def _perturbed_walk(forest: Forest, data, rows, root, end, feats, values,
                    ancestors) -> np.ndarray:
    """Terminal node of each cell once its row reads values[c] for feats[c].

    Cell c is row rows[c] in the tree rooted at node root[c], and end[c]
    is its original terminal node. The perturbed cell follows its
    original route down to the first node on it that splits on feats[c]
    and sends values[c] the other way: every node above either splits on
    another feature or sends the value the way the route went. So each
    cell climbs the feats[c] nodes of its route through the ancestor
    table (`_ancestors`, covering the cells' trees), and only cells that
    meet such a node walk, from the topmost one; every other cell keeps
    end[c]. Equals `_walk` from the root with the override wherever the
    route is the row's own walk.
    """
    table, col, base = ancestors
    k = col[feats]
    hop = table[end - base, k]
    begin = np.full(len(end), -1, dtype=np.int64)
    live = np.flatnonzero(hop >= 0)
    hop = hop[live]
    while live.size:
        at = base + (hop >> 1)
        # the value goes left where the route went right, or the reverse
        turns = (values[live] <= forest.threshold[at]) == ((hop & 1) == 1)
        begin[live[turns]] = at[turns]
        hop = table[hop >> 1, k[live]]
        more = hop >= 0
        live, hop = live[more], hop[more]
    moved = np.flatnonzero(begin >= 0)
    nodes = end.copy()
    nodes[moved] = _walk(forest, data, rows[moved], root[moved],
                         (feats[moved], values[moved]), begin=begin[moved])
    return nodes


def _run_blocks(forest: Forest, run_tree, run_cells, cell_bytes: int):
    """Consecutive runs grouped into blocks that fit BLOCK_BYTES.

    Run i holds run_cells[i] cells of tree run_tree[i] (ascending) and
    one feature. A block costs cell_bytes per cell plus its `_ancestors`
    table, 4 bytes per node of its trees and column, with at most one
    column per run. Yields (first run, end run); a block holds at least
    one run.
    """
    tree_nodes = np.diff(forest.node_offset).tolist()
    first, cells, nodes, last = 0, 0, 0, -1
    for i, (t, size) in enumerate(zip(run_tree.tolist(), run_cells.tolist())):
        if t != last:
            nodes += tree_nodes[t]
        width = min(i - first + 1, forest.n_features)
        if i > first and ((cells + size) * cell_bytes + 4 * nodes * width
                          > BLOCK_BYTES):
            yield first, i
            first, cells, nodes = i, 0, tree_nodes[t]
        cells, last = cells + size, t
    if len(run_tree):
        yield first, len(run_tree)


def _node_blocks(forest: Forest, data, n_rows: int, held_out=None):
    """(b, T) global terminal nodes of each successive block of data's rows."""
    T = forest.n_trees
    step = max(1, BLOCK_BYTES // (_WALK_CELL_BYTES * T))
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


# classification labels stay below max(rows, _LABEL_FLOOR), so the split
# scan's K x K one-hot table fits BLOCK_BYTES or the root's n x K counts
_LABEL_FLOOR = math.isqrt(BLOCK_BYTES // 8)


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
        elif (np.any(target != np.floor(target)) or target.min() < 0
              or target.max() >= max(ds.n_rows, _LABEL_FLOOR)):
            raise ConfigError("classification target must be integer labels "
                              f"in 0..{max(ds.n_rows, _LABEL_FLOOR) - 1}")
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
    """One tree's NODE_LAYOUT arrays (and held_out_left) and in-bag counts."""
    n_rows = len(y)
    draw = tree_rng(seed, tree_id).integers(0, n_rows, size=n_rows)
    node_rng = NodeStreams(seed, tree_id)
    inbag = np.bincount(draw, minlength=n_rows).astype(np.uint16)

    # one record per node, in the order the nodes are grown: (node, feature,
    # threshold, left, right, leaf_id, n_node, value, held_out_left)
    grown = []
    split_gain = [0.0] * n_features
    n_made, next_leaf = 1, 0
    stack = [(0, draw, 0, ROOT_ROUTE)]
    while stack:
        node, rows, depth, route = stack.pop()
        yv = y[rows]
        n = len(rows)
        if task == "classification":
            value = np.bincount(yv, minlength=n_classes)
            pure = np.count_nonzero(value) == 1
        else:
            value = yv.sum() / n
            pure = yv.min() == yv.max()

        split, held_left = None, False
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
                strategy=strategy, n_bins=n_bins, categorical=cat,
                held=held if held is not None and held.any() else None)
            if split is not None:
                j = feats.tolist().index(split.feature)
                go_left = cols[:, j] <= split.threshold
                if held is not None:
                    # held-out rows follow the side with more observed rows
                    obs = ~held[:, j]
                    held_left = (2 * np.count_nonzero(go_left & obs)
                                 >= np.count_nonzero(obs))
                    go_left = np.where(obs, go_left, held_left)
                # histogram bin edges can land on a value and leave one
                # side empty on the raw data; fall back to a leaf
                if not 0 < np.count_nonzero(go_left) < n:
                    split = None

        if split is None:
            grown.append((node, _LEAF, np.nan, _LEAF, _LEAF, next_leaf, n,
                          value, held_left))
            next_leaf += 1
            continue

        grown.append((node, split.feature, split.threshold, n_made,
                      n_made + 1, _LEAF, n, value, held_left))
        split_gain[split.feature] += split.gain * n
        stack.append((n_made + 1, rows[~go_left], depth + 1,
                      child_route(route, True)))
        stack.append((n_made, rows[go_left], depth + 1,
                      child_route(route, False)))
        n_made += 2

    grown.sort(key=lambda record: record[0])
    _, *columns, held_left = zip(*grown)
    arrays = {name: np.array(column, dtype=dtype) for (name, dtype), column
              in zip(NODE_LAYOUT, [*columns, split_gain], strict=True)}
    if held_out is not None:
        arrays["held_out_left"] = np.array(held_left)
    return arrays, inbag


def train(ds: Dataset, config: ForestConfig) -> Forest:
    """Grow a forest on a complete Dataset.

    Classification and regression require a target, classification labels
    being whole numbers below max(rows, 1024); unsupervised mode requires
    the target to be absent and trains real-vs-synthetic on the
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
    # numpy integers pass validate; stream keys and model files take ints
    config = replace(config, **{k: int(v) for k, v in vars(config).items()
                                if isinstance(v, np.integer)})
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
        config=config,
        tree_arrays=[g[0] for g in grown],
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
    """Reject a Dataset the forest cannot walk: another width, missing cells."""
    if ds.n_features != forest.n_features:
        raise ArgumentError(f"{role} has {ds.n_features} features, "
                            f"model expects {forest.n_features}")
    if ds.has_missing:
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
