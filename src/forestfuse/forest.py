"""Random forest training and evaluation over one flat set of trees.

Three modes share one engine: classification, regression, and
unsupervised, which trains real rows (class 0) against as many synthetic
rows (class 1) whose columns are permuted independently: every marginal
is kept, every cross-feature dependency destroyed. Trees grow on
n-out-of-n bootstrap samples from streams keyed by (seed, tree_id), and
each node draws its candidate features from a stream keyed by its path
from the root, so a forest is a bit-identical function of the data and
the config.

The trees of a forest grow together, one level at a time, in groups
whose level arrays fit BLOCK_BYTES (`_grow_trees`), a classification
tree on each distinct in-bag row once, weighted by its draw count. Each
level gathers the labels, counts them, reads the candidate cells, routes
the rows and partitions them into the next level once for all the open
nodes of all the group's trees, one call draws their candidate features
(`rng.LevelStreams`), from Philox on arrays on a level of many, and one
call finds their splits as arrays (`splitfind.find_splits`), which scans
the classification nodes together, in blocks of consecutive nodes, but
on a level of a few small nodes. Each tree's nodes are numbered in the
order they grow: level by level, and within a level in the order of
their parents, each left child just before its right.
Under the histogram strategy each continuous feature gets at most n_bins
quantile bins, fixed once per training (`_bin_columns`): the trees grow
on the bin codes, and every split records its value edge, so the walk
and model files read raw values under both strategies.

A Forest stores its trees in one node layout, `NODE_LAYOUT`, with one
array per field over all trees. Every reader that routes rows through
the trees (leaf assignment, prediction, query leaves, importance
perturbations) uses one walk, `_walk`, which moves all (row, tree)
cells down a level per numpy step, to `child + (value > threshold)`
with one global left-child table (every right child is its left + 1);
row grids read each block of rows once, CSR included (`_node_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .dataset import Dataset, distinct_counts
from .errors import ArgumentError, ConfigError
from .rng import (ROOT_ROUTE, STREAM_LIMIT, LevelStreams, child_route,
                  synthetic_rng, tree_rng)
from .splitfind import BLOCK_BYTES, find_splits

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
    grows trees fully, to min_node_size or purity. split_strategy
    "presort" splits between any two distinct values; "histogram" gives
    at most n_bins quantile bins per continuous feature, fixed once per
    training, and splits only between bins. seed is in 0..2**64 - 1, the
    64 bits every random stream is keyed by.
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
        if not 0 <= int(self.seed) < 1 << 64:
            raise ConfigError(f"seed must be in 0..{(1 << 64) - 1}: random "
                              "streams are keyed by a 64-bit seed")
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
# node indices local to their tree and after their parent's; leaves have
# feature -1 and a dense leaf_id in 0..n_leaves-1 (-1 on internal nodes).
# Every internal node's right child is left + 1, which the walk relies
# on and `load_model` checks. A tree grown here numbers its nodes level by
# level and its leaf ids in node order; a reader asks only the rules
# above, so files numbered depth first still load. A row goes left iff
# its value <= threshold. n_node counts the node's in-bag draws; value
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
        child = np.where(self.feature >= 0, self.left, np.arange(self.n_nodes))
        return _walk(Tree(**vars(self), child=child), data, rows,
                     np.zeros_like(rows)).astype(np.int32)


@dataclass
class Forest:
    """A trained forest in one set of node arrays, plus per-row bookkeeping.

    Built from tree_arrays, one dict of NODE_LAYOUT arrays per tree, which
    it concatenates tree after tree into one array per field, or one dict
    of such flat arrays, used as given, with each tree's "node_count": tree
    t owns nodes node_offset[t]:node_offset[t + 1], its children and leaf
    ids stay local, and split_gain is (T, n_features). held_out_left says per
    node whether a row whose split feature is held out goes left; only
    `train_held_out` puts it in the dicts, and it is never saved. Leaf
    `leaf` of tree t has the global id leaf_offset[t] + leaf; leaf_nodes
    maps global leaf ids to nodes, and child each node's global left
    child, a leaf's being the leaf itself: the table the walk steps by.

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
        if not isinstance(tree_arrays, dict):
            tree_arrays = _flat_nodes(tree_arrays)
        self.node_offset = np.concatenate(
            [[0], np.cumsum(tree_arrays["node_count"], dtype=np.int64)])
        for name, _ in (*NODE_LAYOUT, ("held_out_left", bool)):
            setattr(self, name, tree_arrays.get(name))
        leaves = np.flatnonzero(self.feature < 0)
        self.leaf_offset = np.searchsorted(leaves, self.node_offset)
        # each tree's leaves in leaf-id order
        owner = self.node_tree()[leaves]
        self.leaf_nodes = leaves[np.lexsort((self.leaf_id[leaves], owner))]
        self.child = np.where(self.feature >= 0, self.left + self.node_offset[
            self.node_tree()], np.arange(len(self.feature)))

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

    @cached_property
    def block_nodes(self) -> tuple:
        """The features the trees split on, and the node arrays with each
        feature renumbered to its rank among them (`_node_blocks`)."""
        inner = self.feature >= 0
        counts = np.bincount(self.feature[inner], minlength=self.n_features)
        rank = np.cumsum(counts > 0, dtype=np.int32) - 1
        return np.flatnonzero(counts), SimpleNamespace(**{
            **vars(self), "feature": np.where(inner, rank[self.feature], _LEAF)})

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


def _flat_nodes(tree_arrays: list[dict]) -> dict:
    """Per-tree dicts of NODE_LAYOUT arrays (and held_out_left) joined tree
    after tree into one array per field, with each tree's node count."""
    flat = {"node_count": [len(a["feature"]) for a in tree_arrays]}
    for name, dtype in (*NODE_LAYOUT, ("held_out_left", bool)):
        parts = [a.get(name) for a in tree_arrays]
        if parts[0] is not None:
            join = np.stack if name == "split_gain" else np.concatenate
            flat[name] = join(parts, dtype=dtype)
    return flat


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


# bytes one `_walk` cell holds at its peak, its rows and start nodes
# included (tracemalloc read 85 on 100,000 cells of a 30-tree forest),
# and one cell of a `_node_blocks` block while it is read (33 on CSR)
_WALK_CELL_BYTES, _BLOCK_CELL_BYTES = 96, 40


def _walk(nodes, data, rows, node, override=None, held_out=None) -> np.ndarray:
    """Terminal node of every cell; all cells move down one level per step.

    `nodes` holds `feature`, `threshold` and `child` (`Forest.child`) in
    the numbering of `node`. Cell c walks row rows[c] of data (dense array
    or CSR Dataset) from node node[c]. override = (feature, value), arrays
    over the cells, replaces cell c's value of feature[c] with value[c].
    held_out, a bool mask shaped like data, sends a cell whose split
    feature is held out to the node's held_out_left side unread. Each step
    reads the live cells with one flat take of row * m + feature (CSR: one
    `read_cells`), moves them to child, or child + 1 (the right child)
    unless value <= threshold, and drops the cells that reached a leaf.
    The callers bound their temporaries, about _WALK_CELL_BYTES a cell,
    by BLOCK_BYTES: `_node_blocks` walks rows in blocks, and importance
    walks only the cells a perturbation moves (`_perturbed_walk`), in
    blocks of (tree, feature) runs.
    """
    m = data.shape[1] if isinstance(data, np.ndarray) else data.n_features
    read = (data.ravel().take if isinstance(data, np.ndarray) else
            lambda flat: data.read_cells(flat // m, flat % m))
    out = node.copy()
    cell = np.flatnonzero(nodes.feature.take(out) >= 0)
    base = rows.take(cell) * m
    while cell.size:
        at = out.take(cell)
        feat = nodes.feature.take(at)
        v = read(base + feat)
        if override is not None:
            v = np.where(override[0].take(cell) == feat,
                         override[1].take(cell), v)
        go_left = v <= nodes.threshold.take(at)
        if held_out is not None:
            go_left = np.where(held_out.ravel().take(base + feat),
                               nodes.held_out_left.take(at), go_left)
        at = nodes.child.take(at) + ~go_left
        out[cell] = at
        live = np.flatnonzero(nodes.feature.take(at) >= 0)
        cell, base = cell.take(live), base.take(live)
    return out


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
    level = forest.node_offset[t0:t1]
    while level.size:
        feat = forest.feature[level]
        inner = feat >= 0
        level, c = level[inner], col[feat[inner]]
        hit, above = c >= 0, table[level - base]
        kids = []
        for side in (0, 1):
            kid = forest.child[level] + side
            table[kid - base] = above
            table[kid[hit] - base, c[hit]] = 2 * (level[hit] - base) + side
            kids.append(kid)
        level = np.concatenate(kids)
    return table, col, base


def _perturbed_walk(forest: Forest, data, rows, end, feats, values,
                    ancestors) -> np.ndarray:
    """Terminal node of each cell once its row reads values[c] for feats[c].

    Cell c is row rows[c] in the tree that holds end[c], its original
    terminal node. The perturbed cell follows its original route down to
    the first node on it that splits on feats[c] and sends values[c] the
    other way: every node above either splits on another feature or sends
    the value the way the route went. So each cell climbs the feats[c]
    nodes of its route through the ancestor table (`_ancestors`, covering
    the cells' trees), and only cells that meet such a node walk, from the
    topmost one; every other cell keeps end[c]. Equals `_walk` from the
    root with the override wherever the route is the row's own walk.
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
    nodes[moved] = _walk(forest, data, rows[moved], begin[moved],
                         (feats[moved], values[moved]))
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
    """(b, T) global terminal nodes of each successive block of data's rows.

    Each block is read once into a dense array of the columns the forest
    splits on (`Forest.block_nodes`): CSR is searched once a block, not a
    level, and a block holds as many rows as fit BLOCK_BYTES with T walk
    cells and its read a row, however wide the data.
    """
    used, nodes = forest.block_nodes
    T, roots = forest.n_trees, forest.node_offset[:-1]
    step = max(1, BLOCK_BYTES // (_WALK_CELL_BYTES * T
                                  + _BLOCK_CELL_BYTES * len(used)))
    for a in range(0, max(n_rows, 1), step):
        rows = np.arange(a, min(a + step, n_rows))[:, None]
        held = None if held_out is None else held_out[rows, used]
        yield _walk(nodes, _read(data, rows, used), np.repeat(
            np.arange(len(rows)), T), np.tile(roots, len(rows)),
            held_out=held).reshape(-1, T)


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


# classification labels stay below max(rows, _LABEL_FLOOR): a forest keeps
# K class counts a node, so K is bounded by the rows, or on small data by
# a floor at which K rows of K counts fill BLOCK_BYTES
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


# -- global bins -------------------------------------------------------------

@dataclass
class _Bins:
    """The global bins of a training matrix's continuous features.

    Feature j's edges are edges[start[j]:start[j + 1]], ascending, and a
    categorical feature has none. A cell's code counts the edges below
    its value, less the zero[j] edges below 0.0, so code <= c iff
    value <= edges[start[j] + zero[j] + c], and 0.0 has code 0 (a CSR
    column keeps its implicit zeros).
    """

    edges: np.ndarray
    start: np.ndarray
    zero: np.ndarray

    def value_thresholds(self, feature, threshold) -> np.ndarray:
        """Each split's threshold on the raw values: a split on codes at
        t becomes the edge of code floor(t), which sends the same rows
        left; a split on a feature without edges (categorical) keeps t."""
        out = threshold.copy()
        b = self.start[feature + 1] > self.start[feature]
        f = feature[b]
        out[b] = self.edges[self.start[f] + self.zero[f]
                            + np.floor(threshold[b]).astype(np.int64)]
        return out


def _bin_edges(values, n_bins: int) -> np.ndarray:
    """Ascending edges of at most n_bins quantile bins over values.

    One bin per distinct value if there are at most n_bins of them; else
    a cut below the first distinct value whose first rank is at least
    k * len(values) / n_bins, for k = 1..n_bins - 1, so a value tied over
    many ranks stays in one bin. An edge lies between two adjacent
    distinct values, lower <= edge < upper: their midpoint, each halved
    before the sum so that it cannot overflow, or the lower value where
    the midpoint rounds onto the upper one.
    """
    distinct, counts = distinct_counts(values)
    upper = np.arange(1, len(distinct))
    if len(distinct) > n_bins:
        rank = np.cumsum(counts) - counts
        # ceil(k * n / n_bins) in integers
        upper = np.searchsorted(rank, -(np.arange(1, n_bins) * -len(values)
                                        // n_bins))
        upper = distinct_counts(upper[upper < len(distinct)])[0]
    lower, upper = distinct[upper - 1], distinct[upper]
    mid = lower * 0.5 + upper * 0.5
    return np.where(mid < upper, mid, lower)


def _bin_columns(data, categorical, n_bins: int, held_out=None):
    """(codes, bins): data in the same storage with each continuous
    feature's cells replaced by their global bin codes (`_Bins`).

    A feature's edges (`_bin_edges`) come from its observed cells: held
    cells are left out, and a CSR column's implicit zeros count. Held
    cells get codes too, which no split reads.
    """
    dense = isinstance(data, np.ndarray)
    if dense:
        codes = data.copy()
        columns = list(codes.T)
    else:
        # each column's stored cells, as views of one copy
        order = np.argsort(data.indices, kind="stable")
        stored = data.data[order]
        columns = np.split(stored, np.searchsorted(
            data.indices[order], np.arange(1, data.n_features)))
    edges = [np.zeros(0)] * len(columns)
    zero = np.zeros(len(columns), dtype=np.int64)
    for j in np.flatnonzero(~categorical).tolist():
        col = columns[j]
        if dense:
            observed = col if held_out is None else col[~held_out[:, j]]
        else:
            observed = np.concatenate([col, np.zeros(data.n_rows - len(col))])
        edges[j] = _bin_edges(observed, n_bins)
        zero[j] = np.searchsorted(edges[j], 0.0)
        col[:] = np.searchsorted(edges[j], col) - zero[j]
    bins = _Bins(np.concatenate(edges),
                 np.cumsum([0] + [len(e) for e in edges]), zero)
    if dense:
        return codes, bins
    values = np.empty_like(stored)
    values[order] = stored
    return Dataset.from_csr(data.indptr, data.indices, values, len(columns),
                            schema=data.schema), bins


# -- growth ----------------------------------------------------------------

# bytes one (row, tree) cell of a growth level holds at most: its row,
# weight, node and label, the masks and the partition's counts (at 6,000
# and 10,000 rows, 3 and 9 dense features, 4 trees: 69-96 a draw for
# classification, which holds distinct rows, 113-125 for regression)
_GROW_CELL_BYTES = 112
# and per candidate feature: its id, value and held flag while its cells
# are read, and on CSR the read's cell keys, positions and gathered values
# (tracemalloc read 16-21 bytes a candidate cell more on CSR than dense)
_GROW_CANDIDATE_BYTES = 17
_CSR_READ_BYTES = 24


def _grow_trees(data, y, trees, *, task, n_classes, n_features, mtry,
                min_node_size, max_depth, seed, bins=None, held_out=None):
    """Each tree's NODE_LAYOUT arrays (and held_out_left), and in-bag counts.

    data holds the raw values under presort. Under histogram it holds the
    global bin codes of `_bin_columns`, fixed once per training, and
    bins turns each split on codes into its value edge, the threshold
    the tree records; both send the same rows left.

    The trees grow together, one level at a time. A level holds every
    open node of every tree, its in-bag rows in one array, node after
    node: a classification tree each distinct in-bag row once, weighted
    by its draw count, a regression tree each draw (weight 1: its float
    sums follow draw order). Sizes, class counts, the held-out side rule
    and the scan count rows by weight, so a node gets the counts and split
    of its draws (`splitfind` module docstring). A level runs one label
    gather and one count for all of its nodes, one read of the candidate
    cells of the nodes that try a split, one compare that routes their
    rows, and one stable partition of those rows and their weights into
    the next level, each node's left child before its right. One
    `splitfind.find_splits` call finds the level's splits, as (feature,
    threshold, gain) arrays, its classification nodes a block at a time
    (`splitfind.find_level_splits`). One `rng.LevelStreams.candidates`
    call draws every open node's candidate features, the sorted set of
    numpy 2.x's `Generator.choice(n_features, size=mtry, replace=False)`
    on the node's Philox stream: a level of at least
    `rng._LEVEL_DRAW_NODES` nodes runs Philox on uint64 arrays and
    Floyd's draws column by column, and a smaller level re-keys each
    node's stream and replays the draw on its raw output (`rng.choose`).
    No step of a level runs node by node in Python, but for those small
    levels and the split scans of regression nodes and of a level of a
    few small classification nodes (`splitfind.SMALL_CELLS`). Each tree's
    nodes are then numbered in the order they grew
    (`_number_level_order`).
    """
    n_rows = len(y)
    draws = [tree_rng(seed, t).integers(0, n_rows, size=n_rows) for t in trees]
    inbag = np.column_stack([np.bincount(d, minlength=n_rows) for d in draws])
    streams = LevelStreams(seed, trees)
    # the level's nodes: node i holds rows[starts[i]:starts[i + 1]], of
    # weights w, grows in tree tree[i] (of the group), path id route[i]
    if task == "classification":
        draws = [np.flatnonzero(c) for c in inbag.T]
    rows = np.concatenate(draws)
    w = (np.concatenate([c[d] for c, d in zip(inbag.T, draws)])
         if task == "classification" else np.ones_like(rows))
    starts = np.cumsum([0] + [len(d) for d in draws])
    tree = np.arange(len(trees))
    route = np.full(len(trees), ROOT_ROUTE, dtype=np.uint64)
    levels, depth = [], 0
    while len(tree):
        nn, size = len(tree), np.diff(starts)
        node = np.repeat(np.arange(nn), size)
        n_node = np.add.reduceat(w, starts[:-1])
        yv = y[rows]
        if task == "classification":
            value = np.bincount(node * n_classes + yv, w, nn * n_classes
                                ).astype(np.int64).reshape(nn, n_classes)
            pure = np.count_nonzero(value, axis=1) == 1
        else:
            # one sum per node, rounding as the node's targets alone do
            bounds = starts.tolist()
            value = np.array([yv[a:b].sum() for a, b in
                              zip(bounds, bounds[1:])]) / size
            pure = (np.minimum.reduceat(yv, starts[:-1])
                    == np.maximum.reduceat(yv, starts[:-1]))
        level = {"tree": tree, "n_node": n_node, "value": value,
                 "feature": np.full(nn, _LEAF), "threshold": np.full(nn, np.nan),
                 "gain": np.zeros(nn), "held_out_left": np.zeros(nn, bool)}
        levels.append(level)
        keep = ~pure & (n_node > min_node_size)
        opened = np.flatnonzero(keep)
        if (max_depth is not None and depth >= max_depth) or not opened.size:
            break
        depth += 1

        feats = streams.candidates(tree[opened], route[opened], n_features,
                                   mtry)
        # the open nodes' rows, the nodes renumbered from 0
        keep = keep[node]
        rows, yv, w = rows[keep], yv[keep], w[keep]
        size = size[opened]
        starts = np.concatenate(([0], np.cumsum(size)))
        node = np.repeat(np.arange(len(opened)), size)
        cell_feats = feats[node]
        cols = _read(data, rows[:, None], cell_feats)
        held = (None if held_out is None
                else held_out[rows[:, None], cell_feats])
        del cell_feats
        feature, threshold, gain = find_splits(
            cols, feats, yv, starts, task=task, n_classes=n_classes,
            held=held, weights=w if task == "classification" else None)
        found = feature >= 0
        # each row's value of its node's split feature
        col = np.argmax(feats == feature[:, None], axis=1)[node]
        cell = np.arange(len(rows)), col
        go_left = cols[cell] <= threshold[node]
        del cols
        if held is not None:
            # held-out rows follow the side with more observed rows
            obs = ~held[cell]
            side = (2 * np.bincount(node, w * (obs & go_left), len(size))
                    >= np.bincount(node, w * obs, len(size)))
            go_left = np.where(obs, go_left, side[node])
            level["held_out_left"][opened] = found & side
        n_left = np.bincount(node[go_left], minlength=len(size))
        # presort's midpoint of two adjacent floats can round onto the
        # upper one and send every row left; such a node stays a leaf (a
        # bin edge stays below the upper value, so codes never do this)
        ok = found & (n_left > 0) & (n_left < size)
        split = opened[ok]
        level["feature"][split] = feature[ok]
        level["threshold"][split] = (
            threshold[ok] if bins is None
            else bins.value_thresholds(feature[ok], threshold[ok]))
        level["gain"][split] = gain[ok]

        # a stable partition by counts: each split node's rows go to its
        # left child, then its right child, both in row order
        keep = ok[node]
        rows, w, go_left = rows[keep], w[keep], go_left[keep]
        n_left, size = n_left[ok], size[ok]
        node = np.repeat(np.arange(len(size)), size)
        first = np.cumsum(size) - size
        left_before = np.cumsum(go_left) - go_left
        at_first = left_before[first]
        at = np.where(go_left, left_before + (first - at_first)[node],
                      np.arange(len(rows)) - left_before
                      + (at_first + n_left)[node])
        moved = np.empty((2, len(rows)), dtype=rows.dtype)
        moved[:, at] = rows, w
        rows, w = moved
        sizes = np.column_stack([n_left, size - n_left]).ravel()
        starts = np.concatenate(([0], np.cumsum(sizes)))
        tree = np.repeat(tree[split], 2)
        route = np.column_stack([child_route(route[split], False),
                                 child_route(route[split], True)]).ravel()
    return _number_level_order(levels, len(trees), n_features,
                               held_out is not None), inbag.astype(np.uint16)


def _number_level_order(levels, n_trees, n_features,
                        held_out: bool) -> list[dict]:
    """Each tree's NODE_LAYOUT arrays, and held_out_left if held_out, from
    the levels `_grow_trees` grew, its nodes numbered in the order grown.

    Each level holds its nodes tree after tree, so one stable sort by tree
    lists every tree's nodes level by level: that is their order. The k-th
    split of a level has children 2k and 2k + 1 of the next level, so a
    split's right child is its left child + 1. Leaves take their ids, and
    split_gain sums gain * n_node over the splits, in that order too.
    """
    node = {k: np.concatenate([lv[k] for lv in levels]) for k in levels[0]}
    start = np.cumsum([0] + [len(lv["tree"]) for lv in levels])
    split = node["feature"] >= 0
    # each split's left child, as an index into the concatenated levels
    left = np.full(len(split), _LEAF)
    left[split] = np.concatenate([start[i + 1] + 2 * np.arange(
        np.count_nonzero(lv["feature"] >= 0)) for i, lv in enumerate(levels)])
    order = np.argsort(node["tree"], kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    node = {k: v[order] for k, v in node.items()}
    tree, split, left = node["tree"], split[order], left[order]
    base = np.concatenate(([0], np.cumsum(np.bincount(tree,
                                                      minlength=n_trees))))
    first = base[tree]
    node["left"] = np.where(split, pos[left] - first, _LEAF)
    node["right"] = np.where(split, node["left"] + 1, _LEAF)
    leaves_before = np.cumsum(~split) - ~split
    node["leaf_id"] = np.where(split, _LEAF,
                               leaves_before - leaves_before[first])
    split_gain = np.zeros((n_trees, n_features))
    np.add.at(split_gain, (tree[split], node["feature"][split]),
              node["gain"][split] * node["n_node"][split])
    names = [name for name, _ in NODE_LAYOUT[:-1]]
    if held_out:
        names.append("held_out_left")
    return [{"split_gain": split_gain[t],
             **{name: node[name][base[t]:base[t + 1]] for name in names}}
            for t in range(n_trees)]


def train(ds: Dataset, config: ForestConfig) -> Forest:
    """Grow a forest on a complete Dataset.

    Classification and regression require a target, classification labels
    being whole numbers below max(rows, 1024); unsupervised mode requires
    the target to be absent and trains real-vs-synthetic on the
    column-permuted augmentation. Returns a Forest with per-tree in-bag
    counts, per-row leaf assignments, and the OOB error filled in.
    The trees grow level by level, all of a group at once, and number
    their nodes in that order (see the module docstring).
    Deterministic for a fixed (data, config).
    """
    return _train(ds, config, held_out=None)


def train_held_out(ds: Dataset, held_out, config: ForestConfig) -> Forest:
    """Grow a forest that never reads the cells marked in held_out.

    ds must be dense and complete; its held-out cells hold placeholder
    fills. Each level of the level-wise growth reads the held-out flag of
    every candidate cell it reads, and every node's split scan (in a
    level-scan block of any size, which gives the node the same split,
    `splitfind.find_splits`) takes its held-out cells as its held mask:
    each candidate feature is scored on the node's rows where that cell
    is observed, its gain scaled by the observed share, and the exact tie
    rule of every other node picks among features.
    A row whose split feature is held out goes to the child holding more
    of the node's observed in-bag rows, both in the level's partition and
    in leaf_of_train. In unsupervised mode the synthetic half carries the
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
    data = grow_data = view.columns
    bins = None
    if config.split_strategy == "histogram":
        grow_data, bins = _bin_columns(data, ds.schema.is_categorical(),
                                       config.n_bins, held_out)
    task = "regression" if config.mode == "regression" else "classification"
    mtry = config.resolved_mtry(ds.n_features)
    min_node = config.resolved_min_node_size()

    # trees grow in groups whose level arrays fit BLOCK_BYTES
    candidate = _GROW_CANDIDATE_BYTES + (_CSR_READ_BYTES if ds.is_sparse
                                         else 0)
    step = max(1, BLOCK_BYTES // ((_GROW_CELL_BYTES + candidate * mtry)
                                  * len(view.y)))
    grown = [_grow_trees(
        grow_data, view.y, range(t, min(t + step, config.n_trees)),
        task=task, n_classes=view.n_classes or 0, n_features=ds.n_features,
        mtry=mtry, min_node_size=min_node, max_depth=config.max_depth,
        seed=config.seed, bins=bins, held_out=held_out)
        for t in range(0, config.n_trees, step)]

    forest = Forest(
        config=config,
        tree_arrays=[a for g in grown for a in g[0]],
        inbag_counts=np.hstack([g[1] for g in grown]),
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
