"""Shared generators and hand-built forest utilities for the test suite."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse.forest import _node_grid
from forestfuse.proximity import cooccurrence_blocks


def loads_numpy_ma(setup, action) -> bool:
    """Whether the lines of action import numpy.ma in a fresh process.

    np.unique, np.median and np.percentile import it on their first call,
    12-14 ms that a one-shot command would pay. Both lists of lines run
    after `import numpy as np` and `import forestfuse as ff`; setup must
    not import numpy.ma itself.
    """
    code = "\n".join([
        "import sys", "import numpy as np", "import forestfuse as ff",
        *setup,
        "assert 'numpy.ma' not in sys.modules, 'imported by the setup'",
        *action,
        "print('numpy.ma' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(ff.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def blobs(n_per_class, seed, sep=6.0, scale=1.0):
    """Two well-separated 2-D Gaussian blobs; labels 0/1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.0, 0.0), scale=scale, size=(n_per_class, 2))
    b = rng.normal(loc=(sep, sep), scale=scale, size=(n_per_class, 2))
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return X, y


def blobs_dataset(n_per_class, seed, sep=6.0, scale=1.0):
    X, y = blobs(n_per_class, seed, sep, scale)
    return ff.Dataset.from_dense(X, target=y)


def correlated_data(n, seed, n_features=5, noise=0.05):
    """Strongly cross-correlated continuous features from one latent factor."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    cols = [z + rng.normal(scale=noise, size=n) for _ in range(n_features - 1)]
    cols.append(0.5 * z ** 2 + rng.normal(scale=noise, size=n))
    return np.column_stack(cols)


def mcar_mask(shape, frac, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=shape) < frac


def rank_auc(scores, labels):
    """Mann-Whitney AUC of scores against binary labels (1 = positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # midranks for ties
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def leaf_tree(class_counts=None, mean=None, n=1, n_features=1):
    """Single-node tree's NODE_LAYOUT arrays: the root is leaf 0."""
    if class_counts is not None:
        value = np.asarray([class_counts], dtype=np.float64)
    else:
        value = np.asarray([mean], dtype=np.float64)
    return dict(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        leaf_id=np.array([0], dtype=np.int32),
        n_node=np.array([n], dtype=np.int64),
        value=value,
        split_gain=np.zeros(n_features),
    )


def stump(feature, threshold, left_value, right_value, *, n_left=1, n_right=1,
          n_features=1):
    """Three-node tree's NODE_LAYOUT arrays: one split, leaf 0 on the left,
    leaf 1 on the right."""
    left_value = np.atleast_1d(np.asarray(left_value, dtype=np.float64))
    right_value = np.atleast_1d(np.asarray(right_value, dtype=np.float64))
    if left_value.shape == (1,):
        value = np.array([left_value[0] + right_value[0],
                          left_value[0], right_value[0]])
    else:
        value = np.vstack([left_value + right_value, left_value, right_value])
    return dict(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, np.nan, np.nan]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        leaf_id=np.array([-1, 0, 1], dtype=np.int32),
        n_node=np.array([n_left + n_right, n_left, n_right], dtype=np.int64),
        value=value,
        split_gain=np.zeros(n_features),
    )


def assemble_forest(trees, ds, mode="classification", n_classes=None,
                    inbag_counts=None, seed=0):
    """Forest from hand-built tree arrays; leaf assignments from its walk."""
    T = len(trees)
    if inbag_counts is None:
        inbag_counts = np.ones((ds.n_rows, T), dtype=np.uint16)
    config = ff.ForestConfig(mode=mode, n_trees=T, seed=seed)
    forest = ff.Forest(
        config=config,
        tree_arrays=trees,
        inbag_counts=np.asarray(inbag_counts, dtype=np.uint16),
        leaf_of_train=None,
        n_features=ds.n_features,
        n_classes=n_classes,
        synthetic_offset=None,
        oob_error=float("nan"),
        oob_skipped=0,
    )
    data = ds.values if not ds.is_sparse else ds
    forest.leaf_of_train = forest.leaf_id[_node_grid(forest, data, ds.n_rows)]
    return forest


def renumber_depth_first(forest):
    """The forest with every tree numbered as a left-first depth-first
    grower numbers it, the layout of model files written before trees
    were numbered level by level: a split's children take the next two
    ids when it is visited, and leaves take their ids in visit order, so
    leaf ids fall out of node order. leaf_of_train follows the new ids."""
    trees, leaf_of_train = [], forest.leaf_of_train.copy()
    for t in range(forest.n_trees):
        a = forest.arrays_of(t)
        ident, leaf = {0: 0}, np.full(len(a["feature"]), -1)
        stack = [0]
        while stack:
            node = stack.pop()
            if a["feature"][node] < 0:
                leaf[node] = np.count_nonzero(leaf >= 0)
                continue
            for child in (a["left"][node], a["right"][node]):
                ident[child] = len(ident)
            stack += [a["right"][node], a["left"][node]]
        old = np.array(sorted(ident, key=ident.get))
        new = np.empty_like(old)
        new[old] = np.arange(len(old))
        inner = a["feature"][old] >= 0
        trees.append({
            **{name: a[name][old] for name in ("feature", "threshold",
                                               "n_node", "value")},
            "left": np.where(inner, new[a["left"][old]], -1),
            "right": np.where(inner, new[a["right"][old]], -1),
            "leaf_id": leaf[old], "split_gain": a["split_gain"]})
        leaves = slice(*forest.leaf_offset[t:t + 2])
        relabel = leaf[forest.leaf_nodes[leaves] - forest.node_offset[t]]
        leaf_of_train[:, t] = relabel[forest.leaf_of_train[:, t]]
    return replace(forest, tree_arrays=trees, leaf_of_train=leaf_of_train)


def walk_tree(tree, x):
    """Reference traversal of a Tree view, independent of the forest's walk:
    left iff v <= thr."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return int(tree.leaf_id[node])


def dense_to_csr(dense, stored_zero=None):
    """CSR arrays of a dense matrix; cells in stored_zero are kept even at 0."""
    keep = dense != 0.0
    if stored_zero is not None:
        keep |= stored_zero
    rows, cols = np.nonzero(keep)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(dense)))])
    return indptr, cols, dense[rows, cols]


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=7):
    """Dense matrices with many zeros, some whole rows and columns empty."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = np.round(rng.normal(size=(n, m)), 3)
    dense[rng.uniform(size=(n, m)) < draw(st.floats(0.0, 1.0))] = 0.0
    dense[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0.0
    dense[:, draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0
    stored_zero = rng.uniform(size=(n, m)) < 0.1
    return dense, stored_zero


def young_oracle(forest, values, missing, categorical):
    """Young's fill rule one cell and one out-of-bag tree at a time.

    Per OOB tree of a missing cell, the mean (mode, ties to the lower
    code) of the feature over the observed rows sharing its leaf; the
    cell takes the mean (majority vote, ties to the lower code) of those
    estimates. Cells with none keep their value and are listed.
    """
    n = forest.n_scored_rows
    leaves = forest.leaf_of_train[:n]
    oob = forest.inbag_counts[:n] == 0
    out = values.copy()
    fallbacks = []
    for k in range(values.shape[1]):
        for i in np.flatnonzero(missing[:, k]):
            estimates = []
            for t in np.flatnonzero(oob[i]):
                donors = (leaves[:, t] == leaves[i, t]) & ~missing[:, k]
                vals = values[donors, k]
                if vals.size == 0:
                    continue
                if categorical[k]:
                    estimates.append(np.argmax(np.bincount(vals.astype(int))))
                else:
                    estimates.append(vals.mean())
            if not estimates:
                fallbacks.append((int(i), k))
            elif categorical[k]:
                out[i, k] = np.argmax(np.bincount(estimates))
            else:
                out[i, k] = np.mean(estimates)
    return out, fallbacks


def bc_oracle(forest, values, missing, categorical, fills):
    """Breiman-Cutler's fill rule one cell at a time, from integer counts.

    A missing cell weighs the rows whose cell is observed by how many
    trees put them in its row's leaf: a continuous cell takes their
    weighted mean, a categorical cell the code with the largest total
    count, ties to the lower code. A cell no donor shares a leaf with
    takes fills[k]; those cells are listed in (feature, row) order.
    """
    counts = np.concatenate(
        [c for _, c, _ in cooccurrence_blocks(forest)]).astype(np.int64)
    out = values.copy()
    fallbacks = []
    for k in range(values.shape[1]):
        donors = ~missing[:, k]
        for i in np.flatnonzero(missing[:, k]):
            weights = counts[i, donors]
            if weights.sum() == 0:
                out[i, k] = fills[k]
                fallbacks.append((int(i), k))
            elif categorical[k]:
                out[i, k] = np.argmax(np.bincount(
                    values[donors, k].astype(int), weights=weights))
            else:
                out[i, k] = np.average(values[donors, k], weights=weights)
    return out, fallbacks
