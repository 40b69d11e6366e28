"""Row-block co-occurrence counts and the consumers that read them."""

import tracemalloc

import numpy as np
import pytest
from helpers import assemble_forest, blobs_dataset, dense_to_csr, stump
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse import outlier, prototype
from forestfuse.proximity import (cooccurrence_blocks, nearest_columns,
                                  nearness_key)


def brute_force_counts(forest, pair_mode):
    """(n, n) counts and denominators by comparing leaf_of_train rows."""
    n = forest.n_scored_rows
    leaves = forest.leaf_of_train[:n]
    both = np.ones((n, n, forest.n_trees), dtype=bool)
    if pair_mode == "oob":
        oob = forest.oob_mask()[:n]
        both = oob[:, None, :] & oob[None, :, :]
    same = (leaves[:, None, :] == leaves[None, :, :]) & both
    return same.sum(axis=2), both.sum(axis=2)


def stacked(forest, rows=None, cols=None, pair_mode="all", **kwargs):
    """Concatenate the kernel's blocks; also return the block heights."""
    blocks = list(cooccurrence_blocks(forest, rows, cols, pair_mode=pair_mode,
                                      **kwargs))
    ids = np.concatenate([b for b, _, _ in blocks])
    counts = np.concatenate([c for _, c, _ in blocks])
    denom = None if pair_mode == "all" else np.concatenate(
        [d for _, _, d in blocks])
    return ids, counts, denom, [len(b) for b, _, _ in blocks]


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["classification", "regression", "unsupervised"]),
       sparse=st.booleans(), pair_mode=st.sampled_from(["all", "oob"]),
       n=st.integers(2, 30), n_trees=st.integers(1, 7),
       seed=st.integers(0, 2 ** 16), max_bytes=st.integers(1, 4000),
       data=st.data())
def test_block_counts_equal_brute_force(mode, sparse, pair_mode, n, n_trees,
                                        seed, max_bytes, data):
    rng = np.random.default_rng(seed)
    X = np.where(rng.uniform(size=(n, 3)) < 0.4, 0.0,
                 rng.normal(size=(n, 3)))
    y = None if mode == "unsupervised" else (
        rng.integers(0, 3, size=n).astype(float) if mode == "classification"
        else rng.normal(size=n))
    ds = (ff.Dataset.from_csr(*dense_to_csr(X), 3, target=y) if sparse
          else ff.Dataset.from_dense(X, target=y))
    forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=n_trees,
                                          seed=seed))
    ids = st.lists(st.integers(0, n - 1), min_size=1)
    rows = np.array(data.draw(ids, label="rows"))
    cols = data.draw(st.none() | ids, label="cols")
    got, counts, denom, heights = stacked(forest, rows, cols, pair_mode,
                                          max_bytes=max_bytes)
    expected, expected_denom = brute_force_counts(forest, pair_mode)
    cols = np.arange(n) if cols is None else np.array(cols)
    np.testing.assert_array_equal(got, rows)
    assert counts.dtype == np.uint8 and counts.shape == (len(rows), len(cols))
    np.testing.assert_array_equal(counts, expected[np.ix_(rows, cols)])
    if pair_mode == "oob":
        np.testing.assert_array_equal(denom, expected_denom[np.ix_(rows, cols)])
    # every block but the last is full, and no block is over the budget
    # unless it holds a single row
    assert len(set(heights[:-1])) <= 1 and heights[-1] <= heights[0]
    cell = 4 if pair_mode == "oob" else 2
    assert heights[0] == 1 or heights[0] * len(cols) * cell <= max_bytes


def test_more_than_255_trees_count_in_uint16():
    ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0]], target=[0.0, 0.0, 1.0])
    trees = [stump(0, 0.5 + (t % 2), [1.0, 0.0], [1.0, 1.0])
             for t in range(300)]
    forest = assemble_forest(trees, ds, n_classes=2)
    _, counts, denom, _ = stacked(forest)
    assert counts.dtype == np.uint16 and denom is None
    np.testing.assert_array_equal(counts,
                                  [[300, 150, 0], [150, 300, 150],
                                   [0, 150, 300]])


def test_unknown_pair_mode_rejected():
    ds = blobs_dataset(3, seed=1)
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=2))
    with pytest.raises(ff.ArgumentError):
        next(cooccurrence_blocks(forest, pair_mode="both"))


# -- consumers: a Forest read by blocks against the matrix -------------------

@pytest.fixture(scope="module")
def three_class():
    """60 rows in three classes of 20, 30 trees."""
    rng = np.random.default_rng(21)
    y = np.repeat([0, 1, 2], 20)
    X = rng.normal(size=(60, 3)) + 1.5 * y[:, None]
    ds = ff.Dataset.from_dense(X, target=y.astype(float))
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=30,
                                          seed=4))
    return ds.without_target(), forest, y


# one row per block, a few rows per block, all rows in one block
BUDGETS = [1, 3 * 60 * 60, 10 ** 9]


def same_report(a, b):
    assert a.raw.tobytes() == b.raw.tobytes()
    assert a.score.tobytes() == b.score.tobytes()
    assert a.flags == b.flags


def same_prototypes(a, b):
    assert a.keys() == b.keys()
    for c in a:
        assert len(a[c]) == len(b[c])
        for pa, pb in zip(a[c], b[c]):
            assert (pa.rank, pa.center_row) == (pb.rank, pb.center_row)
            np.testing.assert_array_equal(pa.support, pb.support)
            for field in ("median", "q25", "q75"):
                assert getattr(pa, field).tobytes() == \
                    getattr(pb, field).tobytes()


def greedy_oracle(counts, classes, T, m_cap):
    """Row by row: the m_cap highest counts, ties to the lower id."""
    raw = np.empty(len(classes))
    for i in range(len(classes)):
        members = np.flatnonzero(classes == classes[i])
        mates = members[members != i]
        if len(mates) > m_cap:
            order = np.lexsort((mates, -counts[i, mates]))[:m_cap]
            mates = np.sort(mates[order])
        mass = float(((counts[i, mates] / T) ** 2).sum())
        raw[i] = len(members) / mass if mass > 0 else np.inf
    return raw


@pytest.mark.parametrize("max_bytes", BUDGETS)
def test_exact_outliers_read_forest_as_matrix(three_class, monkeypatch,
                                              max_bytes):
    ds, forest, y = three_class
    prox = ff.compute_proximity(forest, ds)
    expected = outlier.outlier_exact(prox, y)
    counts, _ = brute_force_counts(forest, "all")
    # one row at a time, all classmates: the exact measure
    assert expected.raw.tobytes() == \
        greedy_oracle(counts, y, forest.n_trees, len(y)).tobytes()
    monkeypatch.setattr(outlier, "DEFAULT_BLOCK_BYTES", max_bytes)
    same_report(ff.outlier_exact(forest, y), expected)
    same_report(ff.outlier_exact(prox.values, y), expected)


@pytest.mark.parametrize("max_bytes", BUDGETS)
@pytest.mark.parametrize("m_cap", [1, 3, 10, 19, 50])
def test_greedy_outliers_match_the_matrix(three_class, monkeypatch,
                                          max_bytes, m_cap):
    ds, forest, y = three_class
    monkeypatch.setattr(outlier, "DEFAULT_BLOCK_BYTES", max_bytes)
    counts, _ = brute_force_counts(forest, "all")
    report = ff.outlier_greedy(forest, y, m_cap=m_cap)
    assert report.raw.tobytes() == \
        greedy_oracle(counts, y, forest.n_trees, m_cap).tobytes()
    if m_cap >= 19:
        same_report(report, ff.outlier_exact(ff.compute_proximity(forest, ds),
                                             y))


@pytest.mark.parametrize("max_bytes", BUDGETS)
@pytest.mark.parametrize("n_protos", [1, 2, 3])
def test_prototypes_read_forest_as_matrix(three_class, monkeypatch,
                                          max_bytes, n_protos):
    ds, forest, y = three_class
    prox = ff.compute_proximity(forest, ds)
    expected = ff.find_prototypes(prox, ds, y, k=5, n_protos=n_protos)
    monkeypatch.setattr(prototype, "DEFAULT_BLOCK_BYTES", max_bytes)
    same_prototypes(ff.find_prototypes(forest, ds, y, k=5, n_protos=n_protos),
                    expected)
    same_prototypes(ff.find_prototypes(prox.values, ds, y, k=5,
                                       n_protos=n_protos), expected)


def prototype_oracle(prox, classes, k, n_protos):
    """Each candidate's k nearest by one lexsort: (center, support) lists."""
    n = len(classes)
    out = {}
    for c in np.unique(classes):
        is_c = classes == c
        consumed = np.zeros(n, dtype=bool)
        out[c] = []
        for _ in range(n_protos):
            best = None
            for i in np.flatnonzero(is_c & ~consumed):
                eligible = np.flatnonzero(~consumed & (np.arange(n) != i))
                nn = eligible[np.lexsort((eligible, -prox[i, eligible]))[:k]]
                if best is None or is_c[nn].sum() > best[0]:
                    best = (is_c[nn].sum(), i, nn)
            if best is None:
                break
            _, i, nn = best
            support = np.unique(np.concatenate([[i], nn[is_c[nn]]]))
            out[c].append((i, support.tolist()))
            consumed[support] = True
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 14),
       k=st.integers(1, 6), n_protos=st.integers(1, 3),
       levels=st.integers(2, 5))
def test_prototypes_of_a_tied_float_matrix_match_the_oracle(seed, n, k,
                                                            n_protos, levels):
    rng = np.random.default_rng(seed)
    # few distinct values, so ties are everywhere
    base = rng.integers(0, levels, size=(n, n)) / 7.0
    prox = (base + base.T) / 2
    np.fill_diagonal(prox, 1.0)
    classes = rng.integers(0, 2, size=n)
    ds = ff.Dataset.from_dense(rng.normal(size=(n, 2)))
    # hypothesis reruns the body, so a function-scoped fixture won't do
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prototype, "DEFAULT_BLOCK_BYTES", int(rng.integers(1, 2000)))
        got = ff.find_prototypes(prox, ds, classes, k=k, n_protos=n_protos)
    expected = prototype_oracle(prox, classes, k, n_protos)
    assert {c: [(p.center_row, p.support.tolist()) for p in protos]
            for c, protos in got.items()} == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_trees=st.integers(1, 3),
       n_classes=st.integers(1, 3), data=st.data())
def test_forest_consumers_match_the_oracles_on_tied_counts(seed, n_trees,
                                                          n_classes, data):
    rng = np.random.default_rng(seed)
    # few distinct rows, repeated, and at most 3 trees: counts tie
    # everywhere, and duplicated rows share every leaf
    n = data.draw(st.integers(2 * n_classes, 24), label="n")
    X = rng.normal(size=(data.draw(st.integers(1, 5), label="distinct"), 2))
    X = X[rng.integers(0, len(X), size=n)]
    y = rng.permutation(np.arange(n) % n_classes)
    forest = ff.train(ff.Dataset.from_dense(X, target=y.astype(float)),
                      ff.ForestConfig(mode="classification", n_trees=n_trees,
                                      seed=seed))
    counts, _ = brute_force_counts(forest, "all")
    k = data.draw(st.integers(1, n), label="k")
    n_protos = data.draw(st.integers(1, 3), label="n_protos")
    m_cap = data.draw(st.integers(1, n), label="m_cap")
    # hypothesis reruns the body, so a function-scoped fixture won't do
    with pytest.MonkeyPatch.context() as mp:
        for module in (prototype, outlier):
            mp.setattr(module, "DEFAULT_BLOCK_BYTES",
                       int(rng.integers(1, 4000)))
        protos = ff.find_prototypes(forest, ff.Dataset.from_dense(X), y,
                                    k=k, n_protos=n_protos)
        greedy = ff.outlier_greedy(forest, y, m_cap=m_cap)
    assert {c: [(p.center_row, p.support.tolist()) for p in ps]
            for c, ps in protos.items()} == \
        prototype_oracle(counts, y, k, n_protos)
    assert greedy.raw.tobytes() == \
        greedy_oracle(counts, y, forest.n_trees, m_cap).tobytes()


@pytest.mark.parametrize("shape, top, itype", [
    ((4, 9), 30, np.int32),
    # (60,000 + 1) * 40,000 keys overflow int32
    ((2, 40_000), 60_000, np.int64)])
def test_nearness_keys_decode_to_their_column(shape, top, itype):
    values = np.random.default_rng(3).integers(0, top + 1, size=shape,
                                               dtype=np.uint32)
    values[0, 0] = top
    key = nearness_key(values)
    assert key.dtype == itype
    m = values.shape[1]
    columns = key % m
    np.testing.assert_array_equal(columns, np.broadcast_to(np.arange(m),
                                                           key.shape))
    np.testing.assert_array_equal((columns - key) // m, values)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), b=st.integers(1, 5),
       m=st.integers(1, 12), levels=st.integers(1, 4), data=st.data())
def test_nearest_columns_are_the_strongest_cells(seed, b, m, levels, data):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, levels, size=(b, m))
    excluded = rng.uniform(size=(b, m)) < 0.3
    k = data.draw(st.integers(1, m), label="k")
    key = nearness_key(values)
    key[excluded] = np.iinfo(key.dtype).max
    got = nearest_columns(key, k)
    for r in range(b):
        # strongest first, ties to the lower column; excluded cells read -1
        order = np.lexsort((np.arange(m), -values[r], excluded[r]))[:k]
        want = np.where(excluded[r, order], -1, order)
        assert sorted(got[r].tolist()) == sorted(want.tolist())


def test_forest_consumers_hold_no_square_matrix(monkeypatch):
    rng = np.random.default_rng(8)
    y = np.repeat([0, 1], 300)
    X = rng.normal(size=(600, 4)) + y[:, None]
    ds = ff.Dataset.from_dense(X, target=y.astype(float))
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=10,
                                          seed=3))
    features = ds.without_target()
    square = 8 * 600 * 600
    monkeypatch.setattr(outlier, "DEFAULT_BLOCK_BYTES", 64_000)
    monkeypatch.setattr(prototype, "DEFAULT_BLOCK_BYTES", 64_000)
    for run in (lambda: ff.outlier_exact(forest, y),
                lambda: ff.find_prototypes(forest, features, y, k=10,
                                           n_protos=2)):
        run()  # first calls also load code; trace a warm one
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < square / 8
