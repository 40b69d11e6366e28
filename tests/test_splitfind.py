"""Split finding against brute-force oracles."""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse import splitfind
from forestfuse.forest import _bin_columns


def gini(counts):
    n = counts.sum()
    return 1.0 - ((counts / n) ** 2).sum()


def brute_force_class(values, y, n_classes):
    """Evaluate every midpoint between consecutive distinct sorted values."""
    distinct = np.unique(values)
    n = len(values)
    parent = gini(np.bincount(y, minlength=n_classes).astype(float))
    best = None
    for a, b in zip(distinct[:-1], distinct[1:]):
        thr = 0.5 * (a + b)
        left = y[values <= thr]
        right = y[values > thr]
        child = (len(left) * gini(np.bincount(left, minlength=n_classes).astype(float))
                 + len(right) * gini(np.bincount(right, minlength=n_classes).astype(float))) / n
        gain = parent - child
        if best is None or gain > best[1]:
            best = (thr, gain)
    return best


def brute_force_reg(values, y):
    distinct = np.unique(values)
    n = len(values)
    parent = np.var(y)
    best = None
    for a, b in zip(distinct[:-1], distinct[1:]):
        thr = 0.5 * (a + b)
        left = y[values <= thr]
        right = y[values > thr]
        child = (len(left) * np.var(left) + len(right) * np.var(right)) / n
        gain = parent - child
        if best is None or gain > best[1]:
            best = (thr, gain)
    return best


class TestBestSplit:
    # one candidate column, feature id 0
    def test_perfect_split(self):
        got = ff.find_node_split(np.c_[[1.0, 1.0, 2.0, 2.0]], np.array([0]),
                                 np.array([0, 0, 1, 1]), task="classification",
                                 n_classes=2)
        assert got is not None
        assert got.threshold == 1.5
        assert got.gain == pytest.approx(0.5, abs=1e-15)  # full Gini removed

    def test_constant_feature(self):
        assert ff.find_node_split(np.c_[[3.0, 3.0, 3.0, 3.0]], np.array([0]),
                                  np.array([0, 0, 1, 1]),
                                  task="classification", n_classes=2) is None

    def test_pure_node(self):
        assert ff.find_node_split(np.c_[[1.0, 2.0, 3.0, 4.0]], np.array([0]),
                                  np.array([1, 1, 1, 1]),
                                  task="classification", n_classes=2) is None

    def test_presort_matches_brute_force_classification(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            values = rng.normal(size=64)
            y = rng.integers(0, 2, size=64)
            if len(np.unique(y)) < 2:
                continue
            expected = brute_force_class(values, y, 2)
            got = ff.find_node_split(values[:, None], np.array([0]), y,
                                     task="classification", n_classes=2)
            if expected[1] <= 1e-12:
                assert got is None
                continue
            assert got is not None
            assert got.threshold == pytest.approx(expected[0], abs=0)
            assert got.gain == pytest.approx(expected[1], abs=1e-12)

    def test_presort_matches_brute_force_regression(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            values = rng.normal(size=48)
            y = values * 2 + rng.normal(scale=0.3, size=48)
            expected = brute_force_reg(values, y)
            got = ff.find_node_split(values[:, None], np.array([0]), y,
                                     task="regression")
            assert got is not None
            assert got.threshold == pytest.approx(expected[0], abs=0)
            assert got.gain == pytest.approx(expected[1], rel=1e-10)

    def test_multiclass_matches_brute_force(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=60)
        y = rng.integers(0, 4, size=60)
        expected = brute_force_class(values, y, 4)
        got = ff.find_node_split(values[:, None], np.array([0]), y,
                                 task="classification", n_classes=4)
        assert got.threshold == expected[0]
        assert got.gain == pytest.approx(expected[1], abs=1e-12)


class TestHistogram:
    """Histogram growth scans a node's global bin codes
    (`forest._bin_columns`) and records a split's value edge."""

    @staticmethod
    def root_split(values, y, n_bins):
        """The split of one continuous column, its threshold on values."""
        codes, bins = _bin_columns(values[:, None], np.array([False]), n_bins)
        split = ff.find_node_split(codes, np.array([0]), y,
                                   task="classification", n_classes=2)
        return split and replace(split, threshold=float(
            bins.value_thresholds(np.array([0]),
                                  np.array([split.threshold]))[0]))

    def test_separable_data(self):
        got = self.root_split(np.array([0.0, 0.1, 0.9, 1.0]),
                              np.array([0, 0, 1, 1]), 4)
        assert got is not None
        assert 0.1 < got.threshold < 0.9
        assert got.gain == pytest.approx(0.5, abs=1e-12)

    def test_threshold_is_a_bin_edge(self):
        # 6 values, 3 bins: cuts below the values at ranks 2 and 4, edges
        # 2.0 and 4.25; both tie, and the lower wins, not presort's 3.1
        values = np.array([0.0, 1.1, 2.9, 3.3, 5.2, 8.0])
        y = np.array([0, 0, 0, 1, 1, 1])
        got = self.root_split(values, y, 3)
        assert got is not None
        assert got.threshold == 2.0

    def test_constant_feature(self):
        values = np.array([2.0, 2.0, 2.0])
        codes, bins = _bin_columns(values[:, None], np.array([False]), 256)
        assert len(bins.edges) == 0 and not codes.any()
        assert self.root_split(values, np.array([0, 1, 0]), 256) is None

    def test_many_bins_matches_presort_on_spread_data(self):
        # one bin per value: the split and its threshold are presort's
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, size=200)
        y = (values > 0.37).astype(int)
        exact = ff.find_node_split(values[:, None], np.array([0]), y,
                                   task="classification", n_classes=2)
        assert self.root_split(values, y, 4096) == exact


class TestNodeSplit:
    def test_tie_breaks_to_lowest_feature_id(self):
        values = np.array([1.0, 1.0, 2.0, 2.0])
        cols = np.column_stack([values, values])
        y = np.array([0, 0, 1, 1])
        split = ff.find_node_split(cols, np.array([3, 7]), y,
                                   task="classification", n_classes=2)
        assert split.feature == 3

    def test_categorical_routes_to_presort_under_histogram(self):
        # categorical codes 0/1 keep their values under histogram, and a
        # split on them keeps presort's midpoint
        cols = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        codes, bins = _bin_columns(cols, np.array([True]), 2)
        assert np.array_equal(codes, cols)
        split = ff.find_node_split(codes, np.array([0]), y,
                                   task="classification", n_classes=2)
        assert bins.value_thresholds(np.array([0]), np.array([0.5])) == 0.5
        assert split.threshold == 0.5
        assert split.gain == pytest.approx(0.5, abs=1e-15)

    def test_boundary_into_held_rows_is_never_a_candidate(self):
        # the only split of the 1290 observed rows gains less than the tie
        # band, so the boundary between the last observed row and the
        # held ones, which gains exactly 0, lies in the band as well
        n, m = 1300, 1290
        col = np.ones((n, 1))
        col[0] = 0.0
        y = np.zeros(n, dtype=np.int64)
        y[1] = 1
        held = np.zeros((n, 1), dtype=bool)
        held[m:] = True
        split = ff.find_node_split(col, np.array([0]), y,
                                   task="classification", n_classes=2,
                                   held=held)
        assert split.threshold == 0.5
        assert split.gain == 2 / (m * (m - 1) * n) < 1e-9

    def test_mixed_groups_pick_global_best(self):
        rng = np.random.default_rng(11)
        noise = rng.normal(size=40)
        signal = np.repeat([0.0, 1.0], 20)
        y = np.repeat([0, 1], 20)
        cols = np.column_stack([noise, signal])
        split = ff.find_node_split(cols, np.array([0, 1]), y,
                                   task="classification", n_classes=2)
        assert split.feature == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_and_infinite_cells_scan(self, bad):
        cols = np.array([[0.0], [1.0], [-1.5e308], [bad]])
        split = ff.find_node_split(cols, np.array([0]), np.array([0, 1, 0, 1]),
                                   task="classification", n_classes=2)
        assert split is not None or np.isnan(bad)


# -- one scan against an oracle that enumerates every candidate ---------------

def oracle_candidates(cols, held):
    """(position, threshold, observed rows, left mask) of every candidate
    split.

    Each column offers splits of its observed rows only (held cells are
    not read): every midpoint between distinct observed values.
    """
    out = []
    for j in range(cols.shape[1]):
        obs = ~held[:, j]
        col = cols[obs, j]
        vals = np.unique(col)
        for a, c in zip(vals[:-1], vals[1:]):
            out.append((j, 0.5 * (a + c), obs, col <= a))
    return out


def exact_gain(y, go_left, task, n_classes, n):
    """The exact gain, as a Fraction, of a split of the observed rows y in
    a node of n rows: the gain on those rows, scaled by their share of
    the node."""
    m, n_left = len(y), int(go_left.sum())
    n_right = m - n_left
    if task == "classification":
        def sq(part):
            return int((np.bincount(part, minlength=n_classes) ** 2).sum())
    else:
        def sq(part):
            return int(part.sum()) ** 2  # integer-valued targets
    a, b, parent = sq(y[go_left]), sq(y[~go_left]), sq(y)
    exact = (Fraction(a, n_left) + Fraction(b, n_right)
             - Fraction(parent, m)) / m
    return exact * Fraction(m, n)


@st.composite
def tied_nodes(draw):
    n = draw(st.integers(2, 40))
    f = draw(st.integers(1, 4))
    top = draw(st.integers(1, 5))
    cols = np.array(draw(st.lists(st.integers(0, top), min_size=n * f,
                                  max_size=n * f)), dtype=np.float64)
    task = draw(st.sampled_from(["classification", "regression"]))
    n_classes = draw(st.integers(2, 4))
    if task == "classification":
        y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                   min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                   max_size=n)), dtype=np.float64)
    feat_ids = np.array(sorted(draw(st.sets(st.integers(0, 20), min_size=f,
                                            max_size=f))))
    held = None
    kind = draw(st.sampled_from(["none", "scattered", "whole column",
                                 "one observed row"]))
    if kind != "none":
        held = np.array(draw(st.lists(st.booleans(), min_size=n * f,
                                      max_size=n * f))).reshape(n, f)
        if kind != "scattered":
            j = draw(st.integers(0, f - 1))
            held[:, j] = True
            if kind == "one observed row":
                held[draw(st.integers(0, n - 1)), j] = False
    return dict(cols=cols.reshape(n, f), y=y, task=task, n_classes=n_classes,
                feat_ids=feat_ids, held=held)


class TestOneScanOracle:
    @settings(max_examples=400, deadline=None)
    @given(tied_nodes())
    # the splits at 0.5 and 1.5 have equal exact gains, and the float
    # gain at 1.5 rounds higher
    @example(dict(cols=np.array([[1.0, 1, 3, 2, 1, 0, 0, 0, 3]]).T,
                  y=np.array([1, 1, 1, 1, 0, 0, 2, 1, 1]),
                  task="classification", n_classes=3, feat_ids=np.array([0]),
                  held=None))
    # with row 1 of feature 0 held, the best splits of the two features
    # have equal exact gains (1/5), and a float gain taken on the observed
    # rows, then scaled by n_obs / n, rounds higher for feature 1
    @example(dict(cols=np.array([[6.0, 5, 4, 1, 3, 0, 2],
                                 [1.0, 0, 2, 3, 6, 4, 5]]).T,
                  y=np.array([0, 1, 2, 2, 2, 2, 1]),
                  task="classification", n_classes=3,
                  feat_ids=np.array([0, 1]),
                  held=np.array([[0, 1, 0, 0, 0, 0, 0],
                                 [0, 0, 0, 0, 0, 0, 0]], dtype=bool).T))
    def test_split_matches_enumerated_candidates(self, node):
        cols, y, task = node["cols"], node["y"], node["task"]
        K, held = node["n_classes"], node["held"]
        got = ff.find_node_split(
            cols, node["feat_ids"], y, task=task,
            n_classes=K if task == "classification" else 0, held=held)
        cands = []
        for j, thr, obs, go_left in oracle_candidates(
                cols, np.zeros(cols.shape, bool) if held is None else held):
            cands.append((j, thr, exact_gain(y[obs], go_left, task, K,
                                             len(y))))
        top = max((c[2] for c in cands), default=0)
        if top <= 0:
            assert got is None
            return
        assert got is not None
        pos = int(np.searchsorted(node["feat_ids"], got.feature))
        chosen = [c for c in cands if c[0] == pos and c[1] == got.threshold]
        assert len(chosen) == 1  # a candidate, and a node-local one
        exact = chosen[0][2]
        if task == "regression":
            assert float(exact) == pytest.approx(float(top), rel=1e-9)
            return
        # the tie rule, visiting candidates by feature, then threshold,
        # ranks each by its exact gain
        j, thr, exact = max(cands, key=lambda c: c[2])
        assert (got.feature, got.threshold, got.gain) == \
            (int(node["feat_ids"][j]), thr, float(exact))


# -- the level scan, in blocks and node by node ------------------------------

@st.composite
def classification_nodes(draw, f=None, n_classes=None):
    """Nodes on both sides of SMALL_CELLS, with many-way ties, signed
    zeros, values whose sum overflows, held columns of 0 or 1 observed
    rows and a few labels present out of up to 2000."""
    f = f or draw(st.integers(1, 5))
    n = draw(st.integers(2, 2 * splitfind.SMALL_CELLS // f + 2))
    pool = draw(st.sampled_from([
        [0.0, -0.0, 1.0, -1.0],
        [float(v) for v in range(4)],
        [0.5, 0.25, -0.0, 1e-300, 3e300, -2e300, 1.7e308, -1.7e308],
        None]))
    cell = (st.sampled_from(pool) if pool else
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    cols = np.array(draw(st.lists(cell, min_size=n * f, max_size=n * f)),
                    dtype=np.float64).reshape(n, f)
    n_classes = n_classes or draw(st.sampled_from([2, 3, 5, 2000]))
    present = draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                            max_size=4, unique=True))
    y = np.array(draw(st.lists(st.sampled_from(present), min_size=n,
                               max_size=n)), dtype=np.int64)
    held = None
    kind = draw(st.sampled_from(["none", "scattered", "whole column",
                                 "one observed row"]))
    if kind != "none":
        held = np.array(draw(st.lists(st.booleans(), min_size=n * f,
                                      max_size=n * f))).reshape(n, f)
        if kind != "scattered":
            j = draw(st.integers(0, f - 1))
            held[:, j] = True
            if kind == "one observed row":
                held[draw(st.integers(0, n - 1)), j] = False
    return dict(cols=cols, y=y, n_classes=n_classes, held=held,
                feat_ids=np.array(sorted(draw(st.sets(
                    st.integers(0, 30), min_size=f, max_size=f)))))


def split_bits(split):
    # hex tells -0.0 from 0.0, and every other pair of distinct floats
    return split and (split.feature, split.threshold.hex(), split.gain.hex())


def level_bits(splits):
    """split_bits of each node of a level's (feature, threshold, gain)
    arrays; a node with feature -1 has no split, and must hold threshold
    and gain 0.0."""
    feature, threshold, gain = splits
    assert feature.dtype == np.int64 and threshold.dtype == np.float64
    assert gain.dtype == np.float64
    assert len(feature) == len(threshold) == len(gain)
    none = feature < 0
    assert np.all(feature[none] == -1)
    assert not np.any(threshold[none]) and not np.any(gain[none])
    return [None if ft < 0 else (ft, th.hex(), g.hex()) for ft, th, g in
            zip(feature.tolist(), threshold.tolist(), gain.tolist())]


@st.composite
def classification_levels(draw, min_size=1, max_size=6):
    """(cols, feat_ids, y, starts, held, n_classes): min_size to max_size
    nodes of classification_nodes sharing their candidate count and
    classes, node after node, held None if no node holds a cell."""
    f = draw(st.integers(1, 5))
    n_classes = draw(st.sampled_from([2, 3, 5, 2000]))
    nodes = draw(st.lists(classification_nodes(f=f, n_classes=n_classes),
                          min_size=min_size, max_size=max_size))
    held = None
    if any(node["held"] is not None for node in nodes):
        held = np.concatenate([
            np.zeros(node["cols"].shape, bool) if node["held"] is None
            else node["held"] for node in nodes])
    return (np.concatenate([node["cols"] for node in nodes]),
            np.stack([node["feat_ids"] for node in nodes]),
            np.concatenate([node["y"] for node in nodes]),
            np.cumsum([0] + [len(node["y"]) for node in nodes]), held,
            n_classes)


def node_bits(level):
    """split_bits of each node of a level scanned alone by
    `find_node_split`, with its own held mask if it holds a cell."""
    cols, feat_ids, y, starts, held, K = level
    out = []
    for i, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        own = None if held is None or not held[a:b].any() else held[a:b]
        out.append(split_bits(ff.find_node_split(
            cols[a:b], feat_ids[i], y[a:b], task="classification",
            n_classes=K, held=own)))
    return out


class TestLevelScan:
    @settings(max_examples=200, deadline=None)
    @given(classification_levels())
    def test_level_scan_is_the_per_node_scan_bit_for_bit(self, level):
        self.check(level)

    @settings(max_examples=60, deadline=None)
    @given(classification_levels())
    def test_int64_segment_ids_give_the_same_splits(self, level):
        # blocks of more than _UINT16_SEGMENTS segments key them int64
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitfind, "_UINT16_SEGMENTS", 0)
            self.check(level)

    @staticmethod
    def check(level):
        cols, feat_ids, y, starts, held, K = level
        got = level_bits(splitfind.find_level_splits(
            cols, feat_ids, y, starts, n_classes=K, held=held))
        assert got == node_bits(level)


class TestSmallNodeRoute:
    @settings(max_examples=150, deadline=None)
    # levels of 1-20 nodes, about half of them small, hold both fewer
    # and more small nodes than _SMALL_LEVEL_NODES
    @given(st.integers(1, 20).flatmap(lambda k: classification_levels(k, k)))
    def test_a_busy_level_scans_its_small_nodes_in_blocks(self, level):
        # a level of only small nodes, fewer than _SMALL_LEVEL_NODES, scans
        # each alone; a busier level scans them in its blocks. Every split
        # is the node's own, bit for bit
        cols, feat_ids, y, starts, held, K = level
        got = splitfind.find_splits(cols, feat_ids, y, starts,
                                    task="classification", n_classes=K,
                                    held=held)
        assert level_bits(got) == node_bits(level)


class TestExactGain:
    """A node whose tie band holds one candidate, and at most _EXACT_ROWS
    rows, takes that candidate's exact gain as an int64 quotient, not from
    `_tie_rule`; the gain is `_tie_rule`'s, bit for bit."""

    @staticmethod
    def spied(level, exact_rows):
        """find_level_splits' splits of the level with _EXACT_ROWS set to
        exact_rows, and the candidates of each `_tie_rule` call."""
        cols, feat_ids, y, starts, held, K = level
        calls = []
        rule = splitfind._tie_rule

        def spy(cands, n):
            cands = list(cands)
            calls.append(cands)
            return rule(cands, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitfind, "_tie_rule", spy)
            mp.setattr(splitfind, "_EXACT_ROWS", exact_rows)
            got = splitfind.find_level_splits(cols, feat_ids, y, starts,
                                              n_classes=K, held=held)
        return level_bits(got), calls

    @settings(max_examples=150, deadline=None)
    @given(classification_levels())
    def test_one_candidate_gain_is_the_tie_rules(self, level):
        got, calls = self.spied(level, splitfind._EXACT_ROWS)
        want, _ = self.spied(level, 0)
        assert got == want
        # only nodes of several band candidates reach the rule
        assert all(len(cands) > 1 for cands in calls)

    @pytest.mark.parametrize("n", [13_000, 13_001])
    def test_exact_gain_at_and_above_the_row_bound(self, n):
        # about a third of the rows a class, one label in five moved to the
        # next class: the best split's num and den are near n**4 / 4, and
        # it is alone in its band
        x = np.arange(n, dtype=np.float64)
        y = ((x >= n // 3).astype(np.int64) + (x >= 2 * n // 3)) % 3
        y[::5] = (y[::5] + 1) % 3
        perm = np.random.default_rng(n).permutation(n)
        level = (x[perm, None], np.array([[0]]), y[perm], np.array([0, n]),
                 None, 3)
        (split,), calls = self.spied(level, splitfind._EXACT_ROWS)
        assert n > splitfind._EXACT_ROWS or not calls
        assert n <= splitfind._EXACT_ROWS or [len(c) for c in calls] == [1]
        _, thr_hex, gain_hex = split
        left = y[x <= float.fromhex(thr_hex)]
        right = y[x > float.fromhex(thr_hex)]
        a, b, parent = (int((np.bincount(v, minlength=3) ** 2).sum())
                        for v in (left, right, y))
        nl, nr = len(left), len(right)
        num = (a * nr + b * nl) * n - parent * nl * nr
        den = nl * nr * n * n
        assert den < 2 ** 53 and 2 ** 52 < den
        assert float.fromhex(gain_hex) == num / den
        assert gain_hex == float(splitfind._tie_rule(
            [(a, b, parent, nl, n, 0)], n)[0]).hex()


class TestMidpoint:
    """Thresholds halve each key before the sum (`splitfind._midpoint`)."""

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_midpoints_of_huge_values_do_not_overflow(self, task):
        # 0.5 * (a + b) overflows to inf here and sends every row left
        col = np.array([[1e308], [1e308], [1.5e308], [1.5e308], [1e308],
                        [1.5e308]])
        y = np.array([0, 0, 1, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = ff.find_node_split(col, np.array([0]), y, task=task,
                                       n_classes=2)
        assert split.threshold == 1.25e308

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_midpoint_is_the_old_one_where_halves_are_exact(self, u, v):
        assume(u != v)
        lo, hi = min(u, v), max(u, v)
        mid = splitfind._midpoint(lo, hi)
        assert lo <= mid <= hi
        assert mid != 0.0 or math.copysign(1.0, mid) == 1.0
        # halving is exact unless the half is subnormal, and then commutes
        # with rounding
        old = 0.5 * (lo + hi)
        exact = all(x == 0.0 or abs(x) >= 2 * sys.float_info.min
                    for x in (lo, hi))
        if exact and abs(old) < math.inf:
            assert mid == old

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (5e-324, 1e-323),
                                        (-5e-324, -0.0), (-5e-324, 0.0)])
    def test_midpoint_of_extreme_neighbours(self, lo, hi):
        # finite on the largest floats, within [lo, hi] on subnormals,
        # and 0.0 whichever zero the upper key is
        mid = splitfind._midpoint(lo, hi)
        assert lo <= mid <= hi
        assert mid != 0.0 or math.copysign(1.0, mid) == 1.0

    def test_presort_forest_splits_between_huge_values(self):
        X = np.array([[1e308], [1e308], [1.5e308], [1.5e308], [1e308],
                      [1.5e308]])
        ds = ff.Dataset.from_dense(X, target=[0.0, 0, 1, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                                  n_trees=2, seed=1))
        inner = forest.feature >= 0
        assert inner.any()
        assert np.all(forest.threshold[inner] == 1.25e308)


class TestBlockedClassCounts:
    @settings(max_examples=150, deadline=None)
    @given(classification_levels(), st.integers(1, 2000))
    def test_blocks_give_the_one_block_split(self, level, budget):
        # a level's blocks under a budget of a few bytes, down to one node
        # a block, every node scanned in a block: the splits of each node
        # scanned alone, as those of the whole level scanned as one block
        cols, feat_ids, y, starts, held, K = level
        whole = splitfind.find_level_splits(cols, feat_ids, y, starts,
                                            n_classes=K, held=held)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitfind, "_SCAN_BLOCK_BYTES", budget)
            mp.setattr(splitfind, "SMALL_CELLS", 0)
            blocked = splitfind.find_splits(cols, feat_ids, y, starts,
                                            task="classification",
                                            n_classes=K, held=held)
        assert level_bits(blocked) == level_bits(whole) == node_bits(level)

    def test_many_classes_scan_within_the_block_budget(self):
        # the root of 2000 rows with 1000 classes scans in memory that does
        # not grow with the class count: a (cells x classes) one-hot of its
        # counts would take 2000 x 3 x 1000 int64s (46 MiB)
        rng = np.random.default_rng(0)
        cols, y = rng.normal(size=(2000, 3)), rng.integers(0, 1000, 2000)
        tracemalloc.start()
        try:
            split = ff.find_node_split(cols, np.arange(3), y,
                                       task="classification", n_classes=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split is not None
        assert peak < splitfind.BLOCK_BYTES + (1 << 20)
