"""Split finding against brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forestfuse as ff


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
    def test_separable_data(self):
        got = ff.find_node_split(np.c_[[0.0, 0.1, 0.9, 1.0]], np.array([0]),
                                 np.array([0, 0, 1, 1]), task="classification",
                                 n_classes=2, strategy="histogram", n_bins=4)
        assert got is not None
        assert 0.1 < got.threshold < 0.9
        assert got.gain == pytest.approx(0.5, abs=1e-12)

    def test_threshold_is_a_bin_edge(self):
        # node range [0, 8], 4 bins -> edges at 2, 4, 6 only
        values = np.array([0.0, 1.1, 2.9, 3.3, 5.2, 8.0])
        y = np.array([0, 0, 0, 1, 1, 1])
        got = ff.find_node_split(values[:, None], np.array([0]), y,
                                 task="classification", n_classes=2,
                                 strategy="histogram", n_bins=4)
        assert got is not None
        assert got.threshold in (2.0, 4.0, 6.0)

    def test_constant_feature(self):
        assert ff.find_node_split(np.c_[[2.0, 2.0, 2.0]], np.array([0]),
                                  np.array([0, 1, 0]), task="classification",
                                  n_classes=2, strategy="histogram") is None

    def test_many_bins_matches_presort_on_spread_data(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, size=200)
        y = (values > 0.37).astype(int)
        exact = ff.find_node_split(values[:, None], np.array([0]), y,
                                   task="classification", n_classes=2)
        binned = ff.find_node_split(values[:, None], np.array([0]), y,
                                    task="classification", n_classes=2,
                                    strategy="histogram", n_bins=4096)
        assert abs(binned.threshold - exact.threshold) < 1e-2
        assert binned.gain == pytest.approx(exact.gain, abs=1e-3)


class TestNodeSplit:
    def test_tie_breaks_to_lowest_feature_id(self):
        values = np.array([1.0, 1.0, 2.0, 2.0])
        cols = np.column_stack([values, values])
        y = np.array([0, 0, 1, 1])
        split = ff.find_node_split(cols, np.array([3, 7]), y,
                                   task="classification", n_classes=2)
        assert split.feature == 3

    def test_categorical_routes_to_presort_under_histogram(self):
        # categorical codes 0/1; histogram would bin, presort enumerates
        cols = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        split = ff.find_node_split(cols, np.array([0]), y,
                                   task="classification", n_classes=2,
                                   strategy="histogram", n_bins=2,
                                   categorical=np.array([True]))
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
                                   task="classification", n_classes=2,
                                   strategy="histogram", n_bins=64,
                                   categorical=np.array([False, True]))
        assert split.feature == 1


# -- one scan against an oracle that enumerates every candidate ---------------

def oracle_candidates(cols, strategy, n_bins, categorical, held):
    """(position, threshold, observed rows, left mask, binned) of every
    candidate split.

    Each column offers splits of its observed rows only (held cells are
    not read). Binned columns (continuous under histogram) offer every
    bin edge over the observed min/max, empty bins included, with the bin
    arithmetic of the module docstring; the rest offer every midpoint
    between distinct observed values. Only the lowest threshold of each
    distinct partition is kept.
    """
    out = []
    for j in range(cols.shape[1]):
        obs = ~held[:, j]
        col = cols[obs, j]
        binned = strategy == "histogram" and not categorical[j]
        if len(col) < 2:
            continue
        if binned:
            lo = col.min()
            width = (col.max() - lo) / n_bins
            if width == 0:
                continue
            codes = np.clip(np.floor((col - lo) / width), 0, n_bins - 1)
            cuts = [(lo + width * (b + 1), codes <= b)
                    for b in range(n_bins - 1)]
        else:
            vals = np.unique(col)
            cuts = [(0.5 * (a + c), col <= a)
                    for a, c in zip(vals[:-1], vals[1:])]
        seen = set()
        for thr, go_left in cuts:
            key = go_left.tobytes()
            if go_left.any() and not go_left.all() and key not in seen:
                seen.add(key)
                out.append((j, thr, obs, go_left, binned))
    return out


def exact_gain(y, go_left, task, n_classes, n):
    """(exact gain as a Fraction, the float gain the scan computes) of a
    split of the observed rows y in a node of n rows: the gain on those
    rows, scaled by their share of the node."""
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
    return exact * Fraction(m, n), (a / n_left + b / n_right - parent / m) / n


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
    categorical = np.array(draw(st.lists(st.booleans(), min_size=f,
                                         max_size=f)))
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
                feat_ids=feat_ids, categorical=categorical, held=held,
                strategy=draw(st.sampled_from(["presort", "histogram"])),
                n_bins=draw(st.integers(2, 8)))


class TestOneScanOracle:
    @settings(max_examples=400, deadline=None)
    @given(tied_nodes())
    # the splits at 0.5 and 1.5 have equal exact gains, and the float
    # gain at 1.5 rounds higher
    @example(dict(cols=np.array([[1.0, 1, 3, 2, 1, 0, 0, 0, 3]]).T,
                  y=np.array([1, 1, 1, 1, 0, 0, 2, 1, 1]),
                  task="classification", n_classes=3, feat_ids=np.array([0]),
                  categorical=np.array([False]), held=None,
                  strategy="presort", n_bins=2))
    # with row 1 of feature 0 held, the best splits of the two features
    # have equal exact gains (1/5), and a float gain taken on the observed
    # rows, then scaled by n_obs / n, rounds higher for feature 1
    @example(dict(cols=np.array([[6.0, 5, 4, 1, 3, 0, 2],
                                 [1.0, 0, 2, 3, 6, 4, 5]]).T,
                  y=np.array([0, 1, 2, 2, 2, 2, 1]),
                  task="classification", n_classes=3,
                  feat_ids=np.array([0, 1]),
                  categorical=np.array([False, False]),
                  held=np.array([[0, 1, 0, 0, 0, 0, 0],
                                 [0, 0, 0, 0, 0, 0, 0]], dtype=bool).T,
                  strategy="presort", n_bins=2))
    def test_split_matches_enumerated_candidates(self, node):
        cols, y, task = node["cols"], node["y"], node["task"]
        K, strategy, held = node["n_classes"], node["strategy"], node["held"]
        got = ff.find_node_split(
            cols, node["feat_ids"], y, task=task,
            n_classes=K if task == "classification" else 0,
            strategy=strategy, n_bins=node["n_bins"],
            categorical=node["categorical"], held=held)
        cands = []
        for j, thr, obs, go_left, binned in oracle_candidates(
                cols, strategy, node["n_bins"], node["categorical"],
                np.zeros(cols.shape, bool) if held is None else held):
            exact, fl = exact_gain(y[obs], go_left, task, K, len(y))
            cands.append((j, thr, binned, exact, fl))
        top = max((c[3] for c in cands), default=0)
        if top <= 0:
            assert got is None
            return
        assert got is not None
        pos = int(np.searchsorted(node["feat_ids"], got.feature))
        chosen = [c for c in cands if c[0] == pos and c[1] == got.threshold]
        assert len(chosen) == 1  # a candidate, and a node-local one
        exact = chosen[0][3]
        if task == "regression":
            assert float(exact) == pytest.approx(float(top), rel=1e-9)
            return
        # the tie rule, visiting candidates by feature, then threshold: a
        # value key ranks by its exact gain, a bin key by its float gain
        best = None
        for j, thr, binned, exact, fl in cands:
            rank = fl if binned else float(exact)
            if best is None or rank > best[2]:
                best = (j, thr, rank, exact)
        j, thr, rank, exact = best
        assert (got.feature, got.threshold, got.gain) == \
            (int(node["feat_ids"][j]), thr, rank)
        assert exact == top or float(exact) == pytest.approx(float(top),
                                                             abs=1e-12)
        if strategy == "presort":
            assert exact == top and got.gain == float(top)
