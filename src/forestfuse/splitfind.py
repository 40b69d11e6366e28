"""Split finding for tree growth.

One sorted scan per candidate column. Classification nodes are scanned
a block at a time (`find_level_splits`): one float argsort of the
block's keys and one stable argsort of their (node, candidate) segment
ids put every column's cells in key order, segment after segment, and
one integer running count a class, with a base per segment, gives every
boundary's class counts; a row of integer weight w (its draw count in
the tree's bootstrap) counts as w rows. Regression nodes sort each
column of the node with one argsort and run one cumulative sum of the
targets down the sorted rows (float sums, so the sort is stable). A
split may fall only between two sorted rows whose values differ, and
its threshold is the midpoint of those two values (`_midpoint`). Under
`histogram` the grower passes each continuous feature's global bin
codes in place of its values and turns the midpoint of two codes into a
value edge (`forest._bin_columns`); the scan is the same.

The criterion is Gini impurity decrease for classification and variance
reduction for regression, both normalized per sample in the node, so a
perfect two-way split of a balanced binary node scores gain 0.5.

Held cells: a grower that must not read some of the node's cells passes
them as a mask. A held cell keys +inf, so it sorts after its column's
n_obs observed rows and stays out of the column's running counts and
totals; only boundaries between observed rows are scored. Column j
scores (score_obs - parent_obs) / n: its gain on the observed rows,
scaled by the observed share n_obs / n of the node.

The tie rule: maximum gain, then the lowest feature id, then the lowest
threshold. Regression compares float gains. Class counts are integers,
so every classification gain is a rational, and float rounding can order
equal gains either way. The candidates within a small band of the float
maximum are therefore ranked by their exact gains: each reports its
exact gain, correctly rounded, and two that report equal gains compare
their exact gains by integer cross-multiplication. A band of one
candidate needs no ranking: the level scan divides its exact gain's
int64 numerator and denominator in float64, for all such nodes at once,
which rounds as Python's int / int does while both are below 2**53
(nodes of at most _EXACT_ROWS rows, counted by weight). Held cells
change nothing here: every node, masked or not, gets this one rule.

The grower finds a level's splits with one call (`find_splits`), which
scans the level's classification nodes in blocks of consecutive nodes
(`find_level_splits`). Regression nodes, and the nodes of a level of a
few small classification nodes (see SMALL_CELLS), are scanned one at a
time by `find_node_split`, which scans a classification node as a block
of one. The level functions return a level's splits as (feature,
threshold, gain) arrays, feature -1 where a node has none;
`find_node_split` returns one Split or None. A node's split is the same,
bit for bit, in whatever block it is scanned:
* its class counts are integers, so a, b and P are the same ints;
* every float gain is (a / nL + b / nR - P / n_obs) / n of those ints,
  the same operations in the same order, and the tie rule's exact
  re-compare is integer arithmetic and one correctly rounded quotient,
  in Python ints or in float64;
* the class counts at a boundary between two different values do not
  depend on the order of equal values, so a block's sort scores the
  boundaries a node's own sort scores;
* thresholds come from the same float operation, and none depends on a
  zero's sign;
* a row of weight w scans as w rows with its values and label: every
  boundary between two different values gets the same ints a, b, P, nL
  and n, so the same float gain, tie rule and midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# bytes of temporaries that one block of a blocked pass may hold: in
# forest.py the grower's tree groups and level-scan blocks, row blocks of
# the walk, importance cells and their ancestor tables, proximity blocks
BLOCK_BYTES = 8 << 20

# gains at or below this are treated as "no improvement"
GAIN_EPS = 1e-12

# float gains this close to the max are re-compared exactly (classification)
_TIE_BAND = 1e-9

# a classification node of at most SMALL_CELLS candidate cells (n * f) is
# small, and a level of fewer than _SMALL_LEVEL_NODES nodes, all small,
# scans each through `find_node_split` rather than in one block. That is
# no faster: with the route off, fit_dense's two trainings took 125-128 ms
# against 128-130 ms, and impute_mixed's two imputations 82-96 ms against
# 85-99 ms (min of 16 alternating calls, seeds 1-3; numpy 2.4.6, 2 shared
# vCPUs). It stays only because the benchmark's tracer test counts
# `find_node_split` calls and needs every node of its 20-row forest to
# take the route
SMALL_CELLS = 64
_SMALL_LEVEL_NODES = 8

# a node of at most this many rows, counted by weight (draws, not distinct
# rows), takes its exact gain as an int64 quotient when its tie band holds
# one candidate: its num and den are at most n**4 / 4 < 2**53
_EXACT_ROWS = 13_000

# a level scan block of at most this many (node, candidate) segments keys
# them uint16, which numpy's stable argsort sorts by radix; more take int64
_UINT16_SEGMENTS = 1 << 16

# bytes one candidate cell of a `find_level_splits` block holds at its
# peak (tracemalloc read 73-91 over 1-10 candidates, 2-20 classes, held
# cells or none), and the budget of one block of `find_splits`. On the
# levels of one fit_dense training (numpy 2.4.6, 2 shared vCPUs), blocks
# of at most 5,500, 10,900, 21,800 and 43,700 cells scanned in 66, 67, 74
# and 80 ms (medians of 15)
_SCAN_CELL_BYTES = 96
_SCAN_BLOCK_BYTES = BLOCK_BYTES // 8


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _midpoint(lo, hi):
    """The threshold between two adjacent distinct keys, floats or arrays.

    Each is halved before the sum, so no midpoint overflows. Halving is
    exact unless the half is subnormal, and then commutes with rounding,
    so this is 0.5 * (lo + hi) wherever that is finite and neither half
    is subnormal; otherwise the midpoint may fall by one ulp, never below
    lo. Adding 0.0 turns a -0.0 into 0.0, so the threshold does not
    depend on which signed zero a sort put next to lo.
    """
    return lo * 0.5 + hi * 0.5 + 0.0


def _tie_rule(cands, n):
    """(gain, key) of the best of the candidates near the float maximum.

    Each candidate is (a, b, P, nL, n_obs, key), visited by feature, then
    threshold; only a strictly better one replaces the best, which
    applies the rest of the tie rule. Each reports its exact gain
    num / den, correctly rounded, and two equal reports compare num / den
    by cross-multiplication.
    """
    best = None
    for a, b, parent, nl, m, key in cands:
        nr = m - nl
        num = (a * nr + b * nl) * m - parent * nl * nr
        den = nl * nr * m * n
        reported = num / den
        if best is None or reported > best[0] or (
                reported == best[0] and num * best[2] > best[1] * den):
            best = (reported, num, den, key)
    return best[0], best[3]


def find_level_splits(cols, feat_ids, y, starts, *, n_classes, held=None,
                      weights=None):
    """Best split of each node of a block of classification nodes.

    Parameters
    ----------
    cols : (N, f) float array
        The candidate values (or global bin codes) of every node's rows,
        node after node: node i holds rows starts[i]:starts[i + 1].
    feat_ids : (nodes, f) int array
        Each node's original feature ids, ascending along each row.
    y : (N,) int array
        Class labels, below n_classes.
    starts : (nodes + 1,) int array
        Row offsets, from 0 to N, strictly increasing.
    held : optional (N, f) bool array
        Cells the splits must not read (held cells, module docstring).
    weights : optional (N,) int array
        Each row's weight, at least 1 (None: 1): a row of weight w counts
        as w rows with its values and label.

    Returns
    -------
    feature, threshold, gain : (nodes,) int64, float and float arrays
        Each node's split, bit for bit the one it gets in any other block
        (module docstring); feature is -1, and threshold and gain 0.0,
        where it has none.

    Segment s = node * f + j holds column j of a node. One float argsort
    of all keys, then a stable argsort of the segment ids in that order
    (uint16 ids, which numpy sorts by radix, while the block has at most
    65536 segments), list each segment's cells in key order, segment
    after segment. One integer cumulative sum of the sorted weights, less
    its value before each segment's first cell, is nL at every boundary,
    and its value at the segment's last observed row the column's n_obs;
    per class present, the same sum of its cells' weights is its left
    count, and at that row its total; the last class present takes the
    rest. a and b sum the squared left and right counts and P the squared
    totals, and every boundary's float gain is
    (a / nL + b / max(n_obs - nL, 1) - P / n_obs) / n, n the node's
    weight. Each node's float maximum comes from one `maximum.reduceat`.
    A node with one candidate within _TIE_BAND of it and n <= _EXACT_ROWS
    takes that candidate's exact gain as one int64 quotient, with the
    other such nodes; `_tie_rule` runs once a node over every other band.
    """
    n_rows, f = cols.shape
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.diff(starts)
    n_seg = len(sizes) * f
    weights = np.ones(n_rows, np.int64) if weights is None else weights
    n = np.add.reduceat(weights, starts[:-1])
    keys = cols if held is None else np.where(held, np.inf, cols)
    # each cell's segment, node * f + j
    ids = np.uint16 if n_seg <= _UINT16_SEGMENTS else np.int64
    seg = (np.repeat(np.arange(0, n_seg, f, dtype=ids), sizes)[:, None]
           + np.arange(f, dtype=ids))
    order = keys.argsort(axis=None)
    order = order.take(seg.take(order).argsort(kind="stable"))
    del seg
    sk = keys.take(order)
    order //= f
    lab, ws = y.take(order), weights.take(order)
    del order

    # each segment's rows and first cell, the cell at its last observed
    # row (the first for a column held whole, whose boundaries are all
    # masked below) and every cell's segment
    seg_len = np.repeat(sizes, f)
    first = np.cumsum(seg_len) - seg_len
    last = first - 1 + (seg_len if held is None else np.maximum(
        seg_len - np.add.reduceat(held, starts[:-1], axis=0,
                                  dtype=np.int64).ravel(), 1))
    of_seg = np.repeat(np.arange(n_seg), seg_len)
    # the weight left of each cell's boundary, itself included, and the
    # n_obs observed weight of each segment
    n_left = np.cumsum(ws, dtype=np.int64)
    n_left -= (n_left.take(first) - ws.take(first)).take(of_seg)
    n_obs = n_left.take(last)

    a = np.zeros(n_rows * f, dtype=np.int64)
    b = np.zeros_like(a)
    rest = n_left.copy()
    present = np.flatnonzero(np.bincount(y, minlength=n_classes)).tolist()
    for k in present:
        if k == present[-1]:
            left = rest
        else:
            is_k = np.where(lab == k, ws, 0)
            left = np.cumsum(is_k, dtype=np.int64)
            left -= (left.take(first) - is_k.take(first)).take(of_seg)
            rest -= left
        a += left * left
        left -= left.take(last).take(of_seg)
        b += left * left
    del lab, ws, rest, left
    parent = a.take(last)

    # the observed weight right of each boundary; none at a boundary past
    # the observed rows, which is masked
    n_right = n_obs.take(of_seg) - n_left
    past = n_right <= 0
    gains = a / n_left
    gains += b / np.maximum(n_right, 1, out=n_right)
    gains -= (parent / n_obs).take(of_seg)
    gains /= np.repeat(n, sizes * f)
    gains[past] = -np.inf
    gains[:-1][sk[:-1] == sk[1:]] = -np.inf

    best = np.maximum.reduceat(gains, starts[:-1] * f)
    found = (GAIN_EPS < best) & (best < np.inf)
    floor = np.where(found, best - _TIE_BAND, np.inf)
    # candidates within _TIE_BAND of their node's maximum, segment by
    # segment, boundary by boundary: by feature, then threshold
    cand = np.flatnonzero(gains >= np.repeat(floor, sizes * f))
    in_band = np.diff(np.searchsorted(cand, starts * f))
    feature = np.full(len(sizes), -1, dtype=np.int64)
    threshold, gain = np.zeros(len(sizes)), np.zeros(len(sizes))
    at = np.zeros(len(sizes), dtype=np.int64)
    # a node whose band holds one candidate takes its exact gain num / den
    # (`_tie_rule`) as an int64 quotient, correctly rounded while both
    # are below 2**53 (_EXACT_ROWS)
    one = found & (in_band == 1) & (n <= _EXACT_ROWS)
    c = cand[np.repeat(one, in_band)]
    nl, m = n_left.take(c), n_obs.take(of_seg.take(c))
    nr = m - nl
    num = (a.take(c) * nr + b.take(c) * nl) * m - parent.take(
        of_seg.take(c)) * nl * nr
    gain[one] = num / (nl * nr * m * n[one])
    at[one] = c
    # every other node with a split ranks its band by `_tie_rule`
    many = found & ~one
    if many.any():
        c = cand[np.repeat(many, in_band)]
        seg = of_seg.take(c)
        rows = list(zip(a.take(c).tolist(), b.take(c).tolist(),
                        parent.take(seg).tolist(), n_left.take(c).tolist(),
                        n_obs.take(seg).tolist(), c.tolist()))
        cuts = np.cumsum(in_band[many]).tolist()
        gain[many], at[many] = zip(*[
            _tie_rule(rows[u:v], n) for u, v, n in
            zip([0] + cuts, cuts, n[many].tolist())])
    at = at[found]
    feature[found] = feat_ids.take(of_seg.take(at))
    threshold[found] = _midpoint(sk.take(at), sk.take(at + 1))
    return feature, threshold, gain


def find_node_split(cols, feat_ids, y, *, task, n_classes=0,
                    held=None, weights=None) -> Split | None:
    """Best split over the node's candidate features, or None.

    Parameters
    ----------
    cols : (n, f) float array
        Candidate feature values (or global bin codes) for the node's
        samples.
    feat_ids : (f,) int array
        Original feature ids, ascending (the tie rule depends on it).
    y : (n,) array
        Integer class labels or float targets for the node's samples.
    task : {"classification", "regression"}
    held : optional (n, f) bool array
        Cells the split must not read (see held cells in the module
        docstring). A column with fewer than 2 observed rows offers none.
    weights : optional (n,) int array
        Each sample's weight (`find_level_splits`); classification only.

    A classification node is scanned as a block of one node
    (`find_level_splits`). A regression node sums its targets down each
    sorted column: left[p, j] over the rows left of boundary p of column
    j, total[j] over its n_obs[j] observed rows, and the gain is the
    float (left^2 / nL + (total - left)^2 / nR - total^2 / n_obs) / n.
    The tests check both scans against an enumeration of every candidate
    split's exact gain (`TestOneScanOracle`).
    """
    n, f = cols.shape
    if n < 2:
        return None
    if task == "classification":
        if n_classes < 2:
            raise ArgumentError("classification split needs n_classes >= 2")
        (feature,), (threshold,), (gain,) = find_level_splits(
            cols, np.asarray(feat_ids)[None], y, np.array([0, n]),
            n_classes=n_classes, held=held, weights=weights)
        return None if feature < 0 else Split(int(feature), float(threshold),
                                              float(gain))
    if weights is not None:
        raise ArgumentError("regression splits take no weights")

    keys = cols if held is None else np.where(held, np.inf, cols)
    # a float target sum depends on the order of equal keys
    order = keys.argsort(axis=0, kind="stable")
    sk = keys[order, np.arange(f)]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    if held is None:
        n_obs, last, n_right = n, -1, n - n_left
    else:
        # held cells sort last, so column j's totals are its running sums
        # at row n_obs[j] - 1; the clamps only touch boundaries masked below
        n_obs = np.maximum(n - np.count_nonzero(held, axis=0), 1)
        last, n_right = (n_obs - 1, np.arange(f)), np.maximum(n_obs - n_left, 1)
    left = y.take(order).cumsum(axis=0, dtype=np.float64)
    total, left = left[last], left[:-1]
    gains = ((left ** 2 / n_left + (total - left) ** 2 / n_right
              - total ** 2 / n_obs) / n)
    gains[sk[:-1] == sk[1:]] = -np.inf
    if held is not None:
        gains[n_left >= n_obs] = -np.inf
    # the first max in column-major order: the lowest feature id, then the
    # lowest threshold
    j, p = divmod(int(gains.T.argmax()), n - 1)
    gain = gains.item(p, j)
    if not GAIN_EPS < gain < np.inf:
        return None
    return Split(int(feat_ids[j]), float(_midpoint(sk[p, j], sk[p + 1, j])),
                 float(gain))


def find_splits(cols, feat_ids, y, starts, *, task, n_classes=0,
                held=None, weights=None):
    """Best split of each node of a growth level, as `find_level_splits`
    returns them: (feature, threshold, gain) arrays, feature -1 where a
    node has no split.

    Node i holds rows starts[i]:starts[i + 1] of cols, y, held and
    weights (as in `find_level_splits`) and has the candidate features
    feat_ids[i]. A classification level is scanned in blocks
    (`find_level_splits`): slices of consecutive nodes whose cells take at
    most _SCAN_BLOCK_BYTES, a larger node a block alone. A regression level,
    and a level of fewer than _SMALL_LEVEL_NODES nodes of at most
    SMALL_CELLS cells each, is scanned node by node (`find_node_split`).
    A node or block with no held cell scans unmasked.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.diff(starts)
    cells = sizes * feat_ids.shape[1]
    if held is not None:
        any_held = np.logical_or.reduceat(held.any(axis=1), starts[:-1])
    bounds = starts.tolist()
    feature = np.full(len(sizes), -1, dtype=np.int64)
    threshold, gain = np.zeros(len(sizes)), np.zeros(len(sizes))
    if task == "regression" or (len(sizes) < _SMALL_LEVEL_NODES
                                and (cells <= SMALL_CELLS).all()):
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            sp = find_node_split(
                cols[a:b], feat_ids[i], y[a:b], task=task,
                n_classes=n_classes,
                held=held[a:b] if held is not None and any_held[i] else None,
                weights=None if weights is None else weights[a:b])
            if sp:
                feature[i], threshold[i], gain[i] = (sp.feature, sp.threshold,
                                                     sp.gain)
        return feature, threshold, gain
    first, used, blocks = 0, 0, []
    for i, c in enumerate(cells.tolist()):
        if i > first and (used + c) * _SCAN_CELL_BYTES > _SCAN_BLOCK_BYTES:
            blocks.append((first, i))
            first, used = i, 0
        used += c
    blocks.append((first, len(sizes)))
    for u, v in blocks:
        a, b = bounds[u], bounds[v]
        mask = None if held is None or not any_held[u:v].any() else held[a:b]
        feature[u:v], threshold[u:v], gain[u:v] = find_level_splits(
            cols[a:b], feat_ids[u:v], y[a:b], starts[u:v + 1] - a,
            n_classes=n_classes, held=mask,
            weights=None if weights is None else weights[a:b])
    return feature, threshold, gain
