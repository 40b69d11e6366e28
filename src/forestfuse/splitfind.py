"""Split finding for tree growth.

One sorted scan per node. The node sorts every candidate column of its
(n, f) matrix with one argsort and runs one cumulative sum down the
sorted rows: of the one-hot labels in integers (classification; in
blocks that fit BLOCK_BYTES when the classes are many), or of the
targets (regression, whose float sums need the stable sort). A split may
fall only between two sorted rows whose values differ, and its threshold
is the midpoint of those two values. Under `histogram` the grower passes
each continuous feature's global bin codes in place of its values and
turns the midpoint of two codes into a value edge (`forest._bin_columns`);
the scan is the same.

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
their exact gains by integer cross-multiplication. Held cells change
nothing here: every node, masked or not, gets this one rule.

Small classification nodes take a second implementation of the same
scan. A classification node of at most SMALL_CELLS candidate cells
(n * f) is scanned in Python on lists (`_small_class_split`); regression
nodes, larger nodes and nodes holding a NaN or infinite cell take the
numpy scan above, the reference. Most nodes are small, and on them
numpy's fixed cost per call dominates (see SMALL_CELLS). Both give the
same Split, bit for bit:
* class counts are integers in both, so a, b and P are the same ints;
* every float gain is (a / nL + b / nR - P / n_obs) / n of those ints,
  the same operations in the same order, and the tie rule's exact
  re-compare is integer arithmetic and one correctly rounded quotient;
* the class counts at a boundary between two different values do not
  depend on the order of equal values, so Python's sort of (value,
  label) pairs scores the boundaries numpy's argsort scores;
* thresholds come from the same float operation, and none depends on a
  zero's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# bytes of temporaries that one block of a blocked pass may hold: the
# split scan's one-hot blocks here, and in forest.py the grower's tree
# groups, row blocks of the walk, importance cells and their ancestor
# tables, proximity blocks
BLOCK_BYTES = 8 << 20

# gains at or below this are treated as "no improvement"
GAIN_EPS = 1e-12

# float gains this close to the max are re-compared exactly (classification)
_TIE_BAND = 1e-9

# classification nodes of at most this many candidate cells (n * f) take
# the Python scan. Per call, on one round of the benchmark's classification
# nodes (Python 3.11, numpy 2.4.6, 2 shared vCPUs), the numpy scan costs
# 42-59 us at any size up to 128 cells and the Python scan 14-19 us at
# 1-16 cells, 37-47 us at 49-64 and 50-59 us at 65-96: they cross at
# 65-90 cells, and this stays at or below the crossover
SMALL_CELLS = 64


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _running_counts(labels, n_classes):
    """(n, f, K) int64: the class counts of rows 0..p of each column."""
    left = np.zeros(labels.shape + (n_classes,), dtype=np.int64)
    left.reshape(-1)[np.arange(0, left.size, n_classes) + labels.ravel()] = 1
    return left.cumsum(axis=0, out=left)


def _class_squares(y, order, n_classes, held, last):
    """(a, b, parent): sums of squared class counts, in integers.

    a[p, j] and b[p, j] sum the squared left and right class counts at
    boundary p of column j (its first p + 1 sorted rows go left), parent
    those of each column's first n_obs rows, at `last`. The counts take
    8 bytes a class and cell, and 24 more a cell for the one-hot's
    indices. A node whose counts fit BLOCK_BYTES is one block, its totals
    the counts at `last` (the block loop below, run as one block, costs
    about 4 us a call more, a twentieth of a small node's scan). A larger
    node counts its totals first and then scans blocks of columns, and of
    rows with the running counts carried between them, each within
    BLOCK_BYTES; integer counts give the same sums.
    """
    n, f = order.shape
    labels = y.take(order)
    cells = max(1, BLOCK_BYTES // (8 * (n_classes + 3)))
    if n * f <= cells:
        left = _running_counts(labels, n_classes)
        sq = np.einsum("pjk,pjk->pj", left, left)
        total = left[-1].copy() if held is None else left[last]
        # the right counts, in place
        np.subtract(total, left, out=left)
        return sq[:-1], np.einsum("pjk,pjk->pj", left, left)[:-1], sq[last]

    cell = np.arange(f) * n_classes + y[:, None]
    total = np.bincount(cell.ravel() if held is None else cell[~held],
                        minlength=f * n_classes).reshape(f, n_classes)
    sq = np.empty((n, f), dtype=np.int64)
    b = np.empty_like(sq)
    width = min(f, max(1, cells // n))
    height = min(n, max(1, cells // width))
    for j0 in range(0, f, width):
        js = slice(j0, j0 + width)
        for p0 in range(0, n, height):
            ps = slice(p0, p0 + height)
            left = _running_counts(labels[ps, js], n_classes)
            if p0:
                left += run
            run = left[-1].copy()
            np.einsum("pjk,pjk->pj", left, left, out=sq[ps, js])
            # one block lives at a time
            np.subtract(total[js], left, out=left)
            np.einsum("pjk,pjk->pj", left, left, out=b[ps, js])
            del left
    return sq[:-1], b[:-1], sq[last]


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


def _class_totals(labels):
    """({label: count}, sum of squared counts) of a list of labels."""
    total = {}
    for c in labels:
        total[c] = total.get(c, 0) + 1
    return total, sum([t * t for t in total.values()])


def _small_class_split(columns, feat_ids, labels, held):
    """The classification scan of `find_node_split` on Python lists.

    columns and held hold one list a candidate, labels one int a row.
    Each column's observed rows are sorted once as (value, label) pairs.
    The running class counts are ints in a dict; a = sum of squared left
    counts and cross = sum of left * total counts change row by row, and
    b = P - 2 * cross + a is the sum of squared right counts. Every float
    is the numpy scan's, from the same ints by the same operations in the
    same order, and only gains within _TIE_BAND of the running maximum
    are kept for the tie rule.
    """
    n = len(labels)
    if held is None:
        total, parent = _class_totals(labels)
    cands = []
    gmax = floor = -math.inf
    for j, vals in enumerate(columns):
        lab = labels
        if held is not None:
            obs = [i for i, h in enumerate(held[j]) if not h]
            vals = [vals[i] for i in obs]
            lab = [labels[i] for i in obs]
            total, parent = _class_totals(lab)
        m = len(vals)
        if m < 2:
            continue
        pairs = sorted(zip(vals, lab))
        pm = parent / m
        left = dict.fromkeys(total, 0)
        a = cross = nl = 0
        prev = pairs[0][0]
        for v, c in pairs:
            if v != prev:
                # the boundary after the first nl rows
                b = parent - 2 * cross + a
                g = (a / nl + b / (m - nl) - pm) / n
                if g >= floor:
                    cands.append((g, a, b, parent, nl, m,
                                  (j, 0.5 * (prev + v))))
                    if g > gmax:
                        gmax, floor = g, g - _TIE_BAND
                prev = v
            count = left[c]
            left[c] = count + 1
            a += count + count + 1
            cross += total[c]
            nl += 1
    if not GAIN_EPS < gmax:
        return None
    gain, (j, threshold) = _tie_rule(
        (cand[1:] for cand in cands if cand[0] >= floor), n)
    return Split(int(feat_ids[j]), float(threshold), float(gain))


def find_node_split(cols, feat_ids, y, *, task, n_classes=0,
                    held=None) -> Split | None:
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

    Class counts stay integers: left[p, j] holds the counts left of
    boundary p in column j and total[j] the column's, both over its
    n_obs[j] observed rows, and a, b and P are the sums of squared left,
    right and parent counts. The float gain (a / nL + b / nR - P / n_obs)
    / n of every boundary rounds as it would from float counts, and the
    exact gain is num / (den * n_obs * n) in integers, with den = nL * nR.
    A classification node of at most SMALL_CELLS cells computes the same
    numbers in Python (`_small_class_split`).
    """
    n, f = cols.shape
    if n < 2:
        return None
    if task == "classification" and n_classes < 2:
        raise ArgumentError("classification split needs n_classes >= 2")

    if task == "classification" and n * f <= SMALL_CELLS:
        columns = cols.T.tolist()
        # a NaN sorts unlike in numpy: a node holding one, or an infinite
        # cell, keeps the numpy scan
        if math.isfinite(sum(map(sum, columns))):
            return _small_class_split(
                columns, feat_ids, y.tolist(),
                None if held is None else held.T.tolist())
    keys = cols if held is None else np.where(held, np.inf, cols)
    # a class count at a boundary between two different keys does not
    # depend on the order of equal keys; a float target sum does
    order = keys.argsort(axis=0, kind=None if task == "classification"
                         else "stable")
    # the sorted keys; equal keys may swap only a zero's sign, which no
    # test below or threshold reads
    sk = np.sort(keys, axis=0)
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    if held is None:
        n_obs, last, n_right = n, -1, n - n_left
    else:
        # held cells sort last, so column j's totals are its running counts
        # at row n_obs[j] - 1; the clamps only touch boundaries masked below
        n_obs = np.maximum(n - np.count_nonzero(held, axis=0), 1)
        last, n_right = (n_obs - 1, np.arange(f)), np.maximum(n_obs - n_left, 1)
    if task == "classification":
        a, b, parent = _class_squares(y, order, n_classes, held, last)
        scores = a / n_left + b / n_right
    else:
        left = y.take(order).cumsum(axis=0, dtype=np.float64)
        total, left = left[last], left[:-1]
        parent = total ** 2
        scores = left ** 2 / n_left + (total - left) ** 2 / n_right
    gains = (scores - parent / n_obs) / n
    gains[sk[:-1] == sk[1:]] = -np.inf
    if held is not None:
        gains[n_left >= n_obs] = -np.inf

    if task == "classification":
        gain = gains.max()
    else:
        # the first max in column-major order: the lowest feature id, then
        # the lowest threshold
        j, p = divmod(int(gains.T.argmax()), n - 1)
        gain = gains.item(p, j)
    if not GAIN_EPS < gain < np.inf:
        return None

    if task == "classification":
        # candidates within _TIE_BAND of the float max, column by column,
        # boundary by boundary
        cand_j, cand_p = np.nonzero(gains.T >= gain - _TIE_BAND)
        gain, (p, j) = _tie_rule(
            ((a.item(pp, jj), b.item(pp, jj), parent.item(jj), pp + 1,
              n_obs if held is None else n_obs.item(jj), (pp, jj))
             for jj, pp in zip(cand_j.tolist(), cand_p.tolist())), n)
    threshold = 0.5 * (sk[p, j] + sk[p + 1, j])
    return Split(int(feat_ids[j]), float(threshold), float(gain))
