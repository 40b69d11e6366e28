"""Split finding for tree growth.

One sorted scan per node serves both strategies. The node turns its
candidate columns into one (n, f) matrix of sort keys, sorts every column
with one argsort and runs one cumulative sum down the sorted rows: of the
one-hot labels in integers (classification; in blocks that fit
BLOCK_BYTES when the classes are many), or of the targets (regression,
whose float sums need the stable sort). A split may fall
only between two sorted rows whose keys differ. Keys come in two kinds:

* value keys, the raw values: every candidate under `presort`, and the
  categorical candidates (ordered codes) under `histogram`. A split's
  threshold is the midpoint of the two values it falls between.
* bin keys, for continuous candidates under `histogram`: each value's
  equal-width bin code over the node's min/max, n_bins bins. A split
  after bin b has the bin edge lo + width * (b + 1) as its threshold.

Only occupied bins are scored. An empty bin adds no row to the running
counts, so the edges of a run of empty bins all give the partition, and
the score, of the edge right after the occupied bin below them; that edge
is the run's lowest threshold, the one the tie rule picks.

The criterion is Gini impurity decrease for classification and variance
reduction for regression, both normalized per sample in the node, so a
perfect two-way split of a balanced binary node scores gain 0.5.

Held cells: a grower that must not read some of the node's cells passes
them as a mask. A held cell keys +inf, so it sorts after its column's
n_obs observed rows and stays out of the column's running counts and
totals; only boundaries between observed rows are scored. Column j
scores (score_obs - parent_obs) / n: its gain on the observed rows,
scaled by the observed share n_obs / n of the node. A binned column
takes its min/max over the observed values only.

The tie rule: maximum gain, then the lowest feature id, then the lowest
threshold (the lowest midpoint, or the lowest edge). Regression compares
float gains. Class counts are integers, so every classification gain is
a rational, and float rounding can order equal gains either way. The
candidates within a small band of the float maximum are therefore ranked
by the gain each reports. A value key reports its exact gain, correctly
rounded, and two value keys that report equal gains compare their exact
gains by integer cross-multiplication. A bin key reports the float gain
of its edge, whose threshold is an approximation already. Held cells
change nothing here: every node, masked or not, gets this one rule.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _sort_keys(cols, binned, n_bins, held):
    """(keys, lo, width): bin codes replace the binned columns' values,
    and held cells key +inf."""
    keys, lo, width = cols, None, None
    if binned is not None:
        lo = (cols if held is None else np.where(held, np.inf, cols)).min(0)
        hi = (cols if held is None else np.where(held, -np.inf, cols)).max(0)
        width = (hi - lo) / n_bins
        # observed values are >= lo: codes start at 0, all 0 if constant
        codes = np.minimum(
            np.floor((cols - lo) / np.where(width > 0, width, 1.0)),
            n_bins - 1)
        keys = np.where(binned, codes, cols)
    return keys if held is None else np.where(held, np.inf, keys), lo, width


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


def find_node_split(cols, feat_ids, y, *, task, n_classes=0,
                    strategy="presort", n_bins=256, categorical=None,
                    held=None) -> Split | None:
    """Best split over the node's candidate features, or None.

    Parameters
    ----------
    cols : (n, f) float array
        Candidate feature values for the node's samples.
    feat_ids : (f,) int array
        Original feature ids, ascending (the tie rule depends on it).
    y : (n,) array
        Integer class labels or float targets for the node's samples.
    task : {"classification", "regression"}
    categorical : optional (f,) bool array
        Categorical candidates keep value keys (ordered codes) under
        histogram; only continuous candidates are binned.
    held : optional (n, f) bool array
        Cells the split must not read (see held cells in the module
        docstring). A column with fewer than 2 observed rows offers none.

    Class counts stay integers: left[p, j] holds the counts left of
    boundary p in column j and total[j] the column's, both over its
    n_obs[j] observed rows, and a, b and P are the sums of squared left,
    right and parent counts. The float gain (a / nL + b / nR - P / n_obs)
    / n of every boundary rounds as it would from float counts, and a
    value key's exact gain is num / (den * n_obs * n) in integers, with
    den = nL * nR.
    """
    n, f = cols.shape
    if n < 2:
        return None
    if task == "classification" and n_classes < 2:
        raise ArgumentError("classification split needs n_classes >= 2")

    binned = None
    if strategy == "histogram":
        binned = (np.ones(f, dtype=bool) if categorical is None
                  else ~np.asarray(categorical, dtype=bool))
        if not binned.any():
            binned = None
    keys, lo, width = _sort_keys(cols, binned, n_bins, held)
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
        # boundary by boundary; only a strictly better one replaces the
        # best, which applies the rest of the tie rule
        best = None
        cand_j, cand_p = np.nonzero(gains.T >= gain - _TIE_BAND)
        for jj, pp in zip(cand_j.tolist(), cand_p.tolist()):
            reported, exact = gains.item(pp, jj), None
            if binned is None or not binned[jj]:
                m = n_obs if held is None else n_obs.item(jj)
                nl = pp + 1
                nr = m - nl
                num = ((a.item(pp, jj) * nr + b.item(pp, jj) * nl) * m
                       - parent.item(jj) * nl * nr)
                exact = (num, nl * nr * m * n)
                reported = num / exact[1]
            if best is None or reported > best[0] or (
                    reported == best[0] and exact and best[1]
                    and exact[0] * best[1][1] > best[1][0] * exact[1]):
                best = (reported, exact, pp, jj)
        gain, _, p, j = best
    if binned is not None and binned[j]:
        threshold = lo[j] + width[j] * (sk[p, j] + 1)
    else:
        threshold = 0.5 * (sk[p, j] + sk[p + 1, j])
    return Split(int(feat_ids[j]), float(threshold), float(gain))
