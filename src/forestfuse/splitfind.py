"""Split finding for tree growth.

One sorted scan per node serves both strategies. The node turns its
candidate columns into one (n, f) matrix of sort keys, sorts every column
with one stable argsort and runs one class-count (classification) or
target (regression) cumulative sum down the sorted rows. A split may fall
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

The tie rule: maximum gain, then the lowest feature id, then the lowest
threshold (the lowest midpoint, or the lowest edge). Regression compares
float gains. Class counts are integers, so every classification score is
a rational, and float rounding can order equal gains either way. The
candidates within a small band of the float maximum are therefore ranked
by the gain each reports. A value key reports its exact gain, correctly
rounded, and two value keys that report equal gains compare their exact
scores by integer cross-multiplication. A bin key reports the float gain
of its edge, whose threshold is an approximation already.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# gains at or below this are treated as "no improvement"
GAIN_EPS = 1e-12

# float gains this close to the max are re-compared exactly (classification)
_TIE_BAND = 1e-9


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _sort_keys(cols, binned, n_bins):
    """(keys, lo, width): bin codes replace the binned columns' values."""
    if not binned.any():
        return cols, None, None
    lo = cols.min(axis=0)
    width = (cols.max(axis=0) - lo) / n_bins
    # values are >= lo, so codes start at 0; a constant column is all 0
    codes = np.minimum(
        np.floor((cols - lo) / np.where(width > 0, width, 1.0)), n_bins - 1)
    return np.where(binned, codes, cols), lo, width


def _refine_class_ties(gains, gmax, left, total, binned, n):
    """(p, j, gain) of the best classification candidate.

    left[p, j] holds the class counts left of boundary p in column j and
    total[j] the node's. Candidates within _TIE_BAND of the float max are
    ranked by the gain they report. A value key reports its exact gain,
    correctly rounded: with a, b the sums of squared left and right
    counts, its score a / nL + b / nR is the integer ratio num / den. A
    bin key reports its float gain. Equal reported gains of two value
    keys go to the higher exact score, compared by integer
    cross-multiplication. Candidates are visited column by column,
    boundary by boundary, and only a strictly better one replaces the
    best, which applies the rest of the tie rule.
    """
    j, p = np.nonzero(gains.T >= gmax - _TIE_BAND)
    lc = left[p, j]
    a = (lc ** 2).sum(axis=1).tolist()
    b = ((total[j] - lc) ** 2).sum(axis=1).tolist()
    parent = int((total[0] ** 2).sum())
    binned = binned.tolist()
    best = None
    for jj, pp, aa, bb, gain in zip(j.tolist(), p.tolist(), a, b,
                                    gains[p, j].tolist()):
        exact = None
        if not binned[jj]:
            n_left = pp + 1
            n_right = n - n_left
            num, den = int(aa) * n_right + int(bb) * n_left, n_left * n_right
            exact = (num, den)
            gain = (num * n - parent * den) / (den * n * n)
        if best is None or gain > best[0] or (
                gain == best[0] and exact and best[1]
                and exact[0] * best[1][1] > best[1][0] * exact[1]):
            best = (gain, exact, pp, jj)
    gain, _, p, j = best
    return p, j, gain


def find_node_split(cols, feat_ids, y, *, task, n_classes=0,
                    strategy="presort", n_bins=256,
                    categorical=None) -> Split | None:
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
    """
    n, f = cols.shape
    if n < 2:
        return None
    if task == "classification" and n_classes < 2:
        raise ArgumentError("classification split needs n_classes >= 2")

    binned = np.full(f, strategy == "histogram")
    if categorical is not None:
        binned &= ~np.asarray(categorical, dtype=bool)
    keys, lo, width = _sort_keys(cols, binned, n_bins)
    order = np.argsort(keys, axis=0, kind="stable")
    sk = keys[order, np.arange(f)]
    sy = y[order]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    if task == "classification":
        left = np.cumsum(sy[:, :, None] == np.arange(n_classes), axis=0,
                         dtype=np.float64)
        total = left[-1]
        left = left[:-1]
        scores = ((left ** 2).sum(axis=2) / n_left
                  + ((total - left) ** 2).sum(axis=2) / n_right)
        parent = (total ** 2).sum(axis=1) / n
    else:
        cum = np.cumsum(sy, axis=0, dtype=np.float64)
        total = cum[-1]
        cum = cum[:-1]
        scores = cum ** 2 / n_left + (total - cum) ** 2 / n_right
        parent = total ** 2 / n
    gains = (scores - parent) / n
    gains[sk[:-1] == sk[1:]] = -np.inf
    gmax = gains.max()
    if not np.isfinite(gmax) or gmax <= GAIN_EPS:
        return None

    if task == "classification":
        p, j, gain = _refine_class_ties(gains, gmax, left, total, binned, n)
    else:
        best_pos = np.argmax(gains, axis=0)  # first max = lowest threshold
        j = int(np.argmax(gains[best_pos, np.arange(f)]))  # lowest feature id
        p = best_pos[j]
        gain = gains[p, j]
    if binned[j]:
        threshold = lo[j] + width[j] * (sk[p, j] + 1)
    else:
        threshold = 0.5 * (sk[p, j] + sk[p + 1, j])
    return Split(int(feat_ids[j]), float(threshold), float(gain))


def best_split(values, y, *, task="classification", n_classes=None,
               strategy="presort", n_bins=256):
    """Best threshold for a single feature column at a node.

    Returns ``(threshold, gain)`` or None when no split improves the
    criterion (constant feature, pure node, degenerate input).
    """
    values = np.asarray(values, dtype=np.float64)
    if task == "classification":
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1 if y.size else 0
    else:
        y = np.asarray(y, dtype=np.float64)
        n_classes = 0
    split = find_node_split(values[:, None], np.array([0]), y, task=task,
                            n_classes=n_classes, strategy=strategy,
                            n_bins=n_bins)
    if split is None:
        return None
    return split.threshold, split.gain
