"""Split finding for tree growth.

Two strategies over the candidate features of a node:

* presort: sort the node's values and score every midpoint between
  consecutive distinct values; exact argmax of the criterion gain.
* histogram: bin values into equal-width bins over the node's min/max and
  score bin edges only; O(bins) candidates per feature.

The criterion is Gini impurity decrease for classification and variance
reduction for regression, both normalized per sample in the node, so a
perfect two-way split of a balanced binary node scores gain 0.5.

Ties resolve to the lowest feature id, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# gains at or below this are treated as "no improvement"
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _scan_presorted_class(sv, sy, n_classes):
    """Score all boundaries of presorted columns for classification.

    sv, sy: (n, f) sorted values and co-sorted labels. Returns
    (scores, positions valid mask) where scores[p, j] is
    sum_c left^2/nL + sum_c right^2/nR after position p.
    """
    n = sv.shape[0]
    onehot = sy[:, :, None] == np.arange(n_classes)
    left = np.cumsum(onehot, axis=0, dtype=np.float64)
    total = left[-1]
    left = left[:-1]
    right = total[None, :, :] - left
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    scores = (left ** 2).sum(axis=2) / n_left + (right ** 2).sum(axis=2) / n_right
    parent = (total ** 2).sum(axis=1) / n
    boundary = sv[:-1] < sv[1:]
    return scores, parent, boundary, left, total


def _scan_presorted_reg(sv, sy):
    """Score boundaries for regression: sum_side n_side * mean_side^2."""
    n = sv.shape[0]
    cum = np.cumsum(sy, axis=0, dtype=np.float64)
    total = cum[-1]
    cum = cum[:-1]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    scores = cum ** 2 / n_left + (total[None, :] - cum) ** 2 / n_right
    parent = total ** 2 / n
    boundary = sv[:-1] < sv[1:]
    return scores, parent, boundary


# float gains this close to the max are re-compared exactly (classification)
_TIE_BAND = 1e-9


def _refine_class_ties(gains, left, total, sv, feat_ids, n):
    """Resolve near-tied classification splits with exact integer arithmetic.

    Class counts are integers, so candidate criteria are rationals; float
    rounding can break mathematically equal gains either way. Candidates
    within a small band of the float max are re-scored as fractions and
    the tie rule (max gain, lowest feature id, lowest threshold) applied
    exactly.
    """
    from fractions import Fraction

    gmax = gains.max()
    cand = np.argwhere(gains >= gmax - _TIE_BAND)
    parent = Fraction(int(sum(int(c) ** 2 for c in total[0])), n)
    best_key = None
    best = None
    for p, j in cand:
        n_left = int(p) + 1
        n_right = n - n_left
        a = sum(int(c) ** 2 for c in left[p, j])
        b = sum((int(tc) - int(lc)) ** 2
                for tc, lc in zip(total[j], left[p, j]))
        score = Fraction(a, n_left) + Fraction(b, n_right)
        thr = 0.5 * (sv[p, j] + sv[p + 1, j])
        key = (score, -int(feat_ids[j]), -thr)
        if best_key is None or key > best_key:
            best_key = key
            gain = Fraction(score - parent, n)
            best = Split(int(feat_ids[j]), float(thr), float(gain))
    return best


def _best_presort(cols, feat_ids, y, task, n_classes):
    n = cols.shape[0]
    order = np.argsort(cols, axis=0, kind="stable")
    sv = np.take_along_axis(cols, order, axis=0)
    sy = y[order]
    if task == "classification":
        scores, parent, boundary, left, total = _scan_presorted_class(
            sv, sy, n_classes)
    else:
        scores, parent, boundary = _scan_presorted_reg(sv, sy)
    gains = (scores - parent[None, :]) / n
    gains[~boundary] = -np.inf
    if not np.isfinite(gains.max()) or gains.max() <= GAIN_EPS:
        return None
    if task == "classification":
        return _refine_class_ties(gains, left, total, sv, feat_ids, n)
    best_pos = np.argmax(gains, axis=0)  # first max = lowest threshold
    best_gain = gains[best_pos, np.arange(cols.shape[1])]
    j = int(np.argmax(best_gain))  # first max = lowest feature id
    p = best_pos[j]
    thr = 0.5 * (sv[p, j] + sv[p + 1, j])
    return Split(int(feat_ids[j]), float(thr), float(best_gain[j]))


def _best_histogram(cols, feat_ids, y, task, n_classes, n_bins):
    n, f = cols.shape
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    width = (hi - lo) / n_bins
    live = width > 0
    if not live.any():
        return None
    safe_width = np.where(live, width, 1.0)
    bins = np.floor((cols - lo[None, :]) / safe_width[None, :]).astype(np.int64)
    np.clip(bins, 0, n_bins - 1, out=bins)

    if task == "classification":
        flat = (np.arange(f)[None, :] * (n_bins * n_classes)
                + bins * n_classes + y[:, None])
        counts = np.bincount(flat.ravel(),
                             minlength=f * n_bins * n_classes).astype(np.float64)
        counts = counts.reshape(f, n_bins, n_classes)
        cum = counts.cumsum(axis=1)
        total = cum[:, -1, :]
        left = cum[:, :-1, :]
        right = total[:, None, :] - left
        n_left = left.sum(axis=2)
        n_right = right.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = ((left ** 2).sum(axis=2) / n_left
                      + (right ** 2).sum(axis=2) / n_right)
        parent = (total ** 2).sum(axis=1) / n
    else:
        flat = np.arange(f)[None, :] * n_bins + bins
        cnt = np.bincount(flat.ravel(), minlength=f * n_bins).astype(np.float64)
        sums = np.bincount(flat.ravel(), weights=np.broadcast_to(
            y[:, None], bins.shape).ravel(), minlength=f * n_bins)
        cnt = cnt.reshape(f, n_bins).cumsum(axis=1)
        sums = sums.reshape(f, n_bins).cumsum(axis=1)
        total = sums[:, -1]
        n_left = cnt[:, :-1]
        n_right = n - n_left
        left = sums[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = left ** 2 / n_left + (total[:, None] - left) ** 2 / n_right
        parent = total ** 2 / n

    valid = (n_left > 0) & (n_right > 0) & live[:, None]
    gains = (scores - parent[:, None]) / n
    gains[~valid] = -np.inf
    best_b = np.argmax(gains, axis=1)
    best_gain = gains[np.arange(f), best_b]
    j = int(np.argmax(best_gain))
    if not np.isfinite(best_gain[j]) or best_gain[j] <= GAIN_EPS:
        return None
    thr = lo[j] + width[j] * (best_b[j] + 1)
    return Split(int(feat_ids[j]), float(thr), float(best_gain[j]))


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
        Categorical candidates are always scanned presort-style (ordered
        codes); histogram binning applies to continuous features only.
    """
    n = cols.shape[0]
    if n < 2:
        return None
    if task == "classification" and n_classes < 2:
        raise ArgumentError("classification split needs n_classes >= 2")

    if strategy == "presort" or categorical is None:
        groups = [(strategy, slice(None))]
    else:
        categorical = np.asarray(categorical, dtype=bool)
        groups = []
        if (~categorical).any():
            groups.append(("histogram", ~categorical))
        if categorical.any():
            groups.append(("presort", categorical))

    best: Split | None = None
    for strat, sel in groups:
        sub_cols = cols[:, sel]
        sub_ids = np.asarray(feat_ids)[sel]
        if sub_cols.shape[1] == 0:
            continue
        if strat == "presort":
            cand = _best_presort(sub_cols, sub_ids, y, task, n_classes)
        else:
            cand = _best_histogram(sub_cols, sub_ids, y, task, n_classes, n_bins)
        if cand is None:
            continue
        if best is None or (cand.gain, -cand.feature, -cand.threshold) > \
                (best.gain, -best.feature, -best.threshold):
            best = cand
    return best


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
