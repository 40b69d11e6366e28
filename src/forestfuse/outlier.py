"""Breiman-Cutler outlier scores.

A sample far from its own class in proximity space has a small sum of
squared within-class proximities, hence a large raw measure
N_j / sum(prox^2). Scores are the raw measures centered by the class
median and scaled by the class MAD (plain median absolute deviation, no
consistency factor), so each class's score median is 0 by construction.

Co-occurrence measures tie often, and when a bare majority of a class
shares one raw value its MAD is 0 although the raws differ. Such a class
is scaled instead by the mean absolute deviation from its median, taken
over its finite raws. Its members carry the ``degenerate_mad`` flag, and
`class_mad` still reports the true MAD (0). Only a class whose finite raws
are all equal, or whose median is infinite, scores 0 throughout; it is
flagged too.

Exact mode consumes a full proximity matrix; greedy mode approximates the
squared-proximity mass from the leaf index using only each sample's
top co-occurring classmates, trading a controlled underestimate of the
mass for never touching anything quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ClassSizeError
from .forest import Forest
from .proximity import LeafIndex, ProximityMatrix

FLAG_INF_RAW = "inf_raw"
FLAG_DEGENERATE_MAD = "degenerate_mad"

DEFAULT_GREEDY_CAP = 256


@dataclass
class OutlierReport:
    raw: np.ndarray
    score: np.ndarray
    class_of: np.ndarray
    class_ids: np.ndarray
    class_median: np.ndarray
    class_mad: np.ndarray
    flags: list[tuple[str, ...]]
    mode: str
    greedy_m: int | None = None


def _check_classes(classes, n) -> np.ndarray:
    classes = np.asarray(classes, dtype=np.int64)
    if classes.shape != (n,):
        raise ArgumentError(f"classes must assign all {n} samples")
    for c in np.unique(classes):
        if np.sum(classes == c) < 2:
            raise ClassSizeError(
                f"class {c} has fewer than 2 members; outlier scores "
                "need N_j >= 2")
    return classes


def _normalize(raw: np.ndarray, classes: np.ndarray):
    """MAD-normalize raw measures within each class.

    A class with MAD 0 is scaled by the mean absolute deviation of its
    finite raws from the median and flagged ``degenerate_mad``; it scores
    0 only when that deviation is 0 too. A class with an infinite median
    has no finite centre: it scores 0 and is flagged.
    """
    n = len(raw)
    score = np.zeros(n, dtype=np.float64)
    class_ids = np.unique(classes)
    medians = np.empty(len(class_ids))
    mads = np.empty(len(class_ids))
    flags: list[set] = [set() for _ in range(n)]
    for ci, c in enumerate(class_ids):
        members = np.flatnonzero(classes == c)
        vals = raw[members]
        med = float(np.median(vals))
        mad = float(np.median(np.abs(vals - med))) if np.isfinite(med) \
            else np.nan
        medians[ci] = med
        mads[ci] = mad
        if mad > 0.0:
            score[members] = (vals - med) / mad
            continue
        for i in members:
            flags[i].add(FLAG_DEGENERATE_MAD)
        if mad == 0.0:
            # a bare majority ties at the median; the rest may still differ
            finite = vals[np.isfinite(vals)]
            scale = float(np.mean(np.abs(finite - med)))
            if scale > 0.0:
                score[members] = (vals - med) / scale
        # otherwise all finite raws are equal or the median is inf: score 0
    for i in np.flatnonzero(np.isinf(raw)):
        flags[i].add(FLAG_INF_RAW)
    return score, class_ids, medians, mads, [tuple(sorted(f)) for f in flags]


def outlier_exact(prox: ProximityMatrix | np.ndarray, classes) -> OutlierReport:
    """Exact per-sample outlier measures from a full proximity matrix.

    raw_n = N_j / sum over same-class m != n of prox(n, m)^2; a sample
    with zero within-class proximity mass gets +inf and an ``inf_raw``
    flag. Every class must have at least 2 members.
    """
    values = prox.values if isinstance(prox, ProximityMatrix) else np.asarray(prox)
    n = values.shape[0]
    if values.shape != (n, n):
        raise ArgumentError("proximity matrix must be square")
    classes = _check_classes(classes, n)

    raw = np.empty(n, dtype=np.float64)
    for c in np.unique(classes):
        members = np.flatnonzero(classes == c)
        nj = len(members)
        for i in members:
            mass = float((values[i, members[members != i]] ** 2).sum())
            raw[i] = nj / mass if mass > 0 else np.inf
    score, class_ids, medians, mads, flags = _normalize(raw, classes)
    return OutlierReport(raw, score, classes, class_ids, medians, mads,
                         flags, mode="exact")


def outlier_greedy(index: LeafIndex, forest: Forest, classes,
                   m_cap: int = DEFAULT_GREEDY_CAP) -> OutlierReport:
    """Greedy approximation: keep only each sample's strongest classmates.

    Co-occurrence counts come from the leaf index; only the m_cap
    classmates with the highest counts contribute to the squared-
    proximity mass. m_cap >= N_j - 1 reproduces the exact measures.
    """
    if m_cap < 1:
        raise ArgumentError("m_cap must be >= 1")
    n = index.n_rows
    classes = _check_classes(classes, n)
    T = forest.n_trees

    raw = np.empty(n, dtype=np.float64)
    members_of = {c: np.flatnonzero(classes == c) for c in np.unique(classes)}
    for i in range(n):
        counts = index.counts(forest.leaf_of_train[i])
        members = members_of[int(classes[i])]
        mates = members[members != i]
        if len(mates) > m_cap:
            order = np.lexsort((mates, -counts[mates]))[:m_cap]
            mates = np.sort(mates[order])
        mass = float((((counts[mates]) / T) ** 2).sum())
        raw[i] = len(members) / mass if mass > 0 else np.inf
    score, class_ids, medians, mads, flags = _normalize(raw, classes)
    return OutlierReport(raw, score, classes, class_ids, medians, mads,
                         flags, mode="greedy", greedy_m=m_cap)
