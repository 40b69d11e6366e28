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

Both modes read each class's proximities to its own members a block of
rows at a time: from a Forest's co-occurrence counts, with every block's
temporaries under a byte budget, or from a given matrix; neither holds an
n x n array. Exact mode sums each row's squared proximities to all its
classmates; greedy mode keeps only each sample's m_cap strongest
classmates (Breiman and Cutler's nrnn rule), trading a controlled
underestimate of the mass for a sum of at most m_cap terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import distinct_counts, median
from .errors import ArgumentError, ClassSizeError
from .forest import Forest
from .proximity import (DEFAULT_BLOCK_BYTES, ProximityMatrix, matrix_rows,
                        nearest_columns, nearness_key, proximity_rows)

FLAG_INF_RAW = "inf_raw"
FLAG_DEGENERATE_MAD = "degenerate_mad"

DEFAULT_GREEDY_CAP = 256

# per-cell bytes built from a block of classmate proximities: the self
# mask, the block without self, and its float64 squares
_EXACT_CELL_BYTES = 1 + 8 + 8
# greedy may build a ranking key, partitioned in place, and the kept
# keys' decoded columns; an upper bound
_GREEDY_CELL_BYTES = _EXACT_CELL_BYTES + 8 + 8


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
    ids, sizes = distinct_counts(classes)
    if (sizes < 2).any():
        raise ClassSizeError(
            f"class {ids[np.argmax(sizes < 2)]} has fewer than 2 members; "
            "outlier scores need N_j >= 2")
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
    class_ids = distinct_counts(classes)[0]
    medians = np.empty(len(class_ids))
    mads = np.empty(len(class_ids))
    flags: list[set] = [set() for _ in range(n)]
    for ci, c in enumerate(class_ids):
        members = np.flatnonzero(classes == c)
        vals = raw[members]
        med = median(vals)
        mad = median(np.abs(vals - med)) if np.isfinite(med) else np.nan
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


def _classmate_blocks(prox, classes, cell_bytes):
    """Yield (members, rows, values, scale) per class and block of its rows.

    members are the class's rows, ascending; values[r, j] / scale is the
    proximity of rows[r] to members[j], its own column included.
    """
    for c in distinct_counts(classes)[0]:
        members = np.flatnonzero(classes == c)
        for block, values, scale in proximity_rows(
                prox, members, members, max_bytes=DEFAULT_BLOCK_BYTES,
                cell_bytes=cell_bytes):
            yield members, block, values, scale


def _without_self(members, rows, values):
    """Each row's proximities to its classmates except itself, by id."""
    return values[members != rows[:, None]].reshape(len(rows), -1)


def _raw_from_mass(raw, rows, nj, mates, scale):
    """raw[rows] = N_j / sum of squared proximities, +inf at zero mass.

    The squares are summed along each row in ascending id order, the same
    pairwise summation as one row at a time.
    """
    sq = np.divide(mates, scale)
    np.square(sq, out=sq)
    mass = sq.sum(axis=1)
    raw[rows] = np.inf
    found = mass > 0
    raw[rows[found]] = nj / mass[found]


def outlier_exact(prox: ProximityMatrix | np.ndarray | Forest, classes
                  ) -> OutlierReport:
    """Exact per-sample outlier measures.

    raw_n = N_j / sum over same-class m != n of prox(n, m)^2; a sample
    with zero within-class proximity mass gets +inf and an ``inf_raw``
    flag. Every class must have at least 2 members. `prox` is a Forest,
    read by co-occurrence blocks, or a proximity matrix.
    """
    n = matrix_rows(prox)
    classes = _check_classes(classes, n)
    raw = np.empty(n, dtype=np.float64)
    for members, rows, values, scale in _classmate_blocks(
            prox, classes, _EXACT_CELL_BYTES):
        _raw_from_mass(raw, rows, len(members),
                       _without_self(members, rows, values), scale)
    score, class_ids, medians, mads, flags = _normalize(raw, classes)
    return OutlierReport(raw, score, classes, class_ids, medians, mads,
                         flags, mode="exact")


def outlier_greedy(forest: Forest, classes,
                   m_cap: int = DEFAULT_GREEDY_CAP) -> OutlierReport:
    """Greedy approximation: keep only each sample's strongest classmates.

    Only the m_cap classmates with the highest co-occurrence counts (ties
    to the lower id) contribute to the squared-proximity mass, summed in
    ascending id order. m_cap >= N_j - 1 reproduces the exact measures.
    """
    if m_cap < 1:
        raise ArgumentError("m_cap must be >= 1")
    classes = _check_classes(classes, forest.n_scored_rows)
    raw = np.empty(len(classes), dtype=np.float64)
    for members, rows, values, scale in _classmate_blocks(
            forest, classes, _GREEDY_CELL_BYTES):
        nj = len(members)
        if nj - 1 <= m_cap:
            mates = _without_self(members, rows, values)
        else:
            # each row's own column carries the exclusion mark
            key = nearness_key(values)
            key[np.arange(len(rows)), np.searchsorted(members, rows)] = \
                np.iinfo(key.dtype).max
            top = nearest_columns(key, m_cap)
            top.sort(axis=1)
            # flat positions in the contiguous block: a plain take
            mates = values.take(top + np.arange(0, values.size, nj)[:, None])
        _raw_from_mass(raw, rows, nj, mates, scale)
    score, class_ids, medians, mads, flags = _normalize(raw, classes)
    return OutlierReport(raw, score, classes, class_ids, medians, mads,
                         flags, mode="greedy", greedy_m=m_cap)
