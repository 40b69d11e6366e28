"""Class prototypes from proximities.

A prototype summarizes one cluster of a class: the class member with the
most same-class cases among its k proximity-nearest neighbors anchors a
feature-wise median, with 25th/75th percentiles as stability bands.
Later prototypes of the same class repeat the search over cases not yet
consumed, so successive support sets are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError
from .proximity import ProximityMatrix


@dataclass
class Prototype:
    class_id: int
    rank: int
    center_row: int
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    support: np.ndarray


def _nearest(prox_row: np.ndarray, exclude: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k largest proximities, ties to the lower row id."""
    eligible = np.flatnonzero(~exclude)
    if eligible.size == 0:
        return eligible
    order = np.lexsort((eligible, -prox_row[eligible]))[:k]
    return eligible[order]


def find_prototypes(prox: ProximityMatrix | np.ndarray, ds: Dataset, classes,
                    k: int, n_protos: int = 1) -> dict[int, list[Prototype]]:
    """Extract up to n_protos prototypes per class.

    Neighbor sets are the k proximity-nearest rows (self excluded, ties
    to the lower id) among rows not consumed by earlier prototypes of the
    class; the candidate maximizing the same-class neighbor count wins
    (ties to the lower id). Quartiles use linear interpolation and
    include the center row.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if n_protos < 1:
        raise ArgumentError("n_protos must be >= 1")
    values = prox.values if isinstance(prox, ProximityMatrix) else np.asarray(prox)
    n = values.shape[0]
    classes = np.asarray(classes, dtype=np.int64)
    if classes.shape != (n,) or ds.n_rows != n:
        raise ArgumentError("classes, proximity, and dataset sizes must agree")

    out: dict[int, list[Prototype]] = {}
    for c in np.unique(classes):
        is_c = classes == c
        consumed = np.zeros(n, dtype=bool)
        protos: list[Prototype] = []
        for rank in range(1, n_protos + 1):
            candidates = np.flatnonzero(is_c & ~consumed)
            if candidates.size == 0:
                break
            best_i = -1
            best_count = -1
            best_nn = None
            for i in candidates:
                exclude = consumed.copy()
                exclude[i] = True
                nn = _nearest(values[i], exclude, k)
                count = int(np.sum(is_c[nn]))
                if count > best_count:
                    best_i, best_count, best_nn = int(i), count, nn
            support = np.concatenate([[best_i], best_nn[is_c[best_nn]]])
            support = np.unique(support)
            rows = ds.values[support] if not ds.is_sparse else np.vstack(
                [ds.row_dense(int(r)) for r in support])
            q25, med, q75 = np.percentile(rows, [25, 50, 75], axis=0)
            protos.append(Prototype(
                class_id=int(c), rank=rank, center_row=best_i,
                median=med, q25=q25, q75=q75, support=support))
            consumed[support] = True
        out[int(c)] = protos
    return out
