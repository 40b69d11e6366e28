"""Class prototypes from proximities.

A prototype summarizes one cluster of a class: the class member with the
most same-class cases among its k proximity-nearest neighbors anchors a
feature-wise median, with 25th/75th percentiles as stability bands.
Later prototypes of the same class repeat the search over cases not yet
consumed, so successive support sets are disjoint. Each row's neighbors
come from one block of proximity rows at a time, so no n x n array is
held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError
from .forest import Forest
from .proximity import (DEFAULT_BLOCK_BYTES, ProximityMatrix, matrix_rows,
                        nearness_key, proximity_rows)

# per-cell bytes built from a block: the key, two masks and
# argpartition's positions
_CELL_BYTES = 8 + 2 + 8
# a matrix's block first becomes dense ranks, with np.unique's sort
_RANK_CELL_BYTES = 3 * 8


@dataclass
class Prototype:
    class_id: int
    rank: int
    center_row: int
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    support: np.ndarray


def _nearest(values, block, classes, consumed, k):
    """Each block row's k nearest rows: ids, and -1 past the eligible ones.

    Rows nearer in proximity come first, ties to the lower row id. A row
    is never its own neighbor, nor is a row its class has consumed.
    """
    b, n = values.shape
    if values.dtype.kind == "f":
        # dense ranks keep every order and tie of the float proximities
        values = np.unique(values, return_inverse=True)[1].reshape(b, n)
    k = min(k, n - 1)
    if k == 0:
        return np.empty((b, 0), dtype=np.int64)
    key = nearness_key(values)
    far = np.iinfo(key.dtype).max
    key[consumed & (classes == classes[block, None])] = far
    key[np.arange(b), block] = far
    nn = np.argpartition(key, k - 1, axis=1)[:, :k]
    return np.where(np.take_along_axis(key, nn, axis=1) < far, nn, -1)


def find_prototypes(prox: ProximityMatrix | np.ndarray | Forest, ds: Dataset,
                    classes, k: int, n_protos: int = 1
                    ) -> dict[int, list[Prototype]]:
    """Extract up to n_protos prototypes per class.

    Neighbor sets are the k proximity-nearest rows (self excluded, ties
    to the lower id) among rows not consumed by earlier prototypes of the
    class; the candidate maximizing the same-class neighbor count wins
    (ties to the lower id). Quartiles use linear interpolation and
    include the center row. `prox` is a Forest, read by co-occurrence
    blocks, or a proximity matrix. Each rank reads the rows of every
    class at once.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if n_protos < 1:
        raise ArgumentError("n_protos must be >= 1")
    n = matrix_rows(prox)
    classes = np.asarray(classes, dtype=np.int64)
    if classes.shape != (n,) or ds.n_rows != n:
        raise ArgumentError("classes, proximity, and dataset sizes must agree")

    cell_bytes = _CELL_BYTES if isinstance(prox, Forest) \
        else _CELL_BYTES + _RANK_CELL_BYTES
    out: dict[int, list[Prototype]] = {int(c): [] for c in np.unique(classes)}
    consumed = np.zeros(n, dtype=bool)
    for rank in range(1, n_protos + 1):
        candidates = np.flatnonzero(~consumed)
        if candidates.size == 0:
            break
        best = {}  # class -> (same-class count, center row, its neighbors)
        for block, values, _ in proximity_rows(
                prox, candidates, max_bytes=DEFAULT_BLOCK_BYTES,
                cell_bytes=cell_bytes):
            nn = _nearest(values, block, classes, consumed, k)
            own = classes[block]
            counts = ((classes[nn] == own[:, None]) & (nn >= 0)).sum(axis=1)
            for c in np.unique(own):
                local = np.flatnonzero(own == c)
                r = local[np.argmax(counts[local])]
                if c not in best or counts[r] > best[c][0]:
                    best[c] = (counts[r], block[r], nn[r])
        for c, (_, center, nn) in best.items():
            nn = nn[nn >= 0]
            support = np.unique(np.concatenate([[center], nn[classes[nn] == c]]))
            rows = ds.read_cells(support[:, None], np.arange(ds.n_features))
            q25, med, q75 = np.percentile(rows, [25, 50, 75], axis=0)
            out[int(c)].append(Prototype(
                class_id=int(c), rank=rank, center_row=int(center),
                median=med, q25=q25, q75=q75, support=support))
            consumed[support] = True
    return out
