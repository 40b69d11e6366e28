"""A speed probe that corrects timings for the machine's momentary speed.

On a shared machine the same call can take 1.5x longer for a minute at a
time, because other tenants load the physical cores. The probe is a fixed
piece of work of the same kind as the program's (the first nodes of a
tree grown on 2048 rows, each split found by sorting the columns and
summing one-hot class counts, as forestfuse's presort split search does),
written here and never changed by a change to forestfuse. The run times the probe just before and just after
each timed call and scales the call's time by REF_S over the geometric
mean of the two probe times: the result reads as seconds on the
reference machine at its usual speed. A change to forestfuse moves
the call's time and not the probe's, so the scaled time moves by the same
factor. Raw times stay in the run report.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median probe time on the reference machine: 2 shared vCPUs (Intel Xeon,
# 2.1 GHz), Python 3.11.7, numpy 2.4.6
REF_S = 0.0060


class Probe:
    def __init__(self, n_rows=2048, n_nodes=20):
        rng = np.random.default_rng(7)
        self.x = rng.normal(size=(n_rows, 3))
        self.y = np.digitize(self.x[:, 0] + self.x[:, 2], [-0.5, 0.5])
        self.n_nodes = n_nodes

    def _grow(self):
        """The first nodes of a depth-first tree, each split found by a
        presort scan of one-hot class counts, as in forestfuse's splitfind."""
        x, y = self.x, self.y
        stack = [np.arange(len(y))]
        for _ in range(self.n_nodes):
            if not stack:
                break
            rows = stack.pop()
            if len(rows) < 8:
                continue
            order = np.argsort(x[rows], axis=0, kind="stable")
            onehot = y[rows][order][:, :, None] == np.arange(3)
            left = np.cumsum(onehot, axis=0, dtype=np.float64)
            score = (left ** 2).sum(axis=2)[:-1, 0] / np.arange(1, len(rows))
            k = int(np.argmax(score)) + 1
            stack += [rows[order[:k, 0]], rows[order[k:, 0]]]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self._grow()
        return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Multiplier that turns a time measured between two probes into
    reference seconds: REF_S over the probes' geometric mean."""
    return REF_S / math.sqrt(before * after)
