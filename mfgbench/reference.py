"""The fixed reference computation used to cancel machine drift.

It is timed right before and right after every timed query (and every
set-up), and that query is reported as ``query_s / ref_s * NOMINAL_REF_S``
with ``ref_s`` the mean of the two. Bracketing the query tracks the
machine's speed over the query's own interval better than one reading
before it, at no extra cost per query beyond the second reading. The work is
pure Python plus numpy and imports nothing from ``repro``, so a change to
the program never changes it. It is allocation-heavy on purpose, like the
index build and the search kernels: a dict-of-sets build, ``np.unique`` /
``np.bincount`` over flat keys, and a keyed sort.
"""
from __future__ import annotations

import time

import numpy as np

#: The nominal duration one reference measurement stands for. A constant,
#: so normalised seconds read close to wall seconds on a machine where one
#: reference takes about this long.
NOMINAL_REF_S = 0.012

_N_EDGES = 24000


class Reference:
    """Fixed input plus the timed computation over it."""

    def __init__(self) -> None:
        g = np.random.default_rng(20240101)
        self._u = g.integers(0, 3600, _N_EDGES)
        self._v = g.integers(0, 1200, _N_EDGES)
        self._t = g.integers(0, 40, _N_EDGES)
        self._triples = list(
            zip(self._u.tolist(), self._v.tolist(), self._t.tolist())
        )

    def _once(self) -> int:
        adj = {}
        for u, v, t in self._triples:
            adj.setdefault(v, {}).setdefault(t, set()).add(u)
        keys = self._u * 40 + self._t
        uniq, cnt = np.unique(keys, return_counts=True)
        per_t = np.bincount(uniq % 40, weights=cnt, minlength=40)
        order = sorted(adj, key=lambda v: (-len(adj[v]), v))
        return len(order) + int(per_t.sum())

    def measure(self) -> float:
        """Wall seconds of one run."""
        t0 = time.perf_counter()
        self._once()
        return time.perf_counter() - t0
