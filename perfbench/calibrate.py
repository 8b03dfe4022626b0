"""A fixed reference computation that measures the host's speed during a run.

The benchmark's host is shared: for stretches of a second to over a minute
other tenants slow every computation on it by 20-50 %, and a whole 30-second
run can fall into such a stretch (see README.md). The benchmark therefore
reports its times at the reference speed of the host: each time is divided by
the slowdown measured beside it, the time per call of this reference over
``REFERENCE_CALL_S``. ``worker.solve_round`` runs the reference after every
solve, for a quarter of the time the solves took; each set-up process runs
it for ``SETUP_CALLS`` calls right after its set-up.

The reference is written here and never calls the program, so a change to
the program moves the solve and set-up times and leaves the reference alone.
It mixes the kinds of work the solvers do: interpreted Python, numpy calls on
short vectors (set projections in R^100 and R^200), dense matrix-vector
products (affine projections) and passes over long vectors (product-space
iterates in R^34200).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy import linalg as la

# Seconds one call takes on the reference machine when the host does not
# slow it down (README.md); a slowdown of 1.0 means that speed.
REFERENCE_CALL_S = 3.0e-4
SHARE = 0.25  # reference time per second of solving
SETUP_CALLS = 1000  # calls after each set-up, about 0.3 s


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((200, 200))
        self.short = rng.standard_normal(100)
        self.long = rng.standard_normal(34_200)
        self.reset()

    def call(self) -> float:
        acc = 0.0
        for i in range(300):
            acc += (i * 0.5) % 7.0
        x = self.short
        for _ in range(10):
            t, u = float(x[0]), x[1:]
            x = np.concatenate([[0.5 * (t + float(la.norm(u)))], u])
            x = np.minimum(np.maximum(x, -1.0), 1.0)
            acc += float(x @ self.short)
        v = self.short[:1].repeat(200)
        for _ in range(8):
            w = self.matrix @ v
            v = w / float(la.norm(w))
        y = self.long
        for _ in range(2):
            y = 0.5 * (y + self.long)
            acc += float(y @ self.long)
        return acc + float(v[0])

    def _timed_call(self) -> None:
        t = perf_counter()
        self.call()
        self.seconds += perf_counter() - t
        self.calls += 1

    def keep_up(self, solve_s: float) -> None:
        """Run calls until they add up to ``SHARE`` of the solve time so far."""
        self.budget += SHARE * solve_s
        while self.seconds < self.budget:
            self._timed_call()

    def measure(self, calls: int) -> float:
        """The slowdown over ``calls`` calls made now."""
        self.reset()
        for _ in range(calls):
            self._timed_call()
        return self.slowdown()

    def slowdown(self) -> float:
        """The host's slowdown since the last ``reset``: 1.0 at reference speed."""
        return self.seconds / (self.calls * REFERENCE_CALL_S)

    def reset(self) -> None:
        self.calls, self.seconds, self.budget = 0, 0.0, 0.0
