"""Host-speed reference: a fixed pure-Python computation timed around each unit.

On a shared host the interpreter's speed drifts by itself, by tens of
percent over tens of seconds, and every timing in a run moves with it (see
README.md). The benchmark therefore times this reference before and after
every unit and every set-up, and rescales each timing by REFERENCE_S over
the reference's local time. A reported time is thus the time the operation
would take on a host that runs the reference in REFERENCE_S, and host drift
cancels out while a change to qcluster does not.

The reference does the kind of work qcluster does: a sparse product of two
Laurent polynomials kept in a dict keyed by exponent tuples, then a sorted
JSON dump of the result.
"""

from __future__ import annotations

import json
import random
import statistics
import time

# Median time of reference() on the shared 2-vCPU virtual machine the
# benchmark was tuned on.
REFERENCE_S = 0.0025
SAMPLES = 3

_rng = random.Random(20050226)
_F = {tuple(_rng.randint(-3, 3) for _ in range(6)): _rng.randint(-9, 9) for _ in range(24)}
_G = {tuple(_rng.randint(-3, 3) for _ in range(6)): _rng.randint(-9, 9) for _ in range(24)}


def reference() -> float:
    """Seconds taken by one run of the fixed reference computation."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, ...], int] = {}
    for a, ca in _F.items():
        for b, cb in _G.items():
            e = tuple(x + y for x, y in zip(a, b))
            acc[e] = acc.get(e, 0) + ca * cb
    json.dumps(sorted([list(e), c] for e, c in acc.items() if c))
    return time.perf_counter() - t0


def local_reference() -> float:
    """Median of a few reference timings: the host's speed right now."""
    return statistics.median(reference() for _ in range(SAMPLES))
