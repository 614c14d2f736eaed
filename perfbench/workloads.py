"""Seeded inputs, timed operations and answer checks for the four workloads.

Every input is generated here from the workload seed; qcluster only ever
sees the seed files built from it.  The answers checked after each timed
operation (closure sizes, depth-capped Kronecker counts, walk round trips,
export round trips) do not depend on the seed, so a gain measured on one
seed can be re-checked on another.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass

# Standard exchange matrices of the Dynkin diagrams A5 and D4.
A5 = tuple(tuple(1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(5)) for i in range(5))
D4 = ((0, 1, 0, 0), (-1, 0, 1, 1), (0, -1, 0, 0), (0, -1, 0, 0))
# Number of seeds of each finite type used: the Catalan number C(2n+2, n+1)/(n+2)
# for A_n, and (3n-2)/n * C(2n-2, n-1) for D_n.
SEED_COUNTS = {A5: 132, D4: 50}
# The rank-2 affine exchange matrices (b12 * b21 = -4), up to relabeling.
KRONECKER = (((0, 2), (-2, 0)), ((0, 1), (-4, 0)))


@dataclass(frozen=True)
class Workload:
    """One workload: which roots it explores and which answers it expects.

    Units cycle through ``families`` (base matrices); each family's timings
    get their own median so that two families of different cost cannot make
    a single median jump between them.
    """

    name: str
    quantum: bool
    families: tuple
    max_depth: int | None
    expected_nodes: int
    expected_edges: int
    trace_units: int


def _closure(name, quantum, base, trace_units):
    n = len(base)
    nodes = SEED_COUNTS[base]
    return Workload(name, quantum, (base,), None, nodes, n * nodes, trace_units)


def _kronecker(name, quantum, depth, trace_units):
    return Workload(
        name, quantum, KRONECKER, depth, 2 * depth + 1, 4 * depth - 2, trace_units
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        _closure("classical-closure", False, A5, trace_units=3),
        _closure("quantum-closure", True, D4, trace_units=3),
        _kronecker("kronecker-classical", False, depth=12, trace_units=4),
        _kronecker("kronecker-quantum", True, depth=6, trace_units=4),
    )
}

# Inputs generated per run; a run ends early if it uses them all.
POOL = 240
CLOSURE_WALK_LENGTH = 48
CLOSURE_SCRAMBLE_STEPS = 12


# -- seeded input generation (plain integer code, independent of qcluster) --


def mutate_rows(rows, k):
    """Matrix mutation of a square or tall integer matrix in column k."""
    out = []
    for i, row in enumerate(rows):
        new = []
        for j, bij in enumerate(row):
            if i == k or j == k:
                new.append(-bij)
            else:
                bik, bkj = rows[i][k], rows[k][j]
                new.append(bij + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        out.append(tuple(new))
    return tuple(out)


def relabel(rows, perm):
    n = len(perm)
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def random_skew(rng, n, bound):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-bound, bound)
            rows[i][j] = x
            rows[j][i] = -x
    return tuple(tuple(r) for r in rows)


def random_walk(rng, n, length):
    """Random exchange directions with no direction twice in a row."""
    seq = []
    while len(seq) < length:
        k = rng.randrange(n)
        if not seq or k != seq[-1]:
            seq.append(k)
    return tuple(seq)


@dataclass(frozen=True)
class UnitInput:
    family: int
    bmat: tuple  # principal part (n x n) or full exchange matrix (m x n)
    lambda0: tuple | None
    walk: tuple


def generate_inputs(workload: Workload, seed: int) -> list[UnitInput]:
    """The run's unit inputs, all distinct, from the workload seed alone."""
    rng = random.Random(f"{workload.name}:{seed}")
    seen = set()
    out = []
    while len(out) < POOL:
        family = len(out) % len(workload.families)
        base = workload.families[family]
        n = len(base)
        lambda0 = None
        if workload.max_depth is None:
            rows = base
            for _ in range(CLOSURE_SCRAMBLE_STEPS):
                rows = mutate_rows(rows, rng.randrange(n))
            perm = list(range(n))
            rng.shuffle(perm)
            bmat = relabel(rows, perm)
            if workload.quantum:
                lambda0 = random_skew(rng, n, 2)
            walk = random_walk(rng, n, CLOSURE_WALK_LENGTH)
        else:
            # the walk starts from the base's first index wherever it lands,
            # so that a relabeling does not change which way the walk goes
            first = rng.randrange(2)
            bmat = relabel(base, (1, 0)) if first else base
            if workload.quantum:
                lambda0 = random_skew(rng, 2, 60)
            else:
                frozen = tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2))
                bmat = bmat + frozen
            walk = tuple((first + i) % 2 for i in range(workload.max_depth))
        key = (bmat, lambda0)
        if key in seen:
            continue
        seen.add(key)
        out.append(UnitInput(family, bmat, lambda0, walk))
    return out


def seed_file(qc, workload: Workload, unit: UnitInput) -> dict:
    """The seed-file JSON object (1-based, as the CLI reads it) of a unit's root."""
    n = len(unit.bmat[0])
    if workload.quantum:
        lam = qc.principal_lambda(unit.bmat, unit.lambda0)
        rows = [list(r) for r in unit.bmat]
        rows += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        return {
            "m": 2 * n,
            "n": n,
            "ex": list(range(1, n + 1)),
            "B": rows,
            "Lambda": [list(r) for r in lam.rows()],
        }
    return {
        "m": len(unit.bmat),
        "n": n,
        "ex": list(range(1, n + 1)),
        "B": [list(r) for r in unit.bmat],
    }


def build_root(qc, workload: Workload, unit: UnitInput):
    """Load and validate one root seed from its seed-file JSON text."""
    text = json.dumps(seed_file(qc, workload, unit), sort_keys=True)
    root = qc.load_seed(json.loads(text))
    if workload.quantum and qc.check_compatibility(root.b, root.lam) != root.d:
        raise ValueError("root frame does not reproduce its symmetrizer")
    return root


# -- timed operations and their answer checks --------------------------------


class Tally:
    """Operations attempted and failed; a failure never leaves the benchmark."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def error(self, what: str) -> None:
        self.record(what, False, traceback.format_exc(limit=3))


def graph_answer(workload: Workload, graph) -> str:
    """Empty when the graph has the workload's known shape, else the mismatch."""
    status = "CappedByDepth" if workload.max_depth is not None else "Closed"
    got = (graph.status.value, graph.node_count, graph.edge_count)
    want = (status, workload.expected_nodes, workload.expected_edges)
    return "" if got == want else f"got {got}, expected {want}"


def explore_root(qc, workload: Workload, root):
    if workload.max_depth is None:
        return qc.explore(root)
    return qc.explore(root, max_depth=workload.max_depth)


def walk_answer(qc, workload: Workload, root, walk, report) -> str:
    """Empty when a walk is sound: Laurent rows, round trip, q = 1 square."""
    if not report.ok or len(report.rows) != len(walk):
        return "walk report is not ok"
    back = qc.laurent_report(report.final, tuple(reversed(walk)))
    if not back.ok or back.final != root:
        return "reversed walk does not return to the root"
    if workload.quantum:
        if not qc.verify_quantum_seed(report.final).ok:
            return "walk ends in a seed that fails verify_quantum_seed"
        shadow = qc.laurent_report(qc.specialize_seed(root), walk)
        if not shadow.ok or shadow.final != qc.specialize_seed(report.final):
            return "q = 1 specialization square does not commute"
    return ""


def export_answer(graph, text_json: str, text_dot: str) -> str:
    """Empty when both exports parse back to the graph's counts."""
    data = json.loads(text_json)
    got = (data["status"], data["node_count"], data["edge_count"], len(data["nodes"]), len(data["edges"]))
    want = (graph.status.value, graph.node_count, graph.edge_count, graph.node_count, graph.edge_count)
    if got != want:
        return f"JSON export reads back {got}, expected {want}"
    lines = text_dot.splitlines()
    edges = sum(1 for line in lines if " -> " in line)
    nodes = sum(1 for line in lines if line.startswith('  "') and " -> " not in line)
    if (nodes, edges) != (graph.node_count, graph.edge_count):
        return f"DOT export reads back {(nodes, edges)} nodes/edges"
    return ""


def export_digest(text_json: str, text_dot: str) -> str:
    return hashlib.sha256((text_json + "\0" + text_dot).encode()).hexdigest()


def run_unit(qc, workload: Workload, unit: UnitInput, root, tally: Tally, pinned: str | None):
    """One unit: timed explore, walk and export, each checked afterwards.

    Returns the three wall times in seconds, None for an operation that
    failed.
    """
    clock = time.perf_counter
    times = {"explore_s": None, "walk_s": None, "export_s": None}
    graph = None
    try:
        t0 = clock()
        graph = explore_root(qc, workload, root)
        t1 = clock()
        problem = graph_answer(workload, graph)
        if tally.record("explore", not problem, problem):
            times["explore_s"] = t1 - t0
        else:
            graph = None
    except Exception:
        tally.error("explore")
    try:
        t0 = clock()
        report = qc.laurent_report(root, unit.walk)
        t1 = clock()
        problem = walk_answer(qc, workload, root, unit.walk, report)
        if tally.record("walk", not problem, problem):
            times["walk_s"] = t1 - t0
    except Exception:
        tally.error("walk")
    if graph is None:
        tally.record("export", False, "no checked graph to export")
        return times
    try:
        t0 = clock()
        text_json = qc.export_json(graph, full=True)
        text_dot = qc.export_dot(graph)
        t1 = clock()
        problem = export_answer(graph, text_json, text_dot)
        if not problem and pinned is not None and export_digest(text_json, text_dot) != pinned:
            problem = "export bytes differ from the pinned digest"
        if tally.record("export", not problem, problem):
            times["export_s"] = t1 - t0
    except Exception:
        tally.error("export")
    return times
