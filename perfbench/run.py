"""qcluster benchmark: end-to-end timings, or a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload classical-closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (medians over the run's units); with --trace 1 they are
the per-layer ones from a separate traced pass over a fixed set of units.
Stdlib only, one process, one thread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# sha256 of export_json(full=True) and export_dot of unit 0 under DEFAULT_SEED.
PINNED_EXPORTS = {
    "classical-closure": "5f64d252bb1caa8ae63699ca80b58df107e73faf8d7765388c97918ddca1007e",
    "quantum-closure": "16ae7fdcfe5fc0b06a9485a66b72c7cb2c744d6b98d93d3e1f57cff6662cd068",
    "kronecker-classical": "7d506b713cb89118d8076662a15ffde0c6c67eb7e37a1e7a4222fd9c1c636bea",
    "kronecker-quantum": "03df5aef7be5dce98c4faea73f305c1c1f2314f41bb92b0fa6465669dc7bad76",
}
END_TO_END_UNITS = {
    "explore_s": "s",
    "walk_s": "s",
    "export_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The program to measure cannot be imported from this checkout."""


def import_qcluster():
    """Import qcluster afresh from the checkout's src/ (never an installed copy)."""
    if not (SRC / "qcluster" / "__init__.py").is_file():
        raise SetupError(f"no qcluster package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "qcluster" or n.startswith("qcluster.")]:
        del sys.modules[name]
    qc = importlib.import_module("qcluster")
    if Path(qc.__file__).resolve().parent != (SRC / "qcluster").resolve():
        raise SetupError(f"imported qcluster from {qc.__file__}, not from {SRC}")
    return qc


def setup(workload, seed, tally):
    """Import qcluster, generate every input and build every root.

    Returns (qcluster module, [(input, root)], seconds taken).  Roots that
    fail validation are counted as failed operations and left out.
    """
    t0 = time.perf_counter()
    qc = import_qcluster()
    built = []
    for unit in wl.generate_inputs(workload, seed):
        try:
            built.append((unit, wl.build_root(qc, workload, unit)))
        except Exception as exc:  # a bad root is a counted failure
            tally.record("setup", False, repr(exc))
    return qc, built, time.perf_counter() - t0


def family_median(samples):
    """Median per root family, averaged over the families present."""
    per_family = [statistics.median(v) for v in samples.values() if v]
    return sum(per_family) / len(per_family) if per_family else None


def host_scale(before: float) -> float:
    """REFERENCE_S over the host's mean reference time before and after a step."""
    return hostspeed.REFERENCE_S / ((before + hostspeed.local_reference()) / 2)


def scaled_setup(workload, seed, tally):
    before = hostspeed.local_reference()
    qc, built, seconds = setup(workload, seed, tally)
    return qc, built, seconds, seconds * host_scale(before)


def timed_run(workload, seed, seconds):
    """Units until the time is up; set-up is repeated at even intervals meanwhile.

    The first set-up provides the run's roots.  The repeats, spread over the
    run, only time the same procedure again (their results are dropped), so
    that setup_s is a median over the run like the other metrics.  Every
    timing is rescaled to the reference host speed (see hostspeed.py); the
    raw medians are printed alongside.
    """
    tally = wl.Tally()
    qc, built, raw, scaled = scaled_setup(workload, seed, tally)
    setup_times = {"raw": [raw], "scaled": [scaled]}
    metrics = ("explore_s", "walk_s", "export_s")
    samples = {kind: {m: {} for m in metrics} for kind in ("raw", "scaled")}
    units = 0
    start = time.perf_counter()
    for index, (unit, root) in enumerate(built):
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if elapsed >= seconds * len(setup_times["raw"]) / SETUP_REPEATS:
            _, _, raw, scaled = scaled_setup(workload, seed, wl.Tally())
            setup_times["raw"].append(raw)
            setup_times["scaled"].append(scaled)
        pinned = PINNED_EXPORTS[workload.name] if seed == DEFAULT_SEED and index == 0 else None
        before = hostspeed.local_reference()
        times = wl.run_unit(qc, workload, unit, root, tally, pinned)
        scale = host_scale(before)
        units += 1
        for metric, value in times.items():
            if value is not None:
                samples["raw"][metric].setdefault(unit.family, []).append(value)
                samples["scaled"][metric].setdefault(unit.family, []).append(value * scale)
    while len(setup_times["raw"]) < SETUP_REPEATS:
        _, _, raw, scaled = scaled_setup(workload, seed, wl.Tally())
        setup_times["raw"].append(raw)
        setup_times["scaled"].append(scaled)
    values = {}
    for kind in ("raw", "scaled"):
        values[kind] = {m: family_median(s) for m, s in samples[kind].items()}
        values[kind]["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values[kind]["setup_s"] = statistics.median(setup_times[kind])
    counts = {m: sum(len(v) for v in s.values()) for m, s in samples["raw"].items()}
    counts["peak_rss_mib"] = 1
    counts["setup_s"] = SETUP_REPEATS
    print(f"{workload.name}: seed {seed}, {units} units in {time.perf_counter() - start:.1f} s")
    print(f"  {'metric':<14} {'reported':>12} {'raw wall':>12}")
    for metric, value in values["scaled"].items():
        shown = ["-" if v is None else f"{v:.6g}" for v in (value, values["raw"][metric])]
        print(f"  {metric:<14} {shown[0]:>12} {shown[1]:>12} {END_TO_END_UNITS[metric]:<4}"
              f" (n={counts[metric]})")
    result = {
        m: {"value": v, "unit": END_TO_END_UNITS[m]}
        for m, v in values["scaled"].items()
        if v is not None
    }
    return tally, result, len(result) == len(END_TO_END_UNITS)


def traced_run(workload, seed):
    tally = wl.Tally()
    qc, built, _ = setup(workload, seed, tally)
    OUT.mkdir(exist_ok=True)
    metrics, complete = tracing.per_layer(qc, workload, built[: workload.trace_units], tally, OUT, seed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    return tally, {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}, complete


def run_all(args):
    """Each workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = wl.WORKLOADS[args.workload]
    try:
        if args.trace:
            tally, metrics, complete = traced_run(workload, args.seed)
        else:
            tally, metrics, complete = timed_run(workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": complete and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
