"""Run the benchmark repeatedly and report how much each metric spreads.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workloads classical-closure --seeds 1-10 --seconds 30

For every workload and end-to-end metric it prints the median, the first
and third quartile (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median over the runs, one seed per run, runs one at a time.
With --json the table is also written as JSON to the given path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    table = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds) for seed in args.seeds]
        table[workload] = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        for name, s in table[workload].items():
            print(f"{workload:<20} {name:<13} median {s['median']:.6g}  "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  spread {100 * s['spread']:.1f}%",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                         "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
