"""Command-line front end over seed files.

Verbs: check, mutate, explore, specialize, principal-lambda.  Input is
always a JSON seed file (1-based indices); output goes to stdout in the
requested format and is byte-stable for identical inputs.  Domain
failures (incompatible pair, no symmetrizer, division failure) exit 1
with a structured JSON error on stderr; malformed files and bad usage
exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import ClusterError, IncompatibleError, NotDivisibleError
from .explorer import explore, export_dot, export_json, laurent_report
from .mutation import verify_quantum_seed
from .seeds import (
    ClassicalSeed,
    QuantumSeed,
    dump_seed,
    find_skew_symmetrizer,
    json_ints,
    load_seed,
    principal_extension,
    principal_lambda,
    specialize_seed,
)


def _emit_error(code: str, message: str, **extra) -> None:
    data = {"error": code, "message": message}
    data.update(extra)
    print(json.dumps(data, sort_keys=True), file=sys.stderr)


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _load_input(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _matrix_lines(rows) -> list[str]:
    width = max((len(str(x)) for row in rows for x in row), default=1)
    return ["  " + " ".join(str(x).rjust(width) for x in row) for row in rows]


def _seed_text(seed, full: bool) -> str:
    b = seed.b
    lines = [
        f"m: {b.m}",
        f"n: {b.n}",
        "ex: " + ",".join(str(k + 1) for k in b.ex),
        "B:",
    ]
    lines += _matrix_lines(b.rows())
    if isinstance(seed, QuantumSeed):
        lines.append("Lambda:")
        lines += _matrix_lines(seed.lam.rows())
        lines.append("d: " + ",".join(str(x) for x in seed.d))
    if full:
        lines.append("vars:")
        for i, v in enumerate(seed.vars):
            lines.append(f"  [{i + 1}] {v}")
    return "\n".join(lines)


def _report_text(report) -> list[str]:
    lines = []
    for row in report.rows:
        if not row.ok:
            lines.append(f"step {row.step}: direction {row.index + 1} FAILED: {row.error}")
            continue
        denom = ",".join(str(x) for x in row.denominator)
        if row.step == 0:
            lines.append(f"initial [{row.index + 1}]: Laurent, denominator ({denom})")
        else:
            lines.append(
                f"step {row.step}: direction {row.direction + 1} Laurent, "
                f"{len(row.support)} terms, denominator ({denom})"
            )
    return lines


def _parse_sequence(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--at expects comma-separated integers, got {text!r}") from None
    if not ks:
        raise ValueError("--at needs at least one direction")
    if any(k < 1 for k in ks):
        raise ValueError("directions are 1-based, so must be >= 1")
    return [k - 1 for k in ks]


def _cmd_check(args) -> int:
    seed = load_seed(_load_input(args.input))
    if isinstance(seed, QuantumSeed):
        report = verify_quantum_seed(seed)
        data = {
            "type": "quantum",
            "ok": report.ok,
            "d": list(seed.d),
            "verification": report.to_json(),
        }
    else:
        data = {"type": "classical", "ok": True, "d": list(seed.b.d)}
    if args.format == "json":
        _print_json(data)
    else:
        lines = [f"type: {data['type']}", "d: " + ",".join(str(x) for x in data["d"])]
        if isinstance(seed, QuantumSeed):
            v = data["verification"]
            for name in ("compatibility", "quasi_commutation", "bar_invariance"):
                state = "ok" if v[name]["ok"] else "FAILED"
                lines.append(f"{name}: {state}")
        lines.append("ok" if data["ok"] else "FAILED")
        print("\n".join(lines))
    if not data["ok"]:
        _emit_error("verification_failed", "quantum seed verification failed")
        return 1
    return 0


def _cmd_mutate(args) -> int:
    seed = load_seed(_load_input(args.input))
    sequence = _parse_sequence(args.at)
    for k in sequence:
        if k not in seed.b.ex:
            raise ValueError(f"direction {k + 1} is not exchangeable")
    report = laurent_report(seed, sequence)
    if args.format == "json":
        data = {"report": report.to_json()}
        if report.final is not None:
            data["seed"] = dump_seed(report.final, full=args.full)
        _print_json(data)
    else:
        lines = _report_text(report)
        if report.final is not None:
            lines.append(_seed_text(report.final, full=True))
        print("\n".join(lines))
    if not report.completed:
        failing = report.rows[-1]
        _emit_error(
            "not_divisible",
            failing.error or "division failed",
            step=failing.step,
            direction=failing.index + 1,
        )
        return 1
    return 0


def _cmd_explore(args) -> int:
    seed = load_seed(_load_input(args.input))
    max_seeds = None if args.max_seeds is not None and args.max_seeds < 0 else args.max_seeds
    max_depth = None if args.max_depth is not None and args.max_depth < 0 else args.max_depth
    graph = explore(seed, max_seeds=max_seeds, max_depth=max_depth)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph))
    elif args.format == "json":
        print(export_json(graph, full=args.full))
    else:
        depths = sorted(graph.depths.values())
        print(
            "status: {0}\nnodes: {1}\nedges: {2}\nmax depth reached: {3}".format(
                graph.status.value,
                graph.node_count,
                graph.edge_count,
                depths[-1] if depths else 0,
            )
        )
    return 0


def _cmd_specialize(args) -> int:
    seed = load_seed(_load_input(args.input))
    if not isinstance(seed, QuantumSeed):
        raise ValueError("specialize expects a quantum seed file (with Lambda)")
    shadow = specialize_seed(seed)
    if args.format == "json":
        _print_json(dump_seed(shadow, full=args.full))
    else:
        print(_seed_text(shadow, full=args.full))
    return 0


def _cmd_principal(args) -> int:
    obj = _load_input(args.input)
    if not isinstance(obj, dict) or "B" not in obj:
        raise ValueError("principal-lambda needs a JSON object with an n x n 'B'")
    bmat = json_ints(obj["B"], "B", 2)
    lambda0 = obj.get("Lambda0")
    if lambda0 is not None:
        lambda0 = json_ints(lambda0, "Lambda0", 2)
    d = obj.get("D")
    if d is not None:
        d = json_ints(d, "D", 1)
    lam = principal_lambda(bmat, lambda0, d)
    d_used = tuple(d) if d is not None else find_skew_symmetrizer(bmat)
    data = {"Lambda": [list(row) for row in lam.rows()], "d": list(d_used)}
    if args.full_seed:
        ext = ClassicalSeed.initial(principal_extension(bmat))
        data["seed"] = {**dump_seed(ext), "Lambda": data["Lambda"]}
    if args.format == "json":
        _print_json(data)
    else:
        lines = ["Lambda:"] + _matrix_lines(lam.rows())
        lines.append("d: " + ",".join(str(x) for x in d_used))
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcluster",
        description="Exact engine for classical and quantum cluster algebra seeds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate a seed file and print its symmetrizer")
    p.add_argument("input", help="seed JSON file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mutate", help="apply a mutation sequence")
    p.add_argument("input", help="seed JSON file")
    p.add_argument("--at", required=True, help="comma-separated 1-based directions")
    p.add_argument("--full", action="store_true", help="include variables in output")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("explore", help="breadth-first exchange-graph closure")
    p.add_argument("input", help="seed JSON file")
    p.add_argument("--max-seeds", type=int, default=10000, help="negative = unlimited")
    p.add_argument("--max-depth", type=int, default=32, help="negative = unlimited")
    p.add_argument("--full", action="store_true", help="embed variables in JSON nodes")
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("specialize", help="print the q=1 classical shadow")
    p.add_argument("input", help="quantum seed JSON file")
    p.add_argument("--full", action="store_true", help="include variables in output")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser(
        "principal-lambda", help="build the principal-coefficient frame from B"
    )
    p.add_argument("input", help="JSON file with B and optional Lambda0, D")
    p.add_argument(
        "--full-seed", action="store_true", help="also emit a loadable 2n-seed"
    )
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_principal)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotDivisibleError as exc:
        extra = {}
        if exc.direction is not None:
            extra["direction"] = exc.direction + 1
        if exc.path is not None:
            extra["path"] = [k + 1 for k in exc.path]
        _emit_error(exc.code, str(exc), **extra)
        return 1
    except IncompatibleError as exc:
        extra = {}
        if exc.position is not None:
            i, j = exc.position
            extra["position"] = [i + 1, j + 1]
        _emit_error(exc.code, str(exc), **extra)
        return 1
    except ClusterError as exc:
        _emit_error(exc.code, str(exc))
        return 1
    except (OSError, ValueError) as exc:
        _emit_error("parse_error", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
