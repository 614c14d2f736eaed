"""Command-line front end over seed files.

Verbs: check, mutate, explore, specialize, principal-lambda.  Input is
always a JSON seed file (1-based indices); output goes to stdout in the
requested format and is byte-stable for identical inputs.  Domain
failures (incompatible pair, no symmetrizer, division failure, an
exponent beyond the engine's range) exit 1 with a structured JSON error
on stderr; malformed files and bad usage exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import ClusterError, NotDivisibleError
from .explorer import _indented, explore, export_dot, export_json, laurent_report
from .mutation import verify_quantum_seed
from .qlaurent import from_decimal
from .seeds import (
    QuantumSeed,
    dump_seed,
    json_ints,
    load_seed,
    principal_seed,
    specialize_seed,
)


def _emit_error(code: str, message: str, **extra) -> None:
    data = {"error": code, "message": message}
    data.update(extra)
    print(json.dumps(data, sort_keys=True), file=sys.stderr)


def _show(args, record, text) -> None:
    """Print record() as indented JSON, or for --format text the lines text() builds."""
    print(_indented(record()) if args.format == "json" else "\n".join(text()))


def _load_input(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON input nests too deeply") from None


def _text_lines(record: dict) -> list[str]:
    """`key: value` lines of a JSON record; int lists join by commas, rows right-align."""
    lines = []
    for key, value in record.items():
        if not isinstance(value, list):
            lines.append(f"{key}: {value}")
        elif value and isinstance(value[0], list):
            width = max(len(str(x)) for row in value for x in row)
            lines.append(f"{key}:")
            lines += ["  " + " ".join(str(x).rjust(width) for x in row) for row in value]
        else:
            lines.append(f"{key}: " + ",".join(str(x) for x in value))
    return lines


def _seed_lines(seed, full: bool) -> list[str]:
    lines = _text_lines(dump_seed(seed))
    if full:
        lines += ["vars:"] + [f"  [{i}] {v}" for i, v in enumerate(seed.vars, 1)]
    return lines


def _check_lines(data: dict) -> list[str]:
    record = {"type": data["type"], "d": data["d"]}
    for name, entry in data.get("verification", {}).items():
        if name != "ok":
            record[name] = "ok" if entry["ok"] else "FAILED"
            record.update((f"{name}.{k}", v) for k, v in entry.items() if k != "ok")
    return _text_lines(record) + ["ok" if data["ok"] else "FAILED"]


def _report_lines(report, full: bool) -> list[str]:
    lines = []
    for row in report.rows:
        if not row.ok:
            lines.append(f"step {row.step}: direction {row.index + 1} FAILED: {row.error}")
            continue
        denom = ",".join(str(x) for x in row.denominator)
        lines.append(
            f"step {row.step}: direction {row.direction + 1} Laurent, "
            f"{len(row.support)} terms, denominator ({denom})"
        )
    if report.final is not None:
        lines += _seed_lines(report.final, full)
    return lines


def _parse_sequence(text: str) -> list[int]:
    ks = [from_decimal(part.strip()) for part in text.split(",") if part.strip() != ""]
    if any(type(k) is not int for k in ks):
        raise ValueError(f"--at expects comma-separated integers, got {text!r}")
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
    _show(args, lambda: data, lambda: _check_lines(data))
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

    def record() -> dict:  # built only for --format json
        data = {"report": report.to_json()}
        if report.final is not None:
            data["seed"] = dump_seed(report.final, full=args.full)
        return data
    _show(args, record, lambda: _report_lines(report, args.full))
    if not report.completed:
        row = report.rows[-1]
        raise NotDivisibleError(row.error, direction=row.index, step=row.step - 1)
    return 0


def _cmd_explore(args) -> int:
    seed = load_seed(_load_input(args.input))
    max_seeds = None if args.max_seeds < 0 else args.max_seeds
    max_depth = None if args.max_depth < 0 else args.max_depth
    graph = explore(seed, max_seeds=max_seeds, max_depth=max_depth)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph))
    elif args.format == "json":
        print(export_json(graph, full=args.full))
    else:
        summary = {
            "status": graph.status.value,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "max depth reached": max(graph.depths.values()),
        }
        print("\n".join(_text_lines(summary)))
    return 0


def _cmd_specialize(args) -> int:
    seed = load_seed(_load_input(args.input))
    if not isinstance(seed, QuantumSeed):
        raise ValueError("specialize expects a quantum seed file (with Lambda)")
    shadow = specialize_seed(seed)
    _show(args, lambda: dump_seed(shadow, full=args.full), lambda: _seed_lines(shadow, args.full))
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
    seed = dump_seed(principal_seed(bmat, lambda0, d))
    data = {"Lambda": seed["Lambda"], "d": seed.pop("d")}
    _show(args, lambda: dict(data, seed=seed) if args.full_seed else data, lambda: _text_lines(data))
    return 0


_SEED, _JSON_TEXT = "seed JSON file", ["json", "text"]
_FULL = {"action": "store_true", "help": "include variables in output"}
_UNLIMITED = {"type": int, "help": "negative = unlimited"}

# (verb, handler, help, input help, the verb's own options, --format choices)
_VERBS = (
    ("check", _cmd_check, "validate a seed file and print its symmetrizer", _SEED, {}, _JSON_TEXT),
    ("mutate", _cmd_mutate, "apply a mutation sequence", _SEED, {
        "--at": {"required": True, "help": "comma-separated 1-based directions"}, "--full": _FULL,
    }, _JSON_TEXT),
    ("explore", _cmd_explore, "breadth-first exchange-graph closure", _SEED, {
        "--max-seeds": dict(_UNLIMITED, default=10000), "--max-depth": dict(_UNLIMITED, default=32),
        "--full": {"action": "store_true", "help": "embed variables in JSON nodes"},
    }, ["json", "dot", "text"]),
    ("specialize", _cmd_specialize, "print the q=1 classical shadow", "quantum seed JSON file",
     {"--full": _FULL}, _JSON_TEXT),
    ("principal-lambda", _cmd_principal, "build the principal-coefficient frame from B",
     "JSON file with B and optional Lambda0, D",
     {"--full-seed": {"action": "store_true", "help": "also emit a loadable 2n-seed"}}, _JSON_TEXT),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcluster",
        description="Exact engine for classical and quantum cluster algebra seeds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, func, help_, input_help, options, formats in _VERBS:
        p = sub.add_parser(verb, help=help_)
        p.add_argument("input", help=input_help)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClusterError as exc:
        extra = {}
        for name in ("direction", "path", "position", "step"):
            value = getattr(exc, name)
            if value is not None:
                extra[name] = value + 1 if type(value) is int else [i + 1 for i in value]
        _emit_error(exc.code, str(exc), **extra)
        return 1
    except OverflowError as exc:
        _emit_error("out_of_range", str(exc))
        return 1
    except (OSError, ValueError) as exc:
        _emit_error("parse_error", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
