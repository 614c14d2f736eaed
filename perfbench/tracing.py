"""Traced run: spans and counters around the calls each layer makes.

Wrappers are installed from here, on the names where each caller looks
them up, only for the traced passes, and removed afterwards; the timed
runs install nothing.

- explorer -> mutation, seeds: ``qcluster.explorer.mutate``,
  ``.canonical_form``, ``.dump_seed`` and ``._json_bytes`` (key
  serialization).
- mutation -> seeds: ``qcluster.mutation.matrix_mutate`` and
  ``.lambda_mutate``; ``ExchangeMatrix.__init__`` for every matrix built.
- mutation -> torus: the ``CommLaurent`` and ``TorusElement`` operators
  ``*``, ``**``, exact division and ``==``, their ``to_json``, and
  ``SkewMatrix.form``.
- torus -> qlaurent: ``QLaurent.mul_shifted``, ``+`` and ``exact_div``.

Inside one mutation the three phases are told apart by order: the
numerator is everything from the start of the mutate call to the start
of the division, the division is its own span, and the recheck is the
``*`` and ``==`` calls the mutation makes after the division.

Every span has a name, start, end and parent; self time is its duration
minus the time its child spans cover.  Totals are aggregated per span
name; the spans of the first traced unit, down to the operators a
mutation calls directly, are kept and written to a JSON dump.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import time

import workloads as wl

KEEP_DEPTH = 3  # explore/walk/export -> mutate -> operator


class Frame:
    __slots__ = ("name", "kind", "start", "child", "span", "after_div")

    def __init__(self, name, kind, start, span):
        self.name = name
        self.kind = kind
        self.start = start
        self.child = 0.0
        self.span = span
        self.after_div = False


class Tracer:
    """Span stack, per-name totals, mutation phases and layer counters."""

    def __init__(self):
        self.active = False
        self.keep = False
        self.origin = time.perf_counter()
        self.stack: list[Frame] = []
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.under: dict[tuple[str, str], list] = {}  # (name, parent name) -> [calls, s]
        self.phases = {"numerator": 0.0, "divide": 0.0, "recheck": 0.0}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def enter(self, name: str, kind: str | None = None) -> Frame:
        span = None
        if self.keep and len(self.stack) < KEEP_DEPTH:
            parent = self.stack[-1].span if self.stack else None
            span = len(self.spans)
            self.spans.append([name, None, None, parent])
        parent_frame = self.stack[-1] if self.stack else None
        if kind == "div" and parent_frame is not None and parent_frame.kind == "mutate":
            self.phases["numerator"] += time.perf_counter() - parent_frame.start
        frame = Frame(name, kind, 0.0, span)
        self.stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def leave(self, frame: Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame.child
        if frame.span is not None:
            record = self.spans[frame.span]
            record[1] = frame.start - self.origin
            record[2] = end - self.origin
        if self.stack:
            parent = self.stack[-1]
            parent.child += duration
            entry = self.under.setdefault((name, parent.name), [0, 0.0])
            entry[0] += 1
            entry[1] += duration
            if parent.kind == "mutate":
                if frame.kind == "div":
                    self.phases["divide"] += duration
                    parent.after_div = True
                elif parent.after_div and frame.kind == "recheck":
                    self.phases["recheck"] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def wrap(self, name, fn, kind=None, after=None):
        """fn recorded as span ``name``; ``after(tracer, args, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def under_parent(self, name: str, parent: str) -> tuple[int, float]:
        calls, seconds = self.under.get((name, parent), (0, 0.0))
        return calls, seconds


# -- counters taken after a wrapped call returns (outside its span) ----------


def _count_mul(tracer, args, result):
    a, b = args
    if type(b) is type(a):
        tracer.add("torus.term_products", len(a) * len(b))
    tracer.peak("torus.max_terms", len(result))


def _coeff_bits(coeff) -> int:
    if isinstance(coeff, int):
        return abs(coeff).bit_length()
    return max((abs(c).bit_length() for _, c in coeff.items()), default=0)


def _count_div(tracer, args, result):
    divisor = args[1]
    tracer.add("torus.div_term_products", len(result) * len(divisor))
    tracer.peak("torus.max_terms", len(result))
    tracer.peak("torus.max_coeff_bits", max((_coeff_bits(c) for _, c in result.items()), default=0))


def _count_mul_shifted(tracer, args, result):
    if result:
        tracer.peak("qlaurent.max_span", result.max_exp() - result.min_exp())


def install(qc, tracer: Tracer):
    """Patch every traced name; returns the list needed to restore them."""
    explorer, mutation = qc.explorer, qc.mutation
    targets = [
        (explorer, "mutate", "explorer.mutate", "mutate", None),
        (explorer, "canonical_form", "explorer.canonical_form", None, None),
        (explorer, "dump_seed", "seeds.dump_seed", None, None),
        (explorer, "_json_bytes", "explorer.json_bytes", None, None),
        (mutation, "matrix_mutate", "seeds.matrix_mutate", None, None),
        (mutation, "lambda_mutate", "seeds.lambda_mutate", None, None),
        (qc.ExchangeMatrix, "__init__", "seeds.exchange_matrix", None, None),
        (qc.SkewMatrix, "form", "torus.form", None, None),
        (qc.QLaurent, "mul_shifted", "qlaurent.mul_shifted", None, _count_mul_shifted),
        (qc.QLaurent, "__add__", "qlaurent.add", None, None),
        (qc.QLaurent, "exact_div", "qlaurent.exact_div", None, None),
    ]
    for cls, div_names in ((qc.CommLaurent, ("exact_div",)),
                           (qc.TorusElement, ("exact_div_right", "exact_div_left"))):
        targets += [
            (cls, "__mul__", "torus.mul", "recheck", _count_mul),
            (cls, "__pow__", "torus.pow", None, None),
            (cls, "__eq__", "torus.eq", "recheck", None),
            (cls, "to_json", "torus.to_json", None, None),
        ]
        targets += [(cls, attr, "torus.div", "div", _count_div) for attr in div_names]
    saved = []
    for owner, attr, name, kind, after in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, kind, after))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

PER_LAYER_UNITS = {
    "explorer.mutate_calls": "count",
    "explorer.new_node_ratio": "ratio",
    "explorer.mutate_s": "s",
    "explorer.canonical_s": "s",
    "explorer.self_s": "s",
    "explorer.export_json_s": "s",
    "explorer.export_dot_s": "s",
    "explorer.export_bytes": "bytes",
    "explorer.walk_mutate_s": "s",
    "explorer.walk_self_s": "s",
    "mutation.calls": "count",
    "mutation.numerator_s": "s",
    "mutation.divide_s": "s",
    "mutation.recheck_s": "s",
    "seeds.matrix_mutate_s": "s",
    "seeds.lambda_mutate_s": "s",
    "seeds.exchange_matrix_calls": "count",
    "seeds.exchange_matrix_s": "s",
    "seeds.dump_seed_s": "s",
    "torus.mul_calls": "count",
    "torus.mul_s": "s",
    "torus.term_products": "count",
    "torus.pow_s": "s",
    "torus.div_calls": "count",
    "torus.div_s": "s",
    "torus.div_term_products": "count",
    "torus.eq_s": "s",
    "torus.form_calls": "count",
    "torus.form_s": "s",
    "torus.to_json_s": "s",
    "torus.max_terms": "count",
    "torus.max_coeff_bits": "bits",
    "qlaurent.mul_shifted_calls": "count",
    "qlaurent.mul_shifted_s": "s",
    "qlaurent.add_calls": "count",
    "qlaurent.exact_div_calls": "count",
    "qlaurent.exact_div_s": "s",
    "qlaurent.max_span": "count",
    "cli.explore_s": "s",
    "cli.mutate_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# Metrics that must repeat exactly from one traced pass to the next.
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes", "bits"))


def traced_pass(qc, workload, built, tally, first_pass):
    """Run the units under wrappers; returns (layer values, span dump).

    The first pass also keeps the first unit's spans, and explores each root
    once untraced right before its traced explore, so that the two times
    compared in trace.overhead_ratio are taken at nearly the same host speed.
    """
    tracer = Tracer()
    saved = install(qc, tracer)
    new_nodes = 0
    export_bytes = 0
    untraced_s = traced_s = 0.0
    try:
        for index, (unit, root) in enumerate(built):
            tracer.keep = first_pass and index == 0
            try:
                if first_pass:
                    t0 = time.perf_counter()
                    wl.explore_root(qc, workload, root)
                    untraced_s += time.perf_counter() - t0
                tracer.active = True
                t0 = time.perf_counter()
                with tracer.span("explore"):
                    graph = wl.explore_root(qc, workload, root)
                traced_s += time.perf_counter() - t0
                with tracer.span("walk"):
                    report = qc.laurent_report(root, unit.walk)
                with tracer.span("export_json"):
                    text_json = qc.export_json(graph, full=True)
                with tracer.span("export_dot"):
                    text_dot = qc.export_dot(graph)
                tracer.active = False
                problem = wl.graph_answer(workload, graph)
                tally.record("traced explore", not problem, problem)
                problem = wl.walk_answer(qc, workload, root, unit.walk, report)
                tally.record("traced walk", not problem, problem)
                problem = wl.export_answer(graph, text_json, text_dot)
                tally.record("traced export", not problem, problem)
            except Exception:
                tracer.active = False
                tally.error("traced unit")
                continue
            new_nodes += graph.node_count - 1
            export_bytes += len(text_json.encode()) + len(text_dot.encode())
    finally:
        tracer.active = False
        uninstall(saved)
    t = tracer
    mutate_calls, mutate_s = t.under_parent("explorer.mutate", "explore")
    canonical_s = sum(
        t.under_parent(name, "explore")[1]
        for name in ("explorer.canonical_form", "seeds.dump_seed", "explorer.json_bytes")
    )
    values = {
        "explorer.mutate_calls": mutate_calls,
        "explorer.new_node_ratio": new_nodes / mutate_calls if mutate_calls else 0.0,
        "explorer.mutate_s": mutate_s,
        "explorer.canonical_s": canonical_s,
        "explorer.self_s": t.self_time.get("explore", 0.0),
        "explorer.export_json_s": t.total.get("export_json", 0.0),
        "explorer.export_dot_s": t.total.get("export_dot", 0.0),
        "explorer.export_bytes": export_bytes,
        "explorer.walk_mutate_s": t.under_parent("explorer.mutate", "walk")[1],
        "explorer.walk_self_s": t.self_time.get("walk", 0.0),
        "mutation.calls": t.calls.get("explorer.mutate", 0),
        "mutation.numerator_s": t.phases["numerator"],
        "mutation.divide_s": t.phases["divide"],
        "mutation.recheck_s": t.phases["recheck"],
        "seeds.matrix_mutate_s": t.total.get("seeds.matrix_mutate", 0.0),
        "seeds.lambda_mutate_s": t.total.get("seeds.lambda_mutate", 0.0),
        "seeds.exchange_matrix_calls": t.calls.get("seeds.exchange_matrix", 0),
        "seeds.exchange_matrix_s": t.total.get("seeds.exchange_matrix", 0.0),
        "seeds.dump_seed_s": t.total.get("seeds.dump_seed", 0.0),
        "torus.mul_calls": t.calls.get("torus.mul", 0),
        "torus.mul_s": t.total.get("torus.mul", 0.0),
        "torus.term_products": t.counts.get("torus.term_products", 0),
        "torus.pow_s": t.total.get("torus.pow", 0.0),
        "torus.div_calls": t.calls.get("torus.div", 0),
        "torus.div_s": t.total.get("torus.div", 0.0),
        "torus.div_term_products": t.counts.get("torus.div_term_products", 0),
        "torus.eq_s": t.total.get("torus.eq", 0.0),
        "torus.form_calls": t.calls.get("torus.form", 0),
        "torus.form_s": t.total.get("torus.form", 0.0),
        "torus.to_json_s": t.total.get("torus.to_json", 0.0),
        "torus.max_terms": t.maxima.get("torus.max_terms", 0),
        "torus.max_coeff_bits": t.maxima.get("torus.max_coeff_bits", 0),
        "qlaurent.mul_shifted_calls": t.calls.get("qlaurent.mul_shifted", 0),
        "qlaurent.mul_shifted_s": t.total.get("qlaurent.mul_shifted", 0.0),
        "qlaurent.add_calls": t.calls.get("qlaurent.add", 0),
        "qlaurent.exact_div_calls": t.calls.get("qlaurent.exact_div", 0),
        "qlaurent.exact_div_s": t.total.get("qlaurent.exact_div", 0.0),
        "qlaurent.max_span": t.maxima.get("qlaurent.max_span", 0),
    }
    dump = {
        "spans": t.spans,
        "totals": {
            name: {"calls": t.calls[name], "total_s": t.total[name], "self_s": t.self_time[name]}
            for name in sorted(t.calls)
        },
        "phases": t.phases,
    }
    if first_pass and untraced_s > 0:
        values["trace.overhead_ratio"] = traced_s / untraced_s
    return values, dump


def _capture_cli(qc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = importlib.import_module("qcluster.cli").main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def cli_layer(qc, workload, unit, root, tally, outdir):
    """Time `explore --format json --full` and `mutate` through cli.main.

    The explore output must be byte-identical to export_json of the same
    graph explored in-process.
    """
    path = outdir / f"cli-{workload.name}.json"
    path.write_text(json.dumps(wl.seed_file(qc, workload, unit), sort_keys=True))
    argv = ["explore", str(path), "--format", "json", "--full"]
    if workload.max_depth is not None:
        argv += ["--max-depth", str(workload.max_depth)]
    code, explore_out, explore_s = _capture_cli(qc, argv)
    expected = qc.export_json(wl.explore_root(qc, workload, root), full=True) + "\n"
    tally.record("cli explore", code == 0 and explore_out == expected,
                 f"exit {code}; stdout differs from export_json")
    at = ",".join(str(k + 1) for k in unit.walk)
    code, mutate_out, mutate_s = _capture_cli(qc, ["mutate", str(path), "--at", at, "--full"])
    tally.record("cli mutate", code == 0 and json.loads(mutate_out)["report"]["ok"],
                 f"exit {code}")
    return {
        "cli.explore_s": explore_s,
        "cli.mutate_s": mutate_s,
        "cli.stdout_bytes": len(explore_out.encode()) + len(mutate_out.encode()),
    }


def per_layer(qc, workload, built, tally, outdir, seed):
    """Per-layer metrics of the workload's traced units, with the self-check.

    The units are traced twice; every count metric must come out identical
    in both passes.  Times are summed over the traced units of the first pass.
    """
    values, dump = traced_pass(qc, workload, built, tally, first_pass=True)
    again, _ = traced_pass(qc, workload, built, tally, first_pass=False)
    drift = [k for k in COUNT_METRICS if k in values and values[k] != again[k]]
    tally.record("trace self-check", not drift, f"counts differ between traced passes: {drift}")
    unit, root = built[0]
    try:
        values.update(cli_layer(qc, workload, unit, root, tally, outdir))
    except Exception:
        tally.error("cli layer")
    dump.update({"workload": workload.name, "seed": seed, "units": len(built), "metrics": values})
    (outdir / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    metrics = {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS if k in values}
    return metrics, len(metrics) == len(PER_LAYER_UNITS)
