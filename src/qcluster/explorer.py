"""Exchange-graph exploration up to relabeling of exchangeable indices.

Seeds that differ only by a simultaneous permutation of exchangeable
indices (applied to variables, to rows and columns of the exchange
matrix, and to the frame) are the same vertex of the exchange graph.
The canonical form sorts the exchangeable indices by the serialized
form of their variables alone: well defined because variables are in
initial-cluster coordinates, which never move, and total because a
cluster's variables are pairwise distinct (a repeat raises ValueError).
The canonical key is spliced from each variable's JSON bytes, kept on the
object, and equals the bytes of dump_seed(canonical seed, full=True);
explore builds that seed, with its matrices checked, only for a key it has
not seen.  A variable met before is proved by the re-multiplication check,
not divided, and its first object returned, so it is serialized once.
Frozen indices keep their positions: frozen variables are shared by the
whole mutation class, so permuting them would only manufacture spurious
distinctions.

Exploration is breadth-first with ascending mutation directions, so
node numbering, edge sets, and cap behavior are reproducible run to
run.  Stored seeds are the canonical representatives; to replay a path
of recorded edge directions, canonicalize after every step.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _encode
from typing import Mapping, Sequence

from .errors import NotDivisibleError
from .mutation import _Exchanges, mutate
from .seeds import ClassicalSeed, QuantumSeed, dump_seed


def _json_bytes(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


class _Raw(str):
    """JSON text that _indented splices as it is."""


def _indented(obj, nl: str = "\n") -> str:
    """json.dumps's text for obj with an indent of 2 and sorted keys; a tuple is a list."""
    if isinstance(obj, str):
        return obj if type(obj) is _Raw else _encode(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [_encode(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
        return "{%s%s%s}" % (inner, ("," + inner).join(items), nl) if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    # json's indented encoder is pure Python, one call per item; a row of ints is one join
    ints = all(type(x) is int for x in obj)
    items = map(str, obj) if ints else [_indented(x, inner) for x in obj]
    return "[%s%s%s]" % (inner, ("," + inner).join(items), nl) if obj else "[]"


def _var_key(v) -> bytes:
    """A variable's compact JSON bytes, serialized once and kept on the object."""
    try:
        return v._bytes
    except AttributeError:
        v._bytes = key = _json_bytes(v.to_json())
        return key


def _canonical(seed):
    """(inv, order, head, pi, key) of the canonical form, which is not built here.

    Row i of the form is row inv[i] of seed, column j is column order[j],
    and pi = inv^-1; head is the form's record, dump_seed's entries but
    "vars", which sorts last, so the key is head's bytes spliced with the
    variables' cached bytes (_var_key).
    """
    ex, m, n = seed.b.ex, seed.b.m, seed.b.n
    var_keys = [_var_key(v) for v in seed.vars]
    ex_keys = [var_keys[k] for k in ex]
    if len(set(ex_keys)) != n:
        raise ValueError("the exchangeable variables are not pairwise distinct")
    order = sorted(range(n), key=ex_keys.__getitem__)
    pi, inv = list(range(m)), list(range(m))
    for t, j in enumerate(order):
        pi[ex[j]], inv[ex[t]] = ex[t], ex[j]
    head = seed._record(inv, order)
    vars_ = b",".join([var_keys[i] for i in inv])
    key = b'%s,"vars":[%s]}' % (_json_bytes(head)[:-1], vars_)
    return inv, order, head, tuple(pi), key


def canonical_form(seed):
    """Canonical representative of a seed's relabeling class.

    The exchangeable indices are sorted by their variables' cached bytes,
    which canonical_key splices; a repeated variable raises ValueError.

    OUTPUT: (canonical seed, pi) where pi maps old row indices to new
    ones (identity on frozen indices).
    """
    inv, order, head, pi, _ = _canonical(seed)
    return seed._relabeled(inv, order, head), pi


def canonical_key(seed) -> bytes:
    """Serialized canonical form; equal iff seeds agree up to relabeling.

    Spliced from each variable's cached bytes, it equals
    _json_bytes(dump_seed(canonical_form(seed)[0], full=True)).
    """
    return _canonical(seed)[4]


class GraphStatus(Enum):
    CLOSED = "Closed"
    CAPPED_BY_SEEDS = "CappedBySeeds"
    CAPPED_BY_DEPTH = "CappedByDepth"


@dataclass(frozen=True)
class ExchangeGraph:
    """Result of an exploration: canonical seeds, mutation edges, status.

    nodes maps canonical keys to stored canonical seeds in discovery
    order; edges hold (source key, direction k, target key) triples with
    k a row index of the SOURCE's stored seed.  For a Closed graph every
    (node, k in ex) pair has its edge; capped graphs stop early and say
    why in status.
    """

    root: bytes
    nodes: Mapping[bytes, ClassicalSeed | QuantumSeed]
    depths: Mapping[bytes, int]
    parents: Mapping[bytes, tuple[bytes, int] | None]
    edges: tuple[tuple[bytes, int, bytes], ...]
    status: GraphStatus

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def path_to(self, key: bytes) -> tuple[int, ...]:
        """Mutation directions from the root to a node, one per BFS edge."""
        return _trace_path(self.parents, key)

    def node_ids(self) -> dict[bytes, str]:
        """Short stable display ids (hash prefixes, extended on collision)."""
        size = 6
        while True:
            ids = {key: blake2b(key, digest_size=size).hexdigest() for key in self.nodes}
            if len(set(ids.values())) == len(ids):
                return ids
            size *= 2


def explore(
    root: ClassicalSeed | QuantumSeed,
    max_seeds: int | None = 10000,
    max_depth: int | None = 32,
) -> ExchangeGraph:
    """Breadth-first closure of a seed under all exchange directions.

    Deduplication is by canonical key of the full seed.  The search
    stops with CappedBySeeds the moment one more distinct seed would
    exceed max_seeds, and a node at depth max_depth is recorded but not
    expanded (CappedByDepth if any such node remains unexpanded).  Caps
    of None mean unlimited; any other cap must be an int >= 0 (not a
    bool), else ValueError.  With the default max_depth=32, a max_seeds
    larger than the number of seeds within depth 32 never binds; on a
    rank-2 infinite class that number is 2*32+1 = 65.  NotDivisibleError
    from a mutation is re-raised with its path from the root set.  Through
    the call's exchange state (mutation._Exchanges), a mutation divides only
    for a variable this call has not met, and builds its numerator only for
    an exchange this call has not proved.

    Each edge is mutated once.  When expanding X in direction k yields Y
    with relabeling pi, the reverse edge (Y, pi[k], X) is recorded then
    and taken as is when Y is expanded; no mutation, canonicalization or
    key is computed for it.  This adds no unchecked seed: every stored
    seed still comes from an exchange that passed its re-multiplication
    check, and the reused edge only joins two such seeds.  Classically
    the reverse exchange relation is the identity the forward check
    verified (negating column k swaps the two monomials, the other
    variables stay); for quantum seeds it is Berenstein-Zelevinsky's
    theorem that mutation is an involution.  Reused edges never create
    nodes, so nodes, depths, parents, edges and status are those of
    mutating every direction.

    Likewise a proved exchange met again on the same variable objects,
    exponents and v-shifts, so the same numerator, reuses the check made
    exactly on those immutable objects (see the mutation module).
    """
    for name, cap in (("max_seeds", max_seeds), ("max_depth", max_depth)):
        if cap is not None and (type(cap) is not int or cap < 0):
            raise ValueError(f"{name} must be None or an int >= 0, got {cap!r}")
    inv, order, head, _, rkey = _canonical(root)
    nodes: dict[bytes, ClassicalSeed | QuantumSeed] = {rkey: root._relabeled(inv, order, head)}
    known = _Exchanges(root.vars)
    depths: dict[bytes, int] = {rkey: 0}
    parents: dict[bytes, tuple[bytes, int] | None] = {rkey: None}
    edges: set[tuple[bytes, int, bytes]] = set()
    reverse: dict[tuple[bytes, int], bytes] = {}
    queue: deque[bytes] = deque([rkey])
    status = None
    depth_capped = False
    while queue and status is None:
        key = queue.popleft()
        seed = nodes[key]
        depth = depths[key]
        if max_depth is not None and depth >= max_depth:
            depth_capped = True
            continue
        for k in seed.b.ex:
            ckey = reverse.pop((key, k), None)
            if ckey is None:
                try:
                    child = mutate(seed, k, _known=known)
                except NotDivisibleError as exc:
                    exc.path = _trace_path(parents, key) + (k,)
                    raise
                inv, order, head, pi, ckey = _canonical(child)
                if ckey not in nodes:
                    if max_seeds is not None and len(nodes) >= max_seeds:
                        status = GraphStatus.CAPPED_BY_SEEDS
                        break
                    nodes[ckey] = child._relabeled(inv, order, head)
                    depths[ckey] = depth + 1
                    parents[ckey] = (key, k)
                    queue.append(ckey)
                reverse[(ckey, pi[k])] = key
            edges.add((key, k, ckey))
    if status is None:
        status = GraphStatus.CAPPED_BY_DEPTH if depth_capped else GraphStatus.CLOSED
    return ExchangeGraph(
        rkey, nodes, depths, parents, tuple(sorted(edges)), status
    )


def _trace_path(
    parents: Mapping[bytes, tuple[bytes, int] | None], key: bytes
) -> tuple[int, ...]:
    path = []
    while parents[key] is not None:
        key, k = parents[key]
        path.append(k)
    return tuple(reversed(path))


@dataclass(frozen=True)
class LaurentRow:
    """One produced variable: membership outcome and denominator data.

    step is 0 for rows describing the untouched initial generators,
    otherwise the 1-based position in the mutation sequence.  index is
    the variable slot; direction the mutated one (None on step 0).
    min_exponents is the componentwise support minimum; denominator its
    negative part, i.e. the exponent of the monomial denominator.
    """

    step: int
    index: int
    direction: int | None
    ok: bool
    support: tuple[tuple[int, ...], ...] | None
    min_exponents: tuple[int, ...] | None
    denominator: tuple[int, ...] | None
    error: str | None

    def to_json(self) -> dict:
        out: dict = {
            "step": self.step,
            "index": self.index + 1,
            "ok": self.ok,
        }
        if self.direction is not None:
            out["direction"] = self.direction + 1
        if self.ok:
            out["support"] = [list(e) for e in self.support]
            out["min_exponents"] = list(self.min_exponents)
            out["denominator"] = list(self.denominator)
        else:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class LaurentReport:
    rows: tuple[LaurentRow, ...]
    completed: bool
    final: ClassicalSeed | QuantumSeed | None

    @property
    def ok(self) -> bool:
        return self.completed and all(row.ok for row in self.rows)

    def to_json(self) -> dict:
        return {
            "completed": self.completed,
            "ok": self.ok,
            "rows": [row.to_json() for row in self.rows],
        }


def _membership_row(step: int, index: int, direction: int | None, v) -> LaurentRow:
    lo = v.min_exponents()
    return LaurentRow(
        step,
        index,
        direction,
        True,
        tuple(v.support()),
        lo,
        tuple(max(0, -x) for x in lo),
        None,
    )


def laurent_report(
    root: ClassicalSeed | QuantumSeed, sequence: Sequence[int]
) -> LaurentReport:
    """Apply a mutation sequence, recording Laurent membership per step.

    An empty sequence reports on the initial generators.  A division
    failure becomes a failing row and stops the walk; it is recorded,
    not raised.  Like explore, it passes one exchange state to every
    mutate, so it divides only for a variable this call has not met.
    """
    seed = root
    rows: list[LaurentRow] = []
    if not sequence:
        for i in range(seed.m):
            rows.append(_membership_row(0, i, None, seed.vars[i]))
        return LaurentReport(tuple(rows), True, seed)
    known = _Exchanges(root.vars)
    for step, k in enumerate(sequence, start=1):
        try:
            seed = mutate(seed, k, _known=known)
        except NotDivisibleError as exc:
            rows.append(
                LaurentRow(step, k, k, False, None, None, None, str(exc))
            )
            return LaurentReport(tuple(rows), False, None)
        rows.append(_membership_row(step, k, k, seed.vars[k]))
    return LaurentReport(tuple(rows), True, seed)


def _cluster_summary(seed, texts: dict, limit: int = 28) -> str:
    parts = []
    for k in seed.b.ex:
        key = _var_key(seed.vars[k])
        if key not in texts:  # each distinct variable is rendered once per export,
            for s in accumulate(seed.vars[k]._pieces()):  # piece by piece to the cut
                if len(s) > limit:
                    s = s[: limit - 3] + "..."
                    break
            texts[key] = s
        parts.append(texts[key])
    return ", ".join(parts)


def _display_order(graph: ExchangeGraph):
    """(ids, node keys by (depth, id), edges by (id, k, id)): both exports' order."""
    ids = graph.node_ids()
    nodes = sorted(graph.nodes, key=lambda key: (graph.depths[key], ids[key]))
    edges = sorted(graph.edges, key=lambda e: (ids[e[0]], e[1], ids[e[2]]))
    return ids, nodes, edges


_SLOT = _Raw("\0")  # json's text escapes a NUL, so a raw one marks where a value goes


def export_json(graph: ExchangeGraph, full: bool = False) -> str:
    """Stable JSON rendering of a graph; full=True embeds the variables.

    _indented lays out each record shape once around _SLOTs: the top record,
    an edge, a node's envelope and each node's dump_seed record, with a slot
    per variable.  The pieces between slots, the ids, depths, ks and each
    distinct variable's text (rendered once) go to one list, joined once.
    """
    ids, keys, edges = _display_order(graph)
    quoted = {key: _encode(i) for key, i in ids.items()}
    two = [_SLOT, _SLOT]  # a list's opening, its separator and its close
    top = {"edge_count": graph.edge_count, "edges": two if edges else [],
           "node_count": graph.node_count, "nodes": two,
           "root": ids[graph.root], "status": graph.status.value}
    *lead, node_sep, tail = _indented(top).split(_SLOT)  # edges sort before nodes
    edge = _indented({"from": _SLOT, "k": _SLOT, "to": _SLOT}, "\n    ").split(_SLOT)
    node = _indented({"depth": _SLOT, "id": _SLOT, "seed": _SLOT}, "\n    ").split(_SLOT)
    out = [lead[0]]
    for a, k, c in edges:
        out += (edge[0], quoted[a], edge[1], str(k + 1), edge[2], quoted[c], edge[3], lead[1])
    if edges:
        out[-1] = lead[2]
    texts: dict[bytes, str] = {}  # equal _var_key bytes, equal to_json(): render each once
    for key in keys:
        seed = graph.nodes[key]
        record = dump_seed(seed)
        if full:
            record["vars"] = [_SLOT] * seed.m
        pieces = _indented(record, "\n      ").split(_SLOT)
        out += (node[0], str(graph.depths[key]), node[1], quoted[key], node[2], pieces[0])
        for v, piece in zip(seed.vars, pieces[1:]):
            vkey = _var_key(v)
            if vkey not in texts:  # at depth 5 in the record: nodes, node, seed, vars
                texts[vkey] = _indented(v.to_json(), "\n" + "  " * 5)
            out += (texts[vkey], piece)
        out += (node[3], node_sep)
    out[-1] = tail
    return "".join(out)


def export_dot(graph: ExchangeGraph) -> str:
    """GraphViz rendering: nodes carry id and cluster summary, edges k."""
    ids, keys, edges = _display_order(graph)
    texts: dict[bytes, str] = {}
    lines = ["digraph exchange {"]
    lines.append('  graph [label="status: %s"];' % graph.status.value)
    for key in keys:
        label = "%s\\n%s" % (ids[key], _cluster_summary(graph.nodes[key], texts))
        label = label.replace('"', '\\"')
        lines.append('  "%s" [label="%s"];' % (ids[key], label))
    for a, k, c in edges:
        lines.append('  "%s" -> "%s" [label="%d"];' % (ids[a], ids[c], k + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
