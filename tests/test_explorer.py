"""Exchange-graph exploration, canonical keys, Laurent membership reports."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from qcluster import (
    ClassicalSeed,
    CommLaurent,
    ExchangeGraph,
    ExchangeMatrix,
    GraphStatus,
    NotDivisibleError,
    QLaurent,
    QuantumSeed,
    SkewMatrix,
    TorusElement,
    canonical_form,
    canonical_key,
    classical_mutate,
    dump_seed,
    explore,
    export_dot,
    export_json,
    laurent_report,
    mutate,
    principal_seed,
    quantum_mutate,
    verify_quantum_seed,
)
from qcluster.explorer import _cluster_summary, _var_key

from helpers import (
    A2_ROWS,
    A3_ROWS,
    captured_tables,
    count_divisions,
    count_numerators,
    proved,
)

KRONECKER = [[0, 2], [-2, 0]]


def a2_classical():
    return ClassicalSeed.initial(ExchangeMatrix(A2_ROWS))


def a2_quantum():
    return QuantumSeed.initial(
        ExchangeMatrix(A2_ROWS), SkewMatrix([[0, 1], [-1, 0]])
    )


# -- canonical form ------------------------------------------------------


def test_canonical_key_invariant_under_relabeling():
    s = a2_classical()
    # swap the two exchangeable positions by hand
    swapped = ClassicalSeed(
        ExchangeMatrix([[0, -1], [1, 0]]),
        (s.vars[1], s.vars[0]),
    )
    assert canonical_key(swapped) == canonical_key(s)
    assert swapped != s


def test_canonical_form_is_idempotent():
    s = classical_mutate(classical_mutate(a2_classical(), 0), 1)
    canon, pi = canonical_form(s)
    again, pi2 = canonical_form(canon)
    assert again == canon
    assert pi2 == tuple(range(s.m))
    assert sorted(pi) == list(range(s.m))


def test_canonical_form_rejects_repeated_variable():
    # a cluster's variables are pairwise distinct; a repeat is not a seed,
    # and no order of its indices could make a key independent of labels
    x1 = a2_classical().vars[0]
    for rows in (A2_ROWS, [[0, -1], [1, 0]]):
        twin = ClassicalSeed(ExchangeMatrix(rows), (x1, x1))
        with pytest.raises(ValueError, match="pairwise distinct"):
            canonical_form(twin)
        with pytest.raises(ValueError, match="pairwise distinct"):
            canonical_key(twin)
        with pytest.raises(ValueError, match="pairwise distinct"):
            explore(twin)


def test_canonical_key_separates_distinct_seeds():
    s = a2_classical()
    assert canonical_key(classical_mutate(s, 0)) != canonical_key(s)


def test_pentagon_walk_closes_up_to_relabeling():
    s = a2_classical()
    walk = s
    for k in (0, 1, 0, 1, 0):
        walk = classical_mutate(walk, k)
    assert walk != s
    assert canonical_key(walk) == canonical_key(s)


def test_quantum_canonical_key_respects_lambda():
    s = a2_quantum()
    walk = s
    for k in (0, 1, 0, 1, 0):
        walk = quantum_mutate(walk, k)
    assert canonical_key(walk) == canonical_key(s)


# -- explore: closed graphs ----------------------------------------------


def test_a1_graph_has_two_seeds():
    g = explore(ClassicalSeed.initial(ExchangeMatrix([[0]])))
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 2
    # edges are directed, one per orientation
    assert g.edge_count == 2


def test_a2_graph_has_five_seeds():
    g = explore(a2_classical())
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 5
    assert g.edge_count == 10
    exch_vars = {
        seed.vars[j] for seed in g.nodes.values() for j in seed.ex
    }
    assert len(exch_vars) == 5


def test_quantum_a2_graph_matches_classical_count():
    g = explore(a2_quantum())
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 5
    for seed in g.nodes.values():
        assert verify_quantum_seed(seed).ok


def test_m2n1_graph_has_two_seeds():
    root = QuantumSeed.initial(
        ExchangeMatrix([[0], [1]], ex=[0]), SkewMatrix([[0, -1], [1, 0]])
    )
    g = explore(root)
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 2


def test_a3_graph_has_fourteen_seeds():
    g = explore(ClassicalSeed.initial(ExchangeMatrix(A3_ROWS)))
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 14


def test_root_is_discovered_first_and_depths_are_bfs():
    g = explore(a2_classical())
    keys = list(g.nodes)
    assert keys[0] == g.root
    assert g.depths[g.root] == 0
    for key, parent in g.parents.items():
        if parent is not None:
            pkey, _ = parent
            assert g.depths[key] == g.depths[pkey] + 1


def test_edges_reverify_by_mutation():
    g = explore(a2_quantum())
    for key, k, other in g.edges:
        source = g.nodes[key]
        image = mutate(source, source.ex[source.ex.index(k)])
        assert canonical_key(image) == other
    # undirected closure: each edge has an inverse partner
    pairs = {(key, other) for key, _, other in g.edges}
    assert all((b, a) in pairs for a, b in pairs)


def test_path_to_replays_mutations():
    # recorded directions act on the stored canonical representatives
    g = explore(a2_classical())
    for key in g.nodes:
        s = g.nodes[g.root]
        for k in g.path_to(key):
            s = g.nodes[canonical_key(classical_mutate(s, k))]
        assert canonical_key(s) == key


# -- explore: caps -------------------------------------------------------


def test_seed_cap_triggers_before_exceeding():
    g = explore(a2_classical(), max_seeds=3)
    assert g.status is GraphStatus.CAPPED_BY_SEEDS
    assert g.node_count == 3


def test_depth_cap_keeps_frontier_unexpanded():
    g = explore(a2_classical(), max_depth=1)
    assert g.status is GraphStatus.CAPPED_BY_DEPTH
    assert g.node_count == 3
    assert max(g.depths.values()) == 1


def test_depth_cap_tight_enough_is_closed():
    # A2 closes at depth 3, so a cap of 3 changes nothing
    g = explore(a2_classical(), max_depth=3)
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 5


def test_kronecker_hits_seed_cap():
    g = explore(
        ClassicalSeed.initial(ExchangeMatrix(KRONECKER)),
        max_seeds=12,
        max_depth=None,
    )
    assert g.status is GraphStatus.CAPPED_BY_SEEDS
    assert g.node_count == 12


def test_unlimited_caps_accepted_on_finite_type():
    g = explore(a2_classical(), max_seeds=None, max_depth=None)
    assert g.status is GraphStatus.CLOSED
    assert g.node_count == 5


@pytest.mark.parametrize("cap", [0, None, True, 2.5, -3, -1, "5"])
@pytest.mark.parametrize("name", ["max_seeds", "max_depth"])
def test_caps_are_none_or_nonnegative_ints(name, cap):
    if cap is None or type(cap) is int and cap >= 0:
        g = explore(a2_classical(), **{name: cap})
        assert g.node_count == (1 if cap == 0 else 5)
    else:
        with pytest.raises(ValueError, match=f"{name} must be None or an int >= 0"):
            explore(a2_classical(), **{name: cap})


# -- determinism and exports ---------------------------------------------


def test_export_json_is_deterministic():
    g1 = explore(a2_quantum())
    g2 = explore(a2_quantum())
    assert export_json(g1) == export_json(g2)
    assert export_json(g1, full=True) == export_json(g2, full=True)


def test_export_json_structure():
    g = explore(a2_classical())
    doc = json.loads(export_json(g))
    assert doc["status"] == "Closed"
    assert doc["node_count"] == 5
    assert doc["edge_count"] == 10
    ids = [node["id"] for node in doc["nodes"]]
    assert len(set(ids)) == 5
    depths = [node["depth"] for node in doc["nodes"]]
    assert depths == sorted(depths)
    for edge in doc["edges"]:
        assert edge["from"] in ids and edge["to"] in ids
        assert edge["k"] >= 1  # serialized 1-based
    assert "vars" not in doc["nodes"][0]["seed"]
    full = json.loads(export_json(g, full=True))
    assert "vars" in full["nodes"][0]["seed"]


def test_export_dot_mentions_every_node():
    g = explore(a2_classical())
    dot = export_dot(g)
    assert dot.startswith("digraph")
    doc = json.loads(export_json(g))
    for node in doc["nodes"]:
        assert node["id"] in dot
    assert "Closed" in dot


def test_node_ids_stable_across_runs():
    a = explore(a2_classical()).node_ids()
    b = explore(a2_classical()).node_ids()
    assert a == b


def test_node_ids_widen_on_collision(monkeypatch):
    import qcluster.explorer

    real = qcluster.explorer.blake2b

    def colliding(data, digest_size):
        # every 6-byte id collides, so node_ids must double the size
        return real(b"" if digest_size == 6 else data, digest_size=digest_size)

    monkeypatch.setattr(qcluster.explorer, "blake2b", colliding)
    graph = explore(a2_classical())
    ids = graph.node_ids()
    assert set(ids) == set(graph.nodes)
    assert len(set(ids.values())) == len(ids) == 5
    assert all(ids[key] == real(key, digest_size=12).hexdigest() for key in ids)


# -- laurent_report ------------------------------------------------------


def test_report_empty_sequence_lists_initial_generators():
    rep = laurent_report(a2_classical(), [])
    assert rep.completed and rep.ok
    assert len(rep.rows) == 2
    for j, row in enumerate(rep.rows):
        assert row.step == 0
        assert row.index == j
        assert row.ok
        assert row.denominator == (0, 0)


def test_report_pentagon_denominators():
    rep = laurent_report(a2_classical(), [0, 1])
    assert rep.ok
    assert [row.denominator for row in rep.rows] == [(1, 0), (1, 1)]
    assert [row.step for row in rep.rows] == [1, 2]
    assert rep.final is not None
    assert rep.final.vars[1] == CommLaurent(
        2, {(0, -1): 1, (-1, -1): 1, (-1, 0): 1}
    )


def test_report_quantum_membership():
    rep = laurent_report(a2_quantum(), [0, 1, 0, 1, 0])
    assert rep.ok and rep.completed
    assert len(rep.rows) == 5
    for row in rep.rows:
        assert row.ok
        assert all(e >= 0 for e in row.denominator)
    assert verify_quantum_seed(rep.final).ok


def test_report_denominator_matches_min_exponents():
    rep = laurent_report(a2_classical(), [0, 1, 0])
    for row in rep.rows:
        assert row.denominator == tuple(
            max(0, -e) for e in row.min_exponents
        )


WALKS = {
    "A5": (lambda: classical(a_rows(5)), [0, 1, 2, 3, 4, 2, 0, 1, 3, 2]),
    "quantum-D4": (lambda: principal_seed(D4_ROWS), [0, 1, 2, 3, 1, 0, 2, 1]),
    "kronecker-frozen": (lambda: classical(KRONECKER + [[1, -1]], [0, 1]), [0, 1] * 5),
    "kronecker-quantum": (lambda: principal_seed(KRONECKER), [1, 0] * 3),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_report_rows_read_support_and_min_exponents_off_the_variable(name):
    build, walk = WALKS[name]
    seed = build()
    rows = laurent_report(seed, []).rows + laurent_report(seed, walk).rows
    assert len(rows) == seed.m + len(walk)
    for row in rows:
        v = seed.vars[row.index]
        if row.step:
            seed = mutate(seed, row.index)
            v = seed.vars[row.index]
        assert row.support == tuple(v.support())
        assert row.min_exponents == v.min_exponents()
        assert len(row.support) > 1 or row.step == 0


def test_report_on_a_zero_variable_raises_as_min_exponents_does():
    zero = CommLaurent(2, [])
    seed = ClassicalSeed(ExchangeMatrix(A2_ROWS), (zero, CommLaurent.generator(2, 1)))
    with pytest.raises(ValueError, match="has no support"):
        laurent_report(seed, [])


def test_report_records_failure_and_stops():
    b = ExchangeMatrix(A2_ROWS)
    x1 = CommLaurent.generator(2, 0)
    x2 = CommLaurent.generator(2, 1)
    bad = ClassicalSeed(b, (x1 + x2, x2))
    rep = laurent_report(bad, [0, 1])
    assert not rep.completed and not rep.ok
    assert len(rep.rows) == 1
    assert not rep.rows[0].ok
    assert rep.rows[0].error
    assert rep.final is None


def test_report_rejects_frozen_direction():
    root = QuantumSeed.initial(
        ExchangeMatrix([[0], [1]], ex=[0]), SkewMatrix([[0, -1], [1, 0]])
    )
    with pytest.raises(ValueError):
        laurent_report(root, [1])


def test_explore_surfaces_division_failure_with_path():
    b = ExchangeMatrix(A2_ROWS)
    x1 = CommLaurent.generator(2, 0)
    x2 = CommLaurent.generator(2, 1)
    bad = ClassicalSeed(b, (x1 + x2, x2))
    with pytest.raises(NotDivisibleError) as info:
        explore(bad)
    assert info.value.path == (0,)


def test_random_walks_land_inside_closed_graph():
    g = explore(a2_quantum())
    rng = random.Random(71)
    s = a2_quantum()
    for _ in range(25):
        s = quantum_mutate(s, rng.choice(s.ex))
        assert canonical_key(s) in g.nodes


# -- reverse-edge reuse: every edge recomputed, counts and bytes pinned ----


def a_rows(n):
    return [[1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(n)] for i in range(n)]


B3_ROWS = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
D4_ROWS = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
F4_ROWS = [[0, 1, 0, 0], [-1, 0, 2, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
G2_ROWS = [[0, 1], [-3, 0]]
KRONECKER_4 = [[0, 1], [-4, 0]]


def classical(rows, ex=None):
    return ClassicalSeed.initial(ExchangeMatrix(rows, ex))


# (root, explore keyword arguments, expected (status, nodes, edges))
EDGE_CASES = {
    "A2": (lambda: classical(a_rows(2)), {}, ("Closed", 5, 10)),
    "A3": (lambda: classical(a_rows(3)), {}, ("Closed", 14, 42)),
    "A4": (lambda: classical(a_rows(4)), {}, ("Closed", 42, 168)),
    "A5": (lambda: classical(a_rows(5)), {}, ("Closed", 132, 660)),
    "B3": (lambda: classical(B3_ROWS), {}, ("Closed", 20, 60)),
    "D4": (lambda: classical(D4_ROWS), {}, ("Closed", 50, 200)),
    "F4": (lambda: classical(F4_ROWS), {}, ("Closed", 105, 420)),
    "G2": (lambda: classical(G2_ROWS), {}, ("Closed", 8, 16)),
    "quantum-A3": (lambda: principal_seed(a_rows(3)), {}, ("Closed", 14, 42)),
    "quantum-D4": (lambda: principal_seed(D4_ROWS), {}, ("Closed", 50, 200)),
    "quantum-G2": (lambda: principal_seed(G2_ROWS), {}, ("Closed", 8, 16)),
    "kronecker-frozen": (
        lambda: classical(KRONECKER + [[1, -1]], [0, 1]),
        {"max_depth": 8},
        ("CappedByDepth", 17, 30),
    ),
    "kronecker-4-frozen": (
        lambda: classical(KRONECKER_4 + [[1, -1]], [0, 1]),
        {"max_depth": 8},
        ("CappedByDepth", 17, 30),
    ),
    "kronecker-quantum": (
        lambda: principal_seed(KRONECKER),
        {"max_depth": 8},
        ("CappedByDepth", 17, 30),
    ),
    "kronecker-4-quantum": (
        lambda: principal_seed(KRONECKER_4),
        {"max_depth": 8},
        ("CappedByDepth", 17, 30),
    ),
    # a symmetrizer of 10^18 spreads each coefficient's terms 10^18 apart
    "kronecker-quantum-wide": (
        lambda: principal_seed(KRONECKER, None, [10**18, 10**18]),
        {"max_depth": 6},
        ("CappedByDepth", 13, 22),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_every_edge_recomputes_exactly(name):
    build, kwargs, expected = EDGE_CASES[name]
    g = explore(build(), **kwargs)
    assert (g.status.value, g.node_count, g.edge_count) == expected
    for src, k, dst in g.edges:
        assert canonical_key(mutate(g.nodes[src], k)) == dst


@pytest.mark.parametrize(
    "max_seeds, expected",
    [
        (1, (1, 0)),
        (2, (2, 1)),
        (3, (3, 2)),
        (7, (7, 7)),
        (20, (20, 32)),
        (41, (41, 78)),
    ],
)
def test_seed_cap_counts_pinned_on_a5(max_seeds, expected):
    g = explore(classical(a_rows(5)), max_seeds=max_seeds)
    assert g.status is GraphStatus.CAPPED_BY_SEEDS
    assert (g.node_count, g.edge_count) == expected


# sha256 of export_json(graph, full=True), recorded when every edge was
# still computed by its own mutation
EXPORT_DIGESTS = {
    "A5": (
        lambda: classical(a_rows(5)),
        {},
        "c0d7cf95c1f0c494c12587ab5443ad83d9b2ef02797f3ad00edba92079d13c2d",
    ),
    "quantum-D4": (
        lambda: principal_seed(D4_ROWS),
        {},
        "168c53ebb5e2f91be4068a031f40bb1f75bbc716654d8b10198410a34c7b6975",
    ),
    "kronecker-depth-10": (
        lambda: classical(KRONECKER),
        {"max_depth": 10},
        "44795ffbc84b595b7ce28c8e4fa7073a8bbe0fbe60c3edfe01ff8ec27d5572c6",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_bytes_pinned(name):
    build, kwargs, digest = EXPORT_DIGESTS[name]
    text = export_json(explore(build(), **kwargs), full=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of export_dot of the same graphs, recorded before its labels were
# memoised per distinct variable; every graph has labels cut at 28 characters
EXPORT_DOT_DIGESTS = {
    "A5": "ef39f6782cf186ecf7601a66c98ea62dd0c2ba1df476454ca78cba1d5b7be7ee",
    "quantum-D4": "f27bde60318be6e38d817553bda4820a798c4dec9b0aa4ec566e934d736d4abf",
    "kronecker-depth-10": "8dc300186662f2cee19fae10c1c53f0f4054ac15429cbe0df0c4a33a6cdc972a",
}


@pytest.mark.parametrize("name", sorted(EXPORT_DOT_DIGESTS))
def test_export_dot_bytes_pinned(name):
    build, kwargs, _ = EXPORT_DIGESTS[name]
    text = export_dot(explore(build(), **kwargs))
    assert "..." in text  # a label was cut
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DOT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPORT_DOT_DIGESTS))
def test_exports_of_one_graph_share_one_display_order(name, monkeypatch):
    build, kwargs, digest = EXPORT_DIGESTS[name]
    graph, fresh = explore(build(), **kwargs), explore(build(), **kwargs)
    ids = fresh.node_ids()
    calls = []
    real = ExchangeGraph.node_ids
    monkeypatch.setattr(ExchangeGraph, "node_ids", lambda self: calls.append(self) or real(self))
    texts = [export_json(graph, full=True), export_dot(graph), export_json(graph, full=True)]
    assert calls == [graph]  # the ids and both sorts are made once per graph
    assert hashlib.sha256(texts[0].encode()).hexdigest() == digest
    assert hashlib.sha256(texts[1].encode()).hexdigest() == EXPORT_DOT_DIGESTS[name]
    assert texts[2] == texts[0]
    # the cached order is no field: the graph still equals an unexported one
    assert graph == fresh and graph.node_ids() == ids


def _poly(constant, *more):
    """-constant - x2 + 3*x1 + 12*x1^2*x2, plus more terms: a negative first coefficient."""
    return CommLaurent(2, [((0, 0), -constant), ((1, 0), 3), ((0, 1), -1), ((2, 1), 12), *more])


L2 = SkewMatrix([[0, 1], [-1, 0]])
SUMMARY_CASES = [
    (_poly(1), 27),
    (_poly(10), 28),
    (_poly(100), 29),
    (_poly(10, ((3, 0), 1)), 35),  # a piece ends at 28, another follows
    (_poly(1, *[((i, 2), -i) for i in range(3, 60)]), 925),
    (TorusElement(L2, {(1, 0): QLaurent({0: 1, 2: -3})}), 17),
    (TorusElement(L2, {(1, 0): QLaurent({0: 1, 2: -3}), (0, 1): QLaurent({1: 2}),
                       (1, 1): QLaurent.one()}), 47),  # cut inside "(1 - 3*q)"
]


@pytest.mark.parametrize("var, length", SUMMARY_CASES)
def test_dot_summary_is_str_cut_at_28(var, length):
    # the label renders pieces of str(v) until it is past 28 characters
    text = str(var)
    assert len(text) == length
    seed = SimpleNamespace(b=SimpleNamespace(ex=(0,)), vars=[var])
    assert _cluster_summary(seed, {}) == (text if length <= 28 else text[:25] + "...")


def test_dot_summary_renders_only_the_pieces_it_keeps(monkeypatch):
    var, _ = SUMMARY_CASES[4]
    want = str(var)[:25] + "..."
    drawn = []
    pieces = CommLaurent._pieces

    def counted(self):
        for piece in pieces(self):
            drawn.append(piece)
            yield piece

    monkeypatch.setattr(CommLaurent, "_pieces", counted)
    monkeypatch.setattr(CommLaurent, "__str__", lambda self: pytest.fail("str() called"))
    seed = SimpleNamespace(b=SimpleNamespace(ex=(0,)), vars=[var])
    assert _cluster_summary(seed, {}) == want
    assert len(drawn) == 5 < len(var)  # 27 characters after four pieces


def unmemoised_export_json(graph, full):
    """export_json as json.dumps of the whole record, dump_seed(full=full) per node."""
    ids = graph.node_ids()
    keys = sorted(graph.nodes, key=lambda key: (graph.depths[key], ids[key]))
    edges = sorted(graph.edges, key=lambda e: (ids[e[0]], e[1], ids[e[2]]))
    data = {
        "status": graph.status.value,
        "root": ids[graph.root],
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "nodes": [
            {"id": ids[key], "depth": graph.depths[key],
             "seed": dump_seed(graph.nodes[key], full=full)}
            for key in keys
        ],
        "edges": [{"from": ids[a], "k": k + 1, "to": ids[c]} for a, k, c in edges],
    }
    return json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_json_equals_json_dumps_of_the_record(name, full):
    build, kwargs, _ = EXPORT_DIGESTS[name]
    g = explore(build(), **kwargs)
    assert export_json(g, full=full) == unmemoised_export_json(g, full)


# explorations cut before they close: max_depth=0 and max_seeds=1 leave the
# root alone, with an empty edge list
CAPPED_EXPORTS = {
    "max_depth=0": ({"max_depth": 0}, GraphStatus.CAPPED_BY_DEPTH, 1),
    "max_seeds=1": ({"max_seeds": 1}, GraphStatus.CAPPED_BY_SEEDS, 1),
    "max_seeds=3": ({"max_seeds": 3}, GraphStatus.CAPPED_BY_SEEDS, 3),
}


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("cap", sorted(CAPPED_EXPORTS))
@pytest.mark.parametrize(
    "build",
    [lambda: classical(a_rows(5)), lambda: principal_seed(D4_ROWS)],
    ids=["A5", "principal-D4"],
)
def test_export_json_of_capped_graphs_equals_json_dumps_of_the_record(build, cap, full):
    kwargs, status, nodes = CAPPED_EXPORTS[cap]
    g = explore(build(), **kwargs)
    assert (g.status, g.node_count) == (status, nodes)
    text = export_json(g, full=full)
    assert text == unmemoised_export_json(g, full)
    assert ('"edges": []' in text) == (g.edge_count == 0) == (nodes == 1)


def _scaled_frozen(rows, ex, factor):
    """The initial classical seed over rows but with its last (frozen) variable times factor."""
    seed = classical(rows, ex)
    return ClassicalSeed(seed.b, seed.vars[:-1] + (factor * seed.vars[-1],))


def _coefficients(graph):
    return [t["coeff"] for seed in graph.nodes.values() for v in seed.vars for t in v.to_json()]


# record shapes and coefficient texts the pinned digests do not cover, each with
# a check that the graph still has what it is here for
EXPORT_SHAPES = {
    "A3-frozen": (
        lambda: classical(a_rows(3) + [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2]),
        {},
        lambda g: all(seed.m == 6 > seed.n for seed in g.nodes.values()),
    ),
    "kronecker-quantum-depth-8": (
        lambda: principal_seed(KRONECKER),
        {"max_depth": 8},
        # exponent strings whose text order is not their numeric order
        lambda g: any({"-2", "10", "2"} <= set(c) for c in _coefficients(g)),
    ),
    "kronecker-frozen-big-negative": (
        lambda: _scaled_frozen(KRONECKER + [[1, -1]], [0, 1], -(2**70)),
        {"max_depth": 6},
        lambda g: any(int(c) < -(2**64) for c in _coefficients(g))
        and any(int(c) > 2**64 for c in _coefficients(g)),
    ),
    "A2-zero-frozen": (
        lambda: _scaled_frozen(a_rows(2) + [[1, -1]], [0, 1], 0),
        {},
        lambda g: g.node_count == 5 and all(not seed.vars[2] for seed in g.nodes.values()),
    ),
}


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("name", sorted(EXPORT_SHAPES))
def test_export_json_of_other_shapes_equals_json_dumps_of_the_record(name, full):
    build, kwargs, has_shape = EXPORT_SHAPES[name]
    g = explore(build(), **kwargs)
    assert has_shape(g)
    assert export_json(g, full=full) == unmemoised_export_json(g, full)


def test_export_json_of_mixed_record_shapes_equals_json_dumps_of_the_record():
    # a graph is one mutation class, so one record shape; two shapes in one
    # graph (built here by hand) must each get their own layout
    a3, a2 = explore(classical(a_rows(3))), explore(principal_seed(a_rows(2)))
    nodes = {**a3.nodes, **a2.nodes}
    g = ExchangeGraph(a3.root, nodes, {**a3.depths, **a2.depths}, {**a3.parents, **a2.parents},
                      a3.edges + a2.edges, GraphStatus.CLOSED)
    for full in (True, False):
        assert export_json(g, full=full) == unmemoised_export_json(g, full)


@pytest.fixture
def indented_calls(monkeypatch):
    """The objects of the outermost _indented calls, the writer's own recursion left out."""
    import qcluster.explorer

    calls, inside = [], []
    original = qcluster.explorer._indented

    def counted(obj, nl="\n"):
        if not inside:
            calls.append(obj)
        inside.append(obj)
        try:
            return original(obj, nl)
        finally:
            inside.pop()

    monkeypatch.setattr(qcluster.explorer, "_indented", counted)
    return calls


@pytest.mark.parametrize("full", [True, False])
def test_export_json_lays_out_records_and_terms_once(indented_calls, full):
    # a torus coefficient ({v-exponent: coefficient} strings) is rendered per
    # term; every other call lays out a shape, at most once per export
    def count(build, **kwargs):
        g = explore(build(), **kwargs)
        indented_calls.clear()
        export_json(g, full=full)
        coeffs = [c for c in indented_calls if type(c) is dict and all(type(x) is str for x in c.values())]
        distinct = {_var_key(v): v for seed in g.nodes.values() for v in seed.vars}
        terms = sum(len(v) for v in distinct.values() if isinstance(v, TorusElement))
        assert len(coeffs) == (terms if full else 0)
        return len(indented_calls) - len(coeffs)

    layouts = {
        count(lambda: classical(a_rows(4))),
        count(lambda: classical(a_rows(5))),
        count(lambda: classical(KRONECKER + [[1, -1]], [0, 1]), max_depth=10),
        count(lambda: principal_seed(D4_ROWS)),
        count(lambda: principal_seed(KRONECKER), max_depth=6),
    }
    assert layouts == {5 if full else 4}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_json_renders_each_distinct_variable_once(name, monkeypatch):
    build, kwargs, _ = EXPORT_DIGESTS[name]
    g = explore(build(), **kwargs)
    calls = []
    for cls in (CommLaurent, TorusElement):
        original = cls.to_json
        monkeypatch.setattr(cls, "to_json", lambda v, f=original: calls.append(v) or f(v))
    export_json(g, full=True)
    distinct = {_var_key(v) for seed in g.nodes.values() for v in seed.vars}
    slots = sum(len(seed.vars) for seed in g.nodes.values())
    assert len(calls) == len(distinct) < slots


WRITER_CASES = {
    "empty top dict": {},
    "empty top list": [],
    "nested empties": {"a": [], "b": {}, "c": [[], {}, [[]]], "d": [{}]},
    "strings": ["caf\u00e9 \u2200 \U0001f600", "tab\tnul\x00 bell\x07\x1f", 'q"uote', "back\\slash", ""],
    "keys": {"caf\u00e9": 1, "\n\x00": 2, '"': 3, "\\": 4, "": 5, "\U0001f600": 6},
    "constants": [True, False, None, {"t": True, "f": False, "n": None}],
    "ints": [0, -1, -(10**30), 10**30, [1, -2, 10**30]],
    "tuple": (1, (2, 3), ("x", None), ()),
    "mixed list": [1, "a", [1, 2], {"k": [3]}, True, 0],
    "top string": "\u00e9\"\\",
    "top int": -7,
    "top null": None,
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_indented_writer_matches_json_dumps(name):
    from qcluster.explorer import _indented

    value = WRITER_CASES[name]
    assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)


def test_indented_writer_rejects_what_json_rejects():
    from qcluster.explorer import _indented

    for value in ({1, 2}, [object()], {"k": b"bytes"}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _indented(value)


@pytest.fixture
def mutate_calls(monkeypatch):
    import qcluster.explorer

    calls = []

    def counting(seed, k, **kwargs):
        calls.append(k)
        return mutate(seed, k, **kwargs)

    monkeypatch.setattr(qcluster.explorer, "mutate", counting)
    return calls


@pytest.mark.parametrize(
    "build, kwargs, expected",
    [
        (lambda: classical(a_rows(5)), {}, 330),
        (lambda: principal_seed(D4_ROWS), {}, 100),
        (lambda: classical(KRONECKER), {"max_depth": 10}, 20),
        (lambda: principal_seed(KRONECKER), {"max_depth": 4}, 8),
    ],
    ids=["A5", "quantum-D4", "kronecker-depth-10", "kronecker-quantum-depth-4"],
)
def test_explore_mutates_each_edge_once(mutate_calls, build, kwargs, expected):
    g = explore(build(), **kwargs)
    assert len(mutate_calls) == expected
    if g.status is GraphStatus.CLOSED:
        assert len(mutate_calls) == g.edge_count // 2


def test_laurent_report_mutates_once_per_step(mutate_calls):
    seq = [0, 1, 2, 1, 0, 3, 2]
    rep = laurent_report(principal_seed(D4_ROWS), seq)
    assert rep.ok
    assert len(mutate_calls) == len(seq)


# -- keys spliced from cached variable bytes ---------------------------------


def compact(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def reference_key(seed):
    """The key as the bytes of the built canonical seed's record, written out here.

    The record is built by hand, not by dump_seed, so the spliced key is
    checked against a writer that shares no code with it.
    """
    canon = canonical_form(seed)[0]
    record = {
        "m": canon.m,
        "n": canon.n,
        "ex": [k + 1 for k in canon.ex],
        "B": [list(row) for row in canon.b.rows()],
        "vars": [v.to_json() for v in canon.vars],
    }
    if isinstance(canon, QuantumSeed):
        record["Lambda"] = [list(row) for row in canon.lam.rows()]
        record["d"] = list(canon.d)
    return compact(record)


def relabeled(seed, perm):
    """seed with row i taken from row perm[i]; perm fixes the frozen rows."""
    b = seed.b
    cols = [b.position(perm[k]) for k in b.ex]
    rows = [[b.entry(perm[i], j) for j in cols] for i in range(seed.m)]
    return ClassicalSeed(ExchangeMatrix(rows, b.ex), tuple(seed.vars[i] for i in perm))


LAMBDA0_D4 = [[0, 1, 0, -2], [-1, 0, 3, 0], [0, -3, 0, 1], [2, 0, -1, 0]]

# (root, explore keyword arguments, expected (status, nodes, edges))
KEY_CASES = {
    "A5-relabeled-root": (
        lambda: relabeled(classical(a_rows(5)), [3, 0, 4, 1, 2]),
        {},
        ("Closed", 132, 660),
    ),
    "kronecker-two-frozen": (
        lambda: classical(KRONECKER + [[1, -1], [2, 3]], [0, 1]),
        {"max_depth": 8},
        ("CappedByDepth", 17, 30),
    ),
    "quantum-D4-lambda0": (
        lambda: principal_seed(D4_ROWS, LAMBDA0_D4),
        {},
        ("Closed", 50, 200),
    ),
    "kronecker-quantum-wide": EDGE_CASES["kronecker-quantum-wide"],
    # d = (1, 1, 2): relabeling must permute d as well
    "quantum-B3": (lambda: principal_seed(B3_ROWS), {}, ("Closed", 20, 60)),
    # one column: each relabeled row is one entry, frozen rows below it
    "rank1-two-frozen": (lambda: classical([[0], [2], [-1]], [0]), {}, ("Closed", 2, 2)),
    "quantum-rank1": (lambda: principal_seed([[0]]), {}, ("Closed", 2, 2)),
    # the frozen row sits between the exchangeable ones
    "interleaved-ex": (
        lambda: classical([[0, 1], [3, -2], [-1, 0]], [0, 2]),
        {},
        ("Closed", 5, 10),
    ),
    # Lambda entries past 2^63 fill the key's integer slots
    "kronecker-quantum-huge-lambda0": (
        lambda: principal_seed(KRONECKER, [[0, 10**18], [-(10**18), 0]]),
        {"max_depth": 4},
        ("CappedByDepth", 9, 14),
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_CASES))
def test_spliced_key_equals_dump_seed_bytes(name):
    build, kwargs, expected = KEY_CASES[name]
    g = explore(build(), **kwargs)
    assert (g.status.value, g.node_count, g.edge_count) == expected
    for key, seed in g.nodes.items():
        assert canonical_key(seed) == reference_key(seed) == key
        # the relabeled Lambda, d and variables still fit together
        assert isinstance(seed, ClassicalSeed) or verify_quantum_seed(seed).ok
    for src, k, dst in g.edges:
        child = mutate(g.nodes[src], k)  # before relabeling
        assert canonical_key(child) == reference_key(child) == dst


def test_relabeled_root_reaches_the_same_graph():
    root = classical(a_rows(5))
    g = explore(root)
    h = explore(relabeled(root, [3, 0, 4, 1, 2]))
    assert h.root == g.root
    assert h.nodes == g.nodes and h.edges == g.edges


def test_serving_as_a_key_changes_no_variable():
    s = classical_mutate(classical_mutate(a2_classical(), 0), 1)
    q = quantum_mutate(quantum_mutate(a2_quantum(), 0), 1)
    before = [(v, hash(v), v.to_json(), str(v)) for v in s.vars + q.vars]
    for seed in (s, q, s, q):  # the second pass reads the cached bytes
        canonical_form(seed)
        canonical_key(seed)
    for v, h, data, text in before:
        assert v._bytes == compact(data)  # cached by the first key
        assert (hash(v), v.to_json(), str(v)) == (h, data, text)
        assert v == v.from_json(v._frame, data)
    assert canonical_key(s) == reference_key(s)
    assert canonical_key(q) == reference_key(q)


@pytest.mark.parametrize("seed", [a2_classical(), a2_quantum()], ids=["classical", "quantum"])
def test_raw_elements_serialize_like_constructed_ones(seed):
    x, y = seed.vars
    product = x * y * y + y  # products and sums are made by _raw
    if isinstance(x, TorusElement):
        quotient = product.exact_div_right(y)
    else:
        quotient = product.exact_div(y)
    for raw in (product, quotient):
        built = type(raw)(raw._frame, raw.items())
        assert built == raw
        assert _var_key(raw) == _var_key(built) == compact(built.to_json())


def test_canonical_seeds_built_only_for_new_nodes(monkeypatch):
    builds = []
    real = ClassicalSeed._relabeled

    def counting(self, *args):
        # the relabeled seed, its matrix checked, is the explorer's one build
        builds.append(args)
        return real(self, *args)

    monkeypatch.setattr(ClassicalSeed, "_relabeled", counting)
    g = explore(classical(a_rows(5)))
    assert g.node_count == 132
    # at most one relabeled seed per stored node, none for a key already seen
    assert 0 < len(builds) <= g.node_count
    monkeypatch.undo()
    for node in g.nodes.values():
        canon, pi = canonical_form(node)
        assert canon is node
        assert pi == tuple(range(node.m))


def test_stored_quantum_nodes_are_their_own_canonical_form():
    # a stored node is canonical, so its relabeling is the identity: the node itself
    g = explore(principal_seed(D4_ROWS))
    assert g.node_count == 50
    for node in g.nodes.values():
        canon, pi = canonical_form(node)
        assert canon is node
        assert pi == tuple(range(node.m))



def _count_serializations(monkeypatch, root, **kwargs):
    """(graph, to_json calls, mutations, distinct variables) of one explore."""
    import qcluster.explorer

    serialized, mutations = [], []
    for cls in (CommLaurent, TorusElement):
        real_to_json = cls.__dict__["to_json"]

        def counting(self, real_to_json=real_to_json):
            serialized.append(self)
            return real_to_json(self)

        monkeypatch.setattr(cls, "to_json", counting)
    real_mutate = qcluster.explorer.mutate

    def counting_mutate(seed, k, **kwargs):
        mutations.append(k)
        return real_mutate(seed, k, **kwargs)

    monkeypatch.setattr(qcluster.explorer, "mutate", counting_mutate)
    g = explore(root, **kwargs)
    monkeypatch.undo()
    distinct = {v for node in g.nodes.values() for v in node.vars}
    return g, len(serialized), len(mutations), len(distinct)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: classical(a_rows(5)), (132, 20, 330, 20)),
        (lambda: principal_seed(D4_ROWS), (50, 20, 100, 20)),
    ],
    ids=["A5", "quantum-D4"],
)
def test_explore_serializes_each_distinct_variable_once(monkeypatch, build, expected):
    # a finite type keeps returning to its variables: a repeat takes the
    # first equal variable's bytes instead of serializing again
    g, serialized, mutations, distinct = _count_serializations(monkeypatch, build())
    assert (g.node_count, serialized, mutations, distinct) == expected


def test_kronecker_explore_serializes_one_variable_per_mutation(monkeypatch):
    # an infinite type never repeats a variable: the root's 3, then one each
    root = classical(KRONECKER + [[1, -1]], [0, 1])
    g, serialized, mutations, distinct = _count_serializations(monkeypatch, root, max_depth=8)
    assert g.node_count == 17
    assert serialized == distinct == 3 + mutations == 19


@pytest.mark.parametrize(
    "build, kwargs, expected",
    [
        (lambda: classical(a_rows(5)), {}, (15, 330)),
        (lambda: principal_seed(D4_ROWS), {}, (12, 100)),
        (lambda: classical(KRONECKER + [[1, -1]], [0, 1]), {"max_depth": 8}, (16, 16)),
    ],
    ids=["A5", "quantum-D4", "kronecker-depth-8"],
)
def test_explore_divides_only_for_variables_it_has_not_met(
    monkeypatch, mutate_calls, build, kwargs, expected
):
    # a finite type meets each of its variables again and again: the check
    # proves a known one, so the divisions are the variables beyond the root's
    root = build()
    divisions = count_divisions(monkeypatch)
    g = explore(root, **kwargs)
    assert (len(divisions), len(mutate_calls)) == expected
    met = {v for node in g.nodes.values() for v in node.vars}
    assert len(divisions) == len(met - set(root.vars))


@pytest.mark.parametrize(
    "build, kwargs, expected",
    [
        (lambda: classical(a_rows(5)), {}, (70, 330)),
        (lambda: principal_seed(D4_ROWS), {}, (54, 100)),
        (lambda: classical(KRONECKER + [[1, -1]], [0, 1]), {"max_depth": 8}, (16, 16)),
    ],
    ids=["A5", "quantum-D4", "kronecker-depth-8"],
)
def test_explore_proves_each_exchange_once(monkeypatch, mutate_calls, build, kwargs, expected):
    # a finite type meets one exchange (the same variable objects, exponents
    # and v-shifts, so the same numerator) on many edges: its numerator is
    # built and checked once; an infinite type never meets one twice
    tables = captured_tables(monkeypatch)
    numerators = count_numerators(monkeypatch)
    explore(build(), **kwargs)
    assert (len(proved(tables[0])), len(mutate_calls)) == expected
    assert len(numerators) == 2 * expected[0]


def test_explore_and_laurent_report_keep_no_table_between_calls(monkeypatch):
    # a second exploration of an equal root serializes its variables afresh
    explore(classical(a_rows(3)))
    g, serialized, mutations, distinct = _count_serializations(monkeypatch, classical(a_rows(3)))
    assert (g.node_count, serialized, mutations, distinct) == (14, 9, 21, 9)
    # a second report divides afresh: each walk goes out and back twice, and
    # only the way out divides
    divisors = count_divisions(monkeypatch)
    for _ in range(2):
        divisors.clear()
        assert laurent_report(classical(a_rows(3)), [0, 0, 1, 1]).ok
        assert len(divisors) == 2
    # a second call proves afresh, even from the very same root objects: a
    # walk out and back twice proves four exchanges
    tables = captured_tables(monkeypatch)
    numerators = count_numerators(monkeypatch)
    root = classical(a_rows(3))
    for _ in range(2):
        explore(root)
        laurent_report(root, [0, 0, 1, 1])
    assert [len(proved(t)) for t in tables] == [len(proved(tables[0])), 4] * 2
    assert len(numerators) == 2 * sum(len(proved(t)) for t in tables)


@pytest.mark.parametrize("rows, nodes", [(D4_ROWS, 50), (F4_ROWS, 105)], ids=["D4", "F4"])
def test_derived_frames_are_skew_and_every_node_verifies(rows, nodes):
    # mutated and relabeled frames skip SkewMatrix's validation; the public
    # constructor re-checks every one, and the axioms are re-derived
    g = explore(principal_seed(rows))
    assert g.node_count == nodes
    for node in g.nodes.values():
        assert node.lam == SkewMatrix(node.lam.rows())
        assert verify_quantum_seed(node).ok
