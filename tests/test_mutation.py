"""Exchange relations: classical and quantum mutation, seed verification."""

import random

import pytest

from qcluster import (
    ClassicalSeed,
    ClusterError,
    CommLaurent,
    ExchangeMatrix,
    NotDivisibleError,
    QLaurent,
    QuantumSeed,
    SkewMatrix,
    TorusElement,
    classical_mutate,
    explore,
    mutate,
    principal_seed,
    quantum_mutate,
    specialize_seed,
    verify_quantum_seed,
)

from helpers import (
    A2_ROWS,
    A3_ROWS,
    count_divisions,
    count_numerators,
    proved,
    random_exchange_matrix,
    random_principal_quantum_seed,
    random_skew,
)
from oracles import kronecker_variable, positive_roots, quantum_kronecker_variable
from qcluster.mutation import _ends, _Exchanges

L2 = SkewMatrix([[0, 1], [-1, 0]])


def a2_classical():
    return ClassicalSeed.initial(ExchangeMatrix(A2_ROWS))


def a2_quantum():
    return QuantumSeed.initial(ExchangeMatrix(A2_ROWS), L2)


def m2n1_quantum():
    return QuantumSeed.initial(
        ExchangeMatrix([[0], [1]], ex=[0]), SkewMatrix([[0, -1], [1, 0]])
    )


# -- classical ----------------------------------------------------------


def test_classical_a2_first_steps():
    s1 = classical_mutate(a2_classical(), 0)
    assert s1.vars[0] == CommLaurent(2, {(-1, 0): 1, (-1, 1): 1})
    assert s1.b.rows() == ((0, -1), (1, 0))
    s2 = classical_mutate(s1, 1)
    assert s2.vars[1] == CommLaurent(2, {(0, -1): 1, (-1, -1): 1, (-1, 0): 1})
    # the untouched variable is carried over
    assert s2.vars[0] == s1.vars[0]


def test_classical_zero_column():
    s = ClassicalSeed.initial(ExchangeMatrix([[0]]))
    s1 = classical_mutate(s, 0)
    assert s1.vars[0] == CommLaurent(1, {(-1,): 2})
    assert classical_mutate(s1, 0) == s


def test_classical_frozen_rows_enter_exchange():
    # frozen variable with coefficient band: b = [[0], [1], [-1]]
    b = ExchangeMatrix([[0], [1], [-1]], ex=[0])
    s = ClassicalSeed.initial(b)
    s1 = classical_mutate(s, 0)
    # x1' x1 = x2 + x3
    assert s1.vars[0] == CommLaurent(3, {(-1, 1, 0): 1, (-1, 0, 1): 1})
    assert s1.vars[1] == s.vars[1]
    assert s1.vars[2] == s.vars[2]


def test_classical_pentagon_walk():
    s = a2_classical()
    seen = {frozenset(s.vars)}
    for k in (0, 1, 0, 1, 0):
        s = classical_mutate(s, k)
        seen.add(frozenset(s.vars))
    # five clusters, and the walk ends on the initial cluster transposed
    assert len(seen) == 5
    assert s.vars == (a2_classical().vars[1], a2_classical().vars[0])
    assert s.b.rows() == ((0, -1), (1, 0))


def test_classical_involutive_random():
    rng = random.Random(51)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, m)
        s = ClassicalSeed.initial(random_exchange_matrix(rng, m, n))
        for k in s.ex:
            assert classical_mutate(classical_mutate(s, k), k) == s


def test_classical_not_divisible_surfaces():
    # hand-built seed whose "cluster" is not free: division must fail
    b = ExchangeMatrix(A2_ROWS)
    x1 = CommLaurent.generator(2, 0)
    x2 = CommLaurent.generator(2, 1)
    bad = ClassicalSeed(b, (x1 + x2, x2))
    with pytest.raises(NotDivisibleError) as info:
        classical_mutate(bad, 0)
    assert info.value.direction == 0
    assert info.value.seed is bad


def test_seeds_built_with_a_list_of_variables_mutate():
    # the exchange step builds a tuple from vars, whatever sequence it was
    b = ExchangeMatrix(A2_ROWS)
    c = a2_classical()
    assert classical_mutate(ClassicalSeed(b, list(c.vars)), 0) == classical_mutate(c, 0)
    q = a2_quantum()
    listed = QuantumSeed(q.lam, b, list(q.vars), q.d)
    assert quantum_mutate(listed, 0) == quantum_mutate(q, 0)


# -- quantum ------------------------------------------------------------


def test_quantum_m2n1_new_variable():
    s1 = quantum_mutate(m2n1_quantum(), 0)
    lam = s1.vars[0].lam
    assert s1.vars[0] == TorusElement(lam, {(-1, 1): 1, (-1, 0): 1})
    # ordered-product view: q^{-1/2} X1^{-1} X2 + X1^{-1}
    assert s1.vars[0].ordered_terms() == [
        ((-1, 0), QLaurent.one()),
        ((-1, 1), QLaurent.v_power(-1)),
    ]
    # frame transported
    assert s1.lam.rows() == ((0, 1), (-1, 0))
    assert s1.d == (1,)


def test_quantum_a2_new_variable():
    s1 = quantum_mutate(a2_quantum(), 0)
    lam = s1.vars[0].lam
    assert s1.vars[0] == TorusElement(lam, {(-1, 0): 1, (-1, 1): 1})
    assert s1.b.rows() == ((0, -1), (1, 0))


def test_quantum_involutive_on_reference_seeds():
    for s in (m2n1_quantum(), a2_quantum()):
        for k in s.ex:
            s1 = quantum_mutate(s, k)
            assert quantum_mutate(s1, k) == s


def test_quantum_involutive_random_principal():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 2)
        s = random_principal_quantum_seed(rng, n)
        for k in s.ex:
            assert quantum_mutate(quantum_mutate(s, k), k) == s


def test_quantum_remultiplication_identity():
    # X'_k * X_k reproduces the two-term exchange numerator exactly;
    # the second term picks up the right-division twist v^{Lambda(g,e_k)}
    s = a2_quantum()
    s1 = quantum_mutate(s, 0)
    prod = s1.vars[0] * s.vars[0]
    lam = s.vars[0].lam
    expected = TorusElement(
        lam, {(0, 0): QLaurent.one(), (0, 1): QLaurent.v_power(-1)}
    )
    assert prod == expected


def test_quantum_frozen_variables_never_change():
    s = m2n1_quantum()
    walk = s
    for k in (0, 0, 0):
        walk = quantum_mutate(walk, k)
        assert walk.vars[1] == s.vars[1]


def test_quantum_deeper_walk_verifies():
    s = random_principal_quantum_seed(random.Random(57), 2)
    rng = random.Random(59)
    for _ in range(8):
        k = rng.choice(s.ex)
        s = quantum_mutate(s, k)
        rep = verify_quantum_seed(s)
        assert rep.ok, rep


def test_specialization_square_on_walks():
    rng = random.Random(61)
    for caseno in range(20):
        n = rng.randint(1, 2)
        qs = random_principal_quantum_seed(rng, n)
        cs = specialize_seed(qs)
        for _ in range(5):
            k = rng.choice(qs.ex)
            qs = quantum_mutate(qs, k)
            cs = classical_mutate(cs, k)
            assert qs.vars[k].specialize_q1() == cs.vars[k]
        assert specialize_seed(qs) == cs


def test_quantum_not_divisible_carries_its_context():
    # (x1 + x2, x2) is not a free cluster, so the exchange at 0 cannot divide
    x1, x2 = a2_quantum().vars
    bad = QuantumSeed(L2, ExchangeMatrix(A2_ROWS), (x1 + x2, x2), (1, 1))
    with pytest.raises(NotDivisibleError) as info:
        quantum_mutate(bad, 0)
    exc = info.value
    assert exc.direction == 0 and exc.seed is bad and exc.path is None
    assert str(exc).startswith("mutation at direction 0 left the quantum torus")
    # explore re-raises that error with the path from the root set
    with pytest.raises(NotDivisibleError) as info:
        explore(bad)
    assert info.value.path == (0,)
    assert info.value.direction == 0 and info.value.seed is bad
    assert str(info.value) == str(exc)


@pytest.mark.parametrize(
    "seed, cls, attr, kind",
    [
        (a2_classical, CommLaurent, "exact_div", "classical"),
        (a2_quantum, TorusElement, "exact_div_right", "quantum"),
    ],
    ids=["classical", "quantum"],
)
def test_remultiplication_check_fires(monkeypatch, seed, cls, attr, kind):
    # a division that returns the true quotient plus one must not pass, and
    # the exchange is not filed as proved
    divide = getattr(cls, attr)
    monkeypatch.setattr(cls, attr, lambda self, g: divide(self, g) + cls.one(self._frame))
    known = _Exchanges()
    with pytest.raises(ClusterError) as info:
        mutate(seed(), 0, _known=known)
    assert str(info.value) == f"re-multiplication check failed after {kind} division"
    assert proved(known) == []


# -- a known variable is proved by the check, a new one divided ----------


def _planted(seed, quotient):
    """A variable with the quotient's end keys and a wrong middle."""
    if isinstance(seed, QuantumSeed):  # one more term strictly between the ends
        return quotient + TorusElement.monomial(seed.lam, (-2, 2))
    return CommLaurent(2, {(-1, 1): 1, (-1, 0): 2})  # (x2 + 2) / x1 for (x2 + 1) / x1


@pytest.mark.parametrize("seed", [a2_classical, a2_quantum], ids=["classical", "quantum"])
def test_planted_candidate_fails_the_check_and_the_quotient_is_used(monkeypatch, seed):
    plain = mutate(seed(), 0)
    quotient = plain.vars[0]
    planted = _planted(seed(), quotient)
    ends = _ends(quotient)
    assert _ends(planted) == ends and planted != quotient and len(ends) == 2
    divisors = count_divisions(monkeypatch)
    known = _Exchanges([planted])
    got = mutate(seed(), 0, _known=known)
    # the planted candidate is skipped, not raised; the division's quotient
    # is used and filed after it
    assert got == plain and len(divisors) == 1
    assert known.met[ends][0] is planted and known.met[ends][1] is got.vars[0]
    # a second mutation meets the quotient: it passes the check, no division
    again = mutate(seed(), 0, _known=known)
    assert again == plain and again.vars[0] is got.vars[0] and len(divisors) == 1


def test_zero_divisor_raises_even_when_every_candidate_would_pass():
    # with vars (0, -1) the A2 exchange at 0 is (-1 + 1) / 0: h * 0 == 0 for
    # every h, so no candidate is tried and the division raises
    zero, one = CommLaurent.zero(2), CommLaurent.constant(2, 1)
    seed = ClassicalSeed(ExchangeMatrix(A2_ROWS), (zero, -one))
    known = _Exchanges([zero, one, -one])
    with pytest.raises(ZeroDivisionError):
        mutate(seed, 0, _known=known)
    with pytest.raises(ZeroDivisionError):
        explore(seed)


def test_a_zero_quotient_is_found_by_the_check_or_the_division():
    # with vars (x1, -1) the exchange at 0 is (-1 + 1) / x1 = 0
    x1 = CommLaurent.generator(2, 0)
    seed = ClassicalSeed(ExchangeMatrix(A2_ROWS), (x1, -CommLaurent.constant(2, 1)))
    known = _Exchanges(seed.vars)
    assert mutate(seed, 0, _known=known).vars[0] == 0
    assert known.met[()] == [0]
    assert mutate(seed, 0, _known=known).vars[0] is known.met[()][0]


# -- an exchange is proved once per table, on the very same objects ------


@pytest.mark.parametrize("seed", [a2_classical, a2_quantum], ids=["classical", "quantum"])
def test_a_proved_exchange_is_taken_without_its_numerator(monkeypatch, seed):
    root = seed()
    numerators = count_numerators(monkeypatch)
    known = _Exchanges(root.vars)
    got = mutate(root, 0, _known=known)
    assert proved(known) == [(got.vars[0], root.vars)] and len(numerators) == 2
    # the same objects again: no numerator, no division, the same quotient
    divisors = count_divisions(monkeypatch)
    again = mutate(root, 0, _known=known)
    assert again == got and again.vars[0] is got.vars[0]
    assert len(numerators) == 2 and divisors == [] and len(proved(known)) == 1


@pytest.mark.parametrize("seed", [a2_classical, a2_quantum], ids=["classical", "quantum"])
def test_equal_but_distinct_variables_never_share_a_proof(monkeypatch, seed):
    first, second = seed(), seed()
    assert first == second and all(a is not b for a, b in zip(first.vars, second.vars))
    numerators = count_numerators(monkeypatch)
    known = _Exchanges(first.vars)
    got = mutate(first, 0, _known=known)
    # equal objects build and check their own numerator (the check proves the
    # quotient met first, so nothing is divided) and file their own proof
    divisors = count_divisions(monkeypatch)
    other = mutate(second, 0, _known=known)
    assert other.vars[0] is got.vars[0] and divisors == []
    assert len(numerators) == 4 and len(proved(known)) == 2


def test_an_exchange_that_raises_files_no_proof():
    x1, x2 = (CommLaurent.generator(2, i) for i in range(2))
    # the A2 exchange at 0 is (1 + x2) / vars[0]: by 2 x1 it leaves the
    # Laurent ring, by 0 it divides by zero
    cases = [((2 * x1, x2), NotDivisibleError), ((CommLaurent.zero(2), x2), ZeroDivisionError)]
    for vars, error in cases:
        seed = ClassicalSeed(ExchangeMatrix(A2_ROWS), vars)
        known = _Exchanges(vars)
        for _ in range(2):  # a failed exchange raises again: nothing was filed
            with pytest.raises(error):
                mutate(seed, 0, _known=known)
        assert proved(known) == []


# -- positivity: every coefficient of every cluster variable is >= 0 -----
# Classically for skew-symmetrizable B (Gross-Hacking-Keel-Kontsevich,
# JAMS 2018); in Z[v^(+-1)] for quantum seeds over skew-symmetric B
# (Davison, Ann. Math. 2018).  A check on the engine, never a shortcut.


def _a_rows(n):
    return [[1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(n)] for i in range(n)]


D4_ROWS = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
F4_ROWS = [[0, 1, 0, 0], [-1, 0, 2, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
KRONECKER = [[0, 2], [-2, 0]]


def _non_positive(graph):
    """(node key, direction) of each cluster variable with a coefficient <= 0."""
    found = []
    for key, seed in graph.nodes.items():
        for k in seed.ex:
            for _, coeff in seed.vars[k].items():
                terms = coeff.items() if isinstance(coeff, QLaurent) else [(0, coeff)]
                if any(c <= 0 for _, c in terms):
                    found.append((key, k))
                    break
    return found


def test_positivity_oracle_flags_a_negative_coefficient():
    x1, x2 = a2_classical().vars
    bad = ClassicalSeed(ExchangeMatrix(A2_ROWS), (x1 - x2, x2))
    graph = explore(bad, max_depth=0)
    assert _non_positive(graph) == [(graph.root, 0)]


@pytest.mark.parametrize(
    "rows, depth",
    [
        (_a_rows(5), None),
        (D4_ROWS, None),
        (F4_ROWS, None),
        ([[0, 1], [-2, 0]], None),
        ([[0, 1], [-3, 0]], None),
        (KRONECKER, 12),
        ([[0, 1], [-4, 0]], 12),
    ],
    ids=["A5", "D4", "F4", "B2", "G2", "kronecker", "kronecker-4"],
)
@pytest.mark.parametrize("frozen", [0, 2])
def test_classical_positivity(rows, depth, frozen):
    rng = random.Random(71)
    n = len(rows)
    full = rows + [[rng.randint(-2, 2) for _ in range(n)] for _ in range(frozen)]
    graph = explore(ClassicalSeed.initial(ExchangeMatrix(full, range(n))), max_depth=depth)
    assert graph.node_count > 1
    assert _non_positive(graph) == []


@pytest.mark.parametrize(
    "rows, depth, lambdas",
    [(A3_ROWS, None, 3), (D4_ROWS, None, 3), (KRONECKER, 6, 1)],
    ids=["A3", "D4", "kronecker"],
)
def test_quantum_positivity(rows, depth, lambdas):
    n = len(rows)
    assert all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(n))
    rng = random.Random(73)
    for _ in range(lambdas):
        root = principal_seed(rows, random_skew(rng, n, 2))
        graph = explore(root, max_depth=depth)
        assert graph.node_count > 1
        assert _non_positive(graph) == []


# Davison's theorem needs a skew-symmetric B.  On these skew-symmetrizable
# principal closures no coefficient <= 0 has been seen either: the cases pin
# that observed behaviour of the engine; they do not check a theorem.
@pytest.mark.parametrize(
    "rows, nodes",
    [([[0, 1], [-2, 0]], 6), ([[0, 1], [-3, 0]], 8), (F4_ROWS, 105)],
    ids=["B2", "G2", "F4"],
)
def test_observed_quantum_positivity_on_skew_symmetrizable_principal_closures(rows, nodes):
    n = len(rows)
    assert any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(n))
    graph = explore(principal_seed(rows))
    assert graph.node_count == nodes
    assert _non_positive(graph) == []


# -- denominators: the d-vectors are the almost positive roots -------------
# For a bipartite B of finite type, the denominator vectors of the cluster
# variables are the almost positive roots of the Cartan companion A(B)
# (a_ii = 2, a_ij = -|b_ij|), the initial x_i giving -alpha_i (Fomin-
# Zelevinsky, Invent. Math. 154, 2003, Thm 1.9).  For the rank-2 affine
# [[0,2],[-2,0]] the others are the real roots (k, k+1) and (k+1, k)
# (Sherman-Zelevinsky, Moscow Math. J. 4, 2004).  The d-vector is read
# off the support, not LaurentRow.denominator, which clips -1 to 0.


def _cartan(n, bonds):
    """a_ii = 2, and a_ij = -p, a_ji = -q for each bond (i, j, p, q)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, p, q in bonds:
        a[i][j], a[j][i] = -p, -q
    return a


def _path(n, last=(1, 1)):
    """The bonds of the path 0 - 1 - ... - (n-1), the last one (p, q) = last."""
    return [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, *last)]


CARTAN = {
    "A5": _cartan(5, _path(5)),
    "B3": _cartan(3, _path(3, (1, 2))),
    "C3": _cartan(3, _path(3, (2, 1))),
    "D4": _cartan(4, [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)]),
    "F4": _cartan(4, [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)]),
    "G2": _cartan(2, [(0, 1, 1, 3)]),
    "E6": _cartan(6, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (2, 5, 1, 1)]),
}


def _bipartite(cartan):
    """The B with b_ij = -s_i a_ij off the diagonal, s = +-1 alternating along bonds."""
    n = len(cartan)
    sign, todo = {0: 1}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if cartan[i][j] and j not in sign:
                sign[j] = -sign[i]
                todo.append(j)
    return [[0 if i == j else -sign[i] * cartan[i][j] for j in range(n)] for i in range(n)]


# quantum E6 is too slow for tier-1 (over a second), so only its classical case runs
ROOT_CASES = (
    [(name, False) for name in CARTAN]
    + [(name, True) for name in ("A5", "B3", "C3", "D4", "F4", "G2")]
    + [("kronecker", False), ("kronecker", True)]
)
ROOT_IDS = [f"{name}-{'quantum' if quantum else 'classical'}" for name, quantum in ROOT_CASES]


@pytest.mark.parametrize("name, quantum", ROOT_CASES, ids=ROOT_IDS)
def test_denominators_are_almost_positive_roots(name, quantum):
    if name == "kronecker":
        rows, depth = KRONECKER, 8 if quantum else 16
        roots = {(k, k + 1) for k in range(depth)} | {(k + 1, k) for k in range(depth)}
    else:
        rows, depth, roots = _bipartite(CARTAN[name]), None, positive_roots(CARTAN[name])
    n = len(rows)
    root = principal_seed(rows) if quantum else ClassicalSeed.initial(ExchangeMatrix(rows))
    graph = explore(root, max_depth=depth)
    d_vectors = {
        tuple(-x for x in seed.vars[k].min_exponents()[:n])
        for seed in graph.nodes.values()
        for k in seed.ex
    }
    negative_simple = {tuple(-int(i == j) for j in range(n)) for i in range(n)}
    assert d_vectors == roots | negative_simple


@pytest.mark.parametrize("first", [0, 1])
def test_kronecker_chain_matches_the_closed_form(first):
    # mutating at first, 1 - first, first, ... makes x3, x4, ... from the
    # first direction; starting at 1 swaps the roles of x1 and x2
    seed = ClassicalSeed.initial(ExchangeMatrix(KRONECKER))
    for n in range(1, 17):
        k = first if n % 2 else 1 - first
        seed = mutate(seed, k)
        want = kronecker_variable(n)
        if first:
            want = {(b, a): c for (a, b), c in want.items()}
        assert dict(seed.vars[k].items()) == want


def test_quantum_kronecker_chain_matches_the_closed_form():
    seed = QuantumSeed.initial(ExchangeMatrix(KRONECKER), L2)
    assert seed.d == (2, 2)
    for n in range(1, 10):
        k = 1 - n % 2
        seed = mutate(seed, k)
        got = {e: dict(c.items()) for e, c in seed.vars[k].items()}
        assert got == quantum_kronecker_variable(n)


def test_kronecker_exploration_meets_only_closed_form_variables():
    graph = explore(ClassicalSeed.initial(ExchangeMatrix(KRONECKER)), max_depth=16)
    assert graph.node_count == 33
    formulas = [kronecker_variable(n) for n in range(1, 17)]
    formulas += [{(b, a): c for (a, b), c in f.items()} for f in formulas]
    formulas += [{(1, 0): 1}, {(0, 1): 1}]
    variables = {v for seed in graph.nodes.values() for v in seed.vars}
    assert len(variables) == 34
    assert all(dict(v.items()) in formulas for v in variables)


def test_mutate_dispatch():
    assert isinstance(mutate(a2_classical(), 0), ClassicalSeed)
    assert isinstance(mutate(a2_quantum(), 0), QuantumSeed)


def test_quantum_not_exchangeable_rejected():
    with pytest.raises(ValueError):
        quantum_mutate(m2n1_quantum(), 1)


# -- verification report ------------------------------------------------


def test_verify_fresh_seed_passes():
    rep = verify_quantum_seed(a2_quantum())
    assert rep.ok
    assert rep.to_json()["ok"] is True


def test_verify_after_single_mutation_passes():
    for s in (m2n1_quantum(), a2_quantum()):
        for k in s.ex:
            assert verify_quantum_seed(quantum_mutate(s, k)).ok


def test_verify_detects_negated_lambda():
    s = m2n1_quantum()
    tampered = QuantumSeed(
        SkewMatrix([[0, 1], [-1, 0]]), s.b, s.vars, s.d
    )
    rep = verify_quantum_seed(tampered)
    assert not rep.ok
    assert not rep.quasi_commutation_ok
    assert rep.quasi_commutation_failure == (0, 1)
    assert rep.to_json()["quasi_commutation"]["first_failure"] == [1, 2]


def test_verify_detects_wrong_d():
    s = a2_quantum()
    tampered = QuantumSeed(s.lam, s.b, s.vars, (2, 2))
    rep = verify_quantum_seed(tampered)
    assert not rep.compatibility_ok
    assert rep.quasi_commutation_ok


def test_verify_detects_bar_violation():
    s = a2_quantum()
    lam = s.vars[0].lam
    bad_var = TorusElement.monomial(lam, (1, 0), QLaurent.v_power(1))
    tampered = QuantumSeed(s.lam, s.b, (bad_var, s.vars[1]), s.d)
    rep = verify_quantum_seed(tampered)
    assert not rep.bar_invariance_ok
    assert rep.bar_invariance_failure == 0
    assert rep.to_json()["bar_invariance"] == {"ok": False, "first_failure": 1}


def test_verify_reports_zero_variable_as_quasi_commutation_failure():
    s = a2_quantum()
    tampered = QuantumSeed(s.lam, s.b, (TorusElement.zero(s.lam), s.vars[1]), s.d)
    rep = verify_quantum_seed(tampered)
    assert rep.quasi_commutation_failure == (0, 1)
    assert not rep.ok


def test_verify_reports_the_first_failure_in_index_order():
    # pairs (i, j) are tried row by row and variables in order, so with
    # every failure past the first ones planted, the first ones are named
    s = principal_seed(A3_ROWS)
    rows = [[s.lam.entry(i, j) for j in range(s.m)] for i in range(s.m)]
    for i, j in ((1, 4), (2, 3), (3, 5)):
        rows[i][j], rows[j][i] = rows[i][j] + 1, rows[j][i] - 1
    vars = list(s.vars)
    for i in (2, 4):
        vars[i] = vars[i].scalar_mul(QLaurent.v_power(1))
    rep = verify_quantum_seed(QuantumSeed(SkewMatrix(rows), s.b, tuple(vars), s.d))
    assert rep.quasi_commutation_failure == (1, 4)
    assert rep.bar_invariance_failure == 2
