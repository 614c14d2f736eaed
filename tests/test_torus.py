"""Quantum torus and its q=1 shadow: products, division, quasi-commutation."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from qcluster import (
    CommLaurent,
    FrameMismatchError,
    NotDivisibleError,
    QLaurent,
    SkewMatrix,
    TorusElement,
    reorder_weight,
)

from helpers import (
    random_nonzero_qlaurent,
    random_nonzero_torus_element,
    random_qlaurent,
    random_skew,
    random_torus_element,
    random_vector,
)
from oracles import RefLaurent, _support_box, eval_laurent, ref_basis_twist, ref_transform
import qcluster.torus
from qcluster.torus import _GAP, _v_decode, _v_digits, _v_runs, _v_scan, _v_width

L2 = SkewMatrix([[0, 1], [-1, 0]])


def gens(lam):
    return tuple(TorusElement.generator(lam, i) for i in range(lam.m))


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        SkewMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewMatrix([[1]])
    with pytest.raises(ValueError):
        SkewMatrix([[0, 1]])
    m = SkewMatrix([[0, 2], [-2, 0]])
    assert m.entry(0, 1) == 2
    assert m.form((1, 0), (0, 1)) == 2
    assert m.form((0, 1), (1, 0)) == -2


def test_skew_image_sign_convention():
    # Lambda(a, c) = a . Lambda c = -c . Lambda a, with (Lambda c)_i = sum_j lambda_ij c_j
    def dot(u, w):
        return sum(x * y for x, y in zip(u, w))

    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 5)
        lam = random_skew(rng, m)
        a, c = random_vector(rng, m, 3), random_vector(rng, m, 3)
        la, lc = lam.image(a), lam.image(c)
        assert lc == [sum(lam.entry(i, j) * c[j] for j in range(m)) for i in range(m)]
        assert lam.form(a, c) == dot(a, lc) == -dot(c, la)
    with pytest.raises(ValueError, match="expected vectors of length 2"):
        L2.image((1, 0, 0))
    for a, b in (((1, 0, 0), (1, 0)), ((1, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="expected vectors of length 2"):
            L2.form(a, b)


def test_skew_transform_against_reference():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 4)
        lam = random_skew(rng, m)
        columns = [list(random_vector(rng, m, 2)) for _ in range(m)]
        try:
            got = lam.transform(columns)
        except ValueError:
            # transform of a degenerate column set can break skew-symmetry
            # only by a bug; the reference must then be non-skew too
            ref = ref_transform(lam.rows(), columns)
            assert any(
                ref[i][j] != -ref[j][i] for i in range(m) for j in range(m)
            )
            continue
        assert [list(r) for r in got.rows()] == ref_transform(lam.rows(), columns)


def test_generator_product_reads_lambda():
    x1, x2 = gens(L2)
    assert x1 * x2 == TorusElement.monomial(L2, (1, 1), QLaurent.v_power(1))
    # X_i X_j = q^{lambda_ij} X_j X_i
    assert x1 * x2 == (x2 * x1).scalar_mul(QLaurent.q_power(1))


def test_basis_rule_random_against_word_oracle():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(1, 4)
        lam = random_skew(rng, m)
        a = random_vector(rng, m, 3)
        b = random_vector(rng, m, 3)
        prod = TorusElement.monomial(lam, a) * TorusElement.monomial(lam, b)
        t = ref_basis_twist(lam.rows(), a, b)
        total = tuple(x + y for x, y in zip(a, b))
        assert prod == TorusElement.monomial(lam, total, QLaurent.v_power(t))
        assert t == lam.form(a, b)


def test_associativity_random():
    rng = random.Random(19)
    for _ in range(150):
        m = rng.randint(1, 3)
        lam = random_skew(rng, m)
        f = random_torus_element(rng, lam)
        g = random_torus_element(rng, lam)
        h = random_torus_element(rng, lam)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_scalars_are_central():
    x1, x2 = gens(L2)
    c = QLaurent({1: 2, -1: 1})
    f = x1 * x2 + x1
    assert c * f == f * c
    assert 3 * f == f * 3


def test_pow_and_one():
    x1, _ = gens(L2)
    assert x1**0 == TorusElement.one(L2)
    assert x1**3 == TorusElement.monomial(L2, (3, 0))
    with pytest.raises(ValueError):
        x1**-1


def test_frame_mismatch_rejected():
    other = SkewMatrix([[0, 2], [-2, 0]])
    f = TorusElement.generator(L2, 0)
    g = TorusElement.generator(other, 0)
    with pytest.raises(FrameMismatchError):
        f * g
    with pytest.raises(FrameMismatchError):
        f + g


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        TorusElement.monomial(L2, (1, 0, 0))
    with pytest.raises(ValueError):
        TorusElement.generator(L2, 2)


def test_ordered_terms_normalization():
    # X^{(1,1)} = q^{-1/2} X1 X2 when lambda_12 = 1
    f = TorusElement.monomial(L2, (1, 1))
    assert f.ordered_terms() == [((1, 1), QLaurent.v_power(-1))]
    assert reorder_weight(L2, (1, 1)) == -1
    for a in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="expected vectors of length 2"):
            reorder_weight(L2, a)
    # the ordered coefficients reassemble the element exactly
    rng = random.Random(23)
    for _ in range(50):
        lam = random_skew(rng, 3)
        f = random_torus_element(rng, lam)
        rebuilt = TorusElement.zero(lam)
        for exp, coeff in f.ordered_terms():
            w = reorder_weight(lam, exp)
            rebuilt = rebuilt + TorusElement.monomial(lam, exp, coeff.shift(-w))
        assert rebuilt == f


def test_right_division_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        m = rng.randint(1, 3)
        lam = random_skew(rng, m)
        h = random_nonzero_torus_element(rng, lam)
        g = random_nonzero_torus_element(rng, lam)
        assert (h * g).exact_div_right(g) == h
        assert (g * h).exact_div_left(g) == h


def test_division_errors():
    x1, x2 = gens(L2)
    f = x1 + x2
    with pytest.raises(NotDivisibleError):
        f.exact_div_right(x1 + TorusElement.one(L2))
    with pytest.raises(ZeroDivisionError):
        f.exact_div_right(TorusElement.zero(L2))
    assert TorusElement.zero(L2).exact_div_right(f) == TorusElement.zero(L2)
    for bad in (CommLaurent.one(2), QLaurent.one(), 2):
        message = f"cannot divide TorusElement by {type(bad).__name__}"
        for divide in (f.exact_div_right, f.exact_div_left):
            with pytest.raises(TypeError, match=message):
                divide(bad)


def test_division_by_monomial_always_works():
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randint(1, 3)
        lam = random_skew(rng, m)
        f = random_nonzero_torus_element(rng, lam)
        g = TorusElement.monomial(lam, random_vector(rng, m, 3))
        q = f.exact_div_right(g)
        assert q * g == f


def test_quasi_commutation():
    x1, x2 = gens(L2)
    assert x1.quasi_commutation(x2) == 1
    assert x2.quasi_commutation(x1) == -1
    assert x1.quasi_commutation(x1) == 0
    f = TorusElement(L2, {(-1, 0): 1, (-1, 1): 1})
    assert f.quasi_commutation(x2) == -1
    # non-quasi-commuting pair
    assert (x1 + x2).quasi_commutation(x1) is None
    with pytest.raises(ValueError):
        x1.quasi_commutation(TorusElement.zero(L2))


def test_quasi_commutation_matches_definition():
    # t with f * g == q^t * g * f, searched over every t these sizes allow:
    # |Lambda(a, b)| <= 2 * 2 * 2 * 6 = 48 (m <= 3, entries and exponents <= 2)
    rng = random.Random(43)
    found = 0
    for case in range(240):
        lam = random_skew(rng, rng.randint(1, 3), 2)
        if case % 3 == 0:  # arbitrary elements: mostly no such t
            f = random_nonzero_torus_element(rng, lam, exp_bound=2)
            g = random_nonzero_torus_element(rng, lam, exp_bound=2)
        elif case % 3 == 1:  # monomials whose coefficients have several terms
            f, g = (
                TorusElement.monomial(
                    lam, random_vector(rng, lam.m, 2), random_nonzero_qlaurent(rng, vexp=2)
                )
                for _ in range(2)
            )
        else:  # an element against a scaled power of itself
            f = random_nonzero_torus_element(rng, lam, exp_bound=1)
            g = (f ** rng.randint(1, 2)).scalar_mul(random_nonzero_qlaurent(rng, vexp=2))
        fg, gf = f * g, g * f
        want = [t for t in range(-48, 49) if fg == gf.scalar_mul(QLaurent.q_power(t))]
        assert len(want) <= 1
        got = f.quasi_commutation(g)
        assert got == (want[0] if want else None)
        found += got is not None
    assert 160 <= found < 240


def test_bar_involution():
    x1, x2 = gens(L2)
    f = x1 * x2  # v * X^{(1,1)}
    assert f.bar() == TorusElement.monomial(L2, (1, 1), QLaurent.v_power(-1))
    assert f.bar().bar() == f
    # normalized monomials are bar-invariant
    rng = random.Random(37)
    for _ in range(50):
        lam = random_skew(rng, 3)
        mono = TorusElement.monomial(lam, random_vector(rng, 3, 4))
        assert mono.bar() == mono
    # bar is an anti-automorphism, on generators and on random elements
    # with multi-term and wide coefficients (exact_div_left rests on it)
    assert (x1 * x2).bar() == x2.bar() * x1.bar()
    def element(lam, vexp, coeff):
        terms = rng.randint(1, 5)
        return TorusElement(lam, [
            (random_vector(rng, lam.m, 3), random_qlaurent(rng, 5, vexp, coeff))
            for _ in range(terms)
        ])

    for _ in range(60):
        lam = random_skew(rng, rng.randint(1, 4))
        vexp, coeff = rng.choice([3, 40]), rng.choice([5, 10**30])
        x, y = element(lam, vexp, coeff), element(lam, vexp, coeff)
        assert (x * y).bar() == y.bar() * x.bar()


def test_specialize_q1_is_ring_hom():
    rng = random.Random(41)
    for _ in range(100):
        lam = random_skew(rng, 3)
        f = random_torus_element(rng, lam)
        g = random_torus_element(rng, lam)
        assert (f * g).specialize_q1() == f.specialize_q1() * g.specialize_q1()
        assert (f + g).specialize_q1() == f.specialize_q1() + g.specialize_q1()
    # (v - v^-1) X^a dies at q=1
    f = TorusElement.monomial(L2, (2, -1), QLaurent({1: 1, -1: -1}))
    assert not f.specialize_q1()


def test_torus_json_round_trip():
    f = TorusElement(L2, {(-1, 2): QLaurent({1: 3}), (0, 0): 2})
    data = f.to_json()
    # graded-lex ascending: total degree 0 before total degree 1
    assert data == [
        {"exp": [0, 0], "coeff": {"0": "2"}},
        {"exp": [-1, 2], "coeff": {"1": "3"}},
    ]
    assert TorusElement.from_json(L2, data) == f


def test_support_and_leading():
    f = TorusElement(L2, {(2, 0): 1, (0, 1): 1, (-1, -1): 1})
    assert f.support() == [(-1, -1), (0, 1), (2, 0)]
    assert f.leading()[0] == (2, 0)
    assert f.min_exponents() == (-1, -1)
    with pytest.raises(ValueError):
        TorusElement.zero(L2).leading()


# -- commutative shadow ------------------------------------------------


def test_comm_laurent_basics():
    x1 = CommLaurent.generator(2, 0)
    x2 = CommLaurent.generator(2, 1)
    assert (x1 + x2) * CommLaurent.one(2) == x1 + x2
    assert x1 * x2 == x2 * x1
    assert (x1 - x2) * (x1 + x2) == x1 * x1 - x2 * x2
    assert x1 + 1 - 1 == x1
    assert 2 * x1 == x1 * 2
    assert (x1**3).coefficient((3, 0)) == 1


def test_comm_square_deletes_what_cancels():
    # a square (left is right) adds c_a^2 X^(2a) and 2 c_a c_b X^(a+b) once per
    # pair; in every term order, a sum that cancels leaves no stored zero
    cases = [
        # (x + 1/x + y - 1/y)^2: the cross terms 2 and -2 cancel the constant
        ({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): -1},
         {(2, 0): 1, (-2, 0): 1, (0, 2): 1, (0, -2): 1,
          (1, 1): 2, (1, -1): -2, (-1, 1): 2, (-1, -1): -2}),
        # (1 + 2x - 2x^2)^2: the diagonal 4x^2 and the cross term -4x^2 cancel
        ({(0, 0): 1, (1, 0): 2, (2, 0): -2},
         {(0, 0): 1, (1, 0): 4, (3, 0): -8, (4, 0): 4}),
    ]
    for terms, square in cases:
        want = CommLaurent(2, square)
        for order in itertools.permutations(terms.items()):
            f = CommLaurent(2, order)
            assert f * f == want == f**2
            assert set((f * f).support()) == set(square)  # no zero is stored


def test_comm_square_matches_the_product_of_two_objects():
    # f * f takes the square branch, f * twin (equal, not the same object) the
    # general one; powers, which square repeatedly, match the schoolbook oracle
    rng = random.Random(97)
    for _ in range(60):
        m = rng.randint(1, 3)
        coeffs = (1, 2, 7, 10**25 + rng.randint(0, 99))
        f = CommLaurent(m, [(random_vector(rng, m, 2), rng.choice((-1, 1)) * rng.choice(coeffs))
                            for _ in range(rng.randint(1, 8))])
        twin = CommLaurent(m, f.items())
        assert twin == f and twin is not f
        assert f * f == f * twin == twin * f
        for n in range(6):
            assert _terms(f**n) == RefLaurent(m).pow(_terms(f), n)


def test_comm_exact_div():
    x1 = CommLaurent.generator(2, 0)
    x2 = CommLaurent.generator(2, 1)
    num = x1 * x1 - x2 * x2
    assert num.exact_div(x1 - x2) == x1 + x2
    # monomials are units
    got = (CommLaurent.one(2) + x2).exact_div(x1)
    assert got == CommLaurent(2, {(-1, 0): 1, (-1, 1): 1})
    with pytest.raises(NotDivisibleError):
        (x1 + 1).exact_div(x2 + 1)
    with pytest.raises(NotDivisibleError):
        (x1 + 1).exact_div(CommLaurent.constant(2, 2))
    with pytest.raises(ZeroDivisionError):
        x1.exact_div(CommLaurent.zero(2))
    with pytest.raises(TypeError):
        x1.exact_div(QLaurent.one())


def test_exact_div_by_an_int_constant():
    # an int divisor (never a bool or a float) is the constant of the
    # dividend's ring (a torus element has none: test_division_errors)
    x1 = CommLaurent.generator(2, 0)
    assert (6 * x1).exact_div(3) == 2 * x1
    assert QLaurent({0: 4, 2: 6}).exact_div(2) == QLaurent({0: 2, 2: 3})
    with pytest.raises(NotDivisibleError):
        (6 * x1).exact_div(4)
    with pytest.raises(ZeroDivisionError):
        (6 * x1).exact_div(0)
    for f in (6 * x1, QLaurent({0: 4, 2: 6})):
        for bad in (True, 1.0):
            with pytest.raises(TypeError, match=f"cannot divide {type(f).__name__} by"):
                f.exact_div(bad)


def test_comm_division_round_trip_random():
    rng = random.Random(43)
    for _ in range(200):
        m = rng.randint(1, 3)
        f = CommLaurent(
            m,
            [
                (random_vector(rng, m, 3), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))
            ],
        )
        g = CommLaurent(
            m,
            [
                (random_vector(rng, m, 3), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))
            ],
        )
        if not f or not g:
            continue
        assert (f * g).exact_div(g) == f


def test_comm_eval_respects_ring_ops():
    rng = random.Random(47)
    for _ in range(50):
        m = rng.randint(1, 3)
        f = CommLaurent(m, [(random_vector(rng, m, 2), rng.randint(-4, 4))])
        g = CommLaurent(m, [(random_vector(rng, m, 2), rng.randint(-4, 4))])
        pt = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(m)]
        assert eval_laurent(f * g, pt) == eval_laurent(f, pt) * eval_laurent(g, pt)
        assert eval_laurent(f + g, pt) == eval_laurent(f, pt) + eval_laurent(g, pt)


def test_comm_json_and_str():
    f = CommLaurent(2, {(-1, 0): 1, (0, 2): -3})
    data = f.to_json()
    assert data == [
        {"exp": [-1, 0], "coeff": "1"},
        {"exp": [0, 2], "coeff": "-3"},
    ]
    assert CommLaurent.from_json(2, data) == f
    assert str(CommLaurent.zero(2)) == "0"
    assert str(f) == "x1^-1 - 3*x2^2"


# -- the shared kernel -------------------------------------------------


def _integer_pair(rng, lam):
    terms = [
        (random_vector(rng, lam.m, 2), rng.randint(-4, 4))
        for _ in range(rng.randint(1, 3))
    ]
    return TorusElement(lam, terms), CommLaurent(lam.m, terms)


def _quotient_or_none(divide, g):
    try:
        return divide(g)
    except NotDivisibleError:
        return None


def test_zero_frame_torus_is_comm_laurent():
    # over Lambda = 0 with integer coefficients the two rings coincide
    rng = random.Random(53)
    for _ in range(150):
        m = rng.randint(1, 3)
        lam = SkewMatrix([[0] * m for _ in range(m)])
        (f, cf), (g, cg) = _integer_pair(rng, lam), _integer_pair(rng, lam)
        assert f.specialize_q1() == cf
        assert (f + g).specialize_q1() == cf + cg
        assert (f - g).specialize_q1() == cf - cg
        assert (f * g).specialize_q1() == cf * cg
        n = rng.randint(0, 3)
        assert (f**n).specialize_q1() == cf**n
        if not g:
            continue
        for num, cnum in ((f * g, cf * cg), (f, cf)):
            want = _quotient_or_none(cnum.exact_div, cg)
            for divide in (num.exact_div_right, num.exact_div_left):
                got = _quotient_or_none(divide, g)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.specialize_q1() == want


def test_equal_elements_hash_equal():
    x1, x2 = gens(L2)
    a = x1 * x2 + x1
    b = TorusElement(L2, [((1, 0), 1), ((1, 1), QLaurent.v_power(1))])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, TorusElement.generator(SkewMatrix([[0, 2], [-2, 0]]), 0)}) == 2
    y1, y2 = CommLaurent.generator(2, 0), CommLaurent.generator(2, 1)
    c = y1 * y2 + 1
    d = CommLaurent(2, {(0, 0): 1, (1, 1): 1})
    assert c == d and hash(c) == hash(d)
    assert len({c, d, CommLaurent.one(3)}) == 2


def test_int_constants_equal_and_hash_as_their_int():
    for constant in (QLaurent.from_int, lambda n: CommLaurent.constant(2, n)):
        for n in (-2, 0, 1, 5):
            x = constant(n)
            assert x == n and hash(x) == hash(n)
            assert x in {n} and {n: 1}[x] == 1


def test_int_minus_element_is_the_constant_minus_it():
    p = CommLaurent.generator(2, 0)
    assert 1 - p == CommLaurent.constant(2, 1) - p == -(p - 1)
    assert 3 - QLaurent.v_power(1) == QLaurent({0: 3, 1: -1})
    # the torus has no int constants, and a bool is no constant anywhere
    for a, x in ((1, TorusElement.one(L2)), (True, p), (True, QLaurent.one())):
        with pytest.raises(TypeError):
            a - x


def test_reflected_operators_and_the_empty_ring():
    # the kernel binds +, - and * reflected; an int is a constant of the
    # integer rings only, and no ring takes a str
    p = CommLaurent.generator(2, 0)
    assert 2 + p == p + 2 == CommLaurent(2, {(0, 0): 2, (1, 0): 1})
    assert 2 + QLaurent.v_power(1) == QLaurent({0: 2, 1: 1})
    for x in (p, TorusElement.one(L2), QLaurent.one()):
        for op in (lambda: x - "a", lambda: "a" - x, lambda: "a" + x):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        1 + TorusElement.one(L2)
    with pytest.raises(ValueError, match="at least one variable"):
        CommLaurent.zero(0)
    with pytest.raises(ValueError, match="has no support"):
        CommLaurent.zero(2).min_exponents()


def test_repr_names_the_class_around_the_text():
    f = TorusElement(L2, {(1, 0): QLaurent({1: 2}), (0, 0): 1})
    assert repr(f) == f"TorusElement({f})" == "TorusElement(1 + 2*q^{1/2}*X^(1,0))"
    p = CommLaurent(2, {(-1, 0): 1, (0, 2): -3})
    assert repr(p) == "CommLaurent(x1^-1 - 3*x2^2)"
    assert repr(CommLaurent.zero(1)) == "CommLaurent(0)"


def test_bool_is_no_constant():
    # True equals 1, but like a bool exponent or power it is refused
    for x in (QLaurent.one(), CommLaurent.one(2), TorusElement.one(L2)):
        assert (x == True) is False  # noqa: E712
        with pytest.raises(TypeError):
            x + True
    assert (TorusElement.one(L2) == 1) is False


COEFFICIENT_SITES = {
    "CommLaurent": lambda x: CommLaurent(1, {(0,): x}),
    "TorusElement": lambda x: TorusElement(L2, {(0, 0): x}),
    "TorusElement.scalar_mul": lambda x: TorusElement.one(L2).scalar_mul(x),
}


@pytest.mark.parametrize("bad", [True, 1.7, "1"], ids=repr)
@pytest.mark.parametrize("where", sorted(COEFFICIENT_SITES))
def test_non_integer_coefficients_rejected(where, bad):
    # True would otherwise be stored as a coefficient and written to JSON
    # as "True", which from_json cannot read back
    with pytest.raises(TypeError, match="bad coefficient type"):
        COEFFICIENT_SITES[where](bad)


# -- the packed-integer kernel against the tuple-keyed one ----------------


def _ring_pair(rng, m):
    """A random ring of width m: (element builder, RefLaurent, divisions)."""
    if rng.random() < 0.5:
        ref = RefLaurent(m)

        def build():
            terms = [(random_vector(rng, m, 3), rng.randint(-4, 4))
                     for _ in range(rng.randint(1, 4))]
            return CommLaurent(m, terms)

        return build, ref, {True: CommLaurent.exact_div}
    lam = random_skew(rng, m, 2)
    ref = RefLaurent(m, lam)
    return (
        lambda: random_torus_element(rng, lam, terms=3, exp_bound=3),
        ref,
        {True: TorusElement.exact_div_right, False: TorusElement.exact_div_left},
    )


def _terms(x):
    return dict(x.items())


def _div_outcome(divide, f, g, terms):
    try:
        return "ok", terms(divide(f, g))
    except NotDivisibleError as exc:
        return "NotDivisibleError", str(exc)


def _ref_div_outcome(ref, f, g, right):
    try:
        return "ok", ref.exact_div(f, g, right)
    except NotDivisibleError as exc:
        return "NotDivisibleError", str(exc)


def _v_terms(x):
    """A QLaurent's term map in RefLaurent(1) form: v^e as the tuple (e,)."""
    return {(e,): c for e, c in x.items()}


def _check_arithmetic(rng, x, y, build, ref, divisions, terms, messages):
    """x * y, x ** n and both divisions of x * y (exact, then perturbed)."""
    tx, ty = terms(x), terms(y)
    product = x * y
    assert terms(product) == ref.mul(tx, ty)
    n = rng.randint(0, 4)
    assert terms(x**n) == ref.pow(tx, n)
    if not y:
        return
    for right, divide in divisions.items():
        # a true multiple, and one perturbed by a random element
        exact = x * y if right else y * x
        for f in (exact, exact + build()):
            want = _ref_div_outcome(ref, terms(f), ty, right)
            assert _div_outcome(divide, f, y, terms) == want
            if want[0] == "NotDivisibleError":
                messages.add(re.sub(r"-?[0-9]+", "N", want[1]))


def test_packed_kernel_matches_tuple_oracle():
    rng = random.Random(71)
    messages = set()
    for m in range(1, 9):
        for _ in range(30):
            build, ref, divisions = _ring_pair(rng, m)
            x, y = build(), build()
            for element in (x, y):
                terms = _terms(element)
                assert element.support() == ref.support(terms)
                assert element.to_json() == ref.to_json(terms)
                assert str(element) == ref.str(terms)
                if terms:
                    assert element.min_exponents() == tuple(_support_box(terms, m)[0])
            product, want = x * y, ref.mul(_terms(x), _terms(y))
            assert product.to_json() == ref.to_json(want)
            assert str(product) == ref.str(want)
            _check_arithmetic(rng, x, y, build, ref, divisions, _terms, messages)
    # the perturbed cases reach every NotDivisibleError of both rings
    assert messages == {
        "divisor support exceeds dividend support",
        "leading term of remainder is not reducible",
        "leading coefficient N not divisible by N",
        "leading coefficient not divisible in Z[q^(N/N), q^(N/N)]",
    }

    # QLaurent is the one-variable ring, keyed by the v-exponent itself
    def build():
        terms = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        return QLaurent(terms)

    messages = set()
    for _ in range(200):
        x, y = build(), build()
        divisions = {True: QLaurent.exact_div}
        _check_arithmetic(rng, x, y, build, RefLaurent(1), divisions, _v_terms, messages)
    assert messages == {
        "divisor support exceeds dividend support",
        "leading term of remainder is not reducible",
        "leading coefficient N not divisible by N",
    }


def test_packed_exponent_overflow_guard():
    limit = 2**30  # exponents lie in [-limit, limit)
    for ring in (2, L2):
        cls = CommLaurent if ring == 2 else TorusElement
        edge = cls.monomial(ring, (limit - 1, -limit))
        assert edge.support() == [(limit - 1, -limit)]
        assert edge.to_json()[0]["exp"] == [limit - 1, -limit]
        for exp in ((limit, 0), (0, -limit - 1), (2**40, 0), (-(2**70), 1)):
            with pytest.raises(OverflowError):
                cls.monomial(ring, exp)
            # an exponent outside the range is not in any support
            assert edge.coefficient(exp) == 0
        half = cls.monomial(ring, (2**29, 0))
        assert half * cls.monomial(ring, (2**29 - 1, 0)) == cls.monomial(ring, (limit - 1, 0))
        with pytest.raises(OverflowError):
            half * half  # 2**30 crosses the top of the range
        with pytest.raises(OverflowError):
            half**2
        low = cls.monomial(ring, (0, -(2**29)))
        assert low**2 == cls.monomial(ring, (0, -limit))
        with pytest.raises(OverflowError):
            low**3
        # the overflowing term is one of several; the others stay in range
        mixed = cls.monomial(ring, (0, 0)) + cls.monomial(ring, (1, 2**29))
        with pytest.raises(OverflowError):
            mixed * mixed
        # a quotient exponent past the range raises too, never wraps
        divide = cls.exact_div if cls is CommLaurent else cls.exact_div_right
        with pytest.raises(OverflowError):
            divide(cls.monomial(ring, (0, -(2**29))), cls.monomial(ring, (0, 2**29 + 1)))


def _two_terms(rng):
    """A QLaurent of exactly two terms."""
    e = rng.randint(-4, 4)
    return QLaurent({e: rng.choice((-3, -1, 2, 5)), e + rng.randint(1, 5): rng.choice((-2, 1, 4))})


def test_one_term_factor_is_a_shift(monkeypatch):
    # c X^b with c = n v^e one term shifts the other operand's terms: on the
    # right, on the left and squared, it matches the oracle and scans nothing
    # for a Kronecker product.  A one-term factor whose coefficient has two
    # terms takes the general product, and matches too.
    scans = [0]

    def scan(triples):
        scans[0] += 1
        return _v_scan(triples)

    monkeypatch.setattr(qcluster.torus, "_v_scan", scan)
    rng = random.Random(101)
    for m in range(1, 5):
        for _ in range(40):
            lam = random_skew(rng, m, 3)
            ref = RefLaurent(m, lam)
            n = rng.choice((-3, -2, 2, 3))
            one = TorusElement.monomial(lam, random_vector(rng, m, 3),
                                        QLaurent.v_power(rng.randint(-6, 6), n))
            other = TorusElement.zero(lam)
            while len(other) < 2:
                other += TorusElement.monomial(lam, random_vector(rng, m, 3), _two_terms(rng))
            wide = TorusElement.monomial(lam, random_vector(rng, m, 3), _two_terms(rng))
            for x, y, shift in ((one, other, True), (other, one, True), (one, one, True),
                                (wide, other, False), (other, wide, False), (wide, wide, False),
                                (one, wide, None), (wide, one, True)):
                scans[0] = 0
                assert _terms(x * y) == ref.mul(_terms(x), _terms(y))
                assert shift is None or (scans[0] == 0) == shift
            assert _terms(one**3) == ref.pow(_terms(one), 3)


def test_scalar_mul_by_one_term_is_termwise():
    # n v^s times an element shifts and scales each coefficient; it equals the
    # oracle's coefficient products, as a scalar of several terms does
    rng = random.Random(103)
    for m in range(1, 5):
        lam = random_skew(rng, m, 3)
        for _ in range(30):
            x = random_torus_element(rng, lam, terms=4)
            s, n = rng.randint(-6, 6), rng.choice((-3, -2, -1, 1, 2, 3))
            for c in (QLaurent.v_power(s, n), QLaurent.v_power(s, n) + QLaurent.v_power(s + 3)):
                want = {a: RefLaurent._coeff_product(r, c, 0) for a, r in x.items()}
                assert _terms(x.scalar_mul(c)) == want == _terms(c * x) == _terms(x * c)
            assert x * n == x.scalar_mul(QLaurent.from_int(n)) == n * x
            assert not x.scalar_mul(QLaurent.zero()) and not x * 0


# -- the Kronecker product (v = 2^k) against the schoolbook oracle ---------


def _wide_qlaurent(rng, bits, span):
    """2-4 terms over a v-span of exactly span, signs mixed, up to bits bits."""
    lo = rng.randint(-span, span)
    exps = {lo, lo + span} | {rng.randint(lo, lo + span) for _ in range(rng.randint(0, 2))}
    return QLaurent({e: rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1) for e in exps})


@pytest.mark.parametrize("bits, span", [(3, 130), (70, 5), (70, 120), (2000, 3), (300, 101)])
def test_kronecker_product_matches_schoolbook_oracle(bits, span):
    # RefLaurent multiplies coefficients with its own schoolbook loop
    # (RefLaurent._coeff_product), so it shares nothing with the
    # substitution kernel
    rng = random.Random(bits * 1009 + span)
    divisions = {True: TorusElement.exact_div_right, False: TorusElement.exact_div_left}
    for _ in range(6):
        m = rng.randint(1, 3)
        lam = random_skew(rng, m, 3)

        def build():
            terms = [(random_vector(rng, m, 2), _wide_qlaurent(rng, bits, span))
                     for _ in range(rng.randint(1, 3))]
            return TorusElement(lam, terms)

        x, y = build(), build()
        _check_arithmetic(rng, x, y, build, RefLaurent(m, lam), divisions, _terms, set())


def test_kronecker_contributions_cancel_and_realign():
    lam = L2  # X1 X2 = v X^(1,1) and X2 X1 = v^-1 X^(1,1)
    x1, x2 = gens(lam)
    ref = RefLaurent(2, lam)
    rng = random.Random(97)
    for bits in (5, 90, 3000):
        c = _wide_qlaurent(rng, bits, 140)
        # X1 * (c X2) + X2 * (-v^2 c X1) = 0: the (1, 1) term cancels exactly
        f, g = x1 + x2, x1.scalar_mul(-c.shift(2)) + x2.scalar_mul(c)
        for product, want in ((f * g, ref.mul(_terms(f), _terms(g))),
                              (g * f, ref.mul(_terms(g), _terms(f)))):
            assert _terms(product) == want
            assert all(coeff for _, coeff in product.items())
        assert (f * g).support() == [(0, 2), (2, 0)]
        # the same key reached by contributions whose lowest v-exponents
        # differ, the second one higher and then lower
        d = _wide_qlaurent(rng, bits, 140).shift(-400)
        for low, high in ((d, c), (c, d)):
            g = x1.scalar_mul(low) + x2.scalar_mul(high)
            for left, right in ((f, g), (g, f)):
                product = left * right
                assert _terms(product) == ref.mul(_terms(left), _terms(right))
                assert _terms(product.exact_div_right(right)) == _terms(left)
                assert _terms(product.exact_div_left(left)) == _terms(right)


def test_kronecker_digit_at_the_bound():
    # coefficients whose digit bound B = max|left| * max|right| * (term
    # pairs) * (shorter coefficient) is 2^(k-1) - 1 for a digit width k,
    # and is met with equality at the middle v-power of the product
    def ones(n, c=1):
        return QLaurent({e: c for e in range(n)})

    cases = [(ones(127), ones(127), 8), (ones(151, 7), ones(151, 31), 16),
             (ones(1, 2**31 - 1), ones(1), 32), (ones(1, 2**63 - 1), ones(1), 64),
             (ones(1, 2**71 - 1), ones(1), 72)]
    for cl, cr, width in cases:
        for sign in (1, -1):
            f = TorusElement.monomial(L2, (1, 0), cl)
            g = TorusElement.monomial(L2, (0, 1), cr * sign)
            unpack = f._packing().unpack
            left, right = (_v_scan([(key, unpack(key), c) for key, c in x._terms.items()])
                           for x in (f, g))
            k = _v_width(left[1] * right[1] * min(left[2], right[2]))  # one term each
            assert k == width
            product = f * g
            middle = (len(cl) + len(cr)) // 2 - 1 + L2.form((1, 0), (0, 1))
            assert product.coefficient((1, 1)).coefficient(middle) == sign * (2 ** (k - 1) - 1)
            assert product == TorusElement.monomial(L2, (1, 1), (cl * cr * sign).shift(1))


@pytest.mark.parametrize("exps", [(0, 3, 5), (5, 3, 0), (0, 100, 100), (100, 100, 0),
                                  (100, 0, 100), (0, -100, 50), (50, 0, -100), (7, 7, 7)])
def test_kronecker_near_and_far_contributions(exps):
    # f * g reaches X1 X2 three times: 1 * (c0 X1 X2), X1 * (c1 X2) and
    # X2 * (c2 X1), at the v-exponents e0, e1, e2 (c1 and c2 absorb the
    # twists +1 and -1 of L2).  A contribution within _GAP digits of the
    # sum is shifted into it, from above or below; a further one is decoded
    # as a piece of its own, which _add_into adds to the rest, and opposite
    # signs at one exponent cancel.
    x1, x2 = gens(L2)
    f = TorusElement.one(L2) + x1 + x2
    ref = RefLaurent(2, L2)
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        shifted = (exps[0], exps[1] - 1, exps[2] + 1)
        c0, c1, c2 = (QLaurent({e: 3 * sign}) for e, sign in zip(shifted, signs))
        g = TorusElement.monomial(L2, (1, 1), c0) + x2.scalar_mul(c1) + x1.scalar_mul(c2)
        want = QLaurent([(e, 3 * sign) for e, sign in zip(exps, signs)])
        assert (f * g).coefficient((1, 1)) == want
        for left, right in ((f, g), (g, f)):
            product = left * right
            assert _terms(product) == ref.mul(_terms(left), _terms(right))
            assert all(coeff for _, coeff in product.items())


def test_kronecker_far_contributions_that_cancel():
    # f * g reaches X1 X2 four times: 3 and -3 at v^0, and 5 and -5 at
    # v^100 (the twists +1 and -1 of L2 land both at 100), so both the sum
    # shifted into line and the pieces too far from it cancel.  The
    # product leaves X1 X2 out and stores no zero coefficient.
    x1, x2 = gens(L2)
    xy = TorusElement.monomial(L2, (1, 1))
    f = TorusElement.one(L2) + x1 + x2 + xy
    g = (xy.scalar_mul(3) + x2.scalar_mul(QLaurent({99: 5}))
         - x1.scalar_mul(QLaurent({101: 5})) - TorusElement.one(L2).scalar_mul(3))
    product = f * g
    assert (1, 1) not in product.support()
    assert all(coeff for _, coeff in product.items())
    ref = RefLaurent(2, L2)
    assert _terms(product) == ref.mul(_terms(f), _terms(g))
    assert product.exact_div_right(g) == f
    assert product.exact_div_left(f) == g
    # in the other order the twists part the pieces at v^98 and v^102
    assert _terms(g * f) == ref.mul(_terms(g), _terms(f))


def test_v_runs_cut_at_wide_gaps():
    # a span of at most _GAP per term gap is one image, even where one gap
    # is wider; a wider span is a run per term, in ascending exponent order
    dense = {e: e + 1 for e in range(0, 5 * _GAP, _GAP)}
    assert _v_runs(dense, 8) == [(0, sum(c << 8 * e for e, c in dense.items()))]
    uneven = {2 * _GAP: 3, 0: 1, 1: -2}
    assert _v_runs(uneven, 8) == [(0, 1 - (2 << 8) + (3 << 8 * 2 * _GAP))]
    sparse = {10**18 + 1 + _GAP: 1, -3: 2, 10**18 + 1: 7, -3 + _GAP: -1, 10**18: 5}
    assert _v_runs(sparse, 16) == [(-3, 2), (-3 + _GAP, -1), (10**18, 5),
                                   (10**18 + 1, 7), (10**18 + 1 + _GAP, 1)]
    assert _v_runs({10**18: 4, -(10**18): 9}, 8) == [(-(10**18), 9), (10**18, 4)]


def test_kronecker_cost_follows_terms_not_v_span(monkeypatch):
    # Lambda entries of 10^18 put the contributions to one output term
    # about 10^18 v-powers apart, and the coefficients spread as wide; an
    # int spanning such a gap would take 10^19 bits.  Each int a product
    # or a division's collect decodes spans at most 2 _GAP + 1 digits per
    # product of two terms it holds.  A product holds at most every such
    # product of its operands; a collect holds, for each pair filed under
    # its monomial, the products of the pair's two coefficients.
    limits, widest = [], []

    def terms(scan):
        return sum(1 if lo is not None else len(t) for _, _, lo, t in scan[0])

    def coefficient_terms(term_map):
        return sum(map(len, term_map.values()))

    def mul_into(self, acc, left, right, packing):
        limits.append((2 * _GAP + 1) * coefficient_terms(left) * coefficient_terms(right))
        original(self, acc, left, right, packing)
        limits.pop()

    def collect(entry):
        held = sum(terms(y) * terms(x) for y, _, x in entry) if type(entry) is list else 0
        limits.append((2 * _GAP + 1) * held)
        try:
            return original_collect(entry)
        finally:
            limits.pop()

    def digits(lo, x, k):
        widest.append((x.bit_length() // k + 1) / limits[-1])
        return _v_digits(lo, x, k)

    original, original_collect = TorusElement._mul_into, TorusElement._collect
    monkeypatch.setattr(TorusElement, "_mul_into", mul_into)
    monkeypatch.setattr(TorusElement, "_collect", staticmethod(collect))
    monkeypatch.setattr(qcluster.torus, "_v_digits", digits)
    big = 10**18
    lam = SkewMatrix([[0, big, 1], [-big, 0, -big], [-1, big, 0]])
    rng = random.Random(18)
    divisions = {True: TorusElement.exact_div_right, False: TorusElement.exact_div_left}

    def coefficient():
        choices = (0, 1, 2, 5, big, big + 2, -big, 3 * big)
        exps = {rng.choice(choices) for _ in range(rng.randint(1, 4))}
        return QLaurent({e: rng.choice((-1, 1)) * (rng.getrandbits(70) | 1) for e in exps})

    def build():
        return TorusElement(lam, [(random_vector(rng, 3, 2), coefficient())
                                  for _ in range(rng.randint(1, 4))])

    for _ in range(25):
        x, y = build(), build()
        _check_arithmetic(rng, x, y, build, RefLaurent(3, lam), divisions, _terms, set())
    assert widest and max(widest) <= 1


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_division_skips_a_monomial_whose_pairs_cancel(monkeypatch, right):
    # h = c1 X^(1,0) + c2 X^(0,1) and g = g0 X^(2,0) + y1 X^(1,0) + y2 X^(0,1):
    # in h * g the pairs c1 X^(1,0) * y2 X^(0,1) and c2 X^(0,1) * y1 X^(1,0)
    # both reach X^(1,1), twisted by v and v^-1 on L2 (by v^-1 and v in
    # g * h).  c2 makes them cancel, so X^(1,1) is not in the dividend;
    # the division files both pairs under it and skips it when it reaches
    # the top.
    cancelled = []
    original = TorusElement._collect

    def collect(entry):
        assert type(entry) is list  # a dividend's coefficient is never collected
        rc = original(entry)
        if len(entry) > 1 and not rc:
            cancelled.append(len(entry))
        return rc

    monkeypatch.setattr(TorusElement, "_collect", staticmethod(collect))
    ref = RefLaurent(2, L2)
    divide = TorusElement.exact_div_right if right else TorusElement.exact_div_left
    rng = random.Random(41 + right)
    for _ in range(20):
        s, sign = rng.randint(-3, 3), rng.choice((-1, 1))
        y1, y2 = QLaurent.v_power(s, sign), random_nonzero_qlaurent(rng)
        c1 = random_nonzero_qlaurent(rng)
        c2 = -(c1 * y2).shift((2 if right else -2) - s) * sign
        g = TorusElement(L2, {(2, 0): random_nonzero_qlaurent(rng), (1, 0): y1, (0, 1): y2})
        h = TorusElement(L2, {(1, 0): c1, (0, 1): c2})
        f = h * g if right else g * h
        assert f.coefficient((1, 1)) == 0
        assert _terms(divide(f, g)) == ref.exact_div(_terms(f), _terms(g), right) == _terms(h)
    assert cancelled and min(cancelled) == 2


def test_division_steps_and_messages_match_oracle(monkeypatch):
    # Each step divides one leading coefficient with QLaurent.exact_div,
    # in the kernel as in RefLaurent's loop, which subtracts every
    # product at once; counting those calls shows that a division ends
    # at the same step, with the same quotient or message.  Half of the
    # divisors have a leading coefficient of several terms, a shape the
    # exchange relations never produce.
    calls = [0]
    original = QLaurent.exact_div

    def exact_div(self, g):
        calls[0] += 1
        return original(self, g)

    def steps(outcome, *args):
        calls[0] = 0
        return outcome(*args), calls[0]

    monkeypatch.setattr(QLaurent, "exact_div", exact_div)
    rng = random.Random(83)
    failures = set()
    for _ in range(150):
        lam = random_skew(rng, rng.randint(1, 3), 2)
        ref = RefLaurent(lam.m, lam)
        h, g = (random_nonzero_torus_element(rng, lam) for _ in range(2))
        if rng.random() < 0.5:
            b, cg = g.leading()
            g = g + TorusElement.monomial(lam, b, cg * QLaurent.v_power(rng.choice((-2, 1, 3))))
            assert len(g.leading()[1]) > 1
        for right, divide in ((True, TorusElement.exact_div_right),
                              (False, TorusElement.exact_div_left)):
            exact = h * g if right else g * h
            for f in (exact, exact + random_torus_element(rng, lam), h,
                      exact + TorusElement.monomial(lam, random_vector(rng, lam.m, 3), 1)):
                got = steps(_div_outcome, divide, f, g, _terms)
                assert got == steps(_ref_div_outcome, ref, _terms(f), _terms(g), right)
                if got[0][0] == "NotDivisibleError":
                    failures.add((got[0][1], got[1] > 0))
    assert {message for message, _ in failures} == {
        "divisor support exceeds dividend support",
        "leading term of remainder is not reducible",
        "leading coefficient not divisible in Z[q^(1/2), q^(-1/2)]",
    }
    # the last two also fail after some steps of subtraction
    assert ("leading term of remainder is not reducible", True) in failures
    assert ("leading coefficient not divisible in Z[q^(1/2), q^(-1/2)]", True) in failures


def test_v_decode_reads_balanced_digits():
    assert _v_decode([("zero", (7, 0))], 8) == []
    rng = random.Random(5)
    for k in (8, 16, 32, 64, 72, 2048):
        half = 1 << (k - 1)
        sums, want = {}, []
        for key in range(40):
            digits = [rng.choice((0, half - 1, 1 - half, rng.randint(1 - half, half - 1)))
                      for _ in range(rng.randint(1, 12))]
            lo = rng.randint(-50, 50)
            sums[key] = (lo, sum(d << (k * i) for i, d in enumerate(digits)))
            terms = {lo + i: d for i, d in enumerate(digits) if d}
            if terms:
                want.append((key, QLaurent(terms)))
        assert _v_decode(sums.items(), k) == want
