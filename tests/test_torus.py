"""Quantum torus and its q=1 shadow: products, division, quasi-commutation."""

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
    random_nonzero_torus_element,
    random_skew,
    random_torus_element,
    random_vector,
)
from oracles import RefLaurent, _support_box, eval_laurent, ref_basis_twist, ref_transform

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
    with pytest.raises(TypeError):
        f.exact_div_left(CommLaurent.one(2))


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
    # bar is an anti-automorphism
    assert (x1 * x2).bar() == x2.bar() * x1.bar()


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


def _div_outcome(divide, f, g):
    try:
        return "ok", _terms(divide(f, g))
    except NotDivisibleError as exc:
        return "NotDivisibleError", str(exc)


def _ref_div_outcome(ref, f, g, right):
    try:
        return "ok", ref.exact_div(f, g, right)
    except NotDivisibleError as exc:
        return "NotDivisibleError", str(exc)


def test_packed_kernel_matches_tuple_oracle():
    rng = random.Random(71)
    messages = set()
    for m in range(1, 9):
        for _ in range(30):
            build, ref, divisions = _ring_pair(rng, m)
            x, y = build(), build()
            tx, ty = _terms(x), _terms(y)
            for element, terms in ((x, tx), (y, ty)):
                assert element.support() == ref.support(terms)
                assert element.to_json() == ref.to_json(terms)
                assert str(element) == ref.str(terms)
                if terms:
                    assert element.min_exponents() == tuple(_support_box(terms, m)[0])
            product = x * y
            assert _terms(product) == ref.mul(tx, ty)
            assert product.to_json() == ref.to_json(ref.mul(tx, ty))
            assert str(product) == ref.str(ref.mul(tx, ty))
            n = rng.randint(0, 4)
            assert _terms(x**n) == ref.pow(tx, n)
            if not y:
                continue
            for right, divide in divisions.items():
                # a true multiple, and one perturbed by a random element
                exact = x * y if right else y * x
                for f in (exact, exact + build()):
                    want = _ref_div_outcome(ref, _terms(f), ty, right)
                    assert _div_outcome(divide, f, y) == want
                    if want[0] == "NotDivisibleError":
                        messages.add(re.sub(r"-?[0-9]+", "N", want[1]))
    # the perturbed cases reach every NotDivisibleError of both rings
    assert messages == {
        "divisor support exceeds dividend support",
        "leading term of remainder is not reducible",
        "leading coefficient N not divisible by N",
        "leading coefficient not divisible in Z[q^(N/N), q^(N/N)]",
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
