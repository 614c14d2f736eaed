"""Scalar ring Z[q^(1/2), q^(-1/2)]: arithmetic, division, bar, JSON."""

import random

import pytest

from qcluster import NotDivisibleError, QLaurent

from helpers import random_nonzero_qlaurent, random_qlaurent


def test_construction_canonicalizes():
    assert not QLaurent({0: 0, 3: 0})
    assert QLaurent([(1, 2), (1, -2)]) == QLaurent.zero()
    f = QLaurent([(0, 1), (0, 2), (-1, 5)])
    assert f.coefficient(0) == 3
    assert f.coefficient(-1) == 5
    assert f.coefficient(7) == 0
    assert len(f) == 2


def test_constants_and_powers():
    assert QLaurent.one() == QLaurent.from_int(1)
    assert QLaurent.from_int(0) == QLaurent.zero()
    assert QLaurent.v_power(3, 2) == QLaurent({3: 2})
    assert QLaurent.q_power(2) == QLaurent.v_power(4)
    assert QLaurent.one().is_one()
    assert not QLaurent.v_power(1).is_one()


def test_ring_ops_and_int_coercion():
    f = QLaurent({2: 1, 0: -1})
    g = QLaurent({1: 3})
    assert f + g - g == f
    assert f + 1 == QLaurent({2: 1})
    assert 1 + f == QLaurent({2: 1})
    assert 2 - f == QLaurent({0: 3, 2: -1})
    assert -(-f) == f
    assert f * 0 == QLaurent.zero()
    assert 3 * f == f * 3
    assert f * g == QLaurent({3: 3, 1: -3})


def test_mul_shifted_matches_explicit():
    rng = random.Random(7)
    for _ in range(50):
        f = random_qlaurent(rng)
        g = random_qlaurent(rng)
        s = rng.randint(-4, 4)
        assert f.mul_shifted(g, s) == f * g * QLaurent.v_power(s)


def test_min_max_exponents():
    f = QLaurent({-2: 1, 5: -3})
    assert f.min_exp() == -2
    assert f.max_exp() == 5
    with pytest.raises(ValueError):
        QLaurent.zero().min_exp()


def test_exact_div_known_quotients():
    f = QLaurent({2: 1, 0: -1})  # v^2 - 1
    g = QLaurent({1: 1, -1: -1})  # v - v^-1
    assert f.exact_div(g) == QLaurent.v_power(1)
    assert QLaurent.zero().exact_div(g) == QLaurent.zero()
    # unit divisor
    assert f.exact_div(QLaurent.v_power(-2)) == QLaurent({4: 1, 2: -1})


def test_exact_div_failures():
    f = QLaurent({1: 1, 0: 1})  # v + 1
    with pytest.raises(NotDivisibleError):
        f.exact_div(QLaurent({1: 1, 0: -1}))
    with pytest.raises(NotDivisibleError):
        QLaurent({0: 3}).exact_div(QLaurent({0: 2}))
    # divisor support wider than dividend
    with pytest.raises(NotDivisibleError):
        f.exact_div(QLaurent({2: 1, -2: 1}))
    with pytest.raises(ZeroDivisionError):
        f.exact_div(QLaurent.zero())


def test_exact_div_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        f = random_nonzero_qlaurent(rng)
        g = random_nonzero_qlaurent(rng)
        assert (f * g).exact_div(g) == f


def test_bar_and_eval():
    f = QLaurent({2: 1, -1: 4})
    assert f.bar() == QLaurent({-2: 1, 1: 4})
    assert f.bar().bar() == f
    assert f.eval_at_one() == 5
    rng = random.Random(13)
    for _ in range(100):
        a = random_qlaurent(rng)
        b = random_qlaurent(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


def test_json_round_trip():
    f = QLaurent({-3: 12345678901234567890, 2: -7})
    data = f.to_json()
    assert data == {"-3": "12345678901234567890", "2": "-7"}
    assert QLaurent.from_json(data) == f
    assert QLaurent.from_json({}) == QLaurent.zero()


def test_str_uses_q_half_powers():
    assert str(QLaurent.zero()) == "0"
    assert str(QLaurent.one()) == "1"
    assert str(QLaurent.v_power(1)) == "q^{1/2}"
    assert str(QLaurent.v_power(-2)) == "q^{-1}"
    assert str(QLaurent.v_power(2, 3)) == "3*q"
    s = str(QLaurent({3: 1, 0: -2}))
    assert "q^{3/2}" in s and "2" in s


def test_hash_consistent_with_eq():
    f = QLaurent({1: 2, 0: 1})
    g = QLaurent([(0, 1), (1, 1), (1, 1)])
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


def test_public_surface_speaks_int_exponents():
    # the frame-taking members of the torus rings are not QLaurent's
    for name in ("monomial", "generator", "m", "support", "min_exponents"):
        assert not hasattr(QLaurent, name)
    assert QLaurent.zero() == QLaurent() and QLaurent.one() == QLaurent({0: 1})
    # both rings over Z commute, so division has no side to choose
    with pytest.raises(TypeError):
        QLaurent.one().exact_div(QLaurent.one(), right=False)
