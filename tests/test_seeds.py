"""Exchange matrices, symmetrizers, compatibility, frames, seed I/O."""

import math
import random

import pytest

import qcluster.seeds
from qcluster import (
    ClassicalSeed,
    CommLaurent,
    ExchangeMatrix,
    IncompatibleError,
    NotSymmetrizableError,
    QLaurent,
    QuantumSeed,
    SkewMatrix,
    TorusElement,
    canonical_form,
    check_compatibility,
    dump_seed,
    find_skew_symmetrizer,
    lambda_mutate,
    load_seed,
    matrix_mutate,
    mutate,
    principal_extension,
    principal_lambda,
    specialize_seed,
)

from helpers import (
    A2_ROWS,
    A3_ROWS,
    random_exchange_matrix,
    random_principal_quantum_seed,
    random_skew,
    random_skew_symmetrizable,
)
from oracles import ref_skew_symmetrizer, ref_transform
from qcluster.seeds import _exchange_exponents, _frame_mutate

L2 = SkewMatrix([[0, 1], [-1, 0]])


# -- skew-symmetrizers --------------------------------------------------


def test_symmetrizer_skew_symmetric_is_ones():
    assert find_skew_symmetrizer(A2_ROWS) == (1, 1)
    assert find_skew_symmetrizer(A3_ROWS) == (1, 1, 1)
    assert find_skew_symmetrizer([[0]]) == (1,)


def test_symmetrizer_weighted():
    assert find_skew_symmetrizer([[0, 1], [-2, 0]]) == (2, 1)
    assert find_skew_symmetrizer([[0, 2], [-1, 0]]) == (1, 2)
    # isolated vertex scales to 1 independently
    assert find_skew_symmetrizer([[0, 0, 1], [0, 0, 0], [-2, 0, 0]]) == (2, 1, 1)


def test_symmetrizer_components_scale_independently():
    rows = [
        [0, 1, 0, 0],
        [-2, 0, 0, 0],
        [0, 0, 0, 3],
        [0, 0, -1, 0],
    ]
    assert find_skew_symmetrizer(rows) == (2, 1, 1, 3)


SYMMETRIZER_FAILURES = [
    [[0, 1], [1, 0]],
    [[0, 1], [0, 0]],
    [[1]],
    # consistent pairwise signs but inconsistent cycle ratios
    [[0, 1, -2], [-2, 0, 1], [1, -1, 0]],
    # the walk rescales its component before it meets the bad edge
    [[0, 1, 0, -2], [-2, 0, 1, 0], [0, -3, 0, 1], [1, 0, -1, 0]],
]


def test_symmetrizer_failures():
    for rows in SYMMETRIZER_FAILURES:
        with pytest.raises(NotSymmetrizableError) as ref:
            ref_skew_symmetrizer(rows)
        with pytest.raises(NotSymmetrizableError) as got:
            find_skew_symmetrizer(rows)
        assert str(got.value) == str(ref.value)


def _components(rows):
    """Connected components of the nonzero pattern, as lists of indices."""
    seen = set()
    out = []
    for root in range(len(rows)):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j, x in enumerate(rows[i]):
                if x and j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(comp)
    return out


def test_symmetrizer_random_generated():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = random_skew_symmetrizable(rng, n)
        d = find_skew_symmetrizer(rows)
        assert all(x > 0 for x in d)
        for i in range(n):
            for j in range(n):
                assert d[i] * rows[i][j] == -d[j] * rows[j][i]
        # minimal: gcd 1 on each component, which is what the oracle returns
        for comp in _components(rows):
            assert math.gcd(*(d[i] for i in comp)) == 1
        assert d == ref_skew_symmetrizer(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1],
         [0, 0, 0, -1, 0]],
        [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]],
        [[0, 1, 0, 0], [-1, 0, 2, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        [[0, 1], [-3, 0]],
        [[0, 2], [-2, 0]],
        [[0, 1], [-4, 0]],
        # two components with different scales, d = (2, 1, 3, 1)
        [[0, 1, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -3, 0]],
        # B3 over two frozen rows
        [[0, 1, 0], [-1, 0, 1], [0, -2, 0], [1, 0, -1], [0, 2, 1]],
    ],
    ids=["A5", "D4", "F4", "G2", "kronecker", "kronecker-4", "B2+G2", "B3-frozen"],
)
def test_symmetrizer_matches_oracle_along_mutation_walks(rows):
    # mutation carries d and checks it; the oracle searches afresh
    rng = random.Random(11)
    n = len(rows[0])
    for _ in range(10):
        # relabel, so the integer walk starts from different roots
        perm = rng.sample(range(n), n)
        b = ExchangeMatrix([[rows[i][j] for j in perm] for i in perm + list(range(n, len(rows)))])
        for _ in range(30):
            assert b.d == ref_skew_symmetrizer(b.principal())
            b = matrix_mutate(b, rng.randrange(n))


def test_carried_symmetrizer_is_checked():
    # a wrong d is refused by mutation and by the explorer's relabeling
    b = ExchangeMatrix([[0, 1], [-2, 0], [1, 1]], ex=[0, 1])
    assert b.d == (2, 1)
    b._d = (1, 1)
    with pytest.raises(NotSymmetrizableError, match="no symmetrizer: check failed"):
        matrix_mutate(b, 0)
    seed = ClassicalSeed.initial(b)  # x2 sorts before x1, so the form relabels
    with pytest.raises(NotSymmetrizableError, match="no symmetrizer: check failed"):
        canonical_form(seed)


# -- exchange matrices --------------------------------------------------


def test_exchange_matrix_basics():
    b = ExchangeMatrix([[0, 1], [-1, 0], [2, -2]], ex=[0, 1])
    assert (b.m, b.n, b.ex) == (3, 2, (0, 1))
    assert b.principal() == ((0, 1), (-1, 0))
    assert b.column(0) == (0, -1, 2)
    assert b.d == (1, 1)
    assert b.position(1) == 1
    with pytest.raises(ValueError):
        b.position(2)


def test_exchange_matrix_validation():
    with pytest.raises(NotSymmetrizableError):
        ExchangeMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1], [-1, 0]], ex=[1, 0])
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1], [-1, 0]], ex=[0, 2])
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1]], ex=[0, 1])
    with pytest.raises(ValueError, match="ex must list 2 distinct indices"):
        ExchangeMatrix([[0, 1], [-1, 0]], ex=[0, 0])


def test_exchange_matrix_equality_hash_and_repr():
    rows = [[0, 1], [2, -3], [-1, 0]]
    b = ExchangeMatrix(rows, ex=[0, 2])
    same = ExchangeMatrix(tuple(map(tuple, rows)), ex=(0, 2))
    assert b == same and hash(b) == hash(same)
    assert b != ExchangeMatrix([[0, 1], [-1, 0], [2, -3]])
    assert b.__eq__(rows) is NotImplemented and b != rows
    assert eval(repr(b)) == b
    seed, twin = ClassicalSeed.initial(b), ClassicalSeed.initial(same)
    assert seed == twin and hash(seed) == hash(twin)
    with pytest.raises(ValueError, match="at least one row"):
        ExchangeMatrix([])
    lam = SkewMatrix([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    assert eval(repr(lam)) == lam
    twin = SkewMatrix(lam.rows())
    assert lam == twin and hash(lam) == hash(twin)
    # the same square rows make no SkewMatrix equal to an ExchangeMatrix
    square = ExchangeMatrix(lam.rows())
    assert lam != square and square != lam
    assert lam.__eq__(square) is NotImplemented and square.__eq__(lam) is NotImplemented


def test_matrix_mutate_rank2_sign_flip():
    b = ExchangeMatrix(A2_ROWS)
    assert matrix_mutate(b, 0).rows() == ((0, -1), (1, 0))


def test_matrix_mutate_a3_middle():
    b = ExchangeMatrix(A3_ROWS)
    assert matrix_mutate(b, 1).rows() == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_matrix_mutate_requires_exchangeable():
    b = ExchangeMatrix([[0], [1]], ex=[0])
    with pytest.raises(ValueError):
        matrix_mutate(b, 1)


def test_matrix_mutate_involutive_random():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, m)
        b = random_exchange_matrix(rng, m, n)
        for k in b.ex:
            assert matrix_mutate(matrix_mutate(b, k), k) == b


def _dense_mutation(rows, ex, k):
    """b'_ij = -b_ij if i = k or ex[j] = k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    p = ex.index(k)
    return [
        [
            -rows[i][j]
            if i == k or j == p
            else rows[i][j] + (abs(rows[i][p]) * rows[k][j] + rows[i][p] * abs(rows[k][j])) // 2
            for j in range(len(ex))
        ]
        for i in range(len(rows))
    ]


def test_matrix_mutate_matches_the_dense_formula():
    # tall matrices with frozen rows; a row with b_ik = 0 is the parent's object
    rng = random.Random(24)
    kept = frozen_kept = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        b = random_exchange_matrix(rng, rng.randint(n, n + 3), n)
        for k in b.ex:
            got = matrix_mutate(b, k)
            assert [list(r) for r in got.rows()] == _dense_mutation(b.rows(), b.ex, k)
            assert got.ex == b.ex and got.d == b.d == find_skew_symmetrizer(got)
            p = b.position(k)
            for i, (row, new) in enumerate(zip(b.rows(), got.rows())):
                if i != k and row[p] == 0:
                    assert new is row
                    kept += 1
                    frozen_kept += i not in b.ex
    assert kept > 100 and frozen_kept > 50


def test_frame_update_keeps_its_exponents():
    # quantum mutation hands _exchange_exponents' positive part, which also
    # keys its proof, to the frame update; the update copies it
    rng = random.Random(5)
    for _ in range(20):
        seed = random_principal_quantum_seed(rng, rng.randint(1, 4))
        for k in seed.ex:
            g = _exchange_exponents(seed.b, k)[0]
            before = list(g)
            assert _frame_mutate(seed.lam, k, g) == lambda_mutate(seed.lam, seed.b, k)
            assert g == before


# -- compatibility ------------------------------------------------------


def test_compatibility_examples():
    assert check_compatibility(ExchangeMatrix(A2_ROWS), L2) == (1, 1)
    b21 = ExchangeMatrix([[0], [1]], ex=[0])
    assert check_compatibility(b21, SkewMatrix([[0, -1], [1, 0]])) == (1,)


def test_frame_size_must_match_the_matrix():
    b = ExchangeMatrix(A2_ROWS)
    lam = SkewMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    with pytest.raises(ValueError, match="lambda is 3x3, expected 2x2"):
        check_compatibility(b, lam)
    with pytest.raises(ValueError, match="matrix sizes disagree: 2 vs 3"):
        lambda_mutate(lam, b, 0)


def test_compatibility_zero_lambda_fails():
    b = ExchangeMatrix(A2_ROWS)
    with pytest.raises(IncompatibleError) as info:
        check_compatibility(b, SkewMatrix([[0, 0], [0, 0]]))
    assert info.value.position == (0, 0)


def test_compatibility_off_diagonal_failure_position():
    # frozen-frozen pairing leaks into the product at (1, 0)
    b = ExchangeMatrix([[0], [1], [1]], ex=[0])
    lam = SkewMatrix([[0, -1, 0], [1, 0, 7], [0, -7, 0]])
    with pytest.raises(IncompatibleError) as info:
        check_compatibility(b, lam)
    assert info.value.position == (1, 0)


def test_compatibility_accepts_non_canonical_d():
    # a skew-symmetric principal part can still certify d != (1, 1)
    b = ExchangeMatrix([[0, 2], [-2, 0]])
    assert check_compatibility(b, L2) == (2, 2)


def test_compatibility_implies_symmetrizer_condition():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 3)
        seed = random_principal_quantum_seed(rng, n)
        d = check_compatibility(seed.b, seed.lam)
        p = seed.b.principal()
        for i in range(n):
            for j in range(n):
                assert d[i] * p[i][j] == -d[j] * p[j][i]


# -- frame mutation -----------------------------------------------------


def test_lambda_mutate_a2():
    b = ExchangeMatrix(A2_ROWS)
    assert lambda_mutate(L2, b, 0).rows() == ((0, -1), (1, 0))


def test_lambda_mutate_nonpositive_column_negates_row_col():
    # column of direction 0 is (0, -1): no positive part
    b = ExchangeMatrix(A2_ROWS)
    lam = SkewMatrix([[0, 5], [-5, 0]])
    got = lambda_mutate(lam, b, 0)
    assert got.rows() == ((0, -5), (5, 0))


def test_lambda_mutate_matches_reference_transform():
    lam = principal_lambda(A3_ROWS)
    bp = principal_extension(A3_ROWS)
    for k in (0, 1, 2):
        cols = []
        m = 6
        for j in range(m):
            col = [0] * m
            col[j] = 1
            cols.append(col)
        ck = [0] * m
        ck[k] = -1
        for i in range(m):
            e = bp.entry(i, k)
            if e > 0:
                ck[i] += e
        cols[k] = ck
        assert [list(r) for r in lambda_mutate(lam, bp, k).rows()] == ref_transform(
            lam.rows(), cols
        )


def _exchange_columns(b, k, sign):
    """Columns of E for direction k: the identity, but -e_k plus the part of
    column k of b with the given sign (+1 positive, -1 negative) in column k."""
    m = b.m
    col = b.column(b.position(k))
    cols = [[int(i == j) for i in range(m)] for j in range(m)]
    cols[k] = [max(sign * e, 0) - (i == k) for i, e in enumerate(col)]
    return cols


def test_lambda_mutate_random_against_reference_transform():
    # E^T lam E on arbitrary (not necessarily compatible) pairs
    rng = random.Random(26)
    for _ in range(60):
        m = rng.randint(1, 5)
        b = random_exchange_matrix(rng, m, rng.randint(1, m))
        lam = random_skew(rng, m)
        for k in b.ex:
            got = lambda_mutate(lam, b, k)
            assert [list(r) for r in got.rows()] == ref_transform(
                lam.rows(), _exchange_columns(b, k, 1)
            )


def test_lambda_mutate_sign_choice_agrees_under_compatibility():
    # the negative part of column k gives the same frame on compatible pairs
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(1, 3)
        seed = random_principal_quantum_seed(rng, n)
        for k in seed.b.ex:
            pos = lambda_mutate(seed.lam, seed.b, k)
            neg = ref_transform(seed.lam.rows(), _exchange_columns(seed.b, k, -1))
            assert [list(r) for r in pos.rows()] == neg


def test_mutation_pair_preserves_compatibility_and_d():
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(1, 3)
        seed = random_principal_quantum_seed(rng, n)
        d = seed.d
        b, lam = seed.b, seed.lam
        for _ in range(3):
            k = rng.choice(b.ex)
            lam = lambda_mutate(lam, b, k)
            b = matrix_mutate(b, k)
            assert check_compatibility(b, lam) == d


def test_lambda_mutate_involutive_with_matrix():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 3)
        seed = random_principal_quantum_seed(rng, n)
        for k in seed.b.ex:
            lam1 = lambda_mutate(seed.lam, seed.b, k)
            b1 = matrix_mutate(seed.b, k)
            assert lambda_mutate(lam1, b1, k) == seed.lam


# -- principal frames ---------------------------------------------------


def test_principal_lambda_rank1():
    assert principal_lambda([[0]], None, [2]).rows() == ((0, -2), (2, 0))


def test_principal_lambda_a2():
    got = principal_lambda(A2_ROWS, None, [1, 1])
    assert got.rows() == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (0, 1, 1, 0),
    )


def test_principal_lambda_zero_b():
    got = principal_lambda([[0, 0], [0, 0]])
    assert got.rows() == (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def test_principal_lambda_self_check_names_both_symmetrizers(monkeypatch):
    # the frame is verified against [B; I] before it is returned; a
    # construction that went wrong would be reported, not handed out
    monkeypatch.setattr(qcluster.seeds, "check_compatibility", lambda ext, lam: (2, 2))
    with pytest.raises(IncompatibleError, match=r"constructed frame yields d=\(2, 2\), expected \(1, 1\)"):
        principal_lambda(A2_ROWS, None, [1, 1])


def test_principal_lambda_validates_d():
    with pytest.raises(NotSymmetrizableError):
        principal_lambda([[0, 1], [-2, 0]], None, [1, 1])
    # canonical d works
    lam = principal_lambda([[0, 1], [-2, 0]])
    ext = principal_extension([[0, 1], [-2, 0]])
    assert check_compatibility(ext, lam) == (2, 1)


@pytest.mark.parametrize(
    "bmat, lam0, d, message",
    [
        ([[0, 1]], None, None, "B must be square; row 0 has length 2"),
        ([[0, 1], [-1, 0]], None, [1], "D must be 2 positive integers"),
        ([[0, 1], [-1, 0]], None, [1, 0], "D must be 2 positive integers"),
        ([[0, 1], [-1, 0]], None, [-1, -1], "D must be 2 positive integers"),
        ([[0, 1], [-1, 0]], [[0]], None, "lambda0 is 1x1, expected 2x2"),
    ],
)
def test_principal_lambda_rejects_bad_shapes(bmat, lam0, d, message):
    with pytest.raises(ValueError) as info:
        principal_lambda(bmat, lam0, d)
    assert str(info.value) == message


def test_principal_lambda_random_with_lambda0():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = random_skew_symmetrizable(rng, n, bound=3)
        lam0 = random_skew(rng, n, bound=3)
        d = find_skew_symmetrizer(rows)
        lam = principal_lambda(rows, lam0, d)
        assert check_compatibility(principal_extension(rows), lam) == d
        # with compatibility, the top-left block pins the frame: the skew
        # frames L with [B; I]^T L = 0 are K S K^T for K = [I; -B^T], and
        # their top-left block is S
        assert tuple(row[:n] for row in lam.rows()[:n]) == lam0.rows()


# -- seeds and serialization --------------------------------------------


def test_initial_seeds():
    b = ExchangeMatrix(A2_ROWS)
    s = ClassicalSeed.initial(b)
    assert s.vars == (CommLaurent.generator(2, 0), CommLaurent.generator(2, 1))
    assert s.cluster() == s.vars
    q = QuantumSeed.initial(b, L2)
    assert q.d == (1, 1)
    assert q.vars == (TorusElement.generator(L2, 0), TorusElement.generator(L2, 1))
    with pytest.raises(ValueError, match="expected 2 variables, got 1"):
        ClassicalSeed(b, s.vars[:1])
    with pytest.raises(ValueError, match="expected 2 variables, got 1"):
        QuantumSeed(L2, b, q.vars[:1], q.d)
    lam3 = SkewMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="lambda is 3x3, expected m=2"):
        QuantumSeed(lam3, b, q.vars, q.d)


def test_quantum_seed_zero_lambda_rejected():
    b = ExchangeMatrix(A2_ROWS)
    with pytest.raises(IncompatibleError):
        QuantumSeed.initial(b, SkewMatrix([[0, 0], [0, 0]]))


def test_specialize_seed():
    q = QuantumSeed.initial(ExchangeMatrix(A2_ROWS), L2)
    s = specialize_seed(q)
    assert s.b == q.b
    assert s.vars == (CommLaurent.generator(2, 0), CommLaurent.generator(2, 1))


def test_seed_json_round_trip():
    obj = {
        "m": 3,
        "n": 2,
        "ex": [1, 3],
        "B": [[0, 1], [1, -1], [-1, 0]],
    }
    s = load_seed(obj)
    assert isinstance(s, ClassicalSeed)
    assert s.b.ex == (0, 2)
    out = dump_seed(s)
    assert out == obj
    assert load_seed(out).b == s.b


def test_seed_json_quantum():
    obj = {
        "m": 2,
        "n": 1,
        "ex": [1],
        "B": [[0], [1]],
        "Lambda": [[0, -1], [1, 0]],
    }
    s = load_seed(obj)
    assert isinstance(s, QuantumSeed)
    assert s.d == (1,)
    out = dump_seed(s, full=True)
    assert out["d"] == [1]
    assert out["vars"] == [
        [{"exp": [1, 0], "coeff": {"0": "1"}}],
        [{"exp": [0, 1], "coeff": {"0": "1"}}],
    ]
    # dumped seed (non-full) loads back
    assert load_seed(dump_seed(s)).lam == s.lam


def test_seed_json_defaults_and_errors():
    # ex defaults to 1..n
    s = load_seed({"m": 2, "n": 2, "B": A2_ROWS})
    assert s.b.ex == (0, 1)
    with pytest.raises(ValueError):
        load_seed({"m": 2, "n": 2, "B": A2_ROWS, "vars": []})
    with pytest.raises(ValueError):
        load_seed({"m": 2, "n": 2, "B": [[0, 1]]})
    with pytest.raises(ValueError):
        load_seed({"n": 2, "B": A2_ROWS})
    with pytest.raises(ValueError):
        load_seed([1, 2])
    with pytest.raises(ValueError):
        load_seed({"m": 2, "n": 2, "B": A2_ROWS, "Lambda": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})


def test_seed_json_rejects_non_integers():
    # nothing is truncated or coerced: 1.7 is not 1 and true is not 1
    for patch in ({"B": [[0, 1.7], [-1, 0]]}, {"B": [[0, True], [-1, 0]]},
                  {"m": "2"}, {"ex": [1.0, 2]}, {"Lambda": 5},
                  {"Lambda": [[0, False], [0, 0]]}):
        with pytest.raises(ValueError):
            load_seed({"m": 2, "n": 2, "B": A2_ROWS, **patch})


CONSTRUCTORS = {
    "ExchangeMatrix rows": lambda x: ExchangeMatrix([[0, x], [-1, 0]]),
    "ExchangeMatrix ex": lambda x: ExchangeMatrix(A2_ROWS, ex=[0, x]),
    "SkewMatrix": lambda x: SkewMatrix([[0, x], [-1, 0]]),
    "find_skew_symmetrizer": lambda x: find_skew_symmetrizer([[0, x], [-1, 0]]),
    "principal_lambda rows": lambda x: principal_lambda([[0, x], [-1, 0]]),
    "principal_lambda D": lambda x: principal_lambda(A2_ROWS, d=[1, x]),
    "CommLaurent exponent": lambda x: CommLaurent(2, {(x, 0): 1}),
    "TorusElement exponent": lambda x: TorusElement(L2, {(x, 0): 1}),
    "QLaurent exponent": lambda x: QLaurent({x: 1}),
    "QLaurent coefficient": lambda x: QLaurent({0: x}),
}


@pytest.mark.parametrize("bad", [1.7, True, "1"], ids=repr)
@pytest.mark.parametrize("where", sorted(CONSTRUCTORS))
def test_python_constructors_reject_non_integers(where, bad):
    # each would read 1 (or fail later for a different reason) under int()
    with pytest.raises(ValueError, match="must hold integers"):
        CONSTRUCTORS[where](bad)


@pytest.mark.parametrize("bad", [1.7, True, "1"], ids=repr)
@pytest.mark.parametrize("ring", ["CommLaurent", "TorusElement"])
def test_coefficient_reads_exponents_as_the_constructors_do(ring, bad):
    # a non-int entry or a wrong length is an error, not an exponent off
    # the support; only one beyond the packed range reads as zero
    x = CommLaurent.generator(2, 0) if ring == "CommLaurent" else TorusElement.generator(L2, 0)
    assert x.coefficient((1, 0)) == 1 and x.coefficient((0, 1)) == 0
    with pytest.raises(ValueError, match="must hold integers"):
        x.coefficient((bad, 0))
    for wrong in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="has length"):
            x.coefficient(wrong)


NON_INT_SITES = {
    "classical mutate": lambda x: mutate(ClassicalSeed.initial(ExchangeMatrix(A2_ROWS)), x),
    "quantum mutate": lambda x: mutate(QuantumSeed.initial(ExchangeMatrix(A2_ROWS), L2), x),
    "QLaurent **": lambda x: QLaurent({1: 1}) ** x,
    "CommLaurent **": lambda x: CommLaurent.generator(2, 0) ** x,
    "TorusElement **": lambda x: TorusElement.generator(L2, 0) ** x,
    "QLaurent.shift": lambda x: QLaurent.one().shift(x),
    "QLaurent.q_power": lambda x: QLaurent.q_power(x),
    "QLaurent.coefficient": lambda x: QLaurent({1: 3}).coefficient(x),
    "CommLaurent.generator": lambda x: CommLaurent.generator(2, x),
    "TorusElement.generator": lambda x: TorusElement.generator(L2, x),
    "CommLaurent width": lambda x: CommLaurent(x),
    "CommLaurent.generator width": lambda x: CommLaurent.generator(x, 0),
    "CommLaurent.constant width": lambda x: CommLaurent.constant(x, 3),
}


@pytest.mark.parametrize("bad", [True, False, 1.0], ids=repr)
@pytest.mark.parametrize("where", sorted(NON_INT_SITES))
def test_directions_and_powers_reject_bool_and_float(where, bad):
    # True and 1.0 equal 1, so tuple.index, isinstance(n, int) and list
    # indexing let them through (1.0 fails inside the list), and 2 * True
    # is an int; a bool width would reach _packing's struct format and a
    # float one range()
    NON_INT_SITES[where](1)
    match = ("is not exchangeable|nonnegative integer powers|must be an integer|generator index"
             "|m must be a positive int")
    with pytest.raises(ValueError, match=match):
        NON_INT_SITES[where](bad)

JSON_SITES = {
    "CommLaurent coeff": (
        lambda x: CommLaurent.from_json(1, [{"exp": [0], "coeff": x}]),
        TypeError, "bad coefficient type"),
    "TorusElement coeff": (
        lambda x: TorusElement.from_json(L2, [{"exp": [0, 0], "coeff": x}]),
        ValueError, "QLaurent"),
    "TorusElement v-coeff": (
        lambda x: TorusElement.from_json(L2, [{"exp": [0, 0], "coeff": {"1": x}}]),
        ValueError, "must hold integers"),
    "QLaurent coeff": (lambda x: QLaurent.from_json({"0": x}), ValueError, "must hold integers"),
    "QLaurent v-exponent": (lambda x: QLaurent.from_json({x: "1"}), ValueError, "must hold integers"),
}


@pytest.mark.parametrize(
    "bad", [2.7, 2.0, True, False, None, (1,), "2.7", " 2", "+2", "02", "1_0", "x"], ids=repr
)
@pytest.mark.parametrize("where", sorted(JSON_SITES))
def test_json_readers_reject_non_integers(where, bad):
    # int() would read 2.7 and "2.0"-like values as 2 and True as 1
    build, error, message = JSON_SITES[where]
    with pytest.raises(error, match=message):
        build(bad)


JSON_RECORDS = {
    "a record not an object": [5],
    "a record with no exp": [{"coeff": "1"}],
    "an exp not a list": [{"exp": 5, "coeff": "1"}],
    "a record with no coeff": [{"exp": [0, 0]}],
    "a dict in place of the list": {"exp": [0, 0], "coeff": "1"},
}


@pytest.mark.parametrize("records", JSON_RECORDS.values(), ids=list(JSON_RECORDS))
@pytest.mark.parametrize("ring", ["CommLaurent", "TorusElement"])
def test_json_readers_reject_malformed_records(ring, records):
    # a malformed export is a ValueError, not a KeyError or TypeError
    # from indexing it; the coefficient sites above keep their own errors
    read = CommLaurent.from_json if ring == "CommLaurent" else TorusElement.from_json
    with pytest.raises(ValueError, match='list of objects with an "exp" list and a "coeff"'):
        read(2 if ring == "CommLaurent" else L2, records)


@pytest.mark.parametrize("good", [-12, 0, 7, "-12", "0", "7", str(10**40)], ids=repr)
def test_json_readers_accept_ints_and_their_decimal_strings(good):
    n = int(good)
    if n:
        assert CommLaurent.from_json(1, [{"exp": [2], "coeff": good}]) == CommLaurent(1, {(2,): n})
    assert QLaurent.from_json({"3": good}) == QLaurent({3: n})
    assert QLaurent.from_json({str(n): "1"}) == QLaurent({n: 1})
    # what to_json writes reads back
    f = CommLaurent(2, {(1, -1): n or 5, (0, 2): -3})
    assert CommLaurent.from_json(2, f.to_json()) == f


def test_seed_validation():
    b = ExchangeMatrix(A2_ROWS)
    with pytest.raises(ValueError):
        ClassicalSeed(b, (CommLaurent.generator(2, 0),))
    with pytest.raises(ValueError):
        QuantumSeed(
            SkewMatrix([[0]]),
            b,
            (TorusElement.generator(L2, 0), TorusElement.generator(L2, 1)),
            (1, 1),
        )
