"""Exchange matrices, compatible pairs, and seed construction.

The objects here are pure integer data: the m x n exchange matrix with
its distinguished exchangeable rows, skew-symmetrizers of its principal
part, the compatibility pairing with a skew-symmetric Lambda, and the
two seed types (classical and quantum) that bundle the matrices with
cluster variables.  The exchange relations themselves live in the
mutation module.

Indices are 0-based everywhere in this package; the 1-based convention
of the JSON seed format is translated at the (de)serialization boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .errors import IncompatibleError, NotSymmetrizableError
from .torus import CommLaurent, SkewMatrix, TorusElement, _int_rows, _int_tuple, _IntMatrix


def _check_symmetrizer(rows, d, what: str = "no symmetrizer: check failed") -> None:
    """Raise NotSymmetrizableError unless d_i b_ij = -d_j b_ji everywhere.

    For d > 0 this forces the zero diagonal and the sign pattern too.
    """
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSymmetrizableError(f"{what} at ({i}, {j})")


def find_skew_symmetrizer(b) -> tuple[int, ...]:
    """Minimal positive diagonal d with d_i b_ij = -d_j b_ji.

    INPUT: an ExchangeMatrix (its principal part is used) or a square
    integer matrix as a sequence of rows.
    OUTPUT: tuple of positive integers, one per row, with gcd 1 on each
    connected component of the nonzero pattern.
    RAISES: NotSymmetrizableError if no positive solution exists.
    """
    rows = b.principal() if isinstance(b, ExchangeMatrix) else _int_rows(b, "B", len(b))
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            raise NotSymmetrizableError(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, n):
            p, q = rows[i][j], rows[j][i]
            # d_i p = -d_j q with d > 0 forces opposite signs, zeros paired
            if (p == 0) != (q == 0) or p * q > 0:
                raise NotSymmetrizableError(
                    f"sign pattern at ({i}, {j}) admits no positive symmetrizer"
                )
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        # walk the component in integers, d_j = d_i |b_ij| / |b_ji| along
        # each edge; when that leaves Z, scale the whole component by the
        # least factor that keeps it integral.  Each such scale s is coprime
        # to the new entry, so the component keeps gcd 1 from d_root = 1 on
        # and the result is already minimal.
        d[root] = 1
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                num, den = d[i] * abs(rows[i][j]), abs(rows[j][i])
                if not d[j]:
                    if num % den:
                        scale = den // gcd(num, den)
                        for c in component:
                            d[c] *= scale
                        num *= scale
                    d[j] = num // den
                    component.append(j)
                    stack.append(j)
                elif d[j] * den != num:
                    raise NotSymmetrizableError(
                        f"inconsistent ratio around edge ({i}, {j})"
                    )
    _check_symmetrizer(rows, d)
    return tuple(d)


class ExchangeMatrix(_IntMatrix):
    """An m x n integer matrix with n distinguished exchangeable rows.

    Column j is the exchange data of direction ex[j]; the principal part
    (rows restricted to ex) must admit a positive skew-symmetrizer,
    which is searched at construction and carried, checked, through
    matrix_mutate and a seed's relabeling (_Seed._relabeled).
    """

    __slots__ = ("_ex", "_d")

    def __init__(self, rows: Sequence[Sequence[int]], ex: Sequence[int] | None = None):
        m = len(rows)
        if m < 1:
            raise ValueError("need at least one row")
        n = len(rows[0])
        tup = _int_rows(rows, "B", n)
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= n <= m, got n={n}, m={m}")
        if ex is None:
            exs = tuple(range(n))
        else:
            exs = _int_tuple(ex, "ex")
        if len(exs) != n or len(set(exs)) != n:
            raise ValueError(f"ex must list {n} distinct indices")
        if exs != tuple(sorted(exs)) or exs[0] < 0 or exs[-1] >= m:
            raise ValueError(f"ex must be sorted within [0, {m})")
        self._rows = tup
        self._ex = exs
        self._d = find_skew_symmetrizer(self)

    @classmethod
    def _derived(cls, rows, ex: tuple[int, ...], d: tuple[int, ...]) -> "ExchangeMatrix":
        """The mutated or relabeled matrix of int rows over a checked ex; d is the parent's.

        Neither step changes the components of the principal part's nonzero
        pattern (b_ij, i, j != k, changes only when i and j both neighbour k,
        and k keeps its neighbours), so each keeps gcd 1 and the carried d,
        permuted with the columns, stays minimal: it is checked, not searched.
        """
        out = super()._derived(rows)
        out._ex = ex
        _check_symmetrizer(out.principal(), d)
        out._d = d
        return out

    @property
    def n(self) -> int:
        return len(self._ex)

    @property
    def ex(self) -> tuple[int, ...]:
        return self._ex

    @property
    def d(self) -> tuple[int, ...]:
        """Canonical skew-symmetrizer of the principal part, aligned with ex."""
        return self._d

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._rows)

    def principal(self) -> tuple[tuple[int, ...], ...]:
        """The n x n submatrix on the exchangeable rows."""
        return tuple(self._rows[k] for k in self._ex)

    def position(self, k: int) -> int:
        """Column position of exchange direction k; k must be an int in ex."""
        if type(k) is int and k in self._ex:
            return self._ex.index(k)
        raise ValueError(f"index {k!r} is not exchangeable")

    def _key(self):
        return self._rows, self._ex

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self._rows]!r}, ex={list(self._ex)!r})"


def matrix_mutate(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate the exchange matrix in direction k (a row index in ex).

    Entries with i = k or column direction k flip sign; the rest gain
    (|b_ik| b_kj + b_ik |b_kj|) / 2, which is integral because the two
    summands share the sign of b_ik b_kj.  So a row with b_ik = 0 is the
    parent's row object, and elsewhere only entries with b_kj != 0 change.
    """
    p = b.position(k)
    rows = b.rows()
    bk = [(j, bkj) for j, bkj in enumerate(rows[k]) if bkj]
    new_rows = []
    for i, row in enumerate(rows):
        bik = row[p]
        if i == k:
            row = [-x for x in row]
        elif bik:
            row = list(row)
            row[p] = -bik
            for j, bkj in bk:
                row[j] += (abs(bik) * bkj + bik * abs(bkj)) // 2
        new_rows.append(row)
    return ExchangeMatrix._derived(new_rows, b.ex, b.d)


def check_compatibility(b: ExchangeMatrix, lam: SkewMatrix) -> tuple[int, ...]:
    """Verify the delta-pairing between an exchange matrix and a frame.

    The m x n matrix with entries sum_k b_kj lambda_ki must vanish except
    at (ex[j], j), where the entry d_j must be strictly positive.  Its
    column j is -(Lambda b_j) for the column b_j of b.

    OUTPUT: the diagonal d as a tuple aligned with ex.
    RAISES: IncompatibleError carrying the first offending (i, j).
    """
    m, n = b.m, b.n
    if lam.m != m:
        raise ValueError(f"lambda is {lam.m}x{lam.m}, expected {m}x{m}")
    ex = b.ex
    d = []
    for j in range(n):
        for i, s in enumerate(-x for x in lam.image(b.column(j))):
            if i == ex[j]:
                if s <= 0:
                    raise IncompatibleError(
                        f"diagonal entry {s} at ({i}, {j}) is not positive",
                        position=(i, j),
                    )
                d.append(s)
            elif s != 0:
                raise IncompatibleError(
                    f"off-diagonal entry {s} at ({i}, {j})", position=(i, j)
                )
    return tuple(d)


def _exchange_exponents(b: ExchangeMatrix, k: int) -> tuple[list[int], list[int]]:
    """Positive and negative parts of the column of direction k, each of length m.

    k is a row index in ex.  The parts, max(b_ik, 0) and max(-b_ik, 0) over
    the rows i, are the exponents g of the two exchange monomials X^{g - e_k}.
    """
    p = b.position(k)
    col = [row[p] for row in b.rows()]
    return [max(e, 0) for e in col], [max(-e, 0) for e in col]


def lambda_mutate(lam: SkewMatrix, b: ExchangeMatrix, k: int) -> SkewMatrix:
    """Transport the frame through mutation in direction k.

    The new frame is E^T lam E, where E is the identity but for its k-th
    column c, the exponent of one exchange monomial: -e_k plus the
    positive part of column k (see _exchange_exponents).  Only row and
    column k change: lam'_ik = (lam c)_i = -lam'_ki.  The
    negative part gives the same frame whenever (lam, b) is a compatible
    pair; the tests assert that rather than assume it.
    """
    g = _exchange_exponents(b, k)[0]
    if b.m != lam.m:
        raise ValueError(f"matrix sizes disagree: {b.m} vs {lam.m}")
    return _frame_mutate(lam, k, g)


def _frame_mutate(lam: SkewMatrix, k: int, g) -> SkewMatrix:
    """lambda_mutate by g, column k's positive part (kept): x, -x at (i, k), (k, i) stay skew."""
    c = [e - (i == k) for i, e in enumerate(g)]
    rows = [list(row) for row in lam.rows()]
    for i, x in enumerate(lam.image(c)):
        if i != k:
            rows[i][k], rows[k][i] = x, -x
    return SkewMatrix._derived(rows)


def principal_lambda(
    bmat: Sequence[Sequence[int]],
    lambda0: SkewMatrix | Sequence[Sequence[int]] | None = None,
    d: Sequence[int] | None = None,
) -> SkewMatrix:
    """The 2n x 2n frame compatible with the principal extension [B; I].

    Blocks: [[L0, -D - L0 B], [D - B^T L0, -D B + B^T L0 B]] for an n x n
    skew-symmetrizable B, a diagonal symmetrizer D (default: canonical),
    and a skew-symmetric L0 (default: zero).  The result is verified
    against [B; I] before being returned.
    """
    rows = tuple(_int_tuple(row, "B") for row in bmat)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"B must be square; row {i} has length {len(row)}")
    if d is None:
        dd = find_skew_symmetrizer(rows)
    else:
        dd = _int_tuple(d, "D")
        if len(dd) != n or any(x <= 0 for x in dd):
            raise ValueError(f"D must be {n} positive integers")
        _check_symmetrizer(rows, dd, "D does not skew-symmetrize B")
    if lambda0 is None:
        lambda0 = SkewMatrix([[0] * n for _ in range(n)])
    elif not isinstance(lambda0, SkewMatrix):
        lambda0 = SkewMatrix(lambda0)
    if lambda0.m != n:
        raise ValueError(f"lambda0 is {lambda0.m}x{lambda0.m}, expected {n}x{n}")
    # the L0 part of all four blocks is E^T L0 E for E = [I | -B]
    columns = [[1 if t == j else 0 for t in range(n)] for j in range(n)]
    columns += [[-rows[t][j] for t in range(n)] for j in range(n)]
    big = [list(row) for row in lambda0.transform(columns).rows()]
    for i in range(n):
        big[i][n + i] -= dd[i]
        big[n + i][i] += dd[i]
        for j in range(n):
            big[n + i][n + j] -= dd[i] * rows[i][j]
    lam = SkewMatrix(big)
    got = check_compatibility(principal_extension(rows), lam)
    if got != dd:
        raise IncompatibleError(f"constructed frame yields d={got}, expected {dd}")
    return lam


def principal_extension(bmat: Sequence[Sequence[int]]) -> ExchangeMatrix:
    """The 2n x n matrix [B; I] with the first n rows exchangeable."""
    rows = [list(row) for row in bmat]
    n = len(rows)
    for i in range(n):
        rows.append([1 if j == i else 0 for j in range(n)])
    return ExchangeMatrix(rows, range(n))


def _relabel(rows, inv, order) -> list[list[int]]:
    """Row i is row inv[i] and column j is column order[j]."""
    return [[rows[i][j] for j in order] for i in inv]


class _Seed:
    """What the seed types share: m variables over b, their record and its relabeling."""

    def __post_init__(self):
        if len(self.vars) != self.b.m:
            raise ValueError(f"expected {self.b.m} variables, got {len(self.vars)}")

    @property
    def m(self) -> int:
        return self.b.m

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def ex(self) -> tuple[int, ...]:
        return self.b.ex

    def cluster(self) -> tuple:
        """The exchangeable variables, in ex order."""
        return tuple(self.vars[k] for k in self.b.ex)

    def _record(self, inv, order) -> dict:
        """dump_seed's entries but "vars" for the seed relabeled by _relabel(…, inv, order)."""
        b = self.b
        out = {"m": b.m, "n": b.n, "ex": [k + 1 for k in b.ex]}
        out["B"] = _relabel(b.rows(), inv, order)
        return out

    def _relabeled(self, inv, order, record: dict):
        """Itself for the identity inv, else its _relabel(…, inv, order) from record, d checked."""
        if inv == sorted(inv):
            return self
        b = ExchangeMatrix._derived(record["B"], self.b.ex, tuple(self.b.d[j] for j in order))
        return self._rebuild(b, tuple(self.vars[i] for i in inv), record)

    def _rebuild(self, b: ExchangeMatrix, new_vars: tuple, record: dict):
        """The seed of this type over b and new_vars whose record is record."""
        return type(self)(b, new_vars)


@dataclass(frozen=True)
class ClassicalSeed(_Seed):
    """A cluster of m Laurent polynomials together with its exchange matrix.

    Variables are expressed in the coordinates of the initial cluster;
    the initial seed has vars[i] = x_i.
    """

    b: ExchangeMatrix
    vars: tuple[CommLaurent, ...]

    @classmethod
    def initial(cls, b: ExchangeMatrix) -> "ClassicalSeed":
        m = b.m
        return cls(b, tuple(CommLaurent.generator(m, i) for i in range(m)))


@dataclass(frozen=True)
class QuantumSeed(_Seed):
    """A quantum cluster with its exchange matrix and current frame.

    The variables are torus elements over the INITIAL frame (they never
    change coordinates); lam records their pairwise quasi-commutation in
    the current seed and mutates alongside b.  d is the symmetrizer
    certified by compatibility and is an invariant of the mutation class.
    """

    lam: SkewMatrix
    b: ExchangeMatrix
    vars: tuple[TorusElement, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if self.lam.m != self.b.m:
            raise ValueError(f"lambda is {self.lam.m}x{self.lam.m}, expected m={self.b.m}")

    @classmethod
    def initial(cls, b: ExchangeMatrix, lam: SkewMatrix) -> "QuantumSeed":
        d = check_compatibility(b, lam)
        m = b.m
        gens = tuple(TorusElement.generator(lam, i) for i in range(m))
        return cls(lam, b, gens, d)

    def _record(self, inv, order) -> dict:
        out = super()._record(inv, order)
        out["Lambda"] = _relabel(self.lam.rows(), inv, inv)
        out["d"] = [self.d[j] for j in order]
        return out

    def _rebuild(self, b: ExchangeMatrix, new_vars: tuple, record: dict):
        # record["Lambda"] is _relabel(lam, inv, inv), permuted alike: still skew
        return type(self)(SkewMatrix._derived(record["Lambda"]), b, new_vars, tuple(record["d"]))


def principal_seed(
    bmat: Sequence[Sequence[int]],
    lambda0: SkewMatrix | Sequence[Sequence[int]] | None = None,
    d: Sequence[int] | None = None,
) -> QuantumSeed:
    """Initial quantum seed with principal coefficients over an n x n B."""
    lam = principal_lambda(bmat, lambda0, d)
    return QuantumSeed.initial(principal_extension(bmat), lam)


def specialize_seed(seed: QuantumSeed) -> ClassicalSeed:
    """The q = 1 shadow: same exchange matrix, specialized variables."""
    return ClassicalSeed(seed.b, tuple(v.specialize_q1() for v in seed.vars))


def json_ints(value, what: str, depth: int = 0):
    """An integer (depth 0), a list of them (1) or a list of rows (2) from JSON.

    bool, float and str values and non-list containers raise ValueError
    naming `what`; nothing is coerced, so 1.7 is never read as 1.
    """
    if depth == 0:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{what} must hold integers, got {json.dumps(value)}")
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return [json_ints(x, what, depth - 1) for x in value]


def load_seed(obj: Mapping) -> ClassicalSeed | QuantumSeed:
    """Build an initial seed from parsed seed-file JSON.

    Expected keys: "m", "n", "B" (m x n rows), optional "ex" (1-based,
    default 1..n) and optional "Lambda" (m x m, presence selects a
    quantum seed).  Unknown keys are tolerated except "vars": seed files
    always describe initial seeds, so shipped variables are rejected
    rather than silently ignored.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("seed file must contain a JSON object")
    if "vars" in obj:
        raise ValueError("seed files describe initial seeds; 'vars' is not accepted")
    try:
        m = json_ints(obj["m"], "m")
        n = json_ints(obj["n"], "n")
        bmat = obj["B"]
    except KeyError as exc:
        raise ValueError(f"seed file is missing key {exc}") from None
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rows = json_ints(bmat, "B", 2)
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ValueError(f"B must be {m}x{n}")
    ex = obj.get("ex")
    if ex is not None:
        ex = json_ints(ex, "ex", 1)
        if ex != sorted(ex) or not all(1 <= k <= m for k in ex):
            raise ValueError(f"ex must be sorted within [1, {m}]")
        ex = tuple(k - 1 for k in ex)
    b = ExchangeMatrix(rows, ex)
    lam_raw = obj.get("Lambda")
    if lam_raw is None:
        return ClassicalSeed.initial(b)
    lam = SkewMatrix(json_ints(lam_raw, "Lambda", 2))
    if lam.m != m:
        raise ValueError(f"Lambda must be {m}x{m}")
    return QuantumSeed.initial(b, lam)


def dump_seed(seed: ClassicalSeed | QuantumSeed, full: bool = False) -> dict:
    """Seed as JSON-ready data; inverse of load_seed for initial seeds.

    With full=True the variables are included (as exponent/coefficient
    records in initial-frame coordinates); such files are reports, not
    load_seed inputs.
    """
    out = seed._record(range(seed.m), range(seed.n))
    if full:
        out["vars"] = [v.to_json() for v in seed.vars]
    return out
