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
from .torus import CommLaurent, SkewMatrix, TorusElement, _int_tuple


def _check_symmetrizer(rows, d, what: str) -> None:
    """Raise NotSymmetrizableError unless d_i b_ij = -d_j b_ji everywhere."""
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
    if isinstance(b, ExchangeMatrix):
        rows = b.principal()
    else:
        rows = tuple(_int_tuple(row, "B") for row in b)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
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
    _check_symmetrizer(rows, d, "no symmetrizer: check failed")
    return tuple(d)


class ExchangeMatrix:
    """An m x n integer matrix with n distinguished exchangeable rows.

    Column j is the exchange data of direction ex[j]; the principal part
    (rows restricted to ex) must admit a positive skew-symmetrizer,
    which is computed once at construction.
    """

    __slots__ = ("_rows", "_ex", "_d")

    def __init__(self, rows: Sequence[Sequence[int]], ex: Sequence[int] | None = None):
        m = len(rows)
        tup = tuple(_int_tuple(row, "B") for row in rows)
        if m < 1:
            raise ValueError("need at least one row")
        n = len(tup[0])
        for i, row in enumerate(tup):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
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

    @property
    def m(self) -> int:
        return len(self._rows)

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

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        """Entry at row i (in [0, m)) and column position j (in [0, n))."""
        return self._rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._rows)

    def principal(self) -> tuple[tuple[int, ...], ...]:
        """The n x n submatrix on the exchangeable rows."""
        return tuple(tuple(self._rows[k][j] for j in range(self.n)) for k in self._ex)

    def position(self, k: int) -> int:
        """Column position of exchange direction k; k must be in ex."""
        try:
            return self._ex.index(k)
        except ValueError:
            raise ValueError(f"index {k} is not exchangeable") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self._rows == other._rows and self._ex == other._ex

    def __hash__(self) -> int:
        return hash((self._rows, self._ex))

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self._rows]!r}, ex={list(self._ex)!r})"


def matrix_mutate(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate the exchange matrix in direction k (a row index in ex).

    Entries with i = k or column direction k flip sign; the rest gain
    (|b_ik| b_kj + b_ik |b_kj|) / 2, which is integral because the two
    summands share the sign of b_ik b_kj.
    """
    p = b.position(k)
    rows = b.rows()
    ex = b.ex
    new_rows = []
    for i, row in enumerate(rows):
        bik = rows[i][p]
        new_row = []
        for j, bij in enumerate(row):
            if i == k or ex[j] == k:
                new_row.append(-bij)
            else:
                bkj = rows[k][j]
                new_row.append(bij + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        new_rows.append(new_row)
    return ExchangeMatrix(new_rows, ex)


def check_compatibility(b: ExchangeMatrix, lam: SkewMatrix) -> tuple[int, ...]:
    """Verify the delta-pairing between an exchange matrix and a frame.

    The m x n matrix with entries sum_k b_kj lambda_ki must vanish except
    at (ex[j], j), where the entry d_j must be strictly positive.

    OUTPUT: the diagonal d as a tuple aligned with ex.
    RAISES: IncompatibleError carrying the first offending (i, j).
    """
    m, n = b.m, b.n
    if lam.m != m:
        raise ValueError(f"lambda is {lam.m}x{lam.m}, expected {m}x{m}")
    ex = b.ex
    d = []
    for j in range(n):
        col = b.column(j)
        for i in range(m):
            s = sum(col[k] * lam.entry(k, i) for k in range(m) if col[k])
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
    column k change: lam'_ik = sum_t lam_it c_t = -lam'_ki.  The
    negative part gives the same frame whenever (lam, b) is a compatible
    pair; the tests assert that rather than assume it.
    """
    c = _exchange_exponents(b, k)[0]
    m = lam.m
    if b.m != m:
        raise ValueError(f"matrix sizes disagree: {b.m} vs {m}")
    c[k] -= 1
    rows = [list(row) for row in lam.rows()]
    for i, row in enumerate(lam.rows()):
        if i != k:
            rows[i][k] = sum(x * ct for x, ct in zip(row, c) if ct)
            rows[k][i] = -rows[i][k]
    return SkewMatrix(rows)


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
        l0 = tuple((0,) * n for _ in range(n))
    elif isinstance(lambda0, SkewMatrix):
        l0 = lambda0.rows()
    else:
        l0 = SkewMatrix(lambda0).rows()
    if len(l0) != n:
        raise ValueError(f"lambda0 is {len(l0)}x{len(l0)}, expected {n}x{n}")

    def l0b(i: int, j: int) -> int:
        return sum(l0[i][t] * rows[t][j] for t in range(n))

    def btl0(i: int, j: int) -> int:
        return sum(rows[t][i] * l0[t][j] for t in range(n))

    def btl0b(i: int, j: int) -> int:
        return sum(rows[s][i] * l0b(s, j) for s in range(n))

    big = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            big[i][j] = l0[i][j]
            big[i][n + j] = -(dd[j] if i == j else 0) - l0b(i, j)
            big[n + i][j] = (dd[i] if i == j else 0) - btl0(i, j)
            big[n + i][n + j] = -dd[i] * rows[i][j] + btl0b(i, j)
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


@dataclass(frozen=True)
class ClassicalSeed:
    """A cluster of m Laurent polynomials together with its exchange matrix.

    Variables are expressed in the coordinates of the initial cluster;
    the initial seed has vars[i] = x_i.
    """

    b: ExchangeMatrix
    vars: tuple[CommLaurent, ...]

    def __post_init__(self):
        if len(self.vars) != self.b.m:
            raise ValueError(f"expected {self.b.m} variables, got {len(self.vars)}")

    @classmethod
    def initial(cls, b: ExchangeMatrix) -> "ClassicalSeed":
        m = b.m
        return cls(b, tuple(CommLaurent.generator(m, i) for i in range(m)))

    @property
    def m(self) -> int:
        return self.b.m

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def ex(self) -> tuple[int, ...]:
        return self.b.ex

    def cluster(self) -> tuple[CommLaurent, ...]:
        """The exchangeable variables, in ex order."""
        return tuple(self.vars[k] for k in self.b.ex)


@dataclass(frozen=True)
class QuantumSeed:
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
        if len(self.vars) != self.b.m:
            raise ValueError(f"expected {self.b.m} variables, got {len(self.vars)}")
        if self.lam.m != self.b.m:
            raise ValueError(f"lambda is {self.lam.m}x{self.lam.m}, expected m={self.b.m}")

    @classmethod
    def initial(cls, b: ExchangeMatrix, lam: SkewMatrix) -> "QuantumSeed":
        d = check_compatibility(b, lam)
        m = b.m
        gens = tuple(TorusElement.generator(lam, i) for i in range(m))
        return cls(lam, b, gens, d)

    @property
    def m(self) -> int:
        return self.b.m

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def ex(self) -> tuple[int, ...]:
        return self.b.ex

    def cluster(self) -> tuple[TorusElement, ...]:
        return tuple(self.vars[k] for k in self.b.ex)


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
    ex_raw = obj.get("ex")
    if ex_raw is None:
        ex = tuple(range(n))
    else:
        ex = json_ints(ex_raw, "ex", 1)
        if ex != sorted(ex) or not all(1 <= k <= m for k in ex):
            raise ValueError(f"ex must be sorted within [1, {m}]")
        ex = tuple(k - 1 for k in ex)
    rows = json_ints(bmat, "B", 2)
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ValueError(f"B must be {m}x{n}")
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
    b = seed.b
    out: dict = {
        "m": b.m,
        "n": b.n,
        "ex": [k + 1 for k in b.ex],
        "B": [list(row) for row in b.rows()],
    }
    if isinstance(seed, QuantumSeed):
        out["Lambda"] = [list(row) for row in seed.lam.rows()]
        out["d"] = list(seed.d)
    if full:
        out["vars"] = [v.to_json() for v in seed.vars]
    return out
