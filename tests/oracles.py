"""Independent reference computations used to cross-check the engine.

Deliberately different in method from the package internals: monomial
products are computed by sorting an explicit word of generator letters,
matrix transforms by naive triple loops, commutative Laurent values
by Fraction substitution, skew-symmetrizers by rational ratios, and
the Kronecker's cluster variables from binomial coefficients.
Slow and simple on purpose.  The tuple-keyed Laurent kernel at the end
is the package's own former product and division code, kept as the
reference for the packed-integer kernel that replaced it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from typing import Sequence

from qcluster import ExchangeMatrix, NotDivisibleError, NotSymmetrizableError, QLaurent
from qcluster.torus import _int_tuple


def ref_basis_twist(lam_rows: Sequence[Sequence[int]], a, b) -> int:
    """The v-exponent t in X^a X^b = v^t X^{a+b}, from first principles.

    Expands each normalized monomial into its defining prefactor and an
    ordered word of generator letters X_i^{+-1}, concatenates the words,
    and bubble-sorts back to ascending index while collecting one
    v^{2 lambda_ji s s'} factor per transposition.
    """
    letters: list[tuple[int, int]] = []
    for vec in (a, b):
        for i, e in enumerate(vec):
            letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
    twist = 0
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            j, s = letters[t]
            i, ss = letters[t + 1]
            if j > i:
                twist += 2 * lam_rows[j][i] * s * ss
                letters[t], letters[t + 1] = letters[t + 1], letters[t]
                changed = True

    def prefactor(vec) -> int:
        return sum(
            lam_rows[i][j] * vec[i] * vec[j]
            for i in range(len(vec))
            for j in range(i)
        )

    total = [x + y for x, y in zip(a, b)]
    return prefactor(a) + prefactor(b) + twist - prefactor(total)


def ref_transform(lam_rows, columns):
    """C^T L C by naive summation, as plain lists."""
    m = len(lam_rows)
    out = [[0] * len(columns) for _ in range(len(columns))]
    for i, ci in enumerate(columns):
        for j, cj in enumerate(columns):
            out[i][j] = sum(
                ci[s] * lam_rows[s][t] * cj[t] for s in range(m) for t in range(m)
            )
    return out


def eval_laurent(f, point: Sequence[Fraction]) -> Fraction:
    """Value of a CommLaurent at a point with nonzero coordinates."""
    total = Fraction(0)
    for exp, coeff in f.items():
        val = Fraction(coeff)
        for x, e in zip(point, exp):
            val *= Fraction(x) ** e
        total += val
    return total


def ref_skew_symmetrizer(b) -> tuple[int, ...]:
    """Minimal positive diagonal d with d_i b_ij = -d_j b_ji, by rational ratios.

    The Fraction search the package used before its integer walk: every
    vertex gets its ratio d_j / d_root, and each component is scaled by
    the lcm of the denominators, then divided by the gcd.

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
    ratio: list[Fraction | None] = [None] * n
    d = [0] * n
    for root in range(n):
        if ratio[root] is not None:
            continue
        ratio[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if rows[i][j] == 0:
                    continue
                r = ratio[i] * Fraction(-rows[i][j], rows[j][i])
                if ratio[j] is None:
                    ratio[j] = r
                    component.append(j)
                    stack.append(j)
                elif ratio[j] != r:
                    raise NotSymmetrizableError(
                        f"inconsistent ratio around edge ({i}, {j})"
                    )
        scale = 1
        for c in component:
            scale = lcm(scale, ratio[c].denominator)
        vals = [int(ratio[c] * scale) for c in component]
        g = 0
        for v in vals:
            g = gcd(g, v)
        for c, v in zip(component, vals):
            d[c] = v // g
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSymmetrizableError(f"no symmetrizer: check failed at ({i}, {j})")
    return tuple(d)


def positive_roots(cartan) -> set[tuple[int, ...]]:
    """The positive roots of a finite-type Cartan matrix, in the simple-root basis.

    Reflects the simple roots until no new root appears, with
    s_i(beta) = beta - (sum_j a_ij beta_j) alpha_i; a reflection that
    turns a root negative is dropped, since s_i permutes the positive
    roots other than alpha_i.  Never ends for a matrix of infinite type.
    """
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            c = sum(cartan[i][j] * beta[j] for j in range(n))
            image = tuple(b - c * (j == i) for j, b in enumerate(beta))
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    return roots


# -- closed forms of the rank-2 Kronecker variables ----------------------------
#
# x_{n+2} of B = [[0, 2], [-2, 0]] in the binomial form of Caldero and
# Zelevinsky (Moscow Math. J. 6, 2006) and its quantum analog with
# symmetric Gaussian binomials (Rupel, IMRN 2011), from math.comb and the
# Gaussian recurrence alone: no qcluster product or division is used.


def _choose(a: int, b: int) -> int:
    """C(a, b) for b >= 0: 1 if b = 0 (for every a), 0 if a < 0 < b or b > a."""
    return 1 if b == 0 else 0 if a < 0 or b > a else comb(a, b)


@cache
def _gaussian(a: int, b: int) -> tuple[int, ...]:
    """G_t(a, b) as its coefficients in t, with _choose's conventions.

    G(a, b) = G(a-1, b-1) + t^b G(a-1, b) for a >= b >= 1.
    """
    if b == 0:
        return (1,)
    if a < 0 or b > a:
        return ()
    lower, upper = _gaussian(a - 1, b - 1), _gaussian(a - 1, b)
    out = [0] * max(len(lower), b + len(upper))
    for i, c in enumerate(lower):
        out[i] += c
    for i, c in enumerate(upper):
        out[b + i] += c
    return tuple(out)


def _bar_invariant_gaussian(a: int, b: int) -> dict[int, int]:
    """[a, b] = t^(-b(a-b)/2) G_t(a, b) at t = v^4, as {v-exponent: coefficient}."""
    return {4 * i - 2 * b * (a - b): c for i, c in enumerate(_gaussian(a, b)) if c}


def _kronecker_terms(n: int, coefficient) -> dict:
    """{(2q - n, 2r - n + 1): coefficient(n - 1 - r, q, n - q, r)}, zeros left out."""
    out = {}
    for q in range(n + 1):
        for r in range(n + 1):
            c = coefficient(n - 1 - r, q, n - q, r)
            if c:
                out[(2 * q - n, 2 * r - n + 1)] = c
    return out


def kronecker_variable(n: int) -> dict[tuple[int, int], int]:
    """x_{n+2} for n >= 1 of the classical seed over [[0, 2], [-2, 0]].

    x1^-n x2^-(n-1) sum_{q,r >= 0} C(n-1-r, q) C(n-q, r) x1^2q x2^2r, as
    {exponent: coefficient}: mutating at 0, 1, 0, ... makes x3, x4, ...;
    mutating at 1, 0, 1, ... makes the same with x1 and x2 swapped.
    """
    return _kronecker_terms(n, lambda a, q, b, r: _choose(a, q) * _choose(b, r))


def quantum_kronecker_variable(n: int) -> dict[tuple[int, int], dict[int, int]]:
    """The quantum x_{n+2}, n >= 1, of [[0, 2], [-2, 0]] with Lambda = [[0, 1], [-1, 0]].

    The frame gives d = (2, 2).  Mutating at 0, 1, 0, ... makes x3, x4, ...,
    whose coefficient at the normalized X^(2q-n, 2r-n+1) is
    [n-1-r, q] [n-q, r] (_bar_invariant_gaussian), as {v-exponent: coefficient}.
    """

    def coefficient(a, q, b, r):
        out: dict[int, int] = {}
        for e, c in _bar_invariant_gaussian(a, q).items():
            for f, d in _bar_invariant_gaussian(b, r).items():
                out[e + f] = out.get(e + f, 0) + c * d
        return {e: c for e, c in out.items() if c}

    return _kronecker_terms(n, coefficient)


# -- the tuple-keyed Laurent kernel -------------------------------------------
#
# The term-map loops CommLaurent and TorusElement ran on before exponent
# vectors were packed into ints, kept as they were: each exponent vector is
# a tuple, graded-lex order is the sort key (sum(a), a), and every monomial
# product builds a new tuple.


def _grlex(a: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key for exponent vectors."""
    return (sum(a), a)


def _vadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _support_box(exps, m: int):
    """Componentwise (min, max) over a nonempty set of exponent vectors."""
    lo = [None] * m
    hi = [None] * m
    for a in exps:
        for i, x in enumerate(a):
            if lo[i] is None or x < lo[i]:
                lo[i] = x
            if hi[i] is None or x > hi[i]:
                hi[i] = x
    return lo, hi


def _add_into(acc: dict, items) -> dict:
    """Add (exponent, coefficient) pairs into the term map acc; returns acc."""
    for exp, coeff in items:
        prev = acc.get(exp)
        s = coeff if prev is None else prev + coeff
        if s:
            acc[exp] = s
        elif exp in acc:
            del acc[exp]
    return acc


class RefLaurent:
    """Tuple-keyed term maps {exponent tuple: coefficient} of one ring.

    lam is None for the commutative ring CommLaurent(m) with int
    coefficients, or the SkewMatrix of TorusElement with QLaurent
    coefficients.  Each method takes and returns plain dicts.
    """

    def __init__(self, m: int, lam=None):
        self.m = m
        self.lam = lam

    def _mul_into(self, acc: dict, left: dict, right: dict) -> None:
        """Add the product of the term maps left * right into acc."""
        if self.lam is None:
            for a, ca in left.items():
                _add_into(acc, [(_vadd(a, b), ca * cb) for b, cb in right.items()])
            return
        rows = self.lam.rows()
        for a, ca in left.items():
            # Lambda(a, b) = sum_j la[j] * b_j with la = Lambda^T a = -Lambda a
            la = [-sum(row[i] * ai for i, ai in enumerate(a) if ai) for row in rows]
            products = []
            for b, cb in right.items():
                w = sum(bj * la[j] for j, bj in enumerate(b) if bj)
                products.append((_vadd(a, b), self._coeff_product(ca, cb, w)))
            _add_into(acc, products)

    @staticmethod
    def _coeff_product(ca, cb, w: int):
        """ca * cb * v^w for QLaurent ca and cb, by the schoolbook loop."""
        acc: dict = {}
        for e1, c1 in ca.items():
            _add_into(acc, [(e1 + e2 + w, c1 * c2) for e2, c2 in cb.items()])
        return QLaurent(acc)

    def one(self) -> dict:
        return {(0,) * self.m: 1 if self.lam is None else QLaurent.one()}

    def mul(self, left: dict, right: dict) -> dict:
        acc: dict = {}
        self._mul_into(acc, left, right)
        return acc

    def pow(self, x: dict, n: int) -> dict:
        result = self.one()
        for _ in range(n):
            result = self.mul(result, x)
        return result

    def _lead_quotient(self, rc, cg, a, b, right: bool):
        if self.lam is None:
            c, leftover = divmod(rc, cg)
            if leftover:
                raise NotDivisibleError(f"leading coefficient {rc} not divisible by {cg}")
            return c
        twist = self.lam.form(a, b) if right else self.lam.form(b, a)
        try:
            return rc.shift(-twist).exact_div(cg)
        except NotDivisibleError:
            raise NotDivisibleError(
                "leading coefficient not divisible in Z[q^(1/2), q^(-1/2)]"
            ) from None

    def exact_div(self, f: dict, g: dict, right: bool = True) -> dict:
        """h with h * g == f (right) or g * h == f, else NotDivisibleError.

        g must be nonzero.
        """
        if not f:
            return {}
        m = self.m
        f_lo, f_hi = _support_box(f, m)
        g_lo, g_hi = _support_box(g, m)
        lo = [fl - gl for fl, gl in zip(f_lo, g_lo)]
        hi = [fh - gh for fh, gh in zip(f_hi, g_hi)]
        if any(l > h for l, h in zip(lo, hi)):
            raise NotDivisibleError("divisor support exceeds dividend support")
        b = max(g, key=_grlex)
        cg = g[b]
        rem = dict(f)
        quot: dict = {}
        while rem:
            t = max(rem, key=_grlex)
            a = _vsub(t, b)
            if any(x < l or x > h for x, l, h in zip(a, lo, hi)):
                raise NotDivisibleError("leading term of remainder is not reducible")
            c = self._lead_quotient(rem[t], cg, a, b, right)
            quot[a] = c
            # subtract (c X^a) * g  (resp. g * (c X^a)) from the remainder
            term = {a: -c}
            if right:
                self._mul_into(rem, term, g)
            else:
                self._mul_into(rem, g, term)
        return quot

    @staticmethod
    def support(terms: dict) -> list:
        return sorted(terms, key=_grlex)

    def to_json(self, terms: dict) -> list[dict]:
        to_json = str if self.lam is None else QLaurent.to_json
        return [{"exp": list(e), "coeff": to_json(terms[e])} for e in self.support(terms)]

    def str(self, terms: dict) -> str:
        if not terms:
            return "0"
        parts = []
        if self.lam is not None:
            for e in self.support(terms):
                c = terms[e]
                mono = "X^(" + ",".join(str(x) for x in e) + ")"
                if all(x == 0 for x in e):
                    parts.append(str(c))
                elif c.is_one():
                    parts.append(mono)
                elif len(c) == 1:
                    parts.append(f"{c}*{mono}")
                else:
                    parts.append(f"({c})*{mono}")
            return " + ".join(parts)
        for e in self.support(terms):
            c = terms[e]
            factors = [
                f"x{i + 1}" if x == 1 else f"x{i + 1}^{x}"
                for i, x in enumerate(e)
                if x
            ]
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
