"""Independent reference computations used to cross-check the engine.

Deliberately different in method from the package internals: monomial
products are computed by sorting an explicit word of generator letters,
matrix transforms by naive triple loops, commutative Laurent values
by Fraction substitution, and skew-symmetrizers by rational ratios.
Slow and simple on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from qcluster import ExchangeMatrix, NotSymmetrizableError
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
