"""Seed mutation: the classical and quantum exchange relations.

Both mutations replace exactly one cluster variable.  The new variable
is obtained by exact division of a two-term sum by the old variable,
inside the initial-coordinate (quantum) torus; a division failure would
contradict the Laurent property and is therefore surfaced with the seed
and direction attached, never absorbed.

The quantum relation needs care with q-powers.  Writing the two
exchange exponents as g - e_k with g >= 0, the current-frame monomial
X^{g - e_k} factors as

    X^{g - e_k} = v^{lam'(g, e_k)} * X^g * X^{-e_k},

so (new variable) * vars[k] equals

    N = v^{lam'(g_+, e_k)} * N_+  +  v^{lam'(g_-, e_k)} * N_-,

where N_(+/-) is the ordered product vars[1]^{g_1} ... vars[m]^{g_m}
times the normalization prefactor v^{sum_{i>j} lam'_ij g_i g_j}, and
lam' is the CURRENT frame (the exponents g are current-frame data even
though the products are evaluated in the initial torus).  After the
division the product is re-checked exactly; any bookkeeping error in
the q-powers dies here instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import ClusterError, IncompatibleError, NotDivisibleError
from .qlaurent import QLaurent
from .seeds import (
    ClassicalSeed,
    QuantumSeed,
    _exchange_exponents,
    check_compatibility,
    lambda_mutate,
    matrix_mutate,
)
from .torus import reorder_weight


def _ordered_product(vars, g):
    """vars[0] ** g[0] * ... * vars[m-1] ** g[m-1], left to right; 1 for g = 0."""
    return reduce(mul, [v ** gi for v, gi in zip(vars, g) if gi] or [vars[0] ** 0])


def classical_mutate(seed: ClassicalSeed, k: int) -> ClassicalSeed:
    """Mutate a classical seed in direction k (a row index in ex)."""
    b = seed.b
    g_pos, g_neg = _exchange_exponents(b, k)
    num = _ordered_product(seed.vars, g_pos) + _ordered_product(seed.vars, g_neg)
    try:
        new_var = num.exact_div(seed.vars[k])
    except NotDivisibleError as exc:
        raise NotDivisibleError(
            f"mutation at direction {k} left the Laurent ring: {exc}",
            seed=seed,
            direction=k,
        ) from None
    if new_var * seed.vars[k] != num:
        raise ClusterError("re-multiplication check failed after classical division")
    new_vars = list(seed.vars)
    new_vars[k] = new_var
    return ClassicalSeed(matrix_mutate(b, k), tuple(new_vars))


def quantum_mutate(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Mutate a quantum seed in direction k (a row index in ex)."""
    b = seed.b
    lam = seed.lam
    g_pos, g_neg = _exchange_exponents(b, k)
    e_k = [0] * b.m
    e_k[k] = 1
    num = None
    for g in (g_pos, g_neg):
        shift = reorder_weight(lam, g) + lam.form(g, e_k)
        term = _ordered_product(seed.vars, g).scalar_mul(QLaurent.v_power(shift))
        num = term if num is None else num + term
    try:
        new_var = num.exact_div_right(seed.vars[k])
    except NotDivisibleError as exc:
        raise NotDivisibleError(
            f"mutation at direction {k} left the quantum torus: {exc}",
            seed=seed,
            direction=k,
        ) from None
    if new_var * seed.vars[k] != num:
        raise ClusterError("re-multiplication check failed after quantum division")
    new_vars = list(seed.vars)
    new_vars[k] = new_var
    return QuantumSeed(
        lambda_mutate(lam, b, k), matrix_mutate(b, k), tuple(new_vars), seed.d
    )


def mutate(seed: ClassicalSeed | QuantumSeed, k: int):
    """Dispatch to the classical or quantum exchange relation."""
    if isinstance(seed, QuantumSeed):
        return quantum_mutate(seed, k)
    return classical_mutate(seed, k)


@dataclass(frozen=True)
class SeedVerification:
    """Outcome of the three quantum-seed axioms, with first failures.

    compatibility: the pairing of (lam, b) has the delta form and
    reproduces the stored d.  quasi_commutation: vars[i], vars[j]
    q-commute with exponent lam[i][j] for all i < j.  bar_invariance:
    every variable is fixed by the bar involution.  Index pairs are
    0-based.
    """

    compatibility_ok: bool
    compatibility_detail: str | None
    quasi_commutation_ok: bool
    quasi_commutation_failure: tuple[int, int] | None
    bar_invariance_ok: bool
    bar_invariance_failure: int | None

    @property
    def ok(self) -> bool:
        return (
            self.compatibility_ok
            and self.quasi_commutation_ok
            and self.bar_invariance_ok
        )

    def to_json(self) -> dict:
        out: dict = {
            "ok": self.ok,
            "compatibility": {"ok": self.compatibility_ok},
            "quasi_commutation": {"ok": self.quasi_commutation_ok},
            "bar_invariance": {"ok": self.bar_invariance_ok},
        }
        if self.compatibility_detail is not None:
            out["compatibility"]["detail"] = self.compatibility_detail
        if self.quasi_commutation_failure is not None:
            i, j = self.quasi_commutation_failure
            out["quasi_commutation"]["first_failure"] = [i + 1, j + 1]
        if self.bar_invariance_failure is not None:
            out["bar_invariance"]["first_failure"] = self.bar_invariance_failure + 1
        return out


def verify_quantum_seed(seed: QuantumSeed) -> SeedVerification:
    """Re-derive the quantum-seed axioms from scratch; never raises."""
    compat_ok = True
    compat_detail = None
    try:
        d = check_compatibility(seed.b, seed.lam)
        if d != seed.d:
            compat_ok = False
            compat_detail = f"pairing gives d={d}, seed stores d={seed.d}"
    except IncompatibleError as exc:
        compat_ok = False
        compat_detail = str(exc)
    qc_ok = True
    qc_fail = None
    m = seed.m
    for i in range(m):
        if not qc_ok:
            break
        for j in range(i + 1, m):
            t = seed.vars[i].quasi_commutation(seed.vars[j])
            if t != seed.lam.entry(i, j):
                qc_ok = False
                qc_fail = (i, j)
                break
    bar_ok = True
    bar_fail = None
    for i in range(m):
        if seed.vars[i].bar() != seed.vars[i]:
            bar_ok = False
            bar_fail = i
            break
    return SeedVerification(compat_ok, compat_detail, qc_ok, qc_fail, bar_ok, bar_fail)
