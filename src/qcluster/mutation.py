"""Seed mutation: the classical and quantum exchange relations.

Both mutations replace exactly one cluster variable by the exact
quotient of a two-term sum by it, in the initial-coordinate (quantum)
torus: a variable met before that passes the re-multiplication check,
else the division's.  A division failure would contradict the Laurent
property and is surfaced with the seed and direction attached.

The quantum relation needs care with q-powers.  Writing the two
exchange exponents as g - e_k with g >= 0, the current-frame monomial
X^{g - e_k} factors as

    X^{g - e_k} = v^{lam'(g, e_k)} * X^g * X^{-e_k},

so (new variable) * vars[k] equals

    N = v^{lam'(g_+, e_k)} * N_+  +  v^{lam'(g_-, e_k)} * N_-,

where N_(+/-) is the ordered product vars[1]^{g_1} ... vars[m]^{g_m}
times the normalization prefactor v^{sum_{i>j} lam'_ij g_i g_j}, and
lam' is the CURRENT frame (the exponents g are current-frame data even
though the products are evaluated in the initial torus).  Every new
variable is re-checked exactly against N; any bookkeeping error in the
q-powers dies here instead of propagating.
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


def _ends(v) -> tuple[int, ...]:
    """v's largest and smallest packed keys, () for zero: where a table of variables files v."""
    t = v._terms
    return (max(t), min(t)) if t else ()


def _file(known: dict, vars) -> dict:
    """known with vars filed under their end keys, the first met first."""
    for v in vars:
        known.setdefault(_ends(v), []).append(v)
    return known


def _exchange(seed, k: int, divide, ring: str, kind: str, known: dict | None) -> tuple:
    """seed.vars with vars[k] replaced by N / vars[k], N = divide.__self__.

    divide is N's bound exact division, known a table of variables (_file)
    or None.  Keys add (key(a + b) = ka + kb - base) in a monomial order of
    a domain, so the quotient's end keys are N's less vars[k]'s plus base,
    and a variable filed there whose product with vars[k] is N is it.  Else
    N is divided, a failure naming the ring it left, and the quotient filed.
    """
    old, num = seed.vars[k], divide.__self__
    known = {} if known is None else known
    ends = tuple(n - o + num._packing().base for n, o in zip(_ends(num), _ends(old)))

    def quotients():
        if old:  # h * 0 == N says nothing of h: by zero, the division raises
            yield from known.get(ends, ())
        try:
            new_var = divide(old)
        except NotDivisibleError as exc:
            raise NotDivisibleError(
                f"mutation at direction {k} left the {ring}: {exc}", seed=seed, direction=k
            ) from None
        _file(known, [new_var])  # a failed check raises, ending the call that owns known
        yield new_var
        raise ClusterError(f"re-multiplication check failed after {kind} division")

    new_var = next(h for h in quotients() if h * old == num)  # a failing one is skipped
    return (*seed.vars[:k], new_var, *seed.vars[k + 1 :])


def classical_mutate(seed: ClassicalSeed, k: int, _known: dict | None = None) -> ClassicalSeed:
    """Mutate a classical seed in direction k (a row index in ex)."""
    b = seed.b
    g_pos, g_neg = _exchange_exponents(b, k)
    num = _ordered_product(seed.vars, g_pos) + _ordered_product(seed.vars, g_neg)
    new_vars = _exchange(seed, k, num.exact_div, "Laurent ring", "classical", _known)
    return ClassicalSeed(matrix_mutate(b, k), new_vars)


def quantum_mutate(seed: QuantumSeed, k: int, _known: dict | None = None) -> QuantumSeed:
    """Mutate a quantum seed in direction k (a row index in ex)."""
    b = seed.b
    lam = seed.lam
    num = None
    for g in _exchange_exponents(b, k):
        # Lambda(g, e_k) = -e_k . Lambda g
        shift = reorder_weight(lam, g) - lam.image(g)[k]
        term = _ordered_product(seed.vars, g).scalar_mul(QLaurent.v_power(shift))
        num = term if num is None else num + term
    new_vars = _exchange(seed, k, num.exact_div_right, "quantum torus", "quantum", _known)
    return QuantumSeed(lambda_mutate(lam, b, k), matrix_mutate(b, k), new_vars, seed.d)


def mutate(seed: ClassicalSeed | QuantumSeed, k: int, _known: dict | None = None):
    """Dispatch to the classical or quantum exchange relation (_known: see _exchange)."""
    if isinstance(seed, QuantumSeed):
        return quantum_mutate(seed, k, _known)
    return classical_mutate(seed, k, _known)


@dataclass(frozen=True)
class SeedVerification:
    """Outcome of the three quantum-seed axioms, with first failures.

    compatibility: the pairing of (lam, b) has the delta form and
    reproduces the stored d.  quasi_commutation: vars[i], vars[j]
    q-commute with exponent lam[i][j] for all i < j.  bar_invariance:
    every variable is fixed by the bar involution.  Index pairs are
    0-based.  Each *_ok flag holds exactly when its detail or failure
    is None.
    """

    compatibility_detail: str | None
    quasi_commutation_failure: tuple[int, int] | None
    bar_invariance_failure: int | None

    @property
    def compatibility_ok(self) -> bool:
        return self.compatibility_detail is None

    @property
    def quasi_commutation_ok(self) -> bool:
        return self.quasi_commutation_failure is None

    @property
    def bar_invariance_ok(self) -> bool:
        return self.bar_invariance_failure is None

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
    compat_detail = None
    try:
        d = check_compatibility(seed.b, seed.lam)
        if d != seed.d:
            compat_detail = f"pairing gives d={d}, seed stores d={seed.d}"
    except IncompatibleError as exc:
        compat_detail = str(exc)
    qc_fail = None
    m = seed.m
    for i in range(m):
        if qc_fail is not None:
            break
        for j in range(i + 1, m):
            t = seed.vars[i].quasi_commutation(seed.vars[j])
            if t != seed.lam.entry(i, j):
                qc_fail = (i, j)
                break
    bar_fail = None
    for i in range(m):
        if seed.vars[i].bar() != seed.vars[i]:
            bar_fail = i
            break
    return SeedVerification(compat_detail, qc_fail, bar_fail)
