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

An exchange met again on the very same variable objects, exponents and
v-shifts takes the quotient proved for it: N is built from exactly the
(g, v-shift) pairs its key names, variables are immutable (and held by the
proof's entry in the call's _Exchanges, so no id is reused), and
h * vars[k] == N already passed exactly on those objects.  Like the
explorer's reverse edges, this reuses a checked identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .errors import ClusterError, IncompatibleError, NotDivisibleError
from .qlaurent import QLaurent
from .seeds import (
    ClassicalSeed,
    QuantumSeed,
    _exchange_exponents,
    _frame_mutate,
    check_compatibility,
    lambda_mutate,  # unused here; perfbench/tracing.py wraps it under this name
    matrix_mutate,
)
from .torus import CommLaurent, TorusElement, reorder_weight


def _ordered_product(vars, g, s=0):
    """v^s * vars[0] ** g[0] * ... * vars[m-1] ** g[m-1], left to right; v^s for g = 0."""
    product = reduce(mul, [v ** gi for v, gi in zip(vars, g) if gi] or [vars[0] ** 0])
    return product.scalar_mul(QLaurent.v_power(s)) if s else product


def _ends(v) -> tuple[int, ...]:
    """v's largest and smallest packed keys, () for zero: where a table of variables files v."""
    t = v._terms
    return (max(t), min(t)) if t else ()


class _Exchanges:
    """One call's exchange state, from the variables it starts with.

    met files each variable met under its end keys, the first met first;
    proved files each checked exchange under its id key, the entry holding
    every object the key names, so that no id is reused while it lives.
    """

    def __init__(self, vars=()):
        self.met: dict = {}
        self.proved: dict = {}
        self.meet(vars)

    def meet(self, vars):
        for v in vars:
            self.met.setdefault(_ends(v), []).append(v)


def _exchange(seed, k: int, monomials, divide, ring: str, kind: str, known: _Exchanges | None) -> tuple:
    """seed.vars with vars[k] replaced by N / vars[k].

    monomials are N's terms as (g, v-shift) pairs: the proof key names them,
    and N is built from them alone.  divide(N, vars[k]) is the ring's exact
    division, known the call's _Exchanges or None (a fresh one).  A proved
    exchange is taken as it is.  Else keys add (key(a + b) = ka + kb - base)
    in a monomial order of a domain, so the quotient's end keys are N's less
    vars[k]'s plus base, and a met variable filed there whose product with
    vars[k] is N is it.  Else N is divided, a failure naming the ring it
    left, and the quotient filed in met.  Either, once checked, is filed as
    the exchange's proof.
    """
    old = seed.vars[k]
    known = _Exchanges() if known is None else known
    key = (id(old), *((s, *((id(v), e) for v, e in zip(seed.vars, g) if e)) for g, s in monomials))
    proof = known.proved.get(key)
    if proof is None:
        num = reduce(add, [_ordered_product(seed.vars, g, s) for g, s in monomials])
        ends = tuple(n - o + num._packing().base for n, o in zip(_ends(num), _ends(old)))

        def quotients():
            if old:  # h * 0 == N says nothing of h: by zero, the division raises
                yield from known.met.get(ends, ())
            try:
                new_var = divide(num, old)
            except NotDivisibleError as exc:
                raise NotDivisibleError(
                    f"mutation at direction {k} left the {ring}: {exc}", seed=seed, direction=k
                ) from None
            known.meet([new_var])  # a failed check raises, ending the call that owns known
            yield new_var
            raise ClusterError(f"re-multiplication check failed after {kind} division")

        new_var = next(h for h in quotients() if h * old == num)  # a failing one is skipped
        proof = known.proved[key] = (new_var, seed.vars)  # proved: new_var * old == N
    return (*seed.vars[:k], proof[0], *seed.vars[k + 1 :])


def classical_mutate(seed: ClassicalSeed, k: int, _known: _Exchanges | None = None) -> ClassicalSeed:
    """Mutate a classical seed in direction k (a row index in ex)."""
    monomials = [(g, 0) for g in _exchange_exponents(seed.b, k)]  # no v-shift at q = 1
    new_vars = _exchange(seed, k, monomials, CommLaurent.exact_div, "Laurent ring", "classical", _known)
    return ClassicalSeed(matrix_mutate(seed.b, k), new_vars)


def quantum_mutate(seed: QuantumSeed, k: int, _known: _Exchanges | None = None) -> QuantumSeed:
    """Mutate a quantum seed in direction k (a row index in ex)."""
    b, lam = seed.b, seed.lam
    gs = _exchange_exponents(b, k)
    # Lambda(g, e_k) = -e_k . Lambda g
    monomials = [(g, reorder_weight(lam, g) - lam.image(g)[k]) for g in gs]
    new_vars = _exchange(seed, k, monomials, TorusElement.exact_div_right, "quantum torus", "quantum", _known)
    return QuantumSeed(_frame_mutate(lam, k, gs[0]), matrix_mutate(b, k), new_vars, seed.d)


def mutate(seed: ClassicalSeed | QuantumSeed, k: int, _known: _Exchanges | None = None):
    """Dispatch to the classical or quantum exchange relation (_known: an _Exchanges, see _exchange)."""
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
    vars = seed.vars
    pairs = ((i, j) for i in range(seed.m) for j in range(i + 1, seed.m))
    # a zero variable quasi-commutes with nothing (quasi_commutation raises)
    qc_fail = next((
        (i, j) for i, j in pairs
        if not (vars[i] and vars[j]) or vars[i].quasi_commutation(vars[j]) != seed.lam.entry(i, j)
    ), None)
    bar_fail = next((i for i, v in enumerate(vars) if v.bar() != v), None)
    return SeedVerification(compat_detail, qc_fail, bar_fail)
