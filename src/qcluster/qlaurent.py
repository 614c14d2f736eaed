"""Exact arithmetic in Z[q^(1/2), q^(-1/2)].

Elements are Laurent polynomials in the single formal variable
v = q^(1/2), stored sparsely as a map from integer v-exponent to a
nonzero arbitrary-precision integer coefficient.  Even v-exponents are
integer powers of q, odd ones are genuine half-integer powers.

Values are immutable after construction and all operations are pure,
so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import NotDivisibleError

_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")


def from_decimal(value):
    """An int, or the decimal string str(n) that to_json writes, as an int.

    Any other value (bool, float, "2.7", " 2") comes back unchanged for
    the constructor to reject, so nothing is truncated or coerced.
    """
    return int(value) if type(value) is str and _DECIMAL.fullmatch(value) else value


class QLaurent:
    """A Laurent polynomial in v = q^(1/2) over the integers.

    The term map is kept canonical: no zero coefficient is ever stored,
    so two values are equal iff their term maps are identical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            if type(exp) is not int or type(coeff) is not int:
                raise ValueError(
                    f"QLaurent terms must hold integers, got {exp!r}: {coeff!r}"
                )
            if coeff:
                acc[exp] = acc.get(exp, 0) + coeff
                if not acc[exp]:
                    del acc[exp]
        self._terms = acc

    @staticmethod
    def _raw(terms: dict[int, int]) -> "QLaurent":
        """Wrap an already canonical term map (no zero coefficients)."""
        out = QLaurent.__new__(QLaurent)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "QLaurent":
        return cls({0: n})

    @classmethod
    def v_power(cls, exp: int, coeff: int = 1) -> "QLaurent":
        """The monomial coeff * v^exp, i.e. coeff * q^(exp/2)."""
        return cls({exp: coeff})

    @classmethod
    def q_power(cls, exp: int, coeff: int = 1) -> "QLaurent":
        """The monomial coeff * q^exp."""
        return cls({2 * exp: coeff})

    # -- inspection ---------------------------------------------------

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "QLaurent | None":
        if isinstance(other, QLaurent):
            return other
        if isinstance(other, int):
            return QLaurent({0: other})
        return None

    def __add__(self, other) -> "QLaurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for exp, coeff in o._terms.items():
            s = acc.get(exp, 0) + coeff
            if s:
                acc[exp] = s
            elif exp in acc:
                del acc[exp]
        return QLaurent._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return QLaurent._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "QLaurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QLaurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "QLaurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return QLaurent._raw(acc)

    __rmul__ = __mul__

    def mul_shifted(self, other: "QLaurent", shift: int) -> "QLaurent":
        """self * other * v^shift in one pass (hot path of torus products)."""
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            e1s = e1 + shift
            for e2, c2 in other._terms.items():
                e = e1s + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return QLaurent._raw(acc)

    def shift(self, exp: int) -> "QLaurent":
        """Multiply by the unit v^exp."""
        return QLaurent._raw({e + exp: c for e, c in self._terms.items()})

    def exact_div(self, other) -> "QLaurent":
        """Return h with h * other == self, or raise NotDivisibleError.

        Greedy cancellation of the highest-exponent term.  Since v is a
        unit, divisibility only depends on the gap between top and
        bottom exponents; the quotient exponent window is computed from
        those gaps and the loop stops as soon as it would leave it.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot divide QLaurent by {type(other).__name__}")
        if not o._terms:
            raise ZeroDivisionError("QLaurent division by zero")
        if not self._terms:
            return QLaurent.zero()
        lo = self.min_exp() - o.min_exp()
        hi = self.max_exp() - o.max_exp()
        if lo > hi:
            raise NotDivisibleError("degree span of divisor exceeds dividend")
        g_top = o.max_exp()
        g_lead = o._terms[g_top]
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        while rem:
            r_top = max(rem)
            a = r_top - g_top
            if a < lo:
                raise NotDivisibleError("remainder is not reducible")
            c, leftover = divmod(rem[r_top], g_lead)
            if leftover:
                raise NotDivisibleError(
                    f"leading coefficient {rem[r_top]} not divisible by {g_lead}"
                )
            quot[a] = c
            for e, gc in o._terms.items():
                k = e + a
                s = rem.get(k, 0) - c * gc
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return QLaurent._raw(quot)

    def bar(self) -> "QLaurent":
        """The involution v -> v^(-1) (exponentwise negation)."""
        return QLaurent._raw({-e: c for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        """Specialize q = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object mapping v-exponent strings to coefficient strings.

        Coefficients are serialized as decimal strings to avoid any
        integer-width limits in consumers.
        """
        return {str(e): str(c) for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "QLaurent":
        if not isinstance(obj, Mapping):
            raise ValueError(f"QLaurent JSON must be an object, got {type(obj).__name__}")
        return cls([(from_decimal(e), from_decimal(c)) for e, c in obj.items()])

    # -- rendering ----------------------------------------------------

    @staticmethod
    def _q_power_str(exp: int) -> str:
        # exp is a v-exponent; rendered as an explicit power of q
        if exp % 2 == 0:
            p = str(exp // 2)
        else:
            p = f"{exp}/2"
        return "q" if p == "1" else f"q^{{{p}}}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = self._q_power_str(e) if mag == 1 else f"{mag}*{self._q_power_str(e)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QLaurent({self._terms!r})"
