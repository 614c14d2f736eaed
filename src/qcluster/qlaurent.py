"""The sparse Laurent kernel and the scalar ring Z[q^(1/2), q^(-1/2)].

_SparseLaurent is the one sparse kernel under all three Laurent rings:
QLaurent (here), and TorusElement and CommLaurent (torus, through
_FramedLaurent).  It holds +, -, *, powers, exact division, equality
and hashing; each ring supplies only its constructors, coefficient
ring, term keys, product rule and rendering.

QLaurent is the one-variable case: a Laurent polynomial in the single
formal variable v = q^(1/2), keyed by the integer v-exponent itself,
with nonzero arbitrary-precision integer coefficients.  Even
v-exponents are integer powers of q, odd ones are genuine half-integer
powers.

Values are immutable after construction and all operations are pure,
so they can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
import struct
from functools import cache, reduce
from operator import gt, le, or_, sub
from typing import Iterable, Mapping

from .errors import NotDivisibleError

_DECIMAL = re.compile(r"-?(?:0|[1-9][0-9]*)")


def from_decimal(value):
    """An int, or the decimal string str(n) that to_json writes, as an int.

    Any other value (bool, float, "2.7", " 2") comes back unchanged for
    the constructor to reject, so nothing is truncated or coerced.
    """
    return int(value) if type(value) is str and _DECIMAL.fullmatch(value) else value


_W = 32  # bits per packed exponent field
_OFF = 1 << (_W - 2)  # field = exponent + _OFF; exponents lie in [-_OFF, _OFF)
_RANGE = f"the packed range [-2**{_W - 2}, 2**{_W - 2})"


class _Packing:
    """Exponent vectors in Z^m as single ints, for one width m.

    The key of a is sum(a) << (W m) plus the W-bit fields a_i + OFF, a_0
    most significant, so integer order is graded-lex order and the key
    of a + b is ka + kb - base (base: the key of 0).  A field is valid
    while its top bit is clear.  The sum of two valid keys minus base is
    still exact, and the lowest field that left the range has its top
    bit set, so `key & top` detects overflow; nothing wraps silently.
    """

    __slots__ = ("m", "base", "top", "_shift", "_low", "_struct")

    def __init__(self, m: int):
        ones = sum(1 << (_W * i) for i in range(m))
        self.m, self.base, self.top = m, _OFF * ones, (1 << (_W - 1)) * ones
        self._shift, self._low = _W * m, (1 << (_W * m)) - 1
        self._struct = struct.Struct(f">{m}i")

    def pack(self, exp: tuple[int, ...]) -> int:
        """The key of an int tuple, or ValueError (length) / OverflowError."""
        if len(exp) != self.m:
            raise ValueError(f"exponent {exp} has length {len(exp)}, expected {self.m}")
        if exp and (min(exp) < -_OFF or max(exp) >= _OFF):
            raise OverflowError(f"exponent {exp} leaves {_RANGE}")
        fields = int.from_bytes(self._struct.pack(*exp), "big") ^ self.top
        return (sum(exp) << self._shift) + fields - self.base

    def unpack(self, key: int) -> tuple[int, ...]:
        fields = ((key + self.base) & self._low) ^ self.top
        return self._struct.unpack(fields.to_bytes(self._struct.size, "big"))

    def box(self, keys) -> tuple[list[int], list[int]]:
        """Componentwise (min, max) over a nonempty set of keys."""
        columns = list(zip(*map(self.unpack, keys)))
        return list(map(min, columns)), list(map(max, columns))


_packing = cache(_Packing)


class _VExponents:
    """The keys of QLaurent: each v-exponent is its own key.

    With one variable there is no degree field, so integer order is the
    term order and the key of a product is the sum of the keys; the
    exponents are unbounded, so no key overflows (top = 0).
    """

    base = top = 0

    @staticmethod
    def unpack(key: int) -> tuple[int]:
        return (key,)

    @staticmethod
    def box(keys) -> tuple[list[int], list[int]]:
        return [min(keys)], [max(keys)]


def _add_into(acc: dict, items) -> dict:
    """Add (key, coefficient) pairs into the term map acc; returns acc."""
    for exp, coeff in items:
        prev = acc.get(exp)
        s = coeff if prev is None else prev + coeff
        if s:
            acc[exp] = s
        elif exp in acc:
            del acc[exp]
    return acc


def _int_tuple(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple, or ValueError naming `what` if one is not an int.

    bool, float and str are rejected like any other type, so nothing is
    truncated: 1.7 is never read as 1, nor True as 1.
    """
    tup = tuple(values)
    for x in tup:
        if type(x) is not int:
            raise ValueError(f"{what} must hold integers, got {x!r}")
    return tup


# -- the integer coefficient ring, shared by QLaurent and CommLaurent ---------


def _int_scalar(value) -> int | None:
    return value if type(value) is int else None


def _int_mul_into(acc: dict, left: dict, right: dict, packing) -> None:
    """Add the product of the integer term maps left * right into acc."""
    get = acc.get
    right = right.items()
    for a, ca in left.items():
        a -= packing.base
        for b, cb in right:
            k = a + b
            s = get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]


def _int_lead_quotient(rc: int, cg: int, a, b, right: bool) -> int:
    c, leftover = divmod(rc, cg)
    if leftover:
        raise NotDivisibleError(f"leading coefficient {rc} not divisible by {cg}")
    return c


def _int_exact_div(self, g):
    """Return h with h * g == self, or raise NotDivisibleError."""
    return self._exact_div(g, True)


class _SparseLaurent:
    """A finite sum of terms coeff * X^a, a in Z^m, over one frame.

    The frame is the SkewMatrix of a TorusElement, the variable count m
    of a CommLaurent, or None for QLaurent.  The term map, keyed by
    packed exponents (_Packing, or _VExponents for QLaurent), never
    stores a zero coefficient, so two elements are equal iff their
    frames and term maps are.

    This kernel holds the arithmetic, exact division, equality and
    hashing; the constructors and views over a frame of width m belong
    to _FramedLaurent (torus).  Subclasses supply the coefficient ring
    (_scalar), the keys (_packing), their error wording (_RING,
    _MISMATCH), the leading-coefficient quotient of exact division
    (_lead_quotient) and the product kernel (_mul_into).
    """

    __slots__ = ("_frame", "_terms")

    @classmethod
    def _raw(cls, frame, terms: dict):
        out = cls.__new__(cls)
        out._frame = frame
        out._terms = terms
        return out

    # -- inspection ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _operand(self, other):
        """other as an element of this ring (of any frame), else None."""
        return other if isinstance(other, type(self)) else None

    def _check_frame(self, other) -> None:
        if self._frame != other._frame:
            error, message = self._MISMATCH
            raise error(message)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check_frame(other)
        return self._raw(self._frame, _add_into(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self._raw(self._frame, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check_frame(other)
            return self._product(other)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self._scaled(c)

    # scalars are central, so left and right scalar action agree
    __rmul__ = __mul__

    def _product(self, other):
        acc: dict = {}
        packing = self._packing()
        self._mul_into(acc, self._terms, other._terms, packing)
        if reduce(or_, acc, 0) & packing.top:
            raise OverflowError(f"product exponent leaves {_RANGE}")
        return self._raw(self._frame, acc)

    def _scaled(self, c):
        if not c:
            return self._raw(self._frame, {})
        return self._raw(self._frame, {e: coeff * c for e, coeff in self._terms.items()})

    def __pow__(self, n: int):
        """self ** n by repeated squaring (the unit for n = 0)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        if not n:
            return self._raw(self._frame, {self._packing().base: self._scalar(1)})
        result, square = None, self
        while n:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- division -----------------------------------------------------

    def _exact_div(self, g, right: bool):
        """h with h * g == self (right) or g * h == self, else NotDivisibleError.

        Greedy cancellation of the leading term (graded-lex; plain
        exponent order for QLaurent).  Every quotient exponent lies in
        the box [min f - min g, max f - max g], taken componentwise over
        the supports, so the loop stops as soon as one would leave it.
        Inside the box, every product exponent lies in the support box
        of f, so the subtraction cannot overflow.
        """
        o = self._operand(g)
        if o is None:
            raise TypeError(f"cannot divide {type(self).__name__} by {type(g).__name__}")
        self._check_frame(o)
        g = o._terms
        if not g:
            raise ZeroDivisionError(f"{self._RING} division by zero")
        frame, f = self._frame, self._terms
        if not f:
            return self._raw(frame, {})
        packing = self._packing()
        unpack, top = packing.unpack, packing.top
        f_lo, f_hi = packing.box(f)
        g_lo, g_hi = packing.box(g)
        lo, hi = list(map(sub, f_lo, g_lo)), list(map(sub, f_hi, g_hi))
        if any(map(gt, lo, hi)):
            raise NotDivisibleError("divisor support exceeds dividend support")
        b = max(g)
        bv, cg, shift = unpack(b), g[b], packing.base - b
        lead, mul_into = self._lead_quotient, self._mul_into
        rem = dict(f)
        quot: dict = {}
        while rem:
            t = max(rem)
            a = t + shift
            if a & top:
                raise OverflowError(f"quotient exponent leaves {_RANGE}")
            av = unpack(a)
            if not (all(map(le, lo, av)) and all(map(le, av, hi))):
                raise NotDivisibleError("leading term of remainder is not reducible")
            c = quot[a] = lead(rem[t], cg, av, bv, right)
            # subtract (c X^a) * g  (resp. g * (c X^a)) from the remainder
            if right:
                mul_into(rem, {a: -c}, g, packing)
            else:
                mul_into(rem, g, {a: -c}, packing)
        return self._raw(frame, quot)

    # -- comparison / serialization ------------------------------------

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._frame == other._frame and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._frame, frozenset(self._terms.items())))


class QLaurent(_SparseLaurent):
    """A Laurent polynomial in v = q^(1/2) over the integers.

    The frame is always None and each term is keyed by its v-exponent
    (_VExponents); constructors, views and JSON speak int exponents.
    """

    __slots__ = ()
    _RING = "QLaurent"
    _scalar = staticmethod(_int_scalar)
    _mul_into = staticmethod(_int_mul_into)
    _lead_quotient = staticmethod(_int_lead_quotient)

    # Bound here for the benchmark tracer (perfbench/tracing.py), which
    # wraps them in this class's own __dict__.
    __add__ = __radd__ = _SparseLaurent.__add__
    exact_div = _int_exact_div

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for exp, coeff in items:
            if type(exp) is not int or type(coeff) is not int:
                raise ValueError(
                    f"QLaurent terms must hold integers, got {exp!r}: {coeff!r}"
                )
        self._frame = None
        self._terms = _add_into({}, items)

    def _packing(self):
        return _VExponents

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

    def _operand(self, other):
        if isinstance(other, QLaurent):
            return other
        return QLaurent.from_int(other) if isinstance(other, int) else None

    def __rsub__(self, other) -> "QLaurent":
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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
        return QLaurent._raw(None, acc)

    def shift(self, exp: int) -> "QLaurent":
        """Multiply by the unit v^exp."""
        return QLaurent._raw(None, {e + exp: c for e, c in self._terms.items()})

    def bar(self) -> "QLaurent":
        """The involution v -> v^(-1) (exponentwise negation)."""
        return QLaurent._raw(None, {-e: c for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        """Specialize q = 1: the sum of all coefficients."""
        return sum(self._terms.values())

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
