"""The sparse Laurent kernel and the scalar ring Z[q^(1/2), q^(-1/2)].

_SparseLaurent is the one sparse kernel under all three Laurent rings:
QLaurent (here), and TorusElement and CommLaurent (torus, through
_FramedLaurent).  It holds +, -, *, powers, exact division, equality,
hashing and the integer coefficient ring; QLaurent and CommLaurent
supply only their keys, constructors and rendering, and TorusElement
also its coefficient ring, twisted product and division.

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

    def within(self, key: int, lo: list[int], hi: list[int]):
        """unpack(key) if lo <= unpack(key) <= hi componentwise, else None."""
        a = self.unpack(key)
        return a if all(map(le, lo, a)) and all(map(le, a, hi)) else None


_packing = cache(_Packing)


class _VExponents:
    """The keys of QLaurent: each v-exponent is its own key.

    With one variable there is no degree field, so integer order is the
    term order and the key of a product is the sum of the keys; the
    exponents are unbounded, so no key overflows (top = 0).
    """

    base = top = 0

    @staticmethod
    def box(keys) -> tuple[list[int], list[int]]:
        return [min(keys)], [max(keys)]

    @staticmethod
    def within(key: int, lo: list[int], hi: list[int]):
        """key if lo <= key <= hi, else None: the test is on the key itself."""
        return key if lo[0] <= key <= hi[0] else None


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


def _signed_pieces(terms):
    """The pieces of (int coefficient, monomial text or "") pairs as a signed sum.

    "-" before a negative first term, " + " / " - " before each later one,
    the coefficient dropped when its magnitude is 1 before a monomial, and
    "0" for no terms.  Pieces are rendered as they are read.
    """
    plus, minus = "", "-"
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        yield (plus if c > 0 else minus) + body
        plus, minus = " + ", " - "
    if not plus:
        yield "0"


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


# -- the integer coefficient ring, _SparseLaurent's own -----------------------


def _int_scalar(value) -> int | None:
    return value if type(value) is int else None


def _int_mul_into(acc: dict, left: dict, right: dict, packing) -> None:
    """Add the product of the integer term maps left * right into acc.

    The ring commutes, so a square (left is right) visits each unordered
    pair of terms once: c_a^2 X^(2a), then 2 c_a c_b X^(a+b) for each
    later term c_b X^b.
    """
    get, base = acc.get, packing.base
    if left is right:
        terms = list(left.items())
        for i, (a, ca) in enumerate(terms, 1):
            k = a + a - base
            s = get(k, 0) + ca * ca
            if s:
                acc[k] = s
            else:
                del acc[k]
            a -= base
            ca += ca
            for b, cb in terms[i:]:
                k = a + b
                s = get(k, 0) + ca * cb
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        return
    right = right.items()
    for a, ca in left.items():
        a -= base
        for b, cb in right:
            k = a + b
            s = get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]


def _int_quotient(rc: int, cg: int) -> int:
    """rc / cg for a leading coefficient rc and the divisor's cg, else NotDivisibleError."""
    c, leftover = divmod(rc, cg)
    if leftover:
        raise NotDivisibleError(f"leading coefficient {rc} not divisible by {cg}")
    return c


def _int_division_step(g: dict, b: int, packing):
    """The step of exact division by g, whose leading term is g[b] X^b.

    step(rem, rc, a, av) returns c = rc / g[b] (or raises
    NotDivisibleError) and subtracts (c X^a) * (g - g[b] X^b) from rem;
    the leading product cancels rc X^{a+b}, which the loop has popped.
    """
    cg = g[b]
    rest = dict(g)
    del rest[b]

    def step(rem: dict, rc: int, a: int, av) -> int:
        c = _int_quotient(rc, cg)
        _int_mul_into(rem, {a: -c}, rest, packing)
        return c

    return step


class _SparseLaurent:
    """A finite sum of terms coeff * X^a, a in Z^m, over one frame.

    The frame is the SkewMatrix of a TorusElement, the variable count m
    of a CommLaurent, or None for QLaurent.  The term map, keyed by
    packed exponents (_Packing, or _VExponents for QLaurent), never
    stores a zero coefficient, so two elements are equal iff their
    frames and term maps are.

    This kernel holds the arithmetic, reflected too, exact division,
    equality, hashing and the integer coefficient ring that QLaurent and
    CommLaurent share: an int, never a bool, is a constant of the ring
    (_operand) and hashes as that int.  The constructors and views over
    a frame of width m belong to _FramedLaurent (torus).  Subclasses
    supply the keys (_packing), their error wording (_RING, _MISMATCH)
    and _pieces(), the pieces of str(self) one term at a time, so
    explorer's DOT labels can stop after the terms they keep; TorusElement
    replaces the ring's three hooks:
    - _scalar(value), the coefficient that value is, else None;
    - _mul_into(acc, left, right, packing), the product kernel;
    - _division_step(g, b, packing), built once per division by g with
      leading term g[b] X^b: its step divides the leading coefficients
      and subtracts the quotient term times the rest of g from the
      remainder, at once (integers) or filed per product monomial;
    and adds _collect(entry), the coefficient of the products its step
    filed as a list under one remainder monomial, or None if they cancel;
    any other remainder entry is its own coefficient.  Division is
    right-only; the torus derives its left division through bar.
    """

    __slots__ = ("_frame", "_terms")
    _scalar = staticmethod(_int_scalar)
    _mul_into = staticmethod(_int_mul_into)
    _division_step = staticmethod(_int_division_step)

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
        """other in this ring (of any frame), an int (no bool) as the constant, else None."""
        if type(other) is not int:
            return other if isinstance(other, type(self)) else None
        return self._raw(self._frame, {self._packing().base: other} if other else {})

    def _check_frame(self, other) -> None:
        if self._frame != other._frame:
            error, message = self._MISMATCH
            raise error(message)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self) or other._frame is not self._frame:
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

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check_frame(other)
            return self._product(other)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self._scaled(c)

    # addition commutes and scalars are central, so each reflected form is the forward one
    __radd__ = __add__
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
        if type(n) is not int or n < 0:
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

    def _exact_div(self, g):
        """h with h * g == self, else NotDivisibleError.

        Greedy cancellation of the leading term (graded-lex; plain
        exponent order for QLaurent).  Each turn pops the top monomial t
        of the remainder.  Its entry is its coefficient, or the list of
        products a torus step filed under t, summed by _collect; t is
        skipped if they cancel.  Otherwise the step
        finds the quotient term c X^a with a = t - b, whose product with
        the leading term g[b] X^b cancels the popped term, and subtracts
        c X^a times the rest of g.  Every quotient exponent lies in the
        box [min f - min g, max f - max g], taken componentwise over the
        supports, so the loop stops as soon as one would leave it.
        Inside the box, every product exponent lies in the support box
        of f, so the subtraction cannot overflow.
        A QLaurent divisor n v^e has no rest, so its turns are one descending
        pass over f: c v^t gives (c / n) v^(t - e), or the step's message.
        """
        if type(g) is not type(self) or g._frame is not self._frame:
            o = self._operand(g)
            if o is None:
                raise TypeError(f"cannot divide {type(self).__name__} by {type(g).__name__}")
            self._check_frame(o)
            g = o
        g = g._terms
        if not g:
            raise ZeroDivisionError(f"{self._RING} division by zero")
        frame, f = self._frame, self._terms
        if not f:
            return self._raw(frame, {})
        if frame is None and len(g) == 1:  # QLaurent by n v^e: the loop's steps, one pass
            ((e, n),) = g.items()
            return self._raw(None, {t - e: _int_quotient(f[t], n) for t in sorted(f, reverse=True)})
        packing = self._packing()
        top = packing.top
        f_lo, f_hi = packing.box(f)
        g_lo, g_hi = packing.box(g)
        lo, hi = list(map(sub, f_lo, g_lo)), list(map(sub, f_hi, g_hi))
        if any(map(gt, lo, hi)):
            raise NotDivisibleError("divisor support exceeds dividend support")
        within = packing.within
        b = max(g)
        shift = packing.base - b
        step = self._division_step(g, b, packing)
        rem = dict(f)
        quot: dict = {}
        while rem:
            t = max(rem)
            rc = rem.pop(t)
            if type(rc) is list and not (rc := self._collect(rc)):  # the products cancel
                continue
            a = t + shift
            if a & top:
                raise OverflowError(f"quotient exponent leaves {_RANGE}")
            av = within(a, lo, hi)
            if av is None:
                raise NotDivisibleError("leading term of remainder is not reducible")
            # subtract (c X^a) * (g - g[b] X^b) from the remainder
            quot[a] = step(rem, rc, a, av)
        return self._raw(frame, quot)

    # -- comparison / serialization ------------------------------------

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._frame == other._frame and self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        c = terms.get(self._packing().base, 0)
        if type(c) is int and len(terms) == (c != 0):  # a constant equals its int (_operand)
            return hash(c)
        return hash((self._frame, frozenset(terms.items())))

    def __str__(self) -> str:
        return "".join(self._pieces())


class QLaurent(_SparseLaurent):
    """A Laurent polynomial in v = q^(1/2) over the integers.

    The frame is always None and each term is keyed by its v-exponent
    (_VExponents); constructors, views and JSON speak int exponents.
    """

    __slots__ = ()
    _RING = "QLaurent"

    # Bound here for the benchmark tracer (perfbench/tracing.py), which
    # wraps them in this class's own __dict__.
    __add__ = _SparseLaurent.__add__
    exact_div = _SparseLaurent._exact_div

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
        if type(exp) is not int:
            raise ValueError(f"exponent must be an integer, got {exp!r}")
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
        if type(exp) is not int:
            raise ValueError(f"exponent must be an integer, got {exp!r}")
        return self._terms.get(exp, 0)

    # -- ring operations ----------------------------------------------

    def mul_shifted(self, other: "QLaurent", shift: int) -> "QLaurent":
        """self * other * v^shift."""
        return (self * other).shift(shift)

    def shift(self, exp: int) -> "QLaurent":
        """Multiply by the unit v^exp."""
        if type(exp) is not int:
            raise ValueError(f"exponent must be an integer, got {exp!r}")
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

    def _pieces(self):
        q = self._q_power_str
        return _signed_pieces([(c, q(e) if e else "") for e, c in sorted(self._terms.items())])

    def __repr__(self) -> str:
        return f"QLaurent({self._terms!r})"
