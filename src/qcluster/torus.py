"""The based quantum torus and its q=1 commutative shadow.

Elements are finite Z[q^(1/2), q^(-1/2)]-linear combinations of
normalized basis monomials X^a, a in Z^m, relative to a skew-symmetric
integer matrix Lambda.  The basis monomials obey the single
multiplication rule

    X^a * X^b = v^{Lambda(a, b)} * X^{a+b},        v = q^(1/2),

which encodes the generator relations X_i X_j = q^{lambda_ij} X_j X_i.
The prefactor relating X^a to the ascending ordered product
X_1^{a_1} ... X_m^{a_m} appears only in the conversion helpers, never
in the stored representation, which makes bar-invariance of the basis
structural.

At q = 1 the torus becomes the ordinary Laurent ring.  Both rings, like
the scalar ring QLaurent, are the sparse kernel _SparseLaurent
(qlaurent), here with the frame-taking constructors and views of
_FramedLaurent; TorusElement and CommLaurent supply only their
coefficient ring, frame, product rule and rendering.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import FrameMismatchError, NotDivisibleError
from .qlaurent import (
    QLaurent,
    _add_into,
    _int_exact_div,
    _int_lead_quotient,
    _int_mul_into,
    _int_scalar,
    _int_tuple,
    _packing,
    _Packing,
    _SparseLaurent,
    from_decimal,
)


class SkewMatrix:
    """A skew-symmetric m x m integer matrix, the frame of a torus."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        m = len(rows)
        tup = tuple(_int_tuple(row, "Lambda") for row in rows)
        for i, row in enumerate(tup):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
        for i in range(m):
            for j in range(i, m):
                if tup[i][j] != -tup[j][i]:
                    raise ValueError(
                        f"not skew-symmetric at ({i}, {j}): "
                        f"{tup[i][j]} != -{tup[j][i]}"
                    )
        self._rows = tup

    @property
    def m(self) -> int:
        return len(self._rows)

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def form(self, a: Sequence[int], b: Sequence[int]) -> int:
        """The bilinear form Lambda(a, b) = sum_ij lambda_ij a_i b_j."""
        m = len(self._rows)
        if len(a) != m or len(b) != m:
            raise ValueError(f"expected vectors of length {m}")
        total = 0
        for i, ai in enumerate(a):
            if ai:
                row = self._rows[i]
                total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
        return total

    def transform(self, columns: Sequence[Sequence[int]]) -> "SkewMatrix":
        """The matrix C^T Lambda C for the basis change with the given columns."""
        vals = [[self.form(ci, cj) for cj in columns] for ci in columns]
        return SkewMatrix(vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SkewMatrix({[list(r) for r in self._rows]!r})"


def reorder_weight(lam: SkewMatrix, a: Sequence[int]) -> int:
    """v-exponent w with X^a = v^w * X_1^{a_1} ... X_m^{a_m}.

    w = sum over i > j of lambda_ij a_i a_j.
    """
    rows = lam.rows()
    total = 0
    for i, ai in enumerate(a):
        if ai:
            row = rows[i]
            total += ai * sum(row[j] * a[j] for j in range(i) if a[j])
    return total


class _FramedLaurent(_SparseLaurent):
    """The kernel over a frame of width m: TorusElement and CommLaurent.

    Holds the normalizing constructor and the tuple-exponent
    constructors, views and JSON; subclasses add the frame's width
    (_width, which picks the _Packing), _NAME and the JSON coefficient
    codecs.
    """

    __slots__ = ()

    def __init__(self, frame, terms=()):
        pack = _packing(self._width(frame)).pack
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            key = pack(_int_tuple(exp, "exponent"))
            c = self._scalar(coeff)
            if c is None:
                raise TypeError(f"bad coefficient type {type(coeff).__name__}")
            checked.append((key, c))
        self._frame = frame
        self._terms = _add_into({}, checked)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, frame):
        return cls(frame)

    @classmethod
    def one(cls, frame):
        return cls(frame, {(0,) * cls._width(frame): 1})

    @classmethod
    def monomial(cls, frame, exp: Sequence[int], coeff=1):
        """The single-term element coeff * X^exp."""
        return cls(frame, {tuple(exp): coeff})

    @classmethod
    def generator(cls, frame, i: int):
        """The i-th generator X_i = X^{e_i} (0-based index)."""
        m = cls._width(frame)
        if not 0 <= i < m:
            raise ValueError(f"generator index {i} out of range for m={m}")
        e = [0] * m
        e[i] = 1
        return cls(frame, {tuple(e): 1})

    # -- inspection ---------------------------------------------------

    @property
    def m(self) -> int:
        return self._width(self._frame)

    def _packing(self) -> _Packing:
        return _packing(self._width(self._frame))

    def items(self) -> list[tuple[tuple[int, ...], object]]:
        unpack = self._packing().unpack
        return [(unpack(k), c) for k, c in self._terms.items()]

    def support(self) -> list[tuple[int, ...]]:
        """The exponents in graded-lex order."""
        return list(map(self._packing().unpack, sorted(self._terms)))

    def coefficient(self, exp: Sequence[int]):
        """The coefficient of X^exp; zero for any exponent not in the support."""
        try:
            key = self._packing().pack(_int_tuple(exp, "exponent"))
        except (ValueError, OverflowError):
            key = None
        return self._terms.get(key, self._scalar(0))

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum over the support (the denominator data)."""
        if not self._terms:
            raise ValueError(f"zero {self._NAME} has no support")
        return tuple(self._packing().box(self._terms)[0])

    # -- serialization ------------------------------------------------

    def _sorted_items(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        unpack, terms = self._packing().unpack, self._terms
        return [(unpack(k), terms[k]) for k in sorted(terms)]

    def to_json(self) -> list[dict]:
        return [
            {"exp": list(e), "coeff": self._coeff_to_json(c)}
            for e, c in self._sorted_items()
        ]

    @classmethod
    def from_json(cls, frame, records: Iterable[Mapping]):
        return cls(
            frame,
            [(tuple(r["exp"]), cls._coeff_from_json(r["coeff"])) for r in records],
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class TorusElement(_FramedLaurent):
    """A finite sum of normalized monomials coeff * X^a over one frame."""

    __slots__ = ()
    _NAME = "element"
    _RING = "torus"
    _MISMATCH = (FrameMismatchError, "torus elements live over different skew matrices")
    _coeff_to_json = staticmethod(QLaurent.to_json)
    _coeff_from_json = staticmethod(QLaurent.from_json)

    # Bound here rather than inherited: the benchmark tracer
    # (perfbench/tracing.py) wraps them in each class's own __dict__.
    # Binding __eq__ drops the inherited __hash__, so it is bound too.
    __mul__ = _SparseLaurent.__mul__
    __pow__ = _SparseLaurent.__pow__
    __eq__ = _SparseLaurent.__eq__
    __hash__ = _SparseLaurent.__hash__
    to_json = _FramedLaurent.to_json

    @staticmethod
    def _width(lam: SkewMatrix) -> int:
        return lam.m

    @property
    def lam(self) -> SkewMatrix:
        return self._frame

    @staticmethod
    def _scalar(value) -> QLaurent | None:
        if isinstance(value, QLaurent):
            return value
        if type(value) is int:
            return QLaurent.from_int(value)
        return None

    def leading(self) -> tuple[tuple[int, ...], QLaurent]:
        """Graded-lex leading (exponent, coefficient) pair."""
        if not self._terms:
            raise ValueError("zero element has no leading term")
        key = max(self._terms)
        return self._packing().unpack(key), self._terms[key]

    def scalar_mul(self, scalar: QLaurent | int) -> "TorusElement":
        c = self._scalar(scalar)
        if c is None:
            raise TypeError(f"bad coefficient type {type(scalar).__name__}")
        return self._scaled(c)

    def _mul_into(self, acc: dict, left: dict, right: dict, packing: _Packing) -> None:
        """Add the product of the term maps left * right into acc."""
        rows = self._frame.rows()
        unpack = packing.unpack
        right = [(b, unpack(b), cb) for b, cb in right.items()]
        for a, ca in left.items():
            # Lambda(a, b) = sum_j la[j] * b_j with la = Lambda^T a = -Lambda a
            av = unpack(a)
            la = [-sum(map(mul, row, av)) for row in rows]
            a -= packing.base
            _add_into(acc, [(a + b, ca.mul_shifted(cb, sum(map(mul, bv, la))))
                            for b, bv, cb in right])

    def _lead_quotient(self, rc: QLaurent, cg: QLaurent, a, b, right: bool) -> QLaurent:
        """c with (c X^a) * (cg X^b) == rc X^{a+b} (resp. the left product)."""
        twist = self._frame.form(a, b) if right else self._frame.form(b, a)
        try:
            return rc.shift(-twist).exact_div(cg)
        except NotDivisibleError:
            raise NotDivisibleError(
                "leading coefficient not divisible in Z[q^(1/2), q^(-1/2)]"
            ) from None

    def exact_div_right(self, g: "TorusElement") -> "TorusElement":
        """Return h with h * g == self, or raise NotDivisibleError."""
        return self._exact_div(g, True)

    def exact_div_left(self, g: "TorusElement") -> "TorusElement":
        """Return h with g * h == self, or raise NotDivisibleError."""
        return self._exact_div(g, False)

    # -- structure maps -----------------------------------------------

    def bar(self) -> "TorusElement":
        """Coefficientwise v -> v^(-1); basis monomials are fixed."""
        return self._raw(self._frame, {e: c.bar() for e, c in self._terms.items()})

    def specialize_q1(self) -> "CommLaurent":
        """The commutative shadow at q = 1."""
        return CommLaurent(self.m, ((e, c.eval_at_one()) for e, c in self.items()))

    def quasi_commutation(self, other: "TorusElement") -> int | None:
        """The integer t with self * other == q^t * other * self, or None.

        Raises ValueError on zero input (every exponent works there, so
        the question is ill-posed).
        """
        self._check_frame(other)
        if not self or not other:
            raise ValueError("quasi-commutation is undefined for zero elements")
        p1 = self._product(other)
        p2 = other._product(self)
        # the only candidate v^e matches the top v-exponents of the leading
        # coefficients; the full comparison then decides
        e = p1.leading()[1].max_exp() - p2.leading()[1].max_exp()
        if e % 2 or p1 != p2.scalar_mul(QLaurent.v_power(e)):
            return None
        return e // 2

    # -- ordered-product view ------------------------------------------

    def ordered_terms(self) -> list[tuple[tuple[int, ...], QLaurent]]:
        """Terms rewritten against ascending ordered products.

        Each (a, c) returned means c * X_1^{a_1} ... X_m^{a_m}; the
        coefficient absorbs the normalization prefactor of X^a.
        """
        return [(a, c.shift(reorder_weight(self._frame, a))) for a, c in self._sorted_items()]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._sorted_items():
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


class CommLaurent(_FramedLaurent):
    """A commutative Laurent polynomial in m variables over the integers."""

    __slots__ = ()
    _NAME = "polynomial"
    _RING = "Laurent"
    _MISMATCH = (ValueError, "mixed variable counts")
    _coeff_to_json = str
    _coeff_from_json = staticmethod(from_decimal)
    _scalar = staticmethod(_int_scalar)
    _mul_into = staticmethod(_int_mul_into)
    _lead_quotient = staticmethod(_int_lead_quotient)

    # Bound here for the benchmark tracer, as in TorusElement.
    __mul__ = _SparseLaurent.__mul__
    __pow__ = _SparseLaurent.__pow__
    __eq__ = _SparseLaurent.__eq__
    __hash__ = _SparseLaurent.__hash__
    to_json = _FramedLaurent.to_json
    __radd__ = _SparseLaurent.__add__
    exact_div = _int_exact_div

    @staticmethod
    def _width(m: int) -> int:
        if m < 1:
            raise ValueError("need at least one variable")
        return m

    @classmethod
    def constant(cls, m: int, n: int) -> "CommLaurent":
        return cls(m, {(0,) * m: n})

    def _operand(self, other):
        if isinstance(other, int):
            return CommLaurent.constant(self._frame, other)
        return other if isinstance(other, CommLaurent) else None

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._sorted_items():
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
