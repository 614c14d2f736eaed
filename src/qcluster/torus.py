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

At q = 1 the torus becomes the ordinary Laurent ring.  Both rings are
one sparse kernel, _SparseLaurent; TorusElement and CommLaurent supply
only their coefficient ring, frame, product rule and rendering.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import FrameMismatchError, NotDivisibleError
from .qlaurent import QLaurent


def _grlex(a: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key for exponent vectors."""
    return (sum(a), a)


def _vadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _support_box(exps: Iterable[tuple[int, ...]], m: int):
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


class _SparseLaurent:
    """A finite sum of terms coeff * X^a, a in Z^m, over one frame.

    The frame is the SkewMatrix of a TorusElement or the variable count
    m of a CommLaurent.  The term map never stores a zero coefficient,
    so two elements are equal iff their frames and term maps are.

    Subclasses supply the coefficient ring (_scalar and the JSON
    coefficient codecs), the frame's width (_width), their error wording
    (_NAME, _RING, _MISMATCH), the leading-coefficient quotient of exact
    division (_lead_quotient) and the product kernel (_mul_into).
    """

    __slots__ = ("_frame", "_terms")

    def __init__(self, frame, terms=()):
        m = self._width(frame)
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            exp = _int_tuple(exp, "exponent")
            if len(exp) != m:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {m}")
            c = self._scalar(coeff)
            if c is None:
                raise TypeError(f"bad coefficient type {type(coeff).__name__}")
            checked.append((exp, c))
        self._frame = frame
        self._terms = _add_into({}, checked)

    @classmethod
    def _raw(cls, frame, terms: dict):
        out = cls.__new__(cls)
        out._frame = frame
        out._terms = terms
        return out

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

    def items(self):
        return self._terms.items()

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self._terms, key=_grlex)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exp: Sequence[int]):
        return self._terms.get(tuple(exp), self._scalar(0))

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum over the support (the denominator data)."""
        if not self._terms:
            raise ValueError(f"zero {self._NAME} has no support")
        lo, _ = _support_box(self._terms, self.m)
        return tuple(lo)

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
        self._mul_into(acc, self._terms, other._terms)
        return self._raw(self._frame, acc)

    def _scaled(self, c):
        if not c:
            return self._raw(self._frame, {})
        return self._raw(self._frame, {e: coeff * c for e, coeff in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = self.one(self._frame)
        for _ in range(n):
            result = result * self
        return result

    # -- division -----------------------------------------------------

    def _exact_div(self, g, right: bool):
        """h with h * g == self (right) or g * h == self, else NotDivisibleError.

        Greedy cancellation of the graded-lex leading term.  Every
        quotient exponent lies in the box [min f - min g, max f - max g],
        taken componentwise over the supports, so the loop stops as soon
        as one would leave it.
        """
        if not isinstance(g, type(self)):
            raise TypeError(f"cannot divide {type(self).__name__} by {type(g).__name__}")
        self._check_frame(g)
        if not g:
            raise ZeroDivisionError(f"{self._RING} division by zero")
        if not self._terms:
            return self.zero(self._frame)
        m = self.m
        f_lo, f_hi = _support_box(self._terms, m)
        g_lo, g_hi = _support_box(g._terms, m)
        lo = [fl - gl for fl, gl in zip(f_lo, g_lo)]
        hi = [fh - gh for fh, gh in zip(f_hi, g_hi)]
        if any(l > h for l, h in zip(lo, hi)):
            raise NotDivisibleError("divisor support exceeds dividend support")
        b = max(g._terms, key=_grlex)
        cg = g._terms[b]
        rem = dict(self._terms)
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
                self._mul_into(rem, term, g._terms)
            else:
                self._mul_into(rem, g._terms, term)
        return self._raw(self._frame, quot)

    # -- comparison / serialization ------------------------------------

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._frame == other._frame and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._frame, frozenset(self._terms.items())))

    def to_json(self) -> list[dict]:
        return [
            {"exp": list(e), "coeff": self._coeff_to_json(self._terms[e])}
            for e in self.support()
        ]

    @classmethod
    def from_json(cls, frame, records: Iterable[Mapping]):
        return cls(
            frame,
            [(tuple(r["exp"]), cls._coeff_from_json(r["coeff"])) for r in records],
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class TorusElement(_SparseLaurent):
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
    to_json = _SparseLaurent.to_json

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
        if isinstance(value, int):
            return QLaurent.from_int(value)
        return None

    def leading(self) -> tuple[tuple[int, ...], QLaurent]:
        """Graded-lex leading (exponent, coefficient) pair."""
        if not self._terms:
            raise ValueError("zero element has no leading term")
        exp = max(self._terms, key=_grlex)
        return exp, self._terms[exp]

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def scalar_mul(self, scalar: QLaurent | int) -> "TorusElement":
        return self._scaled(self._scalar(scalar))

    def _mul_into(self, acc: dict, left: dict, right: dict) -> None:
        """Add the product of the term maps left * right into acc."""
        rows = self._frame.rows()
        for a, ca in left.items():
            # Lambda(a, b) = sum_j la[j] * b_j with la = Lambda^T a = -Lambda a
            la = [-sum(row[i] * ai for i, ai in enumerate(a) if ai) for row in rows]
            products = []
            for b, cb in right.items():
                w = sum(bj * la[j] for j, bj in enumerate(b) if bj)
                products.append((_vadd(a, b), ca.mul_shifted(cb, w)))
            _add_into(acc, products)

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
        return self._exact_div(g, right=True)

    def exact_div_left(self, g: "TorusElement") -> "TorusElement":
        """Return h with g * h == self, or raise NotDivisibleError."""
        return self._exact_div(g, right=False)

    # -- structure maps -----------------------------------------------

    def bar(self) -> "TorusElement":
        """Coefficientwise v -> v^(-1); basis monomials are fixed."""
        return self._raw(self._frame, {e: c.bar() for e, c in self._terms.items()})

    def specialize_q1(self) -> "CommLaurent":
        """The commutative shadow at q = 1."""
        return CommLaurent(self.m, ((e, c.eval_at_one()) for e, c in self._terms.items()))

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
        exp, c1 = p1.leading()
        c2 = p2._terms.get(exp)
        if c2 is None:
            return None
        try:
            ratio = c1.exact_div(c2)
        except NotDivisibleError:
            return None
        if len(ratio) != 1:
            return None
        ((e, c),) = ratio.items()
        if c != 1 or e % 2 != 0:
            return None
        if p1 != p2.scalar_mul(QLaurent.v_power(e)):
            return None
        return e // 2

    # -- ordered-product view ------------------------------------------

    def ordered_terms(self) -> list[tuple[tuple[int, ...], QLaurent]]:
        """Terms rewritten against ascending ordered products.

        Each (a, c) returned means c * X_1^{a_1} ... X_m^{a_m}; the
        coefficient absorbs the normalization prefactor of X^a.
        """
        out = []
        for a in self.support():
            w = reorder_weight(self._frame, a)
            out.append((a, self._terms[a].shift(w)))
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in self.support():
            c = self._terms[e]
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


class CommLaurent(_SparseLaurent):
    """A commutative Laurent polynomial in m variables over the integers."""

    __slots__ = ()
    _NAME = "polynomial"
    _RING = "Laurent"
    _MISMATCH = (ValueError, "mixed variable counts")
    _coeff_to_json = str
    _coeff_from_json = int

    # Bound here for the benchmark tracer, as in TorusElement.
    __mul__ = _SparseLaurent.__mul__
    __pow__ = _SparseLaurent.__pow__
    __eq__ = _SparseLaurent.__eq__
    __hash__ = _SparseLaurent.__hash__
    to_json = _SparseLaurent.to_json
    __radd__ = _SparseLaurent.__add__

    @staticmethod
    def _width(m: int) -> int:
        if m < 1:
            raise ValueError("need at least one variable")
        return m

    @staticmethod
    def _scalar(value) -> int | None:
        return value if isinstance(value, int) else None

    @classmethod
    def constant(cls, m: int, n: int) -> "CommLaurent":
        return cls(m, {(0,) * m: n})

    def _operand(self, other):
        if isinstance(other, int):
            return CommLaurent.constant(self._frame, other)
        return other if isinstance(other, CommLaurent) else None

    def _mul_into(self, acc: dict, left: dict, right: dict) -> None:
        """Add the product of the term maps left * right into acc."""
        for a, ca in left.items():
            _add_into(acc, [(_vadd(a, b), ca * cb) for b, cb in right.items()])

    @staticmethod
    def _lead_quotient(rc: int, cg: int, a, b, right: bool) -> int:
        c, leftover = divmod(rc, cg)
        if leftover:
            raise NotDivisibleError(f"leading coefficient {rc} not divisible by {cg}")
        return c

    def exact_div(self, g: "CommLaurent") -> "CommLaurent":
        """Return h with h * g == self, or raise NotDivisibleError."""
        if isinstance(g, int):
            g = CommLaurent.constant(self._frame, g)
        return self._exact_div(g, right=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in self.support():
            c = self._terms[e]
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
