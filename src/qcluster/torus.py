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
coefficient ring, frame, product rule and rendering.  The torus
product and exact division multiply their Z[v^(+-1)] coefficients as
single ints (Kronecker substitution); those helpers sit just before
TorusElement.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

import struct
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import FrameMismatchError, NotDivisibleError
from .qlaurent import (
    QLaurent,
    _add_into,
    _int_tuple,
    _packing,
    _Packing,
    _signed_pieces,
    _SparseLaurent,
    from_decimal,
)


def _int_rows(rows: Iterable, what: str, width: int) -> tuple[tuple[int, ...], ...]:
    """The rows as integer tuples, each of length width.

    A non-integer entry raises ValueError naming `what` (see _int_tuple);
    then the first row of another length is reported.
    """
    tup = tuple(_int_tuple(row, what) for row in rows)
    for i, row in enumerate(tup):
        if len(row) != width:
            raise ValueError(f"row {i} has length {len(row)}, expected {width}")
    return tup


class _IntMatrix:
    """Int rows as tuples; == and hash hold per type, over _key()."""

    __slots__ = ("_rows",)

    @classmethod
    def _derived(cls, rows):
        """The matrix of int rows that the caller's construction keeps valid; not re-validated."""
        out = cls.__new__(cls)
        out._rows = tuple(map(tuple, rows))
        return out

    @property
    def m(self) -> int:
        return len(self._rows)

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def _key(self):
        return self._rows

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class SkewMatrix(_IntMatrix):
    """A skew-symmetric m x m integer matrix, the frame of a torus."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[int]]):
        m = len(rows)
        tup = _int_rows(rows, "Lambda", m)
        for i in range(m):
            for j in range(i, m):
                if tup[i][j] != -tup[j][i]:
                    raise ValueError(
                        f"not skew-symmetric at ({i}, {j}): "
                        f"{tup[i][j]} != -{tup[j][i]}"
                    )
        self._rows = tup

    def image(self, c: Sequence[int]) -> list[int]:
        """The vector Lambda c: Lambda(a, c) = a . Lambda c = -c . Lambda a.

        Every product of Lambda with a vector goes through here: the form,
        basis changes, compatibility, frame mutation and the torus twist.
        """
        if len(c) != len(self._rows):
            raise ValueError(f"expected vectors of length {len(self._rows)}")
        return [sum(map(mul, row, c)) for row in self._rows]

    def form(self, a: Sequence[int], b: Sequence[int]) -> int:
        """The bilinear form Lambda(a, b) = sum_ij lambda_ij a_i b_j = a . Lambda b."""
        if len(a) != len(self._rows):
            raise ValueError(f"expected vectors of length {len(self._rows)}")
        return sum(map(mul, a, self.image(b)))

    def transform(self, columns: Sequence[Sequence[int]]) -> "SkewMatrix":
        """The matrix C^T Lambda C for the basis change with the given columns.

        Lambda c is formed once per column c, not once per entry.
        """
        images = [self.image(c) for c in columns]
        return SkewMatrix([[sum(map(mul, ci, lc)) for lc in images] for ci in columns])

    def __repr__(self) -> str:
        return f"SkewMatrix({[list(r) for r in self._rows]!r})"


def reorder_weight(lam: SkewMatrix, a: Sequence[int]) -> int:
    """v-exponent w with X^a = v^w * X_1^{a_1} ... X_m^{a_m}.

    w = sum over i > j of lambda_ij a_i a_j.
    """
    rows = lam.rows()
    if len(a) != len(rows):
        raise ValueError(f"expected vectors of length {len(rows)}")
    total = 0
    for i, ai in enumerate(a):
        if ai:
            row = rows[i]
            total += ai * sum(row[j] * a[j] for j in range(i) if a[j])
    return total


def _shift_scale(r: QLaurent, s: int, n: int) -> QLaurent:
    """n v^s r, each term of r shifted by s and scaled by n: no product is formed."""
    return QLaurent._raw(None, {t + s: x * n for t, x in r._terms.items()})


class _FramedLaurent(_SparseLaurent):
    """The kernel over a frame of width m: TorusElement and CommLaurent.

    Holds the normalizing constructor and the tuple-exponent
    constructors, views and JSON; subclasses add the frame's width
    (_width, which picks the _Packing), _NAME and the JSON coefficient
    codecs.  explorer._var_key caches the compact JSON bytes in _bytes
    (the one write after construction; ==, hash and str ignore it).
    """

    __slots__ = ("_bytes",)

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
        if type(i) is not int or not 0 <= i < m:
            raise ValueError(f"generator index {i!r} out of range for m={m}")
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
        """The coefficient of X^exp (m ints, else ValueError); zero off the support."""
        try:
            key = self._packing().pack(_int_tuple(exp, "exponent"))
        except OverflowError:
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
    def from_json(cls, frame, records: list[Mapping]):
        """The element to_json wrote; ValueError unless a list of {"exp": list, "coeff": ...} objects."""
        if type(records) is not list or not all(
            isinstance(r, Mapping) and type(r.get("exp")) is list and "coeff" in r for r in records
        ):
            raise ValueError(f'{cls._NAME} JSON must be a list of objects with an "exp" list and a "coeff"')
        return cls(frame, [(tuple(r["exp"]), cls._coeff_from_json(r["coeff"])) for r in records])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


# -- Kronecker substitution: QLaurent coefficients as single ints --------------
#
# The torus product and exact division multiply Z[v^±1] coefficients by
# substituting v = 2^k (Harvey, "Faster polynomial multiplication via
# multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009): a run of
# terms c_e v^e becomes its lowest v-exponent lo and the image sum
# c_e 2^(k (e - lo)), one product of runs becomes one int product, and the
# products that reach one monomial are summed as ints and decoded once into
# balanced base-2^k digits (_v_sum, the one summation).  Decoding is exact
# while every digit d of the sum satisfies |d| < 2^(k - 1); _v_width derives k
# from a bound on the digits, with no tolerance.  Each caller bounds its own:
#   - the product from both operands, before it forms any product
#     (TorusElement._mul_into);
#   - the division per monomial, from the pairs (divisor term, quotient term)
#     filed under it, when it reaches the top of the remainder: the quotient
#     terms are known only then (TorusElement._collect).
#
# An image costs k bits per v-power it spans, so the cost is kept in
# proportion to the terms, not to the span: a coefficient spanning at most
# _GAP per term is one run, a wider one a run per term (_v_runs), and a sum
# takes in a contribution only if the two lie at most _GAP digits apart
# (_v_sum); one further away is decoded on its own, like any sum, and the
# callers' _add_into adds the pieces of a key.  Every int then spans at most
# 2 _GAP + 1 digits per product of two terms it holds, however far apart the
# exponents lie (they grow with the entries of Lambda and of the symmetrizer).

_GAP = 8


def _v_scan(triples) -> list:
    """One pass over (key, exponent vector, QLaurent) triples for Kronecker products.

    Returns [entries, big, longest, cuts]: big is the largest
    |coefficient| and longest the most terms in one coefficient.  An
    entry is (key, vector, lo, x) for a 1-term coefficient x v^lo, its
    own image whatever k is, and (key, vector, None, terms) for a longer
    one; _v_cut lists the runs at a width k and keeps each list it made
    in cuts (None before the first), by k.  The vector is () where no
    twist reads it.
    """
    entries: list = []
    big = longest = 1
    for key, vec, c in triples:
        t = c._terms
        if len(t) == 1:
            ((lo, x),) = t.items()
            entries.append((key, vec, lo, x))
            x = abs(x)
        else:
            entries.append((key, vec, None, t))
            if len(t) > longest:
                longest = len(t)
            x = max(map(abs, t.values()))
        if x > big:
            big = x
    return [entries, big, longest, None]


_UNIT = _v_scan([(0, (), QLaurent.one())])  # X^0 keyed 0: a pair with it adds c X^t at t


def _v_cut(scan: list, k: int) -> list:
    """(key, vector, lowest v-exponent, image at v = 2^k) for every run of a scan."""
    if scan[2] == 1:  # every coefficient has one term, so each entry is a run
        return scan[0]
    cuts = scan[3]
    if cuts is None:
        cuts = scan[3] = {}
    runs = cuts.get(k)
    if runs is None:
        runs = cuts[k] = []
        for entry in scan[0]:
            key, vec, lo, t = entry
            if lo is None:
                runs += [(key, vec, start, x) for start, x in _v_runs(t, k)]
            else:
                runs.append(entry)
    return runs


def _v_runs(t: dict, k: int) -> list[tuple[int, int]]:
    """[(lo, image at v = 2^k)] for the runs of t: one if its span is short, else one per term."""
    lo = min(t)
    if max(t) - lo <= _GAP * (len(t) - 1):  # a span this short is one run
        return [(lo, sum(c << k * (e - lo) for e, c in t.items()))]
    return sorted(t.items())  # ascending: _v_sum merges a key's runs only while they arrive within reach


def _v_width(bound: int) -> int:
    """The digit width k for a sum of run products whose digits are at most bound in size.

    A product of runs x and y has digits of size at most max|x| * max|y|
    * min(len(x), len(y)), and a sum of products at most the sum of their
    bounds; the callers state theirs.  Every digit of every partial sum
    then satisfies |digit| <= bound < 2^(k - 1) for k = bits(bound) + 1,
    rounded up to 8, 16, 32, 64 or a multiple of 8 for _v_digits.
    """
    bits = bound.bit_length() + 1
    for k in _WORDS:
        if bits <= k:
            return k
    return -(-bits // 8) * 8


_WORDS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes of k-bit unsigned words


def _v_sum(outer, k: int) -> list[tuple[int, QLaurent]]:
    """[(key, coefficient)] summing the products of runs at v = 2^k.

    outer holds (s, lo_s, x, ls, inner) and inner (t, tv, lo_t, y): runs
    x v^lo_s of key s and y v^lo_t of key t, whose product x y adds to
    key s + t at the v-exponent lo_s + lo_t + tv . ls (the twist).  The
    products of one key are summed as (lowest v-exponent, int), shifted
    into line when one starts lower; one further than _GAP digits (beyond
    the bits of the int it would shift) is a piece of its own, decoded
    like any sum.  A key may then come out in several pairs, which the
    callers add with _add_into.  No int grows with the gaps between
    v-exponents, only with its terms.
    """
    reach = _GAP * k
    sums: dict = {}  # key -> (lo, int)
    far: list = []  # (key, (lo, int)), the contributions too far from sums[key]
    get = sums.get
    for s, lo_s, x, ls, inner in outer:
        for t, tv, lo_t, y in inner:
            key = s + t
            lo = lo_s + lo_t + sum(map(mul, tv, ls))
            xy = x * y
            prev = get(key)
            if prev is None:
                sums[key] = (lo, xy)
                continue
            # within reach, the shift costs no more bits than the two ints
            # and _GAP digits; the first test spares the bit count
            p, z = prev
            if lo >= p:
                d = k * (lo - p)
                if d <= reach or d <= reach + z.bit_length():
                    sums[key] = (p, z + (xy << d))
                    continue
            else:
                d = k * (p - lo)
                if d <= reach or d <= reach + xy.bit_length():
                    sums[key] = (lo, (z << d) + xy)
                    continue
            far.append((key, (lo, xy)))
    out = _v_decode(sums.items(), k)
    if far:
        out += _v_decode(far, k)
    return out


def _v_decode(sums, k: int) -> list[tuple[object, QLaurent]]:
    """[(key, v^lo * sum d_i v^i)] for the pairs (key, (lo, x)) in sums, x != 0.

    The d_i are the balanced base-2^k digits of x (_v_digits).
    """
    raw, out = QLaurent._raw, []
    half = 1 << (k - 1)
    for key, (lo, x) in sums:
        if -half < x < half:
            if x:
                out.append((key, raw(None, {lo: x})))
        else:
            out.append((key, raw(None, _v_digits(lo, x, k))))
    return out


def _v_digits(lo: int, x: int, k: int) -> dict[int, int]:
    """{lo + i: d_i} for the nonzero balanced base-2^k digits d_i of x.

    For k a _v_width and x of two digits or more.  Adding 2^(k - 1) to
    every digit makes each one an unsigned k-bit word in the bytes of the
    sum: read at once as machine words for k up to 64 (the
    kronecker-quantum benchmark's exploration takes 27 % less time than
    with slices alone), as slices beyond.
    """
    half = 1 << (k - 1)
    size, code = k >> 3, _WORDS.get(k)
    n = x.bit_length() // k + 1
    halves = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    data = (x + halves).to_bytes(n * size, "little")
    if code:
        words = struct.unpack(f"<{n}{code}", data)
    else:
        words = [int.from_bytes(data[i : i + size], "little") for i in range(0, n * size, size)]
    return {lo + i: w - half for i, w in enumerate(words) if w != half}


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
    exact_div_right = _SparseLaurent._exact_div

    @staticmethod
    def _width(lam: SkewMatrix) -> int:
        return lam.m

    @property
    def lam(self) -> SkewMatrix:
        return self._frame

    def _operand(self, other):
        """other as a torus element (of any frame), else None: no int is one."""
        return other if isinstance(other, TorusElement) else None

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

    def _scaled(self, c: QLaurent) -> "TorusElement":
        if len(c) != 1:
            return super()._scaled(c)
        ((s, n),) = c._terms.items()  # n v^s: shift and scale each coefficient
        return self._raw(self._frame, {a: _shift_scale(r, s, n) for a, r in self._terms.items()})

    def _mul_into(self, acc: dict, left: dict, right: dict, packing: _Packing) -> None:
        """Add the product of the term maps left * right into acc.

        Each map is scanned (_v_scan) with its exponent vectors, which the
        twist reads, and the coefficients are multiplied as ints at v = 2^k
        (Kronecker substitution): each pair of runs costs one int product,
        and the products of each output term are summed and decoded once
        (_v_sum).
        A left term meets at most one right term per output term, so an
        output term sums at most min(term counts) coefficient pairs, each
        of digits at most max|left| * max|right| * min(longest) in size.
        A factor n v^e X^b on the right shifts each term r X^a of the other
        to n r v^(e + Lambda(a, b)) X^(a+b); on the left, by Lambda(b, a).
        """
        unpack = packing.unpack
        flip = len(right) != 1  # the one-term factor, if any, is on the left
        if not flip or len(left) == 1:
            ((b, c),) = (left if flip else right).items()
            if len(c) == 1:
                ((e, n),) = c._terms.items()
                lb = self._frame.image(unpack(b))  # Lambda(a, b) = a . lb = -Lambda(b, a)
                if flip:
                    lb = [-w for w in lb]
                other, b = right if flip else left, b - packing.base
                shifts = [e + sum(map(mul, unpack(a), lb)) for a in other]
                _add_into(acc, [(a + b, _shift_scale(r, s, n)) for (a, r), s in zip(other.items(), shifts)])
                return
        left = _v_scan(zip(left, map(unpack, left), left.values()))
        right = _v_scan(zip(right, map(unpack, right), right.values()))
        # The twist Lambda(a, b) is a . (Lambda b) = b . (-Lambda a): one
        # image per term of the operand with fewer terms (outer), one dot
        # product per pair of runs.
        outer, inner, flip = left, right, True
        if len(left[0]) > len(right[0]):
            outer, inner, flip = right, left, False
        k = _v_width(left[1] * right[1] * len(outer[0]) * min(left[2], right[2]))
        image, base, inner = self._frame.image, packing.base, _v_cut(inner, k)
        outer = [(s - base, lo_s, x, [-w for w in image(sv)] if flip else image(sv), inner)
                 for s, sv, lo_s, x in _v_cut(outer, k)]
        _add_into(acc, _v_sum(outer, k))

    @staticmethod
    def _collect(entry: list) -> QLaurent | None:
        """The coefficient of the pairs filed under one remainder monomial, or None.

        The entry is the list of pairs (y, ly, x) that _division_step filed
        under the monomial: one-term scans of y X^b, keyed b - base, and
        of x X^a, keyed a, with ly = Lambda b.  Each pair adds (x X^a) *
        (y X^b) = x y v^(a . ly) X^(a+b) at the key a + b - base of the
        monomial.  A coefficient c X^t of the dividend joins the list as
        (the scan of c keyed t, any ly, _UNIT).  The digits of the sum are
        at most the sum over the pairs of max|x| * max|y| * min(longest)
        in size, which gives k; the pairs are summed as ints at v = 2^k and
        decoded once (_v_sum).  None when they cancel.
        """
        k = _v_width(sum(x[1] * y[1] * min(x[2], y[2]) for y, _, x in entry))
        sums = _add_into({}, _v_sum([(s, lo_s, ys, ly, _v_cut(x, k))
                                     for y, ly, x in entry
                                     for s, _, lo_s, ys in _v_cut(y, k)], k))
        return sums.popitem()[1] if sums else None

    def _division_step(self, g: dict, b: int, packing: _Packing):
        """The step of exact division by g, whose leading term is g[b] X^b.

        step(rem, rc, a, av) returns the c with (c X^a) * (g[b] X^b) ==
        rc X^{a+b}, or raises NotDivisibleError.  Rather than subtract
        (c X^a) * g at once, it files the pair of each non-leading term of
        g and -c X^a under their product monomial in rem, for _collect to
        sum when that monomial reaches the top; the leading product would
        cancel rc X^{a+b}, which the loop has popped, so it is never formed.
        The divisor is scanned and twisted once per division, term by term.
        """
        unpack, base, image = packing.unpack, packing.base, self._frame.image
        cg, lb = g[b], image(unpack(b))  # Lambda(a, b) = a . lb
        rest = [(j - base, _v_scan([(j - base, (), c)]), image(unpack(j)))
                for j, c in g.items() if j != b]

        def step(rem: dict, rc: QLaurent, a: int, av) -> QLaurent:
            try:  # c = rc v^(-a . lb) / cg: shift cg, most often one term, not rc
                c = rc.exact_div(cg.shift(sum(map(mul, av, lb))))
            except NotDivisibleError:
                raise NotDivisibleError(
                    "leading coefficient not divisible in Z[q^(1/2), q^(-1/2)]"
                ) from None
            x = _v_scan([(a, av, -c)])
            for j, y, ly in rest:
                key = a + j
                entry = rem.get(key)
                if entry is None:
                    rem[key] = [(y, ly, x)]
                elif type(entry) is list:
                    entry.append((y, ly, x))
                else:  # a coefficient of the dividend
                    rem[key] = [(_v_scan([(key, (), entry)]), lb, _UNIT), (y, ly, x)]
            return c

        return step

    def exact_div_left(self, g: "TorusElement") -> "TorusElement":
        """Return h with g * h == self, or raise NotDivisibleError.

        bar is an anti-automorphism, bar(g * h) = bar(h) * bar(g), so h is
        the bar of the right quotient of bar(self) by bar(g).  The greedy
        steps of the two divisions are bar images of each other, so they
        fail at the same step with the same message.  A g of another type
        reaches the kernel's TypeError unchanged.
        """
        g = g.bar() if isinstance(g, TorusElement) else g
        return self.bar().exact_div_right(g).bar()

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

    def _pieces(self):
        sep = ""
        for e, c in self._sorted_items():
            mono = "X^(" + ",".join(map(str, e)) + ")"
            if not any(e):
                body = str(c)
            elif c.is_one():
                body = mono
            elif len(c) == 1:
                body = f"{c}*{mono}"
            else:
                body = f"({c})*{mono}"
            yield sep + body
            sep = " + "
        if not sep:
            yield "0"


class CommLaurent(_FramedLaurent):
    """A commutative Laurent polynomial in m variables over the integers."""

    __slots__ = ()
    _NAME = "polynomial"
    _RING = "Laurent"
    _MISMATCH = (ValueError, "mixed variable counts")
    _coeff_to_json = str
    _coeff_from_json = staticmethod(from_decimal)

    # Bound here for the benchmark tracer, as in TorusElement.
    __mul__ = _SparseLaurent.__mul__
    __pow__ = _SparseLaurent.__pow__
    __eq__ = _SparseLaurent.__eq__
    __hash__ = _SparseLaurent.__hash__
    to_json = _FramedLaurent.to_json
    exact_div = _SparseLaurent._exact_div

    @staticmethod
    def _width(m: int) -> int:
        if type(m) is not int or m < 1:  # a bool or float would reach _packing's struct format or range
            raise ValueError(f"need at least one variable: m must be a positive int, got {m!r}")
        return m

    @classmethod
    def constant(cls, m: int, n: int) -> "CommLaurent":
        return cls(m, {(0,) * cls._width(m): n})

    def _pieces(self):
        return _signed_pieces(
            (c, "*".join([f"x{i}" if x == 1 else f"x{i}^{x}" for i, x in enumerate(e, 1) if x]))
            for e, c in self._sorted_items()
        )
