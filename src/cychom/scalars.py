"""Exact scalars: rationals and cyclotomic extensions Q(zeta_m).

An element of Q(zeta_m) is kept as its reduced coefficient tuple in the power
basis 1, z, ..., z^(phi(m)-1) modulo the m-th cyclotomic polynomial.  Each
coefficient follows the rule for Q: an int when integral, else a Fraction.
``from_coeffs`` and ``inv`` return values in that form; other arithmetic may
leave an integral Fraction behind, which equals and hashes like the int, so
tuples compare and hash the same either way.  Reduction is canonical, so two
scalars of the same order are equal exactly when their tuples are equal.  No
rounding ever occurs: the only true divisions have a Fraction operand.

The hot linear-algebra paths do not want a wrapper object per entry, so the
arithmetic lives in field objects operating on raw values (an int or a
Fraction for order 1, a coefficient tuple otherwise); the public Cyclotomic
class is a thin immutable shell over the same functions.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from itertools import repeat
from math import lcm

from .errors import (DivisionByZero, FieldMismatch, ParseError,
                     ValidationError, check_int)


def _exact(c):
    """A rational as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order (none for 0)."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials, den monic; division must be exact."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for k in range(len(num) - deg_d - 1, -1, -1):
        c = num[k + deg_d]
        if c:
            quot[k] = c
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic."""
    if m < 1:
        raise ValidationError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class _FieldBase:
    """Arithmetic on raw scalar values of one cyclotomic order."""

    order: int
    degree: int

    # The subclasses fill in: zero, one, add, sub, neg, mul, inv, conj,
    # is_zero, to_coeffs, from_coeffs, scale.

    def from_rational(self, q) -> object:
        return self.from_coeffs((q,) + (0,) * (self.degree - 1))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out


class _RationalField(_FieldBase):
    """Q on raw values that are an int when integral, else a Fraction (see
    linalg); ``inv`` and ``from_coeffs`` follow that rule.  ``inv`` divides
    with a Fraction operand, so no float can appear."""

    order = 1
    degree = 1
    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return _exact(1 / Fraction(a))

    @staticmethod
    def conj(a):
        return a

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def to_coeffs(a):
        return (a,)

    @staticmethod
    def from_coeffs(coeffs):
        return _exact(coeffs[0])

    @staticmethod
    def scale(a, q):
        return a * q


class _CyclotomicFieldRaw(_FieldBase):
    def __init__(self, m: int):
        self.order = m
        phi_poly = cyclotomic_polynomial(m)
        d = len(phi_poly) - 1
        self.degree = d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        # z^(d+k) reduced, for k = 0 .. d-2, as dense int tuples.
        red: list[tuple[int, ...]] = []
        base = [-c for c in phi_poly[:d]]  # z^d = -(lower part)
        red.append(tuple(base))
        for _ in range(d - 2):
            prev = red[-1]
            shifted = [0] + list(prev[: d - 1])
            top = prev[d - 1]
            if top:
                shifted = [s + top * b for s, b in zip(shifted, base)]
            red.append(tuple(shifted))
        self._red = red
        # zeta^j for j in 0..m-1, reduced.
        pows: list[tuple[int, ...]] = [self.one]
        gen = (0, 1) + (0,) * (d - 2) if d >= 2 else tuple(base)
        for _ in range(m - 1):
            pows.append(self.mul(pows[-1], gen))
        self.zeta_pow = pows

    # Tuples are built from a list, at their final length: one built from
    # map or a generator is allocated at ten slots and shrunk, so it is
    # freed into the free list of its own length, which the next such call
    # does not take from, and up to 2,000 tuples of each length stay
    # allocated.

    @staticmethod
    def add(a, b):
        return tuple([*map(operator.add, a, b)])

    @staticmethod
    def sub(a, b):
        return tuple([*map(operator.sub, a, b)])

    @staticmethod
    def neg(a):
        return tuple([*map(operator.neg, a)])

    def mul(self, a, b):
        # a rational operand scales the other coefficientwise; repeat, not
        # the bound x.__mul__, since int.__mul__(Fraction) is NotImplemented
        if not any(a[1:]):
            return tuple([*map(operator.mul, repeat(a[0]), b)])
        if not any(b[1:]):
            return tuple([*map(operator.mul, a, repeat(b[0]))])
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        for t in range(2 * d - 2, d - 1, -1):
            c = conv[t]
            if c:
                conv[t] = 0
                for idx, val in enumerate(self._red[t - d]):
                    if val:
                        conv[idx] += c * val
        return tuple(conv[:d])

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        # Extended Euclid in Q[x] against Phi_m (irreducible over Q).
        r0 = list(cyclotomic_polynomial(self.order))
        r1 = _poly_trim(list(a))
        s0, s1 = [], [1]  # coefficients of a in the Bezout combination
        while len(r1) > 1:
            # divide r0 by r1
            quot = [0] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            lead = r1[-1]
            for k in range(len(rem) - len(r1), -1, -1):
                c = Fraction(rem[k + len(r1) - 1], lead)
                if c:
                    quot[k] = c
                    for i, rc in enumerate(r1):
                        rem[k + i] -= c * rc
            rem = _poly_trim(rem)
            # s2 = s0 - quot*s1
            prod = [0] * (len(quot) + len(s1) - 1)
            for i, qc in enumerate(quot):
                if qc:
                    for j, sc in enumerate(s1):
                        prod[i + j] += qc * sc
            s2 = [0] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                s2[i] += c
            for i, c in enumerate(prod):
                s2[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(s2)
        if not r1:
            raise DivisionByZero("inverse of zero")
        g = r1[0]
        out = [Fraction(c, g) for c in s1]
        out += [0] * (self.degree - len(out))
        return self.from_coeffs(out[: self.degree])

    def conj(self, a):
        m = self.order
        if m <= 2:
            return a
        out = [0] * self.degree
        for k, c in enumerate(a):
            if c:
                for idx, val in enumerate(self.zeta_pow[(m - k) % m]):
                    if val:
                        out[idx] += c * val
        return tuple(out)

    @staticmethod
    def is_zero(a):
        return not any(a)

    @staticmethod
    def to_coeffs(a):
        return a

    @staticmethod
    def from_coeffs(coeffs):
        return tuple([*map(_exact, coeffs)])

    @staticmethod
    def scale(a, q):
        return tuple([x * q for x in a])


# typed, so that True or 2.0, equal to 1 and 2, is not answered from the cache
@functools.lru_cache(maxsize=None, typed=True)
def field_of_order(m: int) -> _FieldBase:
    check_int(m, "field order", 1)
    return _RationalField() if m == 1 else _CyclotomicFieldRaw(m)


def lift_raw(a, src: _FieldBase, dst: _FieldBase):
    """Embed a raw value of order m into order k*m via zeta_m -> zeta_km^k."""
    if dst.order == src.order:
        return a
    if dst.order % src.order != 0:
        raise FieldMismatch(
            f"cannot embed order {src.order} into order {dst.order}")
    step = dst.order // src.order
    out = dst.zero
    for j, c in enumerate(src.to_coeffs(a)):
        if c:
            out = dst.add(out, dst.scale(dst.zeta_pow[j * step], c))
    return dst.from_coeffs(out)


class Cyclotomic:
    """Immutable element of Q(zeta_m).

    order   the m of Q(zeta_m); 1 means a plain rational
    coeffs  reduced coefficient tuple in the power basis, length phi(m),
            each coefficient an int when integral, else a Fraction
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, value=0, order: int = 1):
        field = field_of_order(order)
        if isinstance(value, Cyclotomic):
            if value.order != order:
                raise FieldMismatch("construct via lift() to change order")
            coeffs = value.coeffs
        elif isinstance(value, (int, Fraction)):
            coeffs = field.to_coeffs(field.from_rational(value))
        else:
            seq = tuple(map(_exact, value))
            if len(seq) != field.degree:
                raise ValidationError(
                    f"order {order} needs {field.degree} coefficients, got {len(seq)}")
            coeffs = seq
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("Cyclotomic is immutable")

    # construction helpers -------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(Fraction(q), 1)

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Cyclotomic":
        field = field_of_order(m)
        if m == 1:
            return Cyclotomic(1, 1)
        return Cyclotomic(field.zeta_pow[power % m], m)

    @staticmethod
    def from_raw(raw, order: int) -> "Cyclotomic":
        field = field_of_order(order)
        return Cyclotomic(field.to_coeffs(raw), order)

    @property
    def raw(self):
        """The raw value the field objects operate on."""
        return self.coeffs[0] if self.order == 1 else self.coeffs

    @property
    def field(self) -> _FieldBase:
        return field_of_order(self.order)

    # arithmetic ------------------------------------------------------------

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(field_of_order(self.order).to_coeffs(
                field_of_order(self.order).from_rational(other)), self.order)
        if not isinstance(other, Cyclotomic):
            raise TypeError(f"cannot combine Cyclotomic with {type(other).__name__}")
        if other.order != self.order:
            raise FieldMismatch(
                f"orders differ ({self.order} vs {other.order}); lift to a common order first")
        return self, other

    def __add__(self, other):
        a, b = self._pair(other)
        f = a.field
        return Cyclotomic.from_raw(f.add(a.raw, b.raw), a.order)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic.from_raw(a.field.sub(a.raw, b.raw), a.order)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic.from_raw(a.field.sub(b.raw, a.raw), a.order)

    def __mul__(self, other):
        a, b = self._pair(other)
        return Cyclotomic.from_raw(a.field.mul(a.raw, b.raw), a.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return Cyclotomic.from_raw(a.field.mul(a.raw, a.field.inv(b.raw)), a.order)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return Cyclotomic.from_raw(a.field.mul(b.raw, a.field.inv(a.raw)), a.order)

    def __neg__(self):
        return Cyclotomic.from_raw(self.field.neg(self.raw), self.order)

    def __pow__(self, n: int):
        return Cyclotomic.from_raw(self.field.pow(self.raw, n), self.order)

    def inverse(self) -> "Cyclotomic":
        return Cyclotomic.from_raw(self.field.inv(self.raw), self.order)

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta_m -> zeta_m^(-1)."""
        return Cyclotomic.from_raw(self.field.conj(self.raw), self.order)

    # predicates and conversions --------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self} is not rational")
        return Fraction(self.coeffs[0])

    def lift(self, order: int) -> "Cyclotomic":
        """Embed into Q(zeta_order); order must be a multiple of self.order."""
        src, dst = self.field, field_of_order(order)
        return Cyclotomic.from_raw(lift_raw(self.raw, src, dst), order)

    def _minimal_form(self) -> tuple[int, tuple[Fraction, ...]]:
        if self.is_rational():
            return (1, (self.coeffs[0],))
        from .linalg import SparseMatrix
        target = {k: c for k, c in enumerate(self.coeffs) if c}
        for d in divisors(self.order)[1:-1]:
            # the power basis of Q(zeta_d) inside this field, as columns
            sub = field_of_order(d)
            cols = [dict(enumerate(lift_raw(sub.zeta_pow[j], sub, self.field)))
                    for j in range(sub.degree)]
            sol = SparseMatrix.from_columns(cols, self.field.degree,
                                            field_of_order(1)).solve(target)
            if sol is not None:
                return (d, tuple(sol.get(j, 0) for j in range(sub.degree)))
        return (self.order, self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.order == self.order:
            return self.coeffs == other.coeffs
        m = lcm(self.order, other.order)
        return self.lift(m).coeffs == other.lift(m).coeffs

    def __hash__(self):
        # Rationals must hash like their Fraction (__eq__ admits them), and
        # equal values of different declared orders must agree, so hash the
        # representation over the smallest cyclotomic subfield.
        if self._hash is None:
            order, coeffs = self._minimal_form()
            h = hash(coeffs[0]) if order == 1 else hash(("cyc", order) + coeffs)
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __str__(self):
        return scalar_to_string(self)

    def __repr__(self):
        return f"Cyclotomic({scalar_to_string(self)!r})"


# -- the spec-facing operation dispatcher ------------------------------------

def field_arith(op: str, operands) -> Cyclotomic | bool:
    """Single entry point for scalar arithmetic.

    op in {add, sub, mul, inv, conj, is_zero}; operands is a sequence of
    Cyclotomic values sharing one order (callers lift first).
    """
    ops = list(operands)
    if not ops:
        raise ValidationError("no operands")
    first = ops[0]
    for other in ops[1:]:
        if other.order != first.order:
            raise FieldMismatch("operands must share a field order; lift first")
    if op == "add":
        out = first
        for other in ops[1:]:
            out = out + other
        return out
    if op == "sub":
        if len(ops) != 2:
            raise ValidationError("sub takes two operands")
        return ops[0] - ops[1]
    if op == "mul":
        out = first
        for other in ops[1:]:
            out = out * other
        return out
    if op == "inv":
        if len(ops) != 1:
            raise ValidationError("inv takes one operand")
        return first.inverse()
    if op == "conj":
        if len(ops) != 1:
            raise ValidationError("conj takes one operand")
        return first.conjugate()
    if op == "is_zero":
        if len(ops) != 1:
            raise ValidationError("is_zero takes one operand")
        return first.is_zero()
    raise ValidationError(f"unknown op {op!r}")


# -- canonical string form ----------------------------------------------------

def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_string(x: Cyclotomic, with_order: bool = True) -> str:
    """Canonical text form: "p/q" for rationals, else terms in z plus the order.

    Examples: "-3/7", "1/2 - z + 2*z^3 @ order=8".
    """
    if x.order == 1:
        return _frac_str(x.coeffs[0])
    terms = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = _frac_str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{_frac_str(mag)}*{var}"
        terms.append((c < 0, body))
    if not terms:
        poly = "0"
    else:
        first_neg, first_body = terms[0]
        poly = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            poly += (" - " if neg else " + ") + body
    return f"{poly} @ order={x.order}" if with_order else poly


_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:/\d+)?)?\*?(?P<var>z(?:\^(?P<pow>\d+))?)?$")


def parse_scalar(text: str, order: int | None = None) -> Cyclotomic:
    """Inverse of scalar_to_string.  Accepts "p/q" and polynomial form.

    The order comes from an "@ order=m" suffix when present, else from the
    argument, else defaults to 1.
    """
    s = text.strip()
    if "@" in s:
        body, _, tail = s.partition("@")
        tail = tail.strip()
        if not tail.startswith("order="):
            raise ParseError(f"bad scalar suffix in {text!r}")
        try:
            declared = int(tail[len("order="):])
        except ValueError:
            raise ParseError(f"bad order in {text!r}") from None
        if order is not None and order != declared:
            raise ParseError(f"scalar {text!r} declares order {declared}, expected {order}")
        order = declared
        s = body.strip()
    if order is None:
        order = 1
    if order < 1:
        raise ParseError(f"order {order} is not positive in {text!r}")
    field = field_of_order(order)
    # Split into signed terms at top level; findall skips a sign it cannot
    # match, so the terms must cover the whole text.
    compact = s.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if not chunks:
        raise ParseError(f"empty scalar {text!r}")
    if "".join(chunks) != compact:
        raise ParseError(f"dangling sign in {text!r}")
    total = field.zero
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError(f"bad scalar term {chunk!r} in {text!r}")
        q = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            q = -q
        if m.group("var") is None:
            power = 0
        else:
            power = int(m.group("pow") or 1)
        if power == 0:
            term = field.from_rational(q)
        else:
            if order == 1:
                raise ParseError(f"variable term {chunk!r} needs an order > 1")
            term = field.scale(field.zeta_pow[power % order], q)
        total = field.add(total, term)
    return Cyclotomic.from_raw(total, order)


def common_order(*orders: int) -> int:
    return lcm(*orders)
