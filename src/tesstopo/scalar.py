"""Exact arithmetic over rational functions of pi^2.

Every closed-form quantity in this package lives in the field Q(pi^2):
quotients of integer-coefficient polynomials evaluated at pi squared.
Keeping that structure explicit makes identity checks exact. Equality is
decidable because pi is transcendental, so a nonzero integer polynomial
cannot vanish at pi^2 and two values are equal iff their canonical forms
coincide. Order is decided on ints: integer bounds on pi^2, taken at
doubling precision, enclose the difference until its sign is certain; this
terminates for the same reason. The bounds come from floor(pi * 2**prec), by
Machin's formula with a counted truncation error. Decimals are the exact value
correctly rounded, ties away from zero: a rational by integer division, a pi^2
value by rounding both ends of the quotient of its sides' enclosures, at
doubling precision until they agree, which they do as it is irrational.

Coefficient tuples are indexed by the power of pi^2, so ``(35, 24)``
denotes ``35 + 24*pi^2``.

Arithmetic and order between two rationals run on their two ints. A value
built from coefficients or text reaches lowest terms through a polynomial gcd
over ``int``: a primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1),
whose remainders are kept small by dividing out their content. Operations on
canonical a/b and c/d take gcds only of factors that can share one (Henrici;
Knuth, 4.5.1). As a is coprime to b and c to d, a product ac/bd cancels just
gcd(a, d) and gcd(c, b); a quotient is the product by d/c. A sum takes
g = gcd(b, d), and since a(d/g) + c(b/g) is then coprime to (b/g)(d/g), it
cancels just that numerator's gcd with g. A constant side shares no factor,
so only the integer content and the sign are left. Equal sides share their
primitive part, and a linear side divides the other exactly when the other
vanishes at its root, so only the remaining pairs take the remainder
sequence. Order reads the sign of a/b - c/d from (ad - cb)bd.
:func:`fraction_free` scales values by one positive common denominator to
ints or to :class:`Poly` values, integer polynomials in pi^2 that need no
gcd until two are divided: the form in which the staged regions clip.

Exact numbers from outside the program have two readers. Scalar text, read
by ``Scalar.parse``, is ``A`` or ``A/B``; each side is a sum of terms ``c``,
``c*pi^2k`` or ``pi^2k`` (the ``*`` may be left out), optionally inside one
pair of brackets, as in ``144*pi^2/(35+24*pi^2)``. Terms are joined by ``+``
or ``-``, the first may carry a sign, and whitespace is ignored. A
coefficient ``c`` is an unsigned decimal such as ``3``, ``2.5`` or
``1.5e-3``; pi powers are even and at most ``MAX_PI_POWER``. A rational, such
as a coordinate or a coefficient, is read by ``parse_fraction``: an ``int``
that is not a ``bool``, a ``Fraction``, or text such as ``-7/4``. Decimal
exponents in either reader are at most ``MAX_DECIMAL_EXPONENT`` in size.
Scalar text is read on ``int``, with no ``Fraction`` between the text and
the value: each side becomes integer coefficients over one positive common
denominator, a side of ASCII digits alone by ``int``, a decimal coefficient
by ``parse_fraction``, and the two denominators cross over, so a rational
reaches lowest terms by one integer gcd.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import UsageError

__all__ = ["Scalar", "as_scalar", "parse_fraction", "PI2", "ZERO", "ONE"]

Coeffs = tuple[int, ...]
ScalarLike = Union["Scalar", int, Fraction, str]


def _trim(c: Iterable[int]) -> Coeffs:
    out = list(c)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + b[i] if i < len(b) else x for i, x in enumerate(a)])


def _pneg(a: Coeffs) -> Coeffs:
    return tuple([-x for x in a])


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) == 1 or len(b) == 1:  # a constant scales the other side
        k, p = (a[0], b) if len(a) == 1 else (b[0], a)
        return tuple([k * x for x in p]) if k else (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _primpart(a: Coeffs) -> Coeffs:
    g = math.gcd(*a)
    return tuple(x // g for x in a) if g > 1 else a


def _prem(a: Coeffs, b: Coeffs) -> Coeffs:
    # a scaled by a power of lc(b), reduced modulo b; () is zero
    out, db, lb = list(a), len(b) - 1, b[-1]
    while len(out) > db:
        la, k = out[-1], len(out) - 1 - db
        out = [lb * x for x in out]
        for i, y in enumerate(b):
            out[k + i] -= la * y
        while out and out[-1] == 0:
            out.pop()
    return tuple(out)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    # primitive remainder sequence over int: by Gauss's lemma its last
    # nonzero term is the primitive gcd, up to sign
    a, b = _primpart(a), _primpart(b)
    r = _prem(a, b)
    while len(r) > 1:
        a, b = b, _primpart(r)
        r = _prem(a, b)
    if r:  # constant gcds are handled by integer content reduction instead
        return (1,)
    return b if b[-1] > 0 else _pneg(b)


def _pdivexact(a: Coeffs, g: Coeffs) -> Coeffs:
    # exact over int, since g is primitive (Gauss's lemma)
    rem, dg = list(a), len(g) - 1
    out = [0] * (len(a) - dg)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = rem[k + dg] // g[-1]  # an inexact step leaves rem[k + dg] nonzero
        for i, y in enumerate(g):
            rem[k + i] -= q * y
    if any(rem):
        raise ArithmeticError("polynomial division is not exact")
    return _trim(out)


def _lowest(n: Coeffs, d: Coeffs) -> tuple[Coeffs, Coeffs]:
    # n/d with coprime sides made canonical: joint content 1, the sign on top
    if n == (0,):
        return (0,), (1,)
    c = math.gcd(*n, *d)
    if c > 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    if d[-1] < 0:
        n = _pneg(n)
        d = _pneg(d)
    return n, d


def _cancel(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    # a and b over their primitive gcd g, and g; a constant side shares none.
    # Equal sides share their primitive part, and a linear side u divides the
    # other side p exactly when p(-u0/u1) = 0, which in ints reads
    # sum p_i (-u0)^i u1^(n-i) = 0; only other pairs take the remainder sequence
    if len(a) == 1 or len(b) == 1:
        return a, b, (1,)
    if a == b or len(a) == 2 or len(b) == 2:
        u, p = (a, b) if len(a) <= len(b) else (b, a)
        n = len(p) - 1
        if a != b and sum(c * (-u[0]) ** i * u[1] ** (n - i) for i, c in enumerate(p)):
            return a, b, (1,)
        g = _primpart(u)
        if g[-1] < 0:
            g = _pneg(g)
    else:
        g = _pgcd(a, b)
        if g == (1,):
            return a, b, g
    return _pdivexact(a, g), _pdivexact(b, g), g


def _normalize(n: Coeffs, d: Coeffs) -> tuple[Coeffs, Coeffs]:
    if d == (0,):
        raise ZeroDivisionError("zero denominator")
    n, d, _ = _cancel(n, d)
    return _lowest(n, d)


def _sum(a: Coeffs, b: Coeffs, c: Coeffs, d: Coeffs) -> tuple[Coeffs, Coeffs]:
    # a/b + c/d for canonical operands: with g = gcd(b, d), only g can share
    # a factor with the numerator, so g = 1 leaves nothing to cancel
    b, d, g = _cancel(b, d)
    t, g, _ = _cancel(_padd(_pmul(a, d), _pmul(c, b)), g)
    return _lowest(t, _pmul(_pmul(b, d), g))


def _product(a: Coeffs, b: Coeffs, c: Coeffs, d: Coeffs) -> tuple[Coeffs, Coeffs]:
    # (a/b)(c/d) for canonical operands: only a and d, or c and b, can share
    # a factor
    a, d, _ = _cancel(a, d)
    c, b, _ = _cancel(c, b)
    return _lowest(_pmul(a, c), _pmul(b, d))


def _side(x: object) -> list:
    items = list(x) if isinstance(x, (tuple, list)) else [x]
    if not items or any(type(e) not in (int, Fraction) for e in items):
        raise TypeError(f"coefficients are ints or Fractions, got {x!r}; "
                        "read text with Scalar.parse")
    return items


_PI2_BOUNDS: dict[int, tuple[int, int]] = {}
_PI = [0, 3]  # the largest prec computed so far and floor(pi * 2**prec)


def _atan_inv(x: int, one: int) -> tuple[int, int]:
    # one * atan(1/x) and its error bound in units: each term one / (k x^k)
    # is floored from the exact floor of one / x^k, so under one unit low, and
    # the alternating tail after the last nonzero term is under one unit
    t, total, k, x2 = one // x, 0, 1, x * x
    while t:
        total += t // k if k % 4 == 1 else -(t // k)
        t //= x2
        k += 2
    return total, k // 2 + 1


def _pi_floor(prec: int) -> int:
    """floor(pi * 2**prec), shifted down from pi at the largest precision
    computed so far. A larger precision is computed at least twice as large,
    by Machin's pi = 16 atan(1/5) - 4 atan(1/239) with guard bits that grow
    until the counted error leaves one floor."""
    top, f = _PI
    if prec > top:
        top = max(prec, 2 * top)
        guard = top.bit_length() + 16
        while True:
            one = 1 << (top + guard)
            (a, ea), (b, eb) = _atan_inv(5, one), _atan_inv(239, one)
            s, e = 16 * a - 4 * b, 16 * ea + 4 * eb
            if (s - e) >> guard == (s + e) >> guard:
                break
            guard += 32
        f = s >> guard
        _PI[:] = top, f
    return f >> (top - prec)


def _pi2_bounds(prec: int) -> tuple[int, int]:
    """Ints ``lo, hi`` with ``lo <= pi^2 * 2**prec <= hi``: the squares of
    f = floor(pi * 2**prec) and f + 1, rounded outward. They nest across
    precisions because f does."""
    b = _PI2_BOUNDS.get(prec)
    if b is None:
        f = _pi_floor(prec)
        b = _PI2_BOUNDS[prec] = (f * f >> prec, -(-(f + 1) ** 2 >> prec))
    return b


def _enclose(c: Coeffs, prec: int) -> tuple[int, int]:
    # interval Horner on ints, with no rounding: after each step [a, b]
    # encloses the partial value times 2**shift, and at the end c(pi^2)
    # times 2**(prec * (len(c) - 1))
    lo, hi = _pi2_bounds(prec)
    a = b = c[-1]
    shift = 0
    for k in reversed(c[:-1]):
        shift += prec
        a, b = (a * (lo if a >= 0 else hi) + (k << shift),
                b * (hi if b >= 0 else lo) + (k << shift))
    return a, b


def _poly_sign(c: Coeffs, prec: int) -> int:
    # 0 while the enclosure straddles zero
    a, b = _enclose(c, prec)
    return 1 if a > 0 else -1 if b < 0 else 0


def _product_sign(*sides: Coeffs) -> int:
    # the sign of a product of nonzero polynomials at pi^2: integer bounds on
    # pi^2 at 64, 128, ... bits until they fix the sign of every factor
    prec = 64
    # pi at 2**16 bits takes 0.31-0.41 s, once per process, and every rung
    # from 64 bits up to it 0.42-0.54 s (shared 2-core x86-64, CPython 3.11;
    # mpmath's binary-split pi took 0.03-0.05 s there)
    while prec <= 1 << 16:
        sign = 1
        for c in sides:
            sign *= _poly_sign(c, prec)
        if sign:
            return sign
        prec *= 2
    # unreachable: the enclosure of a nonzero polynomial shrinks to a point
    raise ArithmeticError("interval sign refinement stalled")


def _round_digits(u: int, v: int, digits: int) -> tuple[int, int]:
    """m and e with m * 10**(e + 1 - digits) the positive u/v rounded to
    ``digits`` significant digits, ties away from zero, and
    10**(digits - 1) <= m < 10**digits."""
    top = 10 ** digits
    e = (u.bit_length() - v.bit_length()) * 30103 // 100000  # log10(u/v), near enough
    while True:
        s = digits - 1 - e
        p, q = (u * 10 ** s, v) if s >= 0 else (u, v * 10 ** -s)
        m, r = divmod(p, q)
        if m >= top:
            e += 1
        elif 10 * m < top:
            e -= 1
        else:
            break
    if 2 * r >= q:
        m += 1
        if m == top:
            m, e = top // 10, e + 1
    return m, e


def _decimal(negative: bool, m: int, e: int, digits: int) -> str:
    # the layout of mpmath's nstr(x, digits, strip_zeros=False): fixed point
    # for a leading-digit exponent e strictly between min(-(digits // 3), -5)
    # and digits, otherwise one digit before the point and e+N or e-N
    # (a Decimal prints an int of any length, past str's 4300-digit limit)
    sign, text = "-" if negative else "", f"{decimal.Decimal(m):f}"
    if not min(-(digits // 3), -5) < e < digits:
        return f"{sign}{text[0]}.{text[1:]}e{e:+d}"
    if e < 0:
        text, e = "0" * -e + text, 0
    return f"{sign}{text[:e + 1]}.{text[e + 1:]}"


# the highest pi power scalar text may carry: above every parameter the
# package prints (pi^8, in mixtures of the pi^2 catalog entries). In process,
# `derive` on the seven parameters of test_cli's test_pi_powers_at_the_cap_complete
# takes 0.02-0.04 s; with the k-th one's pi^22 and pi^20 made dense as
# (k+pi^2)^11 and (k+pi^2)^10, 0.09-0.15 s, and 0.12-0.18 s at pi^24
# (shared 2-core x86-64, CPython 3.11).
# A higher cap needs its worst inputs measured.
MAX_PI_POWER = 22
# the largest decimal exponent, of either sign, a coefficient may carry:
# Fraction builds the whole power of ten, so "1e999999999" would take minutes
# and hundreds of megabytes; the exact text the program prints carries none
MAX_DECIMAL_EXPONENT = 1000

_TERM = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coef>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?P<star>\*)?)?"
    r"(?:pi\^(?P<exp>\d+))?"
)
_DECIMAL_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)")


def parse_fraction(value: object) -> Fraction:
    """The one reader of a rational, in the forms the module docstring lists;
    anything else, floats and bools included, is a TypeError. The exponent
    cap is checked before Fraction builds its power of ten."""
    if type(value) is Fraction:  # generator coordinates: nothing to read
        return value
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"not an exact rational: {value!r}")
    m = _DECIMAL_EXPONENT.search(value)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise UsageError(
                f"decimal exponents beyond {MAX_DECIMAL_EXPONENT} are not accepted")
    return Fraction(value)


def _parse_poly(s: str) -> tuple[list[int], int]:
    """One side of scalar text: int coefficients by power of pi^2, over one
    positive common denominator."""
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if s.isdigit() and s.isascii():  # a plain integer, the commonest side
        return [int(s)], 1
    if not s:
        raise ValueError("empty polynomial text")
    coeffs, den, pos = [0], 1, 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, coef, star, exp = m.groups()
        if m.end() == pos or (coef is None and exp is None):
            raise ValueError(f"cannot parse scalar text at {s[pos:]!r}")
        if pos and not sign:
            raise ValueError(f"missing operator before {s[pos:]!r}")
        if coef is None:
            n = den
        elif coef.isdigit() and coef.isascii():
            n = int(coef) * den
        else:  # a decimal or an exponent: n/d, and the common denominator takes d
            f = parse_fraction(coef)
            d = f.denominator
            scale = d // math.gcd(den, d)
            if scale > 1:
                coeffs = [c * scale for c in coeffs]
                den *= scale
            n = f.numerator * (den // d)
        if sign == "-":
            n = -n
        if exp is not None:
            e = int(exp)
            if e > MAX_PI_POWER:
                raise ValueError(f"pi powers above {MAX_PI_POWER} are not accepted")
            if e % 2:
                raise ValueError("only even powers of pi are representable")
            k = e // 2
            if k >= len(coeffs):
                coeffs += [0] * (k + 1 - len(coeffs))
        else:
            if star:
                raise ValueError(f"dangling '*' in {s!r}")
            k = 0
        coeffs[k] += n
        pos = m.end()
    return coeffs, den


def _poly_str(c: Coeffs) -> str:
    parts: list[str] = []
    for i, k in enumerate(c):
        if k == 0:
            continue
        if i == 0:
            parts.append(str(k))
            continue
        p = "pi^2" if i == 1 else f"pi^{2 * i}"
        if k == 1:
            parts.append(p)
        elif k == -1:
            parts.append("-" + p)
        else:
            parts.append(f"{k}*{p}")
    if not parts:
        return "0"
    s = parts[0]
    for t in parts[1:]:
        s += t if t.startswith("-") else "+" + t
    return s


def _nterms(c: Coeffs) -> int:
    return sum(1 for k in c if k)


def _order(test):
    # an order operator read from the sign that Scalar._compare gives
    def method(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else test(c, 0)
    return method


class Scalar:
    """An exact value ``num(pi^2) / den(pi^2)`` in canonical lowest terms.

    Canonical means: integer coefficients, joint content 1, numerator and
    denominator coprime as polynomials, and the denominator's leading
    coefficient positive. Two Scalars are equal iff their tuples match.
    ``num`` and ``den`` are ints, Fractions, or tuples or lists of them
    indexed by the power of pi^2; text is read by ``Scalar.parse``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: object = 0, den: object = 1):
        if type(num) is int and type(den) is int:
            s = Scalar._rat(num, den)
        else:
            nf, df = _side(num), _side(den)
            m = math.lcm(*(x.denominator for x in nf + df))
            s = Scalar._raw([x.numerator * (m // x.denominator) for x in nf],
                            [x.numerator * (m // x.denominator) for x in df])
        self._num, self._den = s._num, s._den

    @classmethod
    def _raw(cls, n: Coeffs, d: Coeffs) -> "Scalar":
        return cls._made(_normalize(_trim(n), _trim(d)))

    @classmethod
    def _made(cls, canonical: tuple[Coeffs, Coeffs]) -> "Scalar":
        obj = object.__new__(cls)
        obj._num, obj._den = canonical
        return obj

    @classmethod
    def _rat(cls, n: int, d: int) -> "Scalar":
        """The canonical form of the rational n/d, from two ints."""
        if not d:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)  # gcd(0, d) = |d|: zero is 0/1
        obj = object.__new__(cls)
        obj._num, obj._den = (n // g,), (d // g,)
        return obj

    # ---- structure ----

    @property
    def num_coeffs(self) -> Coeffs:
        return self._num

    @property
    def den_coeffs(self) -> Coeffs:
        return self._den

    @property
    def is_rational(self) -> bool:
        return len(self._num) == 1 and len(self._den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den[0])

    # ---- arithmetic ----

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._den[0] + o._num[0] * self._den[0],
                               self._den[0] * o._den[0])
        return Scalar._made(_sum(self._num, self._den, o._num, o._den))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._den[0] - o._num[0] * self._den[0],
                               self._den[0] * o._den[0])
        return Scalar._made(_sum(self._num, self._den, _pneg(o._num), o._den))

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._num[0], self._den[0] * o._den[0])
        return Scalar._made(_product(self._num, self._den, o._num, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o._num == (0,):
            raise ZeroDivisionError("division by zero scalar")
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._den[0], self._den[0] * o._num[0])
        return Scalar._made(_product(self._num, self._den, o._den, o._num))

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            base = ONE / self
            n = -n
        else:
            base = self
        out = ONE
        for _ in range(n):
            out = out * base
        return out

    def __neg__(self):
        # negating a canonical form keeps it canonical
        return Scalar._made((_pneg(self._num), self._den))

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self._num != (0,)

    # ---- comparison ----

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1. A pi^2 value takes integer bounds on
        pi^2 at 64, 128, ... bits until they fix the signs of numerator and
        denominator."""
        if self._num == (0,):
            return 0
        if self.is_rational:
            return 1 if self._num[0] > 0 else -1
        return _product_sign(self._num, self._den)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def _compare(self, other) -> int | None:
        """The sign of ``self - other``, read from cross products: a/b - c/d
        has the sign of (ad - cb)bd, so no difference is reduced."""
        if type(other) is int and not other:  # a test against 0 is the sign
            return self.sign()
        o = _coerce(other)
        if o is None:
            return None
        if _rationals(self, o):
            lhs, rhs = self._num[0] * o._den[0], o._num[0] * self._den[0]
            return (lhs > rhs) - (lhs < rhs)
        cross = _padd(_pmul(self._num, o._den), _pneg(_pmul(o._num, self._den)))
        return 0 if cross == (0,) else _product_sign(cross, self._den, o._den)

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __hash__(self):
        """A rational hashes as the equal int or Fraction, by the numeric
        hash rule on its parts in lowest terms, with no Fraction built."""
        if not self.is_rational:
            return hash((self._num, self._den))
        (n,), (d,) = self._num, self._den
        try:
            h = hash(hash(abs(n)) * pow(d, -1, sys.hash_info.modulus))
        except ValueError:  # d is a multiple of the modulus
            h = sys.hash_info.inf
        return h if n >= 0 else -2 if h == 1 else -h

    # ---- evaluation and rendering ----

    def _bounds(self, prec: int):
        """Whether self is negative, and ints u, v, w, z with u/v <= |self| <= w/z:
        exact for a rational, else from pi^2 at each of prec, 2 prec, ... bits
        where both sides' enclosures exclude zero."""
        if self.is_rational:
            n, d = self._num[0], self._den[0]
            yield n < 0, abs(n), d, abs(n), d
            return
        shift = prec * (len(self._den) - len(self._num))
        while True:
            (an, bn), (ad, bd) = _enclose(self._num, prec), _enclose(self._den, prec)
            if (an > 0 or bn < 0) and (ad > 0 or bd < 0):
                nl, nh = (an, bn) if an > 0 else (-bn, -an)
                dl, dh = (ad, bd) if ad > 0 else (-bd, -ad)
                up, down = max(shift, 0), max(-shift, 0)
                yield (bn < 0) != (bd < 0), nl << up, dh << down, nh << up, dl << down
            prec, shift = 2 * prec, 2 * shift

    def evaluate(self, digits: int = 50) -> str:
        """Decimal string with ``digits`` significant digits, correctly
        rounded from the exact value with ties away from zero, in the layout
        of mpmath's ``nstr(x, digits, strip_zeros=False)``."""
        if digits < 1:
            raise ValueError("digits must be positive")
        if self._num == (0,):
            return "0.0"
        for negative, u, v, w, z in self._bounds(digits * 10 // 3 + 16):
            m, e = _round_digits(u, v, digits)
            s = digits - 1 - e  # w/z rounds to m too if below (m + 1/2) * 10**-s
            if 2 * w * 10 ** max(s, 0) < (2 * m + 1) * z * 10 ** max(-s, 0):
                return _decimal(negative, m, e, digits)

    def __float__(self) -> float:
        # int / int rounds correctly, so two equal ends are the exact value's float
        for negative, u, v, w, z in self._bounds(64):
            low = u / v
            if low == w / z:
                return -low if negative else low

    def render(self) -> str:
        num_s = _poly_str(self._num)
        if self._den == (1,):
            return num_s
        den_s = _poly_str(self._den)
        if _nterms(self._num) > 1:
            num_s = f"({num_s})"
        if _nterms(self._den) > 1 or not den_s.isdigit():
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()!r})"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Read scalar text, in the grammar of the module docstring."""
        if not isinstance(text, str):
            raise TypeError(f"scalar text must be a str, not {type(text).__name__}")
        s = "".join(text.split())
        if not s:
            raise ValueError("empty scalar text")
        num, slash, den = s.partition("/")
        # n/a over d/b is nb/da: each side's common denominator crosses over
        n, a = _parse_poly(num)
        d, b = _parse_poly(den) if slash else ([1], 1)
        if len(n) == 1 and len(d) == 1:
            return cls._rat(n[0] * b, d[0] * a)
        return cls._raw([x * b for x in n], [x * a for x in d])


def _coerce(x: object) -> Scalar | None:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return Scalar._rat(x, 1)
    if isinstance(x, Fraction):
        return Scalar._rat(x.numerator, x.denominator)
    return None


def _rationals(a: Scalar, b: Scalar) -> bool:
    # canonical tuples are never empty, so four lengths sum to 4 only when all are 1
    return len(a._num) + len(a._den) + len(b._num) + len(b._den) == 4


def as_scalar(x: ScalarLike) -> Scalar:
    """Coerce an exact value (Scalar, int, Fraction, or parseable str)."""
    s = Scalar.parse(x) if isinstance(x, str) else _coerce(x)
    if s is not None:
        return s
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass str, int or Fraction")
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")


def fraction_free(*values: Scalar) -> tuple:
    """The values times one positive common denominator, the least common
    multiple of theirs up to a constant, whose sign is read once: ints when all
    are rational, otherwise :class:`Poly` values with the content divided out."""
    if all(v.is_rational for v in values):
        m = math.lcm(*(v._den[0] for v in values))
        return tuple(v._num[0] * (m // v._den[0]) for v in values)
    lcm = (1,)
    for d in dict.fromkeys(v._den for v in values):
        lcm = _pmul(lcm, _cancel(lcm, d)[1])
    sides = [_pmul(v._num, _pdivexact(lcm, v._den)) if v else (0,) for v in values]
    g = math.gcd(*(x for s in sides for x in s)) * _product_sign(lcm)
    return tuple(Poly(tuple([x // g for x in s])) for s in sides)


class Poly:
    """An integer polynomial in pi^2, for fraction-free work: it adds,
    subtracts and multiplies with ints and with other polynomials without a
    gcd, orders exactly, and a quotient of two is their canonical Scalar."""

    __slots__ = ("c",)

    def __init__(self, c: Coeffs):
        self.c = c

    def __add__(self, o):
        return Poly(_padd(self.c, o.c if type(o) is Poly else (o,))) if o else self

    __radd__ = __add__

    def __sub__(self, o):
        return Poly(_padd(self.c, _pneg(o.c if type(o) is Poly else (o,))))

    def __rsub__(self, o):
        return Poly(_padd((o,), _pneg(self.c)))

    def __mul__(self, o):
        return Poly(_pmul(self.c, o.c if type(o) is Poly else (o,)))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(_pneg(self.c))

    def __bool__(self) -> bool:
        return self.c != (0,)

    def __eq__(self, o):
        return self.c == (o.c if type(o) is Poly else (o,))

    def __gt__(self, o) -> bool:
        d = self - o if o else self
        return bool(d) and _product_sign(d.c) > 0

    def __truediv__(self, o) -> Scalar:
        return Scalar._raw(self.c, o.c if type(o) is Poly else (o,))

    def __rtruediv__(self, o) -> Scalar:
        return Scalar._raw((o,), self.c)


PI2 = Scalar((0, 1))
ZERO = Scalar(0)
ONE = Scalar(1)
