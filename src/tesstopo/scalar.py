"""Exact arithmetic over rational functions of pi^2.

Every closed-form quantity in this package lives in the field Q(pi^2):
quotients of integer-coefficient polynomials evaluated at pi squared.
Keeping that structure explicit makes identity checks exact. Equality is
decidable because pi is transcendental, so a nonzero integer polynomial
cannot vanish at pi^2 and two values are equal iff their canonical forms
coincide. Order is decided on ints: integer bounds on pi^2, taken at
doubling precision, enclose the difference until its sign is certain; this
terminates for the same reason.

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
so only the integer content and the sign are left. Order reads the sign of
a/b - c/d from (ad - cb)bd.

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
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

import mpmath
from mpmath.libmp import (dps_to_prec, from_int, mpf_add, mpf_div, mpf_mul, mpf_pi,
                          mpf_shift, round_nearest, to_int)

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
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


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
    # a and b over their primitive gcd g, and g; a constant side shares none
    g = _pgcd(a, b) if len(a) > 1 and len(b) > 1 else (1,)
    return (a, b, g) if g == (1,) else (_pdivexact(a, g), _pdivexact(b, g), g)


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


def _side(x: object) -> list[Fraction]:
    items = list(x) if isinstance(x, (tuple, list)) else [x]
    if not items or any(type(e) not in (int, Fraction) for e in items):
        raise TypeError(f"coefficients are ints or Fractions, got {x!r}; "
                        "read text with Scalar.parse")
    return [Fraction(e) for e in items]


def _side_mpf(c: Coeffs, prec: int) -> tuple:
    """One side at pi^2 as a raw mpf with about ``prec`` correct bits.

    Terms of one sign cannot cancel. Otherwise every term is below
    ``2**top`` (pi^2 < 2**4), so a sum of magnitude ``2**mag`` has lost
    about ``top - mag`` bits, and it is evaluated again with that many more
    bits until the loss is covered. pi^2 is built only for a pi^2 side.
    """
    extra = 0
    while True:
        p = prec + extra
        acc = from_int(c[-1], p, round_nearest)
        if len(c) > 1:
            pi = mpf_pi(p, round_nearest)
            x = mpf_mul(pi, pi, p, round_nearest)
            for k in reversed(c[:-1]):
                acc = mpf_add(mpf_mul(acc, x, p, round_nearest), from_int(k), p, round_nearest)
        if min(c) >= 0 or max(c) <= 0:
            return acc
        top = max(k.bit_length() + 4 * i for i, k in enumerate(c)) + len(c).bit_length()
        _, man, exp, bc = acc
        lost = top - (exp + bc) if man else top + 2 * extra
        if lost <= extra:
            return acc
        extra = lost + 8  # the magnitude is itself rounded; spare bits end the loop


_PI2_BOUNDS: dict[int, tuple[int, int]] = {}


def _pi2_bounds(prec: int) -> tuple[int, int]:
    """Ints ``lo, hi`` with ``lo <= pi^2 * 2**prec <= hi``, from an
    interval pi^2 at ``prec`` bits."""
    b = _PI2_BOUNDS.get(prec)
    if b is None:
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            low, high = (mpmath.iv.pi * mpmath.iv.pi)._mpi_
        finally:
            mpmath.iv.prec = old
        b = _PI2_BOUNDS[prec] = (to_int(mpf_shift(low, prec), "f"),
                                 to_int(mpf_shift(high, prec), "c"))
    return b


def _poly_sign(c: Coeffs, prec: int) -> int:
    # interval Horner on ints, with no rounding: after each step [a, b]
    # encloses the partial value times 2**shift; 0 while it straddles zero
    lo, hi = _pi2_bounds(prec)
    a = b = c[-1]
    shift = 0
    for k in reversed(c[:-1]):
        shift += prec
        a, b = (a * (lo if a >= 0 else hi) + (k << shift),
                b * (hi if b >= 0 else lo) + (k << shift))
    return 1 if a > 0 else -1 if b < 0 else 0


def _product_sign(*sides: Coeffs) -> int:
    # the sign of a product of nonzero polynomials at pi^2: integer bounds on
    # pi^2 at 64, 128, ... bits until they fix the sign of every factor
    prec = 64
    while prec <= 1 << 16:
        sign = 1
        for c in sides:
            sign *= _poly_sign(c, prec)
        if sign:
            return sign
        prec *= 2
    # unreachable: the enclosure of a nonzero polynomial shrinks to a point
    raise ArithmeticError("interval sign refinement stalled")


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


def _parse_poly(s: str) -> list[Fraction]:
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("exp") is None):
            raise ValueError(f"cannot parse scalar text at {s[pos:]!r}")
        if pos and not m.group("sign"):
            raise ValueError(f"missing operator before {s[pos:]!r}")
        coef = parse_fraction(m.group("coef")) if m.group("coef") is not None else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        if m.group("exp") is not None:
            e = int(m.group("exp"))
            if e > MAX_PI_POWER:
                raise ValueError(f"pi powers above {MAX_PI_POWER} are not accepted")
            if e % 2:
                raise ValueError("only even powers of pi are representable")
            k = e // 2
        else:
            if m.group("star"):
                raise ValueError(f"dangling '*' in {s!r}")
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
        pos = m.end()
    top = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]


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
            scale = math.lcm(*(f.denominator for f in nf + df))
            s = Scalar._raw([int(f * scale) for f in nf], [int(f * scale) for f in df])
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
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._num, self._den))

    # ---- evaluation and rendering ----

    def _mpf(self, dps: int):
        prec = dps_to_prec(dps)
        num, den = _side_mpf(self._num, prec), _side_mpf(self._den, prec)
        return mpmath.mp.make_mpf(mpf_div(num, den, prec, round_nearest))

    def evaluate(self, digits: int = 50) -> str:
        """Decimal string with ``digits`` significant digits."""
        if digits < 1:
            raise ValueError("digits must be positive")
        return mpmath.nstr(self._mpf(digits + 20), digits, strip_zeros=False)

    def __float__(self) -> float:
        return float(self._mpf(30))

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
        return cls(_parse_poly(num), _parse_poly(den)) if slash else cls(_parse_poly(s))


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


PI2 = Scalar((0, 1))
ZERO = Scalar(0)
ONE = Scalar(1)
