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

Arithmetic and order between two rationals run on their two ints. Other
values reach lowest terms through a polynomial gcd over ``int``: a primitive
remainder sequence (Knuth, TAOCP vol. 2, 4.6.1), whose remainders are kept
small by dividing out their content.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Union

import mpmath
from mpmath.libmp import mpf_shift, to_int

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


def _normalize(n: Coeffs, d: Coeffs) -> tuple[Coeffs, Coeffs]:
    if d == (0,):
        raise ZeroDivisionError("zero denominator")
    if n == (0,):
        return (0,), (1,)
    c = math.gcd(math.gcd(*n), math.gcd(*d))
    if c > 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    if len(n) > 1 and len(d) > 1:  # a constant side makes the gcd trivial
        g = _pgcd(n, d)
        if len(g) > 1:
            n = _pdivexact(n, g)
            d = _pdivexact(d, g)
    if d[-1] < 0:
        n = _pneg(n)
        d = _pneg(d)
    return n, d


def _side(x: object) -> list[Fraction]:
    if isinstance(x, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(x, (int, Fraction)):
        return [Fraction(x)]
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or str")
    if isinstance(x, Scalar):
        raise TypeError("compose Scalar values with arithmetic operators")
    try:
        items = list(x)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(f"cannot build a scalar from {type(x).__name__}") from None
    if not items:
        raise ValueError("empty coefficient sequence")
    out = []
    for e in items:
        if isinstance(e, float):
            raise TypeError("floats are not exact; pass int, Fraction or str")
        out.append(Fraction(e))
    return out


def _horner(c: Coeffs, x, mpf):
    acc = mpf(c[-1])
    for k in reversed(c[:-1]):
        acc = acc * x + k
    return acc


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


# the highest pi power scalar text may carry: above every parameter the
# package prints (pi^8, in mixtures of the pi^2 catalog entries), and the
# highest even one at which `derive` on seven parameters dense in every even
# power stays under 3 s: 2.7-2.9 s at pi^22, 4.3-4.7 s at pi^24 (shared 2-core
# x86-64 machine, CPython 3.11), nearly all of it in `_prem` and content gcds
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


def parse_fraction(text: object) -> Fraction:
    """``Fraction(text)``, refusing text whose decimal exponent exceeds
    ``MAX_DECIMAL_EXPONENT`` in size before Fraction builds its power of ten."""
    m = _DECIMAL_EXPONENT.search(text) if isinstance(text, str) else None
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits or 0) > MAX_DECIMAL_EXPONENT):
            raise UsageError(
                f"decimal exponents beyond {MAX_DECIMAL_EXPONENT} are not accepted")
    return Fraction(text)


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _parse_poly(s: str) -> list[Fraction]:
    if s.startswith("(") and s.endswith(")") and _balanced(s[1:-1]):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("exp") is None):
            raise ValueError(f"cannot parse scalar text at {s[pos:]!r}")
        if not first and not m.group("sign"):
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
        first = False
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
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: object = 0, den: object = 1):
        if isinstance(num, str):
            if not (isinstance(den, int) and den == 1):
                raise TypeError("string form carries its own denominator")
            s = Scalar.parse(num)
        elif type(num) is int and type(den) is int:
            s = Scalar._rat(num, den)
        else:
            nf = _side(num)
            df = _side(den)
            scale = math.lcm(*(f.denominator for f in nf + df))
            s = Scalar._raw([int(f * scale) for f in nf], [int(f * scale) for f in df])
        self._num, self._den = s._num, s._den

    @classmethod
    def _raw(cls, n: Coeffs, d: Coeffs) -> "Scalar":
        obj = object.__new__(cls)
        obj._num, obj._den = _normalize(_trim(n), _trim(d))
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
        return Scalar._raw(
            _padd(_pmul(self._num, o._den), _pmul(o._num, self._den)),
            _pmul(self._den, o._den),
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._den[0] - o._num[0] * self._den[0],
                               self._den[0] * o._den[0])
        return self + -o

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o + -self

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._num[0], self._den[0] * o._den[0])
        return Scalar._raw(_pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o._num == (0,):
            raise ZeroDivisionError("division by zero scalar")
        if _rationals(self, o):
            return Scalar._rat(self._num[0] * o._den[0], self._den[0] * o._num[0])
        return Scalar._raw(_pmul(self._num, o._den), _pmul(self._den, o._num))

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
        obj = object.__new__(Scalar)  # negating a canonical form keeps it canonical
        obj._num, obj._den = _pneg(self._num), self._den
        return obj

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
        prec = 64
        while prec <= 1 << 16:
            ns = _poly_sign(self._num, prec)
            ds = _poly_sign(self._den, prec)
            if ns and ds:
                return ns * ds
            prec *= 2
        # unreachable for a nonzero value: the enclosure shrinks to a point
        raise ArithmeticError("interval sign refinement stalled")

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def _compare(self, other) -> int | None:
        """The sign of ``self - other``; rationals compare by cross products."""
        o = _coerce(other)
        if o is None:
            return None
        if _rationals(self, o):
            lhs, rhs = self._num[0] * o._den[0], o._num[0] * self._den[0]
            return (lhs > rhs) - (lhs < rhs)
        return (self - o).sign()

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self._num, self._den))

    # ---- evaluation and rendering ----

    def _mpf(self, dps: int):  # pi^2 is built only for a pi^2 value
        with mpmath.workdps(dps):
            x = None if self.is_rational else mpmath.pi * mpmath.pi
            return _horner(self._num, x, mpmath.mpf) / _horner(self._den, x, mpmath.mpf)

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
        """Parse ``p``, ``p/q``, decimals, and forms like
        ``(35+24*pi^2)/(7*pi^2)`` with even pi powers up to
        ``MAX_PI_POWER`` and decimal exponents up to ``MAX_DECIMAL_EXPONENT``
        in size."""
        s = "".join(text.split())
        if not s:
            raise ValueError("empty scalar text")
        depth = 0
        slash = -1
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError("unbalanced parentheses")
            elif ch == "/" and depth == 0:
                if slash >= 0:
                    raise ValueError("more than one top-level '/'")
                slash = i
        if depth:
            raise ValueError("unbalanced parentheses")
        if slash >= 0:
            return cls(_parse_poly(s[:slash]), _parse_poly(s[slash + 1 :]))
        return cls(_parse_poly(s))


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
