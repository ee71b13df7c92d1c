"""The scalar-text reader and the ``Scalar(num, den)`` constructor that
``tesstopo.scalar`` replaced, kept as references: each coefficient is read as
a ``Fraction``, and a side is a list of them, scaled to ints by the lcm of
every denominator."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from tesstopo.scalar import MAX_PI_POWER, Scalar, parse_fraction

_TERM = re.compile(
    r"(?P<sign>[+-]?)"
    r"(?:(?P<coef>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?P<star>\*)?)?"
    r"(?:pi\^(?P<exp>\d+))?"
)


def parse_poly(s: str) -> list[Fraction]:
    """One side of scalar text: its coefficients by power of pi^2."""
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


def _side(x: object) -> list[Fraction]:
    items = list(x) if isinstance(x, (tuple, list)) else [x]
    if not items or any(type(e) not in (int, Fraction) for e in items):
        raise TypeError(f"coefficients are ints or Fractions, got {x!r}; "
                        "read text with Scalar.parse")
    return [Fraction(e) for e in items]


def scalar(num: object = 0, den: object = 1) -> Scalar:
    """``Scalar(num, den)``: both sides as Fractions, times the lcm of their
    denominators."""
    if type(num) is int and type(den) is int:
        return Scalar._rat(num, den)
    nf, df = _side(num), _side(den)
    scale = math.lcm(*(f.denominator for f in nf + df))
    return Scalar._raw([int(f * scale) for f in nf], [int(f * scale) for f in df])


def parse(text: str) -> Scalar:
    """``Scalar.parse``: whitespace dropped, split at the first '/'."""
    if not isinstance(text, str):
        raise TypeError(f"scalar text must be a str, not {type(text).__name__}")
    s = "".join(text.split())
    if not s:
        raise ValueError("empty scalar text")
    num, slash, den = s.partition("/")
    return scalar(parse_poly(num), parse_poly(den)) if slash else scalar(parse_poly(s))
