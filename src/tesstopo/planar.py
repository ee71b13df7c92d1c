"""One planar convex kernel over any ordered field: ``int``, ``Fraction`` or
:class:`~tesstopo.scalar.Scalar`, so the staged feasible regions (values
that may involve pi^2) and the plates of a built complex share it.
:func:`clip_halfplane` is Sutherland–Hodgman clipping by one closed
halfplane (Sutherland & Hodgman, CACM 1974) and :func:`clean_ring` tidies
and names its output. Every division is an :func:`exact_div`.

Every ring here is convex, and so is its clip. Dropping a point that lies
on a side of a convex ring leaves every other turn as it was, so one pass
removes them all; a convex ring without area lies on one line, so fewer
than three corners left means it is empty, a point or a segment.
"""

from __future__ import annotations

from fractions import Fraction


def exact_div(a, b):
    """a / b exactly: an ``int`` when the quotient of two ints or a
    ``Fraction`` quotient is whole; any other quotient as it comes."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def cross2(o, a, b):
    """Twice the signed area of oab: positive iff o, a, b turn left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def clip_halfplane(ring: list, a, b, c) -> list:
    """The part of a convex ring where ``a·x + b·y + c <= 0``. A side that
    crosses the line strictly adds ``(l_p q - l_q p) / (l_p - l_q)`` from the
    levels l; a corner on the line is kept once and adds no crossing."""
    level = [a * x + b * y + c for x, y in ring]
    sign = [0 if not v else 1 if v > 0 else -1 for v in level]
    out = []
    n = len(ring)
    for i in range(n):
        k = i + 1 if i + 1 < n else 0
        if sign[i] <= 0:
            out.append(ring[i])
        if sign[i] * sign[k] < 0:
            (px, py), (qx, qy), lp, lq = ring[i], ring[k], level[i], level[k]
            den = lp - lq
            out.append((exact_div(lp * qx - lq * px, den), exact_div(lp * qy - lq * py, den)))
    return out


def clean_ring(ring) -> tuple[tuple, str]:
    """A clipped convex ring without repeats or collinear points, named by
    its dimension: ``"empty"``, ``"point"``, ``"segment"`` (its two ends,
    lowest first) or ``"region"`` (its corners in ring order)."""
    pts = []
    for p in ring:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if not pts:
        return (), "empty"
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is None:
        return (base,), "point"
    if all(not cross2(base, ref, p) for p in pts):
        return (min(pts), max(pts)), "segment"
    n = len(pts)
    return tuple(p for i, p in enumerate(pts)
                 if cross2(pts[i - 1], p, pts[(i + 1) % n])), "region"
