"""One planar convex kernel over exact numbers, ``int``, ``Fraction`` or
:class:`~tesstopo.scalar.Scalar`, so the staged feasible regions (values
that may involve pi^2) and the plates of a built complex share it.

A ring is a convex polygon in counterclockwise order, in homogeneous
coordinates. Each corner is a point (X, Y, W) with W > 0, standing for
(X/W, Y/W), and carries the line (a, b, c) of its outgoing side, oriented so
that the ring lies in the halfplane a·x + b·y + c·w <= 0: the tuple
(X, Y, W, line, point), with the caller's point where the corner was given
as one, else None. :func:`clip` is Sutherland–Hodgman clipping (Sutherland
& Hodgman, CACM 1974) by a sequence of such halfplanes, and
:func:`clean_ring` tidies and names its output.

A crossing is the meet of its side's line and the clip line, their cross
product, so every corner is the meet of two input lines and no coordinate
grows from one clip to the next; on pi^2 input a caller gives its lines as
polynomials in pi^2, and nothing is reduced until the end. The one decision
per corner is the sign of its level a·X + b·Y + c·W. No crossing needs a
sign of its own: on a counterclockwise ring the line S of a side pq has the
ring on its left, so p × q is a negative multiple of S, and the crossing
(L·p) q - (L·q) p = (p × q) × L with a clip line L has W of the sign of L·p;
S × L is the crossing when p is inside and L × S when it is outside. Each
new side's line is then again negative on its left, also on a ring without
area, whose sides run both ways along one line.

Every ring here is convex, and so is its clip. Two corners are one point
when X1 W2 = X2 W1 and Y1 W2 = Y2 W1, and a corner lies inside a side when
the lines of its two sides are one line; dropping it leaves every other turn
as it was, so one pass removes them all. A convex ring without area lies on
one line, so fewer than three corners left means it is empty, a point or a
segment. Each coordinate of a corner the clip made takes one quotient at the
end, :func:`exact_div` or the caller's; a corner given as a point stays as it is.
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


def _meet(s, t):
    """The cross product s × t: the point two lines share, or the line
    through two points."""
    return (s[1] * t[2] - s[2] * t[1], s[2] * t[0] - s[0] * t[2], s[0] * t[1] - s[1] * t[0])


def ring_of_points(points) -> list:
    """The ring of a counterclockwise polygon's corners, each kept as the
    point it is: W = 1, and the line of side pq is q × p."""
    return [(p[0], p[1], 1, (q[1] - p[1], p[0] - q[0], q[0] * p[1] - q[1] * p[0]), p)
            for p, q in zip(points, [*points[1:], *points[:1]])]


def ring_of_lines(lines) -> list:
    """The ring of a convex polygon given by the lines of its sides in
    counterclockwise order: corner i is the meet of lines i - 1 and i."""
    return [(*_meet(lines[i - 1], line), line, None) for i, line in enumerate(lines)]


def clip(ring: list, lines) -> list:
    """The part of a ring where every line's level is at most 0, clipped by
    one line at a time. A side that crosses a line strictly adds the meet of
    the two; a corner on the line is kept once and adds no crossing."""
    for line in lines:
        a, b, c = line
        sign = []
        for x, y, w, _, _ in ring:
            v = a * x + b * y + c * w
            sign.append(0 if not v else 1 if v > 0 else -1)
        out = []
        n = len(ring)
        for i in range(n):
            s, t = sign[i], sign[i + 1 - n]
            if s <= 0:
                # a corner on the line whose next corner is cut off starts a
                # side along the line
                out.append(ring[i] if t <= 0 or s < 0 else (*ring[i][:3], line, ring[i][4]))
            if s * t < 0:
                side = ring[i][3]
                out.append((*_meet(side, line), line, None) if s < 0
                           else (*_meet(line, side), side, None))
        if not out:
            return out
        ring = out
    return ring


def _same(p, q) -> bool:
    """Whether two corners are one point."""
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def _on_one_line(s, t) -> bool:
    """Whether two lines are one line, up to a factor of either sign; most
    pairs are told apart by not being parallel."""
    return s is t or not (s[0] * t[1] - s[1] * t[0] or any(_meet(s, t)))


def _point(corner, div):
    x, y, w, _, given = corner
    return given if given is not None else (div(x, w), div(y, w))


def clean_ring(ring: list, div=exact_div) -> tuple[tuple, str]:
    """A clipped ring without repeats or corners inside a side, as points
    named by its dimension: ``"empty"``, ``"point"``, ``"segment"`` (its two
    ends, lowest first) or ``"region"`` (its corners in ring order). Of
    repeated corners the first is kept, with the last one's side."""
    pts = []
    for p in ring:
        if pts and _same(p, pts[-1]):
            pts[-1] = (*pts[-1][:3], p[3], pts[-1][4])
        else:
            pts.append(p)
    if len(pts) > 1 and _same(pts[0], pts[-1]):
        pts.pop()
    if not pts:
        return (), "empty"
    if len(pts) == 1:
        return (_point(pts[0], div),), "point"
    if all(_on_one_line(pts[0][3], p[3]) for p in pts):
        ends = [_point(p, div) for p in pts]
        return (min(ends), max(ends)), "segment"
    return tuple(_point(p, div) for i, p in enumerate(pts)
                 if not _on_one_line(pts[i - 1][3], p[3])), "region"
