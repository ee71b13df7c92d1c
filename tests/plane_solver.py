"""Cramer's rule for three planes: the corner solver that the halfspace hull
used before it clipped a cube. The references of ``test_geometry`` and
``test_complexes`` solve plane triples with it."""

from tesstopo.complexes.geometry import det3
from tesstopo.planar import exact_div


def solve3(m, rhs):
    """Solve m x = rhs for a nonsingular 3x3 system by Cramer's rule."""
    d = det3(m)
    x0 = det3(((rhs[0], m[0][1], m[0][2]),
               (rhs[1], m[1][1], m[1][2]),
               (rhs[2], m[2][1], m[2][2])))
    x1 = det3(((m[0][0], rhs[0], m[0][2]),
               (m[1][0], rhs[1], m[1][2]),
               (m[2][0], rhs[2], m[2][2])))
    x2 = det3(((m[0][0], m[0][1], rhs[0]),
               (m[1][0], m[1][1], rhs[1]),
               (m[2][0], m[2][1], rhs[2])))
    return (exact_div(x0, d), exact_div(x1, d), exact_div(x2, d))
