import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_reference
from tesstopo import scalar
from tesstopo.complexes import generate, make_domain
from tesstopo.errors import GeneratorParameterError, NotATessellationError, UsageError
from tesstopo.scalar import (
    MAX_DECIMAL_EXPONENT, MAX_PI_POWER, Scalar, as_scalar, parse_fraction, PI2, ZERO, ONE,
    _normalize, _padd, _pi2_bounds, _pmul, _pneg, _poly_sign)


coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=3)
nonzero_lists = coeff_lists.filter(lambda c: any(c))
scalars = st.builds(Scalar, coeff_lists, nonzero_lists)
nonzero_scalars = st.builds(Scalar, nonzero_lists, nonzero_lists)


def test_canonical_reduction():
    assert Scalar((2, 4), (6,)) == Scalar((1, 2), (3,))
    # common polynomial factor pi^2 cancels
    assert Scalar((0, 2), (0, 4)) == Scalar(1, 2)
    # sign lives in the numerator
    s = Scalar((1,), (-2,))
    assert s.num_coeffs == (-1,) and s.den_coeffs == (2,)
    assert Scalar((0, 3), (0, 0, 3)) == 1 / PI2


def test_common_linear_factor_cancels():
    # (1+x)(2+x) / (1+x)(5) reduces to (2+x)/5
    num = Scalar._raw((2, 3, 1), (5, 5))
    assert num.num_coeffs == (2, 1)
    assert num.den_coeffs == (5,)


def test_rational_fast_paths():
    s = Scalar(Fraction(36, 7))
    assert s.is_rational
    assert s.as_fraction() == Fraction(36, 7)
    assert s.sign() == 1
    assert (-s).sign() == -1
    assert ZERO.sign() == 0
    with pytest.raises(ValueError):
        PI2.as_fraction()


def test_pi2_brackets():
    assert Scalar(9) < PI2 < Scalar(10)
    assert PI2 > Fraction(986, 100)
    assert PI2 < Fraction(987, 100)


def test_voronoi_plate_profile_value():
    # 144*pi^2/(35+24*pi^2) is a touch above 5.22
    v = Scalar((0, 144), (35, 24))
    assert Scalar(5) < v < Scalar(6)
    assert v > Fraction(522, 100)
    assert v < Fraction(523, 100)


@given(scalars, scalars)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_sub_inverts_add(a, b):
    assert (a + b) - b == a


@given(scalars, nonzero_scalars)
def test_div_inverts_mul(a, b):
    assert (a / b) * b == a


@given(scalars)
def test_neg_and_abs(a):
    assert a + (-a) == ZERO
    assert abs(a).sign() in (0, 1)
    assert abs(a) == (a if a.sign() >= 0 else -a)


# coefficients wide enough for denominators that are negative at pi^2, such as pi^2 - 10
wide_lists = st.lists(st.integers(-20, 20), min_size=1, max_size=3)
wide_scalars = st.builds(Scalar, wide_lists, wide_lists.filter(any))


@given(wide_scalars, wide_scalars)
def test_order_consistent_with_difference(a, b):
    d = (a - b).sign()
    assert (a < b) == (d < 0)
    assert (a == b) == (d == 0)
    assert (a > b) == (d > 0)


def test_order_reads_the_sign_of_each_denominator():
    x = 1 / (PI2 - 10)
    assert 2 * x < x < 0 < -x < -2 * x
    assert x < 1 / (PI2 - 9) and 1 / (9 - PI2) < -x


@given(scalars)
def test_render_parse_round_trip(a):
    assert Scalar.parse(a.render()) == a


def test_parse_forms():
    assert Scalar.parse("36/7") == Scalar(Fraction(36, 7))
    assert Scalar.parse("-5") == Scalar(-5)
    assert Scalar.parse("3.25") == Scalar(Fraction(13, 4))
    assert Scalar.parse("1.5e-3") == Scalar(Fraction(3, 2000))
    assert Scalar.parse("(70+48*pi^2)/35") == Scalar((70, 48), (35,))
    assert Scalar.parse("144*pi^2/(35+24*pi^2)") == Scalar((0, 144), (35, 24))
    assert Scalar.parse("pi^2") == PI2
    assert Scalar.parse("pi^2/6") == PI2 / 6
    assert Scalar.parse("(2+pi^4)/(1+pi^2)") == Scalar((2, 0, 1), (1, 1))
    assert Scalar.parse(" 1 + 2*pi^2 ") == Scalar((1, 2))


def test_parse_rejects_garbage():
    for bad in ["", "1//2", "(1", "1)", "pi^3", "2*", "x+1", "--3"]:
        with pytest.raises(ValueError):
            Scalar.parse(bad)


def test_pi_power_cap():
    assert Scalar.parse("1+pi^22") == Scalar((1,) + (0,) * 10 + (1,))
    with pytest.raises(ValueError, match="pi powers above 22"):
        Scalar.parse("1+pi^24")


def test_decimal_exponent_cap():
    assert Scalar.parse("1e1000") == Scalar(10 ** 1000)
    assert Scalar.parse("25e-1000") == Scalar(Fraction(25, 10 ** 1000))
    for text in ("1e1001", "2.5e-1001", "1e999999999", "1+1E-00000999999999"):
        with pytest.raises(ValueError, match="decimal exponents beyond 1000"):
            Scalar.parse(text)


def test_float_rejection():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        Scalar([1, 0.5])


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        Scalar((1,), (0,))


def test_pow():
    assert PI2**2 == Scalar((0, 0, 1))
    assert PI2**0 == ONE
    assert (Scalar(2) ** -2) == Scalar(Fraction(1, 4))


def test_render_shapes():
    assert Scalar(Fraction(36, 7)).render() == "36/7"
    assert Scalar((70, 48), (35,)).render() == "(70+48*pi^2)/35"
    assert Scalar((0, 144), (35, 24)).render() == "144*pi^2/(35+24*pi^2)"
    assert PI2.render() == "pi^2"
    assert (-PI2).render() == "-pi^2"
    assert (PI2 * PI2).render() == "pi^4"
    assert ZERO.render() == "0"


def test_evaluate_matches_mpmath():
    v = Scalar((0, 144), (35, 24))
    got = v.evaluate(30)
    with mpmath.workdps(50):
        ref = 144 * mpmath.pi**2 / (35 + 24 * mpmath.pi**2)
        assert abs(mpmath.mpf(got) - ref) < mpmath.mpf(10) ** -28


def test_evaluate_refines_consistently():
    v = Scalar((70, 48), (35,))
    a20 = float(mpmath.mpf(v.evaluate(20)))
    a40 = float(mpmath.mpf(v.evaluate(40)))
    assert math.isclose(a20, a40, rel_tol=1e-15)


@pytest.mark.parametrize("k", [20, 40, 60])
def test_evaluate_keeps_its_digits_when_pi2_terms_cancel(k):
    # (10^k pi^2 - floor(10^k pi^2)) / 10^k: about k digits of the two terms cancel
    with mpmath.workdps(k + 50):
        n = int(mpmath.floor(mpmath.mpf(10) ** k * mpmath.pi ** 2))
    v = Scalar((-n, 10 ** k), (10 ** k,))
    for digits in (15, 50):
        with mpmath.workdps(digits + k + 40):
            want = mpmath.nstr((10 ** k * mpmath.pi ** 2 - n) / 10 ** k, digits,
                               strip_zeros=False)
        assert v.evaluate(digits) == want


@pytest.mark.parametrize("n, d, text", [(3, 20, "0.2"), (-3, 20, "-0.2"), (1, 4, "0.3")])
def test_evaluate_rounds_exact_ties_away_from_zero(n, d, text):
    assert Scalar(n, d).evaluate(1) == text


def _delta(k):
    # (pi^2 - floor(10^k pi^2) / 10^k) / 10^k: positive, about 10^-(k+1)
    return Scalar((-_pi2_times_ten_to(k), 10 ** k), (10 ** (2 * k),))


@pytest.mark.parametrize("n, d, k, side, text", [
    (3, 20, 30, 1, "0.2"), (3, 20, 60, 1, "0.2"), (3, 20, 30, -1, "0.1"), (1, 4, 60, -1, "0.2")])
def test_evaluate_rounds_near_ties_by_the_exact_value(n, d, k, side, text):
    value = Scalar(n, d) + side * _delta(k)
    assert (value > Scalar(n, d)) == (side > 0)
    assert value.evaluate(1) == text


def _is_tie(value, digits):
    # whether the rational value lies halfway between two decimals of digits places
    q = abs(value.as_fraction())
    e = len(str(q.numerator)) - len(str(q.denominator))
    if Fraction(10) ** e > q:
        e -= 1
    half = 2 * q * Fraction(10) ** (digits - 1 - e)
    return half.denominator == 1 and half.numerator % 2 == 1


def _at_pi2(c):
    return sum(k * mpmath.pi ** (2 * i) for i, k in enumerate(c))


pi2_sides = st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1, max_size=4)
decimal_values = st.one_of(
    st.builds(Scalar, st.integers(-10 ** 25, 10 ** 25), st.integers(1, 10 ** 25)),
    st.builds(Scalar, pi2_sides, pi2_sides.filter(any)))


@settings(max_examples=300, deadline=None)
@given(decimal_values, st.one_of(st.integers(1, 60), st.just(1000)))
def test_evaluate_and_float_match_mpmath(value, digits):
    assume(not (value.is_rational and _is_tie(value, digits)))
    with mpmath.workdps(digits + 60):
        exact = _at_pi2(value.num_coeffs) / _at_pi2(value.den_coeffs)
        assert value.evaluate(digits) == mpmath.nstr(exact, digits, strip_zeros=False)
        assert float(value) == float(exact)


MODULUS = sys.hash_info.modulus


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30),
       st.one_of(st.integers(1, 10**30),
                 st.integers(1, 5).map(lambda k: k * MODULUS),
                 st.integers(1, 5).map(lambda k: k * MODULUS + 1)))
def test_a_rational_hashes_as_its_int_or_fraction(n, d):
    # the numeric hash rule on the parts in lowest terms, with no Fraction
    # built: a denominator that is a multiple of the modulus hashes as
    # infinity, and -1 is read as -2
    s = Scalar(n, d)
    assert hash(s) == hash(Fraction(n, d))
    assert hash(Scalar(n)) == hash(n)
    assert hash(Scalar(-1)) == hash(-1) == -2
    assert hash(Scalar(-1, MODULUS)) == hash(Fraction(-1, MODULUS))


def test_hash_matches_equality():
    assert hash(Scalar(3)) == hash(3)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {Scalar((0, 144), (35, 24)): "v"}
    assert d[Scalar((0, 288), (70, 48))] == "v"


def test_mixed_operand_arithmetic():
    assert 1 + PI2 == Scalar((1, 1))
    assert 2 * PI2 - PI2 == PI2
    assert Fraction(1, 2) * Scalar(4) == 2
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))
    assert (6 - Scalar(2)) == 4


def test_sum_builtin():
    vals = [Scalar(1), PI2, Scalar(Fraction(1, 2))]
    assert sum(vals) == Scalar((3, 2), (2,))


# ---- differential checks against Fraction and a reference gcd ----

fractions = st.fractions(max_denominator=10 ** 12).filter(lambda f: abs(f) < 10 ** 12)


@given(fractions, fractions)
def test_rational_arithmetic_matches_fraction(a, b):
    sa, sb = Scalar(a), Scalar(b)
    results = [(sa + sb, a + b), (sa - sb, a - b), (sa * sb, a * b)]
    if b:
        results.append((sa / sb, a / b))
    for got, want in results:
        assert got.num_coeffs == (want.numerator,)
        assert got.den_coeffs == (want.denominator,)
        assert hash(got) == hash(want)
    assert (sa < sb, sa <= sb, sa > sb, sa >= sb, sa == sb) == (
        a < b, a <= b, a > b, a >= b, a == b)
    # mixed operands coerce the same way
    assert (sa + b, a - sb, sa * b, sa < b, a >= sb) == (
        Scalar(a + b), Scalar(a - b), Scalar(a * b), a < b, a >= b)


def _ref_deg(a):
    return max((i for i, x in enumerate(a) if x), default=-1)


def _ref_rem(a, b):
    a = list(a)
    db, da = _ref_deg(b), _ref_deg(a)
    while da >= db:
        q = a[da] / b[db]
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        da = _ref_deg(a)
    return a


def _ref_gcd(a, b):
    """A gcd of two integer polynomials by Euclid over Fraction, trimmed."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while _ref_deg(b) >= 0:
        a, b = b, _ref_rem(a, b)
    return a[: _ref_deg(a) + 1]


def _ref_normalize(n, d):
    """Canonical form by Euclid over Fraction: the definition the integer
    gcd must reproduce tuple for tuple."""
    if not any(n):
        return (0,), (1,)
    c = math.gcd(*n, *d)
    n, d = [Fraction(x, c) for x in n], [Fraction(x, c) for x in d]
    g = _ref_gcd(n, d)
    if len(g) > 1:  # divide out the gcd, then clear denominators
        quotients = []
        for p in (n, d):
            p, q = list(p), [Fraction(0)] * (_ref_deg(p) - len(g) + 2)
            for k in range(len(q) - 1, -1, -1):
                q[k] = p[k + len(g) - 1] / g[-1]
                for i, y in enumerate(g):
                    p[k + i] -= q[k] * y
            assert not any(p)
            quotients.append(q)
        scale = math.lcm(*(x.denominator for x in quotients[0] + quotients[1]))
        n, d = ([int(x * scale) for x in q] for q in quotients)
        content = math.gcd(*n, *d)
        n, d = [x // content for x in n], [x // content for x in d]
    n, d = [int(x) for x in n], [int(x) for x in d]
    while len(n) > 1 and n[-1] == 0:
        n.pop()
    if d[-1] < 0:
        n, d = [-x for x in n], [-x for x in d]
    return tuple(n), tuple(d)


int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(
    lambda c: c[-1] != 0)


@settings(max_examples=300)
@given(int_polys, int_polys, int_polys)
def test_normalize_matches_fraction_euclid(g, a, b):
    n, d = _pmul(g, a), _pmul(g, b)
    assert _normalize(n, d) == _ref_normalize(n, d)


# ---- operations on canonical operands against the cross-multiplied reference ----

factors = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda c: c[-1] != 0)


@st.composite
def operand_pairs(draw):
    """Two canonical operands built from one small pool of polynomial
    factors, so that they often share some. Besides free pairs: equal
    denominators, a factor put into one numerator and the other
    denominator, a second operand whose sum with the first has a smaller
    denominator, and a rational beside a pi^2 value, in either order."""
    pool = draw(st.lists(factors, min_size=1, max_size=3))

    def side(zero_ok=False):
        p = (draw(st.integers(-4, 4).filter(lambda k: zero_ok or k)),)
        for f in draw(st.lists(st.sampled_from(pool), max_size=2)):
            p = _pmul(p, f)
        return p

    a, b, c, d = side(True), side(), side(True), side()
    kind = draw(st.sampled_from(["free", "equal_den", "crossed", "sum_cancels", "rational"]))
    if kind == "equal_den":
        d = b
    elif kind == "crossed":
        f = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            a, d = _pmul(a, f), _pmul(d, f)
        else:
            c, b = _pmul(c, f), _pmul(b, f)
    elif kind == "sum_cancels":  # y = e/h - x, so x + y = e/h
        b = _pmul(b, draw(st.sampled_from(pool)))
        e, h = side(True), side()
        c, d = _padd(_pmul(e, b), _pneg(_pmul(a, h))), _pmul(h, b)
    elif kind == "rational":
        c, d = (draw(st.integers(-9, 9)),), (draw(st.integers(1, 9)),)
    x, y = Scalar(a, b), Scalar(c, d)
    return (y, x) if kind == "rational" and draw(st.booleans()) else (x, y)


def _nonconstant_gcd(a, b):
    return len(_ref_gcd(a, b)) > 1


def test_operations_match_the_cross_multiplied_reference():
    reached = set()

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    def check(pair):
        x, y = pair
        a, b, c, d = x.num_coeffs, x.den_coeffs, y.num_coeffs, y.den_coeffs
        naive = {
            "+": (x + y, _padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d)),
            "-": (x - y, _padd(_pmul(a, d), _pneg(_pmul(c, b))), _pmul(b, d)),
            "*": (x * y, _pmul(a, c), _pmul(b, d)),
        }
        if y:
            naive["/"] = (x / y, _pmul(a, d), _pmul(b, c))
        for op, (result, n, den) in naive.items():
            assert (result.num_coeffs, result.den_coeffs) == _ref_normalize(n, den), op
        if _nonconstant_gcd(b, d):
            reached.add("add cancels the common denominator")
            b1, d1 = _ref_normalize(b, d)  # b and d over their gcd, times one constant
            if _nonconstant_gcd(_padd(_pmul(a, d1), _pmul(c, b1)), b):
                reached.add("add cancels the numerator against the common factor")
        if _nonconstant_gcd(a, d):
            reached.add("multiply cancels a against d")
        if _nonconstant_gcd(c, b):
            reached.add("multiply cancels c against b")

    check()
    assert reached == {"add cancels the common denominator",
                       "add cancels the numerator against the common factor",
                       "multiply cancels a against d", "multiply cancels c against b"}


def test_operations_beside_a_constant_denominator_take_no_polynomial_gcd(monkeypatch):
    # a rational operand, or two constant denominators, can share no
    # polynomial factor, so these operations need only integer content
    pv = Scalar.parse("144*pi^2/(35+24*pi^2)")
    p, q = Scalar.parse("(1+2*pi^2+3*pi^4)/5"), Scalar.parse("(7*pi^4-2)/3")
    expected = [Scalar.parse("(-7+6*pi^2+44*pi^4)/15"), Scalar.parse("(13+6*pi^2-26*pi^4)/15"),
                Scalar.parse("(1+144*pi^2)/(35+24*pi^2)")]
    w = 1 / (35 + 24 * PI2)
    calls = []
    pgcd = scalar._pgcd
    monkeypatch.setattr(scalar, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    for r in (Scalar(3, 7), Fraction(-5, 2), 4):
        for result in (pv + r, pv - r, pv * r, pv / r, r + pv, r - pv, r * pv, r / pv):
            assert not result.is_rational
    assert [p + q, p - q] == expected[:2]
    assert calls == []
    assert pv + w == expected[2]
    assert calls == []  # equal linear denominators share their factor without one
    u, v = 1 / (1 + PI2 ** 2), 1 / (2 + PI2 ** 2)
    assert u + v == Scalar.parse("(3+2*pi^4)/(2+3*pi^4+pi^8)")
    assert calls  # the counter sees a gcd of two coprime quadratic pi^2 denominators


# ---- the gcd shortcuts of _cancel against the remainder sequence ----

def _cancel_by_pgcd(a, b):
    """_cancel by the primitive remainder sequence on every pair of
    nonconstant sides, as before its shortcuts."""
    g = scalar._pgcd(a, b) if len(a) > 1 and len(b) > 1 else (1,)
    return (a, b, g) if g == (1,) else (scalar._pdivexact(a, g), scalar._pdivexact(b, g), g)


linear_factors = st.tuples(st.integers(-3, 3), st.integers(-3, 3).filter(bool))


@st.composite
def cancel_pairs(draw):
    """Two sides, each a signed content of 1 to 6 times factors from one
    small pool (leading coefficients of either sign); besides sides from two
    pools, sides with a common factor, equal sides, and a linear side beside a
    multiple of it or not."""
    pool = draw(st.lists(factors, min_size=1, max_size=3))

    def side(first=(), factors_from=pool):
        p = _pmul((draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))),), first or (1,))
        for f in draw(st.lists(st.sampled_from(factors_from), max_size=3)):
            p = _pmul(p, f)
        return p

    kind = draw(st.sampled_from(["free", "common", "equal", "linear"]))
    if kind == "common":
        f = draw(st.sampled_from(pool))
        return side(f), side(f)
    a = side()
    if kind == "equal":
        return a, a
    if kind == "linear":
        line = draw(linear_factors)
        a = _pmul((draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))),), line)
        b = side(line if draw(st.booleans()) else ())
        return (a, b) if draw(st.booleans()) else (b, a)
    return a, side(factors_from=draw(st.lists(factors, min_size=1, max_size=3)))


def test_cancel_matches_the_remainder_sequence():
    reached = set()

    @settings(max_examples=400, deadline=None)
    @given(cancel_pairs())
    def check(pair):
        a, b = pair
        want = _cancel_by_pgcd(a, b)
        assert scalar._cancel(a, b) == want
        if len(a) > 1 and len(b) > 1:
            linear = 2 in (len(a), len(b))
            shares = "shares" if len(want[2]) > 1 else "coprime"
            reached.add("equal" if a == b else f"linear {shares}" if linear else f"pgcd {shares}")

    check()
    assert reached == {"equal", "linear shares", "linear coprime", "pgcd shares", "pgcd coprime"}


# ---- differential checks of the integer sign against mpmath intervals ----

def _interval_sign(c, x):
    acc = mpmath.iv.mpf(c[-1])
    for k in reversed(c[:-1]):
        acc = acc * x + k
    return 1 if acc.a > 0 else -1 if acc.b < 0 else 0


def _reference_sign(s):
    """The sign by mpmath interval Horner at doubling precision: the
    definition the integer bounds must reproduce."""
    if s.is_rational:
        return (s.num_coeffs[0] > 0) - (s.num_coeffs[0] < 0)
    prec = 64
    while prec <= 1 << 16:
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            x = mpmath.iv.pi * mpmath.iv.pi
            ns, ds = _interval_sign(s.num_coeffs, x), _interval_sign(s.den_coeffs, x)
        finally:
            mpmath.iv.prec = old
        if ns and ds:
            return ns * ds
        prec *= 2
    raise ArithmeticError("reference refinement stalled")


def _pi2_times_ten_to(e):
    with mpmath.workdps(e + 50):
        return int(mpmath.floor(mpmath.pi ** 2 * 10 ** e))


big_coeffs = st.integers(1, 300).flatmap(lambda d: st.integers(-10 ** d, 10 ** d))
big_polys = st.lists(big_coeffs, min_size=1, max_size=MAX_PI_POWER // 2 + 1)


@st.composite
def near_zero_polys(draw):
    # (floor(pi^2 * 10^e) + k - 10^e * pi^2) times a small factor: a few
    # units from zero beside coefficients near 10^e, so its sign needs about
    # 3.3e bits of pi^2
    e = draw(st.integers(15, 300))
    k = draw(st.integers(-2, 3))
    factor = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any))
    return list(_pmul((_pi2_times_ten_to(e) + k, -10 ** e), tuple(factor)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(big_polys, near_zero_polys()),
       st.one_of(big_polys, near_zero_polys()).filter(any))
def test_sign_matches_mpmath_intervals(num, den):
    s = Scalar(num, den)
    assert s.sign() == _reference_sign(s)
    assert (-s).sign() == -s.sign()


@pytest.mark.parametrize("e", [30, 1000])
def test_sign_near_zero(e):
    a = _pi2_times_ten_to(e)
    below, above = Scalar([a, -10 ** e]), Scalar([a + 1, -10 ** e])
    assert below.sign() == -1
    assert above.sign() == 1
    # 64-bit bounds on pi^2 cannot separate these from zero
    assert _poly_sign(below.num_coeffs, 64) == _poly_sign(above.num_coeffs, 64) == 0


def test_pi2_bounds(monkeypatch):
    monkeypatch.setattr(scalar, "_PI2_BOUNDS", {})
    bounds = {}
    for prec in range(64, 4097):
        lo, hi = bounds[prec] = _pi2_bounds(prec)
        with mpmath.workprec(4 * prec):
            scaled = mpmath.ldexp(mpmath.pi ** 2, prec)
            assert lo < scaled < hi
        assert hi - lo <= 2 ** 8
    for prec in range(64, 2049):
        lo, hi = bounds[prec]
        assert lo << prec <= bounds[2 * prec][0] <= bounds[2 * prec][1] <= hi << prec
    assert _pi2_bounds(64) is _pi2_bounds(64)  # kept per precision


def test_pi_floor_shifts_down_from_the_largest_precision(monkeypatch):
    monkeypatch.setattr(scalar, "_PI", [0, 3])
    for prec in (64, 100, 65, 1000, 3000, 64, 2999):
        with mpmath.workprec(prec + 64):
            assert scalar._pi_floor(prec) == int(mpmath.floor(mpmath.ldexp(mpmath.pi, prec)))
    # computed at 64, 128, 1000 and 3000 bits: at least twice the last each time
    assert scalar._PI[0] == 3000


# ---- Scalar.parse against the bracket-depth parser it replaced ----

def _reference_balanced(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _reference_poly(s):
    if s.startswith("(") and s.endswith(")") and _reference_balanced(s[1:-1]):
        s = s[1:-1]
    if not s:
        raise ValueError("empty polynomial text")
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = scalar._TERM.match(s, pos)
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


def _reference_parse(text):
    """Scalar text read with a bracket-depth scan for the one top-level '/'."""
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
        return Scalar(_reference_poly(s[:slash]), _reference_poly(s[slash + 1:]))
    return Scalar(_reference_poly(s))


def _read(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return "refused"


# the scalar-text alphabet, with the pi powers as single tokens
_SCALAR_TOKENS = list("0123456789.eE+-*/() ") + ["pi^2", "pi^3", "pi^", "pi^4", "pi^22"]
_TERMS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]),
                   st.sampled_from(["", "1", "35", "2.5", "1e3", "7E-2", "0"]),
                   st.sampled_from(["", "*pi^2", "pi^4", "*pi^6", "*", "pi^3"]))
_SIDES = st.lists(_TERMS, min_size=0, max_size=4).map("".join).flatmap(
    lambda side: st.sampled_from([side, f"({side})", f"(({side}))", f"({side}", f"{side})"]))
# sides in the grammar: signed terms, optionally in one pair of brackets
_GOOD_SIDES = st.lists(
    st.builds("{}{}{}".format, st.sampled_from(["+", "-"]),
              st.sampled_from(["1", "35", "2.5", "1e3", "7E-2", "0", "12"]),
              st.sampled_from(["", "*pi^2", "pi^4", "*pi^6"])),
    min_size=1, max_size=4).map("".join).flatmap(
    lambda side: st.sampled_from([side, f"({side})", side.lstrip("+")]))
scalar_texts = st.one_of(
    st.lists(st.sampled_from(_SCALAR_TOKENS), max_size=14).map("".join),
    st.builds("{}{}{}".format, _SIDES, st.sampled_from(["", "/", "//", " / "]), _SIDES),
    st.builds("{}{}{}".format, _GOOD_SIDES, st.sampled_from(["", "/", " / "]), _GOOD_SIDES),
)


@settings(max_examples=1000, deadline=None)
@given(scalar_texts)
def test_parse_matches_the_bracket_depth_reference(text):
    assert _read(Scalar.parse, text) == _read(_reference_parse, text)


@pytest.mark.parametrize("text", [
    "(1)/(2)", "((1))", "(1/2)", "()/1", "1/()", "1/2/3", ")1(", "(1)(2)", "(1+pi^2)/(2)",
    "(1", "1)", "(1))", "((1)", "1/(2", "(1/2", "1)/(2", "1e1001/2", "pi^24/1", "2pi^2",
])
def test_parse_edge_cases_match_the_reference(text):
    assert _read(Scalar.parse, text) == _read(_reference_parse, text)


# ---- Scalar.parse and Scalar(num, den) against the Fraction readers they replaced ----

def _outcome(call, *args):
    """The canonical coefficients, or the exception's type and message."""
    try:
        s = call(*args)
    except (ArithmeticError, TypeError, ValueError) as e:
        return type(e), str(e)
    return s.num_coeffs, s.den_coeffs


_DIGITS = st.text("0123456789", min_size=1, max_size=24)  # leading zeros too
_COEFS = st.one_of(
    _DIGITS, st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.builds("{}{}{}{}{}".format, _DIGITS, st.sampled_from(["", ".5", ".125", ".0"]),
              st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
              st.integers(0, MAX_DECIMAL_EXPONENT).map(str)))
_PI_POWERS = st.sampled_from(["", "*pi^2", "pi^2", "*pi^4", "pi^0", "*pi^22", "pi^20", "pi^02"])
# out of the grammar or past a cap, each in some draws
_ODD_COEFS = st.sampled_from(["1e1001", "2.5E-1002", "1e0999", "1e+01001", "1_0", "1e1_0",
                              "\u0663", "1\u0663", "\u0663.5", "2\u00b2", "1.", ".5", "1e", ""])
_ODD_POWERS = st.sampled_from(["*pi^3", "pi^21", "*pi^23", "pi^24", "*pi^", "*", "**pi^2",
                               "*pi^0022", "pi^2pi^2"])
_STRAYS = st.sampled_from(["+", "-", "+-", "--", "(", ")", "x", "/", "*", "()"])


@st.composite
def _reader_sides(draw):
    """One side: signed terms in the grammar, in one pair of brackets or
    none, with whitespace; now and then a coefficient, pi power or token
    that is not."""
    def odd():
        return draw(st.integers(0, 11)) == 0
    parts = [draw(st.sampled_from("+-")) + draw(_ODD_COEFS if odd() else _COEFS)
             + draw(_ODD_POWERS if odd() else _PI_POWERS)
             for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        parts[0] = parts[0][1:]
    text = "".join(parts)
    if odd():
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_STRAYS) + text[at:]
    text = draw(st.sampled_from([text, text, f"({text})", f" ( {text} ) ", f"(({text}))"]))
    for at in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)), reverse=True):
        text = text[:at] + draw(st.sampled_from([" ", "\t", "\u3000"])) + text[at:]
    return text


reader_texts = st.one_of(
    st.builds("{}{}{}".format, _reader_sides(), st.sampled_from(["/", "/", " / ", "//"]),
              _reader_sides()),
    _reader_sides(),
    st.lists(st.sampled_from(list("0123456789.eE+-*/()_ ") + ["pi^2", "pi^3", "\u0663"]),
             max_size=14).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(reader_texts)
def test_parse_matches_the_fraction_reference(text):
    assert _outcome(Scalar.parse, text) == _outcome(scalar_reference.parse, text)


@pytest.mark.parametrize("text", [
    "39/4", "007/0010", "-0", "+3", "+-3", "--3", "1/0", "0/0", "0*pi^2/0", "2*", "2*/3",
    "\u0663/4", "1\u0663", "1_0", "1e1000", "1e1001", "25e-1000", "2.5E-1001", "1e-0999",
    "1+1E-00000999999999", "0.5+0.25*pi^2", "1/(0.5-2.5e-3*pi^2)", "(2.5*pi^4)/(0.125+pi^2)",
    "pi^22", "pi^23", "pi^24", pytest.param("pi^" + "9" * 5000, id="pi^(5000 nines)"),
    pytest.param("1" * 4301, id="4301 ones"),
    pytest.param("1" * 4301 + "*pi^2", id="4301 ones*pi^2"),
    " ( 1 + 2 * pi ^ 2 ) / 3 ", "(1)/(2)", "()", "1/()", "1/2/3", "pi^2-pi^2", "3-3/pi^2",
])
def test_parse_edge_cases_match_the_fraction_reference(text):
    assert _outcome(Scalar.parse, text) == _outcome(scalar_reference.parse, text)


_ITEMS = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                   st.fractions(max_denominator=10 ** 12),
                   st.sampled_from([True, 0.5, None, "1/2", Fraction(0)]))
_CONSTRUCTOR_SIDES = st.one_of(_ITEMS, st.lists(_ITEMS, max_size=4),
                               st.lists(_ITEMS, max_size=4).map(tuple))


@settings(max_examples=1000, deadline=None)
@given(_CONSTRUCTOR_SIDES, _CONSTRUCTOR_SIDES)
def test_constructor_matches_the_fraction_reference(num, den):
    assert _outcome(Scalar, num, den) == _outcome(scalar_reference.scalar, num, den)


# ---- refusals of every exact-number reader of the library ----

def _domain_with(coordinate):
    cube = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cube[7][0] = coordinate
    return make_domain([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [cube])


def _offsets(*offsets):
    return generate("prism_columns", offsets=list(offsets))


@pytest.mark.parametrize("call, error, message", [
    # Scalar(num, den) takes ints, Fractions and tuples or lists of them
    (lambda: Scalar([True]), TypeError, "coefficients are ints or Fractions"),
    (lambda: Scalar(True), TypeError, "coefficients are ints or Fractions"),
    (lambda: Scalar(["1e1001"]), TypeError, "read text with Scalar.parse"),
    (lambda: Scalar("1/2"), TypeError, "read text with Scalar.parse"),
    (lambda: Scalar(0.5), TypeError, "coefficients"),
    (lambda: Scalar([1, 0.5]), TypeError, "coefficients"),
    (lambda: Scalar([]), TypeError, "coefficients"),
    (lambda: Scalar(PI2), TypeError, "coefficients"),
    (lambda: Scalar(1, [Fraction(1), None]), TypeError, "coefficients"),
    # Scalar.parse reads text only
    (lambda: Scalar.parse(5), TypeError, "scalar text must be a str, not int"),
    (lambda: Scalar.parse(None), TypeError, "scalar text must be a str, not NoneType"),
    (lambda: Scalar.parse(b"1/2"), TypeError, "scalar text must be a str, not bytes"),
    # parse_fraction reads ints that are not bools, Fractions and text
    (lambda: parse_fraction(True), TypeError, "not an exact rational"),
    (lambda: parse_fraction(0.5), TypeError, "not an exact rational"),
    (lambda: parse_fraction(None), TypeError, "not an exact rational"),
    (lambda: parse_fraction([1]), TypeError, "not an exact rational"),
    (lambda: parse_fraction(PI2), TypeError, "not an exact rational"),
    (lambda: parse_fraction("1e1001"), UsageError, "decimal exponents beyond 1000"),
    (lambda: parse_fraction("abc"), ValueError, "Invalid literal"),
    (lambda: parse_fraction("1/0"), ZeroDivisionError, "Fraction(1, 0)"),
    # domain coordinates and prism_columns offsets read through it
    (lambda: _domain_with(True), NotATessellationError, "rational numbers, got True"),
    (lambda: _domain_with(0.5), NotATessellationError, "rational numbers, got 0.5"),
    (lambda: _domain_with("abc"), NotATessellationError, "rational numbers, got 'abc'"),
    (lambda: _domain_with(None), NotATessellationError, "rational numbers, got None"),
    (lambda: _domain_with("1e1001"), UsageError, "decimal exponents beyond 1000"),
    (lambda: _offsets(0.1, 0.35, 0.6, 0.85), GeneratorParameterError, "rational numbers"),
    (lambda: _offsets(True, "1/4", "1/2", "3/4"), GeneratorParameterError, "rational numbers"),
    (lambda: _offsets("1e1001", "1/4", "1/2", "3/4"), UsageError, "decimal exponents"),
])
def test_exact_number_readers_refuse(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_exact_number_readers_accept():
    assert Scalar([Fraction(1, 2), 3], (2,)) == Scalar.parse("(1+6*pi^2)/4")
    assert Scalar((70, 48), 35) == Scalar.parse("(70+48*pi^2)/35")
    value = Fraction(1, 3)
    assert parse_fraction(value) is value
    assert parse_fraction(-4) == -4 and type(parse_fraction(-4)) is Fraction
    assert parse_fraction(" -7/4 ") == Fraction(-7, 4)
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert _domain_with("2/2").cells[0].volume == 1
    assert _offsets(0, "1/4", Fraction(1, 2), "0.75").volume() == 4
