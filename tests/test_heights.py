"""Directed-rounding height enclosures: every bound is checked against a
higher-precision recomputation or an exact identity."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from ellcert.curve import INFINITY, base_point, curve_from_a, make_family, point, smul
from ellcert.errors import PreconditionFailure
from ellcert.heights import (
    LOG2_BOUNDS,
    LOG1728_HI,
    _vy_floor,
    canonical_height,
    dec_ln_bounds,
    log_int_bounds,
    naive_height,
    naive_height_bounds,
    silverman_gaps,
    vy_lower_bound,
    x_multiple_reduced,
)


def _ref_ln(n, prec=90):
    ctx = getcontext().copy()
    ctx.prec = prec
    return ctx.ln(Decimal(n))


def test_dec_ln_bounds_enclose():
    for n in (2, 3, 10, 97, 1728, 5641, 10**30 + 7):
        lo, hi = dec_ln_bounds(n)
        ref = _ref_ln(n)
        assert lo <= ref <= hi, n
        assert hi - lo < Decimal("1e-40")


def test_log2_bounds():
    lo, hi = LOG2_BOUNDS
    assert lo <= math.log(2) <= hi
    assert hi - lo < 1e-12


def test_log1728_constant_is_the_computed_bound():
    # silverman_gaps reads the constant instead of recomputing it per curve
    assert LOG1728_HI == log_int_bounds(1728)[1]
    assert math.log(1728) <= LOG1728_HI


def test_log_int_bounds_small():
    for n in (1, 2, 3, 641, 1728, 2**60 + 1):
        lo, hi = log_int_bounds(n)
        assert lo <= math.log(n) <= hi
        assert hi - lo < 1e-10


def test_log_int_bounds_huge():
    # 7^3000 exceeds the direct-evaluation bit cutoff
    n = 7**3000
    lo, hi = log_int_bounds(n)
    ref = 3000 * _ref_ln(7)
    assert Decimal(lo) <= ref <= Decimal(hi)
    assert hi - lo < 1e-8


def test_naive_height_frozen():
    c = make_family(1, 2)
    p0 = base_point(c)
    assert naive_height(p0) == 0.0  # x = -1
    assert naive_height(INFINITY) == 0.0
    two_p = smul(c, 2, p0)
    assert two_p.x == Fraction(9, 4)
    lo, hi = naive_height_bounds(two_p)
    assert lo <= math.log(9) <= hi
    assert abs(naive_height(two_p) - math.log(9)) < 1e-12


def test_ladder_matches_group_law():
    for s, t in ((1, 2), (2, 5), (3, 4)):
        c = make_family(s, t)
        p0 = base_point(c)
        for k in (1, 2, 3, 4, 5, 6):
            u, w = x_multiple_reduced(c, p0, k)
            assert Fraction(u, w) == smul(c, 2**k, p0).x, (s, t, k)


def test_canonical_height_nesting_and_width():
    c = make_family(2, 5)
    p0 = base_point(c)
    gaps = silverman_gaps(c)
    prev = None
    for k in range(2, 8):
        h = canonical_height(c, p0, iterations=k)
        assert h.lo < h.hi
        width_formula = (gaps.lower_gap + gaps.upper_gap) / 4.0**k
        assert abs((h.hi - h.lo) - width_formula) < 1e-9
        if prev is not None:
            assert h.lo >= prev.lo - 1e-12
            assert h.hi <= prev.hi + 1e-12
        prev = h


def test_canonical_height_quadratic():
    c = make_family(1, 2)
    p0 = base_point(c)
    h1 = canonical_height(c, p0, iterations=7)
    h2 = canonical_height(c, smul(c, 2, p0), iterations=7)
    # hhat(2P) = 4 hhat(P): the two enclosures must overlap after scaling
    assert h2.lo <= 4 * h1.hi and 4 * h1.lo <= h2.hi


def test_canonical_height_translation_invariant_enough():
    # P and P + (0,0) differ by torsion, so their heights agree
    c = make_family(2, 5)
    p0 = base_point(c)
    from ellcert.curve import translate_by_torsion

    h1 = canonical_height(c, p0, iterations=7)
    h2 = canonical_height(c, translate_by_torsion(c, p0), iterations=7)
    assert h1.lo <= h2.hi and h2.lo <= h1.hi


def test_canonical_height_rejections():
    c = make_family(1, 2)
    with pytest.raises(ValueError):
        canonical_height(c, INFINITY)
    with pytest.raises(ValueError):
        canonical_height(c, base_point(c), iterations=0)
    with pytest.raises(PreconditionFailure):
        canonical_height(c, point(c, 0, 0))


def test_family_constant():
    specialized = (math.log(1728) + math.log(64)) / 12 + 1.07
    assert abs(specialized - 2.03781) < 1e-4
    # upper_gap(a) is that constant plus log|a|/4, up to rounding slack
    for s, t in ((1, 2), (2, 5), (2, 25)):
        c = make_family(s, t)
        gaps = silverman_gaps(c)
        assert abs(gaps.upper_gap - math.log(c.ell) / 4 - specialized) < 1e-9
        assert gaps.lower_gap > gaps.upper_gap  # 0.973 + h(j)/8 wins over 1.07 + h(j)/12


# frozen copy of the residue rows, used as oracle: (a values, log2 multiple)
_VY_CASES = [
    (17, Fraction(8, 16)),
    (33, Fraction(8, 16)),
    (34, Fraction(4, 16)),
    (84, Fraction(4, 16)),   # 84 = 20 mod 64
    (68, Fraction(-2, 16)),  # 68 = 4 mod 64
    (-5, Fraction(5, 16)),   # -5 = 11 mod 16
    (-2, Fraction(5, 16)),
    (-41, Fraction(9, 16)),  # -41 = 7 mod 16
    (-20, Fraction(5, 16)),
    (-60, Fraction(-1, 16)),  # -60 = 4 mod 64
]


@pytest.mark.parametrize("a,coeff", _VY_CASES)
def test_vy_rows_frozen(a, coeff):
    expected = math.log(abs(a)) / 16 + float(coeff) * math.log(2)
    got = vy_lower_bound(a)
    assert got <= expected + 1e-15  # rounded down
    assert abs(got - expected) < 2e-12
    assert _vy_floor(a) == got  # the unchecked floor a member's caller uses


def test_vy_rejections():
    with pytest.raises(ValueError):
        vy_lower_bound(0)
    with pytest.raises(ValueError):
        vy_lower_bound(16)
    with pytest.raises(ValueError):
        vy_lower_bound(-162)  # 2 * 3^4


def test_vy_floor_below_canonical():
    for s, t in ((1, 2), (2, 5), (3, 10)):
        c = make_family(s, t)
        floor = vy_lower_bound(-c.ell)
        assert floor > 0
        h = canonical_height(c, base_point(c), iterations=7)
        assert floor <= h.hi


def test_family_avoids_negative_rows():
    # -ell = 12 mod 16 would need ell = 4 mod 16, impossible for s^4 + t^2
    from ellcert.arith import kth_power_free
    from ellcert.heights import _vy_log2_coeff

    for s in range(1, 13):
        for t in range(1, 13):
            ell = s**4 + t**2
            if kth_power_free(ell, 4):
                assert _vy_log2_coeff(-ell) > 0, (s, t)
