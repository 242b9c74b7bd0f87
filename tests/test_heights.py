"""Directed-rounding height enclosures: every bound is checked against a
higher-precision recomputation or an exact identity."""

import hashlib
import json
import math
import random
from decimal import ROUND_FLOOR, Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import ln_oracle
from ellcert import cli
from ellcert import heights as heights_module
from ellcert import primitivity
from ellcert.arith import _iroot
from ellcert.curve import INFINITY, base_point, make_family, point, smul
from ellcert.errors import PreconditionFailure
from ellcert.heights import (
    LOG2_BOUNDS,
    LOG1728_HI,
    _silverman_upper_gap,
    _vy_floor,
    _vy_log2_coeff,
    canonical_height,
    ln_ell_lo_and_delta_hi,
    log_int_bounds,
    naive_height,
    naive_height_bounds,
    silverman_gaps,
    vy_lower_bound,
    x_multiple_reduced,
)

#: Integers wider than this are truncated to their top bits by the oracle.
_DIRECT_LN_BITS = ln_oracle.DIRECT_LN_BITS


def _ref_ln(n, prec=90):
    ctx = getcontext().copy()
    ctx.prec = prec
    return ctx.ln(Decimal(n))


def test_dec_ln_bounds_enclose():
    # the oracle's Decimal enclosure, on both of its paths
    for n in (2, 3, 10, 97, 1728, 5641, 10**30 + 7, 7**1500):
        lo, hi = ln_oracle.dec_ln_bounds(n)
        ref = _ref_ln(n)
        assert lo <= ref <= hi, n
        assert hi - lo < Decimal("1e-40")
    assert (7**1500).bit_length() > _DIRECT_LN_BITS


def test_log2_bounds():
    assert LOG2_BOUNDS == log_int_bounds(2) == ln_oracle.log_int_bounds(2)
    lo, hi = LOG2_BOUNDS
    assert lo <= math.log(2) <= hi
    assert hi - lo < 1e-12


def test_log1728_constant_is_the_computed_bound():
    # silverman_gaps reads the constant instead of recomputing it per curve
    assert LOG1728_HI == log_int_bounds(1728)[1] == ln_oracle.log_int_bounds(1728)[1]
    assert math.log(1728) <= LOG1728_HI


def test_log_int_bounds_small():
    for n in (1, 2, 3, 641, 1728, 2**60 + 1):
        lo, hi = log_int_bounds(n)
        assert lo <= math.log(n) <= hi
        assert hi - lo < 1e-10
    with pytest.raises(ValueError):
        log_int_bounds(0)


def test_log_int_bounds_huge():
    # 7^3000 is past the oracle's direct-evaluation bit cutoff
    n = 7**3000
    lo, hi = log_int_bounds(n)
    ref = 3000 * _ref_ln(7)
    assert Decimal(lo) <= ref <= Decimal(hi)
    assert hi - lo < 1e-8


def test_log_int_bounds_gives_the_oracle_floats():
    # the floats every record was first written from, on both of the
    # oracle's paths: direct up to _DIRECT_LN_BITS, truncated past it
    rng = random.Random(20261024)
    ns = list(range(1, 5001))
    ns += [rng.randrange(2, 10 ** rng.randint(1, 60)) for _ in range(2000)]
    ns += [rng.getrandbits(rng.randint(2, _DIRECT_LN_BITS)) | 2 for _ in range(300)]
    ns += [(1 << _DIRECT_LN_BITS) - 1, 1 << _DIRECT_LN_BITS, (1 << _DIRECT_LN_BITS) + 1]
    wide = [rng.getrandbits(b) | (1 << (b - 1)) for b in range(_DIRECT_LN_BITS + 1, 20001, 331)]
    ns += wide + [7**k for k in range(1, 3000)]
    assert len(wide) > 40
    for n in ns:
        assert log_int_bounds(n) == ln_oracle.log_int_bounds(n), n


def test_naive_height_frozen():
    c = make_family(1, 2)
    p0 = base_point(1, 2)
    assert naive_height(p0) == 0.0  # x = -1
    assert naive_height(INFINITY) == 0.0
    two_p = smul(c, 2, point(c, *p0))
    assert two_p.x == Fraction(9, 4)
    lo, hi = naive_height_bounds(two_p)
    assert lo <= math.log(9) <= hi
    assert abs(naive_height(two_p) - math.log(9)) < 1e-12


def test_ladder_matches_group_law():
    for s, t in ((1, 2), (2, 5), (3, 4)):
        c = make_family(s, t)
        p0 = base_point(s, t)
        for k in (1, 2, 3, 4, 5, 6):
            u, w = x_multiple_reduced(c, p0, k)
            assert Fraction(u, w) == smul(c, 2**k, point(c, *p0)).x, (s, t, k)


def test_no_doubling_passes_the_bit_budget(monkeypatch):
    for s, t in ((1, 2), (2, 5), (2, 75)):
        c = make_family(s, t)
        p0 = base_point(s, t)
        for budget in range(40, 4000, 97):
            monkeypatch.setattr(heights_module, "_X_BITS_BUDGET", budget)
            for k in range(1, 8):
                try:
                    u, w = x_multiple_reduced(c, p0, k)
                except PreconditionFailure as exc:
                    assert exc.reason == "height-digit-budget"
                    break
                assert max(abs(u), w).bit_length() <= budget, (s, t, budget, k)
            else:
                raise AssertionError(f"no refusal at ({s}, {t}), budget {budget}")


class _NinthDoubling(Exception):
    pass


def _count_doublings(monkeypatch, stop_at=None) -> list:
    """Count the doublings; raise _NinthDoubling with the bits of x at the
    doubling numbered ``stop_at``, before it runs."""
    done = []
    real = heights_module._x_double

    def doubling(a, u, w):
        if len(done) == stop_at:
            raise _NinthDoubling(max(abs(u), w).bit_length())
        done.append(1)
        return real(a, u, w)

    monkeypatch.setattr(heights_module, "_x_double", doubling)
    return done


def test_the_bit_budget_lets_2_75_double_nine_times(monkeypatch):
    # 8 doublings reach 410,604 bits; the budget must let the ninth start
    _count_doublings(monkeypatch, stop_at=8)
    c = make_family(2, 75)
    with pytest.raises(_NinthDoubling) as reached:
        x_multiple_reduced(c, base_point(2, 75), 9)
    assert reached.value.args == (410604,)


@pytest.mark.parametrize("doublings", [10, 40, 10**6])
def test_the_bit_budget_refuses_2_75_before_the_doublings_it_would_discard(
        doublings, monkeypatch):
    # the tenth doubling would pass 2^21 bits; the proven lower bound on
    # h(2^k P) says so after one doubling, not after nine
    done = _count_doublings(monkeypatch)
    c = make_family(2, 75)
    with pytest.raises(PreconditionFailure) as err:
        x_multiple_reduced(c, base_point(2, 75), doublings)
    assert err.value.reason == "height-digit-budget"
    assert err.value.detail.startswith("the doubling to x(2^10 P) could pass")
    assert len(done) == 1


def _x_multiple_stepwise(c, pt, doublings):
    """``x_multiple_reduced`` before the early refusal, which checked each
    doubling's bound only just before that doubling: the oracle."""
    u, w = pt.x.numerator, pt.x.denominator
    a_bits = abs(c.a).bit_length()
    for k in range(1, doublings + 1):
        bound = 2 * max(2 * abs(u).bit_length(), a_bits + 2 * w.bit_length()) + 3
        if bound > heights_module._X_BITS_BUDGET:
            raise PreconditionFailure(
                "height-digit-budget",
                f"x(2^{k} P) could reach {bound} bits, past the budget of "
                f"{heights_module._X_BITS_BUDGET}",
            )
        u, w = heights_module._x_double(c.a, u, w)
    return u, w


def _heights_outcome(s, t, iterations, capsys):
    """The ``heights`` report, or the reason of its refusal."""
    rc = cli.main(["heights", "--s", str(s), "--t", str(t), "--iterations", str(iterations)])
    out = capsys.readouterr().out
    return (rc, out) if rc == 0 else (rc, out.split("': ")[0])


_HEIGHTS_GRID = [(s, t) for s in (1, 2, 3) for t in (1, 2, 3, 5, 75)] + [
    (-2, 3), (1, -4), (6, 1), (1, 0)]


@pytest.mark.parametrize("budget", [1 << 10, 1 << 12, 1 << 14, 1 << 16])
def test_the_early_refusal_gives_the_stepwise_outcome(budget, monkeypatch, capsys):
    monkeypatch.setattr(heights_module, "_X_BITS_BUDGET", budget)
    early = 0
    for s, t in _HEIGHTS_GRID:
        for iterations in range(1, 13):
            got = _heights_outcome(s, t, iterations, capsys)
            with monkeypatch.context() as m:
                m.setattr(heights_module, "x_multiple_reduced", _x_multiple_stepwise)
                assert _heights_outcome(s, t, iterations, capsys) == got, (s, t, iterations)
            if t == 0:
                continue  # (-1, 0) is 2-torsion, which canonical_height refuses first
            try:
                x_multiple_reduced(make_family(s, t), base_point(s, t),
                                   iterations)
            except PreconditionFailure as exc:
                early += exc.detail.startswith("the doubling")
    assert early > 20


def test_doubling_a_two_torsion_point_is_an_alarm():
    # canonical_height refuses a torsion point before any doubling, and no
    # multiple of a non-torsion point is 2-torsion
    c = make_family(1, 0)
    with pytest.raises(PreconditionFailure) as err:
        canonical_height(c, base_point(1, 0), 3)
    assert err.value.reason == "torsion-point"
    with pytest.raises(AssertionError, match="reached infinity"):
        x_multiple_reduced(c, base_point(1, 0), 3)


def test_canonical_height_nesting_and_width():
    c = make_family(2, 5)
    p0 = base_point(2, 5)
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
    p0 = base_point(1, 2)
    h1 = canonical_height(c, p0, iterations=7)
    h2 = canonical_height(c, smul(c, 2, point(c, *p0)), iterations=7)
    # hhat(2P) = 4 hhat(P): the two enclosures must overlap after scaling
    assert h2.lo <= 4 * h1.hi and 4 * h1.lo <= h2.hi


def test_canonical_height_translation_invariant_enough():
    # P and P + (0,0) differ by torsion, so their heights agree
    c = make_family(2, 5)
    p0 = base_point(2, 5)
    from ellcert.curve import translate_by_torsion

    h1 = canonical_height(c, p0, iterations=7)
    h2 = canonical_height(c, translate_by_torsion(c, point(c, *p0)), iterations=7)
    assert h1.lo <= h2.hi and h2.lo <= h1.hi


def test_canonical_height_rejections():
    c = make_family(1, 2)
    with pytest.raises(ValueError):
        canonical_height(c, INFINITY)
    with pytest.raises(ValueError):
        canonical_height(c, base_point(1, 2), iterations=0)
    with pytest.raises(PreconditionFailure):
        canonical_height(c, point(c, 0, 0))


def test_family_constant():
    specialized = (math.log(1728) + math.log(64)) / 12 + 1.07
    assert abs(specialized - 2.03781) < 1e-4
    # upper_gap(a) is that constant plus log|a|/4, up to rounding slack
    for s, t in ((1, 2), (2, 5), (2, 25)):
        c = make_family(s, t)
        gaps = silverman_gaps(c)
        assert abs(gaps.upper_gap - math.log(-c.a) / 4 - specialized) < 1e-9
        assert gaps.lower_gap > gaps.upper_gap  # 0.973 + h(j)/8 wins over 1.07 + h(j)/12


# frozen copy of the residue rows, used as oracle: (a values, log2 multiple);
# only the rows of negative a are carried, as every member has a = -l
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
    if a > 0:
        with pytest.raises(ValueError):
            vy_lower_bound(a)
        with pytest.raises(AssertionError):
            _vy_log2_coeff(a)
        return
    expected = math.log(abs(a)) / 16 + float(coeff) * math.log(2)
    got = vy_lower_bound(a)
    assert got <= expected + 1e-15  # rounded down
    assert abs(got - expected) < 2e-12
    # the unchecked floor a member's caller uses, given the same ln|a|
    assert _vy_floor(a, log_int_bounds(abs(a))[0]) == got
    # the row as an integer numerator over 16
    assert Fraction(_vy_log2_coeff(a), 16) == coeff


def test_vy_rejections():
    with pytest.raises(ValueError):
        vy_lower_bound(0)
    with pytest.raises(ValueError):
        vy_lower_bound(16)
    with pytest.raises(AssertionError):  # 16 | a: not fourth-power-free
        _vy_log2_coeff(-48)
    with pytest.raises(ValueError):
        vy_lower_bound(-162)  # 2 * 3^4


def test_vy_lower_bound_refuses_past_its_bit_limit_before_trial_division(monkeypatch):
    assert heights_module._VY_MAX_BITS == 100
    assert vy_lower_bound(-(2**100 - 1)) > 0  # 100 bits, 5^3 its highest power
    monkeypatch.setattr(heights_module, "kth_power_free", lambda *args: pytest.fail(args))
    with pytest.raises(ValueError, match="a has 101 bits, past the 100"):
        vy_lower_bound(-(2**100 + 1))


def test_vy_floor_below_canonical():
    for s, t in ((1, 2), (2, 5), (3, 10)):
        c = make_family(s, t)
        floor = vy_lower_bound(c.a)
        assert floor > 0
        h = canonical_height(c, base_point(s, t), iterations=7)
        assert floor <= h.hi


def test_family_avoids_negative_rows():
    # -ell = 12 mod 16 would need ell = 4 mod 16, impossible for s^4 + t^2
    from ellcert.arith import kth_power_free

    for s in range(1, 13):
        for t in range(1, 13):
            ell = s**4 + t**2
            if kth_power_free(ell, 4):
                assert _vy_log2_coeff(-ell) > 0, (s, t)


def _direct_pair(ell):
    """The oracle's lower end of ln ell and upper end of ln(64 ell^3)."""
    return ln_oracle.log_int_bounds(ell)[0], ln_oracle.log_int_bounds(64 * ell**3)[1]


def test_one_wide_log_matches_the_direct_pair_exhaustively():
    assert [ln_ell_lo_and_delta_hi(ell) for ell in range(2, 5001)] == [
        _direct_pair(ell) for ell in range(2, 5001)]


def test_one_wide_log_matches_the_direct_pair_up_to_1e60():
    rng = random.Random(20261019)
    ells = [rng.randrange(2, 10 ** rng.randint(1, 60)) for _ in range(3000)]
    ells += [s**4 + t * t for s, t in ((2, 2), (400, 399), (10**15, 10**30 - 1))]
    assert [ln_ell_lo_and_delta_hi(ell) for ell in ells] == [
        _direct_pair(ell) for ell in ells]


def _delta_enclosure(lo, hi):
    """The enclosure of 2^96 ln(64 ell^3) that ``ln_ell_lo_and_delta_hi``
    forms from [lo, hi] 2^-96 of ln ell."""
    six_l2 = 6 * heights_module._LN2_FIX
    return 3 * lo + six_l2, 3 * hi + six_l2 + 6


def test_wide_log_rounds_both_ends_to_the_direct_floats():
    # every end of both enclosures rounds to the oracle's float, not only
    # the two returned
    rng = random.Random(20261020)
    ells = list(range(2, 300)) + [rng.randrange(2, 10**60) for _ in range(300)]
    for ell in ells:
        enc = heights_module._ln_fixed(ell)
        for (lo, hi), n in zip((enc, _delta_enclosure(*enc)), (ell, 64 * ell**3)):
            assert heights_module._round_out(lo, hi) == ln_oracle.log_int_bounds(n), (ell, n)


def test_one_wide_log_across_the_direct_ln_width():
    # 64 ell^3 fits in _DIRECT_LN_BITS bits up to edge and no further;
    # past it the oracle truncates, and the pair is still the oracle's
    edge = _iroot((1 << (_DIRECT_LN_BITS - 6)) - 1, 3)
    ells = range(edge - 3, edge + 4)
    widths = {(64 * ell**3).bit_length() <= _DIRECT_LN_BITS for ell in ells}
    assert widths == {True, False}
    for ell in ells:
        assert ln_ell_lo_and_delta_hi(ell) == _direct_pair(ell), ell


def test_one_wide_log_below_two_is_the_direct_pair():
    assert ln_ell_lo_and_delta_hi(1) == _direct_pair(1) == (0.0, log_int_bounds(64)[1])
    with pytest.raises(ValueError):
        ln_ell_lo_and_delta_hi(0)


def test_an_enclosure_across_a_float_midpoint_rounds_each_end_outward():
    # mid is the midpoint of two neighbouring floats d < d', in units of
    # 2^-96: an enclosure holding it has its ends rounded apart, each to a
    # proved bound, and one just beside it rounds both ends to that side
    up, dn = heights_module._up, heights_module._dn
    round_out = heights_module._round_out
    scale = 2.0**heights_module._FIX_BITS  # exact, unlike a power of an int
    for n in (2, 5, 17, 1728, 10**40 + 123, 64 * 641**3, 7**3000):
        d = up(round_out(*heights_module._ln_fixed(n))[0])  # before the nudge
        d_next = math.nextafter(d, math.inf)
        mid = (int(d * scale) + int(d_next * scale)) // 2
        assert Fraction(mid, 2**96) == (Fraction(d) + Fraction(d_next)) / 2, n
        assert round_out(mid - 1, mid + 1) == (dn(d), up(d_next))
        for lo, hi in ((mid - 1, mid + 1), (mid, mid), (mid - 40, mid + 40)):
            got_lo, got_hi = round_out(lo, hi)
            assert Fraction(got_lo) < Fraction(lo, 2**96) <= Fraction(hi, 2**96) < Fraction(got_hi)
        assert round_out(mid - 3, mid - 1) == (dn(d), up(d))
        assert round_out(mid + 1, mid + 3) == (dn(d_next), up(d_next))


def _fixed_point_domain():
    """ell from 2 to the widest with 64 ell^3 within _DIRECT_LN_BITS bits."""
    edge = _iroot((1 << (_DIRECT_LN_BITS - 6)) - 1, 3)
    rng = random.Random(20261021)
    ells = [2, 3, 4, 31, 32, 33, 63, 64, 65, 2**96 - 1, 2**96 + 1, 2**97 + 3]
    ells += [2**192 - 1, 2**192 + 1, 2**193 + 3]
    ells += [edge - 1, edge]
    ells += [rng.randrange(1 << (b - 1), 1 << b) for b in range(2, edge.bit_length())]
    return ells


def test_fixed_point_ln_encloses_a_90_digit_ln():
    scale = 1 << heights_module._FIX_BITS
    for ell in _fixed_point_domain():
        enc = heights_module._ln_fixed(ell)
        assert enc[1] - enc[0] == ell.bit_length() - 1 + heights_module._LN_FIX_ERR
        for (lo, hi), n in zip((enc, _delta_enclosure(*enc)), (ell, 64 * ell**3)):
            ref_lo, ref_hi = ln_oracle.dec_ln_bounds(n, prec=90)
            assert Fraction(lo, scale) <= Fraction(ref_lo), (ell, n)
            assert Fraction(ref_hi) < Fraction(hi, scale), (ell, n)


def test_the_enclosure_holds_a_90_digit_ln_up_to_2_21_bits():
    # the heights report takes ln max(|u|, w) of x(2^k P) up to the bit
    # budget; past _DIRECT_LN_BITS the oracle pins ln n to within 2^-250
    scale = 1 << heights_module._FIX_BITS
    rng = random.Random(20261025)
    widths = [_DIRECT_LN_BITS - 1, _DIRECT_LN_BITS, _DIRECT_LN_BITS + 1, 5000, 2**13,
              10**4, 2**14 + 3, 10**5, 2**17, 2**19 - 1, 2**20, 2**21 - 1, 2**21]
    assert heights_module._X_BITS_BUDGET == 2**21
    for b in widths:
        top = 1 << (b - 1)
        for n in (top, top + 1, rng.getrandbits(b) | top, (top << 1) - 1):
            lo, hi = heights_module._ln_fixed(n)
            assert hi - lo == b - 1 + heights_module._LN_FIX_ERR
            ref_lo, ref_hi = ln_oracle.dec_ln_bounds(n, prec=90)
            assert Fraction(lo, scale) <= Fraction(ref_lo), (b, n - top)
            assert Fraction(ref_hi) < Fraction(hi, scale), (b, n - top)


def test_the_delta_enclosure_holds_a_90_digit_ln_from_the_tightest_ell_one(monkeypatch):
    # with ln ell enclosed as tightly as integers allow, the upper end of
    # ln(64 ell^3) that ln_ell_lo_and_delta_hi rounds must still bound it
    scale = 1 << heights_module._FIX_BITS
    ctx = getcontext().copy()
    ctx.prec = 90

    def tightest(n):
        v = ctx.multiply(ctx.ln(Decimal(n)), Decimal(scale))
        f = int(v.to_integral_value(rounding=ROUND_FLOOR))
        return f, f + 1

    rounded = []
    real = heights_module._round_out
    monkeypatch.setattr(heights_module, "_ln_fixed", tightest)
    monkeypatch.setattr(heights_module, "_round_out",
                        lambda lo, hi: rounded.append(hi) or real(lo, hi))
    rng = random.Random(20261023)
    for ell in _fixed_point_domain() + [rng.randrange(2, 10**60) for _ in range(300)]:
        rounded.clear()
        ln_ell_lo_and_delta_hi(ell)
        hi, = rounded
        ref_hi = ln_oracle.dec_ln_bounds(64 * ell**3, prec=90)[1]
        assert Fraction(ref_hi) < Fraction(hi, scale), ell


def test_fixed_point_constants_match_a_decimal_reference():
    ctx = getcontext().copy()
    ctx.prec = 60
    scale = Decimal(1 << heights_module._FIX_BITS)  # exact, unlike a power
    top = 1 << heights_module._TOP_BITS

    def floor_scaled(x):
        v = ctx.multiply(ctx.ln(x), scale)
        f = int(v.to_integral_value(rounding=ROUND_FLOOR))
        assert Decimal("1e-30") < v - f < 1 - Decimal("1e-30")  # not near a jump
        return f

    assert heights_module._LN2_FIX == floor_scaled(Decimal(2))
    assert heights_module._LN_TOP_FIX == tuple(
        floor_scaled(ctx.divide(Decimal(top + j), Decimal(top))) if j else 0
        for j in range(top)
    )


def test_upper_gap_from_the_wide_log_is_silvermans():
    for s, t in ((1, 2), (2, 5), (3, 10), (400, 399)):
        c = make_family(s, t)
        h_delta_hi = ln_ell_lo_and_delta_hi(-c.a)[1]
        assert _silverman_upper_gap(h_delta_hi) == silverman_gaps(c).upper_gap


def test_ln_s_squared_matches_the_direct_call_up_to_5000():
    # both ends of log_int_bounds(s * s) are the oracle's, and the memo
    # holds the upper one
    for s in range(2, 5001):
        want = ln_oracle.log_int_bounds(s * s)
        assert log_int_bounds(s * s) == want, s
        assert primitivity._ln_s_squared_hi(s) == want[1], s


def test_ln_s_squared_matches_the_direct_call_up_to_1e60():
    rng = random.Random(20261022)
    ss = [rng.randrange(2, 10 ** rng.randint(1, 60)) for _ in range(2000)]
    expected = [ln_oracle.log_int_bounds(s * s)[1] for s in ss]
    assert [primitivity._ln_s_squared_hi(s) for s in ss] == expected


def test_ln_s_squared_across_the_direct_ln_width():
    # s^2 fits in _DIRECT_LN_BITS bits up to edge and no further; past it
    # the oracle truncates, and the memo still holds its float
    edge = math.isqrt((1 << _DIRECT_LN_BITS) - 1)
    ss = range(edge - 3, edge + 4)
    assert {(s * s).bit_length() <= _DIRECT_LN_BITS for s in ss} == {True, False}
    expected = [ln_oracle.log_int_bounds(s * s)[1] for s in ss]
    assert [primitivity._ln_s_squared_hi(s) for s in ss] == expected


#: "s,t,iterations" -> sha256 of the ``heights`` report, or the refusal up
#: to its reason, recorded at the real budget from the stepwise check
HEIGHTS_GRID = json.loads(
    (Path(__file__).parent / "data" / "heights_grid.json").read_text(encoding="utf-8"))


def test_heights_grid_matches_the_recorded_outcomes(capsys):
    # a report past 7 doublings takes from 0.1 s to 6 s, so those are left out
    refused = 0
    for key, want in HEIGHTS_GRID.items():
        s, t, iterations = map(int, key.split(","))
        if iterations > 7 and not want.startswith("REFUSED"):
            continue
        rc, out = _heights_outcome(s, t, iterations, capsys)
        assert (out if rc else hashlib.sha256(out.encode()).hexdigest()) == want, key
        refused += rc
    assert refused == 40


def _bits_after(height: int, m: int, gaps) -> Decimal:
    """2 (4^m (ln(H')/2 - lower_gap) - upper_gap) / ln 2 at 60 digits, with
    H' = 2^(bit_length(H) - 1): the lower bound on log2 max(|u|, w) of
    x(2^m Q) that ``_first_doubling_past_budget`` rounds down."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        half_h = (height.bit_length() - 1) * ln2 / 2
        return 2 * (4**m * (half_h - Decimal(gaps.lower_gap)) - Decimal(gaps.upper_gap)) / ln2


@pytest.mark.parametrize("budget", [5000, 1 << 21])
def test_the_doubling_lower_bound_is_the_height_gap_formula_rounded_down(budget, monkeypatch):
    monkeypatch.setattr(heights_module, "_X_BITS_BUDGET", budget)
    found = 0
    for s, t in ((1, 2), (2, 75), (3, 5)):
        gaps = silverman_gaps(make_family(s, t))
        for height in (5, 2**20 + 1, 3**200, 7**1000):
            for ahead in (1, 3, 12):
                exact = [_bits_after(height, m, gaps) for m in range(1, ahead + 1)]
                past = [m for m, bits in enumerate(exact, 1) if 4 * bits > budget - 3]
                got = heights_module._first_doubling_past_budget(height, ahead, gaps)
                if not past:
                    assert got is None, (s, t, height, ahead)
                    continue
                m, bits = got
                assert m == past[0], (s, t, height, ahead)
                assert exact[m - 1] * (1 - Decimal("1e-12")) <= Decimal(bits) <= exact[m - 1]
                found += 1
    assert found > 5
