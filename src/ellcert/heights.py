"""Naive and canonical heights with rigorous outward-rounded intervals.

All height computations run on exact integers until the final logarithms.
Each of those comes from one integer enclosure: ``_ln_fixed`` puts 2^96
ln n in [lo, hi] for every n >= 2, at any width (96 fractional bits, a
32-entry table of ln(1 + j/32) and an atanh series), and ``_round_out``
rounds each end to the nearest float and nudges it two floats outward.
``log_int_bounds`` is that pair, so every interval produced here is a
true enclosure: lo <= exact value <= hi.  No other logarithm is taken and
``decimal`` is never imported; the tests hold the floats to a Decimal
oracle.

The primitivity bound needs ln s^2 (for h(P)), ln l (for the height
floor) and ln(64 l^3) (for the Silverman gap) of one member;
``ln_ell_lo_and_delta_hi`` takes the last two from one enclosure of ln l.

Height convention: hhat = (1/2) * lim h(2^n P) / 4^n, i.e. the canonical
height of a point with x-coordinate n/d satisfies hhat ~ h/2 where
h = log max(|n|, |d|).  This is the non-doubled normalization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import kth_power_free
from .curve import Curve, Point, PointLike, INFINITY, is_torsion_point, on_curve
from .errors import PreconditionFailure

_INF = math.inf


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, _INF), _INF)


def _dn(x: float) -> float:
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


# ``_ln_fixed`` encloses ln n in integers, in units of 2^-96.
_FIX_BITS = 96
_FIX_ULP = 2.0**-_FIX_BITS
_TOP_BITS = 5
_SERIES_TERMS = 8
#: floor(2^96 ln 2) and floor(2^96 ln(1 + j/32)) for j = 0, ..., 31;
#: the tests recompute every one from a 60-digit Decimal logarithm.
_LN2_FIX = 54916777467707473351141471128
_LN_TOP_FIX = (
    0,
    2437981973683031897270060273,
    4803177389638314950708738231,
    7099806671920577301408496109,
    9331733490407339481906020321,
    11502503870107404337692598787,
    13615380083903437530024121358,
    15673370142048036580898171505,
    17679253547532294036705525221,
    19635603870744017016491661423,
    21544808603445689681226716612,
    23409086676302025342222363156,
    25230503962333098831887785676,
    27010987037939633518611545543,
    28752335431340614804114067435,
    30456232553652238021229151296,
    32124255479057406416523745725,
    33757883716484039880547412902,
    35358507095064588073411050443,
    36927432868695721367232483956,
    38465892130698103515515896908,
    39975045617439678339513773047,
    41455988969464745898429766046,
    42909757509865392868593310898,
    44337330592095756615844442015,
    45739635562960843946547867083,
    47117551380943088119399649195,
    48471911925222979207299269046,
    49803509026589700453229270947,
    51113095247827557626490273079,
    52401386438023554980861278381,
    53669064082503096097750462337,
)
#: Units of 2^-96, beyond one per power of 2, that ``_ln_fixed`` may lose.
_LN_FIX_ERR = 36


def _ln_fixed(n: int) -> tuple[int, int]:
    """Integer enclosure [a, a + e + ``_LN_FIX_ERR``] of 2^96 ln n, n >= 2,
    with e and a as below.

    Let S = 2^96 and write n = 2^e m with m in [1, 2).  Take M =
    floor(S m), its top five bits after the point as c = 1 + j/32, C = S c
    and z = (M - C) / (M + C).  Then ln n = e ln 2 + ln c + 2 atanh z
    + ln(S m / M) and a = e L2 + L_j + 2 sigma, with L2 and L_j the floors
    in ``_LN2_FIX`` and ``_LN_TOP_FIX`` and sigma the series below.  So
    S ln n - a is a sum of four shortfalls, none negative:

    * S e ln 2 - e L2 < e and S ln c - L_j < 1, as L2 and L_j are floors;
    * S ln(S m / M) < S (S m - M) / M < 1, as M >= S; it is 0 for
      e <= 96, where M = S m;
    * 2 (S atanh z - sigma) < 34.  Here 0 <= z < 2^-6, as M - C < S/32 and
      M + C >= 2S.  sigma sums floor(P_k / (2k + 1)) over k = 0..7 with
      P_0 = Z = floor(S z), Z2 = floor(Z^2 / S) and P_k =
      floor(P_(k-1) Z2 / S).  Each floor of nonnegative numbers rounds
      down, so P_k <= p_k = S z^(2k+1) and sigma <= S atanh z.  From
      S z^2 - Z2 < 1 + 2z, d_k = p_k - P_k obeys d_0 < 1 and d_k < 1 +
      z^(2k-1) (1 + 2z) + z^2 d_(k-1), so d_k < 2 for every k.  Term k of
      sigma is then short of p_k / (2k + 1) by at most (d_k + 2k) / (2k + 1)
      < 2, and the tail beyond k = 7 sums below S z^17 / (17 (1 - z^2))
      < 1, so S atanh z - sigma < 8 * 2 + 1 = 17.

    Adding up, 0 <= S ln n - a < e + 36.  The loop stops early once a
    P_k is 0, which changes nothing, as every later term is 0 too.
    """
    e = n.bit_length() - 1
    m = n << (_FIX_BITS - e) if e <= _FIX_BITS else n >> (e - _FIX_BITS)
    top = m >> (_FIX_BITS - _TOP_BITS)
    c = top << (_FIX_BITS - _TOP_BITS)
    z = ((m - c) << _FIX_BITS) // (m + c)
    z2 = z * z >> _FIX_BITS
    sigma = p = z
    for d in range(3, 2 * _SERIES_TERMS, 2):
        p = p * z2 >> _FIX_BITS
        if not p:
            break
        sigma += p // d
    a = e * _LN2_FIX + _LN_TOP_FIX[top - (1 << _TOP_BITS)] + 2 * sigma
    return a, a + e + _LN_FIX_ERR


def _round_out(lo: int, hi: int) -> tuple[float, float]:
    """Floats lo' <= lo 2^-96 and hi' >= hi 2^-96: each end rounded to
    nearest and nudged two floats outward.

    ``float(int)`` rounds correctly and 2^-96 scales exactly, so D =
    float(lo) 2^-96 is lo 2^-96 rounded to nearest.  A real that rounds to
    D lies above the midpoint of D and the float below it, so one step
    down is already below lo 2^-96; the upper end likewise, and the second
    step is slack.  For n of up to 4,096 bits these are the floats of the
    tests' Decimal oracle (a correctly rounded 50-digit ln n, padded one
    digit, then rounded and nudged the same way), which every record was
    first written from, whenever all of [(lo - 1) 2^-96, (hi + 1) 2^-96]
    rounds to one float: the oracle's padded ends lie in there, and
    rounding is monotone.  Otherwise (about 2^-40 of inputs, none on the
    test grids) an end may be one float from the oracle's, and is still a
    proved bound.
    """
    return _dn(float(lo) * _FIX_ULP), _up(float(hi) * _FIX_ULP)


def log_int_bounds(n: int) -> tuple[float, float]:
    """Float enclosure of ln(n) for n >= 1, of any width.

    ``_ln_fixed``'s enclosure is (e + 36) 2^-96 wide for n of e + 1 bits,
    below 2^-60 for n of fewer than 2^35 bits, and floats near ln n >= ln 2
    are at least 2^-53 apart: the two ends are at most five floats apart.
    """
    if n < 1:
        raise ValueError("log_int_bounds: n must be >= 1")
    if n == 1:
        return 0.0, 0.0
    return _round_out(*_ln_fixed(n))


#: ``log_int_bounds(2)``, and the upper end of ``log_int_bounds(1728)``,
#: an upper bound of h(j) = ln 1728 for the j-invariant of every member.
LOG2_BOUNDS = log_int_bounds(2)
LOG1728_HI = log_int_bounds(1728)[1]


def ln_ell_lo_and_delta_hi(ell: int) -> tuple[float, float]:
    """Lower bound of ln ell and upper bound of ln(64 ell^3), from one
    fixed-point ln of ell.

    ``_ln_fixed`` encloses 2^96 ln ell as [lo, hi], so 2^96 ln(64 ell^3) =
    3 (2^96 ln ell) + 6 (2^96 ln 2) lies in [3 lo + 6 L2, 3 hi + 6 L2 + 6],
    as 6 L2 falls short of 6 S ln 2 by less than 6.  Each end is rounded
    out by ``_round_out``: the first is ``log_int_bounds(ell)[0]``, and the
    second is ``log_int_bounds(64 * ell**3)[1]`` wherever both enclosures
    decide its rounding.  ell = 1 takes the two direct calls.
    """
    if ell < 2:
        return log_int_bounds(ell)[0], log_int_bounds(64 * ell**3)[1]
    lo, hi = _ln_fixed(ell)
    return _round_out(lo, 3 * hi + 6 * _LN2_FIX + 6)


def naive_height_bounds(pt: PointLike) -> tuple[float, float]:
    """Enclosure of ln max(|num|, den) of the x-coordinate; 0 at infinity."""
    if pt is INFINITY:
        return 0.0, 0.0
    return log_int_bounds(max(abs(pt.x.numerator), pt.x.denominator))


def naive_height(pt: PointLike) -> float:
    """h(P) = log max(|n|, |d|) for x(P) = n/d in lowest terms; h(inf) = 0."""
    lo, hi = naive_height_bounds(pt)
    return (lo + hi) / 2.0


class SilvermanBounds(NamedTuple):
    """Gap bounds between hhat and h/2, both rounded up (conservative).

    -lower_gap <= hhat(Q) - h(Q)/2 <= upper_gap for every rational point Q,
    with lower_gap = h(j)/8 + h(Delta)/12 + 0.973 and
    upper_gap = h(j)/12 + h(Delta)/12 + 1.07.  [Silverman, height difference
    bounds for Weierstrass models]
    """

    lower_gap: float
    upper_gap: float


def silverman_gaps(c: Curve) -> SilvermanBounds:
    # j = 1728 and Delta = -64 a^3 for every y^2 = x^3 + a x
    hdelta = log_int_bounds(64 * abs(c.a) ** 3)[1]
    lower = _up(_up(LOG1728_HI / 8.0 + hdelta / 12.0) + 0.973)
    return SilvermanBounds(lower_gap=lower, upper_gap=_silverman_upper_gap(hdelta))


def _silverman_upper_gap(hdelta_hi: float) -> float:
    """``upper_gap`` of ``silverman_gaps`` from an upper bound of h(Delta)."""
    return _up(_up(LOG1728_HI / 12.0 + hdelta_hi / 12.0) + 1.07)


class HeightInterval(NamedTuple):
    lo: float
    hi: float
    iterations: int


def _x_double(a: int, u: int, w: int) -> tuple[int, int]:
    """Reduced x(2Q) = u'/w' from reduced x(Q) = u/w on y^2 = x^3 + a x.

    x(2Q) = (x^2 - a)^2 / (4(x^3 + a x)).  Full x/y arithmetic through
    Fraction re-normalizes at every intermediate operation, which is
    quadratically painful once coordinates reach 10^5 digits; one gcd per
    doubling on the final pair is all that is actually needed.

    The denominator is 0 only for a 2-torsion Q.  ``canonical_height``
    refuses a torsion P first, and no multiple of a point of infinite
    order is torsion, so a 0 here is a soundness alarm.
    """
    uu = u * u
    ww = w * w
    num = (uu - a * ww) ** 2
    den = 4 * u * w * (uu + a * ww)
    assert den != 0, f"doubling x = {u}/{w} on y^2 = x^3 + {a} x reached infinity"
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


#: Bits of max(|u|, w) for x(2^k P) = u/w past which no doubling starts;
#: (s, t) = (2, 75) reaches 410,604 bits at k = 8 and still takes k = 9.
_X_BITS_BUDGET = 1 << 21


def _first_doubling_past_budget(height: int, ahead: int, gaps: SilvermanBounds
                                ) -> tuple[int, float] | None:
    """The least m <= ``ahead`` whose proven lower bound on log2 max(|u|, w)
    of x(2^m Q) = u/w puts the bound of the doubling after it past
    ``_X_BITS_BUDGET``, with that lower bound; None if no m does.

    From H = max(|num|, den) of x(Q): hhat(Q) >= ln(H)/2 - lower_gap,
    hhat(2^m Q) = 4^m hhat(Q), and ln max(|u|, w) >= 2 (hhat(2^m Q) -
    upper_gap), each step rounded down.  The lower bound grows fourfold in
    m once it is positive, so the search ends long before ``ahead``.
    """
    log2_lo, log2_hi = LOG2_BOUNDS
    margin = _dn(_dn(_dn((height.bit_length() - 1) * log2_lo) / 2.0) - gaps.lower_gap)
    if margin <= 0.0:
        return None
    for m in range(1, ahead + 1):
        hhat = math.ldexp(margin, 2 * m)  # exact: margin times 4^m
        bits = _dn(2.0 * _dn(hhat - gaps.upper_gap) / log2_hi)
        if 4.0 * bits > _X_BITS_BUDGET - 3:
            return m, bits
    return None


def x_multiple_reduced(c: Curve, pt: Point, doublings: int) -> tuple[int, int]:
    """Reduced (numerator, denominator) of x(2^k P).

    Each doubling roughly quadruples the bits and costs about 15 times the
    one before, so a doubling whose result could pass ``_X_BITS_BUDGET``
    bits is refused (``height-digit-budget``) before it starts.  With u, w
    and a below 2^bu, 2^bw and 2^ba, |u^2 - a w^2| < 2^(B+1) for B =
    max(2 bu, ba + 2 bw), and bu + bw <= B, so the numerator
    (u^2 - a w^2)^2 and the denominator 4 u w (u^2 + a w^2) of x(2Q) are
    below 2^(2B+3), and the gcd only shrinks them.

    That bound, 2B + 3, is above 4 log2 max(|u|, w) + 3.  So before each
    doubling the later ones are checked as well, through the proven lower
    bounds of ``_first_doubling_past_budget``: when one of them passes the
    budget, the refusal comes at once, not after the doublings in between,
    whose results it would discard.  The stepwise check above would refuse
    the doubling it names, or an earlier one, so the outcome is the same; a
    request the budget admits does every doubling as before.
    """
    u, w = pt.x.numerator, pt.x.denominator
    a_bits = abs(c.a).bit_length()
    gaps = silverman_gaps(c) if doublings > 1 else None
    for k in range(1, doublings + 1):
        bound = 2 * max(2 * abs(u).bit_length(), a_bits + 2 * w.bit_length()) + 3
        if bound > _X_BITS_BUDGET:
            raise PreconditionFailure(
                "height-digit-budget",
                f"x(2^{k} P) could reach {bound} bits, past the budget of "
                f"{_X_BITS_BUDGET}",
            )
        past = k < doublings and _first_doubling_past_budget(
            max(abs(u), w), doublings - k, gaps)
        if past:
            last = k + past[0]
            raise PreconditionFailure(
                "height-digit-budget",
                f"the doubling to x(2^{last} P) could pass the budget of "
                f"{_X_BITS_BUDGET} bits: by the height gaps and hhat(2^k P) = "
                f"4^k hhat(P), x(2^{last - 1} P) has more than {past[1]:.7g} bits",
            )
        u, w = _x_double(c.a, u, w)
    return u, w


def canonical_height(c: Curve, pt: PointLike, iterations: int = 5) -> HeightInterval:
    """Enclosure of hhat(P) from k doublings.

    hhat(P) = hhat(2^k P) / 4^k and the Silverman gaps applied to 2^k P give
    [h(2^k P)/(2*4^k) - lower_gap/4^k, h(2^k P)/(2*4^k) + upper_gap/4^k],
    an interval of width (lower_gap + upper_gap)/4^k around the truth.
    """
    if iterations < 1:
        raise ValueError("canonical_height: iterations must be >= 1")
    if pt is INFINITY or not on_curve(c, pt):
        raise ValueError("canonical_height: need an affine point on the curve")
    if is_torsion_point(c, pt):
        raise PreconditionFailure("torsion-point", "canonical height would be 0")
    u, w = x_multiple_reduced(c, pt, iterations)
    h_lo, h_hi = log_int_bounds(max(abs(u), w))
    gaps = silverman_gaps(c)
    four_k = 4.0**iterations
    lo = _dn(_dn(h_lo / (2.0 * four_k)) - _up(gaps.lower_gap / four_k))
    hi = _up(_up(h_hi / (2.0 * four_k)) + _up(gaps.upper_gap / four_k))
    return HeightInterval(lo=lo, hi=hi, iterations=iterations)


#: Residue rows of the canonical-height floor for y^2 = x^3 + a x with a < 0.
#: [Voutier-Yabuta, sharp lower bounds for quartic twists]
_VY_ROW_A = frozenset({1, 5, 7, 9, 13, 15})  # a mod 16
_VY_ROW_B16 = frozenset({2, 3, 6, 8, 10, 11, 12, 14})  # a mod 16
_VY_ROW_B64 = frozenset({20, 36})  # a mod 64
_VY_ROW_C64 = frozenset({4, 52})  # a mod 64


def _vy_log2_coeff(a: int) -> int:
    """The floor's c(a) in units of log 2 / 16, for a < 0 not divisible by 16.

    Only the rows of negative a are carried: every member has a = -l.
    """
    assert a < 0, f"no height-floor row is carried for a={a} >= 0"
    r16, r64 = a % 16, a % 64
    if r16 in _VY_ROW_A:
        return 9
    if r64 in _VY_ROW_B64 or r16 in _VY_ROW_B16:
        return 5
    assert r64 in _VY_ROW_C64, f"16 divides a={a}, so it is not fourth-power-free"
    return -1


#: Bits of |a| past which ``vy_lower_bound`` refuses before its trial
#: division: fourth-power-freeness takes up to |a|^(1/5) / 2 divisions,
#: about 5 * 10^5 (0.05 s) at 100 bits, and 32 times as many per 25 bits more
_VY_MAX_BITS = 100


def vy_lower_bound(a: int) -> float:
    """Strict lower bound for hhat(Q), Q non-torsion on y^2 = x^3 + a x.

    Value (1/16) log|a| + c(a) with c(a) a residue-class multiple of log 2;
    c(a) may be negative and is not clamped.  Rounded down, so the returned
    float is itself a valid lower bound.  Requires a negative and
    fourth-power-free, with at most ``_VY_MAX_BITS`` bits, so that the
    trial division that proves it fourth-power-free stays short.
    """
    if a >= 0:
        raise ValueError("vy_lower_bound: a must be negative")
    if a.bit_length() > _VY_MAX_BITS:
        raise ValueError(
            f"vy_lower_bound: a has {a.bit_length()} bits, past the {_VY_MAX_BITS} "
            "up to which its fourth-power-freeness is tested")
    if not kth_power_free(a, 4):
        raise ValueError(f"vy_lower_bound: a={a} is not fourth-power-free")
    return _vy_floor(a, log_int_bounds(abs(a))[0])


def _vy_floor(a: int, ln_a_lo: float) -> float:
    """``vy_lower_bound`` for a caller that already knows a is negative and
    fourth-power-free and holds ``log_int_bounds(abs(a))[0]`` as ``ln_a_lo``;
    nothing here checks any of the three."""
    coeff = _vy_log2_coeff(a)
    log2_lo, log2_hi = LOG2_BOUNDS
    c_term = coeff / 16 * (log2_lo if coeff > 0 else log2_hi)
    return _dn(_dn(ln_a_lo / 16.0) + _dn(c_term))
