"""Naive and canonical heights with rigorous outward-rounded intervals.

All height computations run on exact integers until the final logarithms.
Those are taken through ``decimal`` (whose ln is correctly rounded) with an
explicit one-ulp pad in each direction, then converted to floats with a
two-ulp outward nudge.  Every interval produced here is therefore a true
enclosure: lo <= exact value <= hi.

The primitivity bound needs ln l (for the height floor) and ln(64 l^3)
(for the Silverman gap) of one member.  ``ln_ell_lo_and_delta_hi`` takes
both from a single wider logarithm of l and returns exactly the floats of
the two direct ``log_int_bounds`` calls, falling back to those calls in
the rare case where it cannot prove that.

Height convention: hhat = (1/2) * lim h(2^n P) / 4^n, i.e. the canonical
height of a point with x-coordinate n/d satisfies hhat ~ h/2 where
h = log max(|n|, |d|).  This is the non-doubled normalization.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .arith import kth_power_free
from .curve import Curve, Point, PointLike, INFINITY, is_torsion_point, on_curve
from .errors import PreconditionFailure

_INF = math.inf


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, _INF), _INF)


def _dn(x: float) -> float:
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


_DEC_PREC = 50
#: Integers wider than this go through the shift-truncation path below.
_DIRECT_LN_BITS = 4096


def dec_ln_bounds(n: int, prec: int = _DEC_PREC) -> tuple[Decimal, Decimal]:
    """Enclosure of ln(n) as Decimals, n >= 1.

    decimal's ln is correctly rounded (error <= 0.5 ulp) but ignores the
    context rounding direction, so pad one ulp outward by hand.
    """
    if n < 1:
        raise ValueError("dec_ln_bounds: n must be >= 1")
    if n == 1:
        zero = Decimal(0)
        return zero, zero
    with localcontext() as ctx:
        ctx.prec = prec
        v = Decimal(n).ln()
        ulp = Decimal(1).scaleb(v.adjusted() - prec + 1)
        # widen so the +- 1 ulp is exact; the ambient 28-digit context
        # would otherwise round the pad away again
        ctx.prec = prec + 2
        return v - ulp, v + ulp


_LN2_LO, _LN2_HI = dec_ln_bounds(2)
LOG2_BOUNDS = (_dn(float(_LN2_LO)), _up(float(_LN2_HI)))


def log_int_bounds(n: int) -> tuple[float, float]:
    """Float enclosure of ln(n) for n >= 1, safe for huge integers.

    Wide integers are truncated to their top 256 bits: with m = n >> shift,
    m * 2^shift <= n <= (m+1) * 2^shift pins ln(n) between two cheap
    logarithms, avoiding any full-precision conversion.
    """
    if n < 1:
        raise ValueError("log_int_bounds: n must be >= 1")
    if n == 1:
        return 0.0, 0.0
    bits = n.bit_length()
    if bits <= _DIRECT_LN_BITS:
        lo_d, hi_d = dec_ln_bounds(n)
    else:
        shift = bits - 256
        m = n >> shift
        with localcontext() as ctx:
            ctx.prec = _DEC_PREC
            lo_d = dec_ln_bounds(m)[0] + shift * _LN2_LO
            hi_d = dec_ln_bounds(m + 1)[1] + shift * _LN2_HI
        # the two context-rounded additions cost at most one ulp each
        pad = Decimal(1).scaleb(hi_d.adjusted() - _DEC_PREC + 3)
        lo_d -= pad
        hi_d += pad
    return _dn(float(lo_d)), _up(float(hi_d))


#: Upper bound of h(j) = ln 1728, the j-invariant of every family member.
LOG1728_HI = log_int_bounds(1728)[1]

# ``ln_ell_lo_and_delta_hi`` works at 60 digits and rounds to 50.  Each
# context names its own rounding, so an ambient context cannot reach it.
_WIDE_PREC = 60
_WIDE = Context(prec=_WIDE_PREC, rounding=ROUND_HALF_EVEN)
_NARROW = Context(prec=_DEC_PREC, rounding=ROUND_HALF_EVEN)
_EXACT = Context(prec=_WIDE_PREC + 4, rounding=ROUND_HALF_EVEN)  # exact on +- pads
_LN64_WIDE = Decimal(64).ln(_WIDE)
#: Error bounds, in last-place units of the 60-digit value, padded: the
#: wide ln l is correctly rounded (half an ulp); 3 ln l + ln 64 carries
#: three times that, half an ulp of ln 64 and half of the fused
#: multiply-add, 2.5 ulps in all, as the sum is at least each term.
_LN_ELL_ERR_ULPS = 1
_LN_DELTA_ERR_ULPS = 10


def _round_to_dec_prec(x: Decimal, err_ulps: int) -> Decimal | None:
    """The 50-digit ``dec_ln_bounds`` centre of a value known to lie within
    ``err_ulps`` last-place units of the 60-digit ``x``, or None.

    Half-even rounding is monotone, so when both ends of the error interval
    round to one value, so does the exact logarithm inside it, and that
    value is the correctly rounded 50-digit ln that ``dec_ln_bounds`` starts
    from.  Otherwise a rounding boundary lies within the interval and the
    caller must take the direct logarithm.
    """
    err = Decimal(err_ulps).scaleb(x.adjusted() - _WIDE_PREC + 1, _EXACT)
    lo = _NARROW.plus(_EXACT.subtract(x, err))
    hi = _NARROW.plus(_EXACT.add(x, err))
    return lo if lo == hi else None


def _dec_ulp(v: Decimal) -> Decimal:
    """One unit in the last of the 50 digits of ``v``, as in ``dec_ln_bounds``."""
    return Decimal(1).scaleb(v.adjusted() - _DEC_PREC + 1, _EXACT)


def ln_ell_lo_and_delta_hi(ell: int) -> tuple[float, float]:
    """``(log_int_bounds(ell)[0], log_int_bounds(64 * ell**3)[1])``, the floats
    bit for bit, from one 60-digit ln of ell in place of two 50-digit logs.

    ln(64 ell^3) is formed as 3 ln ell + ln 64 at 60 digits; each value is
    kept only if its whole error interval rounds to one 50-digit value (see
    ``_round_to_dec_prec``), which is then the ``dec_ln_bounds`` centre,
    padded and converted the same way.  Otherwise, and for ell < 2 or a
    64 ell^3 that ``log_int_bounds`` would truncate, the two direct calls
    answer.
    """
    if ell >= 2 and (64 * ell**3).bit_length() <= _DIRECT_LN_BITS:
        ln_ell = Decimal(ell).ln(_WIDE)
        ell_c = _round_to_dec_prec(ln_ell, _LN_ELL_ERR_ULPS)
        ln_delta = _WIDE.fma(3, ln_ell, _LN64_WIDE)
        delta_c = _round_to_dec_prec(ln_delta, _LN_DELTA_ERR_ULPS)
        if ell_c is not None and delta_c is not None:
            return (_dn(float(_EXACT.subtract(ell_c, _dec_ulp(ell_c)))),
                    _up(float(_EXACT.add(delta_c, _dec_ulp(delta_c)))))
    return log_int_bounds(ell)[0], log_int_bounds(64 * ell**3)[1]


def _x_height_int(pt: Point) -> int:
    """max(|num|, den) of the x-coordinate."""
    return max(abs(pt.x.numerator), pt.x.denominator)


def naive_height_bounds(pt: PointLike) -> tuple[float, float]:
    if pt is INFINITY:
        return 0.0, 0.0
    return log_int_bounds(_x_height_int(pt))


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
    """
    uu = u * u
    ww = w * w
    num = (uu - a * ww) ** 2
    den = 4 * u * w * (uu + a * ww)
    if den == 0:
        raise PreconditionFailure("torsion-point", "doubling reached infinity")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def x_multiple_reduced(c: Curve, pt: Point, doublings: int) -> tuple[int, int]:
    """Reduced (numerator, denominator) of x(2^k P)."""
    u, w = pt.x.numerator, pt.x.denominator
    for _ in range(doublings):
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


#: Residue rows of the canonical-height floor for y^2 = x^3 + a x, keyed by
#: sign of a; each entry is (numerator of c in units of log2 / 16).
#: [Voutier-Yabuta, sharp lower bounds for quartic twists]
_VY_ROW_A = frozenset({1, 5, 7, 9, 13, 15})  # a mod 16
_VY_ROW_B16 = frozenset({2, 3, 6, 8, 10, 11, 12, 14})  # a mod 16
_VY_ROW_B64 = frozenset({20, 36})  # a mod 64
_VY_ROW_C64 = frozenset({4, 52})  # a mod 64


def _vy_log2_coeff(a: int) -> Fraction:
    r16 = a % 16
    r64 = a % 64
    if a > 0:
        if r16 in _VY_ROW_A:
            return Fraction(8, 16)
        if r64 in _VY_ROW_B64 or r16 in _VY_ROW_B16:
            return Fraction(4, 16)
        if r64 in _VY_ROW_C64:
            return Fraction(-2, 16)
    else:
        if r16 in _VY_ROW_A:
            return Fraction(9, 16)
        if r64 in _VY_ROW_B64 or r16 in _VY_ROW_B16:
            return Fraction(5, 16)
        if r64 in _VY_ROW_C64:
            return Fraction(-1, 16)
    raise ValueError(f"vy_lower_bound: residue table does not cover a={a}")


def vy_lower_bound(a: int) -> float:
    """Strict lower bound for hhat(Q), Q non-torsion on y^2 = x^3 + a x.

    Value (1/16) log|a| + c(a) with c(a) a residue-class multiple of log 2;
    c(a) may be negative and is not clamped.  Rounded down, so the returned
    float is itself a valid lower bound.  Requires a fourth-power-free.
    """
    if a == 0:
        raise ValueError("vy_lower_bound: a must be nonzero")
    if not kth_power_free(a, 4):
        raise ValueError(f"vy_lower_bound: a={a} is not fourth-power-free")
    return _vy_floor(a, log_int_bounds(abs(a))[0])


def _vy_floor(a: int, ln_a_lo: float) -> float:
    """``vy_lower_bound`` for a caller that already knows a is nonzero and
    fourth-power-free and holds ``log_int_bounds(abs(a))[0]`` as ``ln_a_lo``;
    nothing here checks any of the three."""
    coeff = _vy_log2_coeff(a)
    log2_lo, log2_hi = LOG2_BOUNDS
    c_term = float(coeff) * (log2_lo if coeff > 0 else log2_hi)
    return _dn(_dn(ln_a_lo / 16.0) + _dn(c_term))
