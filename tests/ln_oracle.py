"""Decimal logarithms of integers, and the float enclosure built from them.

Test oracle.  ``ellcert.heights`` takes every logarithm from one integer
enclosure and never imports ``decimal``; this is the Decimal reference the
tests hold it to.  ``log_int_bounds`` is the float enclosure that every
certificate float was first computed from: a correctly rounded 50-digit
ln n, padded one digit outward, rounded to the nearest float and nudged
two floats outward.  Integers wider than ``DIRECT_LN_BITS`` are truncated
to their top 256 bits first: with m = n >> shift, m 2^shift <= n <
(m + 1) 2^shift pins ln n between two cheap logarithms.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

DEC_PREC = 50
#: Integers wider than this go through the shift-truncation path.
DIRECT_LN_BITS = 4096


def _direct_ln_bounds(n: int, prec: int) -> tuple[Decimal, Decimal]:
    """ln n, n >= 2, correctly rounded to ``prec`` digits, padded one unit
    of its last digit each way: decimal's ln is correctly rounded (error
    <= 0.5 ulp) but ignores the context rounding direction."""
    with localcontext() as ctx:
        ctx.prec = prec
        v = Decimal(n).ln()
        ulp = Decimal(1).scaleb(v.adjusted() - prec + 1)
        # widen so the +- 1 ulp is exact; the ambient context would
        # otherwise round the pad away again
        ctx.prec = prec + 2
        return v - ulp, v + ulp


def dec_ln_bounds(n: int, prec: int = DEC_PREC) -> tuple[Decimal, Decimal]:
    """Enclosure of ln n as Decimals, n >= 1, of any width."""
    if n < 1:
        raise ValueError("dec_ln_bounds: n must be >= 1")
    if n == 1:
        return Decimal(0), Decimal(0)
    bits = n.bit_length()
    if bits <= DIRECT_LN_BITS:
        return _direct_ln_bounds(n, prec)
    shift = bits - 256
    m = n >> shift
    ln2_lo, ln2_hi = _direct_ln_bounds(2, prec)
    with localcontext() as ctx:
        ctx.prec = prec
        lo = _direct_ln_bounds(m, prec)[0] + shift * ln2_lo
        hi = _direct_ln_bounds(m + 1, prec)[1] + shift * ln2_hi
        # the two context-rounded additions cost at most one ulp each
        pad = Decimal(1).scaleb(hi.adjusted() - prec + 3)
        ctx.prec = prec + 4
        return lo - pad, hi + pad


def log_int_bounds(n: int) -> tuple[float, float]:
    """Float enclosure of ln n for n >= 1, from ``dec_ln_bounds`` at 50
    digits."""
    lo, hi = dec_ln_bounds(n)
    if n == 1:
        return 0.0, 0.0
    down = math.nextafter(math.nextafter(float(lo), -math.inf), -math.inf)
    return down, math.nextafter(math.nextafter(float(hi), math.inf), math.inf)
