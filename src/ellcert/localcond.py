"""Depth of the base point in the kernel-of-reduction filtration at p.

For a family member with p dividing exactly one of s, t to order >= n+1,
the doubled base point sits at least n+1 layers deep in the formal-group
filtration of E(Q_p).  That depth is what the class-number divisibility
criterion consumes; this module computes it exactly and packages the
verified valuations as a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import is_prime, vp
from .curve import Curve, base_point, count_points_mod_p, reduction_at, smul
from .errors import PreconditionFailure

_COUNT_LIMIT = 10**4


def formal_parameter(pt) -> Fraction:
    """z = -x/y, the standard parameter at infinity; v_p(z) is the filtration depth."""
    if pt is None or pt.y == 0:
        raise ValueError("formal_parameter: needs an affine point with y != 0")
    return -pt.x / pt.y


class LocalCert(NamedTuple):
    s: int
    t: int
    p: int
    n: int
    flagged: str  # which of "s", "t" the prime divides
    v_st: int
    x_doubled_valuation: int
    y_doubled_valuation: int
    depth: int  # v_p(z(2P)), equals v_st
    reduction_good: bool
    order_mod_p_even: bool
    order_parity_method: str  # "counted" or "rational-two-torsion"
    holds: bool


def check_local(c: Curve, p: int, n: int) -> LocalCert:
    """Verify v_p(z(2P)) >= n+1 for the base point P of the family curve
    c = E_{s,t}, which carries s and t.

    Requires p an odd prime dividing exactly one of s and t, with
    p^(n+1) | s t.  All valuations are recomputed from the exact doubled
    point, not assumed.
    """
    if n < 1:
        raise PreconditionFailure("depth-target", f"n={n} must be >= 1")
    if p == 2 or not is_prime(p):
        raise PreconditionFailure("p-not-odd-prime", f"p={p}")
    s, t = c.s, c.t
    if s == 0 or t == 0:
        raise PreconditionFailure("degenerate-parameters", f"(s,t)=({s},{t})")
    v_s = vp(s, p)
    v_t = vp(t, p)
    if (v_s > 0) == (v_t > 0):
        raise PreconditionFailure(
            "p-divides-exactly-one",
            f"p={p} divides {'both' if v_s else 'neither'} of s={s}, t={t}",
        )
    v_st = v_s + v_t
    if v_st < n + 1:
        raise PreconditionFailure(
            "insufficient-depth", f"v_p(st)={v_st} < n+1={n + 1}"
        )

    doubled = smul(c, 2, base_point(c))
    assert doubled is not None
    xv = vp(doubled.x, p)
    yv = vp(doubled.y, p)
    # p coprime to the unflagged parameter forces these exact valuations
    assert xv == -2 * v_st, (xv, v_st)
    assert yv == -3 * v_st, (yv, v_st)
    depth = vp(formal_parameter(doubled), p)
    assert depth == xv - yv == v_st

    red = reduction_at(c, p)
    if not red.good:
        raise PreconditionFailure("bad-reduction", f"p={p} divides 2(s^4+t^2)")

    # (0, 0) survives reduction, so #E(F_p) is always even; for small p
    # confirm by counting instead of arguing
    if p <= _COUNT_LIMIT:
        even = count_points_mod_p(c, p) % 2 == 0
        parity_method = "counted"
    else:
        even = True
        parity_method = "rational-two-torsion"

    return LocalCert(
        s=s,
        t=t,
        p=p,
        n=n,
        flagged="s" if v_s > 0 else "t",
        v_st=v_st,
        x_doubled_valuation=xv,
        y_doubled_valuation=yv,
        depth=depth,
        reduction_good=red.good,
        order_mod_p_even=even,
        order_parity_method=parity_method,
        holds=depth >= n + 1 and red.good and even,
    )
