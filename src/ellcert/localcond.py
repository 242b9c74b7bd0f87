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
    """What the ledger records about the base point's depth at p."""

    flagged: str  # which of "s", "t" the prime divides
    v_st: int
    x_doubled_valuation: int
    y_doubled_valuation: int
    depth: int  # v_p(z(2P)), equals v_st
    order_parity_method: str  # "counted" or "rational-two-torsion"


def check_local(c: Curve, p: int, n: int) -> LocalCert:
    """Verify v_p(z(2P)) >= n+1 for the base point P of the family curve
    c = E_{s,t}, which carries s and t.

    Requires p an odd prime dividing exactly one of s and t, with
    p^(n+1) | s t, and good reduction at p.  All valuations are recomputed
    from the exact doubled point, not assumed.

    #E(F_p) is even because (0, 0) reduces to a point of order 2.  For
    p <= 10^4 the points are counted anyway, and an odd count raises
    AssertionError naming (s, t, p): it would be a bug in this code, not
    a property of the candidate, so it is a soundness alarm and never a
    refusal.
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

    if not reduction_at(c, p).good:
        raise PreconditionFailure("bad-reduction", f"p={p} divides 2(s^4+t^2)")

    # even by structure (see above); for small p the count re-checks it
    if p <= _COUNT_LIMIT:
        if count_points_mod_p(c, p) % 2:
            raise AssertionError(f"odd #E(F_p) at (s,t)=({s},{t}), p={p}")
        parity_method = "counted"
    else:
        parity_method = "rational-two-torsion"

    return LocalCert(
        flagged="s" if v_s > 0 else "t",
        v_st=v_st,
        x_doubled_valuation=xv,
        y_doubled_valuation=yv,
        depth=depth,
        order_parity_method=parity_method,
    )
