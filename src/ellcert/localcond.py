"""Depth of the base point in the kernel-of-reduction filtration at p.

For a family member with p dividing exactly one of s, t to order >= n+1,
the doubled base point sits at least n+1 layers deep in the formal-group
filtration of E(Q_p).  That depth is what the class-number divisibility
criterion consumes.  The family's closed form for 2P gives it exactly in
integer arithmetic, and this module packages the verified valuations as
a certificate.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import is_prime, vp
from .curve import Curve, count_points_mod_p
from .errors import PreconditionFailure

_COUNT_LIMIT = 10**4


class LocalCert(NamedTuple):
    """What the ledger records about the base point's depth at p."""

    flagged: str  # which of "s", "t" the prime divides
    v_st: int
    x_doubled_valuation: int
    y_doubled_valuation: int
    depth: int  # v_p(z(2P)) for the parameter z = -x/y, equals v_st
    order_parity_method: str  # "counted" or "rational-two-torsion"


def check_local(s: int, t: int, p: int, n: int) -> LocalCert:
    """Verify v_p(z(2P)) >= n+1 for the base point P = (-s^2, s t) of the
    family curve E_{s,t}: y^2 = x^3 + a x, a = -(s^4 + t^2).

    The caller's contract is n >= 1, p an odd prime and s, t nonzero.
    Every certifier refuses any other input first: n as ``depth-target``
    and p as ``p-out-of-range`` before the member is built, and a zero s
    or t as ``nonsquare-ell``, since it makes l = t^2 or s^4 a square.  So
    a breach is an AssertionError, a soundness alarm.  Refused here is a p
    that divides both or neither of s and t, or too few times.

    With p dividing exactly one of s and t, and p^(n+1) | s t, the
    doubled point has the closed form

        2P = (X / (4 s^2 t^2), -Y / (8 s^3 t^3)),
        X = u^2,  Y = u w,  u = 2s^4 + t^2,  w = 4s^8 + 4s^4 t^2 - t^4,

    checked on the curve in integers as Y^2 = X^3 + a X (4 s^2 t^2)^2.
    If p | s only, then u = t^2 and w = -t^4 mod p; if p | t only, then
    u = 2s^4 and w = 4s^8 mod p.  As p is odd it divides neither u nor w,
    so v_p(x(2P)) = -2 v_p(st), v_p(y(2P)) = -3 v_p(st), and the depth
    v_p(x/y) is v_p(st).  These valuations are recomputed and asserted,
    not assumed.  The same premise gives p not dividing 2(s^4 + t^2), so
    reduction at p is good; the ledger records it without a test.

    #E(F_p) is even because (0, 0) reduces to a point of order 2.  For
    p <= 10^4 the points are counted anyway, and an odd count raises
    AssertionError naming (s, t, p): it would be a bug in this code, not
    a property of the candidate, so it is a soundness alarm and never a
    refusal.
    """
    assert n >= 1 and p != 2 and is_prime(p) and s and t, (s, t, p, n)
    s_flagged = s % p == 0
    if s_flagged == (t % p == 0):
        raise PreconditionFailure(
            "p-divides-exactly-one",
            f"p={p} divides {'both' if s_flagged else 'neither'} of s={s}, t={t}",
        )
    v_st = vp(s if s_flagged else t, p)
    if v_st < n + 1:
        raise PreconditionFailure(
            "insufficient-depth", f"v_p(st)={v_st} < n+1={n + 1}"
        )

    s2, t2 = s * s, t * t
    s4 = s2 * s2
    a = -(s4 + t2)
    u = 2 * s4 + t2
    x_num, y_num = u * u, u * (4 * s4 * s4 + 4 * s4 * t2 - t2 * t2)
    x_den = 4 * s2 * t2
    assert y_num * y_num == x_num**3 + a * x_num * x_den * x_den, (s, t)
    # p is odd, so the constants 4 and 8 of the denominators are units
    xv = vp(x_num, p) - 2 * v_st
    yv = vp(y_num, p) - 3 * v_st
    assert xv == -2 * v_st, (xv, v_st)
    assert yv == -3 * v_st, (yv, v_st)
    depth = xv - yv
    assert depth == v_st

    # even by structure (see above); for small p the count re-checks it
    if p <= _COUNT_LIMIT:
        if count_points_mod_p(Curve(a), p) % 2:
            raise AssertionError(f"odd #E(F_p) at (s,t)=({s},{t}), p={p}")
        parity_method = "counted"
    else:
        parity_method = "rational-two-torsion"

    return LocalCert("s" if s_flagged else "t", v_st, xv, yv, depth, parity_method)
