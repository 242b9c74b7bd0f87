"""Certify that the base point generates its saturation in E_{s,t}(Q).

Primitive means (-s^2, s t) is not congruent to a proper multiple modulo
torsion.  Two exact facts combine into the proof:

* index parity: if the saturation index m were even, P or P + (0,0)
  would be a double, but x(2Q) = ((x^2 + l)/2y)^2 is always a rational
  square while x(P) = -s^2 is negative and x(P + (0,0)) = l/s^2 is a
  square only when l is; so m is odd whenever l is not a square.
* index size: hhat(P) = m^2 hhat(G) for the saturating generator G, so
  m^2 is at most hhat(P) divided by the residue-class height floor.

Floor ratio below 9 plus odd parity forces m = 1.  For every member
with l fourth-power-free, not a square and not 2, the crude bound
h(P)/2 + upper_gap already gives that ratio (see ``certify_primitive``).
The smallest member (s, t) = (1, 1) is decided instead by a rank-one
point search, since the height floor's residue table is not relied on at
|a| = 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .arith import is_square
from .curve import (
    Curve,
    base_point,
    is_torsion_point,
    rational_points_up_to_height,
)
from .descent import selmer
from .errors import PreconditionFailure
from .heights import (
    _up,
    _vy_floor,
    canonical_height,
    log_int_bounds,
    silverman_gaps,
)

if TYPE_CHECKING:
    from .certify import Member

RATIO_MARGIN = 1e-6
_INDEX_SQ_LIMIT = 9.0  # first odd index to exclude is 3
_SEARCH_DOUBLINGS = 6


class PrimitivityCert(NamedTuple):
    method: str
    torsion_only_two: bool = True
    excludes_index_two: bool = True
    ratio: float | None = None  # rigorous upper bound for m^2 when the floor was used
    search_bound: float | None = None
    status: str = "primitive"  # "primitive" | "undecided"
    reason: str | None = None


def excludes_index_two(c: Curve) -> bool:
    """Neither x(P) nor x(P + (0,0)) is a rational square, so 2 cannot divide the index."""
    ell = c.ell
    # x(P) = -s^2 < 0 handles itself; x(P + T) = l/s^2 is square iff l is
    return not is_square(ell)


def _search_certificate(c: Curve) -> PrimitivityCert:
    """Decide primitivity from rank 1 plus an exhaustive small-point search.

    This serves one input: ``certify_primitive`` refuses s, t < 1, so
    l = 2 means (s, t) = (1, 1), the curve y^2 = x^3 - 2x.  With rank
    exactly 1, a saturation index m >= 3 (even m already ruled out) forces
    a generator G with hhat(G) <= hhat(P)/9 and naive height within
    2(hhat(G) + lower_gap).  On this curve the Selmer cap is 1, the search
    bound lies between 5 and 6, and no non-torsion point in that box has
    height below the threshold, so m = 1.  Any other outcome contradicts
    these facts and raises AssertionError, a soundness alarm.
    """
    p0 = base_point(c)
    h_p = canonical_height(c, p0, _SEARCH_DOUBLINGS)
    bound = _up(2.0 * (h_p.hi / 4.0 + silverman_gaps(c).lower_gap) + 0.5)
    threshold = _up(h_p.hi / 9.0)
    small = [
        q for q in rational_points_up_to_height(c, bound)
        if not is_torsion_point(c, q)
        and canonical_height(c, q, _SEARCH_DOUBLINGS).lo <= threshold
    ]
    # P has infinite order, so a Selmer cap of 1 makes the rank exactly 1
    if selmer(c.ell).rank_upper != 1 or is_torsion_point(c, p0) or small:
        raise AssertionError(f"rank-one search failed at (s,t)=({c.s},{c.t})")
    return PrimitivityCert("rank-one-search", search_bound=bound)


def certify_primitive(m: Member) -> PrimitivityCert:
    """Certificate that (-s^2, s t) generates E_{s,t}(Q) up to torsion.

    The height-floor route needs l fourth-power-free (else the floor table
    does not apply) and l not a square (else extra 2-torsion breaks the
    parity argument; reported undecided, not failed).  The member's
    ``ell_is_square`` is the parity fact itself (``excludes_index_two``
    tests the same square), so it is not recomputed here.

    Lemma: for s, t >= 1 with l = s^4 + t^2 fourth-power-free, not a
    square and not 2, the crude ratio (h(P)/2 + upper_gap) / floor is
    below 9.  The floor's coefficient c(-l) is 5/16 or 9/16, never the
    negative row: if s = 2s' and t = 2t' then t' is odd (else 16 | l) and
    l = 4(4s'^4 + t'^2) = 4 mod 16; otherwise l is odd or 2 mod 4.  So -l
    is never 4 or 52 mod 64.  Write L = ln l.  Then h(P)/2 = ln s <= L/4,
    upper_gap = L/4 + ln(64 * 1728)/12 + 1.07 <= L/4 + 2.038, and
    floor >= L/16 + (5/16) ln 2 >= L/16 + 0.2166.  So the ratio is at
    most 8 + 0.305 / (L/16 + 0.2166), below 8.78 once s >= 2 (l >= 17).
    At s = 1, ln s = 0 and the ratio is (L/4 + 2.038) / (L/16 + 0.2166),
    below 7.7 for l >= 5.  A failed test is therefore a soundness alarm.
    """
    s, t, ell = m.s, m.t, m.ell
    if s < 1 or t < 1:
        raise PreconditionFailure("degenerate-parameters", f"(s,t)=({s},{t})")
    if not m.fourth_power_free:
        raise PreconditionFailure("ell-not-fourth-power-free", f"ell={ell}")
    c = m.curve
    if m.ell_is_square:
        return PrimitivityCert("none", torsion_only_two=False,
                               excludes_index_two=False, status="undecided",
                               reason="square-ell-extra-two-torsion")
    if ell == 2:
        return _search_certificate(c)

    vy = _vy_floor(-ell)  # the member has proved ell fourth-power-free
    h_naive_hi = log_int_bounds(s * s)[1] if s > 1 else 0.0
    crude = _up(_up(h_naive_hi / 2.0) + silverman_gaps(c).upper_gap)
    ratio = _up(crude / vy)
    if not ratio < _INDEX_SQ_LIMIT - RATIO_MARGIN:
        raise AssertionError(f"crude index bound {ratio} >= 9 at (s,t)=({s},{t})")
    return PrimitivityCert("height-ratio", ratio=ratio)
