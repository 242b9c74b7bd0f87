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
Its three logarithms, of s^2, l and 64 l^3, are floats rounded outward
from one proved integer enclosure (``heights._ln_fixed``), so the ratio
is itself a proved upper bound.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import PreconditionFailure
from .heights import (
    _INF, _next, _silverman_upper_gap, _vy_floor, ln_ell_lo_and_delta_hi, log_int_bounds,
)

if TYPE_CHECKING:
    from .certify import Member

RATIO_MARGIN = 1e-6
_INDEX_SQ_LIMIT = 9.0  # first odd index to exclude is 3


@lru_cache(maxsize=4096)
def _ln_s_squared_hi(s: int) -> float:
    """Upper end of ``log_int_bounds(s * s)``, that is of h(P) = ln s^2."""
    return log_int_bounds(s * s)[1]


def certify_primitive(m: Member) -> float:
    """Rigorous upper bound, below 9, on the squared saturation index m^2
    of (-s^2, s t) in E_{s,t}(Q); with odd parity it proves m = 1.

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

    Every certifier path meets the lemma's preconditions, so they are
    asserted, not refused.  The only caller, ``_divisibility_values``,
    refuses ``fourth-power-free`` and ``nonsquare-ell`` first, and then
    ``check_local``, which needs a prime p >= 5 with p^(n+1) | s t, so
    |s t| >= 25 and l != 2.  A negative s or t passes all of these, so
    ``degenerate-parameters`` is refused here, before the assertion.

    The upper bound of h(P) = ln s^2 is ``log_int_bounds(s * s)[1]``,
    memoized per process, keyed by s (bounded, so a long search cannot
    grow it without limit).  ln l for the floor and h(Delta) = ln(64 l^3)
    for the gap come from one enclosure of ln l
    (``heights.ln_ell_lo_and_delta_hi``).  Each float is rounded outward
    from ``heights._ln_fixed``'s proved 96-bit integer enclosure, the one
    logarithm in the package, and is a pure function of its argument, so
    the ratio, and every record, is the same whatever the order in which a
    process meets its s values, the worker count or a resumed run.
    """
    s, t, ell = m.s, m.t, m.ell
    if s < 1 or t < 1:
        raise PreconditionFailure("degenerate-parameters", f"(s,t)=({s},{t})")
    assert m.fourth_power_free and not m.ell_is_square and ell != 2, (
        f"primitivity lemma preconditions fail at (s,t)=({s},{t})"
    )

    ln_ell_lo, h_delta_hi = ln_ell_lo_and_delta_hi(ell)
    vy = _vy_floor(-ell, ln_ell_lo)
    h_naive_hi = _ln_s_squared_hi(s) if s > 1 else 0.0
    # each step rounded two floats up, as heights._up does
    crude = _next(_next(h_naive_hi / 2.0, _INF), _INF) + _silverman_upper_gap(h_delta_hi)
    crude = _next(_next(crude, _INF), _INF)
    ratio = _next(_next(crude / vy, _INF), _INF)
    if not ratio < _INDEX_SQ_LIMIT - RATIO_MARGIN:
        raise AssertionError(f"crude index bound {ratio} >= 9 at (s,t)=({s},{t})")
    return ratio
