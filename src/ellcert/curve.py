"""Curves y^2 = x^3 + a*x over Q.

A curve is its coefficient a alone.  The family of interest is
a = -(s^4 + t^2) with its obvious rational point (-s^2, s*t); a member's
parameters s, t and ell live in ``certify.Member``, never on the curve.
General Weierstrass models (b != 0) are out of scope.

What the certifiers and the ``heights`` report use runs on integers, and
each function takes only what its callers have already proved:

* ``make_family`` takes (s, t) != (0, 0), which every caller refuses
  first, and checks the base point it builds;
* ``has_rational_m_torsion`` takes an a prime to 3 and an m not dividing
  4, as every family member and its twist by 25 are;
* ``reduction_at`` takes a prime q, and its one caller passes a proved l;
* ``count_points_mod_p`` takes an odd prime p <= 10^4 of good reduction;
* ``is_torsion_point`` takes any curve with a != 0 and any point.

``Point`` also takes ``Fraction`` coordinates for the exact group law, a
reference oracle for the tests, as is ``on_curve``; the functions that
make ``Fraction``s import ``fractions`` themselves, so no CLI command
loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .arith import vp

if TYPE_CHECKING:
    from fractions import Fraction


class Curve(NamedTuple):
    """y^2 = x^3 + a*x."""

    a: int


class Point(NamedTuple):
    x: Fraction | int
    y: Fraction | int


#: The point at infinity (group identity).
INFINITY = None

PointLike = Point | None


def make_family(s: int, t: int) -> Curve:
    """The family curve y^2 = x^3 - (s^4 + t^2) x, checked to carry the
    base point (-s^2, s t).  (s, t) = (0, 0) would give a = 0, no curve:
    the certifiers refuse it as ``coprime-parameters`` and ``heights`` as a
    usage error, before any curve is built."""
    s2 = s * s
    a = -(s2 * s2 + t * t)
    # construction identity: (-s^2)^3 - (s^4+t^2)(-s^2) = (s t)^2
    x = -s2
    assert (s * t) ** 2 == x**3 + a * x
    return Curve(a)


def base_point(s: int, t: int) -> Point:
    """The obvious rational point (-s^2, s t) of E_{s,t}, in integers."""
    return Point(-s * s, s * t)


def on_curve(c: Curve, pt: PointLike) -> bool:
    if pt is INFINITY:
        return True
    return pt.y * pt.y == pt.x**3 + c.a * pt.x


def point(c: Curve, x: Fraction | int, y: Fraction | int) -> Point:
    """Validated point constructor."""
    from fractions import Fraction

    pt = Point(Fraction(x), Fraction(y))
    if not on_curve(c, pt):
        raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + {c.a}x")
    return pt


def neg(pt: PointLike) -> PointLike:
    if pt is INFINITY:
        return INFINITY
    return Point(pt.x, -pt.y)


def _add_raw(c: Curve, p1: PointLike, p2: PointLike) -> PointLike:
    if p1 is INFINITY:
        return p2
    if p2 is INFINITY:
        return p1
    if p1.x == p2.x:
        if p1.y == -p2.y:
            return INFINITY
        # tangent: both points equal with y != 0
        lam = (3 * p1.x * p1.x + c.a) / (2 * p1.y)
    else:
        lam = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = lam * lam - p1.x - p2.x
    y3 = lam * (p1.x - x3) - p1.y
    return Point(x3, y3)


def add(c: Curve, p1: PointLike, p2: PointLike) -> PointLike:
    """Chord-tangent sum, exact."""
    for pt in (p1, p2):
        if not on_curve(c, pt):
            raise ValueError(f"add: point {pt} not on curve a={c.a}")
    return _add_raw(c, p1, p2)


def smul(c: Curve, k: int, pt: PointLike) -> PointLike:
    """Scalar multiple k*P by double-and-add."""
    if not on_curve(c, pt):
        raise ValueError(f"smul: point {pt} not on curve a={c.a}")
    if pt is INFINITY or k == 0:
        return INFINITY
    if k < 0:
        k, pt = -k, neg(pt)
    acc = INFINITY
    while k:
        if k & 1:
            acc = _add_raw(c, acc, pt)
        pt = _add_raw(c, pt, pt)
        k >>= 1
    return acc


def translate_by_torsion(c: Curve, pt: PointLike) -> PointLike:
    """P + (0,0).  For P affine with x != 0 the x-coordinate is a/x(P)."""
    from fractions import Fraction

    two_torsion = Point(Fraction(0), Fraction(0))
    out = add(c, pt, two_torsion)
    if pt is not INFINITY and pt.x != 0 and out is not INFINITY:
        assert out.x == Fraction(c.a) / pt.x
    return out


def has_rational_m_torsion(c: Curve, m: int) -> bool:
    """Does E(Q) contain a point of exact order m, for m in {3, 5, 7}?

    Never, and a reduction witness at q = 3 proves it.  For a prime to 3,
    E has good reduction at 3 (Delta = -64 a^3), and it is supersingular
    there: x -> -x negates x^3 + a x while -1 is a non-square mod 3, so
    #E(F_3) = 4.  At an odd prime q of good reduction the whole torsion of
    E(Q) injects into E(F_q) [Silverman AEC, VII.3.1, with IV.6.4(b):
    E_1(Q_3) has no torsion, as v(3) = 1 < 3 - 1], so m not dividing 4
    rules out rational m-torsion.  The count 4 is recomputed, not assumed.

    The premise holds for every curve a certifier asks about: 3 does not
    divide s^4 + t^2 for coprime s, t (3 | s^4 + t^2 forces 3 | s and
    3 | t, as -1 is no square mod 3), nor 25 (s^4 + t^2), and m is 5 or 7.
    A breach is an AssertionError.
    """
    assert c.a % 3 and 4 % m, f"q = 3 proves nothing for a={c.a}, m={m}"
    if count_points_mod_p(c, 3) != 4:
        raise AssertionError(f"y^2 = x^3 + {c.a}x not supersingular at q=3")
    return False


def is_torsion_point(c: Curve, pt: PointLike | tuple[int, int]) -> bool:
    """Is ``pt``, O or an (x, y) pair on y^2 = x^3 + a x (a != 0), torsion?

    CM by i leaves E(Q)_tors = Z/2, Z/2 x Z/2 or Z/4 [Silverman AEC,
    X.6.1 for fourth-power-free a; a model u^4 a is isomorphic].  So a
    torsion point is O, a point of order 2, which is y = 0, or one of
    order 4, which has x(2P) = (x^2 - a)^2 / 4y^2 = 0, so x^2 = a.  Plain
    integers and ``Point``s of ``Fraction``s both work.
    """
    if pt is INFINITY:
        return True
    x, y = pt
    return y == 0 or x * x == c.a


class ReductionData(NamedTuple):
    good: bool
    kodaira: str | None
    tamagawa: int | None


def reduction_at(c: Curve, q: int) -> ReductionData:
    """Reduction type of y^2 = x^3 + a x at the prime q.

    Good iff q does not divide 2a, as Delta = -64 a^3.  At an odd prime
    q >= 5 with (v_q(c4), v_q(Delta)) = (1, 3), where c4 = -48 a, the
    standard reduction table for residue characteristic >= 5 gives Kodaira
    type III with Tamagawa number 2; the equation is minimal there since
    v_q(Delta) < 12.  Everything else bad is reported unclassified.

    q must be prime; the one caller, ``certify_infinite_instance``, passes
    the l that ``certify_rank_one`` has proved prime.
    """
    if (2 * c.a) % q != 0:
        return ReductionData(True, None, None)
    if q >= 5 and vp(-48 * c.a, q) == 1 and vp(-64 * c.a**3, q) == 3:
        return ReductionData(False, "III", 2)
    return ReductionData(False, "unclassified", None)


def count_points_mod_p(c: Curve, p: int) -> int:
    """#E(F_p) by direct character sum, for an odd prime p of good
    reduction.  The callers prove all three: ``check_local`` passes an odd
    prime p <= 10^4 that divides exactly one of s and t, so not l =
    s^4 + t^2, and ``has_rational_m_torsion`` passes q = 3, prime to a.

    The count depends only on (a mod p, p), and the sum runs once per
    such pair: a search at one p meets at most p - 1 residues.
    """
    return _count_points(c.a % p, p)


@lru_cache(maxsize=1024)
def _count_points(a: int, p: int) -> int:
    """The character sum 1 + sum_x (1 + ((x^3 + a x) / p)); a is reduced mod p."""
    total = 1  # infinity
    exp = (p - 1) // 2
    for x in range(p):
        fx = (x * x % p * x + a * x) % p
        if fx == 0:
            total += 1
        elif pow(fx, exp, p) == 1:
            total += 2
    return total


def j_invariant(c: Curve) -> int:
    """j = 1728 for every curve y^2 = x^3 + a x."""
    return 1728


def rational_points_up_to_height(c: Curve, log_bound: float) -> list[Point]:
    """All affine rational points with naive height <= log_bound.

    x = u/w^2 in lowest terms with max(|u|, w^2) <= exp(log_bound); then
    y^2 = (u^3 + a u w^4) / w^6, so the numerator must be a perfect square.
    """
    from fractions import Fraction

    bound = math.floor(math.exp(log_bound)) + 1
    out: list[Point] = []
    w = 1
    while w * w <= bound:
        w4 = w**4
        for u in range(-bound, bound + 1):
            if math.gcd(u, w) != 1:
                continue
            num = u**3 + c.a * u * w4
            if num < 0:
                continue
            r = math.isqrt(num)
            if r * r != num:
                continue
            x = Fraction(u, w * w)
            y = Fraction(r, w**3)
            out.append(Point(x, y))
            if r != 0:
                out.append(Point(x, -y))
        w += 1
    return out
