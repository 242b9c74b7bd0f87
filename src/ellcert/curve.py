"""Curves y^2 = x^3 + a*x over Q with exact rational arithmetic.

The family of interest is a = -(s^4 + t^2) with its obvious rational point
(-s^2, s*t); general a is supported so twists and test curves work too.
General Weierstrass models (b != 0) are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Rational, is_prime, is_square
from .errors import PreconditionFailure


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x, with optional family tags (s, t)."""

    a: int
    s: int | None = None
    t: int | None = None

    @property
    def is_family(self) -> bool:
        return self.s is not None and self.t is not None

    @property
    def ell(self) -> int:
        """The twist parameter s^4 + t^2 of a family-tagged curve."""
        if not self.is_family:
            raise PreconditionFailure("not-family-tagged", f"curve a={self.a}")
        return -self.a


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction


#: The point at infinity (group identity).
INFINITY = None

PointLike = Point | None


def curve_from_a(a: int) -> Curve:
    if a == 0:
        raise ValueError("curve_from_a: a = 0 is singular for this family shape")
    return Curve(a=a)


def make_family(s: int, t: int) -> Curve:
    """Family curve y^2 = x^3 - (s^4 + t^2) x with its base point attached."""
    if s == 0 and t == 0:
        raise ValueError("make_family: (0, 0) gives a degenerate curve")
    c = Curve(a=-(s**4 + t**2), s=s, t=t)
    # construction identity: (-s^2)^3 - (s^4+t^2)(-s^2) = (s t)^2
    assert on_curve(c, base_point(c))
    return c


def base_point(c: Curve) -> Point:
    """The obvious rational point (-s^2, s t) of a family curve."""
    if not c.is_family:
        raise PreconditionFailure("not-family-tagged", f"curve a={c.a}")
    return Point(Fraction(-c.s * c.s), Fraction(c.s * c.t))


def on_curve(c: Curve, pt: PointLike) -> bool:
    if pt is INFINITY:
        return True
    return pt.y * pt.y == pt.x**3 + c.a * pt.x


def point(c: Curve, x: Rational, y: Rational) -> Point:
    """Validated point constructor."""
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
    two_torsion = Point(Fraction(0), Fraction(0))
    out = add(c, pt, two_torsion)
    if pt is not INFINITY and pt.x != 0 and out is not INFINITY:
        assert out.x == Fraction(c.a) / pt.x
    return out


def has_rational_m_torsion(c: Curve, m: int) -> bool:
    """Does E(Q) contain a point of exact order m, for m in {3, 5, 7}?

    Never, and a reduction witness proves it.  Take the first prime
    q = 3 (mod 4) with q != m, q not dividing 2a and m not dividing q + 1.
    E has good reduction at q, and it is supersingular there: x -> -x
    negates x^3 + a x while -1 is a non-square mod q, so #E(F_q) = q + 1.
    Torsion of order prime to q injects into E(F_q) under good reduction
    [Silverman AEC, VII.3.1], so m not dividing q + 1 rules out rational
    m-torsion.  Such a q exists by Dirichlet, and at most log2|a| primes
    are skipped for dividing a.  The count q + 1 is recomputed, not assumed.
    """
    if m not in (3, 5, 7):
        raise ValueError("has_rational_m_torsion: m must be 3, 5, or 7")
    q = 3
    while q == m or (2 * c.a) % q == 0 or (q + 1) % m == 0 or not is_prime(q):
        q += 4
    if count_points_mod_p(c, q) != q + 1:
        raise AssertionError(f"y^2 = x^3 + {c.a}x not supersingular at q={q}")
    return False


@dataclass(frozen=True)
class TorsionInfo:
    structure: str
    order: int
    generators: tuple[Point, ...]
    points: tuple[PointLike, ...]


def torsion(c: Curve) -> TorsionInfo:
    """Rational torsion of y^2 = x^3 + a x (a != 0).

    Z/2 x Z/2 when -a is a perfect square, Z/4 when a = 4, else Z/2
    generated by (0, 0).  [Silverman AEC, X.6 exercise classification]
    """
    zero = Fraction(0)
    origin = Point(zero, zero)
    if is_square(-c.a):
        r = Fraction(math.isqrt(-c.a))
        pts = (INFINITY, origin, Point(r, zero), Point(-r, zero))
        return TorsionInfo("Z/2 x Z/2", 4, (origin, Point(r, zero)), pts)
    if c.a == 4:
        gen = Point(Fraction(2), Fraction(4))
        pts = (INFINITY, gen, origin, Point(Fraction(2), Fraction(-4)))
        return TorsionInfo("Z/4", 4, (gen,), pts)
    return TorsionInfo("Z/2", 2, (origin,), (INFINITY, origin))


def is_torsion_point(c: Curve, pt: PointLike) -> bool:
    return pt is INFINITY or pt in torsion(c).points


@dataclass(frozen=True)
class ReductionData:
    q: int
    good: bool
    kodaira: str | None
    tamagawa: int | None


def reduction_at(c: Curve, q: int) -> ReductionData:
    """Reduction type of a family curve at the prime q.

    Good iff q does not divide 2(s^4 + t^2).  At an odd prime q >= 5 with
    (v_q(c4), v_q(Delta)) = (1, 3) the standard reduction table for residue
    characteristic >= 5 gives Kodaira type III with Tamagawa number 2; the
    equation is minimal there since v_q(Delta) < 12.  Everything else bad is
    reported unclassified.
    """
    if not c.is_family:
        raise PreconditionFailure("not-family-tagged", "reduction_at needs s, t")
    if not is_prime(q):
        raise ValueError(f"reduction_at: {q} is not prime")
    ell = c.ell
    if (2 * ell) % q != 0:
        return ReductionData(q, True, None, None)
    if q >= 5:
        c4 = -48 * c.a  # = 48 ell
        disc = -64 * c.a**3  # = 64 ell^3
        v_c4 = 0
        while c4 % q == 0:
            c4 //= q
            v_c4 += 1
        v_disc = 0
        while disc % q == 0:
            disc //= q
            v_disc += 1
        if v_c4 == 1 and v_disc == 3:
            return ReductionData(q, False, "III", 2)
    return ReductionData(q, False, "unclassified", None)


def count_points_mod_p(c: Curve, p: int) -> int:
    """#E(F_p) by direct character sum; p odd, good reduction, p <= 10^6."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"count_points_mod_p: p={p} must be an odd prime")
    if c.a % p == 0:
        raise ValueError(f"count_points_mod_p: bad reduction at {p}")
    if p > 10**6:
        raise ValueError("count_points_mod_p: p above the supported range")
    a = c.a % p
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
