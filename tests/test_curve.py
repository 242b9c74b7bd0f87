"""Group law, torsion, and reduction data checked against independently
coded chord-tangent arithmetic (exact and mod p), and the supersingular
torsion witness checked against a division-polynomial root search."""

import math
import random
from fractions import Fraction

import pytest

from ellcert.curve import (
    INFINITY,
    Curve,
    Point,
    add,
    base_point,
    count_points_mod_p,
    has_rational_m_torsion,
    is_torsion_point,
    j_invariant,
    make_family,
    neg,
    on_curve,
    point,
    rational_points_up_to_height,
    reduction_at,
    smul,
    translate_by_torsion,
)
import ellcert.curve as curve_mod
from ellcert.arith import is_prime

from divpoly_oracle import (
    _rational_roots,
    division_poly_x,
    has_rational_m_torsion_by_roots,
    torsion,
)


# ---- independent chord-tangent oracle over Q -------------------------------

def _oracle_add(a, p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 == -y2:
        return None
    if (x1, y1) == (x2, y2):
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def _as_tuple(pt):
    return None if pt is INFINITY else (Fraction(pt.x), Fraction(pt.y))


def test_make_family_frozen():
    c = make_family(1, 2)
    assert c == Curve(-5) and c._fields == ("a",)
    p0 = base_point(1, 2)
    assert (p0.x, p0.y) == (-1, 2) and type(p0.x) is type(p0.y) is int
    assert on_curve(c, p0)
    assert j_invariant(c) == 1728


def test_group_law_against_oracle():
    rng = random.Random(7)
    for _ in range(25):
        s, t = rng.randrange(1, 6), rng.randrange(1, 9)
        c = make_family(s, t)
        p1 = point(c, *base_point(s, t))
        p0 = _as_tuple(p1)
        # walk a chain of multiples with the oracle, compare every step
        acc_o, acc = None, INFINITY
        for k in range(1, 9):
            acc_o = _oracle_add(c.a, acc_o, p0)
            acc = add(c, acc, p1)
            assert _as_tuple(acc) == acc_o, (c, k)
            assert _as_tuple(smul(c, k, p1)) == acc_o


def test_add_special_cases():
    c = make_family(1, 2)
    p0 = point(c, *base_point(1, 2))
    assert add(c, p0, neg(p0)) is INFINITY
    assert add(c, INFINITY, p0) == p0
    t2 = point(c, 0, 0)
    assert add(c, t2, t2) is INFINITY
    assert smul(c, -3, p0) == neg(smul(c, 3, p0))
    assert smul(c, 0, p0) is INFINITY


def test_translate_by_torsion_frozen():
    c = make_family(1, 2)
    p0 = point(c, *base_point(1, 2))
    shifted = translate_by_torsion(c, p0)
    assert (shifted.x, shifted.y) == (5, 10)
    assert on_curve(c, shifted)
    # translation is addition of (0, 0)
    assert add(c, p0, point(c, 0, 0)) == shifted
    assert translate_by_torsion(c, point(c, 0, 0)) is INFINITY


def test_point_validates():
    c = make_family(1, 2)
    with pytest.raises(ValueError):
        point(c, 1, 1)


def test_division_poly_small_cases():
    a = -5
    assert division_poly_x(a, 1) == [1]
    assert division_poly_x(a, 3) == [-a * a, 0, 6 * a, 0, 3]
    assert len(division_poly_x(a, 5)) == 13   # degree 12
    assert len(division_poly_x(a, 7)) == 25   # degree 24
    with pytest.raises(ValueError):
        division_poly_x(a, -1)


# ---- division polynomials vs brute torsion orders mod p --------------------

def _points_mod_p(a, p):
    pts = []
    for x in range(p):
        rhs = (x * x * x + a * x) % p
        for y in range(p):
            if y * y % p == rhs:
                pts.append((x, y))
    return pts


def _add_mod_p(a, p, p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _order_mod_p(a, p, pt):
    k, acc = 1, pt
    while acc is not None:
        acc = _add_mod_p(a, p, acc, pt)
        k += 1
    return k


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29])
@pytest.mark.parametrize("m", [3, 5, 7])
def test_division_poly_roots_are_torsion_x(p, m):
    a = -5 % p
    poly = [cf % p for cf in division_poly_x(-5, m)]
    roots = {
        x for x in range(p) if sum(cf * pow(x, i, p) for i, cf in enumerate(poly)) % p == 0
    }
    # roots whose x lifts to an F_p point must be exactly the order-m x's
    on_curve_roots = {
        x for x in roots if pow((x**3 + a * x) % p, (p - 1) // 2, p) in (0, 1)
    }
    order_m_x = {
        pt[0] for pt in _points_mod_p(a, p) if _order_mod_p(a, p, pt) == m
    }
    assert on_curve_roots == order_m_x


def test_no_rational_odd_torsion_on_family_shape():
    # CM by i limits rational torsion to 2-power groups, so these must all fail
    for a in (-5, -20, -41, 4, -4, -641):
        c = Curve(a)
        for m in (3, 5, 7):
            assert not has_rational_m_torsion(c, m), (a, m)


def test_torsion_witness_matches_division_poly_oracle():
    # the root search does find rational torsion x's: (2, 4) has order 4 on a = 4
    assert Fraction(2) in _rational_roots(division_poly_x(4, 4))
    # family curves with coprime s, t <= 30 and their -25 ell twists (the
    # curves the p = 5 check reads); the oracle finds no rational root
    # whose y is rational, exactly where the witness says no torsion
    for s in range(1, 31):
        for t in range(1, 31):
            if math.gcd(s, t) != 1:
                continue
            c = make_family(s, t)
            for curve in (c, Curve(25 * c.a)):
                for m in (3, 5, 7):
                    assert has_rational_m_torsion(curve, m) == has_rational_m_torsion_by_roots(
                        curve.a, m
                    ), (s, t, curve.a, m)


def test_supersingular_count_every_small_q():
    # #E(F_q) = q + 1 at each good q = 3 mod 4, the fact the witness rests on
    rng = random.Random(13)
    curves = [make_family(rng.randrange(1, 40), rng.randrange(1, 40)) for _ in range(12)]
    curves += [Curve(a) for a in (-5, 4, -4, -36, -25 * 641)]
    for c in curves:
        for q in range(3, 200, 4):
            if is_prime(q) and (2 * c.a) % q != 0:
                assert count_points_mod_p(c, q) == q + 1, (c.a, q)


def test_torsion_witness_prime_and_recount(monkeypatch):
    seen = []
    monkeypatch.setattr(
        curve_mod, "count_points_mod_p", lambda c, q: seen.append(q) or count_points_mod_p(c, q)
    )
    # -35 and -231 make the search skip q = m, q | 2a and m | q + 1
    for a in (-5, -35, -231, 4, -(3 * 7 * 11 * 19 * 23 * 31)):
        for m in (3, 5, 7):
            seen.clear()
            assert not has_rational_m_torsion(Curve(a), m)
            [q] = seen
            assert is_prime(q) and q % 4 == 3 and q != m, (a, m, q)
            assert (2 * a) % q != 0 and (q + 1) % m != 0, (a, m, q)
    # the recount is a live check: a wrong point count is an alarm, not a pass
    monkeypatch.setattr(curve_mod, "count_points_mod_p", lambda c, q: q)
    with pytest.raises(AssertionError, match="not supersingular"):
        has_rational_m_torsion(Curve(-5), 7)


def test_torsion_witness_on_huge_twist():
    # the root search overflowed its float magnitude bound here
    assert not has_rational_m_torsion(Curve(-25 * (10**60 + 7)), 5)
    with pytest.raises(ValueError):
        has_rational_m_torsion(Curve(-5), 11)


def test_torsion_structures():
    assert torsion(Curve(-5)).structure == "Z/2"
    assert torsion(Curve(-5)).order == 2
    four = torsion(Curve(-4))
    assert four.structure == "Z/2 x Z/2" and four.order == 4
    cyc4 = torsion(Curve(4))
    assert cyc4.structure == "Z/4" and cyc4.order == 4
    # y^2 = x^3 + 64 x is the model 2^4 of a = 4: (8, 32) has order 4
    assert torsion(Curve(64)).generators == (point(Curve(64), 8, 32),)
    # every reported point really is torsion of the reported group order
    for a in (-5, -4, 4, -36, 64, 324):
        c = Curve(a)
        info = torsion(c)
        for pt in info.points:
            assert smul(c, info.order, pt) is INFINITY


def test_is_torsion_point():
    c = make_family(1, 2)
    assert is_torsion_point(c, point(c, 0, 0))
    assert is_torsion_point(c, INFINITY)
    assert not is_torsion_point(c, point(c, -1, 2))
    # the certifiers pass the integer base point
    assert not is_torsion_point(c, base_point(1, 2))
    assert not is_torsion_point(c, (-1, 2))
    assert is_torsion_point(c, (0, 0))


def _family_base_points(a):
    """(-s^2, s t) for every (s, t) with s, t >= 1 and s^4 + t^2 = -a."""
    return [(-s * s, s * t) for s in range(1, 5) for t in range(1, 21)
            if s**4 + t * t == -a]


def test_torsion_closed_form_matches_the_oracle():
    # every torsion point, every small point and every family base point
    # of each curve with 0 < |a| <= 400
    checked = nontorsion = 0
    for a in range(-400, 401):
        if a == 0:
            continue
        c = Curve(a)
        info = torsion(c)
        points = set(info.points) | set(rational_points_up_to_height(c, math.log(30)))
        points |= {point(c, x, y) for x, y in _family_base_points(a)}
        for pt in points:
            assert on_curve(c, pt)
            assert is_torsion_point(c, pt) == (pt in info.points), (a, pt)
            checked += 1
            nontorsion += pt not in info.points
        for x, y in _family_base_points(a):
            assert not is_torsion_point(c, (x, y)), (a, x, y)
    assert checked > 2000 and nontorsion > 500


def test_make_family_integer_check_is_on_curve():
    # the integer identity make_family asserts is the on_curve test
    for s in range(-12, 13):
        for t in range(-12, 13):
            if s == 0 and t == 0:
                continue
            c = make_family(s, t)
            x = -s * s
            assert (s * t) ** 2 == x**3 + c.a * x
            assert on_curve(c, base_point(s, t))
            assert on_curve(c, point(c, *base_point(s, t)))


def test_reduction_frozen():
    c = make_family(2, 75)  # ell = 5641
    data = reduction_at(c, 5641)
    assert (data.good, data.kodaira, data.tamagawa) == (False, "III", 2)
    assert reduction_at(c, 3).good
    assert not reduction_at(c, 2).good
    with pytest.raises(ValueError):
        reduction_at(c, 10)
    # any a: good iff q does not divide 2a; a = -5 has c4 = 240, Delta = 8000
    assert reduction_at(Curve(-5), 3).good
    assert reduction_at(Curve(-5), 5) == (False, "III", 2)
    assert reduction_at(Curve(-25 * 5641), 5) == (False, "unclassified", None)
    assert reduction_at(Curve(4), 2) == (False, "unclassified", None)


def test_count_points_matches_brute():
    c = make_family(1, 2)
    for p in (3, 7, 11, 13, 17, 101):
        brute = len(_points_mod_p(c.a % p, p)) + 1
        assert count_points_mod_p(c, p) == brute, p
    with pytest.raises(ValueError):
        count_points_mod_p(c, 5)  # a = -5 vanishes mod 5
    with pytest.raises(ValueError):
        count_points_mod_p(c, 2)


def _brute_count(a, p):
    """#E(F_p) for y^2 = x^3 + a x from the number of square roots of each value."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return 1 + sum(roots[(x * x * x + a * x) % p] for x in range(p))


def test_cached_count_matches_brute_force_below_200():
    curve_mod._count_points.cache_clear()
    for p in (q for q in range(3, 200, 2) if is_prime(q)):
        for a in range(1, p):
            want = _brute_count(a, p)
            # every a of the residue class shares one cache entry
            for rep in (a, a - p, a + 7 * p):
                assert count_points_mod_p(Curve(rep), p) == want, (rep, p)


def test_count_points_hasse():
    rng = random.Random(11)
    for _ in range(20):
        c = make_family(rng.randrange(1, 5), rng.randrange(1, 9))
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        if c.a % p == 0:
            continue
        n = count_points_mod_p(c, p)
        assert abs(n - p - 1) <= 2 * math.isqrt(p) + 1
        assert n % 2 == 0  # (0, 0) survives every good odd reduction


def test_rational_point_search_exhaustive_window():
    c = make_family(1, 2)
    found = rational_points_up_to_height(c, 3.0)
    xs = {pt.x for pt in found}
    # hand enumeration of every x = u/w^2 with max(|u|, w^2) <= e^3
    assert xs == {-1, 0, 5, Fraction(9, 4), Fraction(-20, 9)}
    for pt in found:
        assert on_curve(c, pt)
