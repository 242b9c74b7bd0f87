"""Division polynomials of y^2 = x^3 + a x, a rational-root torsion search,
and the rational torsion subgroup listed point by point.

Test oracles.  The root search is independent of the reduction witness
that ``ellcert.curve.has_rational_m_torsion`` uses: rational m-torsion
(m odd) has its x-coordinate among the rational roots of the m-division
polynomial.  ``torsion`` lists the group that
``ellcert.curve.is_torsion_point``'s closed form decides membership of.

Dense coefficient lists over Z, index = degree.  psi_n = f_n for odd n and
psi_n = 2*y*f_n for even n, after reducing y^2 = x^3 + a x.

Two rational and 2-adic oracles live here as well: ``is_square_rational``
(``ellcert.arith.is_square`` takes integers only), and
``soluble_at_two_by_value_sets``, a second algorithm for the solubility of
w^2 = alpha u^4 + beta v^4 over Q_2, against which the disk recursion of
``ellcert.descent._soluble_at_two`` is checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ellcert.arith import factorize, is_square, vp
from ellcert.curve import INFINITY, Curve, Point, PointLike


def divisors_up_to(factors: dict[int, int], limit: int) -> list[int]:
    """All positive divisors <= limit of the integer with the given factorization."""
    out = [1]
    for q, e in factors.items():
        grown = []
        for d in out:
            m = d
            for _ in range(e):
                m *= q
                if m > limit:
                    break
                grown.append(m)
        out.extend(grown)
    return sorted(d for d in out if d <= limit)


def _pmul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        if ci:
            for j, cj in enumerate(g):
                out[i + j] += ci * cj
    while out and out[-1] == 0:
        out.pop()
    return out


def _psub(f: list[int], g: list[int]) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, ci in enumerate(f):
        out[i] += ci
    for i, ci in enumerate(g):
        out[i] -= ci
    while out and out[-1] == 0:
        out.pop()
    return out


def _pscale(f: list[int], k: int) -> list[int]:
    return [k * ci for ci in f] if k else []


def _peval(f: list[int], u: int, v: int) -> int:
    """v^deg * f(u/v), exact over Z: zero iff u/v is a root (v != 0)."""
    acc, vk = 0, 1
    for ci in reversed(f):
        acc = acc * u + ci * vk
        vk *= v
    return acc


def division_poly_x(a: int, n: int, _memo: dict | None = None) -> list[int]:
    """x-part f_n of the n-division polynomial of y^2 = x^3 + a x."""
    if n < 0:
        raise ValueError("division_poly_x: n must be >= 0")
    memo = _memo if _memo is not None else {}
    if n in memo:
        return memo[n]
    if n == 0:
        val: list[int] = []
    elif n in (1, 2):
        val = [1]
    elif n == 3:
        val = [-a * a, 0, 6 * a, 0, 3]
    elif n == 4:
        val = [-2 * a**3, 0, -10 * a * a, 0, 10 * a, 0, 2]
    else:
        curve_poly = [0, a, 0, 1]  # x^3 + a x
        four_f_sq = _pscale(_pmul(curve_poly, curve_poly), 16)
        f = lambda k: division_poly_x(a, k, memo)
        m, r = divmod(n, 2)
        if r:
            left = _pmul(f(m + 2), _pmul(f(m), _pmul(f(m), f(m))))
            right = _pmul(f(m - 1), _pmul(f(m + 1), _pmul(f(m + 1), f(m + 1))))
            if m % 2 == 0:
                val = _psub(_pmul(four_f_sq, left), right)
            else:
                val = _psub(left, _pmul(four_f_sq, right))
        else:
            inner = _psub(
                _pmul(f(m + 2), _pmul(f(m - 1), f(m - 1))),
                _pmul(f(m - 2), _pmul(f(m + 1), f(m + 1))),
            )
            val = _pmul(f(m), inner)
    memo[n] = val
    return val


def _rational_roots(coeffs: list[int], a_hint: int | None = None) -> list[Fraction]:
    """Rational roots of a nonzero integer polynomial.

    Candidates are u/v with u dividing the constant term and v dividing the
    leading coefficient, pruned by the Fujiwara magnitude bound.  When the
    constant term is (up to sign) a power of ``a_hint``, its factorization is
    derived from the hint instead of refactored.
    """
    low = 0
    while low < len(coeffs) and coeffs[low] == 0:
        low += 1
    if low == len(coeffs):
        raise ValueError("zero polynomial")
    roots: list[Fraction] = []
    if low > 0:
        roots.append(Fraction(0))
    body = coeffs[low:]
    const, lead = body[0], body[-1]
    deg = len(body) - 1
    if deg == 0:
        return roots
    # Fujiwara: every complex root has |x| <= 2 * max_k (|c_{deg-k}|/|lead|)^(1/k)
    bound = 0.0
    for k in range(1, deg + 1):
        c = body[deg - k]
        if c:
            bound = max(bound, (abs(c) / abs(lead)) ** (1.0 / k))
    limit = int(2.0 * bound * 1.0000001) + 2

    fac: dict[int, int] | None = None
    if a_hint is not None and abs(a_hint) > 1:
        base = factorize(a_hint)
        for e in range(1, 25):
            if abs(a_hint) ** e == abs(const):
                fac = {q: v * e for q, v in base.items()}
                break
    if fac is None:
        fac = factorize(const)
    numerators = divisors_up_to(fac, limit)
    lead_divs = divisors_up_to(factorize(lead), abs(lead))
    for v in lead_divs:
        for u in numerators:
            if math.gcd(u, v) != 1:
                continue
            for signed in (u, -u):
                if _peval(body, signed, v) == 0:
                    roots.append(Fraction(signed, v))
    return sorted(set(roots))


def has_rational_m_torsion_by_roots(a: int, m: int) -> bool:
    """Does y^2 = x^3 + a x have a rational point of exact order m (m odd)?

    Rational roots of the m-division polynomial, then a y-rationality check.
    """
    fm = division_poly_x(a, m)
    for x0 in _rational_roots(fm, a_hint=a):
        if is_square_rational(x0**3 + a * x0):
            return True
    return False


def vp_rational(x: Fraction, p: int) -> int | float:
    """p-adic valuation of a rational: that of its numerator less that of
    its denominator (``ellcert.arith.vp`` takes integers only)."""
    return vp(x.numerator, p) - vp(x.denominator, p)


class TorsionInfo(NamedTuple):
    structure: str
    order: int
    generators: tuple[Point, ...]
    points: tuple[PointLike, ...]


def torsion(c: Curve) -> TorsionInfo:
    """Rational torsion of y^2 = x^3 + a x (a != 0).

    Z/2 x Z/2 when -a is a perfect square, Z/4 when a = 4 u^4 (generated
    by (2 u^2, 4 u^3); the curve is the model u^4 of a = 4), else Z/2
    generated by (0, 0).  [Silverman AEC, X.6.1 for fourth-power-free a]
    """
    zero = Fraction(0)
    origin = Point(zero, zero)
    if is_square(-c.a):
        r = Fraction(math.isqrt(-c.a))
        pts = (INFINITY, origin, Point(r, zero), Point(-r, zero))
        return TorsionInfo("Z/2 x Z/2", 4, (origin, Point(r, zero)), pts)
    u = math.isqrt(math.isqrt(c.a // 4)) if c.a > 0 else 0  # floor((a/4)^(1/4))
    if u and 4 * u**4 == c.a:
        gen = Point(Fraction(2 * u * u), Fraction(4 * u**3))
        pts = (INFINITY, gen, origin, Point(gen.x, -gen.y))
        return TorsionInfo("Z/4", 4, (gen,), pts)
    return TorsionInfo("Z/2", 2, (origin,), (INFINITY, origin))


def is_square_rational(x: Fraction | int) -> bool:
    """Is the rational x the square of a rational?"""
    x = Fraction(x)
    return is_square(x.numerator) and is_square(x.denominator)


def _unit_part_2(n: int) -> tuple[int, int]:
    """(v_2(n), n / 2^v_2(n)) for n != 0."""
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def is_fourth_power_2adic(num: int, den: int) -> bool:
    """Is num / den (den != 0) a 4th power in Q_2?"""
    if num == 0:
        return False
    v_num, num = _unit_part_2(num)
    v_den, den = _unit_part_2(den)
    # odd unit is a 4th power in Z_2 iff it is 1 mod 16
    return (v_num - v_den) % 4 == 0 and num * pow(den, -1, 16) % 16 == 1


@lru_cache(maxsize=None)
def _fourth_powers_mod(modulus: int) -> tuple[int, ...]:
    """Distinct values of x^4 mod 2^B over odd x; x mod 2^(B-2) suffices."""
    quarter = modulus // 4
    return tuple(sorted({pow(x, 4, modulus) for x in range(1, 2 * quarter, 2)}))


@lru_cache(maxsize=None)
def _square_class_table(bound: int) -> bytes:
    """Residue classifier mod 2^bound: 1 = certainly the class of a
    2-adic square, 2 = too deep to decide at this bound, 0 = neither."""
    out = bytearray(1 << bound)
    out[0] = 2
    for x in range(1, 1 << bound):
        e = (x & -x).bit_length() - 1
        if e > bound - 3:
            out[x] = 2
        elif e % 2 == 0 and (x >> e) % 8 == 1:
            out[x] = 1
    return bytes(out)


def soluble_at_two_by_value_sets(alpha: int, beta: int) -> bool:
    """Solubility of w^2 = alpha u^4 + beta v^4 over Q_2 (alpha, beta
    nonzero), from 4th-power value sets mod 2^B.

    First the w = 0 case: soluble iff -beta/alpha is a 2-adic 4th power.
    Otherwise any solution can be scaled primitive (u or v a unit), and
    alpha u^4 + beta v^4 is enumerated through 4th-power value sets mod
    2^B.  A sum f with v_2(f) <= B-3 pins down its valuation and its unit
    mod 8, so squareness of the exact value is decided; sums deeper than
    that are reconsidered at a larger B.  The tables have 2^B entries, with
    B from 8 + v_2(alpha) + v_2(beta) up to 24, so keep both valuations
    small (below 4 for a class representative).
    """
    if is_fourth_power_2adic(-beta, alpha):
        return True
    bound = 8 + _unit_part_2(alpha)[0] + _unit_part_2(beta)[0]
    while True:
        modulus = 1 << bound
        mask = modulus - 1
        odd = _fourth_powers_mod(modulus)
        full = sorted({0, *((q << (4 * m)) & mask for m in range((bound + 3) // 4) for q in odd)})
        table = _square_class_table(bound)
        undetermined = False
        for us, vs in ((odd, full), (full, odd)):
            scaled_u = sorted({(alpha * q) & mask for q in us})
            scaled_v = sorted({(beta * q) & mask for q in vs})
            for a in scaled_u:
                for b in scaled_v:
                    cls = table[(a + b) & mask]
                    if cls == 1:
                        return True
                    if cls == 2:
                        undetermined = True
        if not undetermined:
            return False
        bound += 2
        if bound > 24:
            raise AssertionError("2-adic solubility failed to stabilize")
