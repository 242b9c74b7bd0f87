"""Division polynomials of y^2 = x^3 + a x and a rational-root torsion search.

A test oracle, independent of the reduction witness that
``ellcert.curve.has_rational_m_torsion`` uses: rational m-torsion (m odd)
has its x-coordinate among the rational roots of the m-division polynomial.

Dense coefficient lists over Z, index = degree.  psi_n = f_n for odd n and
psi_n = 2*y*f_n for even n, after reducing y^2 = x^3 + a x.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ellcert.arith import divisors_up_to, factorize, is_square


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
        if is_square(x0**3 + a * x0):
            return True
    return False
