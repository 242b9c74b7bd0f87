"""Rank bounds for y^2 = x^3 - l x by descent through the 2-isogeny.

The curve has the rational 2-torsion point (0, 0), giving a degree-2
isogeny to y^2 = x^3 + 4 l x and back.  Each candidate square class d
yields a quartic torsor w^2 = alpha u^4 + beta v^4 whose everywhere-local
solubility is decidable exactly; the surviving classes form the two
Selmer groups and cap the Mordell-Weil rank.

Only the real place and the primes 2 and l can obstruct: at any other
odd prime the torsor coefficients are units, the reduced curve is a
smooth genus-1 curve with a point by Hasse-Weil, and Hensel lifts it.
Local verdicts at 2 are cached per pair of classes in Q_2^*/(Q_2^*)^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import REAL, is_prime, is_square, jacobi, vp
from .curve import (
    Curve,
    Point,
    base_point,
    curve_from_a,
    is_torsion_point,
    make_family,
    point,
)
from .errors import PreconditionFailure

_ODD_P_LOOP_LIMIT = 10**6


def two_isogeny(c: Curve, pt: Point) -> tuple[Curve, Point | None]:
    """Image of pt under the isogeny with kernel (0, 0), landing on y^2 = x^3 - 4a x."""
    target = curve_from_a(-4 * c.a)
    if pt is None or pt.x == 0:
        return target, None
    x, y = pt.x, pt.y
    img = point(target, y * y / (x * x), -y * (x * x - c.a) / (x * x))
    return target, img


@dataclass(frozen=True)
class Torsor:
    """w^2 = alpha u^4 + beta v^4 attached to the square class d."""

    side: str  # "forward" or "dual"
    d: int
    ell: int
    alpha: int
    beta: int


def make_torsors(ell: int) -> list[Torsor]:
    """All candidate torsors for both descent directions.

    Forward classes divide 4l (spaces w^2 = d u^4 + (4l/d) v^4); dual
    classes divide -16l (spaces w^2 = d u^4 - (16l/d) v^4).  With l prime
    the signed squarefree representatives are +-{1, 2, l, 2l}, collapsing
    to +-{1, 2} for l = 2.
    """
    if ell < 2 or not is_prime(ell):
        raise PreconditionFailure("ell-not-prime", f"ell={ell}")
    base = [1, 2] if ell == 2 else [1, 2, ell, 2 * ell]
    reps = [sgn * d for d in base for sgn in (1, -1)]
    out = []
    for d in reps:
        out.append(Torsor("forward", d, ell, d, 4 * ell // d))
        out.append(Torsor("dual", d, ell, d, -16 * ell // d))
    return out


def _soluble_at_real(alpha: int, beta: int) -> bool:
    return alpha > 0 or beta > 0


def _unit_part(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _soluble_at_odd_prime(alpha: int, beta: int, p: int) -> bool:
    """Exact solubility of w^2 = alpha u^4 + beta v^4 over Q_p, p odd.

    Solutions with uv = 0 need the corresponding coefficient to be a
    square.  Otherwise scale so u is a unit times p^m; unequal valuations
    of the two terms reduce to the same square tests, and the balanced
    case (possible only when 4 | v(beta) - v(alpha)) leaves a unit sum
    A x0^4 + B examined mod p.  A root mod p lifts to an exact zero of
    the sum (the value set of a residue disk is all of p Z_p since the
    derivative is a unit), giving a w = 0 solution; a nonzero quadratic
    residue value with even valuation is a square directly.
    """
    a, big_a = _unit_part(alpha, p)
    b, big_b = _unit_part(beta, p)
    if a % 2 == 0 and jacobi(big_a, p) == 1:
        return True
    if b % 2 == 0 and jacobi(big_b, p) == 1:
        return True
    if (b - a) % 4 != 0:
        return False
    if p > _ODD_P_LOOP_LIMIT:
        raise ValueError(f"odd-prime solubility loop refused for p={p}")
    ra, rb = big_a % p, big_b % p
    b_even = b % 2 == 0
    for x0 in range(1, p):
        c = (ra * pow(x0, 4, p) + rb) % p
        if c == 0:
            return True
        if b_even and jacobi(c, p) == 1:
            return True
    return False


def _is_fourth_power_2adic(x: Fraction) -> bool:
    v = vp(x, 2)
    if v == float("inf") or v % 4 != 0:
        return False
    unit = x / Fraction(2) ** int(v)
    num, den = unit.numerator, unit.denominator
    # odd unit is a 4th power in Z_2 iff it is 1 mod 16
    return (num * pow(den, -1, 16)) % 16 == 1


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


def _fourth_power_class_2adic(x: int, name: str) -> int:
    """Representative 2^(v_2(x) mod 4) * (odd part of x mod 16) of x in
    Q_2^*/(Q_2^*)^4."""
    if x == 0:
        raise ValueError(f"2-adic solubility: coefficient {name} is 0")
    v, unit = _unit_part(x, 2)
    return (unit % 16) << (v % 4)


def _soluble_at_two(alpha: int, beta: int) -> bool:
    """Exact solubility of w^2 = alpha u^4 + beta v^4 over Q_2, decided once
    per pair of classes in Q_2^*/(Q_2^*)^4.

    The verdict depends on alpha and beta only through their classes.  If
    alpha' = alpha x^4 and beta' = beta y^4 with x, y in Q_2^*, then
    (u, v, w) -> (u / x, v / y, w) is a bijection from the nontrivial
    solutions of w^2 = alpha u^4 + beta v^4 to those of
    w^2 = alpha' u^4 + beta' v^4.  Each coefficient is therefore replaced by
    the representative 2^(v_2 mod 4) * (odd part mod 16): 2^v differs from
    2^(v mod 4) by the 4th power 2^(4 floor(v/4)), and an odd unit differs
    from its residue mod 16 by a unit that is 1 mod 16, which is a 2-adic
    4th power (the criterion of _is_fourth_power_2adic).  That leaves at
    most 32 x 32 pairs, each decided by _soluble_at_two_class.
    """
    return _soluble_at_two_class(
        _fourth_power_class_2adic(alpha, "alpha"), _fourth_power_class_2adic(beta, "beta")
    )


@lru_cache(maxsize=None)
def _soluble_at_two_class(alpha: int, beta: int) -> bool:
    """Exact solubility of w^2 = alpha u^4 + beta v^4 over Q_2, for any
    nonzero alpha and beta; __wrapped__ is the uncached algorithm.

    First the w = 0 case: soluble iff -beta/alpha is a 2-adic 4th power.
    Otherwise any solution can be scaled primitive (u or v a unit), and
    alpha u^4 + beta v^4 is enumerated through 4th-power value sets mod
    2^B.  A sum f with v_2(f) <= B-3 pins down its valuation and its unit
    mod 8, so squareness of the exact value is decided; sums deeper than
    that are reconsidered at a larger B.  Termination: with the w = 0
    case excluded, v_2 of the sum is bounded on the compact set of
    primitive pairs, and a square value of valuation e is certified as
    soon as B >= e + 3.
    """
    if _is_fourth_power_2adic(Fraction(-beta, alpha)):
        return True
    bound = 8 + vp(alpha, 2) + vp(beta, 2)
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


def _soluble_at(t: Torsor, place) -> bool:
    """``locally_soluble`` for a place already known to be REAL or prime."""
    if place == REAL:
        return _soluble_at_real(t.alpha, t.beta)
    if place == 2:
        return _soluble_at_two(t.alpha, t.beta)
    return _soluble_at_odd_prime(t.alpha, t.beta, place)


def locally_soluble(t: Torsor, place) -> bool:
    """Does the torsor have a nontrivial point over R (place=REAL) or Q_p?"""
    if place != REAL and not is_prime(place):
        raise ValueError(f"locally_soluble: place {place!r} is not prime or REAL")
    return _soluble_at(t, place)


def _class_rep(x: int, ell: int) -> int:
    """Signed squarefree representative of x mod squares, support {2, ell}."""
    sign = -1 if x < 0 else 1
    e2, rest = _unit_part(abs(x), 2)
    el, rest = _unit_part(rest, ell) if ell != 2 else (0, rest)
    assert is_square(rest), f"unexpected support in class {x}"
    return sign * 2 ** (e2 % 2) * ell ** (el % 2)


@dataclass(frozen=True)
class SelmerReport:
    ell: int
    sel_forward: tuple[int, ...]
    sel_dual: tuple[int, ...]
    dim_forward: int
    dim_dual: int
    rank_upper: int
    local_tables: dict


def selmer(ell: int) -> SelmerReport:
    """Both isogeny Selmer groups of y^2 = x^3 - l x, l prime, and the rank cap.

    Each side always contains the class of the rational 2-torsion image
    (l forward, -l dual) and the trivial class; the result is checked to
    be multiplicatively closed, so its size is a power of two.
    rank <= dim sel_forward + dim sel_dual - 2.
    """
    torsors = make_torsors(ell)
    places = (REAL, 2) if ell == 2 else (REAL, ell, 2)
    survivors = {"forward": [], "dual": []}
    tables = {}
    for t in torsors:
        verdicts = {}
        alive = True
        for pl in places:  # make_torsors has proved ell prime
            ok = _soluble_at(t, pl)
            verdicts["real" if pl == REAL else pl] = ok
            if not ok:
                alive = False
                break
        tables[(t.side, t.d)] = verdicts
        if alive:
            survivors[t.side].append(t.d)

    fwd = tuple(sorted(survivors["forward"], key=abs))
    dual = tuple(sorted(survivors["dual"], key=abs))
    assert 1 in fwd and _class_rep(4 * ell, ell) in fwd
    assert 1 in dual and _class_rep(-ell, ell) in dual
    for group in (fwd, dual):
        for x in group:
            for y in group:
                assert _class_rep(x * y, ell) in group, (x, y, group)
    dim_f = len(fwd).bit_length() - 1
    dim_d = len(dual).bit_length() - 1
    assert 2**dim_f == len(fwd) and 2**dim_d == len(dual)
    rank_upper = dim_f + dim_d - 2
    assert rank_upper >= 0
    return SelmerReport(
        ell=ell,
        sel_forward=fwd,
        sel_dual=dual,
        dim_forward=dim_f,
        dim_dual=dim_d,
        rank_upper=rank_upper,
        local_tables=tables,
    )


def rank_bound_by_residue(ell: int) -> int:
    """Predicted rank cap for prime l from its residue mod 16 alone."""
    if not is_prime(ell):
        raise PreconditionFailure("ell-not-prime", f"ell={ell}")
    r = ell % 16
    if r in (3, 11, 13):
        return 0
    if r in (2, 5, 7, 9, 15):
        return 1
    if r == 1:
        return 2
    raise AssertionError(f"prime residue {r} mod 16 cannot occur")


def search_torsor_point(t: Torsor, search_limit: int) -> tuple[int, int, int] | None:
    """Small global point (u, v, w) on the torsor, or None within the box."""
    for u in range(0, search_limit + 1):
        for v in range(0, search_limit + 1):
            if u == 0 and v == 0:
                continue
            val = t.alpha * u**4 + t.beta * v**4
            if val >= 0 and is_square(val):
                return u, v, isqrt(val)
    return None


@dataclass(frozen=True)
class RankCert:
    s: int
    t: int
    ell: int
    ell_mod_16: int
    t_mod_8: int
    selmer_report: SelmerReport
    rank: int
    base_point_nontorsion: bool


def certify_rank_one(s: int, t: int) -> RankCert:
    """Prove rank E_{s,t}(Q) = 1 for s even, t = +-3 mod 8, l = s^4 + t^2 prime.

    Those congruences force l = 9 mod 16, where the forward Selmer group
    is {1, l} and the dual one is {+-1, +-l}: the descent cap is 1.  The
    base point (-s^2, s t) is not torsion (torsion is just (0, 0) since l
    is not a square), so the rank is exactly 1.  The Selmer groups are
    recomputed here, not read off the residue table.
    """
    ell = s**4 + t**2
    if s <= 0 or s % 2 != 0:
        raise PreconditionFailure("s-not-even-positive", f"s={s}")
    if t % 8 not in (3, 5):
        raise PreconditionFailure("t-residue", f"t={t} must be +-3 mod 8")
    if not is_prime(ell):
        raise PreconditionFailure("ell-not-prime", f"ell={ell}")
    assert ell % 16 == 9
    report = selmer(ell)
    if report.rank_upper != 1:
        raise AssertionError(f"descent gave rank cap {report.rank_upper}, expected 1")
    c = make_family(s, t)
    if is_torsion_point(c, base_point(c)):
        raise AssertionError("base point unexpectedly torsion")
    return RankCert(
        s=s,
        t=t,
        ell=ell,
        ell_mod_16=ell % 16,
        t_mod_8=t % 8,
        selmer_report=report,
        rank=1,
        base_point_nontorsion=True,
    )
