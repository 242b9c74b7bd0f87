"""Rank bounds for y^2 = x^3 - l x by descent through the 2-isogeny.

The curve has the rational 2-torsion point (0, 0), giving a degree-2
isogeny to y^2 = x^3 + 4 l x and back.  Each candidate square class d
yields a quartic torsor w^2 = alpha u^4 + beta v^4 whose everywhere-local
solubility is decidable exactly; the surviving classes form the two
Selmer groups and cap the Mordell-Weil rank.

Only the real place and the primes 2 and l can obstruct: at any other
odd prime the torsor coefficients are units, the reduced curve is a
smooth genus-1 curve with a point by Hasse-Weil, and Hensel lifts it.
Over Q_2 a torsor is decided by Hensel's lemma on a stack of 2-adic
disks (``_soluble_at_two``), run on the torsor's own coefficients.  The
surviving classes depend on l only through l mod 16, so ``selmer`` runs
the exact local computation (``make_torsors`` and ``locally_soluble``,
the functions the tests check) once per residue class and substitutes l
into the classes it found (the proof is in ``selmer``).
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .arith import REAL, is_prime, is_square, jacobi, primality_info
from .curve import Curve, is_torsion_point
from .errors import PreconditionFailure


class Torsor(NamedTuple):
    """w^2 = alpha u^4 + beta v^4 attached to the square class d."""

    side: str  # "forward" or "dual"
    d: int
    alpha: int
    beta: int


def make_torsors(ell: int) -> list[Torsor]:
    """All candidate torsors for both descent directions, for l prime.

    Forward classes divide 4l (spaces w^2 = d u^4 + (4l/d) v^4); dual
    classes divide -16l (spaces w^2 = d u^4 - (16l/d) v^4).  With l prime
    the signed squarefree representatives are +-{1, 2, l, 2l}, collapsing
    to +-{1, 2} for l = 2.  The caller proves l prime first
    (``require_proved_prime``); a composite l is an AssertionError.
    """
    assert is_prime(ell), f"make_torsors needs a prime ell, not {ell}"
    base = [1, 2] if ell == 2 else [1, 2, ell, 2 * ell]
    reps = [sgn * d for d in base for sgn in (1, -1)]
    out = []
    for d in reps:
        out.append(Torsor("forward", d, d, 4 * ell // d))
        out.append(Torsor("dual", d, d, -16 * ell // d))
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
    """Exact solubility of w^2 = alpha u^4 + beta v^4 over Q_p, p odd, for
    an unbalanced torsor: v_p(beta) - v_p(alpha) not divisible by 4.

    Solutions with uv = 0 need the corresponding coefficient to be a
    square.  Otherwise the valuations of alpha u^4 and beta v^4 differ by
    v_p(beta) - v_p(alpha) mod 4, so they are unequal, and the sum is the
    smaller term times a unit that is 1 mod p: a square exactly when that
    term is one, that is, when its coefficient is a square.  So the
    verdict is whether alpha or beta has even valuation and a quadratic
    residue as unit part.  The descent asks only the place l, where
    v_l(alpha) + v_l(beta) = 1 (``selmer``), so a balanced torsor is an
    AssertionError naming it.
    """
    a, big_a = _unit_part(alpha, p)
    b, big_b = _unit_part(beta, p)
    if a % 2 == 0 and jacobi(big_a, p) == 1:
        return True
    if b % 2 == 0 and jacobi(big_b, p) == 1:
        return True
    assert (b - a) % 4, f"balanced torsor w^2 = {alpha} u^4 + {beta} v^4 at p={p}"
    return False


def _v2(n: int) -> int:
    """v_2(n) for n != 0."""
    return (n & -n).bit_length() - 1


def _soluble_at_two(alpha: int, beta: int) -> bool:
    """Exact solubility of w^2 = alpha u^4 + beta v^4 over Q_2, for any
    nonzero alpha and beta, by recursion on 2-adic disks.  Every torsor of
    ``make_torsors`` has coefficients +-2^k l^e, never 0.

    A nontrivial point can be scaled so that u and v are in Z_2 and one
    of them is a unit.  If v is a unit, x = u / v is in Z_2 and
    g(x) = alpha x^4 + beta must be a square or 0; otherwise u is a unit,
    y = v / u is in 2 Z_2 and alpha + beta y^4 must be.  So the torsor is
    soluble exactly when one of these two quartics, f(x) = a x^4 + b,
    takes a square or zero value on its disk, Z_2 = 0 + 2^0 Z_2 or
    2 Z_2 = 0 + 2^1 Z_2.  A stack of disks x0 + 2^k Z_2 is worked off.
    With f(x0 + 2^k z) = f(x0) + sum_i c_i 2^(k i) z^i (i = 1..4, c_i =
    f^(i)(x0) / i! in Z), lambda = v_2(f(x0)) and mu = v_2(f'(x0)):

    * f(x0) = 0: the point (u, v, w) = (x0, 1, 0) on the first chart, or
      (1, x0, 0) on the second.
    * Every term of degree i >= 1 has v_2(c_i 2^(k i)) >= lambda + 3.
      Then every f(x) on the disk is f(x0) times a unit that is 1 mod 8,
      and none is 0.  A nonzero 2-adic number is a square exactly when its
      valuation is even and its unit part is 1 mod 8, so the whole disk
      takes square values when lambda is even and f(x0) / 2^lambda = 1
      mod 8, and none otherwise.
    * lambda > 2 mu and lambda - mu >= k: by Hensel's lemma f has a root
      xi with v_2(xi - x0) >= lambda - mu >= k, which is in the disk, and
      w = 0 there.
    * Otherwise the disk splits into x0 + 2^(k+1) Z_2 and
      x0 + 2^k + 2^(k+1) Z_2.

    Every outcome is exact, so the verdict is.  Termination: otherwise
    some chain of nested disks never resolves, by Konig's lemma on the
    binary tree, and its centres x_k tend to some xi in Z_2.  If f(xi) !=
    0, v_2(f(x_k)) = v_2(f(xi)) = L for large k, and once k >= L + 3
    every term c_i 2^(k i) has valuation at least k, so the disk is of
    one class.  If f(xi) = 0, then xi != 0 as f(0) = b != 0, and f'(xi)
    != 0 as f is separable (alpha beta != 0, so f and f' = 4 a x^3 share
    no root).  For large k, x_k != 0 and v_2(f'(x_k)) = M = v_2(f'(xi)).
    Once k > M, either x_k = xi, a zero value, or v_2(f(x_k)) =
    v_2(x_k - xi) + M >= k + M, as the terms of f(x_k) - f(xi) beyond
    f'(xi) (x_k - xi) have valuation at least 2 v_2(x_k - xi); that is the
    root case.  Either way the chain resolves, a contradiction.
    """
    stack = [(alpha, beta, 0, 0), (beta, alpha, 0, 1)]
    while stack:
        a, b, x0, k = stack.pop()
        f0 = a * x0**4 + b
        if f0 == 0:
            return True
        lam = _v2(f0)
        taylor = (4 * a * x0**3, 6 * a * x0 * x0, 4 * a * x0, a)
        if all(c == 0 or _v2(c) + k * i >= lam + 3 for i, c in enumerate(taylor, 1)):
            if lam % 2 == 0 and (f0 >> lam) % 8 == 1:
                return True
            continue
        if x0 and lam > 2 * _v2(taylor[0]) and lam - _v2(taylor[0]) >= k:
            return True
        stack += [(a, b, x0, k + 1), (a, b, x0 + (1 << k), k + 1)]
    return False


def locally_soluble(t: Torsor, place) -> bool:
    """Does the torsor have a nontrivial point over R (place=REAL) or Q_p?

    The place is REAL or a prime: the one caller, ``_exact_selmer``, asks
    R, 2 and the l that ``make_torsors`` has asserted prime.  At an odd p
    the torsor must be unbalanced there, as every torsor of
    ``make_torsors`` is at l (``_soluble_at_odd_prime``).
    """
    if place == REAL:
        return _soluble_at_real(t.alpha, t.beta)
    if place == 2:
        return _soluble_at_two(t.alpha, t.beta)
    return _soluble_at_odd_prime(t.alpha, t.beta, place)


def _class_rep(x: int, ell: int) -> int:
    """Signed squarefree representative of x mod squares, support {2, ell}."""
    sign = -1 if x < 0 else 1
    e2, rest = _unit_part(abs(x), 2)
    el, rest = _unit_part(rest, ell) if ell != 2 else (0, rest)
    assert is_square(rest), f"unexpected support in class {x}"
    return sign * 2 ** (e2 % 2) * ell ** (el % 2)


class SelmerReport(NamedTuple):
    sel_forward: tuple[int, ...]
    sel_dual: tuple[int, ...]
    dim_forward: int
    dim_dual: int
    rank_upper: int


#: ell mod 16 -> the Selmer classes an exact descent found at the first
#: prime of that residue, as (sign, 2-exponent, l-exponent) vectors, and
#: the two dimensions; the prime 2 is the residue 2 of its own
_SELMER_CLASSES: dict[int, tuple] = {}


def selmer(ell: int) -> SelmerReport:
    """Both isogeny Selmer groups of y^2 = x^3 - l x, l prime, and the rank cap.

    Each side always contains the class of the rational 2-torsion image
    (l forward, -l dual) and the trivial class; the result is checked to
    be multiplicatively closed, so its size is a power of two.
    rank <= dim sel_forward + dim sel_dual - 2.

    l must be prime: every caller proves it first (``require_proved_prime``),
    and the assert on that contract also keeps a composite out of the
    memo.  The exact local computation (``_exact_selmer``, through
    ``make_torsors`` and ``locally_soluble``) then runs once per residue of
    l mod 16 per process; for every other prime of that residue the
    classes it found are rebuilt by substituting l into their vectors
    d = sign * 2^a * l^b.  That is exact:

    * Every candidate torsor w^2 = alpha u^4 + beta v^4 has alpha and beta
      of the form +-2^k l^e, with v_l(alpha) + v_l(beta) = 1.
    * At R the verdict depends only on the signs.
    * At l the difference of the two l-valuations is odd, so the torsor
      is unbalanced there, as ``_soluble_at_odd_prime`` requires; it only
      takes Jacobi symbols (+-2^k / l), which depend on l mod 8 alone.
    * At 2 the verdict depends on alpha and beta only through their
      classes in Q_2^*/(Q_2^*)^4.  If alpha' = alpha x^4 and beta' =
      beta y^4 with x, y in Q_2^*, then (u, v, w) -> (u / x, v / y, w) is
      a bijection from the nontrivial solutions of w^2 = alpha u^4 +
      beta v^4 to those of w^2 = alpha' u^4 + beta' v^4.  A class has the
      representative 2^(v_2 mod 4) * (odd part mod 16): 2^v differs from
      2^(v mod 4) by the 4th power 2^(4 floor(v/4)), and an odd unit
      differs from its residue mod 16 by a unit u = 1 mod 16, which is a
      2-adic 4th power: u = r^2 for a unit r, as u = 1 mod 8, and r^2 = 1
      mod 16 makes r = +-1 mod 8, so -r or r is 1 mod 8 and a square.  So
      the class of +-2^k l^e is that of 2^(k mod 4) * (+-l^e mod 16), which
      depends on l mod 16 alone.

    So the surviving class vectors found at any prime hold for every prime
    with the same residue, and the order in which the memo fills (worker
    count, a resumed run) cannot change a result.  For l >= 3 the sort by
    absolute value orders 1 < 2 < l < 2l the same way for every l, and
    the sort is stable on d before -d, so the tuples come out in the same
    order too.  l = 2 is alone in its residue.
    """
    assert is_prime(ell), f"selmer needs a prime ell, not {ell}"
    found = _SELMER_CLASSES.get(ell % 16)
    if found is None:
        report = _exact_selmer(ell)
        _SELMER_CLASSES[ell % 16] = (
            tuple(_class_vector(d, ell) for d in report.sel_forward),
            tuple(_class_vector(d, ell) for d in report.sel_dual),
            report.dim_forward,
            report.dim_dual,
        )
        return report
    fwd, dual, dim_f, dim_d = found
    return SelmerReport(
        sel_forward=tuple(sign * 2**a * ell**b for sign, a, b in fwd),
        sel_dual=tuple(sign * 2**a * ell**b for sign, a, b in dual),
        dim_forward=dim_f,
        dim_dual=dim_d,
        rank_upper=dim_f + dim_d - 2,
    )


def _class_vector(d: int, ell: int) -> tuple[int, int, int]:
    """(sign, a, b) with d = sign * 2^a * l^b, for d in +-{1, 2, l, 2l}."""
    return (-1 if d < 0 else 1, int(d % 2 == 0), int(ell != 2 and d % ell == 0))


def _exact_selmer(ell: int) -> SelmerReport:
    """``selmer`` computed from the local tests at R, l and 2, for l prime."""
    places = (REAL, 2) if ell == 2 else (REAL, ell, 2)
    survivors = {"forward": [], "dual": []}
    for t in make_torsors(ell):
        # all() stops at the first failing place
        if all(locally_soluble(t, pl) for pl in places):
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
        sel_forward=fwd,
        sel_dual=dual,
        dim_forward=dim_f,
        dim_dual=dim_d,
        rank_upper=rank_upper,
    )


def rank_bound_by_residue(ell: int) -> int:
    """Predicted rank cap for prime l from its residue mod 16 alone; the
    caller proves l prime first."""
    assert is_prime(ell), f"rank_bound_by_residue needs a prime ell, not {ell}"
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


def require_proved_prime(ell: int) -> None:
    """Refuse an ell that is not prime (``ell-not-prime``) or that only
    passed BPSW, above psi_13 (``ell-primality-unproven``)."""
    prime, method = primality_info(ell)
    if not prime:
        raise PreconditionFailure("ell-not-prime", f"ell={ell}")
    if method == "baillie-psw-probable-prime":
        raise PreconditionFailure(
            "ell-primality-unproven", f"ell={ell} is only a BPSW probable prime"
        )


def certify_rank_one(s: int, t: int) -> SelmerReport:
    """Prove rank E_{s,t}(Q) = 1 for s even, t = +-3 mod 8, l = s^4 + t^2
    prime, and return the Selmer report that caps the rank.

    Those congruences force l = 9 mod 16, where the forward Selmer group
    is {1, l} and the dual one is {+-1, +-l}: the descent cap is 1.  The
    base point (-s^2, s t) is not torsion (torsion is just (0, 0) since l
    is not a square), so the rank is exactly 1.  The Selmer groups come
    from ``selmer``, whose exact local descent runs once per residue of l
    mod 16 and is substituted for every other l of that residue (proof in
    ``selmer``); they are not read off ``rank_bound_by_residue``'s table.

    l must be proved prime: above psi_13 ``primality_info`` gives only a
    BPSW probable prime, and that is refused as ``ell-primality-unproven``.
    The proof is cached, so the re-checks in ``selmer`` and in
    ``reduction_at(c, l)`` cost nothing.

    The rank-one certificate is ``certify.certify_rank_one``'s; this
    function keeps its name because the benchmark's tracer
    (``perfbench/tracer.py``) times it by that name.
    """
    ell = s**4 + t**2
    if s <= 0 or s % 2 != 0:
        raise PreconditionFailure("s-not-even-positive", f"s={s}")
    if t % 8 not in (3, 5):
        raise PreconditionFailure("t-residue", f"t={t} must be +-3 mod 8")
    require_proved_prime(ell)
    assert ell % 16 == 9
    report = selmer(ell)
    if report.rank_upper != 1:
        raise AssertionError(f"descent gave rank cap {report.rank_upper}, expected 1")
    if is_torsion_point(Curve(-ell), (-s * s, s * t)):
        raise AssertionError("base point unexpectedly torsion")
    return report
