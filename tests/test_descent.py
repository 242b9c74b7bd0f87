"""Two-isogeny descent machinery: torsor bookkeeping, local solubility
against the known residue tables, Selmer groups, and the rank-1 pipeline."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from divpoly_oracle import is_fourth_power_2adic, soluble_at_two_by_value_sets
from ellcert import arith, certify, descent
from ellcert.arith import REAL, is_prime, primality_info
from ellcert.certify import certify_infinite_instance
from ellcert.descent import (
    _exact_selmer,
    _soluble_at_odd_prime,
    _soluble_at_two,
    certify_rank_one,
    locally_soluble,
    make_torsors,
    rank_bound_by_residue,
    search_torsor_point,
    selmer,
)
from ellcert.errors import PreconditionFailure

PRIMES_TO_400 = [q for q in range(3, 401, 2) if is_prime(q)]


def test_make_torsors_shapes():
    ts = make_torsors(5)
    assert len(ts) == 16  # +-{1, 2, 5, 10} on each side
    for t in ts:
        if t.side == "forward":
            assert t.alpha * t.beta == 4 * 5
        else:
            assert t.alpha * t.beta == -16 * 5
        assert t.alpha == t.d
    assert len(make_torsors(2)) == 8  # classes collapse to +-{1, 2}
    # every caller proves ell prime first, so a composite is an alarm
    with pytest.raises(AssertionError):
        make_torsors(9)


def _torsor(ts, side, d):
    (t,) = [t for t in ts if t.side == side and t.d == d]
    return t


def test_real_place():
    ts = make_torsors(5)
    assert not locally_soluble(_torsor(ts, "forward", -1), REAL)
    assert not locally_soluble(_torsor(ts, "forward", -2), REAL)
    assert locally_soluble(_torsor(ts, "forward", 1), REAL)
    # dual -1 has beta = 16 l > 0, so the real place never obstructs it
    assert locally_soluble(_torsor(ts, "dual", -1), REAL)


def test_forward_two_class_at_two_table():
    # known residue rule: soluble at 2 exactly for l = +-1, 7 mod 16
    for ell in PRIMES_TO_400:
        t = _torsor(make_torsors(ell), "forward", 2)
        assert locally_soluble(t, 2) == (ell % 16 in (1, 7, 15)), ell


def test_dual_minus_one_at_two_table():
    # insoluble at 2 exactly for l = 3 mod 4 together with l = 13 mod 16
    for ell in PRIMES_TO_400:
        t = _torsor(make_torsors(ell), "dual", -1)
        expected_insoluble = ell % 4 == 3 or ell % 16 == 13
        assert locally_soluble(t, 2) != expected_insoluble, ell


def test_dual_even_classes_die_at_two():
    for ell in [q for q in PRIMES_TO_400 if q <= 100]:
        ts = make_torsors(ell)
        for d in (2, -2, 2 * ell, -2 * ell):
            assert not locally_soluble(_torsor(ts, "dual", d), 2), (ell, d)


# signed representatives +-2^k r of Q_2^*/(Q_2^*)^4, k < 4, r odd < 16
SIGNED_CLASS_REPS = [sgn * (r << k) for sgn in (1, -1) for k in range(4) for r in range(1, 16, 2)]
# odd 4th powers times units = 1 mod 16: each is a 2-adic 4th power
FOURTH_POWER_MULTIPLIERS = [3**4 * 17, 5**4 * 33, 7**4 * 49, 3**4 * 5**4 * 65]


def _fourth_power_class(x):
    """Representative 2^(v_2(x) mod 4) * (odd part of x mod 16) of x in
    Q_2^*/(Q_2^*)^4, signed: the value-set oracle's tables grow with the
    valuations, so it is fed classes (the proof is in ``selmer``)."""
    v = (x & -x).bit_length() - 1
    return (-1 if x < 0 else 1) * ((abs(x) >> v) % 16 << v % 4)


def test_two_adic_verdict_depends_only_on_fourth_power_classes():
    # the verdict on a non-representative member of each class must match
    # the verdict on the representative, and the value-set oracle on the
    # member's class
    pairs = itertools.product(SIGNED_CLASS_REPS, repeat=2)
    for i, (a, b) in enumerate(pairs):
        alpha = a * FOURTH_POWER_MULTIPLIERS[i % 4]
        beta = b * FOURTH_POWER_MULTIPLIERS[(i // 4) % 4]
        if a % 2 and b % 2:
            alpha *= 2**4  # a valuation of 4 or more where it is cheap
        want = soluble_at_two_by_value_sets(_fourth_power_class(alpha), _fourth_power_class(beta))
        assert _soluble_at_two(alpha, beta) == _soluble_at_two(a, b) == want, (a, b)


def test_disk_recursion_matches_the_value_set_oracle_on_every_class_pair():
    # w^2 = alpha u^4 + beta v^4 and w^2 = beta u^4 + alpha v^4 swap u and
    # v, so the oracle runs once per unordered pair
    soluble = 0
    for a, b in itertools.combinations_with_replacement(SIGNED_CLASS_REPS, 2):
        want = soluble_at_two_by_value_sets(a, b)
        assert _soluble_at_two(a, b) == want, (a, b)
        assert _soluble_at_two(b, a) == want, (b, a)
        soluble += want * (1 if a == b else 2)
    assert 0 < soluble < len(SIGNED_CLASS_REPS) ** 2


def test_disk_recursion_on_deep_coefficients_matches_the_oracle():
    # seeded alpha, beta with 2-adic valuations up to 12 and both signs go
    # to the disk recursion as they are; the oracle, whose tables grow with
    # the valuations, gets their classes in Q_2^*/(Q_2^*)^4 instead
    rng = random.Random(0x2AD1C)
    for _ in range(400):
        alpha, beta = (rng.choice((1, -1)) * rng.randrange(1, 2**16, 2) << rng.randrange(13)
                       for _ in range(2))
        want = soluble_at_two_by_value_sets(_fourth_power_class(alpha), _fourth_power_class(beta))
        assert _soluble_at_two(alpha, beta) == want, (alpha, beta)


def _is_qp_square(x, p):
    """x is a nonzero square in Q_p, p odd: even valuation, and a unit part
    that is a square mod p by Euler's criterion."""
    v = 0
    while x and x % p == 0:
        x, v = x // p, v + 1
    return v % 2 == 0 and pow(x % p, (p - 1) // 2, p) == 1


def test_odd_prime_solubility_of_unbalanced_torsors_and_the_balanced_alarm():
    """Where v_p(beta) - v_p(alpha) is not divisible by 4, the two terms
    never share a valuation, and the torsor is soluble exactly when it has
    a point with u or v = 0.  The verdict is checked against a point search
    over 0 <= u, v <= p.  A balanced torsor (the descent asks none: at l
    the valuations differ by 1) whose coefficients are both non-squares
    is a soundness alarm."""
    verdicts = set()
    for p in (3, 5, 7, 11):
        for a, b in itertools.product(range(5), repeat=2):
            if (b - a) % 4 == 0:
                continue
            for ua, ub in itertools.product(range(1, p), repeat=2):
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    alpha, beta = sa * ua * p**a, sb * ub * p**b
                    # an unbalanced torsor takes the value 0 only at (0, 0)
                    found = any(_is_qp_square(alpha * u**4 + beta * v**4, p)
                                for u in range(p + 1) for v in range(p + 1) if u or v)
                    assert _soluble_at_odd_prime(alpha, beta, p) == found, (alpha, beta, p)
                    verdicts.add(found)
    assert verdicts == {True, False}
    for alpha, beta, p in ((2, 2, 3), (2, 2 * 3**4, 3), (-1, 3 * 7**4, 7), (2, 3, 5)):
        with pytest.raises(AssertionError, match="balanced torsor"):
            _soluble_at_odd_prime(alpha, beta, p)


def test_selmer_proves_ell_prime_once(monkeypatch):
    # selmer's assert proves ell prime; make_torsors, the local test at
    # ell and rank_bound_by_residue re-check it in the cache
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    rounds = []
    real_round = arith._miller_rabin_round
    monkeypatch.setattr(
        arith, "_miller_rabin_round", lambda n, *rest: rounds.append(n) or real_round(n, *rest)
    )
    arith.primality_info.cache_clear()
    assert selmer(1009).rank_upper == rank_bound_by_residue(1009)
    assert rounds == [1009]  # one deterministic run; 1009 < psi_1 needs base 2 alone


def _primes_below(n):
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for q in range(2, math.isqrt(n - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n, q)))
    return [q for q in range(n) if flags[q]]


def test_selmer_memo_matches_the_exact_descent_below_2e5(monkeypatch):
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    primes = _primes_below(2 * 10**5)
    assert len(primes) == 17984 and primes[0] == 2
    mismatches = [ell for ell in primes if selmer(ell) != _exact_selmer(ell)]
    assert mismatches == []
    # the eight odd residues mod 16, and the prime 2 on its own
    assert sorted(descent._SELMER_CLASSES) == [1, 2, 3, 5, 7, 9, 11, 13, 15]


def test_selmer_memo_does_not_depend_on_fill_order(monkeypatch):
    # fill every residue from a prime near 10^18 first, then the small ones
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    large = {}
    ell = 10**18 + 1
    while len(large) < 8:
        if ell % 16 not in large and is_prime(ell):
            large[ell % 16] = ell
        ell += 2
    for ell in large.values():
        assert selmer(ell) == _exact_selmer(ell), ell
    assert sorted(descent._SELMER_CLASSES) == [1, 3, 5, 7, 9, 11, 13, 15]
    for ell in _primes_below(5000):
        assert selmer(ell) == _exact_selmer(ell), ell


def test_selmer_runs_the_exact_descent_once_per_residue(monkeypatch):
    monkeypatch.setattr(descent, "_SELMER_CLASSES", {})
    exact = []
    monkeypatch.setattr(
        descent, "_exact_selmer", lambda ell: exact.append(ell) or _exact_selmer(ell)
    )
    for ell in (41, 73, 89, 2, 137, 3, 19):
        selmer(ell)
    assert exact == [41, 2, 3]  # 41, 73, 89 and 137 are 9 mod 16; 3 and 19 are 3


def test_certify_rank_one_refuses_an_unproven_ell():
    # l = 1350000^4 + 29^2 is above psi_13: only a BPSW probable prime
    ell = 1350000**4 + 29**2
    assert primality_info(ell) == (True, "baillie-psw-probable-prime")
    with pytest.raises(PreconditionFailure) as err:
        certify_rank_one(1350000, 29)
    assert err.value.reason == "ell-primality-unproven"
    # below psi_13 the fixed Miller-Rabin bases prove l prime
    assert certify_rank_one(131072, 75).sel_forward == (1, 131072**4 + 75**2)


def test_certify_rank_one_proves_ell_prime_once(monkeypatch):
    # the re-checks of l in selmer and in reduction_at hit the cache
    rounds = []
    real_round = arith._miller_rabin_round
    monkeypatch.setattr(
        arith, "_miller_rabin_round", lambda n, *rest: rounds.append(n) or real_round(n, *rest)
    )
    arith.primality_info.cache_clear()
    certify_infinite_instance(2, 75, 5, 1)
    assert rounds.count(5641) == 2  # one deterministic run; 5641 < psi_2 needs bases 2, 3


def test_found_points_imply_local_solubility():
    # any torsor with an actual rational point must pass every local test
    for ell in (5, 13, 41, 73):
        for t in make_torsors(ell):
            witness = search_torsor_point(t, 12)
            if witness is None:
                continue
            u, v, w = witness
            assert w * w == t.alpha * u**4 + t.beta * v**4
            places = (REAL, 2) if ell == 2 else (REAL, ell, 2)
            for place in places:
                assert locally_soluble(t, place), (ell, t.side, t.d, place)


def test_known_global_points_found():
    ts = make_torsors(5)
    fwd = search_torsor_point(_torsor(ts, "forward", 5), 8)
    assert fwd is not None
    dual = search_torsor_point(_torsor(ts, "dual", -5), 8)
    assert dual is not None


def test_selmer_frozen_cases():
    rep = selmer(5)
    assert set(rep.sel_forward) == {1, 5}
    assert set(rep.sel_dual) == {1, -1, 5, -5}
    assert (rep.dim_forward, rep.dim_dual, rep.rank_upper) == (1, 2, 1)

    rep = selmer(17)
    assert set(rep.sel_forward) == {1, 2, 17, 34}
    assert rep.rank_upper == 2

    assert selmer(3).rank_upper == 0
    assert selmer(41).rank_upper == 1

    rep = selmer(2)
    assert (rep.dim_forward, rep.dim_dual) == (1, 2)


def test_selmer_closed_under_product():
    for ell in (5, 17, 41, 97):
        rep = selmer(ell)
        for group in (rep.sel_forward, rep.sel_dual):
            classes = set(group)
            for d1 in classes:
                for d2 in classes:
                    prod = d1 * d2
                    # reduce modulo squares back into +-{1, 2, l, 2l}
                    for sq in (1, 4, ell * ell, 4 * ell * ell):
                        if prod % sq == 0 and abs(prod // sq) in (1, 2, ell, 2 * ell):
                            prod //= sq
                    assert prod in classes, (ell, d1, d2)


def test_residue_prediction_table():
    assert rank_bound_by_residue(3) == 0
    assert rank_bound_by_residue(11) == 0
    assert rank_bound_by_residue(13) == 0
    assert rank_bound_by_residue(5) == 1
    assert rank_bound_by_residue(41) == 1
    assert rank_bound_by_residue(2) == 1
    assert rank_bound_by_residue(17) == 2
    assert rank_bound_by_residue(97) == 2
    # the caller proves ell prime first, so a composite is an alarm
    with pytest.raises(AssertionError):
        rank_bound_by_residue(15)


def test_certify_rank_one():
    # the Selmer report that caps the rank at 1
    rep = certify_rank_one(2, 5)
    assert rep == ((1, 41), (1, -1, 41, -41), 1, 2, 1)
    assert certify_rank_one(4, 5).sel_forward == (1, 281)
    assert certify_rank_one(2, 75).sel_forward == (1, 5641)
    # and the certificate made from it
    cert = certify.certify_rank_one(2, 5).fields()
    assert (cert.subject["ell"], cert.rank, cert.ell_mod_16) == (41, 1, 9)
    assert cert.base_point_nontorsion


@pytest.mark.parametrize(
    "s,t,reason",
    [
        (3, 10, "s-not-even-positive"),
        (0, 5, "s-not-even-positive"),
        (2, 7, "t-residue"),
        (2, 1, "t-residue"),
        (2, 3, "ell-not-prime"),  # 16 + 9 = 25
    ],
)
def test_certify_rank_one_refusals(s, t, reason):
    with pytest.raises(PreconditionFailure) as err:
        certify_rank_one(s, t)
    assert err.value.reason == reason


def _is_fourth_power_2adic_by_fractions(x):
    """The reference: x = 2^v u with v = 0 mod 4 and the odd unit u = 1
    mod 16, worked out in Fractions."""
    if x == 0:
        return False
    v = 0
    while x.numerator % 2 == 0:
        x /= 2
        v += 1
    while x.denominator % 2 == 0:
        x *= 2
        v -= 1
    return v % 4 == 0 and x.numerator * pow(x.denominator, -1, 16) % 16 == 1


def test_integer_fourth_power_test_matches_the_fraction_one():
    values = [*range(-80, 81), *(2**e * u for e in range(13) for u in (1, -15, 17, 81))]
    agree = 0
    for num in values:
        for den in values:
            if den == 0:
                continue
            want = _is_fourth_power_2adic_by_fractions(Fraction(num, den))
            assert is_fourth_power_2adic(num, den) == want, (num, den)
            agree += want
    assert agree > 300
