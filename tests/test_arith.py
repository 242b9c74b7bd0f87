"""Arithmetic layer against independent oracles: a sieve, a separately
written Miller-Rabin, Euler's criterion, and brute-force scans."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divpoly_oracle import divisors_up_to, is_square_rational
from ellcert.arith import (
    _MR_BASES,
    _MR_TIERS,
    _iroot,
    _primorial,
    factorize,
    is_prime,
    is_square,
    jacobi,
    kth_power_free,
    primality_info,
    vp,
)

SIEVE_LIMIT = 200_000


def _sieve(limit):
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = b"\x00" * len(range(q * q, limit + 1, q))
    return flags


def _strong_probable_prime(n, a):
    """Does odd n > a pass the strong (Miller-Rabin) test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _mr_oracle(n):
    # deterministic below psi_12 ~ 3.18e23 with these bases, far beyond the
    # sampled range
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    return all(
        _strong_probable_prime(n, a)
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    )


def test_primality_matches_sieve():
    flags = _sieve(SIEVE_LIMIT)
    mismatches = [
        n for n in range(2, SIEVE_LIMIT + 1) if is_prime(n) != bool(flags[n])
    ]
    assert mismatches == []


def test_primality_sampled_to_ten_million():
    rng = random.Random(0x5EED)
    for _ in range(2000):
        n = rng.randrange(2, 10**7)
        assert is_prime(n) == _mr_oracle(n), n


def test_primality_info_methods():
    assert primality_info(1) == (False, "small-table")
    assert primality_info(31) == (True, "small-table")
    assert primality_info(641)[1] == "deterministic-miller-rabin"
    verdict, method = primality_info(2**521 - 1)  # Mersenne prime
    assert verdict and method == "baillie-psw-probable-prime"
    verdict, method = primality_info(2**522 - 1)
    assert not verdict


#: The least strong pseudoprimes to the first 12 and 13 prime bases
#: (Sorenson-Webster, Math. Comp. 86, 2017).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_psi_12_is_rejected_by_base_41():
    assert _mr_oracle(PSI_12)  # passes bases 2..37
    assert not _strong_probable_prime(PSI_12, 41)
    assert primality_info(PSI_12) == (False, "deterministic-miller-rabin")


def test_psi_13_takes_the_baillie_psw_path():
    assert _mr_oracle(PSI_13) and _strong_probable_prime(PSI_13, 41)
    assert primality_info(PSI_13) == (False, "baillie-psw-probable-prime")
    # just below it the fixed bases still decide (PSI_13 - 2, - 4 and - 6
    # have a factor up to 41)
    assert primality_info(PSI_13 - 8)[1] == "deterministic-miller-rabin"


def _thirteen_bases(n):
    """``primality_info`` as it was before the tiers: trial division by
    the 13 bases, then all 13 strong tests below psi_13."""
    if n < 2:
        return False, "small-table"
    for q in _MR_BASES:
        if n % q == 0:
            return n == q, "small-table"
    return all(_strong_probable_prime(n, a) for a in _MR_BASES), "deterministic-miller-rabin"


def test_each_tier_limit_is_the_pseudoprime_it_names():
    # psi_k passes the first k bases; where the next row needs more bases
    # it fails the first of those, which proves it composite
    assert [psi for psi, _ in _MR_TIERS] == sorted(psi for psi, _ in _MR_TIERS)
    for (psi, k), (_, next_k) in zip(_MR_TIERS, _MR_TIERS[1:]):
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES[: next_k - 1]), psi
        assert not _strong_probable_prime(psi, _MR_BASES[next_k - 1]), psi
    assert _MR_TIERS[-1] == (PSI_13, 13) and (PSI_12, 12) in _MR_TIERS
    assert all(_strong_probable_prime(PSI_13, a) for a in _MR_BASES)


def test_tiers_agree_with_thirteen_bases_below_two_million():
    # the 13-base verdict is exact below psi_13, so the sieve stands in for
    # it on this dense range; the method is "small-table" exactly where
    # trial division by a base decides
    limit = 2 * 10**6
    prime = _sieve(limit - 1)
    small = bytearray(limit)
    small[0:2] = b"\x01\x01"
    for q in _MR_BASES:
        small[q::q] = b"\x01" * len(range(q, limit, q))
    got = list(map(primality_info.__wrapped__, range(limit)))
    want = [(bool(f), "small-table" if m else "deterministic-miller-rabin")
            for f, m in zip(prime, small)]
    assert got == want


def test_tiers_agree_with_thirteen_bases_around_each_limit_and_at_random():
    rng = random.Random(0x7E5)
    primality = primality_info.__wrapped__
    lower = 0
    for psi, _ in _MR_TIERS:
        window = range(max(psi - 2000, 0), psi + 2000) if psi < PSI_13 else range(psi - 2000, psi)
        sampled = [rng.randrange(lower, psi) for _ in range(200)]
        for n in (*window, *sampled):
            assert primality(n) == _thirteen_bases(n), n
        lower = psi


def test_infinite_family_ell_above_two_to_the_64_is_decided_exactly():
    ell = 131072**4 + 75**2  # about 2.95e20, the member (131072, 75)
    assert ell > 2**64
    assert primality_info(ell) == (True, "deterministic-miller-rabin")


def test_vp_frozen():
    assert vp(250, 5) == 3
    assert vp(-250, 5) == 3
    assert vp(18, 5) == 0
    assert vp(-4, 2) == 2
    assert vp(0, 5) == math.inf
    # integers only: a Fraction is refused, never read as its numerator
    with pytest.raises(TypeError):
        vp(Fraction(18, 25), 5)
    with pytest.raises(TypeError):
        vp(Fraction(250), 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_vp_additive(a, b):
    assert vp(a * b, 7) == vp(a, 7) + vp(b, 7)
    assert vp(-a * 7 ** (b % 5), 7) == vp(a, 7) + b % 5


def test_fourth_power_free_brute():
    for n in range(1, 4000):
        free = all(n % q**4 for q in range(2, 9))
        assert kth_power_free(n, 4) == free, n


def _kth_power_free_full_scan(n, k):
    """The trial division up to n^(1/k) that ``kth_power_free`` replaced."""
    n = abs(n)
    q = 2
    while q**k <= n:
        if n % q == 0:
            v = 0
            while n % q == 0:
                n //= q
                v += 1
            if v >= k:
                return False
        q += 1 if q == 2 else 2
    return True


def test_kth_power_free_matches_the_full_scan():
    """20,000 seeded inputs of 1 to 9 digits, 40 % of them times q^(k-1),
    q^k or q^(k+1) for a prime q up to 2000.  When the small factor is
    below q, q^k lies above the n^(1/(k+1)) cut-off and only the cofactor
    test sees it."""
    rng = random.Random(20221019)
    primes = [q for q in range(2, 2000) if is_prime(q)]
    past_cut_off = 0
    for _ in range(20_000):
        k = rng.choice((2, 3, 4, 4, 4, 5))
        n = rng.randrange(1, 10 ** rng.randint(1, 9))
        if rng.random() < 0.4:
            q = rng.choice(primes)
            n *= q ** rng.choice((k - 1, k, k + 1))
            past_cut_off += n % q**k == 0 and q ** (k + 1) > n
        n *= rng.choice((1, -1))
        assert kth_power_free(n, k) == _kth_power_free_full_scan(n, k), (n, k)
    assert past_cut_off > 500
    for n in range(1, 20_000):
        for k in (2, 3, 4):
            assert kth_power_free(n, k) == _kth_power_free_full_scan(n, k), (n, k)


def test_step_four_is_the_full_test_for_coprime_family_parameters():
    # for coprime s, t only 2 and primes 1 mod 4 divide s^4 + t^2
    not_free = 0
    for s in range(300):
        for t in range(300):
            if math.gcd(s, t) == 1:
                ell = s**4 + t * t
                free = kth_power_free(ell, 4)
                assert kth_power_free(ell, 4, 4) == free, (s, t)
                not_free += not free
    assert not_free > 100
    ell = 25000075**4 + 7**2  # the 30-digit member
    assert kth_power_free(ell, 4, 4) is kth_power_free(ell, 4) is True


@pytest.mark.parametrize(
    "n,free",
    [
        (2**4, False),
        (7**4, False),  # the cofactor 7^4 is above the cut-off 4
        (7**4 * 2, False),
        (10007**4, False),
        (10007**4 * 9973, False),
        (10007**3 * 9973, True),
        (10007**5, False),
        # small primes divided out shrink the cut-off below 10007
        (2**3 * 3**3 * 10007**4, False),
        (2**3 * 3**3 * 10007**3 * 9973, True),
        (-(3**4) * 11, False),
        (1, True),
        # across the 2^16 edge of the gcd table: 65521 is the last prime
        # below it, 65537 the first above.  Below 2^80 a fourth power past
        # the table is the cofactor itself
        (65537**4, False),
        (65537**4 * 3, False),
        # above 2^80: the table's layers find 65521^4, the trial from 65537
        # finds 65537^4, and cubes of both are divided out and pass
        (65521**4 * 536870923, False),  # times a 30-bit prime
        (65537**4 * 524309, False),  # times a 20-bit prime
        (65521**3 * 65537**3 * 549755813911, True),  # times a 40-bit prime
        (-(65537**4) * 524309, False),
        (-(65521**3) * 65537**3 * 549755813911, True),
    ],
)
def test_kth_power_free_prime_powers_past_the_cut_off(n, free):
    assert kth_power_free(n, 4) == free
    # the only trial divisor that divides any n here is 65537, 1 mod 4
    assert kth_power_free(n, 4, 4) == free


def test_primorial_is_the_product_of_the_primes_below_two_to_the_b():
    for b in range(13):
        assert _primorial(b) == math.prod(q for q in range(2, 1 << b) if is_prime(q)), b
    assert _primorial(16) % 65521 == 0 and _primorial(16) % 65537 != 0


def test_iroot():
    for n in range(0, 3000):
        for k in range(1, 7):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
    for n in (10**60 + 7, 2**200, 3**150 - 1, (10**20 + 39) ** 5):
        for k in (2, 3, 4, 5, 17):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**12))
def test_square_detection(m):
    assert is_square(m * m)
    assert is_square_rational(Fraction(m * m, 49))
    r = math.isqrt(m)
    assert is_square(m) == (r * r == m)


def test_square_negatives_and_rationals():
    assert not is_square(-4)
    # integers only: rational squareness is the oracle's
    with pytest.raises(TypeError):
        is_square(Fraction(9, 16))
    assert is_square_rational(Fraction(9, 16))
    assert not is_square_rational(Fraction(9, 15))
    assert not is_square_rational(Fraction(-9, 16))


def test_jacobi_euler_criterion():
    for p in (3, 5, 7, 11, 13, 97, 641):
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if e == 1 else -1), (a, p)


def test_jacobi_composite_modulus():
    # multiplicative in the bottom argument
    for a in (2, 5, 7, 10, 13):
        assert jacobi(a, 15) == jacobi(a, 3) * jacobi(a, 5)
    assert jacobi(3, 9) == 0
    assert jacobi(2, 1) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**9))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    prod = 1
    for q, e in factors.items():
        assert is_prime(q)
        prod *= q**e
    assert prod == n


def test_factorize_refuses_hard_cofactors():
    hard = (10**6 + 3) * (10**6 + 33)  # both prime, both beyond the bound
    with pytest.raises(ValueError):
        factorize(hard)
    with pytest.raises(ValueError):
        factorize(0)
    # ...but a single big prime cofactor is fine
    assert factorize(4 * (10**6 + 3)) == {2: 2, 10**6 + 3: 1}


def test_divisors_up_to():
    factors = factorize(360)
    assert divisors_up_to(factors, 20) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20]
    assert divisors_up_to(factorize(97), 96) == [1]
