"""Exact integer arithmetic helpers.

Everything here is exact and runs on integers.  The only floating-point
output in the package comes from the heights module, which rounds outward.

Places are either the real place (the module constant ``REAL``) or a finite
prime given as an ``int``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

REAL = "R"

#: Deterministic Miller-Rabin base set.  The first 13 prime bases 2..41
#: decide every n below psi_13 ~ 3.32e24, the least strong pseudoprime to
#: all of them (Sorenson-Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 86, 2017).  That covers every ell = s^4 + t^2 with
#: s <= 4e4 and t <= 1e12.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: (psi_k, k): the first k bases decide every n < psi_k, the least strong
#: pseudoprime to all k of them (OEIS A014233).  psi_1..psi_8 are from
#: Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61
#: (1993); psi_9..psi_13 from Sorenson-Webster.  psi_8 = psi_7 and psi_9 =
#: psi_10 = psi_11, so those counts have no row of their own.  The last
#: row, psi_13, is a strong pseudoprime to every base above.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def vp(x: int, p: int) -> int | float:
    """p-adic valuation of the integer x.  Returns math.inf for x = 0.

    Anything but an integer (a ``Fraction`` included) is a TypeError.
    """
    if not is_prime(p):
        raise ValueError(f"vp: modulus {p} is not prime")
    x = operator.index(x)
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _miller_rabin_round(n: int, d: int, s: int, base: int) -> bool:
    """One strong-probable-prime round; True means 'passes' (maybe prime)."""
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameter choice.

    Assumes n odd, n > 2, and n not a perfect square (the D search below
    does not terminate on squares, so callers must exclude them).
    """
    d_candidate = 5
    while True:
        j = jacobi(d_candidate, n)
        if j == -1:
            break
        if j == 0 and abs(d_candidate) != n:
            return False
        d_candidate = -(d_candidate + 2) if d_candidate > 0 else -(d_candidate - 2)
    disc = d_candidate
    q = (1 - disc) // 4
    # n + 1 = k * 2^s with k odd
    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # Lucas sequences U_k, V_k for P=1, Q=q, by binary ladder.
    u, v, qk = 1, 1, q % n
    inv2 = pow(2, -1, n)
    for bit in bin(k)[3:]:
        # double: index m -> 2m
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            # increment: 2m -> 2m + 1
            u, v = (u + v) * inv2 % n, (disc * u + v) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


@lru_cache(maxsize=1024)
def primality_info(n: int) -> tuple[bool, str]:
    """Primality verdict plus which decision procedure produced it.

    Methods: "small-table" (n < 2), trial lookups for tiny n,
    "deterministic-miller-rabin" for n < psi_13 ~ 3.32e24, and
    "baillie-psw-probable-prime" from psi_13 up (MR base 2 plus strong
    Lucas).  A BPSW "composite" is a proof; a BPSW "prime" is only a
    probable prime, with no counterexample known.  No record field says
    which method decided, so ``certify_rank_one`` refuses an ell whose
    verdict is a BPSW "prime" (``ell-primality-unproven``).

    Below psi_13 the proof runs only the first k bases, for the least k
    with n < psi_k (``_MR_TIERS``).  No odd composite below psi_k is a
    strong probable prime to all of them, and the trial division by every
    base has already left n odd, above 41 and coprime to each base.  So an
    ell below 3.2e9 takes at most four rounds, not 13.

    Verdicts are cached (bounded), so a certifier that proves ell prime
    and its later re-checks of the same ell pay for one proof.
    """
    if n < 2:
        return False, "small-table"
    # trial division by every base leaves n coprime to each of them
    for q in _MR_BASES:
        if n == q:
            return True, "small-table"
        if n % q == 0:
            return False, "small-table"
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for limit, k in _MR_TIERS:
        if n < limit:
            for base in _MR_BASES[:k]:
                if not _miller_rabin_round(n, d, s, base):
                    return False, "deterministic-miller-rabin"
            return True, "deterministic-miller-rabin"
    if not _miller_rabin_round(n, d, s, 2):
        return False, "baillie-psw-probable-prime"
    if is_square(n):
        # squares pass no further tests, and the Lucas D search needs this
        return False, "baillie-psw-probable-prime"
    if not _strong_lucas_prp(n):
        return False, "baillie-psw-probable-prime"
    return True, "baillie-psw-probable-prime"


def is_prime(n: int) -> bool:
    return primality_info(n)[0]


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton steps from
    a power of two above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def kth_power_free(n: int, k: int, step: int = 2) -> bool:
    """True when no prime q has q^k dividing n.  Sign of n is ignored.

    After 2, the trial divisors are 1 + step, 1 + 2 step, ...: every odd
    number for the default step.  A caller that knows every odd prime
    factor of n to be 1 mod 4 may pass step 4, about half the divisions;
    ``certify.member`` does, for n = s^4 + t^2 with s, t coprime.  A
    composite trial divisor never divides what is left, as its prime
    factors are smaller and already divided out.

    Trial division stops at B = floor(m^(1/(k+1))), where m is what is
    left of |n| once the primes found so far are divided out (B shrinks
    with m).  Every prime factor of the final m then exceeds B, so is
    above m^(1/(k+1)).  If such a prime q had q^k | m, the quotient
    m / q^k would be below m^(1/(k+1)), so at most B, and have no prime
    factor up to B, so it would be 1: m = q^k.  Hence m is
    k-th-power-free exactly when m = 1 or m is no perfect k-th power.
    For k = 4 that is about n^(1/5) / 2 divisions, not n^(1/4) / 2.
    """
    if n == 0:
        raise ValueError("kth_power_free: n must be nonzero")
    if k < 2:
        raise ValueError("kth_power_free: k must be >= 2")
    n = abs(n)
    bound = _iroot(n, k + 1)
    q = 2
    while q <= bound:
        if n % q == 0:
            v = 0
            while n % q == 0:
                n //= q
                v += 1
            if v >= k:
                return False
            bound = _iroot(n, k + 1)
        q = q + step if q > 2 else 1 + step
    return n == 1 or _iroot(n, k) ** k != n


def is_square(n: int) -> bool:
    """Exact perfect-square test for an integer."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi: n must be positive and odd")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int, bound: int = 10**6) -> dict[int, int]:
    """Prime factorization by trial division up to ``bound``.

    The leftover cofactor must be prime (checked), so this is exact for every
    integer whose second-largest prime factor is below ``bound``; family
    parameters in this package always qualify.  Raises on anything harder,
    rather than returning a partial answer.
    """
    if n == 0:
        raise ValueError("factorize: n must be nonzero")
    n = abs(n)
    out: dict[int, int] = {}
    q = 2
    while q * q <= n and q <= bound:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"factorize: composite cofactor {n} beyond trial bound")
        out[n] = out.get(n, 0) + 1
    return out
