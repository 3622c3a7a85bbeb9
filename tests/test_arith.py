import random

import pytest

from relquad.arith import PSI_13, _small_primes, factorint, is_prime, smallest_prime_factors

# psi_12, the least strong pseudoprime to the twelve prime bases 2, ..., 37
# (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461


def trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_matches_trial_division():
    # every n below 5000, and random n with a prime cofactor past the
    # trial-division break (sqrt of the rest below the next small prime)
    rng = random.Random(17)
    nums = list(range(1, 5000)) + [rng.randrange(1, 1 << 34) for _ in range(200)]
    for n in nums:
        assert factorint(n) == trial_division(n), n
        assert factorint(-n) == factorint(n)


def test_factorint_beyond_small_primes():
    # factors above the small-prime table go through Miller-Rabin and rho
    p, q = 65537, 1_000_003
    assert factorint(p * p) == {p: 2}
    assert factorint(p * q) == {p: 1, q: 1}
    assert factorint(2**61 - 1) == {2**61 - 1: 1}
    assert factorint(12 * (2**61 - 1)) == {2: 2, 3: 1, 2**61 - 1: 1}
    with pytest.raises(ValueError):
        factorint(0)


def test_smallest_prime_factors_small_bounds():
    # bounds 0 and 1 raised IndexError
    assert smallest_prime_factors(0) == [0]
    assert smallest_prime_factors(1) == [0, 0]
    assert smallest_prime_factors(12) == [0, 0, 2, 3, 2, 5, 2, 7, 2, 3, 2, 11, 2]
    with pytest.raises(ValueError, match="got -1"):
        smallest_prime_factors(-1)


def test_is_prime_matches_the_sieve():
    # below 43^2 trial division by the primes <= 41 decides alone; above
    # it Miller-Rabin does
    spf = smallest_prime_factors(2 * 10**5)
    assert [n for n in range(len(spf)) if is_prime(n) != (n >= 2 and spf[n] == n)] == []
    assert not is_prime(-7) and is_prime(1669) and not is_prime(41 * 41) and is_prime(1693)


def test_is_prime_refuses_psi_12():
    # psi_12 passes Miller-Rabin to the bases 2, ..., 37, which called it
    # prime; base 41 refuses it, and the verdict is proven below PSI_13
    assert PSI_12 < PSI_13
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert factorint(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_small_prime_table_matches_the_sieve():
    # factorint's trial divisors: every prime below 2^16, in order, read off
    # the least-prime-factor sieve
    spf = smallest_prime_factors(1 << 16)
    assert _small_primes() == tuple(n for n in range(2, 1 << 16) if spf[n] == n)
    assert len(_small_primes()) == 6542 and _small_primes()[-1] == 65521
