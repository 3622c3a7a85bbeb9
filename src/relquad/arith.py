"""Integer helpers shared across the package.

Everything here is exact: Python ints only.  No floating point is used
anywhere in a decision path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

__all__ = ["BoundExceeded"]

_SMALL_PRIME_LIMIT = 1 << 16


class BoundExceeded(ValueError):
    """A size cap refused an input: names the operation, the input and the
    bound, e.g. a residue enumeration of more than RESIDUE_ENUMERATION_BOUND
    classes.  A ValueError, so the CLI reports it with exit code 2."""

    def __init__(self, operation: str, subject: str, size: int, bound: int):
        super().__init__(f"{operation} bound exceeded for {subject}: {size} > {bound}")
        self.operation = operation
        self.subject = subject
        self.size = size
        self.bound = bound


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    n = _SMALL_PRIME_LIMIT
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(n), sieve))


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = least prime factor of k (spf[0]=spf[1]=0), for k <= n:
    [0] at n = 0, [0, 0] at n = 1; ValueError at a negative n."""
    if n < 0:
        raise ValueError(f"sieve bound must be >= 0, got {n}")
    spf = [0, 0][: n + 1] + list(range(2, n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # no prime factor <= 37, so none <= sqrt(n)
        return True
    # deterministic Miller-Rabin for 64-bit and far beyond desk scale
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n odd composite, not a prime power of small primes
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0) as {p: exponent}."""
    if n == 0:
        raise ValueError("factorint(0)")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            # no prime factor below sqrt(n) is left: n is 1 or a prime
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _pollard_rho(m)
                stack.append(d)
                stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s*t^2, sign preserved."""
    if n == 0:
        return 0
    s = 1
    for p, e in factorint(n).items():
        if e % 2:
            s *= p
    return s if n > 0 else -s


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a,b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), full classical extension."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if a < 0:
            res = -res
    # factor out twos of n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            res = -res
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None. Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s, find a nonresidue z
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
