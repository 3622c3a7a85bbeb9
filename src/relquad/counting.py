"""Counting square roots of a discriminant modulo ideals.

The central object is N(a) = card{ x mod 2a : x^2 = delta mod 4a }.  It is
computed three independent ways: brute-force residue enumeration, the
divisor sum of the extended character over divisors b | a with a/b
squarefree, and a fast multiplicative evaluator assembled from local
casework at each prime power.  All three must agree everywhere, and all
three refuse a fractional ideal, or an ideal of another field, checked
once, in place, at the entry.

The divisor sum and the local casework work on the prime factorization of
a and build no ideal.  With a = prod P^e, the divisor sum runs over the
2^omega exponent choices k_P in {e, e - 1} and values each with the
character's exponent kernel, QuadCharacter._value; it stays a sum over all
divisors, independent of the local casework.  The local count at P^k reads
v_P(delta) from the character's prime dict.  At a prime of delta with
v_P(delta) even it rests on at most three local_square_solvable verdicts,
decided once per (delta, P) and kept in the local memo of delta's
DiscriminantInfo: a prime recurs across the ideals of one delta and
across its characters.  The route over divisors built as ideal
products survives as the test oracle
tests/helpers.py::count_square_roots_formula_by_ideals.

The brute-force route (count_square_roots, square_root_pairs) is the
integer search kernel ideals._root_coords on a's HNF triple scaled by 2
and 4, the same kernel that finds the conductor witness and, under
discriminants._solvable_at, the character's local verdicts, with no ideal
2a or 4a built; like Ideal.residues it
refuses N(2a) > RESIDUE_ENUMERATION_BOUND.  Its roots are memoised per
(field, X, Y, a), delta = X + Y*w, by _roots, an LRU cache of
FACTOR_CACHE_SIZE entries, whose hits hash ints, the interned field and
the interned ideal a, all in C, so the counting, zeta and pair routes of
one (delta, a) run one search between them.  Each entry checks delta
once; zeta_coefficients and square_root_pairs then read _roots over the
memoised tuples of _ideals_of_norm, whose ideals are integral.  The
formula and local routes never read it.  The local casework asks whether
delta itself is a square mod P^(l + m), l = v_P(delta) even, which is
whether its unit part delta/pi^l is one mod P^m: no pi^l and no element
division.

The Dirichlet tables of the decomposition law (ideal_count_table,
primitive_character_table, dirichlet_convolution) cost O(1) per index once
the primes up to the bound are known.  One prime-power sieve per bound,
cached, gives the least prime factor p of k and the power q of p exactly
dividing k.  The ideal count is multiplicative, filled as a(q) a(k/q), with
a local rule at each prime power whose splitting symbol comes from Euler's
criterion on the field discriminant; the primitive character is completely
multiplicative, filled as chi(p) chi(k/p), with prime values from the
character's one splitting law, QuadCharacter._prime_value, which keeps
kronecker: the two sides of the law share no symbol routine.  The
convolution splits the pairs (d, k), d k <= n, at s = isqrt(n), hyperbola
fashion, into the rows d <= s and the columns k <= s with d > s, and adds
each row or column onto a strided slice of the output in one C-level map:
at most 2 s slice updates.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product, repeat
from math import isqrt
from operator import add, mul, sub

from ._record import Record, slot_setters
from .arith import smallest_prime_factors
from .characters import QuadCharacter
from .discriminants import _dyadic_ramification, local_square_solvable
from .field import Elem, QuadField
from .ideals import (
    FACTOR_CACHE_SIZE,
    Ideal,
    PrimeIdeal,
    _factor,
    _hnf_triple,
    _ideals_of_norm,
    _primes_above,
    _root_coords,
)

__all__ = [
    "count_square_roots",
    "count_square_roots_formula",
    "count_square_roots_local",
    "count_square_roots_local_product",
    "zeta_coefficients",
    "RootPair",
    "square_root_pairs",
    "order_ideal_counts",
    "order_ideal_count_sublattice",
    "ideal_count_table",
    "primitive_character_table",
    "dirichlet_convolution",
    "square_stretch",
]


def count_square_roots(delta: Elem, a: Ideal) -> int:
    """Brute force straight from the definition, on integer coordinates."""
    if a.field is not delta.field:
        raise ValueError("ideal and element of different fields")
    if a.den != 1:
        raise ValueError(f"integral ideal required, got {a}")
    if delta.m != 1:  # the search kernel under _roots reads delta's integer coordinates
        raise ValueError(f"integral delta required, got {delta}")
    return len(_roots(delta.field, delta.X, delta.Y, a))


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _roots(K: QuadField, X: int, Y: int, a: Ideal) -> tuple[tuple[int, int], ...]:
    """The coordinates of the roots b mod 2a of b^2 = delta mod 4a, in the
    order of square_root_coords, for an integral delta = X + Y*w of K and
    an integral a: the search kernel on a's HNF triple scaled by 2 and 4,
    with no Ideal built."""
    return tuple(_root_coords(K, X, Y, _hnf_triple(a, 2), _hnf_triple(a, 4)))


def count_square_roots_formula(chi: QuadCharacter, a: Ideal) -> int:
    """Divisor sum of the extended character over b | a with a/b squarefree:
    with a = prod P^e, each b is an exponent choice k_P in {e, e - 1},
    valued by the character's kernel on its pairs (P, k_P), k_P >= 1."""
    if a.field is not chi.field:
        raise ValueError("ideal and character of different fields")
    if a.den != 1:
        raise ValueError(f"integral ideal required, got {a}")
    fac = _factor(a)
    total = 0
    for ks in product(*((e, e - 1) for _, e in fac)):
        total += chi._value([(P, k) for (P, _), k in zip(fac, ks) if k], True)
    return total


def count_square_roots_local(chi: QuadCharacter, P: PrimeIdeal, k: int) -> int:
    """N(P^k) from the local casework at one prime power, k >= 0."""
    if P.ideal.field is not chi.field:
        raise ValueError("prime and character of different fields")
    if k < 0:
        raise ValueError(f"exponent k must be >= 0, got {k} at {P}")
    if k == 0:
        return 1
    if P not in chi._delta_primes:
        # the prime-value memo, read first; off delta its values are +-1
        return 1 + (chi._prime_memo.get(P) or chi._prime_value(P))
    l = chi._delta_primes[P]
    e2 = _dyadic_ramification(P)
    Np = P.norm()
    if 2 * e2 + k <= l:
        return Np ** (k // 2)
    if l % 2:
        return 0
    unit_square, t = _local_verdicts(chi, P, l, e2)
    if unit_square:
        # the unit part is a square mod 4 locally; t is +-1 as it is one mod 4P
        if k <= l:
            return Np ** (k // 2)
        return Np ** (l // 2) * (1 + t)
    # dyadic, the unit part not a square mod 4: t is the odd threshold
    if k >= l:
        return 0
    if 2 * e2 + k - l <= t:
        return Np ** (k // 2)
    return 0


def _local_verdicts(chi: QuadCharacter, P: PrimeIdeal, l: int, e2: int) -> tuple[bool, int]:
    """(unit_square, t) at a prime P of delta with l = v_P(delta) even and
    e2 = v_P(2), memoised on the DiscriminantInfo of delta: whether the
    unit part is a square mod 4 at P, and then t = +-1 as it is one mod 4P,
    else the odd level below 2 e2 up to which it is a square.  The unit
    part is a square mod P^m iff delta is mod P^(l + m)."""
    memo = chi._local_memo
    if P in memo:
        return memo[P]
    delta = chi.delta
    if local_square_solvable(delta, P, l + 2 * e2):
        out = True, 1 if local_square_solvable(delta, P, l + 2 * e2 + 1) else -1
    else:
        # explicit raises, not asserts: the counting verdict must survive python -O
        if e2 < 1:
            raise AssertionError(f"unit part of {delta} at the odd prime {P} is not a square mod 4")
        odd = range(2 * e2 - 1, 0, -1)
        level = next((m for m in odd if local_square_solvable(delta, P, l + m)), 0)
        if level < 1 or level % 2 == 0:
            raise AssertionError(f"no odd square threshold for {delta} at {P}: level {level}")
        out = False, level
    memo[P] = out
    return out


def count_square_roots_local_product(chi: QuadCharacter, a: Ideal) -> int:
    """N(a) as the product of the local counts N(P^e) over P^e || a."""
    if a.field is not chi.field:
        raise ValueError("ideal and character of different fields")
    if a.den != 1:
        raise ValueError(f"integral ideal required, got {a}")
    total = 1
    for P, e in _factor(a):
        total *= count_square_roots_local(chi, P, e)
        if total == 0:
            return 0
    return total


def zeta_coefficients(delta: Elem, norm_bound: int) -> list[int]:
    """[0, N(delta, a) summed over norm 1, ..., norm bound], by brute force."""
    _check_bound(norm_bound)
    if delta.m != 1:  # checked once, at every bound
        raise ValueError(f"integral delta required, got {delta}")
    K = delta.field
    roots = partial(_roots, K, delta.X, delta.Y)
    return [0] + [sum(map(len, map(roots, _ideals_of_norm(K, n)))) for n in range(1, norm_bound + 1)]


class RootPair(Record):
    """(a, b mod 2a) with b^2 = delta mod 4a; b is the canonical HNF-box
    representative, the lexicographically least one.  An immutable record
    (relquad._record), equal and hashed by its two fields."""

    __slots__ = ("a_ideal", "b")

    def __init__(self, a_ideal: Ideal, b: Elem):
        _set_a_ideal(self, a_ideal)
        _set_b(self, b)


_set_a_ideal, _set_b = slot_setters(RootPair)


def square_root_pairs(delta: Elem, norm_bound: int) -> list[RootPair]:
    """Every root pair (a, b) with N(a) <= bound, by norm, then ideal, then
    root in the order of square_root_coords; a fresh list on every call."""
    _check_bound(norm_bound)
    if delta.m != 1:
        raise ValueError(f"integral delta required, got {delta}")
    K, X, Y = delta.field, delta.X, delta.Y
    return [
        RootPair(a_ideal=a, b=K.elem(i, j))
        for n in range(1, norm_bound + 1)
        for a in _ideals_of_norm(K, n)
        for i, j in _roots(K, X, Y, a)
    ]


def order_ideal_counts(delta: Elem, norm_bound: int) -> list[int]:
    """[0, c(1), ..., c(norm_bound)]: c(n) counts the ideals of index n in
    the order O + O(b+sqrt delta)/2 through the pair parametrization, as
    the pairs (b ideal, root pair class (a, x)) with N(b)^2 N(a) = n; [0]
    at bound 0."""
    aK = ideal_count_table(delta.field, norm_bound)
    pair_counts = [0] * (norm_bound + 1)
    for rp in square_root_pairs(delta, norm_bound):
        pair_counts[rp.a_ideal.norm_int()] += 1
    return [0] + [
        sum(aK[m] * pair_counts[n // (m * m)] for m in range(1, isqrt(n) + 1) if n % (m * m) == 0)
        for n in range(1, norm_bound + 1)
    ]


def order_ideal_count_sublattice(delta: int, n: int) -> int:
    """Independent oracle over Q: ideals of index n in Z + Z(delta+sqrt delta)/2,
    counted as HNF sublattices stable under multiplication by the generator;
    n >= 1."""
    _check_index(n)
    if delta % 4 not in (0, 1):
        raise ValueError("delta must be 0 or 1 mod 4")
    from .arith import divisors

    tr = delta
    nm = (delta * delta - delta) // 4
    count = 0
    for C in divisors(n):
        A = n // C
        for B in range(A):
            # w*(A, 0) = (0, A); w*(B, C) = (-nm*C, B + tr*C)
            if A % C:
                continue
            if ((A // C) * B) % A:
                continue
            y = B + tr * C
            if y % C:
                continue
            x = -nm * C
            if (x - (y // C) * B) % A:
                continue
            count += 1
    return count


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"index n must be >= 1, got {n}")


# -- Dirichlet series tables ---------------------------------------------------


def _check_bound(norm_bound: int) -> None:
    if norm_bound < 0:
        raise ValueError(f"norm bound must be >= 0, got {norm_bound}")


@lru_cache(maxsize=4)
def _prime_power_sieve(norm_bound: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(spf, q) for 0 <= k <= norm_bound: spf[k] the least prime factor of k
    and q[k] the exact power of spf[k] dividing k, both 0 at k = 0 and 1.
    One pass: q[k] = q[k/p] p if p = spf[k] also divides k/p, else p."""
    spf = smallest_prime_factors(norm_bound)
    q = [0] * (norm_bound + 1)
    for k in range(2, norm_bound + 1):
        p = spf[k]
        r = k // p
        q[k] = q[r] * p if spf[r] == p else p
    return tuple(spf), tuple(q)


def ideal_count_table(K: QuadField, norm_bound: int) -> list[int]:
    """[0, #ideals of norm 1, 2, ..., norm_bound], sieved; [0] at bound 0.

    The count is multiplicative, so a(k) = a(q) a(k/q) for the prime power
    q || k, q < k.  At p^e it follows the decomposition of p, the symbol s
    of disc at p: a(p^e) = 1 + s a(p^(e-1)), which is e + 1 if p splits
    (s = 1), (e + 1) mod 2 if p is inert (s = -1) and 1 if p ramifies
    (s = 0).  s is read at the prime p itself and then off a(p) = 1 + s at
    its higher powers.  At an odd p it is Euler's criterion,
    disc^((p-1)/2) mod p read as 0, 1 or p - 1 -> -1; at p = 2 it is disc
    mod 8: 0 mod 4 -> 0, 1 -> 1, 5 -> -1 (Cohen, GTM 138, 1.4).  No
    kronecker call: that routine is the other side's, the character's.
    Over Q every entry from 1 on is 1."""
    _check_bound(norm_bound)
    out = [0] * (norm_bound + 1)
    if norm_bound < 1:
        return out
    if K.degree == 1:
        out[1:] = [1] * norm_bound
        return out
    spf, q = _prime_power_sieve(norm_bound)
    disc = K.disc
    out[1] = 1
    for k in range(2, norm_bound + 1):
        qk = q[k]
        if qk != k:
            out[k] = out[qk] * out[k // qk]
            continue
        p = spf[k]
        if p != k:
            s = out[p] - 1
        elif p == 2:
            s = 0 if disc % 4 == 0 else 1 if disc % 8 == 1 else -1
        else:
            s = pow(disc, (p - 1) // 2, p)
            if s == p - 1:
                s = -1
        out[k] = 1 + s * out[k // p]
    return out


def primitive_character_table(chi: QuadCharacter, norm_bound: int) -> list[int]:
    """chi'(n) for n <= bound over Q; [0] at bound 0.

    Completely multiplicative: chi'(n) = chi'(p) chi'(n/p) for p = spf(n) < n.
    A prime value comes from the character itself: chi._prime_value at the
    prime (p), zero on the conductor."""
    K = chi.field
    if K.degree != 1:
        raise ValueError("rational base field required")
    _check_bound(norm_bound)
    out = [0] * (norm_bound + 1)
    if norm_bound < 1:
        return out
    spf, _ = _prime_power_sieve(norm_bound)
    out[1] = 1
    for n in range(2, norm_bound + 1):
        p = spf[n]
        out[n] = out[p] * out[n // p] if p != n else chi._prime_value(_primes_above(K, p)[0])
    return out


def dirichlet_convolution(A: list[int], B: list[int]) -> list[int]:
    """(A * B)(m) = sum of A(d) B(m/d) over d | m, for m up to the shorter
    list's last index n; index 0 stays 0.

    Hyperbola split at s = isqrt(n): a pair (d, k) with d k <= n has d <= s,
    or k <= s < d.  A row d <= s adds A(d) B[1 .. n/d] onto out[d], out[2d],
    ...; a column k <= s adds B(k) A[s+1 .. n/k] onto out[k(s+1)],
    out[k(s+2)], ....  Each is one strided slice update, skipped at a zero
    coefficient: O(sqrt n) Python-level steps over O(n log n) entries."""
    n = min(len(A), len(B)) - 1
    out = [0] * (n + 1)
    if n < 1:
        return out
    s = isqrt(n)
    for d in range(1, s + 1):
        _add_scaled(out, slice(d, n + 1, d), A[d], B[1 : n // d + 1])
    for k in range(1, s + 1):
        top = n // k
        if top > s:
            _add_scaled(out, slice(k * (s + 1), k * top + 1, k), B[k], A[s + 1 : top + 1])
    return out


def _add_scaled(out: list[int], where: slice, c: int, src: list[int]) -> None:
    """out[where] += c * src in place, entry by entry; src has the slice's
    length."""
    if not c:
        return
    if c == 1:
        out[where] = map(add, out[where], src)
    elif c == -1:
        out[where] = map(sub, out[where], src)
    else:
        out[where] = map(add, out[where], map(mul, repeat(c), src))


def square_stretch(A: list[int], norm_bound: int) -> list[int]:
    """Coefficients of the series with A at square indices: n = m^2 -> A[m]."""
    _check_bound(norm_bound)
    out = [0] * (norm_bound + 1)
    m = 1
    while m * m <= norm_bound:
        if m < len(A):
            out[m * m] = A[m]
        m += 1
    return out
