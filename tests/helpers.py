"""Independent oracles shared by the test suite.

These deliberately avoid the code paths they check: interval arithmetic for
signs, exhaustive coefficient searches for units, brute-force residue
enumeration for congruences, full coordinate-box scans for the norm
form and its solution row by row (the searches that the continued-fraction
walk of classes._cf_generator, the form reduction of classes._gauss_generator
and the principal-ideal enumeration of discriminants.discriminant_classes
replaced, with the HNF-bucket merge of the last), square certificates
for the dyadic unit square classes (the search that the explicit squares of
dyadic.SquareClassSpace replaced), square certificates computed step by
step on LocalElem objects (the route that the pair kernels of
dyadic.sqrt_certificate replaced), and the quadratic character on elements
through principal ideals, gcds and factorizations (the route that the
integer coordinates of characters.QuadCharacter replaced), and local square
solvability by field-element residues and principal-ideal valuations (the
route that the integer search of discriminants.local_square_solvable
replaced), the dyadic pairing with one Hilbert symbol per pair of
elements (the route that dyadic.duality_report's class table replaced), the
primitive character through an auxiliary prime in the ideal class and a
coprime residue proxy (the route that the splitting law of
characters.QuadCharacter.primitive replaced), and the decomposition of a
real unit as +-eps^k (the route that field.is_unit_square's square test
replaced), square roots over Fraction coordinates (the route that the
integer kernel field.coords_sqrt replaced), and the discriminant-class
enumeration over field elements, deduplicated by dividing and taking
Fraction square roots (the route that the integer pairs of
discriminants.discriminant_classes replaced), and the product of two ideals
computed afresh on every call (the route that the value memo of
Ideal.__mul__ replaced), and elements over two Fraction coordinates (the
route that the integer triple (X, Y, m) of field.Elem replaced), and the
dyadic valuation by dividing the norm by 2 (the loop that the lowest-set-bit
read of dyadic._valuation replaced), and the duality report's checks in
their scalar forms: decompose on one LocalElem product per pair of
representatives, symmetry and bilinearity over the +-1 entries of the
symbol table, and the orthogonal complement by one pair bit per pair of
classes over a Gram matrix of one Hilbert symbol per pair of basis elements
(the routes that the integer pairs and bitmask rows of dyadic.duality_report
replaced), and the Dirichlet tables of the decomposition law with every n
factored again by trial division over the least prime factors and every
product of the convolution multiplied out (the routes that the cached
prime-power sieve and the strided hyperbola-split convolution of
relquad.counting replaced), and the square-root search over the whole HNF
box, testing every x of each row (the loop that the one residue class of x
per row of ideals.square_root_coords replaced), and the extended character with gcd(a, delta) taken as an ideal
and factored (the route that the valuations at the primes of delta in
characters.QuadCharacter.extended replaced), and with g = gcd(a, delta)^(1/2)
built as an ideal product and a/g^2 by exact division, and the divisor sum
of the counting formula over divisors built as ideal products (the routes
that the exponent kernel of characters.QuadCharacter and the exponent
choices of counting.count_square_roots_formula replaced), and the conductor
with (delta) factored afresh, rel_disc by exact division (delta)/f^2 and
the witness searched on the ideals 2f and 4f^2 (the route that the reused
factorization and the HNF-triple search of discriminants.conductor_ideal
replaced), and element text written and read over Fraction coordinates
(the routes that the integer text of field.Elem.__str__ and parse_elem
replaced), and a CLI request parsed by one parse_args on a freshly built
full parser (the route that cli.main's dispatch to the subcommand's parser
replaced), and the duality report's checks in their set and pair forms:
the orthogonal classes of each level listed over all 2^dim classes against
the span of the complementary level (the route that the inclusion-plus-
dimension test of dyadic._complement_is_span replaced), bilinearity over
all n^2 pairs of symbol rows (the route that the n identities
of dyadic._rows_linear replaced), and the Q2 closed form on Fraction values
with the valuations found by division (the route that the integer split
dyadic._q2_split replaced), and the integral divisors of an ideal found
among the ideals of each norm dividing its norm (independent of the
exponent choices of ideals.Ideal.divisors), and built as products of
prime powers (the route that those exponent choices, built on integers,
replaced), and the ideals of each norm
built as products of prime powers, each carrying the exponents it was
built from (the route that the integer HNFs and handed factorizations of
ideals.ideals_of_norm replaced), and the factorization of an ideal checked
by multiplying its prime powers back (the route that the confirmation on
integers of ideals._factor_by_norm replaced), and the principal ideal as
the HNF of the full vectors of e and e*w (the route that the gcd modulo
the norm of ideals.principal_ideal replaced), and the fundamental unit and
the continued-fraction generator found by evaluating the norm form on
every convergent in a loop of their own (the per-step norm forms that the
test on the complete quotient in classes._cf_convergents replaced), and
the dyadic level classes sampled one digit deeper, at depth 2e + 2 - i, and
the norm-group search with its u = 0 pass one value per kernel call (the
routes that the depth 2e + 1 - i of dyadic._level_classes and the batched
u = 0 pass of dyadic._norm_rows replaced).

The last sections hold what only tests use, moved out of the package: small
field, ideal and dyadic helpers (all_reps of a square-class space among
them), class_number, the order-ideal count at one index by brute root
counts (the oracle for counting.order_ideal_counts), and
Hilbert reciprocity over Q (the oracle for dyadic.hilbert_symbol), the gcd
of two ideals as the sum of their modules, and the zeta coefficients by the
character routes of counting.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from relquad.arith import (
    _SMALL_PRIME_LIMIT,
    BoundExceeded,
    _small_primes,
    divisors,
    factorint,
    is_prime,
    kronecker,
    smallest_prime_factors,
)
from relquad.characters import QuadCharacter, _balance
from relquad.cli import build_parser
from relquad.classes import _unit_window, _window_side, minkowski_bound
from relquad.counting import count_square_roots
from relquad.discriminants import (
    DiscriminantInfo,
    _dyadic_ramification,
    _witness_coords,
    conductor_ideal,
    discriminant_classes,
    discriminant_witness,
    local_square_solvable,
    same_class_mod_squares,
    uniformizer_of,
)
from relquad.dyadic import (
    LocalElem,
    LocalField,
    SquareClassSpace,
    _agree,
    _div_int,
    _gf2_insert,
    _residue,
    _sample_integral,
    _shift_coords,
    _unit_candidates,
    _valuation,
    hilbert_symbol,
    is_square,
    local_field,
    unit_filtration,
)
from relquad.field import (
    _ELEM_RE,
    Elem,
    QuadField,
    coords_is_square,
    coords_mul,
    coords_sign,
    coords_sqrt,
    fundamental_unit,
    roots_of_unity,
)
from relquad.ideals import (
    RESIDUE_ENUMERATION_BOUND,
    Ideal,
    _hnf_from_vectors,
    _hnf_triple,
    coords_valuation,
    ideals_of_norm,
    primes_above,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)

# the integer and exponent routes against the ideal oracles: Q and seven
# quadratic fields, real and imaginary, with ramified, split and inert small
# primes
ORACLE_FIELDS = (None, 5, 10, -15, 2, -1, -3, 13)


# the first lines of a script that patches relquad in a subprocess: patch
# reads the attribute before it assigns, so a name that has moved raises
# AttributeError, as monkeypatch.setattr does, instead of making a new one
SCRIPT_PATCH = "def patch(owner, name, value):\n    getattr(owner, name)\n    setattr(owner, name, value)\n"


def interval_sign(e: Elem, embedding: int, digits: int = 100) -> int:
    """Sign via scaled-integer interval evaluation of A + B*sqrt(d)."""
    A, B = e.as_sqrt_coords()
    if embedding == 1:
        B = -B
    K = 10**digits
    d = e.field.d if e.field.d is not None else 0
    if B == 0 or d == 0:
        return (A > 0) - (A < 0)
    s_lo = isqrt(d * K * K)
    s_hi = s_lo + 1
    den = A.denominator * B.denominator
    a_int = A.numerator * B.denominator
    b_int = B.numerator * A.denominator
    lo = a_int * K + b_int * (s_lo if b_int > 0 else s_hi)
    hi = a_int * K + b_int * (s_hi if b_int > 0 else s_lo)
    assert den > 0
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    raise AssertionError(f"interval too coarse for {e} at {digits} digits")


def units_with_coeff_bound(K: QuadField, bound: int) -> list[Elem]:
    """All units x + y*w with |x|, |y| <= bound, by exhaustive search."""
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y == 0:
                continue
            u = K.elem(x, y)
            if abs(u.norm()) == 1:
                out.append(u)
    return out


def brute_sqrt_count(delta, ideal) -> int:
    """card{ x mod 2a : x^2 = delta mod 4a }, straight from the definition."""
    two_a = ideal * 2
    four_a = ideal * 4
    return sum(1 for x in two_a.residues() if (x * x - delta) in four_a)


def valuation_by_division(I: Ideal, P) -> int:
    """v_P(I) by dividing by P until the quotient is no longer integral."""
    if not I.is_integral():
        num = Ideal(I.field, I.hnf, 1)
        den = principal_ideal(I.field.elem(I.den))
        return valuation_by_division(num, P) - valuation_by_division(den, P)
    inv = P.ideal.inverse()
    v = 0
    while True:
        I = I * inv
        if not I.is_integral():
            return v
        v += 1


def ideal_product_by_vectors(I: Ideal, J: Ideal) -> Ideal:
    """I * J with no memo: the HNF of the four products of the Z-bases,
    built on every call, and a product of numerators over Q."""
    K = I.field
    if K != J.field:
        raise ValueError("ideals of different fields")
    if K.degree == 1:
        return Ideal(K, (I.hnf[0] * J.hnf[0],), I.den * J.den)
    t, n = K.omega_trace, K.omega_norm
    a1, b1, c1 = I.hnf
    a2, b2, c2 = J.hnf
    vecs = [
        (x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2)
        for x1, y1 in ((a1, 0), (b1, c1))
        for x2, y2 in ((a2, 0), (b2, c2))
    ]
    return Ideal(K, _hnf_from_vectors(vecs), I.den * J.den)


def ideal_power_by_vectors(I: Ideal, k: int) -> Ideal:
    """I^k for k >= 0 by k products of ideal_product_by_vectors."""
    out = unit_ideal(I.field)
    for _ in range(k):
        out = ideal_product_by_vectors(out, I)
    return out


def factor_by_products(I: Ideal) -> list[tuple]:
    """The factorization of I in the order of Ideal.factor: v_P(I) by
    valuation_by_division at the primes of its norm and denominator,
    checked by multiplying the prime powers back with
    ideal_product_by_vectors (the route that the confirmation of
    ideals._factor_by_norm on integers replaced)."""
    K = I.field
    support = set(factorint(I.norm().numerator)) | set(factorint(I.norm().denominator)) | set(factorint(I.den))
    out = [(P, v) for p in sorted(support) for P in primes_above(K, p) if (v := valuation_by_division(I, P))]
    rebuilt = unit_ideal(K)
    for P, v in out:
        power = ideal_power_by_vectors(P.ideal if v > 0 else P.ideal.inverse(), abs(v))
        rebuilt = ideal_product_by_vectors(rebuilt, power)
    if rebuilt is not I:
        raise AssertionError(f"factorization of {I} does not reassemble")
    return out


def principal_ideal_by_vectors(e: Elem) -> Ideal:
    """(e) as the HNF of the full vectors of e and e*w, taken on their
    whole coordinates (the route that the gcd mod the norm of
    ideals.principal_ideal replaced): m*e = X + Y*w and (X + Y*w)*w = -n*Y
    + (X + t*Y)*w, over m."""
    K = e.field
    if K.degree == 1:
        return Ideal(K, (abs(e.X),), e.m)
    t, n = K.omega_trace, K.omega_norm
    X, Y = e.X, e.Y
    return Ideal(K, _hnf_from_vectors([(X, Y), (-n * Y, X + t * Y)]), e.m)


# -- ideals of norm n as ideal products, the route that the integer HNFs and
# handed factorizations of ideals.ideals_of_norm replaced


def ideals_of_norm_by_products(K: QuadField, n: int) -> list[tuple[Ideal, tuple]]:
    """The integral ideals of norm n >= 1, sorted by HNF, each with the
    factorization its product was built from: those of norm n/p^e times
    every product of prime powers of norm p^e, p the largest prime dividing
    n, each multiplied afresh by ideal_product_by_vectors.  Over Q the one
    ideal (n)."""
    if n == 1:
        return [(unit_ideal(K), ())]
    p, e = max(factorint(n).items())
    ps = primes_above(K, p)
    if len(ps) == 2:
        local = [
            (
                ideal_product_by_vectors(ideal_power_by_vectors(ps[0].ideal, i), ideal_power_by_vectors(ps[1].ideal, e - i)),
                tuple((P, v) for P, v in ((ps[0], i), (ps[1], e - i)) if v),
            )
            for i in range(e + 1)
        ]
    elif ps[0].residue_degree == 2:
        local = [(ideal_power_by_vectors(ps[0].ideal, e // 2), ((ps[0], e // 2),))] if e % 2 == 0 else []
    else:  # ramified, or Q
        local = [(ideal_power_by_vectors(ps[0].ideal, e), ((ps[0], e),))]
    out = [
        (ideal_product_by_vectors(a, b), fa + fb)
        for a, fa in ideals_of_norm_by_products(K, n // p**e)
        for b, fb in local
    ]
    return sorted(out, key=lambda pair: pair[0].hnf)


# -- row searches: the norm form solved row by row, which the principal-ideal
# enumeration of discriminant_classes and the form reduction of
# classes._gauss_generator replaced


def _norm_row(K: QuadField, y: int, lo: int, hi: int) -> tuple[range, ...]:
    """Every x with lo <= N(x + y*w) <= hi, ascending, as disjoint ranges.

    With u = s*x + t*y and s = t + 1 the norm is s^2 N = u^2 - d y^2, that
    is 4N = (2x + y)^2 - d y^2 for t = 1 and N = x^2 - d y^2 for t = 0.  So
    u^2 lies in [s^2 lo + d y^2, s^2 hi + d y^2], an interval of |u| read
    off with isqrt, and each of the (at most two) intervals of u gives an
    interval of x.  Exact on integers, for real and imaginary K."""
    t = K.omega_trace
    s = t + 1
    dy2 = K.d * y * y
    top = s * s * hi + dy2
    if top < 0:
        return ()
    u_hi = isqrt(top)
    bot = s * s * lo + dy2
    u_lo = isqrt(bot - 1) + 1 if bot > 0 else 0
    if u_lo > u_hi:
        return ()
    ty = t * y

    def xs(u1: int, u2: int) -> range:  # x with u1 <= s*x + t*y <= u2
        return range(-((ty - u1) // s), (u2 - ty) // s + 1)

    if u_lo == 0:
        return (xs(-u_hi, u_hi),)
    return (xs(-u_hi, -u_lo), xs(u_lo, u_hi))


def discriminant_candidates(K: QuadField, norm_bound: int):
    """All integral delta with |N(delta)| <= norm_bound, restricted (real
    case) to the fundamental-unit window |log|s1(delta)/s2(delta)|| <=
    2 log eps; yields the integer coordinates (x, y) of every class member
    seen, y ascending, then x.

    Each row y of the coordinate box is solved for -B <= N(x + y*w) <= B
    by _norm_row and clamped to the box's x-range, so the members and
    their order are those of box_discriminant_candidates, at the cost of
    O(eps sqrt(B/d)) rows plus the hits instead of O(B eps^2) norms."""
    if K.degree == 1:
        for a in range(1, norm_bound + 1):
            yield a, 0
            yield -a, 0
        return
    t = K.omega_trace
    d = K.d
    if K.is_imaginary_quadratic:
        # positive definite: |disc| y^2 <= 4N
        ymax = isqrt(4 * norm_bound // abs(K.disc)) + 1
        xc = isqrt(norm_bound) + 1
        window = None
    else:
        xc, ymax = _unit_box(K, norm_bound)
        window = _unit_window(K, 2)[0]
    for y in range(-ymax, ymax + 1):
        lo = (-t * y) // 2 - xc - 1
        hi = (-t * y) // 2 + xc + 1
        for r in _norm_row(K, y, -norm_bound, norm_bound):
            for x in range(max(r.start, lo), min(r.stop, hi + 1)):
                if x == 0 and y == 0:
                    continue
                if window is None or not _window_side(2 * x + t * y, (2 - t) * y, *window, d):
                    yield x, y


def discriminant_classes_by_buckets(K: QuadField, pairs, sign: str = "any") -> list[DiscriminantInfo]:
    """discriminant_classes from the class members (x, y) in pairs, those
    of discriminant_candidates(K, B) or of box_discriminant_candidates(K,
    B): the mod-4 witness and
    sign tests on every member, then the members sorted, bucketed by the
    HNF of (x + y*w) and one kept per class modulo unit squares by
    coords_is_square: delta and r with (delta) = (r) share a class iff the
    unit delta/r = delta*r/r^2 is a square."""
    if sign not in ("any", "totally_negative"):
        raise ValueError("sign must be 'any' or 'totally_negative'")
    embeddings = K.real_embeddings
    cands = []
    for x, y in pairs:
        if _witness_coords(K, x, y) is None:
            continue
        if sign == "totally_negative" and not all(coords_sign(K, x, y, e) < 0 for e in embeddings):
            continue
        cands.append((x, y))
    cands.sort()
    if K.degree == 1:
        reps = cands
    else:
        t, n = K.omega_trace, K.omega_norm
        reps = []
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for x, y in cands:
            # delta = x + y*w and delta*w = -n*y + (x + t*y)*w span (delta)
            bucket = groups.setdefault(_hnf_from_vectors([(x, y), (-n * y, x + t * y)]), [])
            if not any(coords_is_square(K, *coords_mul(K, x, y, *r)) for r in bucket):
                bucket.append((x, y))
                reps.append((x, y))
    return [conductor_ideal(K.elem(x, y)) for x, y in reps]


# -- box searches: the eps-scaled scans the norm-form row solver replaced --------


def _unit_box(K: QuadField, N: int) -> tuple[int, int]:
    """(xcap, ycap) > (|A|, |y|) for x + y*w = A + B*sqrt(d) of the real
    field K in the box |s1|, |s2| <= sqrt(N)*eps, from the bound
    E = A_eps + B_eps*(isqrt(d) + 1) > eps with s*E an integer, s = t + 1:
    |A| <= sqrt(N)*E and |y| = s*|B| <= s*sqrt(N)*E/sqrt(d)."""
    eps = fundamental_unit(K)
    t = K.omega_trace
    s = t + 1
    sE = s * eps.X + t * eps.Y + eps.Y * (isqrt(K.d) + 1)
    R = N * sE * sE
    return isqrt(R // (s * s)) + 1, isqrt(R // K.d) + 1


def _box_window_member(delta: Elem, u2: Elem) -> bool:
    # u^-1 <= |s1(delta)/s2(delta)| <= u for u2 = u^2, u = eps^2 for the
    # classes and eps for generators, as two exact sign tests:
    # s1(delta^2) <= s1(u^2) s2(delta^2) and symmetrically.
    d2 = delta * delta
    c2 = d2.conj()
    return (u2 * c2 - d2).sign_at(0) >= 0 and (u2 * d2 - c2).sign_at(0) >= 0


def box_discriminant_candidates(K: QuadField, norm_bound: int):
    """discriminant_candidates by evaluating the norm at every point of the
    coordinate box: O(B eps^2) points for a real field."""
    if K.degree == 1:
        for a in range(1, norm_bound + 1):
            yield K.elem(a)
            yield K.elem(-a)
        return
    t, n = K.omega_trace, K.omega_norm
    if K.is_imaginary_quadratic:
        # positive definite: |disc| y^2 <= 4N
        ymax = isqrt(4 * norm_bound // abs(K.disc)) + 1
        xc = isqrt(norm_bound) + 1
        for y in range(-ymax, ymax + 1):
            lo = (-t * y) // 2 - xc - 1
            hi = (-t * y) // 2 + xc + 1
            for x in range(lo, hi + 1):
                if x == 0 and y == 0:
                    continue
                if abs(x * x + t * x * y + n * y * y) <= norm_bound:
                    yield K.elem(x, y)
        return
    eps = fundamental_unit(K)
    eps4 = eps**4
    A, B = eps.as_sqrt_coords()
    d = K.d
    E = A + B * (isqrt(d) + 1)  # rational upper bound for sigma1(eps)
    mult = 2 if t == 1 else 1
    ymax = isqrt(int(norm_bound * E * E * mult * mult / d)) + 1
    xc = isqrt(int(norm_bound * E * E)) + 1
    for y in range(-ymax, ymax + 1):
        lo = (-t * y) // 2 - xc - 1
        hi = (-t * y) // 2 + xc + 1
        for x in range(lo, hi + 1):
            if x == 0 and y == 0:
                continue
            if abs(x * x + t * x * y + n * y * y) > norm_bound:
                continue
            delta = K.elem(x, y)
            if _box_window_member(delta, eps4):
                yield delta


def box_principal_generator(I: Ideal) -> Elem | None:
    """The generator of an integral ideal that the coordinate-box search
    finds first, or None: every point of a box of about sqrt(N) eps
    coordinates for a real field."""
    K = I.field
    N = I.norm_int()
    a, b, c = I.hnf
    t, n = K.omega_trace, K.omega_norm
    if K.is_imaginary_quadratic:
        # positive definite norm form x^2 + t x y + n y^2 = N
        # |disc| y^2 <= 4N
        ymax = isqrt(4 * N // abs(K.disc))
        for y in range(-ymax, ymax + 1):
            disc = t * t * y * y - 4 * (n * y * y - N)
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for x2 in ((-t * y + r), (-t * y - r)):
                if x2 % 2 == 0:
                    g = K.elem(x2 // 2, y)
                    if g and principal_ideal(g) == I:
                        return g
        return None
    # real quadratic: generator box bounded through the fundamental unit
    eps = fundamental_unit(K)
    A, B = eps.as_sqrt_coords()
    d = K.d
    E = A + B * (isqrt(d) + 1)  # rational upper bound for sigma1(eps)
    R2 = N * E * E  # (sqrt(N) * eps)^2 upper bound
    # y in sqrt-coords is y/2 (t=1) or y (t=0); |y_sqrt| <= sqrt(R2/d)
    mult = 2 if t == 1 else 1
    ycap = isqrt(int(R2 * mult * mult / d)) + 1
    jmax = ycap // c + 1
    xcap = isqrt(int(R2)) + 1
    for j in range(-jmax, jmax + 1):
        y = j * c
        # |x + t*y/2| <= xcap
        lo = (-t * y) // 2 - xcap - 1
        hi = (-t * y) // 2 + xcap + 1
        i_lo = (lo - j * b) // a
        i_hi = (hi - j * b) // a + 1
        for i in range(i_lo, i_hi + 1):
            x = i * a + j * b
            if x == 0 and y == 0:
                continue
            if abs(x * x + t * x * y + n * y * y) != N:
                continue
            g = K.elem(x, y)
            if principal_ideal(g) == I:
                return g
    return None


def balanced_associate(g: Elem) -> Elem:
    """The associate of a generator g of a real field that
    Ideal.principal_generator returns, by Elem arithmetic: of the
    +-g*eps^k with |k| <= 8 and s1 > 0, those in the window
    eps^-1 <= |s1/s2| <= eps of _box_window_member with eps^2, least in
    (x, y).  g itself over Q or an imaginary field."""
    K = g.field
    if not K.is_real_quadratic:
        return g
    eps = fundamental_unit(K)
    eps2 = eps * eps
    members = [
        h
        for k in range(-8, 9)
        for h in (g * eps**k, -g * eps**k)
        if h.sign_at(0) > 0 and _box_window_member(h, eps2)
    ]
    return min(members, key=lambda h: (h.x, h.y))


def row_principal_generator(I: Ideal) -> Elem | None:
    """box_principal_generator's generator of an integral ideal, or None,
    found by solving the norm form +-N(I) on each row of the box with
    _norm_row.  For a real field that is O(eps sqrt(N/d)) rows where the
    box scan evaluates O(eps^2/sqrt(d)) norms, so it reaches fields such as
    d = 46 (eps about 48670) that the box scan cannot; for an imaginary
    field, the O(sqrt(N/|D|)) rows of the positive definite norm form,
    each scanned from its largest x."""
    K = I.field
    N = I.norm_int()
    a, b, c = I.hnf
    t = K.omega_trace
    if K.is_imaginary_quadratic:
        # positive definite norm form: |disc| y^2 <= 4N
        jmax = isqrt(4 * N // abs(K.disc)) // c
        for j in range(-jmax, jmax + 1):
            row = [x for r in _norm_row(K, j * c, N, N) for x in r if (x - j * b) % a == 0]
            for x in reversed(row):
                g = Elem(K, x, j * c)
                if principal_ideal(g) == I:
                    return g
        return None
    xcap, ycap = _unit_box(K, N)
    jmax = ycap // c + 1
    for j in range(-jmax, jmax + 1):
        y = j * c
        # |x + t*y/2| <= xcap, widened to whole steps of a
        x_lo = ((-t * y) // 2 - xcap - 1 - j * b) // a * a + j * b
        x_hi = ((-t * y) // 2 + xcap + 1 - j * b) // a * a + j * b + a
        row = sorted(x for m in (N, -N) for r in _norm_row(K, y, m, m) for x in r)
        for x in row:
            if x_lo <= x <= x_hi and (x - j * b) % a == 0:
                g = Elem(K, x, y)
                if principal_ideal(g) == I:
                    return g
    return None


def cf_hits_by_norms(A: int, B: int, C: int, D: int):
    """The convergents (p, q) with |f(p, q)| = 1 of the root (-B + sqrt D)/2A
    of f = (A, B, C), nonsquare D = B^2 - 4AC > 0, through the preperiod and
    one period, by evaluating f on every convergent (the per-step norm forms
    that classes._cf_convergents' test on the complete quotient replaced).
    Its own loop: each partial quotient floors (P + sqrt D)/|Q| and negates
    for Q < 0, and the walk ends at the first complete quotient after the
    first step that it has seen before."""
    s = isqrt(D)
    P, Q = -B, 2 * A
    p0, p1, q0, q1 = 0, 1, 1, 0
    seen = set()
    while True:
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        P = a * Q - P
        Q = (D - P * P) // Q
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if abs(A * p1 * p1 + B * p1 * q1 + C * q1 * q1) == 1:
            yield p1, q1
        if (P, Q) in seen:
            return
        seen.add((P, Q))


def fundamental_unit_by_norms(K: QuadField) -> Elem:
    """The fundamental unit from cf_hits_by_norms' first hit on the norm
    form (1, -t, n) of w: p/q tends to w, so |p - q*w| < 1 and its conjugate
    (p - q*t) + q*w, q >= 1, is the unit > 1."""
    t = K.omega_trace
    p, q = next(cf_hits_by_norms(1, -t, K.omega_norm, K.disc))
    return K.elem(p - q * t, q)


def cf_generator_by_norms(I: Ideal) -> tuple[int, int] | None:
    """Coordinates of a generator of the integral ideal I = c*J of a real
    field, or None, from cf_hits_by_norms' first hit on the norm form of
    J = (A, b' + w): (A, 2b' + t, N(b' + w)/A), with N from Elem.norm."""
    K = I.field
    a, b, c = I.hnf
    A, b1 = a // c, b // c
    C = K.elem(b1, 1).norm() / A
    for p, q in cf_hits_by_norms(A, 2 * b1 + K.omega_trace, int(C), K.disc):
        return p * a + q * b, q * c
    return None


def shift_down(x: LocalElem, v: int) -> LocalElem:
    """x / pi^v, by v exact divisions by pi."""
    return LocalElem(x.field, *_shift_coords(x.field, x.a, x.b, v))


def div_exact_int(x: LocalElem, k: int) -> LocalElem:
    """x / k; ValueError unless k divides both coordinates."""
    return LocalElem(x.field, *_div_int(x.field, x.a, x.b, k))


def sample_elems(F: LocalField, depth: int) -> list[LocalElem]:
    """The digit samples of dyadic._sample_integral(F, depth) as LocalElems."""
    return [LocalElem(F, a, b) for a, b in _sample_integral(F, depth)]


# -- square certificates: the unit square-class search the explicit squares replaced


def _first_square_mask(u: LocalElem, basis: list[LocalElem]) -> int | None:
    """The least bitmask m with u * prod(basis[i] for bit i of m) a square,
    or None if u is outside the span of the basis modulo squares."""
    for mask in range(1 << len(basis)):
        prod = u
        for i, b in enumerate(basis):
            if mask >> i & 1:
                prod = prod * b
        if is_square(prod):
            return mask
    return None


def certificate_square_classes(F: LocalField, key) -> tuple[list[LocalElem], dict[int, int]]:
    """The unit basis and unit table of F's square-class space, built by
    square certificates: a candidate joins the basis unless some product with
    earlier basis units is a square, and every unit's mask is the first such
    product.  The table is keyed by key(a, b) of each unit's pair."""
    units = [LocalElem(F, a, b) for a, b in _unit_candidates(F)]
    basis_units: list[LocalElem] = []
    for cand in units:
        if len(basis_units) == F.dim - 1:
            break
        if _first_square_mask(cand, basis_units) is None:
            basis_units.append(cand)
    table = {}
    for u in units:
        mask = _first_square_mask(u, basis_units)
        assert mask is not None, u
        table[key(u.a, u.b)] = mask
    return basis_units, table


# -- square certificates on LocalElem objects: the route the pair kernels replaced


def sqrt_certificate_by_elems(x: LocalElem) -> LocalElem | None:
    """dyadic.sqrt_certificate with every step a LocalElem operation: strip
    pi^2, take residue square roots at even levels below 2e, apply the trace
    criterion at level 2e, and finish with Newton above 2e."""
    F = x.field
    v = x.valuation()
    if v is None:
        raise ValueError("cannot decide squareness of 0 at this precision")
    if v % 2:
        return None
    half = F.pi ** (v // 2)
    u = shift_down(x, v)
    w = F.one
    two_e = 2 * F.e
    for _ in range(4 * F.e + 8):
        lvl_elem = u - F.one
        lvl = lvl_elem.valuation()
        if lvl is None or lvl >= two_e + 1:
            break
        if lvl % 2 and lvl < two_e:
            return None
        if lvl == two_e:
            t = div_exact_int(lvl_elem, 4)
            y = F.artin_schreier_solve(_residue(F, t.a, t.b))
            if y is None:
                return None
            factor = F.one + F.elem(*y) * F.elem(2)  # the digit p + q*g lifts to p + q t
        else:
            t = shift_down(lvl_elem, lvl)
            t_res = F.res_sqrt(_residue(F, t.a, t.b))
            factor = F.one + F.elem(*t_res) * F.pi ** (lvl // 2)
        w = w * factor
        u = u * (factor * factor).unit_inverse()
    else:
        raise AssertionError("square reduction did not terminate")
    if unit_level(u) < 2 * F.e + 1:
        raise AssertionError(f"Newton square root needs U_{2 * F.e + 1}")
    z = F.one
    for _ in range(F.precision * F.e + 8):
        nz = div_exact_int(z + u * z.unit_inverse(), 2)
        if nz == z:
            break
        z = nz
    cert = half * w * z
    if not agree_at_precision(cert * cert, x):
        raise AssertionError("certificate fails at precision")
    return cert


# -- divisors of an ideal by norm ---------------------------------------------------


def divisors_by_norm(I: Ideal) -> list[Ideal]:
    """I.divisors(): every J of norm n | N(I), from ideals_of_norm, with
    J | I, sorted by (norm, hnf), for an integral I."""
    found = [J for n in divisors(I.norm_int()) for J in ideals_of_norm(I.field, n) if J.divides(I)]
    return sorted(found, key=lambda J: (J.norm_int(), J.hnf))


def divisors_by_products(I: Ideal) -> list[Ideal]:
    """I.divisors() as the products d * P^k over the prime powers of I's
    factorization, one ideal product per step, sorted by (norm, hnf), for
    an integral I."""
    if I.den != 1:
        raise ValueError("integral ideal required")
    divs = [unit_ideal(I.field)]
    for P, e in I.factor():
        divs = [d * P.ideal**k for d in divs for k in range(e + 1)]
    return sorted(divs, key=lambda d: (d.norm_int(), d.hnf))


# -- the character on elements through ideal objects ------------------------------


def on_element_by_ideal(chi, a: Elem) -> int:
    """chi.on_element(a) through the principal ideal I = (a): I is coprime
    to (delta) iff gcd(J, (delta)) = gcd(J, O) for J = I and J = I^-1 (so
    v_P(I) <= 0 and >= 0 at every P | delta), the value is the product of
    chi.at_prime over the odd exponents of I.factor(), and the signs come
    from interval_sign.  ValueError at 0 and off the coprime locus."""
    I = principal_ideal(a)
    one = unit_ideal(a.field)
    for J in (I, I.inverse()):
        if ideal_gcd(J, chi.modulus) != ideal_gcd(J, one):
            raise ValueError(f"{I} is not coprime to ({chi.delta})")
    val = 1
    for P, e in I.factor():
        if e % 2:
            val *= chi.at_prime(P)
    for i in chi.negative_embeddings:
        val *= interval_sign(a, i)
    return val


def residue_table_by_ideal(chi) -> dict[tuple, int]:
    """chi.residue_table() with every lift valued by on_element_by_ideal:
    the residues of (delta) as elements, coprimality by gcd, and the lifts
    residue_table takes (the residue, its balanced form and the residue
    plus +-e1 and, in a quadratic field, e2 and -e1-e2 of the HNF basis)."""
    K = chi.field
    m = chi.modulus
    e1, *rest = m.basis_elems()
    steps = [e1, -e1] + ([rest[0], -e1 - rest[0]] if rest else [])
    table = {}
    for r in m.residues():
        if not r or not ideal_gcd(principal_ideal(r), m).is_unit_ideal():
            continue
        lifts = [r, K.elem(*_balance(m, r.X, r.Y))] + [r + s for s in steps]
        vals = {on_element_by_ideal(chi, x) for x in lifts}
        assert len(vals) == 1, (chi.delta, r)
        table[r.key()] = vals.pop()
    return table


def unit_discriminants_by_classes(K: QuadField) -> tuple[list[DiscriminantInfo], int]:
    """tables.unit_discriminants(K) over every class of the window: the
    conductor of each class with |N(delta)| <= minkowski^2, keeping those
    with (delta) = f^2, one per class modulo squares."""
    window = minkowski_bound(K) ** 2
    found: list[DiscriminantInfo] = []
    for info in discriminant_classes(K, window, sign="any"):
        if not info.rel_disc.is_unit_ideal():
            continue
        if any(same_class_mod_squares(info.delta, other.delta) for other in found):
            continue
        found.append(info)
    return found, window


def genus_unit_discriminant_classes(K: QuadField) -> list[Elem]:
    """The unit-discriminant classes of K modulo squares by genus theory,
    one rational representative delta_S each: disc(K) is the product of its
    t prime discriminants p* ((-1)^((p-1)/2) p at an odd p, and the 2-part
    -4, 8 or -8), each K(sqrt p*)/K is unramified at every finite prime, and
    the 2^t products delta_S of p* over a set S fall into 2^(t-1) classes,
    as the product of all t is disc(K), a square in K; so the sets S that
    leave out the last p* give one delta_S per class.  Over Q the class of
    1.  Read off the factorization of disc(K) alone: no ideal, unit or
    conductor."""
    if K.is_rational:
        return [K.one]
    D = K.disc
    stars = [(-1) ** ((p - 1) // 2) * p for p in factorint(D) if p != 2]
    if D % 2 == 0:
        stars.append(D // prod(stars))
    rest = stars[:-1]
    return [K.elem(prod(s for i, s in enumerate(rest) if mask >> i & 1)) for mask in range(1 << len(rest))]


def extended_by_gcd(chi, a: Ideal) -> int:
    """chi.extended(a) with g0 = gcd(a, (delta)) built as an ideal: the
    primitive value when g0 = (1), else 0 unless g0 = g^2 with g | f, when
    it is N(g) * primitive(a/g^2)."""
    g0 = ideal_gcd(a, chi.modulus)
    if g0.is_unit_ideal():
        return chi.primitive(a)
    g = unit_ideal(chi.field)
    for P, e in g0.factor():
        if e % 2:
            return 0
        g = g * P.ideal ** (e // 2)
    if not g.divides(chi.info.f_delta):
        return 0
    return g.norm_int() * chi.primitive(a.divide_exact(g * g))


def extended_by_ideals(chi, a: Ideal) -> int:
    """chi.extended(a) with g built as an ideal product from the valuations
    of a at the primes of delta, tested as a divisor of f, and primitive
    taken on a/g^2 by exact division."""
    if not a.is_integral():
        raise ValueError("integral ideal required")
    g = unit_ideal(chi.field)
    for P, l in chi.modulus.factor():
        e = min(a.valuation(P), l)
        if e % 2:
            return 0
        g = g * P.ideal ** (e // 2)
    if not g.divides(chi.info.f_delta):
        return 0
    return g.norm_int() * chi.primitive(a.divide_exact(g * g))


def count_square_roots_formula_by_ideals(chi, a: Ideal, extended=extended_by_ideals) -> int:
    """The divisor sum of counting.count_square_roots_formula with every
    divisor b | a, a/b squarefree, built as an Ideal product and valued by
    extended(chi, b)."""
    if not a.is_integral():
        raise ValueError("integral ideal required")
    divs = [unit_ideal(a.field)]
    for P, e in a.factor():
        low = P.ideal ** (e - 1)
        powers = (low * P.ideal, low)
        divs = [b * q for b in divs for q in powers]
    return sum(extended(chi, b) for b in divs)


def conductor_by_ideals(chi):
    """chi.conductor_exhaustive() on field elements and ideal objects: the
    residues of (delta) as elements, coprimality by gcd, every lift valued by
    on_element_by_ideal, residues grouped by Ideal.reduce."""
    K = chi.field
    m = chi.modulus
    e1, *rest = m.basis_elems()
    table = {}
    for r in m.residues():
        if not r or not ideal_gcd(principal_ideal(r), m).is_unit_ideal():
            continue
        lifts = [r, r + e1, r - e1] + ([r + rest[0], r - e1 - rest[0]] if rest else [])
        vals = {on_element_by_ideal(chi, x) for x in lifts}
        assert len(vals) == 1, (chi.delta, r)
        table[r.key()] = vals.pop()

    def witness(D):
        first = {}
        for rkey, val in table.items():
            r = K.elem(*rkey)
            s, sval = first.setdefault(D.reduce(r).key(), (r, val))
            if sval != val:
                return s, r
        return None

    factoring = [D for D in m.divisors() if witness(D) is None]
    cond = min(factoring, key=lambda D: D.norm_int())
    assert all(cond.divides(D) for D in factoring)
    witnesses = {Q: witness(cond.divide_exact(Q.ideal)) for Q, _ in cond.factor()}
    return cond, table, witnesses


# -- the dyadic norm groups with one decompose per value ----------------------------


def norm_class_rows_by_decompose(F: LocalField, cx: int) -> list[int]:
    """dyadic._norm_rows(F, cx) with every sampled value skipped
    by its own valuation test and classified by the public decompose."""
    space = F.space()
    a = space_rep(space, cx)
    rows: list[int] = []
    for depth in (3, 2 * F.e + 2):
        squares = [u * u for u in sample_elems(F, depth)]
        for u2 in squares:
            for v2 in squares:
                val = u2 - a * v2
                if not val or val.valuation() is None:
                    continue
                _gf2_insert(rows, space.decompose(val))
                if len(rows) == F.dim - 1:
                    return rows
    return rows


def level_classes_at_depth_2e2(F: LocalField, i: int) -> set[int]:
    """The square classes of the units 1 + t pi^i for t over the samples of
    depth 2e + 2 - i, one digit deeper than dyadic._level_classes reads,
    each formed as LocalElems and classified by the public decompose."""
    space, pi_i = F.space(), F.pi ** i
    units = (F.one + t * pi_i for t in sample_elems(F, 2 * F.e + 2 - i))
    return {space.decompose(u) for u in units if u.valuation() == 0}


def norm_rows_one_value_at_a_time(F: LocalField, cx: int) -> list[int]:
    """dyadic._norm_rows(F, cx) with the u = 0 pass searched like every
    other u, one value per call of the classify kernel, stopping at the
    value that fills the rows."""
    space = F.space()
    a = space_rep(space, cx)
    rows: list[int] = []
    for depth in (3, 2 * F.e + 2):
        squares = [u * u for u in sample_elems(F, depth)]
        for u2 in squares:
            for v2 in squares:
                val = u2 - a * v2
                if not val:
                    continue
                _gf2_insert(rows, space._classify_pairs([(val.a, val.b)])[0])
                if len(rows) == F.dim - 1:
                    return rows
    return rows


# -- local square solvability through field elements and principal ideals ----------


def element_valuation(e: Elem, P) -> int | None:
    """v_P(e) for nonzero e (fractional allowed); None means e = 0."""
    if not e:
        return None
    return principal_ideal(e).valuation(P)


def local_square_solvable_by_residues(delta: Elem, P, target: int) -> bool:
    """discriminants.local_square_solvable by Elem residues: at an odd P the
    unit delta/pi^v is tested modulo P, at a dyadic P every residue modulo
    P^s with s = max(ceil(t/2), t - v_P(2) - floor(v/2)) is tried, each
    valued through its principal ideal."""
    if target <= 0:
        return True
    v = element_valuation(delta, P)
    if v is None or v >= target:
        return True
    if v < 0 or v % 2:
        return False
    e2 = _dyadic_ramification(P)
    if e2 == 0:
        if v:
            delta = delta / uniformizer_of(P) ** v
        target = s = 1
    else:
        s = max((target + 1) // 2, target - e2 - v // 2)
    for x in (P.ideal**s).residues():
        vx = element_valuation(x * x - delta, P)
        if vx is None or vx >= target:
            return True
    return False


# -- the dyadic pairing on elements ------------------------------------------------


def element_pairing(F: LocalField) -> tuple[list[list[int]], list[list[int]], bool]:
    """The symbol table, the Gram matrix and the duality check of
    dyadic.duality_report with one hilbert_symbol call per pair of class
    representatives and per pair of basis elements, and the orthogonal
    complements by pair bits."""
    reps = all_reps(F.space())
    table = [[hilbert_symbol(x, y) for y in reps] for x in reps]
    gram = gram_by_symbols(F)
    return table, gram, duality_by_pair_bits(F, gram, unit_filtration(F))


def gram_by_symbols(F: LocalField) -> list[list[int]]:
    """Gram bits (1 - hilbert_symbol(basis_i, basis_j)) / 2, one symbol per pair."""
    basis = space_basis(F.space())
    return [[(1 - hilbert_symbol(x, y)) // 2 for y in basis] for x in basis]


def pair_bit(gram: list[list[int]], m1: int, m2: int) -> int:
    """The pairing of the classes m1 and m2, one Gram bit per pair of their bits."""
    bit = 0
    for i in range(len(gram)):
        if not (m1 >> i & 1):
            continue
        for j in range(len(gram)):
            if m2 >> j & 1:
                bit ^= gram[i][j]
    return bit


def orthogonal_complement_by_pair_bits(
    F: LocalField, rows: list[int], gram: list[list[int]]
) -> list[int]:
    """The row basis of all classes pairing trivially with every row."""
    comp: list[int] = []
    for m in range(1 << F.dim):
        if all(pair_bit(gram, m, r) == 0 for r in rows):
            _gf2_insert(comp, m)
    return comp


def span_masks(rows: list[int]) -> set[int]:
    """Every class in the span of rows, the span doubled once per row."""
    out = {0}
    for r in rows:
        out |= {m ^ r for m in out}
    return out


def orthogonal_classes(F: LocalField, gram_rows: list[int], rows: list[int]) -> set[int]:
    """Every class m with <m, r> = 0 for all r in rows, one test per class
    of all 2^dim, where bit j of gram_rows[i] is the Gram bit of basis
    classes i and j.  <m, r> is the parity of m & w_r, with bit i of w_r
    the parity of gram_rows[i] & r."""
    ws = [sum(((g & r).bit_count() & 1) << i for i, g in enumerate(gram_rows)) for r in rows]
    return {m for m in range(1 << F.dim) if not any((m & w).bit_count() & 1 for w in ws)}


def duality_by_classes(F: LocalField, gram_rows: list[int], filtration) -> bool:
    """duality_ok as two sets of classes per level: the orthogonal classes
    of V_k against the span of V_(e-k)."""
    return all(
        orthogonal_classes(F, gram_rows, filtration[k]) == span_masks(filtration[F.e - k])
        for k in range(-1, F.e + 2)
    )


def bilinear_by_row_pairs(rows: list[int]) -> bool:
    """rows[i] ^ rows[k] == rows[i ^ k] for all n^2 pairs of classes."""
    n = len(rows)
    return all(rows[i] ^ rows[k] == rows[i ^ k] for i in range(n) for k in range(n))


def hilbert_symbol_q2_by_division(a, b) -> int:
    """The Q2 closed form (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u))
    with the 2-adic valuations found by dividing by 2 and the units u, v
    taken modulo 8 by a modular inverse of the odd denominator."""
    parts = []
    for q in (Fraction(a), Fraction(b)):
        num, den, v = q.numerator, q.denominator, 0
        while num % 2 == 0:
            num, v = num // 2, v + 1
        while den % 2 == 0:
            den, v = den // 2, v - 1
        parts.append((v, num * pow(den, -1, 8) % 8))
    (alpha, u), (beta, w) = parts
    ex = (u - 1) // 2 * ((w - 1) // 2) + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
    return -1 if ex % 2 else 1


def q2_oracle_by_fractions(F: LocalField, table: list[list[int]]) -> bool:
    """q2_closed_form_oracle on the +-1 table, with one closed form per pair
    of representatives on their Fraction values."""
    reps = [Fraction(r.a - F.W if r.a > F.W // 2 else r.a) for r in all_reps(F.space())]
    return all(
        hilbert_symbol_q2_by_division(x, y) == table[i][j]
        for i, x in enumerate(reps)
        for j, y in enumerate(reps)
    )


def duality_by_pair_bits(F: LocalField, gram: list[list[int]], filtration) -> bool:
    """duality_ok: V_k's orthogonal complement spans V_(e-k) for every k."""
    return all(
        span_masks(orthogonal_complement_by_pair_bits(F, filtration[k], gram))
        == span_masks(filtration[F.e - k])
        for k in range(-1, F.e + 2)
    )


def symmetric_by_entries(table: list[list[int]]) -> bool:
    n = len(table)
    return all(table[i][j] == table[j][i] for i in range(n) for j in range(n))


def bilinear_by_entries(table: list[list[int]]) -> bool:
    """(x y, z) = (x, z)(y, z) over every triple of classes."""
    n = len(table)
    return all(
        table[i][j] * table[k][j] == table[i ^ k][j]
        for i in range(n)
        for k in range(n)
        for j in range(n)
    )


def decompose_linear_by_elems(space: SquareClassSpace) -> bool:
    """decompose(reps[i] * reps[j]) == i ^ j with one LocalElem product and
    one public decompose per pair of representatives."""
    reps = all_reps(space)
    n = len(reps)
    return all(space.decompose(reps[i] * reps[j]) == i ^ j for i in range(n) for j in range(n))


def local_valuation_by_halving(F: LocalField, a: int, b: int) -> int | None:
    """The valuation of a + b t, its norm divided by 2 until it is odd."""
    if not (a or b):
        return None
    n = a * a + F.T * a * b - F.C * b * b
    if n == 0:
        return None
    v2 = 0
    while n % 2 == 0:
        n //= 2
        v2 += 1
    if F.e * v2 % 2:
        raise AssertionError(f"norm with odd 2-adic valuation {v2} in {F}")
    v = F.e * v2 // 2
    if v > F.e * (F.precision + 2):
        return None
    return v


# -- the primitive character through an auxiliary prime ----------------------------

AUX_PRIME_NORM_BOUND = 10_000


def primitive_by_auxiliary_prime(chi, a: Ideal) -> int:
    """chi.primitive(a) through the class group: 0 off the conductor; the
    plain symbol on ideals coprime to delta; otherwise evaluated through an
    auxiliary prime in the ideal class of a and a coprime residue proxy."""
    if not a.is_integral():
        raise ValueError("integral ideal required")
    if not ideal_gcd(a, chi.conductor).is_unit_ideal():
        return 0
    if chi._coprime(a):
        return chi.on_ideal(a)
    aux, alpha = next(auxiliary_splits(chi, a))
    return primitive_via(chi, aux, alpha)


def primitive_via(chi, aux, alpha: Elem) -> int:
    """Primitive value of (alpha)*aux through the coprime proxy route."""
    b = _coprime_proxy(chi, alpha)
    val = chi.at_prime(aux) * chi.on_element(b)
    for i in chi.negative_embeddings:
        val *= alpha.sign_at(i)
    return val


def auxiliary_splits(chi, a: Ideal):
    """Pairs (P, alpha) with P prime, P not dividing delta, and
    a = (alpha) * P; searched by increasing prime norm."""
    found = False
    for P in _prime_ideals_by_norm(chi.field, AUX_PRIME_NORM_BOUND):
        if chi.modulus.valuation(P) != 0:
            continue
        g = (a * P.ideal.inverse()).principal_generator()
        if g is not None:
            found = True
            yield P, g
    if not found:
        raise ArithmeticError(
            f"no auxiliary prime of norm <= {AUX_PRIME_NORM_BOUND} in the class of {a}"
        )


def coprime_coords(chi, x: int, y: int) -> bool:
    """Whether x + y*w is coprime to chi's delta, by its valuation at each
    prime of delta (coords_valuation), not through the factorization that
    QuadCharacter._on_coords reads."""
    return not any(coords_valuation(P, x, y, 1) for P in chi._delta_primes)


def _coprime_proxy(chi, alpha: Elem) -> Elem:
    """Integral b = alpha mod conductor (to full conductor precision at
    each of its primes) that is coprime to delta."""
    cond = chi.conductor
    extra = unit_ideal(chi.field)
    for P in chi._delta_primes:
        if cond.valuation(P) == 0:
            extra = extra * P.ideal
    search = cond * extra
    cond_fac = cond.factor()
    ax, ay, am = alpha.X, alpha.Y, alpha.m
    for i, j in search.residue_coords():
        x, y = _balance(search, i, j)
        if not (x or y) or not coprime_coords(chi, x, y):
            continue
        # cand - alpha = (dx + dy*w)/am; equality passes every Q
        dx, dy = am * x - ax, am * y - ay
        if (dx or dy) and any(coords_valuation(Q, dx, dy, am) < vq for Q, vq in cond_fac):
            continue
        return chi.field.elem(x, y)
    raise AssertionError("no coprime proxy found; conductor data inconsistent")


def _prime_ideals_by_norm(K, bound: int):
    """Prime ideals of K by increasing norm: norm p for split/ramified
    primes, norm p^2 for inert ones."""
    for n in range(2, bound + 1):
        if is_prime(n):
            for P in primes_above(K, n):
                if P.norm() == n:
                    yield P
        else:
            r = isqrt(n)
            if r * r == n and is_prime(r):
                for P in primes_above(K, r):
                    if P.norm() == n:
                        yield P


# -- unit squares through the decomposition +-eps^k --------------------------------


def unit_power_decomposition(u: Elem) -> tuple[Elem, int]:
    """Write a unit of a real quadratic field as zeta * eps^k with
    zeta in {1,-1}; returns (zeta, k).  Exact repeated division."""
    K = u.field
    if abs(u.norm()) != 1 or not u.is_integral():
        raise ValueError("not a unit")
    eps = fundamental_unit(K)
    k = 0
    v = u
    # normalize first embedding positive
    sign = v.sign_at(0)
    if sign < 0:
        v = -v
    # now sigma1(v) > 0; shrink into [1, eps) by exact comparisons
    while (v - 1).sign_at(0) < 0:  # sigma1(v) < 1
        v = v * eps
        k -= 1
    while ((v - eps).sign_at(0) >= 0) or v == eps:  # sigma1(v) >= eps
        v = v / eps
        k += 1
        if not v.is_integral():
            raise AssertionError("unit decomposition left the ring")
    if v != K.one:
        raise AssertionError(f"residual unit {v} not 1; input was not a unit?")
    zeta = K.one if sign > 0 else -K.one
    return zeta, k


def is_unit_square_by_decomposition(u: Elem) -> bool:
    """field.is_unit_square(u) without a square root: +1 over Q, a square of
    a root of unity in an imaginary field, +eps^(2j) in a real field."""
    K = u.field
    if not u.is_integral() or abs(u.norm()) != 1:
        raise ValueError("not a unit")
    if K.is_rational:
        return u.x == 1
    if K.is_imaginary_quadratic:
        return any(u == z * z for z in roots_of_unity(K))
    zeta, k = unit_power_decomposition(u)
    return zeta == K.one and k % 2 == 0


# -- square roots and class enumeration over Fraction elements ------------------


def sqrt_by_fractions(e: Elem) -> Elem | None:
    """An exact square root of e in K, or None, on the Fraction coordinates
    A + B*sqrt(d): the root p + q*sqrt(d) has p^2 = (A +- r)/2 for
    r^2 = A^2 - d*B^2 and q = B/(2p)."""
    if not e:
        return e
    K = e.field
    if K.is_rational:
        r = frac_sqrt(e.x)
        return None if r is None else K.elem(r)
    A, B = e.as_sqrt_coords()
    d = K.d

    def from_sqrt(p: Fraction, q: Fraction) -> Elem:
        # p + q sqrt(d) back to {1, w} coordinates
        if d % 4 == 1:
            return K.elem(p - q, 2 * q)
        return K.elem(p, q)

    if B == 0:
        r = frac_sqrt(A)
        if r is not None:
            return from_sqrt(r, Fraction(0))
        q = frac_sqrt(A / d)
        if q is not None:
            return from_sqrt(Fraction(0), q)
        return None
    disc = A * A - d * B * B
    r = frac_sqrt(disc)
    if r is None:
        return None
    for p2 in ((A + r) / 2, (A - r) / 2):
        p = frac_sqrt(p2)
        if p is not None and p != 0:
            q = B / (2 * p)
            if p * p + d * q * q == A:
                return from_sqrt(p, q)
    return None


def discriminant_classes_by_elems(
    K: QuadField, norm_bound: int, sign: str = "any"
) -> list[DiscriminantInfo]:
    """discriminant_classes over field elements, from the members of
    discriminant_candidates: the witness and sign tests on Elems, buckets
    keyed by the HNF of principal_ideal(delta), and a class kept unless
    delta/r is a square (sqrt_by_fractions) for an r before it in its
    bucket."""
    if sign not in ("any", "totally_negative"):
        raise ValueError("sign must be 'any' or 'totally_negative'")
    cands = []
    for x, y in discriminant_candidates(K, norm_bound):
        delta = K.elem(x, y)
        if discriminant_witness(delta) is None:
            continue
        if sign == "totally_negative" and not is_totally_negative(delta):
            continue
        cands.append(delta)
    cands.sort(key=lambda e: e.key())
    reps: list[Elem] = []
    if K.degree == 1:
        reps = cands
    else:
        groups: dict[tuple, list[Elem]] = {}
        for delta in cands:
            bucket = groups.setdefault(principal_ideal(delta).hnf, [])
            if not any(sqrt_by_fractions(delta / r) is not None for r in bucket):
                bucket.append(delta)
                reps.append(delta)
    return [conductor_ideal(r) for r in reps]


# -- elements over Fraction coordinates ------------------------------------------


@dataclass(frozen=True)
class FractionElem:
    """x + y*w with exact rational coordinates: the Elem that stored two
    Fractions, kept as the oracle of the integer triple (X, Y, m) of
    field.Elem.  Its sign and square tests clear the denominator and call
    the field's integer kernels, as the old Elem did."""

    field: QuadField
    x: Fraction
    y: Fraction

    def _chk(self, other: "FractionElem"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        other = self._coerce(other)
        return FractionElem(self.field, self.x + other.x, self.y + other.y)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        return FractionElem(self.field, self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return FractionElem(self.field, -self.x, -self.y)

    def __mul__(self, other):
        other = self._coerce(other)
        # w^2 = t*w - n
        t, n = self.field.omega_trace, self.field.omega_norm
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return FractionElem(self.field, x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero field element")
        if self.field.degree == 1:
            return FractionElem(self.field, self.x / other.x, Fraction(0))
        nm = other.norm()
        prod = self * other.conj()
        return FractionElem(self.field, prod.x / nm, prod.y / nm)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, k: int):
        one = FractionElem(self.field, Fraction(1), Fraction(0))
        if k < 0:
            return (one / self) ** (-k)
        # square-and-multiply with no product by one and no unused square
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return one if out is None else out

    def _coerce(self, other) -> "FractionElem":
        if isinstance(other, FractionElem):
            self._chk(other)
            return other
        return FractionElem(self.field, Fraction(other), Fraction(0))

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def conj(self) -> "FractionElem":
        t = self.field.omega_trace
        return FractionElem(self.field, self.x + t * self.y, -self.y)

    def trace(self) -> Fraction:
        return 2 * self.x + self.field.omega_trace * self.y

    def norm(self) -> Fraction:
        if self.field.is_rational:
            return self.x
        t, n = self.field.omega_trace, self.field.omega_norm
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def integer_coords(self) -> tuple[int, int, int]:
        """(X, Y, m) with self = (X + Y*w)/m, integers X, Y and m >= 1 least."""
        x, y = self.x, self.y
        m = lcm(x.denominator, y.denominator)
        return x.numerator * (m // x.denominator), y.numerator * (m // y.denominator), m

    def sign_at(self, embedding: int) -> int:
        """Exact sign (-1, 0, +1) at the given real embedding."""
        if embedding not in self.field.real_embeddings:
            raise ValueError(f"no real embedding {embedding} for {self.field}")
        # clearing the positive denominator m does not change the sign
        X, Y, _ = self.integer_coords()
        return coords_sign(self.field, X, Y, embedding)

    def is_square(self) -> bool:
        """Whether the element is a square in K."""
        X, Y, m = self.integer_coords()
        return coords_is_square(self.field, m * X, m * Y)

    def sqrt(self) -> "FractionElem | None":
        """An exact square root in K, or None.  With self = (X + Y*w)/m,
        the root is coords_sqrt's root of m*(X + Y*w) = m^2 * self over m."""
        X, Y, m = self.integer_coords()
        root = coords_sqrt(self.field, m * X, m * Y)
        if root is None:
            return None
        return FractionElem(self.field, Fraction(root[0], m), Fraction(root[1], m))

    def __str__(self):
        if self.field.is_rational:
            return str(self.x)
        if self.y == 0:
            return str(self.x)
        ytxt = f"{self.y}*w" if self.y > 0 else f"-{-self.y}*w"
        if self.x == 0:
            return ytxt
        return f"{self.x}+{ytxt}" if self.y > 0 else f"{self.x}{ytxt}"

    def key(self) -> tuple:
        """Canonical sort/equality key (field-local)."""
        return (self.x, self.y)


def ideal_count_table_by_factoring(K: QuadField, norm_bound: int) -> list[int]:
    """[0, #ideals of norm 1, 2, ..., norm_bound], sieved."""
    spf = smallest_prime_factors(norm_bound)
    sym: dict[int, int] = {}
    out = [0] * (norm_bound + 1)
    for n in range(1, norm_bound + 1):
        total = 1
        m = n
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if K.degree == 1:
                continue
            s = sym.get(p)
            if s is None:
                s = sym[p] = kronecker(K.disc, p)
            if s == 1:
                total *= e + 1
            elif s == -1 and e % 2:
                total = 0
                break
        out[n] = total
    return out


def primitive_character_table_by_factoring(chi, norm_bound: int) -> list[int]:
    """chi'(n) for n <= bound over Q: completely multiplicative from the
    prime values, zero at primes dividing the conductor."""
    K = chi.field
    if K.degree != 1:
        raise ValueError("rational base field required")
    spf = smallest_prime_factors(norm_bound)
    pv: dict[int, int] = {}
    out = [0] * (norm_bound + 1)
    out[1] = 1 if norm_bound >= 1 else 0
    for n in range(2, norm_bound + 1):
        total = 1
        m = n
        while m > 1 and total:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            v = pv.get(p)
            if v is None:
                P = primes_above(K, p)[0]
                if chi.modulus.valuation(P) != 0:
                    v = chi.primitive(P.ideal)  # 0 unless prime to conductor
                else:
                    v = chi.at_prime(P)
                pv[p] = v
            total *= v**e
        out[n] = total
    return out


def dirichlet_convolution_by_loops(A: list[int], B: list[int]) -> list[int]:
    n = min(len(A), len(B)) - 1
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        if not A[d]:
            continue
        for m in range(d, n + 1, d):
            out[m] += A[d] * B[m // d]
    return out


def square_root_coords_by_box(delta: Elem, M: Ideal, N: Ideal, L: Ideal | None = None):
    """ideals.square_root_coords testing every x of each row of the box:
    the same candidates x = i*a' + j*b', y = j*c' over L's HNF, j outer and
    i inner, and the same checks and bound."""
    if not (M.is_integral() and N.is_integral()):
        raise ValueError("integral ideal required")
    if not delta.is_integral():
        raise ValueError(f"integral delta required, got {delta}")
    size = M.norm_int()
    aL, bL, cL = 1, 0, 1
    if L is not None:
        if not (L.is_integral() and L.divides(M)):
            raise ValueError(f"integral ideal required, containing {M}: got {L}")
        size //= L.norm_int()
        aL, bL, cL = _hnf_triple(L)
    if size > RESIDUE_ENUMERATION_BOUND:
        raise BoundExceeded(
            "residue enumeration", f"the ideal {M.pretty()}", size, RESIDUE_ENUMERATION_BOUND
        )
    K = delta.field
    X, Y = delta.X, delta.Y
    t, n = K.omega_trace, K.omega_norm
    a, _, c = _hnf_triple(M)
    A, B, C = _hnf_triple(N)
    for j in range(c // cL):
        y = j * cL
        x0 = j * bL
        for x in range(x0, x0 + a, aL):
            u = x * x - n * y * y - X
            v = 2 * x * y + t * y * y - Y
            if v % C == 0 and (u - (v // C) * B) % A == 0:
                yield x, y


def conductor_by_division(delta: Elem) -> tuple[Ideal, Ideal, Elem]:
    """(f, rel_disc, witness_x) of a discriminant delta by the route
    discriminants.conductor_ideal took before it reused one factorization:
    (delta) built and factored here, k_P by the same dyadic descent, f as a
    product of prime powers, rel_disc = (delta)/f^2 by exact division, and
    the witness as the first root in the box of the ideal 2f modulo 4f^2."""
    K = delta.field
    dl = principal_ideal(delta)
    f = unit_ideal(K)
    for P, l in dl.factor():
        e2 = _dyadic_ramification(P)
        k = l // 2
        while e2 and k > 0 and not local_square_solvable(delta, P, 2 * k + 2 * e2):
            k -= 1
        f = f * P.ideal**k
    f2 = f * f
    x, y = next(square_root_coords(delta, f * 2, f2 * 4))
    return f, dl.divide_exact(f2), K.elem(x, y)


def elem_text_by_fractions(e: Elem) -> str:
    """str(e) as field.Elem.__str__ wrote it before it read the integers
    X, Y and m: through the two Fractions x and y."""
    x, y = e.x, e.y
    if y == 0:
        return str(x)
    ytxt = f"{y}*w" if y > 0 else f"-{-y}*w"
    if x == 0:
        return ytxt
    return f"{x}+{ytxt}" if y > 0 else f"{x}{ytxt}"


def parse_elem_by_fractions(K: QuadField, text: str) -> Elem:
    """field.parse_elem as it read every coordinate, integer text too,
    through Fraction."""
    m = _ELEM_RE.match(text)
    if not m or (m.group("x") is None and m.group("yterm") is None):
        raise ValueError(f"cannot parse element {text!r}")
    x = Fraction(m.group("x")) if m.group("x") else Fraction(0)
    y = Fraction(0)
    if m.group("yterm"):
        y = Fraction(m.group("y")) if m.group("y") else Fraction(1)
        if m.group("sign") == "-":
            y = -y
        elif m.group("sign") is None and m.group("x") is not None:
            raise ValueError(f"missing sign before omega part in {text!r}")
    return K.elem(x, y)


def main_by_full_parser(argv=None) -> int:
    """relquad.cli.main as it parsed every request before the dispatch to
    the subcommand's parser: one parse_args on a freshly built full parser,
    of argv in equals_form."""
    args = build_parser().parse_args(None if argv is None else equals_form(argv))
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def equals_form(argv: list) -> list:
    """argv with every value that a subcommand's option takes as the next
    token, when that value starts with one "-" and is no option of the
    subcommand, moved into the option as --name=value, up to a "--": the
    form in which argparse itself reads such a value (-3+1*w, -4).  An
    option may be abbreviated to a prefix of its option string and of no
    other, as argparse's allow_abbrev reads it."""
    ap = build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices
    if not argv or argv[0] not in subs:
        return list(argv)
    options = subs[argv[0]]._option_string_actions
    out, rest = [argv[0]], list(argv[1:])
    while rest:
        token = rest.pop(0)
        if token == "--":
            return out + [token] + rest
        action = options.get(token)
        if action is None and token.startswith("--") and "=" not in token:
            matches = [options[s] for s in options if s.startswith(token)]
            action = matches[0] if len(matches) == 1 else None
        takes_one = isinstance(action, argparse._StoreAction) and action.nargs is None
        if takes_one and rest and re.match(r"-(?!-)", rest[0]) and rest[0][:2] not in options:
            token = f"{token}={rest.pop(0)}"
        out.append(token)
    return out


# -- moved out of the package: names that only tests and these oracles use ---------


def primes_upto(n: int) -> list[int]:
    if n < _SMALL_PRIME_LIMIT:
        ps = _small_primes()
        # bisect would do, but the list is small enough
        return [p for p in ps if p <= n]
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


def is_square_int(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def frac_is_square(q: Fraction) -> bool:
    return q >= 0 and is_square_int(q.numerator) and is_square_int(q.denominator)


def frac_sqrt(q: Fraction) -> Fraction | None:
    if not frac_is_square(q):
        return None
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


def sqrt_gen(K: QuadField) -> Elem:
    """The element sqrt(d): equals 2w-1 when d = 1 mod 4, else w."""
    if K.is_rational:
        raise ValueError("Q has no sqrt generator")
    if K.d % 4 == 1:
        return K.elem(-1, 2)  # sqrt(d) = 2w - 1
    return K.elem(0, 1)


def elem_trace(a: Elem) -> Fraction:
    """The trace a + conj(a) = (2X + t*Y)/m, t the trace of w."""
    return Fraction(2 * a.X + a.field.omega_trace * a.Y, a.m)


def ideal_gcd(a: Ideal, b: Ideal) -> Ideal:
    """gcd = sum of the two modules; over Q, (n1/d1) + (n2/d2) on the
    numerators alone, since the (0, 1) column stands for no element."""
    if a.field is not b.field:
        raise ValueError("ideals of different fields")
    d1, d2 = a.den, b.den
    if a.field.degree == 1:
        return Ideal(a.field, (gcd(a.hnf[0] * d2, b.hnf[0] * d1), 0, 1), d1 * d2, _checked=True)
    a1, b1, c1 = a.hnf
    a2, b2, c2 = b.hnf
    vecs = [(a1 * d2, 0), (b1 * d2, c1 * d2), (a2 * d1, 0), (b2 * d1, c2 * d1)]
    return Ideal(a.field, _hnf_from_vectors(vecs), d1 * d2, _checked=True)


def ideal_lcm(a: Ideal, b: Ideal) -> Ideal:
    """lcm = intersection; computed as product / gcd."""
    return (a * b).divide_exact(ideal_gcd(a, b))


def is_totally_negative(e: Elem) -> bool:
    return all(e.sign_at(i) < 0 for i in e.field.real_embeddings)


def space_rep(space: SquareClassSpace, mask: int) -> LocalElem:
    """The product of the basis elements of the space over the bits of mask."""
    return LocalElem(space.field, *space.rep_pairs[mask])


def space_basis(space: SquareClassSpace) -> list[LocalElem]:
    """pi, then the unit basis of the space: the representatives of the
    single bits."""
    return [space_rep(space, 1 << i) for i in range(space.dim)]


def all_reps(space: SquareClassSpace) -> list[LocalElem]:
    """A representative of every class of the space, by mask, each the
    product of the basis elements over the mask's bits (space_rep)."""
    return [space_rep(space, m) for m in range(1 << space.dim)]


def unit_level(u: LocalElem) -> int:
    """max i <= 2e+1 with u in U_i = 1 + pi^i O; 2e+1 reports "at least"
    (such units are squares by the local square theorem)."""
    F = u.field
    cap = 2 * F.e + 1
    if u.valuation() != 0:
        raise ValueError("unit required")
    v = _valuation(F, (u.a - 1) % F.W, u.b % F.W)
    return cap if v is None else min(v, cap)


def agree_at_precision(x: LocalElem, y: LocalElem) -> bool:
    """Indistinguishable modulo pi^(e * precision)."""
    return _agree(x.field, x.a, x.b, y.a, y.b)


def class_number(K: QuadField) -> int:
    """Class number by Minkowski-complete enumeration plus principality tests."""
    if K.degree == 1:
        return 1
    reps: list[Ideal] = []
    for n in range(1, minkowski_bound(K) + 1):
        for a in ideals_of_norm(K, n):
            if not any((a * r.inverse()).principal_generator() is not None for r in reps):
                reps.append(a)
    return len(reps)


def order_ideal_count_by_root_counts(delta: Elem, n: int) -> int:
    """counting.order_ideal_counts at one index n >= 1, by brute root
    counts over the ideals of each norm n/m^2 in place of the root pairs."""
    if n < 1:
        raise ValueError(f"index n must be >= 1, got {n}")
    K = delta.field
    total = 0
    for m in range(1, isqrt(n) + 1):
        if n % (m * m):
            continue
        scale = len(ideals_of_norm(K, m))
        if scale:
            total += scale * sum(count_square_roots(delta, a) for a in ideals_of_norm(K, n // (m * m)))
    return total


def zeta_by_route(delta: Elem, norm_bound: int, route) -> list[int]:
    """counting.zeta_coefficients by a character route, route(chi, a) being
    count_square_roots_local_product or count_square_roots_formula, summed
    over ideals_of_norm in place of the brute root counts."""
    chi = QuadCharacter(delta)
    K = delta.field
    return [0] + [sum(route(chi, a) for a in ideals_of_norm(K, n)) for n in range(1, norm_bound + 1)]


# -- Hilbert reciprocity over Q: the oracle for dyadic.hilbert_symbol ---------------


def _padic_split(q: Fraction, p: int, m: int) -> tuple[int, int]:
    """(v_p(q), the unit part q / p^v_p(q) modulo m) for a nonzero rational
    q and a modulus m prime to the unit part's denominator."""
    if not q:
        raise ValueError("nonzero rational required")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * pow(den, -1, m) % m


def from_rational(F: LocalField, q) -> LocalElem:
    """Embed a nonzero rational, normalizing the even part to pi^(0 or 1)
    times a unit (enough for square-class work)."""
    v, u = _padic_split(Fraction(q), 2, F.W)
    return F.elem(2 * u if v % 2 else u)


def tame_symbol(a, b, p: int) -> int:
    """Hilbert symbol at an odd prime p."""
    a, b = Fraction(a), Fraction(b)
    alpha, u = _padic_split(a, p, p * p)
    beta, v = _padic_split(b, p, p * p)
    val = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        val = -val
    if beta % 2 and kronecker(u, p) == -1:
        val = -val
    if alpha % 2 and kronecker(v, p) == -1:
        val = -val
    return val


def real_symbol(a, b) -> int:
    return -1 if a < 0 and b < 0 else 1


def product_formula_holds(a, b, precision: int | None = None) -> bool:
    """prod over v in {2, odd p | ab, infinity} of (a, b)_v equals +1."""
    a, b = Fraction(a), Fraction(b)
    F = local_field("q2", precision)
    total = hilbert_symbol(from_rational(F, a), from_rational(F, b))
    total *= real_symbol(a, b)
    odd_primes = set()
    for q in (a, b):
        for n in (q.numerator, q.denominator):
            odd_primes |= {p for p in factorint(n) if p != 2}
    for p in sorted(odd_primes):
        total *= tame_symbol(a, b, p)
    return total == 1
