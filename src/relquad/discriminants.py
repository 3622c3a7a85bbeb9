"""Discriminants of K, conductor ideals, relative discriminants, and
discriminant-class enumeration.

A discriminant is a nonzero algebraic integer that is a square modulo 4.
Its conductor ideal f is the largest integral ideal with f^2 | (delta) and
delta = x^2 mod 4f^2 solvable; the relative discriminant of K(sqrt delta)/K
is (delta)/f^2.

Valuations and local square solvability work on integer coordinates:
local_square_solvable takes v_P from ideals.coords_valuation and searches
roots in P^(v/2) with the search kernel ideals._root_coords on the HNF
triples of the prime powers, so the dyadic conductor exponents build no
field element and no principal ideal per residue.

Every fact of delta is computed once, from the pairs (P, l = v_P(delta))
of the factorization of (delta): k_P = v_P(f), and f = prod P^k, f^2 and
rel_disc = prod P^(l - 2k) built on integers from the prime powers by
ideals._ideal_of_pairs and handed their pairs, with no ideal multiplied or
divided; the witness by the search kernel ideals._root_coords on the HNF
triples of f and f^2 scaled by 2 and 4, with no ideal 2f or 4f^2 built,
and for f = (1), where the root of x^2 = delta mod 4 is unique mod 2, the
mod-4 test _witness_coords.  So a miss on a delta whose ideal was never
built pays for integer work only: principal_ideal's gcd, the factorization
found and confirmed on integers, and the prime powers.  The route that factored
(delta) afresh and divided by f^2 is the test oracle
tests/helpers.py::conductor_by_division.

A DiscriminantInfo is the one object per discriminant: the characters,
fundamental_discriminant_data and verify read (delta) and its
factorization off it, and the characters keep their memos on it.  It is
built in _conductor alone, memoised process-wide per (field, X, Y),
delta = X + Y*w, in an LRU cache of ideals.FACTOR_CACHE_SIZE entries, so
a hit builds no ideal and hashes in C.  A miss builds (delta), which is
interned: for a table row it is the ideal that ideals_of_norm built and
handed its factorization, so no row factors (delta) afresh.  So fdelta,
conductor, the characters, the table rows and unit_discriminants share
one info per delta, which no caller can change but by filling its memos.

The class enumeration builds each class modulo unit squares once, as a
principal ideal (g) of norm <= B and a unit u modulo unit squares, delta =
u*g, and keeps its least member; the generator g and the least member come
from relquad.classes (_generator and _unit_square_least), all on integer
pairs, with only the representatives made Elems.  Their conductors read the
factorization of (delta) = (g) that ideals_of_norm handed the interned
ideal (g), so a row of a table or of unit_discriminants never factors
(delta) afresh.  A totally negative class needs
u*g negative at every real embedding, that is u's signs opposite to g's:
the signs of g and of each unit are taken once, and only the units whose
signs match are multiplied by g.  Cohen, GTM 138, 5.2-5.4 and 5.7-5.8.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from ._record import Record, slot_setters
from .classes import _generator, _unit_square_least
from .field import Elem, QuadField, coords_mul, coords_sign, unit_square_class_reps
from .ideals import (
    FACTOR_CACHE_SIZE,
    Ideal,
    PrimeIdeal,
    _factor,
    _hnf_triple,
    _ideal_of_pairs,
    _root_coords,
    coords_valuation,
    ideals_of_norm,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)

__all__ = [
    "DiscriminantInfo",
    "GeneralDiscFactorization",
    "FundDiscData",
    "LocalComponent",
    "discriminant_witness",
    "conductor_ideal",
    "relative_discriminant_general",
    "is_unit_discriminant",
    "fundamental_discriminant_data",
    "discriminant_classes",
    "same_class_mod_unit_squares",
    "same_class_mod_squares",
    "uniformizer_of",
    "local_square_solvable",
]


class DiscriminantInfo:
    """Every fact relquad keeps about one discriminant delta: f_delta,
    rel_disc = (delta)/f^2, witness_x with x^2 = delta mod 4 f^2; modulus =
    (delta), the read-only maps delta_primes, P -> v_P(delta) in the order
    of Ideal.factor, and f_exponents, P -> v_P(f), and negative_embeddings,
    where delta is negative; and the two memos, by P, that every
    QuadCharacter of delta shares: _prime (QuadCharacter._prime_value, the
    primitive character at every prime, those of delta included) and
    _local (counting's local verdicts), whose entries are pure functions of
    delta, so threads share them unlocked.

    Only _conductor, the memo of conductor_ideal, builds an info.  It is
    immutable, equal and hashed by delta; DiscriminantInfo(delta) written
    out by hand, and copy, deepcopy or a pickle round trip of an info, give
    conductor_ideal(delta)."""

    __slots__ = (
        "delta", "f_delta", "rel_disc", "witness_x", "modulus",
        "delta_primes", "f_exponents", "negative_embeddings", "_prime", "_local",
    )

    def __new__(cls, delta: Elem):
        return conductor_ideal(delta)

    def __reduce__(self):
        return DiscriminantInfo, (self.delta,)

    def __setattr__(self, name, value):
        raise AttributeError(f"DiscriminantInfo is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"DiscriminantInfo is immutable: cannot delete {name}")

    def __eq__(self, other):
        return self.delta == other.delta if isinstance(other, DiscriminantInfo) else NotImplemented

    def __hash__(self):
        return hash(self.delta)

    def __repr__(self):
        return f"DiscriminantInfo({self.delta!r})"


# the slot writers of DiscriminantInfo, which refuses assignment
_INFO_SETTERS = slot_setters(DiscriminantInfo)


# the records below are immutable, equal and hashed by their fields
# (relquad._record)
class GeneralDiscFactorization(Record):
    """s, the largest integral ideal with s^2 | (delta); t, the largest
    divisor of (2) with delta a square mod (s t)^2; and rel_disc_general =
    4 delta / (s t)^2."""

    __slots__ = ("s", "t", "rel_disc_general")

    def __init__(self, s: Ideal, t: Ideal, rel_disc_general: Ideal):
        for setter, value in zip(_GENERAL_SETTERS, (s, t, rel_disc_general)):
            setter(self, value)


class LocalComponent(Record):
    """At a prime P of delta: residual_exponent = v_P(delta) - 2 v_P(f),
    which equals v_P(rel_disc), and component = delta / pi^(2 v_P(f)), well
    defined modulo local squares."""

    __slots__ = ("prime", "residual_exponent", "component")

    def __init__(self, prime: PrimeIdeal, residual_exponent: int, component: Elem):
        for setter, value in zip(_COMPONENT_SETTERS, (prime, residual_exponent, component)):
            setter(self, value)


class FundDiscData(Record):
    """The local components, the signs of delta at the real embeddings, and
    principal_rep: delta0 with f_{delta0} = (1) if f is principal, else None."""

    __slots__ = ("local_components", "real_signs", "principal_rep")

    def __init__(
        self, local_components: tuple[LocalComponent, ...], real_signs: tuple[int, ...], principal_rep: Elem | None
    ):
        for setter, value in zip(_FUND_SETTERS, (local_components, real_signs, principal_rep)):
            setter(self, value)


_GENERAL_SETTERS, _COMPONENT_SETTERS, _FUND_SETTERS = map(
    slot_setters, (GeneralDiscFactorization, LocalComponent, FundDiscData)
)


def uniformizer_of(P: PrimeIdeal) -> Elem:
    """An element of P of valuation exactly 1."""
    cands = P.ideal.basis_elems()
    cands.append(cands[0] + cands[-1])
    for c in cands:
        if coords_valuation(P, c.X, c.Y, c.m) == 1:
            return c
    raise AssertionError(f"no uniformizer among basis combinations of {P}")


def discriminant_witness(delta: Elem) -> Elem | None:
    """x mod 2 with x^2 = delta mod 4, or None if delta is not a discriminant."""
    if not delta or not delta.is_integral():
        raise ValueError("nonzero integral element required")
    coords = _witness_coords(delta.field, delta.X, delta.Y)
    return None if coords is None else delta.field.elem(*coords)


def _witness_coords(K: QuadField, X: int, Y: int) -> tuple[int, int] | None:
    # (i, j) in {0, 1}^2 with (i + j w)^2 = X + Y w mod 4; over Q, where t
    # = n = Y = 0, (i, 1) passes only where (i, 0) already has
    t, n = K.omega_trace, K.omega_norm
    for i in (0, 1):
        for j in (0, 1):
            # (i + j w)^2 = (i^2 - n j^2) + (2 i j + t j^2) w
            if (i * i - n * j * j - X) % 4 == 0 and (2 * i * j + t * j * j - Y) % 4 == 0:
                return i, j
    return None


def local_square_solvable(delta: Elem, P: PrimeIdeal, target: int) -> bool:
    """Whether x^2 = delta mod P^target is solvable with x integral at P,
    for any delta of K, decided on integer coordinates.

    Write t = target and v = v_P(delta) (infinity for delta = 0).  If
    v >= t, x = 0 works.  If v < 0 or v is odd there is no root; otherwise
    every root lies in P^(v/2).  A delta = (X + Y*w)/m is replaced by the
    integral m^2 delta = m*X + m*Y*w and t by t + 2 v_P(m) (x solves the
    one iff m*x solves the other).  At an odd P a root mod P^(v+1) lifts by
    Hensel's lemma to every power of P, so t becomes v + 1.  The search
    (the kernel ideals._root_coords) runs over P^(v/2) modulo P^s with
    s = max(ceil(t/2), t - v_P(2) - v/2), which suffices: x = x0 mod P^s
    with v(x0) = v/2 gives v(x^2 - x0^2) >= s + min(v_P(2) + v/2, s) >= t.
    That is N(P)^(s - v/2) candidates, N(P) of them at an odd P.  The
    powers of P come from the memo of PrimeIdeal.power.
    """
    if delta.field is not P.ideal.field:
        raise ValueError("element and prime of different fields")
    if target <= 0 or not delta:
        return True
    X, Y, m = delta.X, delta.Y, delta.m
    v = coords_valuation(P, X, Y, m)
    if m > 1 and 0 <= v < target and v % 2 == 0:
        vm = coords_valuation(P, m, 0)
        X, Y, v, target = m * X, m * Y, v + 2 * vm, target + 2 * vm
    return _solvable_at(delta.field, X, Y, P, v, target)


def _solvable_at(K: QuadField, X: int, Y: int, P: PrimeIdeal, v: int, target: int) -> bool:
    """local_square_solvable for delta = X + Y*w with v = v_P(delta) and
    target >= 1, delta integral unless v >= target, v < 0 or v is odd, which
    decide at once.  The search runs on the kernel ideals._root_coords over
    the triples of the prime powers, P^s within P^(v/2) as s > v/2."""
    if v >= target:
        return True
    if v < 0 or v % 2:
        return False
    e2 = _dyadic_ramification(P)
    if e2 == 0:
        target = v + 1
    s = max((target + 1) // 2, target - e2 - v // 2)
    triples = (P.power(k).hnf for k in (s, target, v // 2))
    return next(_root_coords(K, X, Y, *triples), None) is not None


def _dyadic_ramification(P: PrimeIdeal) -> int:
    # v_P(2)
    if P.p != 2:
        return 0
    return 2 if P.ramified else 1


def conductor_ideal(delta: Elem) -> DiscriminantInfo:
    """Conductor ideal, relative discriminant, and witness for a discriminant.

    Odd primes P^l || (delta) contribute floor(l/2); a dyadic prime
    contributes the largest k <= floor(l/2) such that x^2 = delta is
    solvable modulo P^(2k + 2 v_P(2)), decided by finite residue search.
    (delta) is built and factored once, and every fact of delta is read
    off its pairs (P, l) by _conductor: f = prod P^k and rel_disc =
    prod P^(l - 2k), built on integers by ideals._ideal_of_pairs, with no
    ideal product or division.  The witness is the first root of x^2 =
    delta mod 4f^2 in the HNF box of 2f, searched on f's and f^2's HNF
    triples scaled by 2 and 4 (ideals._root_coords), or for f = (1) the one
    root mod 2 (_witness_coords).  The returned info also keeps (delta) and
    v_P(delta), v_P(f) at each P | delta, which the characters,
    fundamental_discriminant_data and verify read.  Memoised per delta
    (_conductor): every call for one delta returns the same info."""
    if not delta or not delta.is_integral():
        raise ValueError("nonzero integral element required")
    if _witness_coords(delta.field, delta.X, delta.Y) is None:
        raise ValueError(f"{delta} is not a discriminant (not a square mod 4)")
    return _conductor(delta.field, delta.X, delta.Y)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _conductor(K: QuadField, X: int, Y: int) -> DiscriminantInfo:
    """conductor_ideal(delta) for a discriminant delta = X + Y*w of K,
    memoised per (K, X, Y), so a hit builds no ideal and hashes in C, and
    equal coordinates in different fields keep separate entries.  (delta)
    is the interned ideal: for a row of the table, the one ideals_of_norm
    built and handed its factorization."""
    delta = Elem(K, X, Y)
    modulus = principal_ideal(delta)
    delta_primes = dict(_factor(modulus))
    f_exponents = {}
    for P, l in delta_primes.items():
        e2 = _dyadic_ramification(P)
        k = l // 2
        while e2 and k > 0 and not _solvable_at(K, X, Y, P, l, 2 * k + 2 * e2):
            k -= 1
        f_exponents[P] = k
    f_pairs = tuple((P, k) for P, k in f_exponents.items() if k)
    if f_pairs:
        f = _ideal_of_pairs(K, f_pairs)
        f2 = _ideal_of_pairs(K, tuple((P, 2 * k) for P, k in f_pairs))
        rel_pairs = ((P, l - 2 * f_exponents[P]) for P, l in delta_primes.items())
        rel = _ideal_of_pairs(K, tuple((P, e) for P, e in rel_pairs if e))
        coords = next(_root_coords(K, X, Y, _hnf_triple(f, 2), _hnf_triple(f2, 4)), None)
    else:
        # x^2 = delta mod 4 has at most one root mod 2: two roots x, x + h
        # give h(h + 2x) in (4), so v_P(h) >= v_P(2) at each P | 2
        f, rel = unit_ideal(K), modulus
        coords = _witness_coords(K, X, Y)
    if coords is None:
        raise AssertionError("per-prime solvability holds but no global witness found")
    negative = tuple(i for i in K.real_embeddings if coords_sign(K, X, Y, i) < 0)
    # the one constructor of DiscriminantInfo objects
    info = object.__new__(DiscriminantInfo)
    facts = (
        delta, f, rel, Elem(K, *coords), modulus,
        MappingProxyType(delta_primes), MappingProxyType(f_exponents), negative, {}, {},
    )
    for setter, value in zip(_INFO_SETTERS, facts):
        setter(info, value)
    return info


def relative_discriminant_general(delta: Elem) -> GeneralDiscFactorization:
    """4*delta/(s t)^2 for arbitrary nonzero integral delta: s is the largest
    ideal whose square divides delta, t the largest divisor of (2) keeping
    delta a square mod (s t)^2."""
    if not delta or not delta.is_integral():
        raise ValueError("nonzero integral element required")
    K = delta.field
    dl = principal_ideal(delta)
    s = unit_ideal(K)
    for P, l in dl.factor():
        s = s * P.ideal ** (l // 2)
    two = principal_ideal(K.elem(2))
    for t in sorted(two.divisors(), key=lambda d: -d.norm_int()):
        st = s * t
        if next(square_root_coords(delta, st, st * st), None) is not None:
            break
    else:  # t = (1) always works: delta is a square mod s^2
        raise AssertionError(f"{delta} is not a square mod s^2 = {s * s}")
    rel = (dl * 4).divide_exact(st * st)
    return GeneralDiscFactorization(s=s, t=t, rel_disc_general=rel)


def is_unit_discriminant(delta: Elem) -> bool:
    """True iff (delta) = f^2, i.e. K(sqrt delta)/K is unramified at all
    finite places."""
    info = delta if isinstance(delta, DiscriminantInfo) else conductor_ideal(delta)
    return info.rel_disc.is_unit_ideal()


def fundamental_discriminant_data(delta: "Elem | DiscriminantInfo") -> FundDiscData:
    """Local components, real signs and, when f is principal, a
    representative of conductor (1).  Accepts the DiscriminantInfo of
    delta in place of delta, as is_unit_discriminant does, and reads the
    primes of delta and v_P(delta), v_P(f) at each off it."""
    info = delta if isinstance(delta, DiscriminantInfo) else conductor_ideal(delta)
    delta = info.delta
    K = delta.field
    comps = []
    for P, l in info.delta_primes.items():
        k = info.f_exponents[P]
        pi = uniformizer_of(P)
        comp = delta / pi ** (2 * k)
        residual = l - 2 * k
        # explicit raises, not asserts: the checks must survive python -O
        if not residual == info.rel_disc.valuation(P) >= 0:
            raise AssertionError(f"v_P(delta/f^2) at {P} is not {residual} >= 0 for {delta}")
        comps.append(LocalComponent(prime=P, residual_exponent=residual, component=comp))
    signs = tuple(delta.sign_at(i) for i in K.real_embeddings)
    rep = None
    g = info.f_delta.principal_generator()
    if g is not None:
        rep = delta / (g * g)
        if not rep.is_integral():
            raise AssertionError(f"principal representative {rep} of {delta} is not integral")
        if not conductor_ideal(rep).f_delta.is_unit_ideal():
            raise AssertionError(f"principal representative {rep} of {delta} has conductor != (1)")
    return FundDiscData(local_components=tuple(comps), real_signs=signs, principal_rep=rep)


# ---------------------------------------------------------------------------
# class enumeration


def same_class_mod_squares(d1: Elem, d2: Elem) -> bool:
    """Whether d1/d2 is a square in K^x: whether d1*d2 = d1/d2 * d2^2 is one (d1, d2 != 0)."""
    for name, e in (("d1", d1), ("d2", d2)):
        if not e:
            raise ValueError(f"{name} must be nonzero, got {e}")
    return (d1 * d2).is_square()


def same_class_mod_unit_squares(d1: Elem, d2: Elem) -> bool:
    """Whether d1/d2 is the square of a unit of O: (d1) = (d2) makes d1/d2
    a unit, and a unit that is a square in K is the square of a unit."""
    return same_class_mod_squares(d1, d2) and principal_ideal(d1) == principal_ideal(d2)


def discriminant_classes(
    K: QuadField, norm_bound: int, sign: str = "any"
) -> list[DiscriminantInfo]:
    """Representatives of all discriminant classes modulo squares of units
    with |N(delta)| <= norm_bound, optionally restricted to totally negative
    discriminants, sorted: the least coordinate pair of each class in the
    window eps^-2 <= |s1/s2| <= eps^2 of classes._window_least for a real
    field, in the whole class otherwise.
    A class is a principal ideal (g) and a unit u of unit_square_class_reps,
    so each is built once, as u*g; its mod-4 witness and its signs do not
    change under unit squares, so they are tested once."""
    if sign not in ("any", "totally_negative"):
        raise ValueError("sign must be 'any' or 'totally_negative'")
    if norm_bound < 0:
        raise ValueError(f"norm bound must be >= 0, got {norm_bound}")
    negative = sign == "totally_negative"
    # N(x^2 + 4y) = N(x)^2 = 0, 1 mod 4, and N(delta) > 0 if K is imaginary or delta totally negative
    excluded = (2, 3) if K.degree == 2 and (negative or K.is_imaginary_quadratic) else (2,)
    ideals = (
        I for n in range(1, norm_bound + 1) if n % 4 not in excluded for I in ideals_of_norm(K, n)
    )
    return _class_reps(K, ideals, negative)


def _class_reps(K: QuadField, ideals, negative: bool) -> list[DiscriminantInfo]:
    """The sorted classes modulo unit squares of the discriminants delta
    with (delta) among the given integral ideals, totally negative ones
    only if negative: for each principal ideal (g), every u*g with u in
    unit_square_class_reps that passes the sign filter and the mod-4
    witness, as its least member, with its conductor from _conductor, the
    memo of conductor_ideal, which factors (delta) = (g), the interned
    ideal among the given ones.  The sign filter runs before the product: u*g
    is totally negative iff u's sign is the opposite of g's at every real
    embedding, so the signs of each unit are taken once per call and those
    of g once per ideal, and the other units are never multiplied by g.
    With negative False, or no real embedding, every unit passes."""
    units = [(u.X, u.Y) for u in unit_square_class_reps(K)]
    embeddings = K.real_embeddings if negative else ()
    unit_signs = [tuple(coords_sign(K, *u, e) for e in embeddings) for u in units]
    reps = []
    for I in ideals:
        g = _generator(I)
        if g is None:
            continue
        opposite = tuple(-coords_sign(K, *g, e) for e in embeddings)
        for u, signs in zip(units, unit_signs):
            if signs != opposite:
                continue
            x, y = coords_mul(K, *g, *u)
            if _witness_coords(K, x, y) is None:
                continue
            # (delta) = (u*g) = I, the ideal _conductor factors
            reps.append((x, y))
    return [_conductor(K, x, y) for x, y in sorted(_unit_square_least(K, reps))]
