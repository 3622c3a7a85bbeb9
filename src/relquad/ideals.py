"""Fractional ideals of the ring of integers of Q or a quadratic field.

A nonzero ideal is stored as an integer module in Hermite normal form over
the basis {1, w}, the triple (a, b, c) for Z*a + Z*(b + c*w), divided by a
positive integer denominator.  Every base field has that one format: Q's
ideal (n/den)*Z is (n, 0, 1) over den, and with w's trace and norm 0 the
quadratic formulas (membership, residues, valuations, divisibility,
conjugation) hold over Q as they stand.  Q keeps a branch only where its
mathematics differs: the (0, 1) column stands for no element, so it never
scales (_hnf_triple, the one scaling rule), and products, sums, inverses,
norms and principal ideals work on n alone.  The representation is
normalized at construction and is unique per ideal (Cohen, GTM 138, 5.2),
and Ideal interns on it.

The arithmetic works on the integer HNF triples throughout (Cohen, GTM 138,
sections 4.7 and 5.2): products, sums, conjugates and inverses never pass
through field elements, and ideal_from_generators clears denominators once
and builds its module vectors from integer coordinates.

The fields (field.QuadField), the primes above p (PrimeIdeal) and the
ideals are interned, so equality is identity and every memo keyed on them
hashes and compares in C.  Fields and primes live for the life of the
process; the primes are built once per (field, p) by _primes_above and
published in _PRIMES, which grows only with the pairs asked about.  An
ideal lives while anything holds it: Ideal(...) returns the one live
object of its (field, hnf, den) from _IDEALS, a table of weak references
that holds the live ideals only (hash-consing; Filliatre and Conchon,
Type-safe modular hash-consing, 2006).  Ideal.valuation is closed-form
integer arithmetic on the HNF (a, b, c) and the denominator: no ideal
product and no inverse.  Ideal.factor is memoised process-wide per ideal
in an LRU cache of FACTOR_CACHE_SIZE entries, so a long run cannot grow it
without limit.  No factorization multiplies an ideal.  An ideal that was
handed its factorization at construction (every ideal ideals_of_norm
builds, unit_ideal, each prime's own ideal with (P, 1), each prime power
PrimeIdeal.power with (P, k), and the products _ideal_of_pairs builds) has
it confirmed on integers (_confirm_factors), by its valuation at each
listed prime and the product of their norms.  Any other integral ideal is
valued at the primes of its norm (_found_factors), and the pairs found are
confirmed independently of those valuations: P^v | I on the memoised
P.power(v), by HNF membership, and prod N(P)^v = N(I), which prove I =
prod P^v as the P^v are pairwise coprime.  A fractional I = J/den is the
quotient of the factorizations of its numerator module J and of (den).
Each check runs once per distinct ideal, inside the cached computation;
the route that multiplied the prime powers back is the test oracle
tests/helpers.py::factor_by_products.  The package's own readers
(divisors, moebius, the character values and the counting routes) iterate
the memoised tuple _factor(I) in place; Ideal.factor copies it into a fresh
list for outside callers.  Ideal.inverse (and its check I * I^-1 = (1)),
ideals_of_norm, per (field, n), the local factors of norm p^e,
_local_factors, per (primes above p, e), the prime powers PrimeIdeal.power,
per (P, k), the integral divisors of an ideal, _divisors, per ideal
(Ideal.divisors copies them into a fresh list), the factorization of an
element by its coordinates, _coords_factor, per (field, x, y, m), and the
product of two ideals of one field, _product, per (I, J), are memoised in
LRU caches of the same size.
The memos hold the ideals they key on and return, so those stay interned
while their entries last.  No output depends on an identity hash, which
differs between processes: the package keys dicts on interned objects,
which keep insertion order, and iterates no set of them.  Scaling by an
integer or a Fraction is integer products, and the product by an element
is not memoised.

coords_valuation(P, x, y, den) reads v_P((x + y*w)/den) off integer
coordinates with the primitive-part rule of Ideal.valuation
(_primitive_valuation), so a caller holding an element needs no principal
ideal to learn its valuations; _coords_factor(K, x, y, m) reads the whole
factorization of ((x + y*w)/m) that way.

Principality reads the norm form f_J of I = c*J (_norm_form, Cohen, GTM
138, 5.2): a real field walks the continued fraction of a root of f_J, as
fundamental_unit walks that of w (5.7); an imaginary one reduces f_J by
Lagrange-Gauss (5.3-5.4).  No search over coordinate rows is left.  The
continued-fraction walk is memoised per ideal (_cf_generator), non-principal
ones included, in an LRU cache of FACTOR_CACHE_SIZE entries.  A real
field's generator is then walked by eps into the window of
field._window_least, the walk the discriminant classes take by eps^2.
Ideal.divides tests containment on the HNF: no inverse, no product.

principal_ideal reads the HNF of (e) from one gcd and one inverse modulo
the norm of e (Cohen, GTM 138, 2.4.3 and 5.2), so a generator the size of
a unit costs its norm, not its size; ideal_from_generators stays the
general route, and the HNF of the full vectors {e, e*w} survives as the
test oracle tests/helpers.py::principal_ideal_by_vectors.

The primes above p are found by the Kronecker symbol and root finding, and
checked on integers: the count of roots against the symbol, each root
against the norm form, and P^2 = (p) at a ramified P by its generators; no
ideal is multiplied.  PrimeIdeal.power builds P^k on integers: a Newton
lift of the root at a split P, closed forms elsewhere.

ideals_of_norm builds the ideals of norm n on integers (Cohen, GTM 138,
5.2 and 4.8): those of norm n/p^e, p the largest prime dividing n, times
each ideal k*(q, r + w) of norm p^e, by CRT on the HNF entries.  Each ideal
is handed the exponents it was built from.  _ideal_of_pairs builds any
product of powers of distinct primes the same way.  The product route, one
Ideal product per pair of factors, survives as the test oracle
tests/helpers.py::ideals_of_norm_by_products.

square_root_coords(delta, M, N, L) is the one integer search for x^2 = delta
mod N over one element of L per coset of L/M.  It is the validated entry,
taking ideals; its kernel _root_coords takes delta's coordinates and the
HNF triples of M, N and L.  The root count N(delta, a) searches (2a, 4a),
the conductor witness (2f, 4f^2) and the dyadic character symbol (2P, 4P)
on the kernel, each scaling a triple it holds by an integer
(_hnf_triple(a, 2)), so no Ideal is built for the search, and so does local
square solvability (P^s, P^t, P^(v/2)) on the triples of the prime powers;
the general relative discriminant (st, (st)^2) goes through the entry.  All
but local solvability use L = (1), the HNF box of M.  Like Ideal.residues
the kernel refuses N(M)/N(L) > RESIDUE_ENUMERATION_BOUND with an
arith.BoundExceeded naming the bound and M, whose text it formats only
then.
In each row of candidates the w-coordinate of x^2 - delta is linear in x,
so the search tests only the one residue class of x where N's w-condition
holds; the search over the whole box survives as the test oracle
tests/helpers.py::square_root_coords_by_box.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd, isqrt, lcm

from .arith import BoundExceeded, factorint, is_prime, kronecker, sqrt_mod_p, xgcd
from .field import Elem, QuadField, _cf_convergents, _window_least, coords_mul, coords_sign, parse_elem, roots_of_unity

__all__ = [
    "Ideal",
    "PrimeIdeal",
    "ideal_from_generators",
    "principal_ideal",
    "primes_above",
    "ideals_of_norm",
    "minkowski_bound",
    "parse_ideal",
    "square_root_coords",
    "coords_valuation",
]

RESIDUE_ENUMERATION_BOUND = 1 << 20
FACTOR_CACHE_SIZE = 1 << 12  # distinct ideals whose factorization is kept


def _hnf_from_vectors(vecs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the Z-module spanned by integer vectors (x, y),
    meaning Z*(a, 0) + Z*(b, c), with a, c > 0 and 0 <= b < a."""
    vecs = [v for v in vecs if v != (0, 0)]
    if not vecs:
        raise ValueError("zero module")
    wx, wy = 0, 0
    for x, y in vecs:
        if y == 0:
            continue
        if wy == 0:
            wx, wy = x, y
        else:
            g, s, t = xgcd(wy, y)
            wx, wy = s * wx + t * x, g
    if wy == 0:
        raise ValueError("module has rank 1, not an ideal")
    if wy < 0:
        wx, wy = -wx, -wy
    a = 0
    for x, y in vecs:
        a = gcd(a, x - (y // wy) * wx)
    a = abs(a)
    if a == 0:
        raise ValueError("module has rank 1, not an ideal")
    return a, wx % a, wy


class Ideal:
    """Nonzero fractional ideal.  Immutable and interned: Ideal(field, hnf,
    den) normalizes the HNF triple (a, b, c), which is unique per ideal
    (Cohen, GTM 138, 5.2); over Q it is (n, 0, 1), (n,) is accepted as
    input, and n/den is reduced by gcd(n, den).  It returns the one live
    object of that value from _IDEALS, so equality is identity and every
    memo keyed on an ideal hashes and compares in C (object's own __eq__
    and __hash__).  Copy, deepcopy and a pickle round trip give the
    interned ideal.

    _factors, when given, is the ideal's factorization as (P, v) pairs in
    Ideal.factor's order, known to whoever built it (ideals_of_norm, the
    primes and their powers, _ideal_of_pairs);
    _factor confirms it on integers instead of finding it again.  Pairs
    handed to a live ideal that differ from those it carries are confirmed
    at once (_confirm_factors) and then kept, so a wrong hand-off raises
    however the ideal was built first, and the pairs it already carries
    cost one comparison."""

    __slots__ = ("field", "hnf", "den", "_factors", "__weakref__")

    def __new__(cls, field: QuadField, hnf: tuple[int, ...], den: int = 1, _checked=False, _factors=None):
        if den <= 0:
            raise ValueError("denominator must be positive")
        if field.degree == 1:
            n, *rest = hnf
            if n <= 0:
                raise ValueError("numerator must be positive")
            if rest and rest != [0, 1]:
                raise ValueError(f"not an HNF of Q: {hnf}")
            g = gcd(n, den)
            hnf = (n // g, 0, 1)
            den //= g
        else:
            a, b, c = hnf
            if a <= 0 or c <= 0 or not 0 <= b < a:
                raise ValueError(f"not a normalized HNF triple: {hnf}")
            g = gcd(a, b, c, den)
            if g != 1:
                hnf, den = (a // g, b // g, c // g), den // g
        key = field, hnf, den
        ref = _IDEALS.get(key)
        I = None if ref is None else ref()
        if I is None:
            if not _checked:
                a, b, c = hnf
                t, n = field.omega_trace, field.omega_norm
                # stability under multiplication by w:
                # w*a = (0, a), w*(b+cw) = (-n c, b + t c)
                if not (_in_hnf(a, b, c, 0, a) and _in_hnf(a, b, c, -n * c, b + t * c)):
                    raise ValueError("module is not stable under the ring of integers")
            I = _publish(key, _new_ideal(field, hnf, den, _factors))
        if _factors is not None and _factors != I._factors:
            _confirm_factors(I, _factors)
            object.__setattr__(I, "_factors", _factors)
        return I

    def __reduce__(self):
        return Ideal, (self.field, self.hnf, self.den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Ideal is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Ideal is immutable: cannot delete {name}")

    # -- basic structure ----------------------------------------------------

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return Fraction(self.hnf[0], self.den)
        a, _, c = self.hnf
        return Fraction(a * c, self.den * self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def norm_int(self) -> int:
        if not self.is_integral():
            raise ValueError("integral ideal required")
        return self.hnf[0] * self.hnf[2]

    def basis_elems(self) -> list[Elem]:
        K, den = self.field, self.den
        if K.degree == 1:
            return [Elem(K, self.hnf[0], 0, den)]
        a, b, c = self.hnf
        return [Elem(K, a, 0, den), Elem(K, b, c, den)]

    def __repr__(self):
        return f"Ideal({self})"

    def __str__(self):
        if self.field.degree == 1:
            return f"[{self.hnf[0]}]/{self.den}"
        a, b, c = self.hnf
        return f"[[{a},{b}],[0,{c}]]/{self.den}"

    def pretty(self) -> str:
        """Two-generator display "(a, b+c*w)", collapsing n*O to "(n)"."""
        K, den = self.field, self.den
        if K.degree == 1:
            return f"({Elem(K, self.hnf[0], 0, den)})"
        a, b, c = self.hnf
        g1 = Elem(K, a, 0, den)
        if b == 0 and c == a:
            return f"({g1})"
        return f"({g1}, {Elem(K, b, c, den)})"

    # -- membership and residues --------------------------------------------

    def contains(self, e: Elem) -> bool:
        # den * (X + Y*w)/m must have integer coordinates in the module
        x, rx = divmod(e.X * self.den, e.m)
        y, ry = divmod(e.Y * self.den, e.m)
        return not (rx or ry) and self._contains_coords(x, y)

    def _contains_coords(self, x: int, y: int) -> bool:
        # whether (x + y*w)/self.den lies in this ideal, for integers x, y
        a, b, c = self.hnf
        return _in_hnf(a, b, c, x, y)

    __contains__ = contains

    def reduce(self, e: Elem) -> Elem:
        """Canonical residue of an integral element modulo an integral ideal:
        coordinates land in the HNF box [0,a) x [0,c)."""
        if not self.is_integral():
            raise ValueError("integral ideal required")
        if not e.is_integral():
            raise ValueError("integral element required")
        return Elem(self.field, *self.reduce_coords(e.X, e.Y))

    def reduce_coords(self, x: int, y: int) -> tuple[int, int]:
        """reduce() on the integer coordinates of x + y*w, for an integral
        ideal: the HNF-box residue ((x - q*b) mod a, j) with y = q*c + j."""
        a, b, c = self.hnf
        q, j = divmod(y, c)
        return (x - q * b) % a, j

    def residue_coords(self) -> list[tuple[int, int]]:
        """The coordinates (i, j) of the N(a) residue representatives
        i + j*w of the HNF box, j outer and i inner; at most
        RESIDUE_ENUMERATION_BOUND of them."""
        if not self.is_integral():
            raise ValueError("integral ideal required")
        n = self.norm_int()
        if n > RESIDUE_ENUMERATION_BOUND:
            raise BoundExceeded(
                "residue enumeration", f"the ideal {self.pretty()}", n, RESIDUE_ENUMERATION_BOUND
            )
        a, _, c = self.hnf
        return [(i, j) for j in range(c) for i in range(a)]

    def residues(self) -> list[Elem]:
        """All N(a) residue representatives from the HNF box."""
        K = self.field
        return [K.elem(i, j) for i, j in self.residue_coords()]

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Ideal):
            if self.field is not other.field:
                raise ValueError("ideals of different fields")
            return _product(self, other)
        if isinstance(other, (int, Fraction)):
            # integer products on the HNF; a Fraction adds its denominator,
            # and the sign is dropped: (-s) * I = s * I
            if not other:
                raise ValueError("scale must be nonzero")
            hnf = _hnf_triple(self, abs(other.numerator))
            return Ideal(self.field, hnf, self.den * other.denominator, _checked=True)
        if isinstance(other, Elem):
            # a principal ideal built for this one product: not memoised
            J = principal_ideal(other)
            if self.field is not J.field:
                raise ValueError("ideals of different fields")
            return _hnf_product(self.field, self.hnf, self.den, J.hnf, J.den)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "Ideal":
        # conjugation maps the Z-basis {a, b + c w} to {a, (b + t c) - c w}
        a, b, c = self.hnf
        t = self.field.omega_trace
        return Ideal(
            self.field, _hnf_from_vectors([(a, 0), (b + t * c, -c)]), self.den, _checked=True
        )

    def inverse(self) -> "Ideal":
        """conj / N: for I = M/den, N(I) = a c / den^2.  Memoised by ideal
        value; the check I * I^-1 = (1) runs once per distinct ideal."""
        return _inverse(self)

    def __pow__(self, k: int) -> "Ideal":
        if k < 0:
            return self.inverse() ** (-k)
        # square-and-multiply with no product by (1) and no unused square
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return unit_ideal(self.field) if out is None else out

    def gcd(self, other: "Ideal") -> "Ideal":
        """gcd = sum of the two modules."""
        if self.field is not other.field:
            raise ValueError("ideals of different fields")
        if self.field.degree == 1:
            n1, d1 = self.hnf[0], self.den
            n2, d2 = other.hnf[0], other.den
            return Ideal(self.field, (gcd(n1 * d2, n2 * d1), 0, 1), d1 * d2, _checked=True)
        d1, d2 = self.den, other.den
        a1, b1, c1 = self.hnf
        a2, b2, c2 = other.hnf
        vecs = [
            (a1 * d2, 0),
            (b1 * d2, c1 * d2),
            (a2 * d1, 0),
            (b2 * d1, c2 * d1),
        ]
        return Ideal(self.field, _hnf_from_vectors(vecs), d1 * d2, _checked=True)

    def divide_exact(self, other: "Ideal") -> "Ideal":
        q = self * other.inverse()
        if not q.is_integral():
            raise ValueError(f"{other} does not divide {self}")
        return q

    def divides(self, other: "Ideal") -> bool:
        """self | other, decided as other within self: the basis elements
        of other lie in self.  No inverse and no ideal product; for two
        integral ideals, two _in_hnf tests."""
        K = self.field
        if K is not other.field:
            raise ValueError("ideals of different fields")
        d1, d2 = self.den, other.den
        x, y, z = other.hnf
        if d1 == d2 == 1:
            a, b, c = self.hnf
            return _in_hnf(a, b, c, x, 0) and _in_hnf(a, b, c, y, z)
        for u, v in ((x, 0), (y, z)):
            # (u + v*w)/d2 times d1 must be integral and in the module of self
            u, v = u * d1, v * d1
            if u % d2 or v % d2 or not self._contains_coords(u // d2, v // d2):
                return False
        return True

    def is_unit_ideal(self) -> bool:
        return self.hnf == (1, 0, 1) and self.den == 1

    # -- factorization --------------------------------------------------------

    def valuation(self, P: "PrimeIdeal") -> int:
        """v_P of this ideal, read off the HNF (Cohen, GTM 138, 4.7-4.8).

        Write the numerator module as c * I0 with I0 = (a/c, b/c, 1)
        primitive of norm N0 = a/c (c divides a and b in every ideal HNF).
        A primitive ideal has no inert prime factor, at most P^1 at a
        ramified P, and at most one of the two primes above a split p, so
        v_P(I0) is _primitive_valuation's, read off N0 and the element
        b/c + w of I0."""
        p = P.p
        a, b, c = self.hnf
        e = 2 if P.ramified else 1
        return e * (_vp(c, p) - _vp(self.den, p)) + _primitive_valuation(P, a // c, b // c, 1)

    def factor(self) -> list[tuple["PrimeIdeal", int]]:
        """Prime factorization; exponents may be negative for fractional
        ideals.  Memoised by ideal; every call returns a fresh list."""
        return list(_factor(self))

    def divisors(self) -> list["Ideal"]:
        """All integral divisors, sorted by (norm, hnf).  Memoised by
        ideal; every call returns a fresh list."""
        return list(_divisors(self))

    def moebius(self) -> int:
        """The Moebius function of an integral ideal: 0 if the square of a
        prime divides it, else (-1)^k for its k prime factors."""
        if self.den != 1:
            raise ValueError("integral ideal required")
        fac = _factor(self)
        for _, e in fac:
            if e > 1:
                return 0
        return (-1) ** len(fac)

    # -- principality ----------------------------------------------------------

    def principal_generator(self) -> Elem | None:
        """A generator if the ideal is principal, else None: over a
        quadratic field, the generator _principal_generator_integral picks
        for the numerator, over the denominator."""
        K = self.field
        if K.degree == 1:
            return Elem(K, self.hnf[0], 0, self.den)
        num = Ideal(K, self.hnf, 1, _checked=True)
        g = _principal_generator_integral(num)
        if g is None:
            return None
        return Elem(K, g.X, g.Y, self.den)


def square_root_coords(delta: Elem, M: Ideal, N: Ideal, L: Ideal | None = None):
    """The coordinates (x, y) of every candidate x + y*w with
    (x + y*w)^2 - delta in N, on integers.  The candidates are one element
    of L per coset of L/M for an integral L containing M, default (1):
    x = i*a' + j*b', y = j*c' over L's HNF (a', b', c'), j outer and i
    inner.  For L = (1) that is M's HNF box in the order of M.residues(),
    each x its own residue mod M.  The validated entry: it checks the
    integrality of delta, M, N and L and that L contains M, then runs the
    search kernel _root_coords on the HNF triples, which caps N(M)/N(L)
    like Ideal.residues."""
    if not (M.is_integral() and N.is_integral()):
        raise ValueError("integral ideal required")
    if not delta.is_integral():
        raise ValueError(f"integral delta required, got {delta}")
    triple_L = 1, 0, 1
    if L is not None:
        if not (L.is_integral() and L.divides(M)):
            raise ValueError(f"integral ideal required, containing {M}: got {L}")
        triple_L = L.hnf
    yield from _root_coords(delta.field, delta.X, delta.Y, M.hnf, N.hnf, triple_L)


def _root_coords(
    K: QuadField,
    X: int,
    Y: int,
    M: tuple[int, int, int],
    N: tuple[int, int, int],
    L: tuple[int, int, int] = (1, 0, 1),
):
    """The search of square_root_coords on integers alone: delta = X + Y*w
    integral, and M, N, L the HNF triples (hnf) of integral ideals
    with L containing M, which the caller vouches for.  A caller that holds
    an ideal a scales its triple by an integer (_hnf_triple(a, 2)), so the
    root count's (2a, 4a), the conductor witness's (2f, 4f^2) and the dyadic
    character symbol's (2P, 4P) build no Ideal.  N(M)/N(L) above
    RESIDUE_ENUMERATION_BOUND raises BoundExceeded naming M, whose text is
    formatted only then.  A row tests only the i that make the w-coordinate
    of (x + y*w)^2 - delta divisible by N's c, one class mod c/g or none,
    and yields in that order."""
    a, _, c = M
    aL, bL, cL = L
    size = a * c // (aL * cL)
    if size > RESIDUE_ENUMERATION_BOUND:
        ideal = Ideal(K, M, 1, _checked=True).pretty()
        raise BoundExceeded("residue enumeration", f"the ideal {ideal}", size, RESIDUE_ENUMERATION_BOUND)
    t, n = K.omega_trace, K.omega_norm  # 0 and 0 over Q, where y stays 0
    A, B, C = N
    rows = a // aL  # aL divides a, as a lies in L
    for j in range(c // cL):
        y = j * cL
        x0 = j * bL
        yy_x = -n * y * y - X
        # (x + y w)^2 - delta = u + v w with x = x0 + i aL: v = v0 + i k is
        # linear in i, so C | v confines i to one class mod C/g, g = gcd(k, C),
        # or to none; the search runs over that class only, in the same order
        v0 = 2 * x0 * y + t * y * y - Y
        k = 2 * y * aL
        g = gcd(k, C)
        if v0 % g:
            continue
        step = C // g
        i0 = -(v0 // g) * pow(k // g, -1, step) % step
        for i in range(i0, rows, step):
            x = x0 + i * aL
            # _in_hnf(A, B, C, u, v), inlined; C | v holds by the choice of i
            if (x * x + yy_x - ((v0 + i * k) // C) * B) % A == 0:
                yield x, y


def _hnf_triple(I: Ideal, scale: int = 1) -> tuple[int, int, int]:
    """The HNF (a, b, c) of the numerator module of scale*I, scale >= 1,
    by integer products: the package's one scaling rule.  Over Q the
    (0, 1) column stands for no element of the ideal, so only n scales:
    (n*scale, 0, 1).  For an integral I that is the HNF of the ideal
    I * scale, which is not built."""
    a, b, c = I.hnf
    k = 1 if I.field.degree == 1 else scale
    return a * scale, b * scale, c * k


def _in_hnf(a: int, b: int, c: int, x: int, y: int) -> bool:
    if y % c:
        return False
    return (x - (y // c) * b) % a == 0


def _vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _primitive_valuation(P: "PrimeIdeal", n0: int, x0: int, y0: int) -> int:
    """v_P of a primitive integral ideal I0 of norm +-n0 that contains
    x0 + y0*w, where x0 + y0*w lies in P iff I0 does whenever p | n0 (true
    of a generator of I0, and of b/c + w for I0 = (a/c, b/c, 1)).

    A primitive ideal has no inert prime factor, at most P^1 at a ramified
    P, and at most one of the two primes above a split p (Cohen, GTM 138,
    4.8).  So v_P(I0) is 1 at a ramified P with p | n0, v_p(n0) at a split
    P = (p, b_P, 1) with p | n0 and p | x0 - y0*b_P, and 0 otherwise."""
    p = P.p
    if P.residue_degree == 2 or n0 % p:
        return 0
    if P.ramified:
        return 1
    return _vp(n0, p) if (x0 - y0 * P.ideal.hnf[1]) % p == 0 else 0


def coords_valuation(P: "PrimeIdeal", x: int, y: int, den: int = 1) -> int:
    """v_P((x + y*w)/den) for integers x, y, not both 0, and den >= 1, on
    integers alone: no ideal is built.  The content g = gcd(x, y) gives
    e_P * v_p(g) and the denominator -e_P * v_p(den), where e_P is 2 at a
    ramified P and 1 otherwise; the primitive part (x0, y0) generates a
    primitive ideal of norm x0^2 + t*x0*y0 + n*y0^2, whose valuation is
    _primitive_valuation's, the rule Ideal.valuation applies to the HNF."""
    if not (x or y):
        raise ValueError("valuation of 0")
    p = P.p
    K = P.ideal.field
    g = gcd(x, y)
    x0, y0 = x // g, y // g
    n0 = x0 * x0 + K.omega_trace * x0 * y0 + K.omega_norm * y0 * y0
    e = 2 if P.ramified else 1
    return e * (_vp(g, p) - _vp(den, p)) + _primitive_valuation(P, n0, x0, y0)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _coords_factor(K: QuadField, x: int, y: int, m: int) -> tuple[tuple["PrimeIdeal", int], ...]:
    """The factorization of the principal ideal ((x + y*w)/m), for integers
    x, y, not both 0, and m >= 1, as (P, v_P) pairs with v_P != 0 in the
    order of Ideal.factor: the primes of N(x + y*w) and of m, each valued
    by coords_valuation.  Memoised per (K, x, y, m), so an element asked
    about again, for another delta of K say, is factored once."""
    norm = x if K.degree == 1 else x * x + K.omega_trace * x * y + K.omega_norm * y * y
    support = factorint(norm).keys()
    if m != 1:
        support = support | factorint(m).keys()
    out = []
    for p in sorted(support):
        for P in _primes_above(K, p):
            v = coords_valuation(P, x, y, m)
            if v:
                out.append((P, v))
    return tuple(out)


def _hnf_product(
    K: QuadField, hnf1: tuple[int, ...], den1: int, hnf2: tuple[int, ...], den2: int
) -> Ideal:
    """The product of the ideals hnf1/den1 and hnf2/den2 of K: the HNF of
    the four products of their Z-bases (Cohen, GTM 138, 5.2)."""
    if K.degree == 1:
        return Ideal(K, (hnf1[0] * hnf2[0], 0, 1), den1 * den2, _checked=True)
    t, n = K.omega_trace, K.omega_norm
    a1, b1, c1 = hnf1
    a2, b2, c2 = hnf2
    vecs = []
    for x1, y1 in ((a1, 0), (b1, c1)):
        for x2, y2 in ((a2, 0), (b2, c2)):
            vecs.append((x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2))
    return Ideal(K, _hnf_from_vectors(vecs), den1 * den2, _checked=True)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _product(I: Ideal, J: Ideal) -> Ideal:
    """I * J for two ideals of one field, memoised per (I, J)."""
    return _hnf_product(I.field, I.hnf, I.den, J.hnf, J.den)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _inverse(I: Ideal) -> Ideal:
    if I.field.degree == 1:
        inv = Ideal(I.field, (I.den, 0, 1), I.hnf[0], _checked=True)
    else:
        a, _, c = I.hnf
        J = I.conj()
        inv = Ideal(I.field, _hnf_triple(J, I.den**2), J.den * a * c, _checked=True)
    if not (I * inv).is_unit_ideal():
        raise AssertionError(f"{I} times its inverse {inv} is not (1)")
    return inv


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor(I: Ideal) -> tuple[tuple["PrimeIdeal", int], ...]:
    pairs = I._factors
    if pairs is None:
        return _factor_by_norm(I)
    _confirm_factors(I, pairs)
    return pairs


def _factor_by_norm(I: Ideal) -> tuple[tuple["PrimeIdeal", int], ...]:
    """The factorization of an ideal that was handed none, with no ideal
    multiplied.  An integral I is valued at the primes of its norm
    (_found_factors), and the pairs are confirmed on the prime powers by
    _confirm_factors.  A fractional I = J/den is the quotient of the
    memoised factorizations of its numerator module J and of (den), both
    integral.  The route that multiplied the prime powers back survives as
    the test oracle tests/helpers.py::factor_by_products."""
    K = I.field
    if I.den == 1:
        pairs = _found_factors(I)
        _confirm_factors(I, pairs, found=True)
        return pairs
    exps = dict(_factor(Ideal(K, I.hnf, 1, _checked=True)))
    for P, v in _factor(principal_ideal(K.elem(I.den))):
        exps[P] = exps.get(P, 0) - v
    order = lambda pv: (pv[0].p, _primes_above(K, pv[0].p).index(pv[0]))
    return tuple(sorted(((P, v) for P, v in exps.items() if v), key=order))


def _found_factors(I: Ideal) -> tuple[tuple["PrimeIdeal", int], ...]:
    # the pairs (P, v_P(I)), v != 0, of an integral I at the primes of its
    # norm, in the order of Ideal.factor
    out = []
    for p in sorted(factorint(I.norm_int())):
        for P in _primes_above(I.field, p):
            v = I.valuation(P)
            if v:
                out.append((P, v))
    return tuple(out)


def _confirm_factors(I: Ideal, pairs: tuple[tuple["PrimeIdeal", int], ...], found: bool = False) -> None:
    """Check on integers that the integral ideal I is the product of the
    prime powers P^v of pairs, listed in Ideal.factor's order: each P^v
    divides I and prod N(P)^v = N(I).  Then I / prod P^v is integral (the
    P^v are pairwise coprime) of norm 1, so I = prod P^v with no ideal
    multiplied.  Handed pairs are tested by v_P(I) = v, which implies P^v |
    I; pairs that those valuations found are tested independently of
    them, by P^v | I on the memoised PrimeIdeal.power (HNF membership,
    Ideal.divides).  The pairs must list distinct primes above
    primes_above's rational primes, in its order, with positive exponents;
    an AssertionError names I otherwise."""
    K = I.field
    ok = I.den == 1
    norm = 1
    last = (0, -1)
    for P, v in pairs:
        if not ok:
            break
        above = _primes_above(K, P.p)
        key = (P.p, above.index(P)) if P in above else None
        ok = key is not None and key > last and v > 0
        ok = ok and (P.power(v).divides(I) if found else I.valuation(P) == v)
        last = key
        norm *= P.norm() ** v
    if not (ok and norm == I.norm_int()):
        how = "found for" if found else "handed to"
        raise AssertionError(f"the factorization {how} {I} does not match it: {pairs}")


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _divisors(I: Ideal) -> tuple[Ideal, ...]:
    if not I.is_integral():
        raise ValueError("integral ideal required")
    divs = [unit_ideal(I.field)]
    for P, e in _factor(I):
        divs = [d * P.ideal**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs, key=lambda d: (d.norm_int(), d.hnf)))


# the slot writers of Ideal, which refuses assignment: each writes a slot
# through its descriptor, in C
_set_field, _set_hnf, _set_den, _set_factors = (
    Ideal.__dict__[name].__set__ for name in ("field", "hnf", "den", "_factors")
)


def _new_ideal(K: QuadField, hnf: tuple[int, ...], den: int, pairs) -> Ideal:
    # the one constructor of Ideal objects, for Ideal.__new__ alone
    I = object.__new__(Ideal)
    _set_field(I, K)
    _set_hnf(I, hnf)
    _set_den(I, den)
    _set_factors(I, pairs)
    return I


# the interned ideals, by (field, hnf, den): a weak reference to the one
# live ideal of each value, so the table holds no ideal alive.  An ideal is
# published by an atomic dict.setdefault; a dead entry is taken out by
# _remove_dead_weakref, which deletes an entry only while its reference is
# dead, either by the callback of its dying ideal or by the next
# publication of its value.  So no dead entry is returned or kept, and the
# table holds the live ideals only.
_IDEALS: dict[tuple, "_Ref"] = {}


class _Ref(weakref.ref):
    """A weak reference to an interned ideal that knows its key, built in C
    (weakref.KeyedRef's constructor runs in Python)."""

    __slots__ = ("key",)


def _drop(dead: _Ref, table=_IDEALS, remove=_remove_dead_weakref) -> None:
    # the callback of a dying ideal's reference, bound to the table and the
    # remover so that it still runs while the module is torn down
    remove(table, dead.key)


def _publish(key: tuple, I: Ideal) -> Ideal:
    """The live ideal of key: I unless another is published first."""
    ref = _Ref(I, _drop)
    ref.key = key
    while True:
        old = _IDEALS.setdefault(key, ref)
        if old is ref:
            return I
        live = old()
        if live is not None:
            return live
        _remove_dead_weakref(_IDEALS, key)


def unit_ideal(K: QuadField) -> Ideal:
    return Ideal(K, (1, 0, 1), 1, _checked=True, _factors=())


def ideal_from_generators(K: QuadField, gens) -> Ideal:
    """The fractional ideal generated by field elements (the O-module they
    span).  Idempotent: regenerating from any generating set of the same
    module gives the identical normalized representation."""
    elems = []
    for g in gens:
        if not isinstance(g, Elem):
            g = K.elem(g)
        if g:
            elems.append(g)
    if not elems:
        raise ValueError("no nonzero generators")
    den = lcm(*(g.m for g in elems))
    if K.degree == 1:
        return Ideal(K, (abs(gcd(*(g.X * (den // g.m) for g in elems))), 0, 1), den)
    # den*g = X + Y w with integers X, Y, and (X + Y w) w = -n Y + (X + t Y) w
    t, n = K.omega_trace, K.omega_norm
    vecs = []
    for g in elems:
        X, Y = g.X * (den // g.m), g.Y * (den // g.m)
        vecs.append((X, Y))
        vecs.append((-n * Y, X + t * Y))
    return Ideal(K, _hnf_from_vectors(vecs), den, _checked=True)


def principal_ideal(e: Elem) -> Ideal:
    """(e) for a nonzero e = (X + Y*w)/m, from one gcd and one inverse mod
    the norm (Cohen, GTM 138, 2.4.3 and 5.2).  N = |N(X + Y*w)| lies in
    (X + Y*w), so X and Y are first reduced mod N: a generator the size of
    a unit costs its norm, not its size.  With c = gcd(X, Y, N) and X + Y*w
    = c*(X0 + Y0*w), (X + Y*w) = c*(A, B + w) with A = N/c^2 and B = X0/Y0
    mod A (Y0 is a unit mod A, as gcd(X0, Y0) = 1); over m, as
    ideal_from_generators scales.  ideal_from_generators stays the general
    route; the HNF of the full vectors {e, e*w} survives as the test oracle
    tests/helpers.py::principal_ideal_by_vectors."""
    K, X, Y, m = e.field, e.X, e.Y, e.m
    if not (X or Y):
        raise ValueError("no nonzero generators")
    if K.degree == 1:
        return Ideal(K, (abs(X), 0, 1), m)
    N = abs(X * X + K.omega_trace * X * Y + K.omega_norm * Y * Y)
    X, Y = X % N, Y % N
    c = gcd(X, Y, N)
    A = N // (c * c)
    B = X // c * pow(Y // c, -1, A) % A if A > 1 else 0
    return Ideal(K, (c * A, c * B, c), m, _checked=True)


class PrimeIdeal:
    """A prime ideal above p.  Interned: _primes_above builds each prime
    once for the life of the process, so equality is identity (object's own
    __eq__ and __hash__, which run in C).  A PrimeIdeal(p, ideal,
    residue_degree, ramified) written out by hand, and copy, deepcopy or a
    pickle round trip of a prime, give the interned prime with those
    values, or ValueError if no prime above p has them."""

    __slots__ = ("p", "ideal", "residue_degree", "ramified")

    def __new__(cls, p: int, ideal: Ideal, residue_degree: int, ramified: bool):
        for P in _primes_above(ideal.field, p):
            if P.ideal == ideal and P.residue_degree == residue_degree and P.ramified == ramified:
                return P
        raise ValueError(
            f"no prime above {p} in {ideal.field} is {ideal} with residue degree {residue_degree}"
            f" and ramified {ramified}"
        )

    def __reduce__(self):
        return PrimeIdeal, (self.p, self.ideal, self.residue_degree, self.ramified)

    def __setattr__(self, name, value):
        raise AttributeError(f"PrimeIdeal is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"PrimeIdeal is immutable: cannot delete {name}")

    def __repr__(self):
        return (
            f"PrimeIdeal(p={self.p!r}, ideal={self.ideal!r}, "
            f"residue_degree={self.residue_degree!r}, ramified={self.ramified!r})"
        )

    def norm(self) -> int:
        return self.p**self.residue_degree

    def power(self, k: int) -> Ideal:
        """The ideal P^k, memoised by (P, k) like Ideal.inverse."""
        return _prime_power(self, k)

    def __str__(self):
        return self.ideal.pretty()


# the slot writers of PrimeIdeal, which refuses assignment
_set_p, _set_ideal, _set_residue_degree, _set_ramified = (
    PrimeIdeal.__dict__[name].__set__ for name in PrimeIdeal.__slots__
)


def _new_prime(p: int, ideal: Ideal, residue_degree: int, ramified: bool) -> PrimeIdeal:
    # the one constructor of PrimeIdeal objects, for _find_primes_above alone
    P = object.__new__(PrimeIdeal)
    _set_p(P, p)
    _set_ideal(P, ideal)
    _set_residue_degree(P, residue_degree)
    _set_ramified(P, ramified)
    return P


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _prime_power(P: PrimeIdeal, k: int) -> Ideal:
    """P^k on integers for k >= 2, handed its pair (P, k) (Cohen, GTM 138,
    4.8): (p^k) over Q, (p^k) at an inert P = (p), p^j * P^i with k = 2j + i
    at a ramified P, as P^2 = (p), and at a split P = (p, b + w) the
    primitive (p^k, B + w) with B the root of x^2 + t*x + n mod p^k lifted
    from b (_lift_root).  P^0 = (1), P^1 = P, and a negative power is the
    inverse's."""
    if k < 2:
        return P.ideal**k
    K, p = P.ideal.field, P.p
    if K.degree == 1:
        hnf = (p**k, 0, 1)
    elif P.residue_degree == 2:
        hnf = (p**k, 0, p**k)
    elif P.ramified:
        j, i = divmod(k, 2)
        s = p**j
        hnf = (s * p**i, s * P.ideal.hnf[1] * i, s)
    else:
        hnf = (p**k, _lift_root(K, P.ideal.hnf[1], p, p**k), 1)
    return Ideal(K, hnf, 1, _checked=True, _factors=((P, k),))


def _lift_root(K: QuadField, b: int, p: int, q: int) -> int:
    """The root B mod q = p^k of x^2 + t*x + n (the norm N(x + w)) with B = b
    mod p, by Newton's iteration from the root b mod p; at a split p the
    derivative 2x + t is a unit mod p, so each step doubles the precision."""
    t, n = K.omega_trace, K.omega_norm
    B, m = b, p
    while m < q:
        m = min(m * m, q)
        B = (B - (B * B + t * B + n) * pow(2 * B + t, -1, m)) % m
    return B


def primes_above(K: QuadField, p: int) -> list[PrimeIdeal]:
    """The prime ideals above the rational prime p, via the Kronecker
    symbol of the field discriminant plus explicit root-finding (both must
    agree).  Each prime is interned: one object per prime of K for the life
    of the process, so equality is identity.  Every call returns a fresh
    list."""
    return list(_primes_above(K, p))


# the interned primes, by (K, p): each tuple is published once, by an atomic
# dict.setdefault, and never cleared; _primes_above's lru_cache is only the
# fast path to it, so a thread that loses a race, or a call after
# cache_clear(), builds primes that are dropped and gets the published ones
_PRIMES: dict[tuple[QuadField, int], tuple[PrimeIdeal, ...]] = {}


@lru_cache(maxsize=None)
def _primes_above(K: QuadField, p: int) -> tuple[PrimeIdeal, ...]:
    ps = _PRIMES.setdefault((K, p), _find_primes_above(K, p))
    for P in ps:
        # each prime's ideal carries its pair (P, 1) from here on, handed
        # once the primes are published: a hand-off to a live ideal is
        # confirmed at once, which would ask for these primes
        if P.ideal._factors is None:
            _set_factors(P.ideal, ((P, 1),))
    return ps


def _find_primes_above(K: QuadField, p: int) -> tuple[PrimeIdeal, ...]:
    if not is_prime(p):
        raise ValueError(f"primes above {p} in {K}: {p} is not a prime")
    if K.degree == 1:
        return (_new_prime(p, Ideal(K, (p, 0, 1), 1, _checked=True), 1, False),)
    t, n = K.omega_trace, K.omega_norm
    sym = kronecker(K.disc, p)
    if sym == -1:
        return (_new_prime(p, Ideal(K, (p, 0, p), 1, _checked=True), 2, False),)
    # roots of x^2 - t x + n mod p
    if p == 2:
        roots = sorted({r % 2 for r in range(2) if (r * r - t * r + n) % 2 == 0})
    else:
        s = sqrt_mod_p(K.disc % p, p)
        inv2 = pow(2, -1, p)
        roots = [] if s is None else sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})
    # explicit raises, not asserts: every prime factorization rests on these
    if not roots:
        raise AssertionError(
            f"kronecker symbol {sym} and root finding disagree at p = {p} in {K}: no root"
        )
    if len(roots) != (2 if sym == 1 else 1):
        raise AssertionError(f"kronecker symbol {sym} at p = {p} in {K}, but {len(roots)} prime(s) above it")
    for r in roots:
        # (p, w - r) = Z p + Z (w - r) is an ideal iff N(w - r) = r^2 - t r + n = 0 mod p
        if (r * r - t * r + n) % p:
            raise AssertionError(f"{r} is not a root of x^2 - {t}x + {n} mod {p} in {K}")
    if sym == 0:
        # P = (p, w - r): P^2 = (p^2, p(w - r), (w - r)^2) lies in (p) iff p
        # divides both coordinates of (w - r)^2 = (r^2 - n) + (t - 2r) w, and
        # then it is (p), of the same norm p^2
        r = roots[0]
        if (r * r - n) % p or (t - 2 * r) % p:
            raise AssertionError(f"ramified p = {p} in {K}: ({p}, w - {r}) squared is not ({p})")
    return tuple(_new_prime(p, Ideal(K, (p, -r % p, 1), 1, _checked=True), 1, sym == 0) for r in roots)


def ideals_of_norm(K: QuadField, n: int) -> list[Ideal]:
    """All integral ideals of norm exactly n, sorted by HNF, each built on
    integers and handed its factorization (see _ideals_of_norm).  Memoised
    per (K, n) in an LRU cache of FACTOR_CACHE_SIZE entries; every call
    returns a fresh list."""
    if n < 1:
        raise ValueError("norm must be >= 1")
    return list(_ideals_of_norm(K, n))


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _ideals_of_norm(K: QuadField, n: int) -> tuple[Ideal, ...]:
    """Those of norm n/p^e (memoised) times the local factors of norm p^e,
    p the largest prime dividing n, on HNF integers (Cohen, GTM 138, 5.2).

    A rest ideal with HNF (a, b, c) is c*(A, B + w) with A = a/c, B = b/c,
    and a local factor is k*(q, r + w) (_local_factors).  A and q are
    coprime, so the product is c*k*(A*q, x + w) with x = B mod A and x = r
    mod q, by CRT (_crt_join); its factorization is the rest's pairs
    followed by the local ones, which is Ideal.factor's order.  No ideal is
    multiplied: the local factors read the prime powers PrimeIdeal.power,
    which are built on integers."""
    if n == 1:
        return (unit_ideal(K),)
    p, e = max(factorint(n).items())
    rest = _ideals_of_norm(K, n // p**e)
    ps = _primes_above(K, p)
    out = []
    for k, q, r, local in _local_factors(ps, e):
        for R in rest:
            a, b, c = R.hnf
            A = a // c
            s = c * k
            hnf = s * A * q, s * _crt_join(A, b // c, q, r), s
            out.append(Ideal(K, hnf, 1, _checked=True, _factors=R._factors + local))
    return tuple(sorted(out, key=lambda a: a.hnf))


def _crt_join(A: int, B: int, q: int, r: int) -> int:
    # x = B mod A and x = r mod q, for coprime A and q, in [0, A*q) when B
    # lies in [0, A): the B-entry of the primitive (A, B + w)(q, r + w)
    return B if q == 1 else B + A * ((r - B) * pow(A, -1, q) % q)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _local_factors(ps: tuple[PrimeIdeal, ...], e: int) -> tuple[tuple[int, int, int, tuple], ...]:
    """(k, q, r, pairs) for each integral ideal k*(q, r + w) of norm p^e, the
    primes above p being ps, with its factorization pairs (Cohen, GTM 138,
    4.8): P^i P'^j with i + j = e at a split p, p^(e/2) at an inert p, none
    if e is odd, and P^e at a ramified p; k, q and r by _local_part.
    Memoised per (ps, e), which recurs for every n whose largest prime
    power is p^e."""
    P = ps[0]
    if len(ps) == 2:
        P2 = ps[1]
        choices = [((P, i), (P2, e - i)) if 0 < i < e else ((P, i),) if i else ((P2, e),) for i in range(e + 1)]
    elif P.residue_degree == 2:
        choices = [((P, e // 2),)] if e % 2 == 0 else []
    else:
        choices = [((P, e),)]
    return tuple((*_local_part(pairs), pairs) for pairs in choices)


def _local_part(pairs: tuple) -> tuple[int, int, int]:
    """(k, q, r) with k*(q, r + w) the product of the one or two pairs (P,
    i) at one rational prime p of a quadratic field, read off the prime
    powers PrimeIdeal.power: P^i P'^j = p^min(i, j) * D^m at a split p, m =
    |i - j| and D the dominant prime, whose power is the primitive (p^m, r
    + w)."""
    (P, i), *other = pairs
    k = 1
    if other:
        ((P2, j),) = other
        k = P.p ** min(i, j)
        P, i = (P, i - j) if i > j else (P2, j - i)
    a, b, c = P.power(i).hnf
    return k * c, a // c, b // c


def _ideal_of_pairs(K: QuadField, pairs: tuple) -> Ideal:
    """The integral ideal prod P^v over pairs in Ideal.factor's order, v >
    0, on integers, handed those pairs: the local parts at each rational p
    (_local_part) joined by CRT, as _ideals_of_norm joins them; one pair
    is the memoised PrimeIdeal.power."""
    if len(pairs) == 1:
        ((P, v),) = pairs
        return P.power(v)
    s, A, B = 1, 1, 0
    for _, local in groupby(pairs, key=lambda pv: pv[0].p):
        k, q, r = _local_part(tuple(local))
        s, A, B = s * k, A * q, _crt_join(A, B, q, r)
    return Ideal(K, (s * A, s * B, s), 1, _checked=True, _factors=pairs)


def minkowski_bound(K: QuadField) -> int:
    """An integer upper bound for the Minkowski constant of K: every ideal
    class contains an integral ideal of norm <= this bound."""
    if K.degree == 1:
        return 1
    D = abs(K.disc)
    # sqrt(D) <= (isqrt(D*10^8)+1)/10^4, exact integer overestimate
    s_up = isqrt(D * 10**8) + 1
    if K.d > 0:
        return s_up // (2 * 10**4) + 1
    # (2/pi) sqrt(D), pi > 3.14159265
    return (2 * s_up * 10**8) // (314159265 * 10**4) + 1


# -- principal generator search ------------------------------------------------


def _norm_form(I: Ideal) -> tuple[int, int, int]:
    """f_J = (A, B, C) = (A, 2b' + t, N(b' + w)/A), of the discriminant of
    K, for I = c*J with HNF (a, b, c), J = (A, b' + w): N(p*A + q*(b' + w))
    = A f_J(p, q), so c*(p*A + q*(b' + w)) = (p*a + q*b) + q*c*w generates
    I iff f_J(p, q) = +-1."""
    K = I.field
    a, b, c = I.hnf
    t = K.omega_trace
    A, b1 = a // c, b // c
    return A, 2 * b1 + t, (b1 * b1 + t * b1 + K.omega_norm) // A


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _cf_generator(I: Ideal) -> tuple[int, int] | None:
    """Coordinates of a generator of the integral ideal I of a real field,
    or None.  J is principal iff f_J (_norm_form) is GL2(Z)-equivalent to
    the norm form of O; then by Serret's theorem the continued fraction of
    its root (-B + sqrt(disc))/2A ends in the period of w, which has a
    complete quotient with |Q| = 2: a convergent with |f_J(p, q)| = 1.
    Memoised per ideal, None included, so Ideal.principal_generator and
    the discriminant classes walk each ideal once."""
    K = I.field
    a, b, c = I.hnf
    A, B, C = _norm_form(I)
    for p, q in _cf_convergents(-B, 2 * A, K.disc, "continued fraction of a norm-form root", lambda: f"{I} in {K}"):
        if abs(A * p * p + B * p * q + C * q * q) == 1:
            return p * a + q * b, q * c
    return None


def _gauss_generator(I: Ideal) -> tuple[int, int] | None:
    """Coordinates of a generator of the integral ideal I of an imaginary
    field, or None, by Lagrange-Gauss reduction of the positive definite
    f_J (_norm_form; Cohen, GTM 138, 5.3-5.4): the basis (v1, v2) with
    f_J(x v1 + y v2) = A x^2 + B x y + C y^2 is reduced on integers until
    -A < B <= A <= C, so A = f_J(v1) is the least nonzero value of f_J."""
    a, b, c = I.hnf
    A, B, C = _norm_form(I)
    (p1, q1), (p2, q2) = (1, 0), (0, 1)
    while True:
        # v2 += k v1 with -A < B + 2Ak <= A
        k = (A - B) // (2 * A)
        p2, q2 = p2 + k * p1, q2 + k * q1
        B, C = B + 2 * A * k, (A * k + B) * k + C
        if C >= A:
            break
        (p1, q1), (p2, q2), A, C = (p2, q2), (p1, q1), C, A
    return (p1 * a + q1 * b, q1 * c) if A == 1 else None


def _principal_generator_integral(I: Ideal) -> Elem | None:
    """The generator of I fixed by I alone, or None: of _gauss_generator's
    g*zeta, zeta a root of unity, the least in (y, -x) for an imaginary K;
    for a real K, of the associates +-g*eps^k of _cf_generator's g with
    s1 > 0, the least (x, y) of the one or two in the window eps^-1 <=
    |s1/s2| <= eps (field._window_least by u = eps)."""
    K = I.field
    if K.is_imaginary_quadratic:
        g = _gauss_generator(I)
        if g is None:
            return None
        y, minus_x = min((y, -x) for x, y in (coords_mul(K, *g, z.X, z.Y) for z in roots_of_unity(K)))
        return Elem(K, -minus_x, y)
    g = _cf_generator(I)
    if g is None:
        return None
    x, y = g
    if coords_sign(K, x, y, 0) < 0:
        x, y = -x, -y
    return Elem(K, *_window_least(K, x, y, 1))


# -- parsing ---------------------------------------------------------------------

_HNF_RE = re.compile(
    r"^\s*\[\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*,\s*\[\s*0\s*,\s*(-?\d+)\s*\]\]\s*(?:/\s*(\d+))?\s*$"
)
_Q_RE = re.compile(r"^\s*\[\s*(\d+)\s*\]\s*(?:/\s*(\d+))?\s*$")


def parse_ideal(K: QuadField, text: str) -> Ideal:
    """Parse "[[a,b],[0,c]]/den", "[n]/den", or a generator list "(g1, g2)"
    in element syntax (also a bare element for a principal ideal)."""
    m = _HNF_RE.match(text)
    if m:
        if K.degree == 1:
            raise ValueError("2x2 HNF given for an ideal of Q")
        a, b, c, den = int(m[1]), int(m[2]), int(m[3]), int(m[4] or 1)
        return Ideal(K, (a, b, c), den)
    m = _Q_RE.match(text)
    if m:
        if K.degree != 1:
            raise ValueError("1x1 HNF given for a quadratic field ideal")
        return Ideal(K, (int(m[1]), 0, 1), int(m[2] or 1))
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    gens = [parse_elem(K, part) for part in inner.split(",") if part.strip()]
    if not gens:
        raise ValueError(f"cannot parse ideal {text!r}")
    return ideal_from_generators(K, gens)
