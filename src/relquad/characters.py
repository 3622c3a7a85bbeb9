"""The quadratic residue character attached to a discriminant.

For a discriminant delta and a prime P not dividing it, the symbol is +1
when delta is a square mod 4P and -1 otherwise.  Extended multiplicatively
to ideals coprime to delta it is a Hecke character mod (delta) whose
conductor is the relative discriminant (delta)/f^2; the primitive version
lives mod that conductor, and the extended coefficient function weights
square gcds with delta by their norm.

The primitive character follows the splitting law: at a prime P off the
conductor it is +1 or -1 as P splits or stays inert in K(sqrt delta), which
at a P dividing f is one local_square_solvable call on the unit part (local
square theorem).  The route through an auxiliary prime in the ideal class
is the test oracle tests/helpers.py::primitive_by_auxiliary_prime.

On elements the character works on integer coordinates and builds no
ideal.  An element is read as (x + y*w)/m with integers x, y and m >= 1;
ideals._coords_factor gives its factorization from the coordinates (Cohen,
GTM 138, 4.8), so coprimality to delta is that no prime of delta appears in
it, and the value is the product of at_prime(P) over its odd exponents,
times the signs that field.coords_sign decides on integers; _on_coords
reads at_prime's memo once per such P and calls at_prime only on a miss.
The factorization depends only on the element, not on delta, and is
memoised in the ideals layer per (field, x, y, m), so the small lifts that
recur for every delta of a field are factored once.  The kernel
_on_coords reads coprimality and the value off one lookup of that
memo, and values an element that meets delta as 0: on_element turns the
0 into a ValueError, and residue_table skips the residue's class, whose
lifts are congruent mod (delta) and so meet it as well.  Each lift is
valued from its own factorization, on the ideal side:
the Hecke check never goes through the reciprocity law.  residue_table
checks each class in one pass, valuing the residue and then each other
lift with _on_coords and comparing it with the residue's value, and keys
its table by the integer pair (x, y) of the residue, equal and hash-equal
to K.elem(x, y).key(); conductor_exhaustive reads its rows straight off
that table and groups residues with Ideal.reduce_coords, on integer pairs
too.  The route through principal_ideal, Ideal.gcd and Ideal.factor
survives as the test oracles tests/helpers.py::on_element_by_ideal and
conductor_by_ideals.

On ideals the character works on prime factorizations and builds no
ideal.  on_ideal reads the memoised tuple ideals._factor(a) in place, with
no copy, and extended and primitive are one kernel, _value, over its pairs
(P, v): at a prime of delta, e = min(v, v_P(delta)) is the exponent of
gcd(a, delta), the value is 0 unless e is even and e/2 <= v_P(f), and
N(P)^(e/2) is the norm weight; the exponent left over is valued by the
splitting law, _unit_part_value at a prime of delta (0 on the
conductor) and at_prime elsewhere.  primitive is the kernel with no weight.
counting.count_square_roots_formula runs the same kernel on exponent
vectors.  The route that builds g as an ideal product and divides a by g^2
survives as the test oracle tests/helpers.py::extended_by_ideals.

Everything else a character needs is a pure function of delta, and it
lives on the DiscriminantInfo of delta, the one object per discriminant
that conductor_ideal returns: the modulus (delta), v_P(delta) and v_P(f)
at the primes of delta, the sign type, and the memos of at_prime, of
_unit_part_value and of the local verdicts of
counting.count_square_roots_local, each by P.  So every QuadCharacter of
one delta shares them, built from delta or from its info, for as long as
conductor_ideal's memo or a caller keeps the info.
"""

from __future__ import annotations

from .arith import BoundExceeded, kronecker
from .discriminants import (
    DiscriminantInfo,
    _dyadic_ramification,
    conductor_ideal,
    local_square_solvable,
)
from .field import Elem, coords_sign
from .ideals import (
    Ideal,
    PrimeIdeal,
    _coords_factor,
    _divisors,
    _factor,
    _hnf_triple,
    _root_coords,
    ideals_of_norm,
)

__all__ = ["QuadCharacter"]

RESIDUE_TABLE_BOUND = 4096  # largest N(delta) whose residue table is built


class QuadCharacter:
    """All character data attached to one discriminant.

    The set-up and the memos live on the DiscriminantInfo of delta, the
    one object per discriminant that conductor_ideal returns, so every
    character of delta shares them, whether it is built from delta or from
    the info; the character keeps references to them for its kernels.  A
    delta that is not a discriminant raises conductor_ideal's ValueError.
    """

    def __init__(self, delta: Elem | DiscriminantInfo):
        info = delta if isinstance(delta, DiscriminantInfo) else conductor_ideal(delta)
        self.info, self.delta, self.field, self.conductor = info, info.delta, info.delta.field, info.rel_disc
        self.modulus, self.negative_embeddings = info.modulus, info.negative_embeddings
        # the primes P of delta map to v_P(delta), so coprimality to delta
        # is v_P = 0 at each; _f_exponents maps them to v_P(f)
        self._delta_primes, self._f_exponents = info.delta_primes, info.f_exponents
        self._prime_memo, self._unit_part_memo, self._local_memo = info._prime, info._unit_part, info._local

    # -- the symbol on primes and coprime ideals -----------------------------

    def at_prime(self, P: PrimeIdeal) -> int:
        """+1 if delta is a square mod 4P, else -1; P must not divide delta."""
        memo = self._prime_memo
        val = memo.get(P)
        if val is not None:
            return val
        if P in self._delta_primes:
            raise ValueError(f"{P} divides ({self.delta})")
        if P.p != 2:
            # Legendre symbol of an integer n = delta in O/P: at an inert P,
            # delta^((p^2-1)/2) = N(delta)^((p-1)/2) in O/P; at a degree-1 P
            # with HNF (p, b, 1), w = -b mod P, b = 0 over Q (Cohen, GTM 138,
            # 1.4 and 4.8)
            if P.residue_degree == 2:
                n = int(self.delta.norm())
            else:
                n = self.delta.X - self.delta.Y * P.ideal.hnf[1]
            val = kronecker(n, P.p)
        else:
            # exhaustive: x^2 = delta mod 4P with x over residues of 2P, on
            # P's HNF triple scaled by 2 and 4
            two_p, four_p = _hnf_triple(P.ideal, 2), _hnf_triple(P.ideal, 4)
            root = next(_root_coords(self.field, self.delta.X, self.delta.Y, two_p, four_p), None)
            val = 1 if root is not None else -1
        memo[P] = val
        return val

    def on_ideal(self, a: Ideal) -> int:
        """Multiplicative extension to fractional ideals coprime to delta."""
        if not self._coprime(a):
            raise ValueError(f"{a} is not coprime to ({self.delta})")
        val = 1
        for P, e in _factor(a):
            if e % 2:
                val *= self.at_prime(P)
        return val

    def on_element(self, a: Elem) -> int:
        """Character value on (a) times the signs of a at the embeddings
        where delta is negative; ValueError at 0 and off the coprime locus."""
        if not a:
            raise ValueError("the character is not defined at 0")
        val = self._on_coords(a.X, a.Y, a.m)
        if not val:
            raise ValueError(f"{a} is not coprime to ({self.delta})")
        return val

    def _on_coords(self, x: int, y: int, m: int = 1) -> int:
        """on_element at (x + y*w)/m, for integers x, y, not both 0, and
        m >= 1, on integers alone, or 0 if a prime of delta is in the
        element's factorization: coprimality and the value are read off
        one lookup of that factorization, in one pass that stops at the
        first prime of delta, so at_prime is never asked about one."""
        K = self.field
        delta_primes = self._delta_primes
        memo = self._prime_memo
        val = 1
        for P, v in _coords_factor(K, x, y, m):
            if P in delta_primes:
                return 0
            if v % 2:
                # at_prime's memo, read once; its values are +-1, never 0
                val *= memo.get(P) or self.at_prime(P)
        for i in self.negative_embeddings:
            val *= coords_sign(K, x, y, i)
        return val

    def _coprime(self, a: Ideal) -> bool:
        return not any(a.valuation(P) for P in self._delta_primes)

    # -- conductor by exhaustive residue verification -------------------------

    def conductor_exhaustive(self):
        """The smallest divisor D of (delta) such that the element character
        factors through residues mod D, computed from a full residue table.

        Building the table evaluates the character on several integral lifts
        of every coprime class mod (delta) and demands they agree, which is
        exactly the Hecke-character property.  Returns
        (conductor, table, witnesses) where witnesses maps each prime Q
        dividing the conductor to a pair (a, b), a = b mod conductor/Q,
        with different character values."""
        table = self.residue_table()
        rows = [(x, y, val) for (x, y), val in table.items()]
        factoring = [D for D in _divisors(self.modulus) if _witness(D, rows) is None]
        cond = min(factoring, key=lambda D: D.norm_int())
        # explicit raises, not asserts: character_suite reads AssertionError
        # as a failed case, and the verdict must survive python -O
        if not all(cond.divides(D) for D in factoring):
            raise AssertionError(f"{cond} does not divide every modulus the character factors through")
        witnesses = {}
        for Q, _ in cond.factor():
            found = _witness(cond.divide_exact(Q.ideal), rows)
            if found is None:
                raise AssertionError(f"character factors through conductor/{Q}")
            witnesses[Q] = tuple(self.field.elem(*r) for r in found)
        return cond, table, witnesses

    def residue_table(self) -> dict[tuple[int, int], int]:
        """Map residue (x, y) -> character value over coprime classes mod
        (delta), each value checked on several integral lifts.  The key is
        the integer pair of the residue x + y*w of the HNF box, equal and
        hash-equal to K.elem(x, y).key(); each class is checked in one
        pass, its lifts valued by _on_coords in turn and compared with the
        residue's value."""
        K = self.field
        m = self.modulus
        # integral lifts r + s for s in these steps of the lattice (delta):
        # +-e1 and, in a quadratic field, e2 and -e1-e2 for the HNF basis
        # e1 = a, e2 = b + c*w
        if K.degree == 1:
            steps = [(m.hnf[0], 0), (-m.hnf[0], 0)]
        else:
            a, b, c = m.hnf
            steps = [(a, 0), (-a, 0), (b, c), (-a - b, -c)]
        n = m.norm_int()
        if n > RESIDUE_TABLE_BOUND:
            raise BoundExceeded(
                "character residue table", f"delta = {self.delta}", n, RESIDUE_TABLE_BOUND
            )
        on_coords = self._on_coords
        table: dict[tuple[int, int], int] = {}
        for x, y in m.residue_coords():
            if not (x or y):
                continue
            val = on_coords(x, y)
            if not val:  # x + y*w is not coprime to (delta)
                continue
            # several genuinely different integral lifts of the residue's
            # class, including the balanced one and a negated-direction one;
            # all congruent to x + y*w mod (delta), so coprime to it as
            # well, and each valued and compared in turn
            if on_coords(*_balance(m, x, y)) != val or any(
                on_coords(x + dx, y + dy) != val for dx, dy in steps
            ):  # the Hecke property; explicit, see conductor_exhaustive
                raise AssertionError(f"character not well defined mod ({self.delta}) at {K.elem(x, y)}")
            table[x, y] = val
        return table

    # -- primitive and extended characters ------------------------------------

    def primitive(self, a: Ideal) -> int:
        """The primitive character mod the conductor (delta)/f^2 on an
        integral ideal, by the splitting law: 0 if a meets the conductor,
        else the product over P^e || a, e odd, of +1 or -1 as P splits or
        stays inert in K(sqrt delta); at P off delta that is at_prime(P)."""
        if not a.is_integral():
            raise ValueError("integral ideal required")
        return self._value(_factor(a), False)

    def extended(self, a: Ideal) -> int:
        """Norm-weighted extension: N(g) * primitive(a/g^2) when
        gcd(a, delta) = g^2 with g dividing f, else 0."""
        if not a.is_integral():
            raise ValueError("integral ideal required")
        return self._value(_factor(a), True)

    def _value(self, pairs, weighted: bool) -> int:
        """The kernel of extended (weighted) and primitive on the pairs
        (P, v), v >= 1, of an integral ideal a = prod P^v.  At a prime of
        delta, weighted, e = min(v, v_P(delta)) is v_P of gcd(a, delta):
        the value is 0 unless e is even and e/2 <= v_P(f), and N(P)^(e/2)
        is the factor of N(g).  What is left of v is the exponent of P in
        a/g^2, valued by the splitting law: _unit_part_value at a prime of
        delta, 0 on the conductor, and at_prime elsewhere, each at odd
        exponents only."""
        delta_primes = self._delta_primes
        val = 1
        for P, v in pairs:
            if P not in delta_primes:
                if v % 2:
                    val *= self.at_prime(P)
                continue
            l = delta_primes[P]
            if weighted:
                e = min(v, l)
                if e % 2 or e // 2 > self._f_exponents[P]:
                    return 0
                if e:
                    val *= P.norm() ** (e // 2)
                    v -= e
                    if not v:
                        continue
            chi_P = self._unit_part_value(P)
            if not chi_P:
                return 0
            if v % 2:
                val *= chi_P
        return val

    def _unit_part_value(self, P: PrimeIdeal) -> int:
        """primitive's value at a prime P of delta, memoised: 0 on the
        conductor, where v_P(delta) > 2 v_P(f); off it v_P(delta) is even,
        the unit part is a square mod 4 at P, and P splits iff it is one
        mod 4P (local square theorem, O'Meara 63:1; Hensel at an odd P):
        iff delta is a square mod P^(v_P(delta) + 2 v_P(2) + 1)."""
        memo = self._unit_part_memo
        if P in memo:
            return memo[P]
        l = self._delta_primes[P]
        if l > 2 * self._f_exponents[P]:
            val = 0
        else:
            target = l + 2 * _dyadic_ramification(P) + 1
            val = 1 if local_square_solvable(self.delta, P, target) else -1
        memo[P] = val
        return val

    def coefficients(self, norm_bound: int):
        """((ideal -> value) table, per-norm sums) for norms 1..bound;
        ValueError for a negative bound."""
        from .counting import _check_bound  # counting imports this module

        _check_bound(norm_bound)
        per_ideal: dict[Ideal, int] = {}
        sums = [0] * (norm_bound + 1)
        for n in range(1, norm_bound + 1):
            for a in ideals_of_norm(self.field, n):
                v = self.extended(a)
                per_ideal[a] = v
                sums[n] += v
        return per_ideal, sums


def _witness(D: Ideal, rows: list[tuple[int, int, int]]):
    """The first two residues (x, y), in row order, that agree modulo D but
    carry different values, or None when the values factor through D."""
    first: dict[tuple[int, int], tuple[int, int, int]] = {}
    for x, y, val in rows:
        r = first.setdefault(D.reduce_coords(x, y), (x, y, val))
        if r[2] != val:
            return r[:2], (x, y)
    return None


def _balance(m: Ideal, x: int, y: int) -> tuple[int, int]:
    """Shift the residue x + y*w toward zero to keep norms small."""
    a, b, c = m.hnf
    q, j = divmod(y, c)
    x -= q * b
    if 2 * j > c:
        j -= c
        x -= b
    x %= a
    if 2 * x > a:
        x -= a
    return x, j

