"""The quadratic residue character attached to a discriminant.

For a discriminant delta and a prime P not dividing it, the symbol is +1
when delta is a square mod 4P and -1 otherwise.  Extended multiplicatively
to ideals coprime to delta it is a Hecke character mod (delta) whose
conductor is the relative discriminant (delta)/f^2; the primitive version
lives mod that conductor, and the extended coefficient function weights
square gcds with delta by their norm.
"""

from __future__ import annotations

from .arith import kronecker
from .discriminants import DiscriminantInfo, conductor_ideal
from .field import Elem
from .ideals import (
    Ideal,
    PrimeIdeal,
    ideals_of_norm,
    primes_above,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)

__all__ = ["QuadCharacter"]

AUX_PRIME_NORM_BOUND = 10_000
RESIDUE_TABLE_BOUND = 4096  # largest N(delta) whose residue table is built


class QuadCharacter:
    """All character data attached to one discriminant.

    Instances memoize prime values in a plain dict; share an instance
    across threads only behind a lock, or give each thread its own.
    """

    def __init__(self, delta: Elem | DiscriminantInfo):
        info = delta if isinstance(delta, DiscriminantInfo) else conductor_ideal(delta)
        self.info = info
        self.delta = info.delta
        self.field = info.delta.field
        self.modulus = principal_ideal(info.delta)
        self.conductor = info.rel_disc
        # real embeddings where delta is negative (the sign type)
        self.negative_embeddings = tuple(
            i for i in self.field.real_embeddings if info.delta.sign_at(i) < 0
        )
        self._prime_memo: dict[PrimeIdeal, int] = {}
        self._primitive_memo: dict[Ideal, int] = {}

    # -- the symbol on primes and coprime ideals -----------------------------

    def at_prime(self, P: PrimeIdeal) -> int:
        """+1 if delta is a square mod 4P, else -1; P must not divide delta."""
        memo = self._prime_memo
        if P in memo:
            return memo[P]
        if self.modulus.valuation(P) != 0:
            raise ValueError(f"{P} divides ({self.delta})")
        if P.p != 2:
            # Legendre symbol of an integer n = delta in O/P: at an inert P,
            # delta^((p^2-1)/2) = N(delta)^((p-1)/2) in O/P; at a degree-1 P
            # with HNF (p, b, 1), w = -b mod P (Cohen, GTM 138, 1.4 and 4.8)
            if P.residue_degree == 2:
                n = int(self.delta.norm())
            elif self.field.degree == 1:
                n = int(self.delta.x)
            else:
                n = int(self.delta.x) - int(self.delta.y) * P.ideal.hnf[1]
            val = kronecker(n, P.p)
        else:
            # exhaustive: x^2 = delta mod 4P with x over residues of 2P
            root = next(square_root_coords(self.delta, P.ideal * 2, P.ideal * 4), None)
            val = 1 if root is not None else -1
        memo[P] = val
        return val

    def on_ideal(self, a: Ideal) -> int:
        """Multiplicative extension to fractional ideals coprime to delta."""
        if not _coprime_to(a, self.modulus):
            raise ValueError(f"{a} is not coprime to ({self.delta})")
        val = 1
        for P, e in a.factor():
            if e % 2:
                val *= self.at_prime(P)
        return val

    def on_element(self, a: Elem) -> int:
        """Character value on (a) times the signs of a at the embeddings
        where delta is negative."""
        val = self.on_ideal(principal_ideal(a))
        for i in self.negative_embeddings:
            val *= a.sign_at(i)
        return val

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
        factoring = []
        for D in self.modulus.divisors():
            groups: dict[tuple, set[int]] = {}
            for rkey, val in table.items():
                r = self.field.elem(*rkey)
                groups.setdefault(D.reduce(r).key(), set()).add(val)
            if all(len(v) == 1 for v in groups.values()):
                factoring.append(D)
        cond = min(factoring, key=lambda D: D.norm_int())
        # explicit raises, not asserts: character_suite reads AssertionError
        # as a failed case, and the verdict must survive python -O
        if not all(cond.divides(D) for D in factoring):
            raise AssertionError(f"{cond} does not divide every modulus the character factors through")
        witnesses = {}
        for Q, _ in cond.factor():
            D = cond.divide_exact(Q.ideal)
            groups: dict[tuple, dict[int, Elem]] = {}
            found = None
            for rkey, val in table.items():
                r = self.field.elem(*rkey)
                seen = groups.setdefault(D.reduce(r).key(), {})
                if val not in seen:
                    seen[val] = r
                if len(seen) == 2:
                    found = tuple(seen.values())
                    break
            if found is None:
                raise AssertionError(f"character factors through conductor/{Q}")
            witnesses[Q] = found
        return cond, table, witnesses

    def residue_table(self) -> dict[tuple, int]:
        """Map residue key -> character value over coprime classes mod
        (delta), each value checked on several integral lifts."""
        m = self.modulus
        e1, *rest = m.basis_elems()
        e2 = rest[0] if rest else None
        table: dict[tuple, int] = {}
        for r in m.residues(RESIDUE_TABLE_BOUND):
            if not r or not _coprime_to(principal_ideal(r), m):
                continue
            # several genuinely different integral lifts of the class,
            # including the balanced one and a negated-direction one
            lifts = [r, _balance(m, r), r + e1, r - e1]
            if e2 is not None:
                lifts += [r + e2, r - e1 - e2]
            vals = {self.on_element(x) for x in lifts}
            if len(vals) != 1:  # the Hecke property; explicit, see conductor_exhaustive
                raise AssertionError(f"character not well defined mod ({self.delta}) at {r}")
            table[r.key()] = vals.pop()
        return table

    # -- primitive character ----------------------------------------------------

    def primitive(self, a: Ideal) -> int:
        """The primitive character mod (delta)/f^2 on an integral ideal:
        0 off the conductor; the plain symbol on ideals coprime to delta;
        otherwise evaluated through an auxiliary prime in the ideal class
        of a and a coprime residue proxy."""
        if not a.is_integral():
            raise ValueError("integral ideal required")
        if a in self._primitive_memo:
            return self._primitive_memo[a]
        if not _coprime_to(a, self.conductor):
            val = 0
        elif _coprime_to(a, self.modulus):
            val = self.on_ideal(a)
        else:
            aux, alpha = next(self.auxiliary_splits(a))
            val = self.primitive_via(aux, alpha)
        self._primitive_memo[a] = val
        return val

    def primitive_via(self, aux: PrimeIdeal, alpha: Elem) -> int:
        """Primitive value of (alpha)*aux through the coprime proxy route."""
        b = self._coprime_proxy(alpha)
        val = self.at_prime(aux) * self.on_element(b)
        for i in self.negative_embeddings:
            val *= alpha.sign_at(i)
        return val

    def auxiliary_splits(self, a: Ideal):
        """Pairs (P, alpha) with P prime, P not dividing delta, and
        a = (alpha) * P; searched by increasing prime norm."""
        found = False
        for P in _prime_ideals_by_norm(self.field, AUX_PRIME_NORM_BOUND):
            if self.modulus.valuation(P) != 0:
                continue
            g = (a * P.ideal.inverse()).principal_generator()
            if g is not None:
                found = True
                yield P, g
        if not found:
            raise ArithmeticError(
                f"no auxiliary prime of norm <= {AUX_PRIME_NORM_BOUND} in the class of {a}"
            )

    def _coprime_proxy(self, alpha: Elem) -> Elem:
        """Integral b = alpha mod conductor (to full conductor precision at
        each of its primes) that is coprime to delta."""
        cond = self.conductor
        extra = unit_ideal(self.field)
        for P, _ in self.modulus.factor():
            if cond.valuation(P) == 0:
                extra = extra * P.ideal
        search = cond * extra
        cond_fac = cond.factor()
        for r in search.residues():
            cand = _balance(search, r)
            if not cand:
                continue
            if not _coprime_to(principal_ideal(cand), self.modulus):
                continue
            ok = True
            for Q, vq in cond_fac:
                diff = cand - alpha
                v = None if not diff else principal_ideal(diff).valuation(Q)
                if v is not None and v < vq:
                    ok = False
                    break
            if ok:
                return cand
        raise AssertionError("no coprime proxy found; conductor data inconsistent")

    # -- extended coefficient function ------------------------------------------

    def extended(self, a: Ideal) -> int:
        """Norm-weighted extension: N(g) * primitive(a/g^2) when
        gcd(a, delta) = g^2 with g dividing f, else 0."""
        if not a.is_integral():
            raise ValueError("integral ideal required")
        g0 = a.gcd(self.modulus)
        if g0.is_unit_ideal():
            return self.primitive(a)
        g = unit_ideal(self.field)
        for P, e in g0.factor():
            if e % 2:
                return 0
            g = g * P.ideal ** (e // 2)
        if not g.divides(self.info.f_delta):
            return 0
        return g.norm_int() * self.primitive(a.divide_exact(g * g))

    def coefficients(self, norm_bound: int):
        """((ideal -> value) table, per-norm sums) for norms 1..bound."""
        per_ideal: dict[Ideal, int] = {}
        sums = [0] * (norm_bound + 1)
        for n in range(1, norm_bound + 1):
            for a in ideals_of_norm(self.field, n):
                v = self.extended(a)
                per_ideal[a] = v
                sums[n] += v
        return per_ideal, sums


def _coprime_to(a: Ideal, b: Ideal) -> bool:
    return a.gcd(b).is_unit_ideal()


def _balance(m: Ideal, r: Elem) -> Elem:
    """Shift a residue representative toward zero to keep norms small."""
    if m.field.degree == 1:
        n = m.norm_int()
        x = int(r.x) % n
        if 2 * x > n:
            x -= n
        return m.field.elem(x)
    a, b, c = m.hnf
    x, y = int(r.x), int(r.y)
    q, j = divmod(y, c)
    x -= q * b
    if 2 * j > c:
        j -= c
        x -= b
    x %= a
    if 2 * x > a:
        x -= a
    return m.field.elem(x, j)


def _prime_ideals_by_norm(K, bound: int):
    """Prime ideals of K by increasing norm: norm p for split/ramified
    primes, norm p^2 for inert ones."""
    from .arith import is_prime, primes_upto

    for n in range(2, bound + 1):
        if is_prime(n):
            for P in primes_above(K, n):
                if P.norm() == n:
                    yield P
        else:
            r = _exact_prime_sqrt(n)
            if r is not None:
                for P in primes_above(K, r):
                    if P.norm() == n:
                        yield P


def _exact_prime_sqrt(n: int) -> int | None:
    from math import isqrt

    from .arith import is_prime

    r = isqrt(n)
    return r if r * r == n and is_prime(r) else None
