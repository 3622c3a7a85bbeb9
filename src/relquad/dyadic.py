"""Dyadic local fields of degree at most 2 over the 2-adics: higher unit
groups, square detection with certificates, the Hilbert symbol, and the
duality of the even-level unit filtration under the Hilbert pairing.

The eight fields are Q2 itself, its unramified quadratic extension
(basis {1, w}, w^2 = w + 1, i.e. Q2(sqrt 5)), and the six ramified
quadratic extensions Q2(sqrt c) for c in {-1, -5, 2, -2, 10, -10}.
An element is a + b t over the field's generator t, and one rule
t^2 = T t + C serves all three kinds: (T, C) = (0, 0) for Q2, whose b
coordinate stays 0, (1, 1) for the unramified field (t = w) and (0, c) for
Q2(sqrt c).  Product, conjugate (a + T b) - b t, norm a^2 + T a b - C b^2
(a^2 over Q2), valuation, unit inverse and residue are each written once
from (T, C), as the paper's appendix treats every dyadic field of degree
at most 2 at once.  Elements are truncated: coordinates live modulo
2^precision, which pins the element modulo pi^(e * precision); every
decision used here stabilizes far below that depth, and the test protocol
re-runs everything at precision + 4 demanding identical answers.

Square classes rest on the local square theorem (O'Meara, Introduction to
Quadratic Forms, 63:1; the paper's appendix on U_k): every unit of
U_(2e+1) = 1 + 4 pi O is a square.  So the square class of a unit depends
only on its residue modulo pi^(2e+1), and a field's square-class space
classifies the (q - 1) q^(2e) classes of O*/U_(2e+1) once, when it is first
built, from explicit squares with no square test (see SquareClassSpace).
decompose() then takes the unit part x / pi^v as x f_v / 2^s, with one
stored factor f_v = 2^s / pi^v per valuation, and reads that table.  Square
certificates (sqrt_certificate, on its pair kernel _sqrt_coords) stay the
independent square test: the trace criterion of the duality report runs on
them, and the tests check the table against them.

Every internal computation runs on integer coordinate pairs (a, b) modulo
W, with no object per step: _mul is the product by the t^2 rule, _valuation
takes v2 of the norm from its lowest set bit, and _unit_inverse, _div_pi and
_div_int divide.  The digit samples, their squares, the square-class
space's set-up, the certificates and the level classes are pairs and
tuples of pairs.  SquareClassSpace._classify_pairs is decompose on a batch
of pairs, the package's one body of the classify logic: the valuation, the
product by f_v, the shift, the lattice key and the table read.  decompose
sends it one pair, hilbert_symbol its two arguments, the norm-group search
its u = 0 pass as one batch and every later value alone, and the level
classes and the duality report whole batches.  LocalElem, an immutable
record over one pair, is the public boundary only: the field's elem, zero,
one and pi, the arguments of is_square, sqrt_certificate, decompose and
hilbert_symbol, the certificate sqrt_certificate returns, and the
completions of verify.completion_at.  A field builds three LocalElems, its
constants; its first duality report builds no more.

The duality report checks the appendix by GF(2) linear algebra on bitmask
rows, one per class (bit j of row i set iff the symbol is -1).  Linearity
classifies each unordered product of two representatives once, as the
product is symmetric; bilinearity is n identities, not n^2 (_rows_linear);
the duality V_k^perp = V_(e-k) is inclusion plus dimension
(_complement_is_span), with no enumeration of the 2^dim classes; over Q2
the closed form runs on the representatives split once on integers.

A field's tables never change, so local_field() and all_local_fields()
intern one LocalField per (kind, c, precision), and every caller shares its
square-class space, Hilbert-symbol rows and digit samples (see LocalField).
hilbert_symbol reads the symbol off the row of the first class: the classes
outside its norm group, searched once per class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from ._record import Record, slot_setters
from .ideals import _hnf_from_vectors

__all__ = [
    "LocalField",
    "LocalElem",
    "local_field",
    "hilbert_symbol",
    "hilbert_symbol_q2_formula",
    "duality_report",
]

RAMIFIED_CLASSES = (-1, -5, 2, -2, 10, -10)


class LocalField:
    """One of the eight dyadic fields, at a fixed working precision
    (pi-adic digits; coordinates are carried modulo 2^precision).

    The descriptor is immutable and element operations are pure.  The
    instance caches, on first use, its square-class space (basis and unit
    table, see SquareClassSpace), the symbol rows that hilbert_symbol reads
    (as ints), the digit samples of _sample_integral and their squares (as
    tuples of coordinate pairs) and the unit classes of _level_classes (as
    tuples); no code mutates any of them once built.
    The elements one, zero and pi are built with the instance.  Each cache
    is a function of the descriptor and the precision alone, so a lazy
    build that two threads race to fill computes the same value whichever
    write lands: instances may be shared between threads.
    The generator t of the basis {1, t} satisfies t^2 = T t + C, with
    (T, C) = (0, 0) for Q2, (1, 1) for the unramified field and (0, c) for
    Q2(sqrt c); LocalElem's arithmetic reads only these two constants.
    local_field() and all_local_fields() intern instances, one per (kind, c,
    precision), so those caches are built once per process, and they are
    the package's only way to a field.  Calling LocalField directly gives a
    private instance with caches of its own; that is for tests."""

    def __init__(self, kind: str, c: int | None = None, precision: int | None = None):
        if kind == "q2":
            self.e, self.f, self.c, self.T, self.C = 1, 1, None, 0, 0
        elif kind == "unram":  # w^2 = w + 1
            self.e, self.f, self.c, self.T, self.C = 1, 2, None, 1, 1
        elif kind == "ram":
            if c not in RAMIFIED_CLASSES:
                raise ValueError(f"ramified class must be one of {RAMIFIED_CLASSES}")
            self.e, self.f, self.c, self.T, self.C = 2, 1, c, 0, c
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.precision = precision if precision is not None else _default_precision(self.e)
        if self.precision < 2 * self.e + 6:
            raise ValueError("precision too small for stable square decisions")
        self.W = 1 << (self.precision + 6)  # coordinate modulus 2^(prec+6)
        self.vcap = self.e * (self.precision + 2)  # deepest valuation reported
        self.dim = self.e * self.f + 2  # dim of K^x / (K^x)^2 over F2
        # the q = 2^f residue field digits: F2, or F4 as bit pairs p + q*g
        self.digits = ((0, 0), (1, 0), (0, 1), (1, 1))[: 1 << self.f]
        self.zero, self.one = LocalElem(self, 0, 0), LocalElem(self, 1, 0)
        if self.e == 1:
            self.pi = LocalElem(self, 2, 0)
        else:  # sqrt c for even c, 1 + sqrt c for odd c
            self.pi = LocalElem(self, self.c % 2, 1)
        # the caches of the class docstring, by class, depth, depth and level
        self._symbol_memo, self._sample_memo, self._square_memo, self._level_memo = {}, {}, {}, {}
        self._space = None

    def __repr__(self):
        tag = {"q2": "Q2", "unram": "Q2(w)", "ram": f"Q2(sqrt{{{self.c}}})"}[self.kind]
        return f"{tag}@{self.precision}"

    def __reduce__(self):
        # copy, deepcopy and pickle give the interned field of the same
        # kind, class and precision, as LocalElem's __reduce__ does
        return _interned, (self.kind, self.c, self.precision)

    # -- element construction -------------------------------------------------

    def elem(self, a: int, b: int = 0) -> "LocalElem":
        if self.f == 1 and self.kind == "q2" and b:
            raise ValueError("Q2 elements have a single coordinate")
        return LocalElem(self, a % self.W, b % self.W)

    __call__ = elem

    # -- residue field ---------------------------------------------------------

    def res_mul(self, r, s):
        p1, q1 = r
        p2, q2 = s
        return ((p1 & p2) ^ (q1 & q2), (p1 & q2) ^ (q1 & p2) ^ (q1 & q2))

    def res_trace(self, r) -> int:
        """Trace to F2: identity on F2; q for p + q*g in F4."""
        return r[1] if self.f == 2 else r[0]

    def res_sqrt(self, r):
        """Inverse of Frobenius; on F4 squaring is its own inverse."""
        return self.res_mul(r, r) if self.f == 2 else r

    def artin_schreier_solve(self, r):
        """y with y^2 + y = r in the residue field; None iff trace(r) = 1."""
        if self.res_trace(r):
            return None
        for y in self.digits:
            y2 = self.res_mul(y, y)
            if ((y2[0] ^ y[0]), (y2[1] ^ y[1])) == r:
                return y
        raise AssertionError("trace-zero element without Artin-Schreier solution")

    # -- square classes --------------------------------------------------------

    def space(self) -> "SquareClassSpace":
        if self._space is None:
            self._space = SquareClassSpace(self)
        return self._space

    def samples(self, depth: int) -> tuple[tuple[int, int], ...]:
        """The pairs of _sample_integral(self, depth), built once per depth."""
        out = self._sample_memo.get(depth)
        if out is None:
            out = self._sample_memo[depth] = tuple(_sample_integral(self, depth))
        return out

    def sample_squares(self, depth: int) -> tuple[tuple[int, int], ...]:
        """The pairs of the squares of samples(depth), in its order, built
        once per depth."""
        out = self._square_memo.get(depth)
        if out is None:
            out = self._square_memo[depth] = tuple(
                _mul(self, a, b, a, b) for a, b in self.samples(depth)
            )
        return out


def _mul(F: LocalField, a1: int, b1: int, a2: int, b2: int) -> tuple[int, int]:
    """The pair of (a1 + b1 t)(a2 + b2 t) modulo W, by t^2 = T t + C.  The
    formula is symmetric in its two arguments."""
    bb = b1 * b2
    W = F.W
    return (a1 * a2 + F.C * bb) % W, (a1 * b2 + b1 * a2 + F.T * bb) % W


def _valuation(F: LocalField, a: int, b: int) -> int | None:
    """pi-adic valuation e v2(N) / 2 of a + b t, with N = a^2 + T a b - C b^2
    the exact norm of the pair; None for a zero norm and beyond F.vcap, where
    the element is indistinguishable from 0 here."""
    n = a * a + F.T * a * b - F.C * b * b
    if n == 0:
        return None
    v2 = (n & -n).bit_length() - 1
    if F.e * v2 % 2:  # for e = 1 the norm of 2^v * unit is 4^v * odd
        raise AssertionError(f"norm with odd 2-adic valuation {v2} in {F}")
    v = F.e * v2 // 2
    return None if v > F.vcap else v


def _unit_inverse(F: LocalField, a: int, b: int) -> tuple[int, int]:
    """The pair of 1 / (a + b t), its conjugate over its odd norm."""
    n = a * a + F.T * a * b - F.C * b * b
    if n % 2 == 0:
        raise ValueError("not a unit")
    W = F.W
    inv_n = pow(n, -1, W)
    return (a + F.T * b) % W * inv_n % W, -b % W * inv_n % W


def _div_pi(F: LocalField, a: int, b: int) -> tuple[int, int]:
    """The pair of (a + b t) / pi; ValueError unless pi divides it."""
    W = F.W
    if F.e == 1:  # pi = 2
        if a % 2 or b % 2:
            raise ValueError(f"the pair {(a, b)} of {F} is not divisible by pi")
        return (a // 2) % W, (b // 2) % W
    if F.c % 2 == 0:  # pi = sqrt c; x / pi = b + (a / c) sqrt c
        if a % 2:
            raise ValueError(f"the pair {(a, b)} of {F} is not divisible by pi")
        return b, (a // 2) * pow(F.c // 2, -1, W) % W
    # pi = 1 + sqrt c: x / pi = x conj(pi) / (1 - c), v2(1 - c) = 1
    ya, yb = _mul(F, a, b, 1, -1 % W)
    if ya % 2 or yb % 2:
        raise ValueError(f"the pair {(a, b)} of {F} is not divisible by pi")
    inv = pow((1 - F.c) // 2, -1, W)
    return (ya // 2) * inv % W, (yb // 2) * inv % W


def _shift_coords(F: LocalField, a: int, b: int, v: int) -> tuple[int, int]:
    """The pair of (a + b t) / pi^v, by v exact divisions."""
    for _ in range(v):
        a, b = _div_pi(F, a, b)
    return a, b


def _div_int(F: LocalField, a: int, b: int, k: int) -> tuple[int, int]:
    """The pair of (a + b t) / k; ValueError unless k divides both."""
    if a % k or b % k:
        raise ValueError(f"the pair {(a, b)} of {F} is not divisible by {k}")
    return (a // k) % F.W, (b // k) % F.W


def _pi_power(F: LocalField, k: int) -> tuple[int, int]:
    """The pair of pi^k for k >= 0."""
    pa, pb = F.pi.a, F.pi.b
    a, b = 1, 0
    for _ in range(k):
        a, b = _mul(F, a, b, pa, pb)
    return a, b


def _residue(F: LocalField, a: int, b: int) -> tuple[int, int]:
    """Image of a + b t in the residue field: a bit for F2, a bit pair
    p + q*g for F4."""
    if F.f == 2:
        return (a & 1, b & 1)
    # f = 1 makes T = 0, and on F2 t = t^2 = C
    return ((a + F.C * b) & 1, 0)


def _res_lift(F: LocalField, r) -> tuple[int, int]:
    """The pair of the digit that lifts the residue r: p + q t for p + q*g in
    F4, p for p in F2."""
    return (r[0], r[1]) if F.f == 2 else (r[0], 0)


def _agree(F: LocalField, a1: int, b1: int, a2: int, b2: int) -> bool:
    """The two pairs are indistinguishable modulo pi^(e * precision)."""
    W = F.W
    da, db = (a1 - a2) % W, (b1 - b2) % W
    if not (da or db):
        return True
    v = _valuation(F, da, db)
    return v is None or v >= F.e * F.precision


class LocalElem(Record):
    """a + b t over the generator t of the field, as the coordinates modulo
    W; the public wrapper over the pair kernels.  An immutable record
    (relquad._record), equal and hashed by its field and pair; copy,
    deepcopy and pickle rebuild it over the interned field of the same
    kind, class and precision."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: LocalField, a: int, b: int = 0):
        _set_field(self, field)
        _set_a(self, a)
        _set_b(self, b)

    def __reduce__(self):
        F = self.field
        return _local_elem, (F.kind, F.c, F.precision, self.a, self.b)

    def __mul__(self, other: "LocalElem") -> "LocalElem":
        F = self.field
        return LocalElem(F, *_mul(F, self.a, self.b, other.a, other.b))

    def __add__(self, other):
        F = self.field
        return LocalElem(F, (self.a + other.a) % F.W, (self.b + other.b) % F.W)

    def __sub__(self, other):
        F = self.field
        return LocalElem(F, (self.a - other.a) % F.W, (self.b - other.b) % F.W)

    def __neg__(self):
        F = self.field
        return LocalElem(F, -self.a % F.W, -self.b % F.W)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def valuation(self) -> int | None:
        """pi-adic valuation e v2(N(x)) / 2; None means indistinguishable
        from 0 here."""
        return _valuation(self.field, self.a, self.b)

    def unit_inverse(self) -> "LocalElem":
        F = self.field
        return LocalElem(F, *_unit_inverse(F, self.a, self.b))

    def __pow__(self, k: int) -> "LocalElem":
        out = self.field.one
        base = self
        if k < 0:
            if base.valuation() != 0:
                raise ValueError(f"negative power {k} of the non-unit {self}")
            base = base.unit_inverse()
            k = -k
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


_set_field, _set_a, _set_b = slot_setters(LocalElem)


def _local_elem(kind: str, c: int | None, precision: int, a: int, b: int) -> LocalElem:
    # the inverse of LocalElem.__reduce__
    return LocalElem(_intern_field(kind, c, precision), a, b)


def local_field(descriptor: str, precision: int | None = None) -> LocalField:
    """The interned field of "q2", "unram", or "ram:c"; precision None means
    the field's default, and names the same instance as that default."""
    if descriptor in ("q2", "unram"):
        return _interned(descriptor, None, precision)
    if descriptor.startswith("ram:"):
        return _interned("ram", int(descriptor[4:]), precision)
    raise ValueError(f"unknown local field {descriptor!r}")


def all_local_fields(precision: int | None = None) -> list[LocalField]:
    """The eight interned fields, Q2 first, then the unramified one, then
    the ramified ones in RAMIFIED_CLASSES order."""
    return [
        _interned("q2", None, precision),
        _interned("unram", None, precision),
        *(_interned("ram", c, precision) for c in RAMIFIED_CLASSES),
    ]


def _default_precision(e: int) -> int:
    return 4 * e + 6


def _interned(kind: str, c: int | None, precision: int | None) -> LocalField:
    if precision is None:
        precision = _default_precision(2 if kind == "ram" else 1)
    return _intern_field(kind, c, precision)


_intern_field = lru_cache(maxsize=None)(LocalField)


# -- square detection --------------------------------------------------------


def sqrt_certificate(x: LocalElem) -> LocalElem | None:
    """y with y^2 = x at working precision, or None if x is not a square.

    Iterative reduction: strip pi^2, take residue square roots at even
    levels below 2e, apply the trace criterion at level 2e, and finish
    with Newton above 2e (the local square theorem's range).  The work runs
    on pairs, in _sqrt_coords."""
    F = x.field
    root = _sqrt_coords(F, x.a, x.b)
    return None if root is None else LocalElem(F, *root)


def _sqrt_coords(F: LocalField, a: int, b: int) -> tuple[int, int] | None:
    """sqrt_certificate on the pair (a, b): the pair of the certificate, or
    None if a + b t is not a square.  It reads no square-class table.  Every
    step, the Newton step included, is a pair kernel; sqrt_certificate
    wraps the result."""
    v = _valuation(F, a, b)
    if v is None:
        raise ValueError("cannot decide squareness of 0 at this precision")
    if v % 2:
        return None
    W, two_e = F.W, 2 * F.e
    ua, ub = _shift_coords(F, a, b, v)
    wa, wb = 1, 0
    for _ in range(4 * F.e + 8):
        la, lb = (ua - 1) % W, ub % W  # u - 1
        lvl = _valuation(F, la, lb)
        if lvl is None or lvl >= two_e + 1:
            break
        if lvl % 2 and lvl < two_e:
            return None
        if lvl == two_e:
            # u = 1 + 4 t: square iff the residue trace of t vanishes
            y = F.artin_schreier_solve(_residue(F, *_div_int(F, la, lb, 4)))
            if y is None:
                return None
            ya, yb = _res_lift(F, y)
            fa, fb = 1 + 2 * ya, 2 * yb  # 1 + 2 lift(y)
        else:
            # even level below 2e: divide by (1 + pi^(lvl/2) t)^2
            t = F.res_sqrt(_residue(F, *_shift_coords(F, la, lb, lvl)))
            fa, fb = _mul(F, *_res_lift(F, t), *_pi_power(F, lvl // 2))
            fa = (fa + 1) % W
        wa, wb = _mul(F, wa, wb, fa, fb)
        ua, ub = _mul(F, ua, ub, *_unit_inverse(F, *_mul(F, fa, fb, fa, fb)))
    else:
        raise AssertionError("square reduction did not terminate")
    ca, cb = _mul(F, *_mul(F, *_pi_power(F, v // 2), wa, wb), *_newton_unit_sqrt(F, ua, ub))
    if not _agree(F, *_mul(F, ca, cb, ca, cb), a, b):
        raise AssertionError("certificate fails at precision")
    return ca, cb


def _newton_unit_sqrt(F: LocalField, ua: int, ub: int) -> tuple[int, int]:
    """The pair of the square root of ua + ub t in U_(2e+1), by
    z -> (z + u/z)/2."""
    W = F.W
    lvl = _valuation(F, (ua - 1) % W, ub)
    if lvl is not None and lvl < 2 * F.e + 1:
        raise AssertionError(f"Newton square root needs U_{2 * F.e + 1}, got U_{lvl}")
    za, zb = 1, 0
    for _ in range(F.precision * F.e + 8):
        qa, qb = _mul(F, ua, ub, *_unit_inverse(F, za, zb))
        na, nb = _div_int(F, (za + qa) % W, (zb + qb) % W, 2)
        if na == za and nb == zb:
            break
        za, zb = na, nb
    return za, zb


def square_mod_level(u: LocalElem, target: int) -> bool:
    """Solvability of x^2 = u mod pi^target, by residue search over
    pi^(ceil(target/2) + e); the guard digits make the search modulus
    sufficient for every valuation profile of u."""
    if target <= 0:
        return True
    F = u.field
    W = F.W
    for xa, xb in F.samples((target + 1) // 2 + F.e):
        sa, sb = _mul(F, xa, xb, xa, xb)
        v = _valuation(F, (sa - u.a) % W, (sb - u.b) % W)  # None for 0 too
        if v is None or v >= target:
            return True
    return False


def is_square(x: LocalElem) -> bool:
    return sqrt_certificate(x) is not None


# -- square class space and the Hilbert symbol ---------------------------------


class SquareClassSpace:
    """Basis of K^x/(K^x)^2 over F2: pi first, then e*f + 1 units.

    decompose() expresses any nonzero element as a bitmask over the basis;
    it is linear (checked by the duality report, not assumed here).
    _classify_pairs() is decompose on a batch of coordinate pairs.  The
    constructor runs on pairs and keeps pairs only; LocalElem appears only
    at the public boundary, as decompose's argument.

    By the local square theorem (O'Meara 63:1) the square class of a unit u
    depends only on u modulo pi^(2e+1), so table[key(u)] is u's bitmask over
    the unit basis for each of the (q - 1) q^(2e) classes of O*/U_(2e+1).
    The constructor, which runs on the field's first space() call, builds
    basis and table in one scan from explicit squares, with no square test.
    Since 2 = pi^e * unit, s^2 mod pi^(2e+1) depends only on s mod pi^(e+1),
    so the units s of depth e+1 give every unit square modulo pi^(2e+1);
    their classes enter the table with mask 0.  The candidates of
    _unit_candidates are then walked in order.  One whose key is not yet in
    the table lies outside the span of the basis so far, modulo squares, and
    becomes the next basis unit b_i; for each product b_m of earlier basis
    units it adds key(b_m b_i s^2) -> m | 1 << i.  Every entry has a square
    witness: a unit u in the class of b_m b_i s^2 satisfies
    u * b_m b_i = (b_m b_i s)^2 modulo U_(2e+1), a square.  The products
    b_m of all the basis, pi included, are kept as the pairs of the class
    representatives, rep_pairs[m].

    After that decompose() takes the unit part of x = pi^v u as
    u = x f_v / 2^s with s = ceil(v/e) and the stored f_v = 2^s / pi^v =
    eps^-s pi^(e s - v), where pi^e = 2 eps: one product and one exact
    division by 2^s, whose truncation costs s <= precision + 2 bits, so u is
    still known modulo 2^4, below pi^(2e+1).  Then one table read."""

    def __init__(self, F: LocalField):
        self.field = F
        self.dim = F.dim
        # HNF Z(a, 0) + Z(b, c) of the coordinates of pi^(2e+1) O; the
        # vectors (W, 0), (0, W) make it the 2-adic lattice
        top = _pi_power(F, 2 * F.e + 1)
        vecs = [top, (F.W, 0), (0, F.W)]
        if F.kind != "q2":
            vecs.append(_mul(F, *top, 0, 1))
        self._lattice = _hnf_from_vectors(vecs)
        key = self._key
        squares: dict[int, tuple[int, int]] = {}
        for sa, sb in F.samples(F.e + 1):
            if _valuation(F, sa, sb) == 0:
                sq = _mul(F, sa, sb, sa, sb)
                squares.setdefault(key(*sq), sq)
        self.table: dict[int, int] = dict.fromkeys(squares, 0)
        span = [(1, 0)]  # span[m] = product of the basis units over the bits of m
        for ca, cb in _unit_candidates(F):
            if len(span) == 1 << (F.dim - 1):
                break
            if key(ca, cb) in self.table:
                continue
            bit = len(span)  # 1 << (the number of basis units so far)
            coset = [_mul(F, ba, bb, ca, cb) for ba, bb in span]
            for m, (ba, bb) in enumerate(coset):
                for sa, sb in squares.values():
                    if self.table.setdefault(key(*_mul(F, ba, bb, sa, sb)), m | bit) != m | bit:
                        raise AssertionError("basis units dependent modulo squares")
            span += coset
        if len(span) != 1 << (F.dim - 1):
            raise AssertionError("unit square classes not exhausted")
        classes = (len(F.digits) - 1) * len(F.digits) ** (2 * F.e)
        if len(self.table) != classes:
            raise AssertionError(
                f"unit table has {len(self.table)} keys, O*/U_(2e+1) has {classes} classes"
            )
        pi = _pi_power(F, 1)
        self.rep_pairs = tuple(pair for u in span for pair in (u, _mul(F, *u, *pi)))
        # (f_v, s) for every valuation v <= e (precision + 2) that
        # _valuation reports, f_v = eps^-s pi^(e s - v) as its pair; g is
        # eps^-s, one factor eps^-1 more whenever s steps up
        eps_inv = _unit_inverse(F, *_div_int(F, *_pi_power(F, F.e), 2))
        g = (1, 0)
        unshift = []
        for v in range(F.vcap + 1):
            s = -(-v // F.e)
            if v and (v - 1) % F.e == 0:
                g = _mul(F, *g, *eps_inv)
            unshift.append((_mul(F, *g, *_pi_power(F, F.e * s - v)), s))
        self._unshift = tuple(unshift)

    def _key(self, ua: int, ub: int) -> int:
        """The class of the pair's coordinates modulo pi^(2e+1) O, as one
        integer."""
        a, b, c = self._lattice
        return ub % c * a + (ua - ub // c * b) % a

    def decompose(self, x: LocalElem) -> int:
        return self._classify_pairs(((x.a, x.b),))[0]

    def _classify_pairs(self, pairs) -> list[int]:
        """decompose on each coordinate pair (a, b) of pairs, in order: the
        classify kernel, the package's one body of the classify logic.  Per
        pair the valuation, one product by f_v, a shift, the lattice key and
        a table read; ValueError for a pair that is 0 at this precision."""
        F = self.field
        W, T, C, e, vcap = F.W, F.T, F.C, F.e, F.vcap
        unshift, table = self._unshift, self.table
        la, lb, lc = self._lattice
        out = []
        for a, b in pairs:
            # the valuation e v2(N) / 2 of _valuation, inline; its parity
            # assertion cannot fire here, as an e = 1 norm is 4^k times odd
            n = a * a + T * a * b - C * b * b
            v = e * ((n & -n).bit_length() - 1) >> 1
            if not n or v > vcap:
                raise ValueError("cannot classify 0")
            (fa, fb), s = unshift[v]
            bb = b * fb
            ua = (a * fa + C * bb) % W >> s
            ub = (a * fb + b * fa + T * bb) % W >> s
            out.append(v % 2 | table[ub % lc * la + (ua - ub // lc * lb) % la] << 1)
        return out


def _unit_candidates(F: LocalField) -> list[tuple[int, int]]:
    """The pairs of the units among the digit patterns of depth 2e+1.  They
    cover all unit square classes: by the local square theorem deeper
    digits never change the class."""
    cands = [u for u in F.samples(2 * F.e + 1) if _valuation(F, *u) == 0]
    # prefer classically featured units first (-1, small odd integers)
    cands.sort(key=lambda u: u != (F.W - 1, 0))
    return cands


def _gf2_insert(rows: list[int], vec: int) -> bool:
    for r in rows:
        vec = min(vec, vec ^ r)
    if vec:
        rows.append(vec)
        rows.sort(reverse=True)
        return True
    return False


def hilbert_symbol(x: LocalElem, y: LocalElem) -> int:
    """(x, y): +1 iff x u^2 + y v^2 = 1 is solvable, computed by membership
    of y's square class in the norm-class subgroup of K(sqrt x)/K."""
    F = x.field
    G = y.field
    if F is not G and (F.kind, F.c, F.precision) != (G.kind, G.c, G.precision):
        raise ValueError("elements of different fields")
    # both classified in one batch, so a zero argument raises in either order
    cx, cy = F.space()._classify_pairs(((x.a, x.b), (y.a, y.b)))
    return _class_symbol(F, cx, cy)


def _class_symbol(F: LocalField, cx: int, cy: int) -> int:
    """The Hilbert symbol of the square classes cx and cy: +1 iff cx or cy
    is trivial or cy lies in the norm group of K(sqrt a)/K, a of class cx."""
    return -1 if _symbol_row(F, cx) >> cy & 1 else 1


def _symbol_row(F: LocalField, cx: int) -> int:
    """The classes cy with (cx, cy) = -1, as a mask over the 2^dim classes:
    bit cy is set iff cx is nontrivial and cy is outside the norm group of
    cx.  Memoised per field, so each class's norm group is searched once."""
    memo = F._symbol_memo
    row = memo.get(cx)
    if row is None:
        row = 0
        if cx:
            # the rows are independent, so span lists each of its classes once
            span = [0]
            for r in _norm_rows(F, cx):
                span += [m ^ r for m in span]
            row = (1 << (1 << F.dim)) - 1 ^ sum(1 << m for m in span)
        memo[cx] = row
    return row


def _norm_rows(F: LocalField, cx: int) -> tuple[int, ...]:
    """Row basis of the classes of nonzero values of u^2 - a v^2, where a
    represents class cx.  This is the norm group of K(sqrt a)/K, of index
    exactly 2; the search stops when that index is reached.

    The values run over the squares of the samples at depth 3, then 2e + 2,
    u outer and v inner.  The first u is 0, whose values -a v^2 all lie in
    the class of -a: that pass gives one row where index 2 needs dim - 1 >= 2,
    so it reaches every v before the rows can fill, and it is classified as
    one batch, each of its classes inserted once.  The values of the other u
    are classified one at a time, in the kernel's one-pair batches, so the
    search stops at the value that fills the rows.  No value but u = v = 0
    is refused: u^2 = a v^2 would make the non-square a a square, and
    v(u^2 - a v^2) <= 2 v(v) + v(a) + 2e (any deeper, a / (u/v)^2 would lie
    in U_(2e+1)), at most 6e + 3 for these samples, below vcap at every
    precision a field allows."""
    space = F.space()
    W = F.W
    ma, mb = _mul(F, *space.rep_pairs[cx], W - 1, 0)  # -a
    rows = []
    for depth in (3, 2 * F.e + 2):
        squares = F.sample_squares(depth)  # squares[0] is 0, of the sample 0
        neg = [_mul(F, ma, mb, va, vb) for va, vb in squares]  # -a v^2
        rest = (
            space._classify_pairs((((ua + na) % W, (ub + nb) % W),))[0]
            for ua, ub in squares[1:]
            for na, nb in neg
        )
        for cls in chain(dict.fromkeys(space._classify_pairs(neg[1:])), rest):
            _gf2_insert(rows, cls)
            if len(rows) == F.dim - 1:
                return tuple(rows)
    raise AssertionError("norm group search did not reach index 2")


# -- classical oracles ----------------------------------------------------------


def hilbert_symbol_q2_formula(a, b) -> int:
    """Closed form over Q2: (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u))."""
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ValueError("nonzero arguments required")
    s = _q2_split(a.numerator, a.denominator)
    return -1 if _q2_exponent(s, _q2_split(b.numerator, b.denominator)) else 1


def _q2_split(num: int, den: int = 1) -> tuple[int, int, int]:
    """(alpha, eps(u), omega(u)) of num / den = 2^alpha u, u a 2-adic unit,
    for nonzero integers: alpha from the lowest set bits, u modulo 8 as the
    product of the odd parts (an odd den is its own inverse modulo 8)."""
    vn, vd = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    u = (num >> vn) * (den >> vd) & 7
    return vn - vd, (u - 1) // 2 % 2, (u * u - 1) // 8 % 2


def _q2_exponent(s: tuple[int, int, int], t: tuple[int, int, int]) -> int:
    """The exponent of the Q2 closed form modulo 2, on two _q2_split results:
    1 iff the Hilbert symbol is -1."""
    alpha, eps_u, om_u = s
    beta, eps_v, om_v = t
    return (eps_u * eps_v + alpha * om_v + beta * om_u) % 2


# -- filtration and duality -------------------------------------------------------


def unit_filtration(F: LocalField) -> dict[int, list[int]]:
    """V_k = image of U_(2k) in the square classes, as GF(2) row bases,
    for k = -1 .. e+1; dimensions must match 1 + f(e-k) for 0 <= k <= e.
    V_k is spanned by _level_classes(F, 2k), which reaches every residue of
    U_(2k) modulo pi^(2e+1), the depth the square class depends on."""
    out: dict[int, list[int]] = {-1: [1 << i for i in reversed(range(F.dim))]}
    for k in range(0, F.e + 1):
        rows = []
        expected = 1 + F.f * (F.e - k)
        for cls in _level_classes(F, 2 * k):
            _gf2_insert(rows, cls)
        if len(rows) != expected:
            raise AssertionError(
                f"V_{k} has dimension {len(rows)}, cardinality lemma wants {expected}"
            )
        out[k] = rows
    out[F.e + 1] = []
    return out


def _sample_integral(F: LocalField, depth: int):
    """The pairs of every sum of lifted digits times pi^i, i < depth; the
    digit at the deepest level varies fastest."""
    W = F.W
    pi, pi_i = _pi_power(F, 1), (1, 0)
    outs = [(0, 0)]
    for _ in range(depth):
        terms = [_mul(F, *_res_lift(F, r), *pi_i) for r in F.digits]
        outs = [((a + ta) % W, (b + tb) % W) for a, b in outs for ta, tb in terms]
        pi_i = _mul(F, *pi_i, *pi)
    return outs


def _complement_is_span(gram_rows: list[int], rows: list[int], comp: list[int]) -> bool:
    """Whether the classes orthogonal to all of rows are the span of comp,
    where bit j of gram_rows[i] is the Gram bit of basis classes i and j.
    <m, r> is the parity of m & w_r, bit i of w_r the parity of
    gram_rows[i] & r: the complement is the kernel of the functionals ws, of
    dimension dim - rank(ws), and it is span(comp) iff every row of comp is
    annihilated by every w (inclusion) and the dimensions agree."""
    ws = [sum(((g & r).bit_count() & 1) << i for i, g in enumerate(gram_rows)) for r in rows]
    if any((c & w).bit_count() & 1 for c in comp for w in ws):
        return False
    return len(gram_rows) - _gf2_rank(ws) == _gf2_rank(comp)


def gram_matrix(F: LocalField) -> list[list[int]]:
    """Gram bits g[i][j] = (1 - hilbert(basis_i, basis_j)) / 2, with the
    basis elements classified once, in one batch."""
    space = F.space()
    classes = space._classify_pairs([space.rep_pairs[1 << i] for i in range(F.dim)])
    return [[_symbol_row(F, ci) >> cj & 1 for cj in classes] for ci in classes]


def duality_report(descriptor: str, precision: int | None = None) -> dict:
    """Everything the appendix asserts about one field, as a dict of checks."""
    F = local_field(descriptor, precision)
    reps = F.space().rep_pairs
    n = 1 << F.dim
    # row i of the symbol table: bit j set iff (reps[i], reps[j]) = -1
    table = _symbol_table(F, reps)
    symmetric = all((table[i] >> j ^ table[j] >> i) & 1 == 0 for i in range(n) for j in range(i))
    linear = _decompose_linear(F, reps)
    bilinear = _rows_linear(table)
    gram = gram_matrix(F)
    gram_rows = [_row_to_mask(r) for r in gram]
    nondeg = _gf2_rank(gram_rows) == F.dim
    filtration = unit_filtration(F)
    dims = {k: len(rows) for k, rows in filtration.items()}
    duality = all(
        _complement_is_span(gram_rows, filtration[k], filtration[F.e - k])
        for k in range(-1, F.e + 2)
    )
    even_pairs = _even_levels_pair_trivially(F)
    lemma_sq = _units_mod_squares_constructive(F)
    trace_crit = _trace_criterion_exhaustive(F)
    q2_oracle = _q2_oracle(F, reps, table) if F.kind == "q2" else True
    return {
        "field": descriptor,
        "precision": F.precision,
        "e": F.e,
        "f": F.f,
        "dims": dims,
        "gram": gram,
        "symmetric": symmetric,
        "decompose_linear": linear,
        "bilinear": bilinear,
        "nondegenerate": nondeg,
        "duality_ok": duality,
        "even_level_pairs_trivial": even_pairs,
        "units_mod_squares_lemma": lemma_sq,
        "trace_criterion_level_2e": trace_crit,
        "q2_closed_form_oracle": q2_oracle,
        "filtration_cardinalities_ok": all(dims[k] == 1 + F.f * (F.e - k) for k in range(F.e + 1)),
    }


def _decompose_linear(F: LocalField, reps) -> bool:
    """decompose is linear on the products of the representative pairs:
    the class of reps[i] reps[j] is i ^ j.  The product by the t^2 rule is
    symmetric in its arguments, so reps[j] reps[i] is the same pair as
    reps[i] reps[j]: each of the n (n + 1) / 2 distinct products, i <= j,
    is formed once, inline with _mul's formula, and all of them go through
    the classify kernel in one batch."""
    W, T, C = F.W, F.T, F.C
    products = [
        ((a1 * a2 + C * b1 * b2) % W, (a1 * b2 + b1 * a2 + T * b1 * b2) % W)
        for i, (a1, b1) in enumerate(reps)
        for a2, b2 in reps[i:]
    ]
    n = len(reps)
    return F.space()._classify_pairs(products) == [i ^ j for i in range(n) for j in range(i, n)]


def _symbol_table(F: LocalField, reps) -> list[int]:
    """The Hilbert symbols of the pairs reps[i], reps[j] as bitmask rows:
    bit j of row i is set iff the symbol is -1.  The representatives are
    classified in one batch.  In the order SquareClassSpace builds them,
    reps[i] of class i, row i is the class row _symbol_row(F, i) itself;
    any other order permutes the bits of the class rows."""
    classes = F.space()._classify_pairs(reps)
    syms = [_symbol_row(F, ci) for ci in classes]
    if classes == list(range(len(reps))):
        return syms
    return [sum((sym >> cj & 1) << j for j, cj in enumerate(classes)) for sym in syms]


def _rows_linear(table: list[int]) -> bool:
    """Bilinearity in the first argument, (x y, z) = (x, z)(y, z) for all
    x, y and every z at once, i.e. T(i ^ k) = T(i) ^ T(k) for all i, k, for
    the rows T, checked as the n identities T(0) = 0 and
    T(i) = T(i & (i - 1)) ^ T(i & -i) for 1 <= i < n.  Proof of equivalence:
    these are instances (i = k = 0; i split into its lowest set bit and the
    rest), and conversely, by induction on the set bits, they make T(i) the
    XOR of T(1 << b) over the bits b of i; the bits of i ^ k are those of i
    and k less the common ones, which cancel, so T(i ^ k) = T(i) ^ T(k)."""
    return table[0] == 0 and all(
        table[i] == table[i & (i - 1)] ^ table[i & -i] for i in range(1, len(table))
    )


def _q2_oracle(F: LocalField, reps, table: list[int]) -> bool:
    """The Q2 closed form agrees with the symbol table on every pair of
    representatives, each split once, as the small signed integer of its
    canonical coordinate."""
    splits = [_q2_split(a - F.W if a > F.W // 2 else a) for a, _ in reps]
    return all(
        _q2_exponent(s, t) == row >> j & 1
        for s, row in zip(splits, table)
        for j, t in enumerate(splits)
    )


def _row_to_mask(row: list[int]) -> int:
    return sum(bit << i for i, bit in enumerate(row))


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    return sum(_gf2_insert(basis, r) for r in rows)


def _even_levels_pair_trivially(F: LocalField) -> bool:
    # (U_i, U_j) = 1 for even i, j >= 0 with i + j = 2e, sampled across
    # all square classes the groups meet
    levels = {i: _level_classes(F, i) for i in range(0, 2 * F.e + 1, 2)}
    for i, us in levels.items():
        partners = sum(1 << cv for cv in levels[2 * F.e - i])
        for cu in us:
            if _symbol_row(F, cu) & partners:
                return False
    return True


def _level_classes(F: LocalField, i: int) -> tuple[int, ...]:
    """The square classes of the units 1 + t pi^i, t over the samples of
    depth 2e + 1 - i, built once per field and level.  These reach every
    residue of U_i modulo pi^(2e+1), and the classify kernel reads a unit
    only modulo pi^(2e+1) (O'Meara 63:1), so a deeper t repeats keys and
    adds no class, whatever the table holds."""
    out = F._level_memo.get(i)
    if out is None:
        pi_i, W = _pi_power(F, i), F.W
        units = []
        for ta, tb in F.samples(2 * F.e + 1 - i):
            ua, ub = _mul(F, ta, tb, *pi_i)
            ua = (ua + 1) % W
            if _valuation(F, ua, ub) == 0:
                units.append((ua, ub))
        out = F._level_memo[i] = tuple(set(F.space()._classify_pairs(units)))
    return out


def _units_mod_squares_constructive(F: LocalField) -> bool:
    # U_2k = U_(2k+1) U_k^2 for 0 <= k <= e-1, constructively, on pairs
    W = F.W
    for k in range(0, F.e):
        pka, pkb = _pi_power(F, k)
        p2a, p2b = _mul(F, pka, pkb, pka, pkb)
        for ta, tb in F.samples(2):
            la, lb = _mul(F, ta, tb, p2a, p2b)  # u - 1 for u = 1 + t pi^2k
            ua = (la + 1) % W
            if _valuation(F, ua, lb) != 0:
                continue
            if _valuation(F, la, lb) != 2 * k:
                continue  # None or above 2k: already in U_(2k+1), factor (1)^2
            t = F.res_sqrt(_residue(F, *_shift_coords(F, la, lb, 2 * k)))
            fa, fb = _mul(F, *_res_lift(F, t), pka, pkb)
            fa = (fa + 1) % W
            ra, rb = _mul(F, ua, lb, *_unit_inverse(F, *_mul(F, fa, fb, fa, fb)))
            lv = _valuation(F, (ra - 1) % W, rb)
            if lv is not None and lv < 2 * k + 1:
                return False
    return True


def _trace_criterion_exhaustive(F: LocalField) -> bool:
    # on U_2e = 1 + 4x: square iff residue trace of x vanishes; the
    # certificate's unit part must sit in U_e (up to sign).  The
    # certificates are _sqrt_coords's, on pairs
    W = F.W
    for xa, xb in F.samples(2):
        ua, ub = (4 * xa + 1) % W, 4 * xb % W
        if _valuation(F, ua, ub) != 0:
            continue
        expect = F.res_trace(_residue(F, xa, xb)) == 0
        cert = _sqrt_coords(F, ua, ub)
        if (cert is not None) != expect:
            return False
        if cert is not None:
            ca, cb = cert
            levels = (_valuation(F, (ca - 1) % W, cb), _valuation(F, (-ca - 1) % W, -cb % W))
            if not any(lv is None or lv >= F.e for lv in levels):
                return False
    return True
