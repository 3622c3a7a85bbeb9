"""Base field K: the rationals or a quadratic field Q(sqrt(d)).

An element is stored as integers (X + Y*w)/m over the integral basis
{1, w}, w = (1+sqrt(d))/2 for d = 1 mod 4 and sqrt(d) otherwise (Y = 0
over Q), normalised to m >= 1 and gcd(X, Y, m) = 1, with zero as (0, 0, 1)
(Cohen, GTM 138, 4.2.2): equal elements have equal triples, and an element
is integral iff m = 1.  Products, real signs and square roots are the
integer kernels coords_mul, coords_sign and coords_sqrt, which the class
enumeration also calls on bare pairs; _window_least walks a pair by a
power of the fundamental unit into a balanced window, for the class
enumeration and Ideal.principal_generator alike.  Fraction appears only
at the boundary: QuadField.elem and parse_elem take rationals, and x, y,
norm and as_sqrt_coords return them.  A field is interned, one
object per d, so an element's field is compared by identity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import index

from .arith import BoundExceeded, is_squarefree

__all__ = [
    "QuadField",
    "Elem",
    "coords_sign",
    "coords_mul",
    "coords_sqrt",
    "coords_is_square",
    "make_field",
    "fundamental_unit",
    "is_unit_square",
    "unit_square_class_reps",
    "roots_of_unity",
    "parse_elem",
]


class QuadField:
    """Q (d is None) or Q(sqrt(d)) for squarefree d not in {0, 1}.

    Immutable and interned: there is one object per d for the life of the
    process, so QuadField(d), make_field(d) and copy, deepcopy or a pickle
    round trip of a field all give that object, and equality is identity
    (object's own __eq__ and __hash__, which run in C).  The table _FIELDS
    publishes each field with one atomic dict.setdefault, so threads that
    race on a new d share one object, and it is never cleared.

    Its element API is elem (also reached by calling the field) and the
    constants zero, one and omega; zero completes the three for callers,
    though the package itself builds its zeros with elem."""

    def __new__(cls, d: int | None = None):
        if d is not None:
            d = index(d)
        K = _FIELDS.get(d)
        if K is None:
            K = _FIELDS.setdefault(d, _build_field(d))
        return K

    def __reduce__(self):
        return make_field, (self.d,)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadField is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadField is immutable: cannot delete {name}")

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def is_real_quadratic(self) -> bool:
        return self.d is not None and self.d > 0

    @property
    def is_imaginary_quadratic(self) -> bool:
        return self.d is not None and self.d < 0

    @property
    def real_embeddings(self) -> tuple[int, ...]:
        if self.is_rational:
            return (0,)
        return (0, 1) if self.d > 0 else ()

    def elem(self, x, y=0) -> "Elem":
        """x + y*w for rationals x and y (anything Fraction() accepts)."""
        m = 1
        if not (isinstance(x, int) and isinstance(y, int)):
            x, y = Fraction(x), Fraction(y)
            m = lcm(x.denominator, y.denominator)
            x, y = x.numerator * (m // x.denominator), y.numerator * (m // y.denominator)
        if y and self.is_rational:
            raise ValueError("rational field elements have no omega part")
        return Elem(self, x, y, m)

    __call__ = elem

    @property
    def zero(self) -> "Elem":
        return self.elem(0)

    @property
    def one(self) -> "Elem":
        return self.elem(1)

    @property
    def omega(self) -> "Elem":
        if self.is_rational:
            raise ValueError("Q has no omega")
        return self.elem(0, 1)

    def __repr__(self):
        return "Q" if self.is_rational else f"Q(sqrt{{{self.d}}})"


_FIELDS: dict[int | None, QuadField] = {}  # the interned fields, by d


def _build_field(d: int | None) -> QuadField:
    """A new field object for d, not yet published in _FIELDS."""
    if d is None:
        # omega_trace is unused for Q
        attrs = dict(d=None, degree=1, disc=1, omega_trace=0, omega_norm=0, signature=(1, 0))
    else:
        if d in (0, 1) or not is_squarefree(d):
            raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
        if d % 4 == 1:
            # w = (1+sqrt d)/2, w^2 - w + (1-d)/4 = 0
            disc, trace, norm = d, 1, (1 - d) // 4
        else:
            disc, trace, norm = 4 * d, 0, -d
        signature = (2, 0) if d > 0 else (0, 1)
        attrs = dict(d=d, degree=2, disc=disc, omega_trace=trace, omega_norm=norm, signature=signature)
    K = object.__new__(QuadField)
    for name, value in attrs.items():
        object.__setattr__(K, name, value)
    return K


def make_field(d: int | None = None) -> QuadField:
    """The interned field: Q for d None or omitted, else Q(sqrt(d)).  The
    same object as QuadField(d), however d is passed."""
    return QuadField(d)


class Elem:
    """(X + Y*w)/m with integers X, Y and m >= 1, gcd(X, Y, m) = 1.
    Immutable after construction.

    sqrt, the exact square root (None for a non-square), is part of the
    element API with is_square; the package's own square tests call
    is_square or the integer kernels coords_is_square and coords_sqrt."""

    __slots__ = ("field", "X", "Y", "m")

    def __init__(self, field: QuadField, X: int, Y: int = 0, m: int = 1):
        if m != 1:
            if m <= 0:
                if not m:
                    raise ZeroDivisionError("element denominator 0")
                X, Y, m = -X, -Y, -m
            g = gcd(X, Y, m)
            if g != 1:
                X, Y, m = X // g, Y // g, m // g
        self.field, self.X, self.Y, self.m = field, X, Y, m

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, self.m)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, self.m)

    def __eq__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.field is other.field and self.X == other.X and self.Y == other.Y and self.m == other.m

    def __hash__(self):
        return hash((self.field.d, self.X, self.Y, self.m))

    def __repr__(self):
        return f"Elem(field={self.field!r}, x={self.x!r}, y={self.y!r})"

    def _coerce(self, other) -> "Elem | None":
        """other as an element of this field; None for an operand that
        field.elem refuses with TypeError, such as an Ideal, so that the
        arithmetic dunders return NotImplemented and Python tries the other
        operand's reflected method."""
        if isinstance(other, Elem):
            if self.field is not other.field:
                raise ValueError("elements of different fields")
            return other
        try:
            return self.field.elem(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m1, m2 = self.m, o.m
        if m1 == m2:
            return Elem(self.field, self.X + o.X, self.Y + o.Y, m1)
        return Elem(self.field, self.X * m2 + o.X * m1, self.Y * m2 + o.Y * m1, m1 * m2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__sub__(self)

    def __neg__(self):
        return Elem(self.field, -self.X, -self.Y, self.m)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y = coords_mul(self.field, self.X, self.Y, o.X, o.Y)
        return Elem(self.field, x, y, self.m * o.m)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero field element")
        # 1/o = m * conj(X + Y*w) / N(X + Y*w), conj(X + Y*w) = (X + t*Y) - Y*w
        K = self.field
        X, Y = o.X, o.Y
        t = K.omega_trace
        nm = X * X + t * X * Y + K.omega_norm * Y * Y
        x, y = coords_mul(K, self.X, self.Y, X + t * Y, -Y)
        return Elem(K, x * o.m, y * o.m, self.m * nm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __pow__(self, k: int):
        if k < 0:
            return (self.field.one / self) ** (-k)
        # square-and-multiply with no product by one and no unused square
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.field.one if out is None else out

    def __bool__(self):
        return self.X != 0 or self.Y != 0

    def conj(self) -> "Elem":
        return Elem(self.field, self.X + self.field.omega_trace * self.Y, -self.Y, self.m)

    def norm(self) -> Fraction:
        K, X, Y = self.field, self.X, self.Y
        if K.is_rational:
            return Fraction(X, self.m)
        return Fraction(X * X + K.omega_trace * X * Y + K.omega_norm * Y * Y, self.m * self.m)

    def is_integral(self) -> bool:
        return self.m == 1

    def as_sqrt_coords(self) -> tuple[Fraction, Fraction]:
        """(A, B) with the element equal to A + B*sqrt(d)."""
        if self.field.is_rational:
            return self.x, Fraction(0)
        if self.field.d % 4 == 1:
            return Fraction(2 * self.X + self.Y, 2 * self.m), Fraction(self.Y, 2 * self.m)
        return self.x, self.y

    def sign_at(self, embedding: int) -> int:
        """Exact sign (-1, 0, +1) at the given real embedding."""
        if embedding not in self.field.real_embeddings:
            raise ValueError(f"no real embedding {embedding} for {self.field}")
        # clearing the positive denominator m does not change the sign
        return coords_sign(self.field, self.X, self.Y, embedding)

    def is_square(self) -> bool:
        """Whether the element is a square in K: whether m^2 * self is one."""
        m = self.m
        return coords_is_square(self.field, m * self.X, m * self.Y)

    def sqrt(self) -> "Elem | None":
        """An exact square root in K, or None: coords_sqrt's root of
        m*(X + Y*w) = m^2 * self, over m."""
        m = self.m
        root = coords_sqrt(self.field, m * self.X, m * self.Y)
        if root is None:
            return None
        return Elem(self.field, root[0], root[1], m)

    def __str__(self):
        """The text x+y*w, x-y*w, x or y*w, with x = X/m and y = Y/m each
        written as str(Fraction) writes it (p/q in lowest terms, p when
        q = 1), from the integers alone: no Fraction is built."""
        X, Y, m = self.X, self.Y, self.m
        xtxt = _ratio_text(X, m)
        if not Y:
            return xtxt
        ytxt = f"{_ratio_text(Y, m)}*w" if Y > 0 else f"-{_ratio_text(-Y, m)}*w"
        if not X:
            return ytxt
        return f"{xtxt}+{ytxt}" if Y > 0 else xtxt + ytxt

    def key(self) -> tuple:
        """Canonical sort/equality key (field-local)."""
        return (self.x, self.y)


def _ratio_text(n: int, m: int) -> str:
    # str(Fraction(n, m)) for m >= 1, reduced by a gcd only when m > 1
    if m == 1:
        return str(n)
    g = gcd(n, m)
    return str(n // g) if g == m else f"{n // g}/{m // g}"


def coords_sign(K: QuadField, x: int, y: int, embedding: int) -> int:
    """Exact sign (-1, 0, +1) of x + y*w at the real embedding `embedding`
    of K, for integers x, y, decided on integers alone.

    With s = t + 1, s*(x + y*w) = A + B*sqrt(d) for A = s*x + t*y and
    B = y (B = -y at embedding 1), and s > 0.  Where A and B differ in sign
    the sign is A's iff A^2 > d*B^2; d is not a square, so never equal.
    Over Q, where t = 0 and y = 0, that is the sign of x."""
    t = K.omega_trace
    A = (t + 1) * x + t * y
    B = -y if embedding else y
    if B == 0:
        return (A > 0) - (A < 0)
    sign_b = 1 if B > 0 else -1
    if A * sign_b < 0 and A * A > K.d * B * B:
        return -sign_b
    return sign_b


def coords_mul(K: QuadField, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """The coordinates of (x1 + y1*w)(x2 + y2*w), with w^2 = t*w - n."""
    t, n = K.omega_trace, K.omega_norm
    return x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2


def coords_sqrt(K: QuadField, x: int, y: int) -> tuple[int, int] | None:
    """Integer coordinates (u, v) of a square root u + v*w of x + y*w, for
    integers x, y, or None if x + y*w is not a square in K.

    A root of an integral element is integral.  In sqrt(d)-coordinates,
    with s = t + 1, s*(x + y*w) = A/s + (B/s)*sqrt(d) for A = s*(s*x + t*y)
    and B = s*y, and a root (P + Q*sqrt(d))/s needs P^2 + d*Q^2 = A and
    2*P*Q = B.  Then (P^2 - d*Q^2)^2 = A^2 - d*B^2 = r^2, so P^2 is
    (A + r)/2 or (A - r)/2, d*Q^2 = A - P^2, and Q has the sign of B.  The
    root returned has P >= 0, from (A + r)/2 if that one works."""
    if K.degree == 1:
        r = isqrt(x) if x >= 0 else -1
        return (r, 0) if r * r == x else None
    t, d = K.omega_trace, K.d
    s = t + 1
    A, B = s * (s * x + t * y), s * y
    disc = A * A - d * B * B
    r = isqrt(disc) if disc >= 0 else -1
    if r * r != disc:
        return None
    for p2 in ((A + r) // 2, (A - r) // 2):
        q2, rem = divmod(A - p2, d)
        if p2 < 0 or q2 < 0 or rem:
            continue
        P, Q = isqrt(p2), isqrt(q2)
        if B < 0:
            Q = -Q
        if P * P == p2 and Q * Q == q2 and 2 * P * Q == B:
            return (P - t * Q) // s, Q
    return None


def coords_is_square(K: QuadField, x: int, y: int) -> bool:
    """Whether x + y*w is a square in K, for integers x, y (coords_sqrt)."""
    return coords_sqrt(K, x, y) is not None


# x may not stop inside a number, or "12*w" would read as x = 1 with an
# unsigned omega part 2*w
_ELEM_RE = re.compile(
    r"^\s*(?P<x>[+-]?\d+(?:/\d+)?(?![\d/]))?\s*"
    r"(?P<yterm>(?P<sign>[+-])?\s*(?:(?P<y>\d+(?:/\d+)?)\s*\*\s*)?w)?\s*$"
)


def _rational(text: str) -> int | Fraction:
    # integer text is read by int; p/q by Fraction, so "3/0" raises
    # ZeroDivisionError as Fraction does
    return Fraction(text) if "/" in text else int(text)


def parse_elem(K: QuadField, text: str) -> Elem:
    """Parse "x+y*w" (rationals as p/q), also plain "x", "y*w", "w", "-w".
    Coordinates without "/" are read as integers, so an integral element
    goes to QuadField.elem with no Fraction built."""
    m = _ELEM_RE.match(text)
    if not m or (m.group("x") is None and m.group("yterm") is None):
        raise ValueError(f"cannot parse element {text!r}")
    x = _rational(m.group("x")) if m.group("x") else 0
    y = 0
    if m.group("yterm"):
        y = _rational(m.group("y")) if m.group("y") else 1
        if m.group("sign") == "-":
            y = -y
        elif m.group("sign") is None and m.group("x") is not None:
            raise ValueError(f"missing sign before omega part in {text!r}")
    return K.elem(x, y)


# ---------------------------------------------------------------------------
# units

CF_STEP_BOUND = 100000  # steps a continued-fraction walk may take


def _cf_step(P: int, Q: int, D: int, s: int) -> tuple[int, int, int]:
    # one step of the continued fraction of (P + sqrt D)/Q, s = isqrt(D),
    # for either sign of Q; returns (a, P', Q')
    a = (P + s + (Q < 0)) // Q
    P1 = a * Q - P
    Q1 = (D - P1 * P1) // Q
    return a, P1, Q1


def _cf_convergents(P: int, Q: int, D: int, operation: str, subject):
    """The convergents (p, q) of (P + sqrt D)/Q, for nonsquare D > 0 and
    Q | D - P^2, through the preperiod and one period, at most
    CF_STEP_BOUND steps (_cf_step and the bound are read at call time;
    subject() names the input in an error).  A complete quotient
    (P_k + sqrt D)/Q_k is reduced iff P_k <= s and s - P_k < Q_k <= s + P_k,
    s = isqrt(D); from the first reduced one the expansion is periodic, so
    the walk ends when it recurs.  For a root of a form f of discriminant D
    with Q = +-2 f(1, 0), |f(p_k, q_k)| = |Q_(k+1)|/2 (Cohen, GTM 138, 5.7)."""
    s = isqrt(D)
    p_prev, p_cur = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_cur = 1, 0
    first = None  # the first reduced (P_k, Q_k)
    for _ in range(CF_STEP_BOUND):
        a, P, Q = _cf_step(P, Q, D, s)
        if Q == 0:
            raise AssertionError(f"{operation} for {subject()} reached Q = 0")
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur
        if first == (P, Q):
            return
        if first is None and P <= s and s - P < Q <= s + P:
            first = (P, Q)
    # the walk needs at least CF_STEP_BOUND + 1 steps
    raise BoundExceeded(operation, subject(), CF_STEP_BOUND + 1, CF_STEP_BOUND)


@lru_cache(maxsize=None)
def fundamental_unit(K: QuadField) -> Elem:
    """Smallest unit > 1 of a real quadratic field, by the continued
    fraction of w.  Convergents p/q of w give elements p - q*w of norm
    p^2 - t p q + n q^2; the first with norm +-1, within one period,
    yields the unit."""
    if not K.is_real_quadratic:
        raise ValueError("fundamental unit requires a real quadratic field")
    d = K.d
    t, n = K.omega_trace, K.omega_norm
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    for p, q in _cf_convergents(P, Q, d, "continued fraction of omega", lambda: f"d={d}"):
        if abs(p * p - t * p * q + n * q * q) == 1:
            eta = K.elem(p, -q)
            for cand in (eta, -eta, eta.conj(), -eta.conj()):
                if cand.sign_at(0) > 0 and (cand - 1).sign_at(0) > 0:
                    return cand
            raise AssertionError("no associate > 1")
    raise AssertionError(f"no unit in a period of omega for d={d}")


def _sqrt_d_nonneg(alpha: int, beta: int, d: int) -> bool:
    # alpha + beta*sqrt(d) >= 0 for integers alpha, beta and nonsquare d > 0
    if alpha >= 0 and beta >= 0:
        return True
    if alpha <= 0 and beta <= 0:
        return False
    return (alpha > 0) == (alpha * alpha > d * beta * beta)


def _window_side(P: int, Q: int, E: int, F: int, d: int) -> int:
    """0 if delta is in the closed window u^-1 <= |s1(delta)/s2(delta)| <= u
    of a unit u with s1(u) > 0, else the side it leaves by: 1 above, -1
    below.  With 2*delta = P + Q sqrt(d), 2*u^2 = E + F sqrt(d) and
    (2 delta)^2 = a + b sqrt(d), all integers, these are two exact sign
    tests, s1(delta^2) <= s1(u^2) s2(delta^2) and symmetrically, scaled by 8."""
    a = P * P + d * Q * Q
    b = 2 * P * Q
    if not _sqrt_d_nonneg(E * a - F * b * d - 2 * a, F * a - E * b - 2 * b, d):
        return 1
    if not _sqrt_d_nonneg(E * a + F * b * d - 2 * a, F * a + E * b + 2 * b, d):
        return -1
    return 0


@lru_cache(maxsize=None)
def _unit_window(K: QuadField, k: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """For u = eps^k of the real field K: (E, F) with 2u^2 = E + F sqrt(d),
    the window bound of _window_side, and the coordinates of u and of
    u^-1 = N(u) conj(u), computed once per interned field and k (as
    fundamental_unit is)."""
    u = fundamental_unit(K) ** k
    E, F = (int(2 * v) for v in (u * u).as_sqrt_coords())
    n = int(u.norm())
    return (E, F), (u.X, u.Y), (n * (u.X + K.omega_trace * u.Y), -n * u.Y)


def _window_least(K: QuadField, x: int, y: int, k: int) -> tuple[int, int]:
    """The least (x, y) of x + y*w times the powers of u = eps^k in the
    real field K that lie in the window of _window_side.  u multiplies
    |s1/s2| by eps^(2k) (|s2(u)| = 1/u), the width of the closed window,
    and u^-1 divides it by that: so the walk enters the window, which holds
    one or two members.  s1(u) > 0, so every member's s1 has the sign of
    s1(x + y*w).  Discriminant classes walk by eps^2, generators by eps."""
    t, d = K.omega_trace, K.d
    window, up, down = _unit_window(K, k)
    while side := _window_side(2 * x + t * y, (2 - t) * y, *window, d):
        x, y = coords_mul(K, x, y, *(down if side > 0 else up))
    members = [(x, y)]
    for step in (up, down):
        x1, y1 = coords_mul(K, x, y, *step)
        if not _window_side(2 * x1 + t * y1, (2 - t) * y1, *window, d):
            members.append((x1, y1))
    return min(members)


def roots_of_unity(K: QuadField) -> list[Elem]:
    """All roots of unity in K. mu4 for d=-1, mu6 for d=-3, else {+-1}."""
    out = [K.one, -K.one]
    if K.d == -1:
        i = K.omega  # w = sqrt(-1)
        out += [i, -i]
    elif K.d == -3:
        z = K.omega  # w = (1+sqrt(-3))/2, primitive 6th root
        out += [z, -z, z * z, -(z * z)]
    return out


def is_unit_square(u: Elem) -> bool:
    """True iff the unit u is the square of a unit.  A unit that is a square
    in K is one: its root is integral with norm +-1."""
    if not u.is_integral() or abs(u.norm()) != 1:
        raise ValueError("not a unit")
    return u.is_square()


def unit_square_class_reps(K: QuadField) -> list[Elem]:
    """Representatives of the unit group modulo squares of units."""
    if K.is_rational:
        return [K.one, -K.one]
    if K.is_imaginary_quadratic:
        zs = roots_of_unity(K)
        reps: list[Elem] = []
        for z in zs:
            # z/r = z*conj(r) for a root of unity r
            if not any(is_unit_square(z * r.conj()) for r in reps):
                reps.append(z)
        return reps
    eps = fundamental_unit(K)
    return [K.one, -K.one, eps, -eps]
