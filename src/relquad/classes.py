"""Reduction theory: principality, the unit window and class representatives.

Every decision of whether an integral ideal is principal, and every choice
of a representative, is made here, on the norm form of the ideal (Cohen,
GTM 138, 5.2-5.7; Buchmann and Vollmer, Binary Quadratic Forms, ch. 6).
For I = c*J with HNF (a, b, c), J = (A, b' + w), the norm form f_J =
(A, 2b' + t, N(b' + w)/A) (_norm_form) has the discriminant of K, and c*(p*A
+ q*(b' + w)) generates I iff f_J(p, q) = +-1.

- A real field walks the continued fraction of a root of f_J, as
  fundamental_unit walks that of w, the root of the principal form (5.7).
  _cf_convergents is the one walk: it decides each convergent on its
  complete quotient, |f(p_k, q_k)| = |Q_(k+1)|/2, evaluating the form only
  to confirm a hit, within CF_STEP_BOUND steps.  The generator walk,
  _cf_generator, is memoised per ideal, non-principal ones included, in an
  LRU cache of ideals.FACTOR_CACHE_SIZE entries.
- An imaginary field reduces f_J by Lagrange-Gauss (5.3-5.4,
  _gauss_generator); over Q the ideal (n) is generated by n.  No search
  over coordinate rows is left.
- _generator is the one generator rule over the three kinds of field.
  Ideal.principal_generator reads it through _principal_generator_integral,
  which fixes the generator by the ideal alone, and the class kernel
  discriminants._class_reps reads it for the principal ideals (g) of its
  classes u*g.
- The unit window: a real field's associates are walked by a power eps^k
  of the fundamental unit into the window eps^-k <= |s1/s2| <= eps^k
  (_window_least, on the memoised bound of _unit_window), by eps for a
  generator and by eps^2 for a class modulo unit squares; elsewhere the
  unit group is finite and _unit_square_least takes the least product by
  the square of a root of unity.  All on integer pairs.

minkowski_bound bounds the norm of the least integral ideal in a class,
the window of tables.unit_discriminants.

Layering: this module imports arith, field and ideals, and discriminants
and tables import it.  Two entries of the modules below it read it by an
import inside the function, as characters.QuadCharacter.coefficients reads
counting: field.fundamental_unit, whose memo runs the import once per
field, and Ideal.principal_generator, where each call pays one lookup of
the loaded module.  A module-level import either way would be circular.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import BoundExceeded
from .field import QuadField, coords_mul, coords_sign, fundamental_unit
from .ideals import FACTOR_CACHE_SIZE, Ideal

__all__ = ["minkowski_bound"]

CF_STEP_BOUND = 100000  # steps a continued-fraction walk may take


def _cf_step(P: int, Q: int, D: int, s: int) -> tuple[int, int, int]:
    # one step of the continued fraction of (P + sqrt D)/Q, s = isqrt(D),
    # for either sign of Q; returns (a, P', Q')
    a = (P + s + (Q < 0)) // Q
    P1 = a * Q - P
    Q1 = (D - P1 * P1) // Q
    return a, P1, Q1


def _cf_convergents(A: int, B: int, C: int, D: int, operation: str, subject):
    """The convergents (p, q) with |f(p, q)| = 1 of the root (-B + sqrt D)/2A
    of the form f = (A, B, C) of nonsquare discriminant D > 0, through the
    preperiod and one period, at most CF_STEP_BOUND steps (_cf_step and the
    bound are read at call time; subject() names the input in an error).
    The walk runs on the complete quotients (P_k + sqrt D)/Q_k from (-B, 2A),
    and |f(p_k, q_k)| = |Q_(k+1)|/2 (Cohen, GTM 138, 5.7), so it judges a
    convergent on the small Q_(k+1) and evaluates f only on a hit, as the
    exact confirmation.  A complete quotient is reduced iff P_k <= s and
    s - P_k < Q_k <= s + P_k, s = isqrt(D); from the first reduced one the
    expansion is periodic, so the walk ends when it recurs."""
    s = isqrt(D)
    P, Q = -B, 2 * A
    p_prev, p_cur = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_cur = 1, 0
    first = None  # the first reduced (P_k, Q_k)
    for _ in range(CF_STEP_BOUND):
        a, P, Q = _cf_step(P, Q, D, s)
        if Q == 0:
            raise AssertionError(f"{operation} for {subject()} reached Q = 0")
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if abs(Q) == 2:
            if abs((A * p_cur + B * q_cur) * p_cur + C * q_cur * q_cur) != 1:
                raise AssertionError(f"{operation} for {subject()}: |f(p, q)| != 1 where |Q| = 2")
            yield p_cur, q_cur
        if first == (P, Q):
            return
        if first is None and P <= s and s - P < Q <= s + P:
            first = (P, Q)
    # the walk needs at least CF_STEP_BOUND + 1 steps
    raise BoundExceeded(operation, subject(), CF_STEP_BOUND + 1, CF_STEP_BOUND)


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


def _unit_square_least(K: QuadField, pairs) -> list[tuple[int, int]]:
    """For each (x, y) of pairs, the least member of the class of x + y*w
    modulo unit squares: in a real field the least in the window of
    _window_least by eps^2, elsewhere the least product by the square of a
    root of unity."""
    if K.is_real_quadratic:
        return [_window_least(K, x, y, 2) for x, y in pairs]
    squares = [coords_mul(K, x, y, x, y) for x, y in K.unity_coords]
    return [min(coords_mul(K, x, y, *z2) for z2 in squares) for x, y in pairs]


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
    complete quotient with |Q| = 2: the first convergent that
    _cf_convergents yields, with |f_J(p, q)| = 1.  Memoised per ideal,
    None included, so Ideal.principal_generator and the discriminant classes
    walk each ideal once."""
    K = I.field
    a, b, c = I.hnf
    for p, q in _cf_convergents(*_norm_form(I), K.disc, "continued fraction of a norm-form root", lambda: f"{I} in {K}"):
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


def _generator(I: Ideal) -> tuple[int, int] | None:
    """Coordinates of a generator of the integral ideal I, or None if it is
    not principal: (n, 0) for (n) over Q, _gauss_generator's in an
    imaginary field and the memoised _cf_generator's in a real one."""
    K = I.field
    if K.is_real_quadratic:
        return _cf_generator(I)
    return _gauss_generator(I) if K.degree == 2 else (I.hnf[0], 0)


def _principal_generator_integral(I: Ideal) -> tuple[int, int] | None:
    """The coordinates of the generator of I's numerator module fixed by
    that module alone, or None: of the associates +-g*eps^k of _generator's
    g with s1 > 0 in a real field, the least (x, y) of the one or two in the
    window eps^-1 <= |s1/s2| <= eps (_window_least by u = eps); elsewhere,
    of g*zeta, zeta a root of unity, the least in (y, -x)."""
    K = I.field
    g = _generator(Ideal(K, I.hnf, 1, _checked=True))
    if g is None:
        return None
    if K.is_real_quadratic:
        s = coords_sign(K, *g, 0)
        return _window_least(K, s * g[0], s * g[1], 1)
    y, minus_x = min((y, -x) for x, y in (coords_mul(K, *g, *z) for z in K.unity_coords))
    return -minus_x, y
