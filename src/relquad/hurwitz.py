"""Hurwitz class numbers over Q: closed formula against a form-counting
oracle.

H(delta) counts SL2(Z)-classes of positive definite integral binary forms
of discriminant delta, weighting multiples of x^2+y^2 by 1/2 and of
x^2+xy+y^2 by 1/3.  The closed formula runs over divisors of the conductor
of delta; the oracle enumerates reduced forms directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record, slot_setters
from .arith import factorint, kronecker
from .discriminants import conductor_ideal
from .field import make_field

__all__ = [
    "reduced_forms",
    "form_class_number",
    "hurwitz_class_number",
    "hurwitz_class_number_forms",
    "HurwitzResult",
    "hurwitz_row",
    "negative_discriminants",
]


def _check_disc(delta: int):
    if delta >= 0 or delta % 4 not in (0, 1):
        raise ValueError(f"need a negative discriminant (0 or 1 mod 4), got {delta}")


def negative_discriminants(bound: int) -> list[int]:
    """The discriminants -bound <= delta < 0 (0 or 1 mod 4), ascending;
    ValueError naming a negative bound."""
    if bound < 0:
        raise ValueError(f"discriminant bound must be >= 0, got {bound}")
    return [delta for delta in range(-bound, 0) if delta % 4 in (0, 1)]


def reduced_forms(delta: int) -> list[tuple[int, int, int]]:
    """All reduced positive definite forms (a, b, c) of discriminant delta,
    imprimitive ones included: |b| <= a <= c with b >= 0 if |b| = a or a = c."""
    _check_disc(delta)
    out = []
    a = 1
    while 3 * a * a <= -delta:
        for b in range(-a, a + 1):
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            out.append((a, b, c))
        a += 1
    return out


def form_class_number(delta: int) -> int:
    """h(delta): number of primitive reduced forms."""
    return sum(1 for a, b, c in reduced_forms(delta) if gcd(gcd(a, b), c) == 1)


def _sixths(form: tuple[int, int, int], delta: int) -> int:
    """The weight of a reduced form in sixths: 2 for a multiple of
    x^2+xy+y^2, 3 for one of x^2+y^2, else 6."""
    a, b, c = form
    g = gcd(gcd(a, b), c)
    core = delta // (g * g)
    return 2 if core == -3 else 3 if core == -4 else 6


def hurwitz_class_number_forms(delta: int) -> Fraction:
    """Oracle: weighted count of all reduced forms of discriminant delta,
    summed in sixths on integers."""
    _check_disc(delta)
    return Fraction(sum(_sixths(f, delta) for f in reduced_forms(delta)), 6)


def _fundamental_split(delta: int) -> tuple[int, int]:
    """delta = delta0 * f^2 with delta0 the fundamental part; f computed as
    the generator of the conductor ideal over Q."""
    Q = make_field()
    info = conductor_ideal(Q.elem(delta))
    f = info.f_delta.norm_int()
    return delta // (f * f), f


def _w_of(delta0: int) -> int:
    return 6 if delta0 == -3 else 4 if delta0 == -4 else 2


def _formula(delta0: int, f: int, h: int) -> Fraction:
    """h/(w/2) * sum over d | f of d * prod_{p | d} (1 - chi(p)/p), chi the
    Kronecker symbol of delta0: the summand is the multiplicative integer
    prod_{p^e || d} p^(e-1) (p - chi(p)), so the sum is the product over
    p^a || f of 1 + sum_{e=1..a} p^(e-1) (p - chi(p))."""
    total = 1
    for p, a in factorint(f).items():
        step = p - kronecker(delta0, p)
        total *= 1 + step * (p**a - 1) // (p - 1)
    return Fraction(h * total, _w_of(delta0) // 2)


def hurwitz_class_number(delta: int) -> Fraction:
    """Closed formula: h(delta0)/(w/2) * sum over d | f of
    d * prod_{p | d} (1 - chi(p)/p), where delta = delta0 f^2."""
    _check_disc(delta)
    delta0, f = _fundamental_split(delta)
    return _formula(delta0, f, form_class_number(delta0))


class HurwitzResult(Record):
    """One Hurwitz row: H(delta) by the formula and by the form count, with
    h and w of the fundamental discriminant delta0 and f, delta = delta0 f^2."""

    __slots__ = ("delta", "H_formula", "H_oracle", "h_L", "w_L", "f_delta")

    def __init__(self, delta: int, H_formula: Fraction, H_oracle: Fraction, h_L: int, w_L: int, f_delta: int):
        for setter, value in zip(_HURWITZ_SETTERS, (delta, H_formula, H_oracle, h_L, w_L, f_delta)):
            setter(self, value)


_HURWITZ_SETTERS = slot_setters(HurwitzResult)


def hurwitz_row(delta: int) -> HurwitzResult:
    """H(delta) by the closed formula and by the form count, which must
    agree; delta is split and h(delta0) counted once for the row."""
    _check_disc(delta)
    delta0, f = _fundamental_split(delta)
    h = form_class_number(delta0)
    res = HurwitzResult(
        delta=delta,
        H_formula=_formula(delta0, f, h),
        H_oracle=hurwitz_class_number_forms(delta),
        h_L=h,
        w_L=_w_of(delta0),
        f_delta=f,
    )
    # explicit raises, not asserts: hurwitz_suite reads AssertionError as a
    # failed case, and the verdict must survive python -O
    if res.H_formula != res.H_oracle:
        raise AssertionError(f"class number mismatch at {delta}")
    if res.H_formula.denominator not in (1, 2, 3, 6):
        raise AssertionError(f"H({delta}) has denominator {res.H_formula.denominator}")
    return res
