"""Independent oracles shared by the test suite.

These deliberately avoid the code paths they check: interval arithmetic for
signs, exhaustive coefficient searches for units, brute-force residue
enumeration for congruences.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from relquad.field import Elem, QuadField
from relquad.ideals import Ideal, principal_ideal


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
