from fractions import Fraction
from math import gcd, isqrt

import pytest

from helpers import class_number
from relquad.arith import factorint, kronecker, squarefree_part
from relquad.field import make_field
from relquad.hurwitz import (
    form_class_number,
    hurwitz_class_number,
    hurwitz_class_number_forms,
    hurwitz_row,
    reduced_forms,
)


def brute_reduced_forms(delta):
    """Oracle: scan the whole (a, b, c) box."""
    out = set()
    for a in range(1, isqrt_cap(-delta) + 1):
        for b in range(-a, a + 1):
            for c in range(a, -delta):
                if b * b - 4 * a * c != delta:
                    continue
                if b < 0 and (-b == a or a == c):
                    continue
                out.add((a, b, c))
    return out


def isqrt_cap(n):
    from math import isqrt

    return isqrt(n // 3) + 1


def test_reduced_forms_examples():
    assert reduced_forms(-3) == [(1, 1, 1)]
    assert reduced_forms(-4) == [(1, 0, 1)]
    assert set(reduced_forms(-23)) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    with pytest.raises(ValueError):
        reduced_forms(-6)
    with pytest.raises(ValueError):
        reduced_forms(4)


def test_reduced_forms_against_box_oracle():
    for delta in range(-120, 0):
        if delta % 4 in (0, 1):
            assert set(reduced_forms(delta)) == brute_reduced_forms(delta)


def test_hurwitz_spot_values():
    assert hurwitz_class_number(-3) == Fraction(1, 3)
    assert hurwitz_class_number(-4) == Fraction(1, 2)
    assert hurwitz_class_number(-12) == Fraction(4, 3)
    assert hurwitz_class_number(-23) == 3
    assert hurwitz_class_number_forms(-16) == Fraction(3, 2)
    assert hurwitz_class_number_forms(-20) == 2
    assert hurwitz_class_number_forms(-3) == Fraction(1, 3)


def test_formula_equals_oracle_small():
    for delta in range(-400, 0):
        if delta % 4 in (0, 1):
            row = hurwitz_row(delta)  # raises on a mismatch
            assert row.H_formula == row.H_oracle
            assert row.H_formula.denominator in (1, 2, 3, 6)
            assert row.w_L == (6 if row.delta // row.f_delta**2 == -3 else 4 if row.delta // row.f_delta**2 == -4 else 2)


def test_class_number_agrees_with_ideal_machinery():
    # 20 spot fundamental discriminants: primitive form count equals the
    # ideal-class count of the maximal order (Minkowski-complete search)
    spots = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
             -31, -35, -39, -40, -43, -51, -52, -55, -56, -67]
    for delta0 in spots:
        K = make_field(squarefree_part(delta0))
        assert K.disc == delta0
        assert form_class_number(delta0) == class_number(K), delta0


def hurwitz_by_fractions(delta):
    """Oracle: the closed formula summed in Fractions over every divisor
    d of f, with delta0 the discriminant of Q(sqrt delta)."""
    d = squarefree_part(delta)
    delta0 = d if d % 4 == 1 else 4 * d
    f = isqrt(delta // delta0)
    w = 6 if delta0 == -3 else 4 if delta0 == -4 else 2
    total = Fraction(0)
    for k in range(1, f + 1):
        if f % k == 0:
            term = Fraction(k)
            for p in factorint(k):
                term *= 1 - Fraction(kronecker(delta0, p), p)
            total += term
    return Fraction(form_class_number(delta0), w // 2) * total, delta0, f, w


def forms_by_fractions(delta):
    """Oracle: the reduced forms weighted by Fractions 1/3, 1/2 and 1."""
    total = Fraction(0)
    for a, b, c in reduced_forms(delta):
        core = delta // gcd(gcd(a, b), c) ** 2
        total += Fraction(1, 3) if core == -3 else Fraction(1, 2) if core == -4 else 1
    return total


def test_integer_routes_match_fraction_oracles():
    # the formula's integer product and the form count in sixths give the
    # values of the Fraction sums, on every route, for |delta| <= 2000
    for delta in range(-2000, 0):
        if delta % 4 not in (0, 1):
            continue
        H, delta0, f, w = hurwitz_by_fractions(delta)
        assert hurwitz_class_number(delta) == H == forms_by_fractions(delta), delta
        assert hurwitz_class_number_forms(delta) == H, delta
        row = hurwitz_row(delta)
        assert (row.H_formula, row.H_oracle, row.h_L, row.w_L, row.f_delta) == (
            H, H, form_class_number(delta0), w, f
        ), delta
