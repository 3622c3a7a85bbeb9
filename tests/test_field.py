import copy
import pickle
import random
import re
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FractionElem,
    elem_text_by_fractions,
    elem_trace,
    interval_sign,
    is_totally_negative,
    is_unit_square_by_decomposition,
    parse_elem_by_fractions,
    sqrt_by_fractions,
    sqrt_gen,
    unit_power_decomposition,
    units_with_coeff_bound,
)
from relquad import classes
from relquad import field as field_module
from relquad.arith import BoundExceeded
from relquad.classes import _cf_step
from relquad.field import (
    Elem,
    QuadField,
    coords_is_square,
    coords_mul,
    coords_sqrt,
    fundamental_unit,
    is_unit_square,
    make_field,
    parse_elem,
    roots_of_unity,
    unit_square_class_reps,
)
from relquad.ideals import primes_above


def test_make_field_conventions():
    K5 = make_field(5)
    assert K5.disc == 5 and K5.omega_trace == 1  # w = (1+sqrt5)/2
    K10 = make_field(10)
    assert K10.disc == 40 and K10.omega_trace == 0  # w = sqrt10
    Km15 = make_field(-15)
    assert Km15.disc == -15 and Km15.omega_trace == 1
    assert make_field().degree == 1


@pytest.mark.parametrize("bad", [0, 1, 4, 12, -4, 18])
def test_make_field_rejects(bad):
    # make_field and a direct QuadField refuse d alike, and publish nothing
    for build in (make_field, QuadField):
        with pytest.raises(ValueError, match="squarefree"):
            build(bad)
    assert bad not in field_module._FIELDS


def test_field_hash_stored_and_equality():
    # one object per field, so equality is identity: QuadField defines no
    # __eq__ or __hash__ and uses object's, which run in C
    K = QuadField(5)
    assert K is make_field(5)
    assert "__eq__" not in vars(QuadField) and "__hash__" not in vars(QuadField)
    assert hash(K) == object.__hash__(K)
    assert K == make_field(5) and make_field(5) == K and K != make_field(13)
    assert QuadField(None) is make_field() and hash(QuadField(None)) == hash(make_field())


def test_make_field_normalises_its_argument():
    # (), (None), (5) and (d=5) are one field each, with or without
    # make_field; the lru_cache it had kept () and (None,) apart, so Q
    # existed twice
    assert make_field() is make_field(None) is make_field(d=None) is QuadField(None) is QuadField()
    assert make_field(5) is make_field(d=5) is QuadField(5) is QuadField(d=5)
    # d is read as an integer index, so no float or text is a second key
    for bad in (5.0, "5", Fraction(5)):
        with pytest.raises(TypeError):
            make_field(bad)


def _field_states():
    return {d: (K, dict(vars(K))) for d, K in field_module._FIELDS.items()}


def test_copies_of_a_field_are_the_field():
    # copy, deepcopy and a pickle round trip hand back the interned object
    # and leave every interned field as it was
    for d in (None, 5, -15, 10):
        K = make_field(d)
        before = _field_states()
        for twin in (copy.copy(K), copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
            assert twin is K, d
        e = K.elem(3) if d is None else K.elem(Fraction(1, 2), -3)
        assert copy.deepcopy(e) == e and copy.deepcopy(e).field is K
        assert pickle.loads(pickle.dumps([K, e])) == [K, e]
        assert _field_states() == before, d


def test_an_interned_field_refuses_assignment():
    # every user of a d shares its field, so an assignment would change the
    # arithmetic of all of them: omega_norm = 3 would make w^2 print -3+1*w
    K = make_field(5)
    before = _field_states()
    with pytest.raises(AttributeError, match="QuadField is immutable: cannot set omega_norm"):
        K.omega_norm = 3
    assert str(K.elem(0, 1) ** 2) == "1+1*w"
    assert _field_states() == before


def test_interned_fields_and_primes_refuse_deletion():
    # a deletion would break every user of the shared object: without
    # omega_norm, w^2 in Q(sqrt 7) raised AttributeError, and without p,
    # the prime's norm() did
    K = make_field(7)
    P = primes_above(make_field(5), 11)[0]
    before = _field_states()
    with pytest.raises(AttributeError, match="QuadField is immutable: cannot delete omega_norm"):
        del make_field(7).omega_norm
    with pytest.raises(AttributeError, match="PrimeIdeal is immutable: cannot delete p"):
        del primes_above(make_field(5), 11)[0].p
    assert str(K.elem(0, 1) ** 2) == "7" and K.omega_norm == -7
    assert P.p == 11 and P.norm() == 11 and P is primes_above(make_field(5), 11)[0]
    assert _field_states() == before


def test_norm_trace_examples(Q10, Q5):
    s = sqrt_gen(Q10)
    assert s.norm() == -10 and elem_trace(s) == 0
    delta = Q5.elem(-2, -1)  # -(5+sqrt5)/2
    assert delta.norm() == 5
    assert is_totally_negative(delta)
    e = Q10.elem(-2, 1)  # -2+sqrt10: mixed signs since 10 > 4
    assert not is_totally_negative(e)
    assert e.sign_at(0) == 1 and e.sign_at(1) == -1


def test_conj_identities(Q5):
    e = Q5.elem(Fraction(3, 2), Fraction(-7, 2))
    assert e * e.conj() == Q5.elem(e.norm())
    assert e + e.conj() == Q5.elem(elem_trace(e))


def test_division_exact(Q10):
    a = Q10.elem(3, 5)
    b = Q10.elem(-2, 7)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / Q10.zero


@given(
    st.tuples(*(st.integers(-60, 60) for _ in range(4))),
    st.sampled_from([5, 10, -15, 2, -1, -3]),
)
def test_norm_trace_multiplicative(coords, d):
    K = make_field(d)
    e1 = K.elem(coords[0], coords[1])
    e2 = K.elem(coords[2], coords[3])
    assert (e1 * e2).norm() == e1.norm() * e2.norm()
    assert elem_trace(e1 + e2) == elem_trace(e1) + elem_trace(e2)


def test_sign_against_interval_oracle():
    rng = random.Random(20260808)
    fields = [make_field(d) for d in (2, 5, 10, 15, 195)]
    for _ in range(1000):
        K = rng.choice(fields)
        e = K.elem(
            Fraction(rng.randint(-999, 999), rng.randint(1, 50)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 50)),
        )
        if not e:
            continue
        for i in (0, 1):
            assert e.sign_at(i) == interval_sign(e, i)


def test_fundamental_units():
    K5 = make_field(5)
    eps5 = fundamental_unit(K5)
    assert eps5 == K5.omega  # (1+sqrt5)/2
    assert eps5.norm() == -1
    K10 = make_field(10)
    eps10 = fundamental_unit(K10)
    assert eps10 == K10.elem(3, 1) and eps10.norm() == -1
    K2 = make_field(2)
    assert fundamental_unit(K2) == K2.elem(1, 1)
    with pytest.raises(ValueError):
        fundamental_unit(make_field(-15))
    with pytest.raises(ValueError):
        fundamental_unit(make_field())


def test_fundamental_unit_step_cap(monkeypatch):
    # the period of w for d = 94 is longer than 3 steps; the uncached
    # search must stop at the cap and name both d and the cap
    monkeypatch.setattr(classes, "CF_STEP_BOUND", 3)
    with pytest.raises(BoundExceeded, match=r"continued fraction of omega .*d=94: 4 > 3") as exc:
        fundamental_unit.__wrapped__(make_field(94))
    assert exc.value.bound == 3
    monkeypatch.setattr(classes, "_cf_step", lambda P, Q, D, s: (1, 0, 0))
    with pytest.raises(AssertionError, match="d=94"):
        fundamental_unit.__wrapped__(make_field(94))
    monkeypatch.undo()
    eps = fundamental_unit.__wrapped__(make_field(94))
    assert abs(eps.norm()) == 1 and eps.sign_at(0) > 0


def test_fundamental_unit_of_44278_bits():
    # the unit of Q(sqrt 999999937), 44,278 and 44,264 bits, from one walk
    # that evaluates the norm form only on its hit
    K = make_field(999999937)
    start = time.process_time()
    eps = fundamental_unit.__wrapped__(K)
    spent = time.process_time() - start
    assert (eps - 1).sign_at(0) > 0 and abs(eps.norm()) == 1
    assert (eps.X.bit_length(), eps.Y.bit_length(), eps.m) == (44278, 44264, 1)
    assert spent < 1, spent


def test_a_forged_convergent_hit_raises(monkeypatch):
    # complete quotients that all read |Q| = 2 claim a hit at every step:
    # the exact confirmation f(p, q) = +-1 refuses the first one, naming the
    # field or the ideal (a walk without it would run to the step cap)
    monkeypatch.setattr(classes, "_cf_step", lambda P, Q, D, s: (1, 0, 2))
    monkeypatch.setattr(classes, "CF_STEP_BOUND", 50)
    with pytest.raises(AssertionError, match="d=94"):
        fundamental_unit.__wrapped__(make_field(94))
    I = primes_above(make_field(10), 2)[0].ideal
    with pytest.raises(AssertionError, match=re.escape(str(I))):
        classes._cf_generator.__wrapped__(I)


@pytest.mark.parametrize("D", [5, 8, 12, 13, 40, 184, 40028])
def test_cf_step_floors_for_both_signs_of_q(D):
    # a = floor((P + sqrt D)/Q) for Q of either sign, checked on integers:
    # with v = P - a*Q, Q > 0 needs 0 <= v + sqrt D < Q, and Q < 0 needs
    # Q < v + sqrt D <= 0 (never 0 for nonsquare D)
    def sqrt_d_above(x):  # x < sqrt D, exactly
        return x < 0 or x * x < D

    s = isqrt(D)
    for P in range(-70, 71):
        for Q in range(-70, 71):
            if Q == 0 or (D - P * P) % Q:
                continue
            a, P1, Q1 = _cf_step(P, Q, D, s)
            v = P - a * Q
            lo, hi = (-v, Q - v) if Q > 0 else (Q - v, -v)
            assert sqrt_d_above(lo) and not sqrt_d_above(hi), (D, P, Q, a)
            assert P1 == -v and Q1 * Q == D - P1 * P1, (D, P, Q)


@pytest.mark.parametrize("d", [2, 5, 10, 15])
def test_fundamental_unit_minimal_in_box(d):
    # independent oracle: exhaustive search over small coefficients
    K = make_field(d)
    eps = fundamental_unit(K)
    units = units_with_coeff_bound(K, 10)
    bigger_than_one = [u for u in units if (u - 1).sign_at(0) > 0]
    assert eps in bigger_than_one
    for u in bigger_than_one:
        assert (u - eps).sign_at(0) >= 0  # eps is least


@pytest.mark.parametrize("d", [2, 5, 10])
def test_every_small_unit_is_plus_minus_eps_power(d):
    K = make_field(d)
    eps = fundamental_unit(K)
    for u in units_with_coeff_bound(K, 50):
        zeta, k = unit_power_decomposition(u)
        assert zeta * eps**k == u


def test_is_unit_square_examples():
    K5 = make_field(5)
    eps = fundamental_unit(K5)
    assert is_unit_square(eps * eps)
    assert not is_unit_square(-K5.one)
    K10 = make_field(10)
    assert not is_unit_square(fundamental_unit(K10))
    with pytest.raises(ValueError):
        is_unit_square(K10.elem(2))


def test_is_unit_square_matches_decomposition():
    # +-eps^k and their conjugates in real fields, products of roots of
    # unity in imaginary fields and Q, against the +-eps^k oracle
    units = []
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29, 97):
        K = make_field(d)
        eps = fundamental_unit(K)
        for k in range(-7, 8):
            for u in (eps**k, -(eps**k)):
                units += [u, u.conj()]
    for d in (None, -1, -3, -15, -5, -7):
        zs = roots_of_unity(make_field(d))
        units += [z1 * z2 for z1 in zs for z2 in zs]
    assert len(units) == 1088
    for u in units:
        assert is_unit_square(u) == is_unit_square_by_decomposition(u), u


def test_unit_square_stability():
    rng = random.Random(7)
    for d in (5, 10, -1, -3, -15):
        K = make_field(d)
        reps = unit_square_class_reps(K)
        if K.is_real_quadratic:
            eps = fundamental_unit(K)
            units = [z * eps**k for z in (K.one, -K.one) for k in range(-3, 4)]
        else:
            units = roots_of_unity(K)
        for u in units:
            v = rng.choice(units)
            assert is_unit_square(u * v * v) == is_unit_square(u)
        # reps are pairwise inequivalent modulo unit squares and cover all units
        for i, r in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert not is_unit_square(r / r2)
        for u in units:
            assert sum(1 for r in reps if is_unit_square(u / r)) == 1


def test_roots_of_unity_counts():
    assert len(roots_of_unity(make_field(-1))) == 4
    assert len(roots_of_unity(make_field(-3))) == 6
    assert len(roots_of_unity(make_field(-15))) == 2
    assert len(unit_square_class_reps(make_field(-1))) == 2
    assert len(unit_square_class_reps(make_field(10))) == 4


def test_elem_text_roundtrip():
    K = make_field(10)
    for e in [
        K.elem(Fraction(-5, 2), Fraction(1, 3)),
        K.elem(0, -1),
        K.elem(7),
        K.omega,
        K.elem(Fraction(1, 2), Fraction(-3, 4)),
        K.elem(Fraction(-7, 6)),
        K.elem(0, Fraction(5, 12)),
        K.elem(Fraction(2, 3), Fraction(4, 3)),
        K.elem(Fraction(3, 4), Fraction(-1, 6)),
        K.elem(0, 12),
        K.elem(0, Fraction(-12, 5)),
    ]:
        assert parse_elem(K, str(e)) == e
    Q = make_field()
    assert parse_elem(Q, "-12") == Q.elem(-12)
    assert parse_elem(K, "w") == K.omega
    assert parse_elem(K, "-w") == -K.omega
    with pytest.raises(ValueError):
        parse_elem(K, "3 w")


ORACLE_TEXT_FIELDS = (None, 5, 10, -15, -1, 2)


def test_elem_text_matches_fraction_oracle():
    # str(e) from the integers X, Y, m against the text of the Fractions
    # x and y: zero and negative coordinates, and m in {1, 2, 3, 4, 6, 12}
    # before the gcd normalisation of Elem
    rng = random.Random(20271019)
    for d in ORACLE_TEXT_FIELDS:
        K = make_field(d)
        for _ in range(500):
            X, Y = (rng.choice((0, rng.randint(-30, 30), rng.randint(-(10**25), 10**25))) for _ in "XY")
            e = Elem(K, X, 0 if K.is_rational else Y, rng.choice((1, 2, 3, 4, 6, 12)))
            assert str(e) == elem_text_by_fractions(e), (d, e.X, e.Y, e.m)


def _parse_outcome(parse, K, text):
    try:
        return parse(K, text)
    except Exception as exc:
        return type(exc), str(exc)


PARSE_TEXTS = [
    "0", "-0", "+3", "-12", "3/6", "-4/6", "+7/1", "0/5", "w", "-w", "+w", "2*w", "-2*w",
    "3/4*w", "1+w", "1-w", "1 + 2 * w", " -5/2 - 1/3*w ", "12-6/4*w", "-0-0*w", "7+0/3*w",
    "12*w", "-12*w", "+12*w", "5/12*w", "-123/45*w", "1 2*w", "12w", "12/*w",
    "3/0", "1+3/0*w", "0/0*w", "3 w", "3w", "w+1", "", " ", "1/", "/2", "2*", "1+-w", "1.5",
    "--1", "1e3", "1_000", "\u0663+\u0664*w", "x", "+-3", "5*w*w", "9" * 5000, "-" + "9" * 5000,
]


def test_parse_elem_matches_fraction_oracle():
    # integer text read by int against every coordinate read by Fraction:
    # the same element, or the same exception type and text
    rng = random.Random(20271020)
    for d in ORACLE_TEXT_FIELDS:
        K = make_field(d)
        texts = list(PARSE_TEXTS)
        for _ in range(200):
            X, Y = rng.randint(-40, 40), 0 if K.is_rational else rng.randint(-40, 40)
            text = str(Elem(K, X, Y, rng.choice((1, 2, 3, 4, 6, 12))))
            texts += [text, text.replace("+", " + ").replace("*", " * "), text + "  "]
        for text in texts:
            assert _parse_outcome(parse_elem, K, text) == _parse_outcome(parse_elem_by_fractions, K, text), (d, text)


def test_sqrt_and_is_square_grid():
    # (x + y w)/k with |x|, |y| <= 12 and k <= 3: 9450 elements over six fields
    seen = 0
    for d in (None, 5, 10, -15, -1, 13):
        K = make_field(d)
        ys = range(-12, 13) if K.degree == 2 else (0,)
        for k in (1, 2, 3):
            for x in range(-12, 13):
                for y in ys:
                    g = K.elem(Fraction(x, k), Fraction(y, k))
                    r = (g * g).sqrt()
                    assert r in (g, -g), (K, g, r)
                    s = g.sqrt()
                    if s is not None:
                        assert s * s == g, (K, g, s)
                    assert g.is_square() == (s is not None)
                    seen += 1
    assert seen == 9450


def test_sqrt_kernel_matches_fraction_oracle():
    # the grid above and the rationals d*a/k, where d | A in sqrt(d)
    # coordinates, each with its square: Elem.sqrt returns the same root as
    # the Fraction route, and coords_is_square / coords_sqrt agree with it
    # on the integer coordinates m*(X + Y*w) of m^2 * g
    seen = squares = 0
    for d in (None, 5, 10, -15, -1, 13):
        K = make_field(d)
        ys = range(-12, 13) if K.degree == 2 else (0,)
        elems = [
            K.elem(Fraction(x, k), Fraction(y, k))
            for k in (1, 2, 3)
            for x in range(-12, 13)
            for y in ys
        ]
        if d is not None:
            elems += [K.elem(Fraction(d * a, k)) for a in range(-12, 13) for k in (1, 2, 3)]
        for g in elems + [g * g for g in elems]:
            expected = sqrt_by_fractions(g)
            assert g.sqrt() == expected, (K, g)
            X, Y, m = g.X, g.Y, g.m
            root = coords_sqrt(K, m * X, m * Y)
            assert coords_is_square(K, m * X, m * Y) == (expected is not None) == (root is not None)
            if root is not None:
                assert K.elem(*root) == expected * m, (K, g)
                squares += 1
            seen += 1
    assert seen == 2 * (9450 + 5 * 75) and squares > 9450


def test_coords_mul_matches_elem_product():
    for d in (None, 5, 10, -15, -3):
        K = make_field(d)
        ys = range(-4, 5) if K.degree == 2 else (0,)
        pairs = [(x, y) for x in range(-5, 6) for y in ys]
        for x1, y1 in pairs:
            for x2, y2 in pairs[::7]:
                assert K.elem(*coords_mul(K, x1, y1, x2, y2)) == K.elem(x1, y1) * K.elem(x2, y2)


def test_pow_matches_repeated_multiplication():
    for d in (None, 5, 10, -15, -3):
        K = make_field(d)
        for g in (K.elem(Fraction(3, 2)), K.elem(2, 1) if K.degree == 2 else K.elem(-7)):
            expected = K.one
            for k in range(20):
                assert g**k == expected, (K, g, k)
                assert g ** (-k) == K.one / expected, (K, g, k)
                expected = expected * g


# Q, d = -1 and -3, and squarefree d = 1 and d != 1 (mod 4) of both signs
PROPERTY_FIELDS = (
    [None, -1, -3]
    + [5, 13, 17, 21, 33, 105, -7, -11, -15, -19, -23]
    + [2, 3, 6, 7, 10, 15, -2, -5, -6, -10]
)
_rationals = st.one_of(st.just(0), st.fractions(min_value=-60, max_value=60, max_denominator=12))


def _same(e, f) -> bool:
    # an integer Elem and a FractionElem (or None) denote the same element
    if e is None or f is None:
        return e is None and f is None
    return (e.x, e.y) == (f.x, f.y) and str(e) == str(f) and e.key() == f.key()


@settings(max_examples=400)
@given(
    st.sampled_from(PROPERTY_FIELDS),
    st.tuples(_rationals, _rationals),
    st.tuples(_rationals, _rationals),
    st.integers(-4, 5),
)
def test_integer_elem_matches_fraction_oracle(d, c1, c2, k):
    K = make_field(d)
    if K.is_rational:
        c1, c2 = (c1[0], 0), (c2[0], 0)
    a, b = K.elem(*c1), K.elem(*c2)
    fa, fb = (FractionElem(K, Fraction(x), Fraction(y)) for x, y in (c1, c2))
    assert len(PROPERTY_FIELDS) == 24
    assert a.m >= 1 and (a.X, a.Y, a.m) == fa.integer_coords()
    assert _same(a, fa) and _same(b, fb)
    assert _same(a + b, fa + fb) and _same(a - b, fa - fb) and _same(a * b, fa * fb)
    third = Fraction(1, 3)
    assert _same(a + 3, fa + 3) and _same(2 - a, 2 - fa) and _same(a * third, fa * third)
    if b:
        assert _same(a / b, fa / fb) and _same(1 / b, 1 / fb)
    if a or k >= 0:
        assert _same(a**k, fa**k)
    assert _same(a.conj(), fa.conj()) and _same(-a, -fa)
    for got, expected in ((a.norm(), fa.norm()), (elem_trace(a), fa.trace())):
        assert got == expected and type(got) is type(expected) is Fraction
    assert a.is_integral() == fa.is_integral()
    half = K.d is not None and K.d % 4 == 1  # w = (1 + sqrt(d))/2
    assert a.as_sqrt_coords() == ((fa.x + fa.y / 2, fa.y / 2) if half else (fa.x, fa.y))
    for i in K.real_embeddings:
        assert a.sign_at(i) == fa.sign_at(i)
    for e, f in ((a, fa), (a * a, fa * fa), (a * b * b, fa * fb * fb)):
        assert _same(e.sqrt(), f.sqrt()) and e.is_square() == f.is_square()
    assert (a == b) == (fa == fb) and (a.key() < b.key()) == (fa.key() < fb.key())
    assert a == K.elem(*c1) and hash(a) == hash(K.elem(*c1))
    if a == b:
        assert hash(a) == hash(b)
