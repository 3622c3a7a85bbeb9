import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relquad

from helpers import (
    _norm_row,
    balanced_associate,
    box_principal_generator,
    class_number,
    divisors_by_norm,
    factor_by_products,
    ideal_lcm,
    ideal_power_by_vectors,
    ideal_product_by_vectors,
    ideals_of_norm_by_products,
    primes_upto,
    principal_ideal_by_vectors,
    row_principal_generator,
    sqrt_gen,
    square_root_coords_by_box,
    valuation_by_division,
)
from relquad.arith import BoundExceeded, is_squarefree
from relquad.counting import ideal_count_table
from relquad import counting, ideals
from relquad import field as field_module
from relquad.field import Elem, QuadField, _window_least, coords_mul, fundamental_unit, make_field
from relquad.ideals import (
    FACTOR_CACHE_SIZE,
    Ideal,
    PrimeIdeal,
    _hnf_from_vectors,
    coords_valuation,
    ideal_from_generators,
    ideals_of_norm,
    parse_ideal,
    primes_above,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)


def p2_of(K10):
    return ideal_from_generators(K10, [K10.elem(2), sqrt_gen(K10)])


def test_from_generators_examples(Q10):
    p2 = p2_of(Q10)
    assert p2.norm() == 2
    assert unit_ideal(Q10) == ideal_from_generators(Q10, [Q10.one])
    p3 = ideal_from_generators(Q10, [Q10.elem(3), sqrt_gen(Q10) + 1])
    assert p3.norm() == 3  # HNF determinant
    with pytest.raises(ValueError):
        ideal_from_generators(Q10, [Q10.zero])


def test_hnf_unique_under_regeneration(Q10, Q5):
    rng = random.Random(11)
    for K in (Q10, Q5):
        for _ in range(40):
            gens = [
                K.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(3)
            ]
            if not any(gens):
                continue
            I = ideal_from_generators(K, gens)
            rng.shuffle(gens)
            # rescale by a unit and regenerate from products
            J = ideal_from_generators(K, [g * -1 for g in gens] + [gens[0] + gens[1]])
            assert I == J and I.hnf == J.hnf and I.den == J.den


def test_arithmetic_examples(Q10, Q):
    p2 = p2_of(Q10)
    assert p2 * p2 == principal_ideal(Q10.elem(2))  # 2 ramifies, 2 | 40
    a = ideal_from_generators(Q10, [Q10.elem(3, 1), Q10.elem(7, 2)])
    assert a * a.inverse() == unit_ideal(Q10)
    four, six = principal_ideal(Q.elem(4)), principal_ideal(Q.elem(6))
    assert four.gcd(six) == principal_ideal(Q.elem(2))
    assert four.gcd(six) * ideal_lcm(four, six) == four * six


def test_norm_multiplicative_random(test_fields):
    rng = random.Random(3)
    for K in test_fields:
        pool = [a for n in range(1, 40) for a in ideals_of_norm(K, n)]
        for _ in range(2500):
            a, b = rng.choice(pool), rng.choice(pool)
            assert (a * b).norm() == a.norm() * b.norm()


def test_factor_examples(Q10, Q5, Q):
    p2 = p2_of(Q10)
    f = principal_ideal(Q10.elem(-4)).factor()
    assert f == [(next(P for P, _ in f), 4)] and f[0][0].ideal == p2
    f12 = principal_ideal(Q.elem(12)).factor()
    assert [(P.p, e) for P, e in f12] == [(2, 2), (3, 1)]
    delta = Q5.elem(-2, -1)  # -(5+sqrt5)/2, norm 5
    fd = principal_ideal(delta).factor()
    assert len(fd) == 1 and fd[0][1] == 1 and fd[0][0].p == 5 and fd[0][0].ramified


@pytest.mark.parametrize("bound", [500])
def test_factor_roundtrip_sweep(test_fields, bound):
    # factor() raises unless the prime powers reassemble to the input; the
    # product is checked here as well, since a memoised factor() runs its
    # own check only the first time it sees an ideal
    for K in test_fields:
        for n in range(1, bound + 1):
            for a in ideals_of_norm(K, n):
                rebuilt = unit_ideal(K)
                for P, e in a.factor():
                    rebuilt = rebuilt * P.ideal**e
                assert rebuilt == a, (K, a)


def test_residues_examples(Q10):
    two = principal_ideal(Q10.elem(2))
    reps = two.residues()
    assert len(reps) == 4
    assert {(int(r.x), int(r.y)) for r in reps} == {(0, 0), (1, 0), (0, 1), (1, 1)}
    p2 = p2_of(Q10)
    assert len(p2.residues()) == 2
    assert [e.x for e in unit_ideal(Q10).residues()] == [0]
    with pytest.raises(ValueError):
        (p2 * Fraction(1, 2)).residues()


def test_residues_pairwise_incongruent(Q10, Qm15):
    for K in (Q10, Qm15):
        a = ideals_of_norm(K, 12)[0]
        reps = a.residues()
        assert len(reps) == 12
        seen = {a.reduce(r).key() for r in reps}
        assert len(seen) == 12


def test_crt_bijective(test_fields):
    rng = random.Random(5)
    for K in test_fields:
        pool = [i for n in range(2, 15) for i in ideals_of_norm(K, n)]
        done = 0
        while done < 6:
            a, b = rng.choice(pool), rng.choice(pool)
            if not a.gcd(b).is_unit_ideal():
                continue
            ab = a * b
            if ab.norm_int() > 200:
                continue
            images = {(a.reduce(r).key(), b.reduce(r).key()) for r in ab.residues()}
            assert len(images) == ab.norm_int() == a.norm_int() * b.norm_int()
            done += 1


def test_principal_examples(Q10, Q5):
    s5 = principal_ideal(sqrt_gen(Q5))
    g = s5.principal_generator()
    assert g is not None and principal_ideal(g) == s5
    assert p2_of(Q10).principal_generator() is None  # class number 2
    p3 = ideal_from_generators(Q10, [Q10.elem(3), sqrt_gen(Q10) + 1])
    assert p3.principal_generator() is None
    # fractional principal
    half = principal_ideal(Q10.elem(Fraction(3, 2), Fraction(1, 2)))
    g = half.principal_generator()
    assert g is not None and principal_ideal(g) == half


def test_principal_matches_norm_form_oracle(Q10):
    # p principal in Q(sqrt 10) iff x^2 - 10 y^2 = +-p has a solution;
    # box bound 70 covers norms <= 100 since |x| <= sqrt(p)*eps < 62.
    # (The class split is 11 principal / 16 not at this bound; an exact
    # 50/50 split only holds asymptotically.)
    prime_ideals = []
    for p in range(2, 101):
        if all(p % q for q in range(2, p)):
            prime_ideals += [P for P in primes_above(Q10, p) if P.norm() <= 100]
    by_class = {True: 0, False: 0}
    for P in prime_ideals:
        found = P.ideal.principal_generator() is not None
        if P.residue_degree == 1:
            p = P.p
            sol = any(
                abs(x * x - 10 * y * y) == p
                for x in range(71)
                for y in range(71)
            )
            assert sol == found
        by_class[found] += 1
    assert by_class[True] == 11 and by_class[False] == 16


def test_divisor_sums(Q10, Q):
    p2 = p2_of(Q10)
    assert p2.moebius() == -1
    assert (p2 * p2).moebius() == 0
    two = principal_ideal(Q10.elem(2))
    assert two.divisors() == [unit_ideal(Q10), p2, two]


def test_divisors_match_norm_oracle_cold_and_warm():
    # every integral ideal of norm < 60 on Q and four quadratic fields, its
    # divisors against those of each norm dividing its norm, first with the
    # divisors memo empty, then with it filled by the first pass
    cases = [I for d in (None, 5, 10, -15, -1) for n in range(1, 60) for I in ideals_of_norm(make_field(d), n)]
    expected = [divisors_by_norm(I) for I in cases]
    ideals._divisors.cache_clear()
    assert [I.divisors() for I in cases] == expected
    warm = ideals._divisors.cache_info()
    assert warm.currsize == len(cases) and warm.maxsize == FACTOR_CACHE_SIZE
    assert [I.divisors() for I in cases] == expected
    assert ideals._divisors.cache_info().misses == warm.misses
    assert sum(map(len, expected)) > 2 * len(cases) > 400


def test_divisors_return_fresh_list(Q10):
    I = principal_ideal(Q10.elem(12))
    first = I.divisors()
    expected = list(first)
    first.append(first[0])
    first[0] = I
    assert I.divisors() == expected
    assert I.divisors() is not I.divisors()
    with pytest.raises(ValueError, match="integral ideal required"):
        I.inverse().divisors()


def test_ideals_of_norm(Q10):
    assert ideals_of_norm(Q10, 2) == [p2_of(Q10)]
    assert len(ideals_of_norm(Q10, 3)) == 2  # kronecker(40,3)=1, split
    assert ideals_of_norm(Q10, 1) == [unit_ideal(Q10)]
    counts = ideal_count_table(Q10, 79)
    for n in range(1, 80):
        assert len(ideals_of_norm(Q10, n)) == counts[n]


def test_class_numbers():
    assert class_number(make_field(5)) == 1
    assert class_number(make_field(10)) == 2
    assert class_number(make_field(-15)) == 2
    assert class_number(make_field(-1)) == 1
    assert class_number(make_field(195)) == 4  # Cl(K) = [2,2] for disc 780


def test_principality_with_a_large_fundamental_unit():
    # eps has 30 digits in Q(sqrt 10007), so a search over the rows of the
    # fundamental-unit box would walk about eps*sqrt(N/d) rows; the walk
    # over a continued-fraction period decides each prime in milliseconds
    K = make_field(10007)
    for p in primes_upto(50):
        for P in primes_above(K, p):
            g = P.ideal.principal_generator()
            assert g is not None and principal_ideal(g) == P.ideal, P
    assert class_number(make_field(94)) == 1
    assert class_number(K) == 1


def test_valuation_fractional(Q10):
    p2 = p2_of(Q10)
    a = p2.ideal if hasattr(p2, "ideal") else p2
    frac = a * Fraction(1, 2)
    # v_p2((1/2) * p2) = 1 - 2 = -1
    P2 = next(P for P, _ in principal_ideal(Q10.elem(2)).factor())
    assert frac.valuation(P2) == -1


def test_parse_and_pretty(Q10, Q):
    p2 = p2_of(Q10)
    assert parse_ideal(Q10, str(p2)) == p2
    assert parse_ideal(Q10, "(2, w)") == p2
    assert parse_ideal(Q10, p2.pretty()) == p2
    assert parse_ideal(Q, "[12]/5") == principal_ideal(Q.elem(Fraction(12, 5)))
    assert principal_ideal(Q10.elem(2)).pretty() == "(2)"
    with pytest.raises(ValueError):
        parse_ideal(Q, "[[1,0],[0,1]]")


def test_integer_conj_and_inverse():
    for d in (5, 10, -15, -1, 13):
        K = make_field(d)
        ideals = [I for n in range(1, 61) for I in ideals_of_norm(K, n)]
        ideals += [I * P.ideal.inverse() for I in list(ideals) for P in primes_above(K, 2)]
        for I in ideals:
            by_elems = ideal_from_generators(K, [e.conj() for e in I.basis_elems()])
            assert I.conj() == by_elems, (K, I)
            assert (I * I.inverse()).is_unit_ideal(), (K, I)


def _module_of_elems(K, gens):
    """The O-module spanned by gens, built from Elem products."""
    den = lcm(*(c.denominator for g in gens for c in (g.x, g.y)))
    vecs = [(int(h.x * den), int(h.y * den)) for g in gens for h in (g, g * K.omega)]
    return Ideal(K, _hnf_from_vectors(vecs), den)


def test_from_generators_matches_elem_route(test_fields, Q):
    # 4/3 Z + 6/5 Z = 2/15 Z
    assert ideal_from_generators(Q, [Fraction(4, 3), Fraction(6, 5)]) == Ideal(Q, (2,), 15)
    rng = random.Random(17)
    for K in test_fields[1:]:
        for _ in range(200):
            gens = [
                K.elem(
                    Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 6))),
                    Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 5))),
                )
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if g]
            if gens:
                assert ideal_from_generators(K, gens) == _module_of_elems(K, gens)


def test_primes_above_returns_fresh_list(Q10):
    first = primes_above(Q10, 3)
    expected = list(first)
    first.clear()
    assert primes_above(Q10, 3) == expected and len(expected) == 2


def test_primes_above_rejects_non_primes(Q, Q5):
    # a composite, a unit and a prime power are refused with a ValueError
    # naming p and the field, not answered or failed as an internal invariant
    for K, p in ((Q, 4), (Q, 1), (Q5, 9), (Q5, 4)):
        message = rf"primes above {p} in {re.escape(str(K))}: {p} is not a prime"
        with pytest.raises(ValueError, match=message):
            primes_above(K, p)
    assert [P.p for P in primes_above(Q5, 11)] == [11, 11]


def test_prime_ideal_built_by_hand_equals_the_interned_one():
    # one object per prime: a PrimeIdeal written out from the same values is
    # the interned prime, on every route; values no prime above p has are
    # refused; equality and the hash are object's own
    assert "__eq__" not in vars(PrimeIdeal) and "__hash__" not in vars(PrimeIdeal)
    for d in (None, 5, 10, -15, -1):
        K = make_field(d)
        for p in (2, 3, 5, 7):
            for P in primes_above(K, p):
                copy = PrimeIdeal(P.p, Ideal(K, P.ideal.hnf, P.ideal.den), P.residue_degree, P.ramified)
                assert copy is P and hash(copy) == object.__hash__(P)
                assert {P: p}[copy] == p
                with pytest.raises(ValueError, match=f"no prime above {p} in "):
                    PrimeIdeal(P.p, P.ideal, P.residue_degree, not P.ramified)
                with pytest.raises(ValueError, match=f"no prime above {p} in "):
                    PrimeIdeal(P.p, P.ideal * 2, P.residue_degree, P.ramified)
                assert P != P.ideal and P.ideal != P
                with pytest.raises(AttributeError):
                    P.ramified = not P.ramified
                assert repr(P) == (
                    f"PrimeIdeal(p={p}, ideal={P.ideal!r}, residue_degree={P.residue_degree}, "
                    f"ramified={P.ramified})"
                )


def _prime_states():
    return {key: [(P, P.p, P.ideal, P.residue_degree, P.ramified) for P in ps] for key, ps in ideals._PRIMES.items()}


def test_copies_of_a_prime_are_the_prime():
    # copy, deepcopy and a pickle round trip hand back the interned prime
    # and leave every interned prime and field as it was
    for d in (None, 5, 10, -15):
        K = make_field(d)
        for p in (2, 3, 5, 7):
            for P in primes_above(K, p):
                fields = {e: (F, dict(vars(F))) for e, F in field_module._FIELDS.items()}
                primes = _prime_states()
                for twin in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
                    assert twin is P, (d, p)
                ((Q, v),) = pickle.loads(pickle.dumps(P.power(2).factor()))
                assert Q is P and v == 2
                assert {e: (F, dict(vars(F))) for e, F in field_module._FIELDS.items()} == fields
                assert _prime_states() == primes


def test_first_field_and_primes_under_threads(monkeypatch):
    # eight threads ask at once for a field no one has built and for the
    # primes above 3 in it; each builds its own objects before any is
    # published, and all of them get the one object published first
    d = next(d for d in range(10**6 + 3, 10**7) if is_squarefree(d) and d not in field_module._FIELDS)
    builds = {"field": [], "primes": []}

    def gated(kind, fn):
        barrier = threading.Barrier(8)

        def run(*args):
            out = fn(*args)
            builds[kind].append(out)
            try:
                barrier.wait(timeout=10)
            except threading.BrokenBarrierError:
                pass
            return out

        return run

    monkeypatch.setattr(field_module, "_build_field", gated("field", field_module._build_field))
    monkeypatch.setattr(ideals, "_find_primes_above", gated("primes", ideals._find_primes_above))
    got = []

    def work():
        K = make_field(d)
        got.append((K, tuple(primes_above(K, 3))))

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len({id(b) for b in built}) for built in builds.values()] == [8, 8]
    K, ps = got[0]
    assert len(got) == 8 and K is make_field(d) and K.d == d
    assert all(F is K and len(qs) == len(ps) and all(q is P for q, P in zip(qs, ps)) for F, qs in got)
    assert all(P is Q for P, Q in zip(primes_above(K, 3), ps))


def test_copies_of_an_ideal_are_the_ideal():
    # copy, deepcopy and a pickle round trip hand back the interned ideal,
    # over Q and two quadratic fields, integral and fractional
    for d in (None, 10, -15):
        K = make_field(d)
        pool = [unit_ideal(K), *ideals_of_norm(K, 12), primes_above(K, 3)[0].ideal.inverse()]
        for I in pool:
            for twin in (copy.copy(I), copy.deepcopy(I), pickle.loads(pickle.dumps(I))):
                assert twin is I, (d, I)
        assert all(J is I for I, J in zip(pool, pickle.loads(pickle.dumps(pool))))


def test_an_ideal_refuses_assignment_and_deletion(Q10):
    # every holder of an ideal shares it, so neither may change it
    I = p2_of(Q10)
    for name in ("field", "hnf", "den", "_factors"):
        with pytest.raises(AttributeError, match=f"Ideal is immutable: cannot set {name}"):
            setattr(I, name, None)
        with pytest.raises(AttributeError, match=f"Ideal is immutable: cannot delete {name}"):
            delattr(I, name)
    assert I.hnf == (2, 0, 1) and I.den == 1 and I * I is principal_ideal(Q10.elem(2))


def _in_threads(work, count=8):
    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_new_ideals_under_threads(monkeypatch):
    # eight threads build the same new ideals.  First one ideal, with the
    # builder gated so that each thread builds its own object before any
    # is published: all of them get the object published first.  Then
    # 2,000 new ideals, each spelled two ways, in eight shuffled orders:
    # every thread gets one object per ideal, the one in the table
    K = make_field(-15)
    n = 7 * 10**6
    built, got = [], []
    barrier = threading.Barrier(8)
    new_ideal = ideals._new_ideal

    def gated(*args):
        I = new_ideal(*args)
        built.append(I)
        try:
            barrier.wait(timeout=10)
        except threading.BrokenBarrierError:
            pass
        return I

    with monkeypatch.context() as m:
        m.setattr(ideals, "_new_ideal", gated)
        _in_threads(lambda i: got.append(Ideal(K, (n, 0, n))))
    assert len({id(I) for I in built}) == 8 and len(got) == 8
    assert all(I is got[0] for I in got) and ideals._IDEALS[K, (n, 0, n), 1]() is got[0]
    sizes = range(n + 1, n + 2001)
    results = [None] * 8

    def work(i):
        order = list(sizes)
        random.Random(i).shuffle(order)
        mine = {}
        for k in order:
            mine[k] = Ideal(K, (k, 0, k)) if (k + i) % 2 else Ideal(K, (3 * k, 0, 3 * k), 3)
        results[i] = [mine[k] for k in sizes]

    _in_threads(work)
    for j, k in enumerate(sizes):
        I = results[0][j]
        assert I.hnf == (k, 0, k) and I.den == 1 and ideals._IDEALS[K, (k, 0, k), 1]() is I
        assert all(mine[j] is I for mine in results), k


def test_intern_table_holds_the_live_ideals_only():
    # building and dropping 100,000 distinct ideals leaves no entry behind:
    # after gc.collect() the table is at most the 100 ideals kept larger
    # than before, and every entry refers to a live ideal
    K = make_field(10)
    gc.collect()
    before = len(ideals._IDEALS)
    kept = []
    for n in range(10**7, 10**7 + 100_000):
        I = Ideal(K, (n, 0, n))
        if n % 1000 == 0:
            kept.append(I)
    del I
    gc.collect()
    assert len(kept) == 100 and len(ideals._IDEALS) <= before + len(kept)
    assert all(ref() is not None for ref in ideals._IDEALS.values())
    # a dead entry left in the table is replaced, never returned
    n = 3 * 10**7
    key = K, (n, 0, n), 1
    I = Ideal(K, (n, 0, n))
    dead = weakref.ref(I)
    del I
    assert key not in ideals._IDEALS and dead() is None
    ideals._IDEALS[key] = dead
    I = Ideal(K, (n, 0, n))
    assert I.hnf == (n, 0, n) and ideals._IDEALS[key]() is I


def test_hnf_valuation_matches_division_oracle():
    # every I * J^-1 with N(I) <= 60 and N(J) <= 30, at every prime above
    # 2, 3, 5 and 7: split, inert and ramified primes, integral and not
    pairs = 0
    for d in (None, 5, 10, -15, -1, 13):
        K = make_field(d)
        nums = [I for n in range(1, 61) for I in ideals_of_norm(K, n)]
        invs = [J.inverse() for n in range(1, 31) for J in ideals_of_norm(K, n)]
        primes = [P for p in (2, 3, 5, 7) for P in primes_above(K, p)]
        for I in nums:
            for Jinv in invs:
                F = I * Jinv
                for P in primes:
                    assert F.valuation(P) == valuation_by_division(F, P), (K, F, P)
                    pairs += 1
    assert pairs > 50_000


def test_coords_valuation_matches_division_oracle():
    # v_P((x + y*w)/m) read off the coordinates against dividing the
    # principal ideal by P, at every prime above 2, 3, 5, 7 and 13
    checked = 0
    for d in (None, 5, 10, -15, -1, 13):
        K = make_field(d)
        primes = [P for p in (2, 3, 5, 7, 13) for P in primes_above(K, p)]
        ys = range(-6, 7) if K.degree == 2 else [0]
        for x in range(-9, 10):
            for y in ys:
                if not (x or y):
                    continue
                for m in (1, 2, 6, 9):
                    I = principal_ideal(K.elem(Fraction(x, m), Fraction(y, m)))
                    for P in primes:
                        assert coords_valuation(P, x, y, m) == valuation_by_division(I, P), (K, x, y, m, P)
                        checked += 1
    with pytest.raises(ValueError):
        coords_valuation(primes_above(make_field(5), 5)[0], 0, 0)
    assert checked > 30_000


def test_coords_factor_matches_ideal_factor():
    # the memoised factorization read off coordinates against factoring the
    # principal ideal: Q and seven quadratic fields, real and imaginary, with
    # ramified, split and inert small primes, integral and not
    ideals._coords_factor.cache_clear()
    checked = 0
    for d in (None, -1, -3, -15, 2, 5, 10, 13):
        K = make_field(d)
        ys = range(-12, 13) if K.degree == 2 else [0]
        for x in range(-12, 13):
            for y in ys:
                if not (x or y):
                    continue
                for m in (1, 2, 3, 4, 6):
                    expected = tuple(principal_ideal(Elem(K, x, y, m)).factor())
                    assert ideals._coords_factor(K, x, y, m) == expected, (K, x, y, m)
                    checked += 1
    assert checked == 24 * 5 + 7 * 624 * 5
    assert ideals._coords_factor.cache_info().maxsize == FACTOR_CACHE_SIZE


def test_factor_returns_fresh_list(Q10):
    I = principal_ideal(Q10.elem(12))
    first = I.factor()
    expected = list(first)
    first.append(first[0])
    first[0] = (first[0][0], 99)
    assert I.factor() == expected
    assert I.factor() is not I.factor()
    assert [(P.p, e) for P, e in expected] == [(2, 4), (3, 1), (3, 1)]  # 2 ramifies


def test_ideals_of_norm_returns_fresh_list(Q10):
    first = ideals_of_norm(Q10, 6)
    expected = list(first)
    first.append(first[0])
    first.pop(0)
    assert ideals_of_norm(Q10, 6) == expected
    assert ideals_of_norm(Q10, 6) is not ideals_of_norm(Q10, 6)
    assert len(expected) == 2 and ideals_of_norm(Q10, 7) == []  # 2 ramifies, 3 splits, 7 is inert


def test_pow_matches_repeated_products():
    for d in (None, 10, -15):
        K = make_field(d)
        for n in (2, 3, 6, 10):
            for a in ideals_of_norm(K, n):
                power = unit_ideal(K)
                for k in range(7):
                    assert a**k == power, (K, a, k)
                    assert a ** (-k) * power == unit_ideal(K), (K, a, k)
                    power = power * a


def test_square_root_coords_rejects_non_integral(Q, Q10):
    for K in (Q, Q10):
        one = unit_ideal(K)
        half = one * Fraction(1, 2)
        for M, N in ((half, one), (one, half)):
            with pytest.raises(ValueError, match="integral ideal required"):
                list(square_root_coords(K.elem(1), M, N))
        with pytest.raises(ValueError, match="integral delta required"):
            list(square_root_coords(K.elem(Fraction(1, 2)), one, one))


def test_square_root_coords_unit_coset_ideal_is_the_box_search(test_fields):
    # L = (1): the roots of the HNF box of M, in M.residues() order
    for K in test_fields:
        one = unit_ideal(K)
        deltas = [K.elem(-4), K.elem(5)]
        deltas += [K.elem(1, 1), K.elem(-7, 2)] if K.degree == 2 else [K.elem(8), K.elem(-3)]
        for n in (1, 2, 4, 6, 9, 12):
            for a in ideals_of_norm(K, n):
                M, N = a * 2, a * 4
                for delta in deltas:
                    box = [
                        (i, j)
                        for i, j in M.residue_coords()
                        if (K.elem(i, j) ** 2 - delta) in N
                    ]
                    assert list(square_root_coords(delta, M, N)) == box, (K, a, delta)
                    assert list(square_root_coords(delta, M, N, one)) == box, (K, a, delta)


def test_square_root_coords_enumerates_cosets_of_l(test_fields):
    # with N = (1) every candidate is yielded: one element of L = P^k per
    # coset of L/M, N(M)/N(L) of them
    for K in test_fields:
        one = unit_ideal(K)
        for p in (2, 3, 5):
            for P in primes_above(K, p):
                for k in range(4):
                    L = P.ideal**k
                    for s in range(k, k + 3):
                        M = P.ideal**s
                        reps = list(square_root_coords(K.elem(0), M, one, L))
                        assert len(reps) == M.norm_int() // L.norm_int(), (K, P, k, s)
                        assert all(L.contains(K.elem(x, y)) for x, y in reps), (K, P, k, s)
                        assert len({M.reduce_coords(x, y) for x, y in reps}) == len(reps), (K, P, k, s)
    # L must contain M
    K = test_fields[-1]
    M = primes_above(K, 2)[0].ideal
    with pytest.raises(ValueError, match="integral ideal required"):
        list(square_root_coords(K.elem(0), M, unit_ideal(K), M * M))


@pytest.mark.parametrize("d", [None, -1, -3, -15, 2, 5, 10, 13])
def test_square_root_coords_matches_box_search(d):
    # the one residue class of x per row against every x of the row: the
    # same yields in the same order, for L = (1) with (M, N) = (2a, 4a) and
    # (a, a^2), and for L = P^k as local_square_solvable passes it
    K = make_field(d)
    ys = range(-5, 6) if K.degree == 2 else [0]
    deltas = [K.elem(x, y) for x in range(-9, 10) for y in ys]
    cases = []
    for n in range(1, 13):
        for a in ideals_of_norm(K, n):
            cases += [(a * 2, a * 4, None), (a, a * a, None)]
    for p in (2, 3, 5):
        for P in primes_above(K, p):
            for k in range(3):
                for s in range(max(k, 1), k + 3):
                    cases += [(P.power(s), P.power(t), P.power(k)) for t in (s, 2 * s - k + 1)]
    for M, N, L in cases:
        for delta in deltas:
            found = list(square_root_coords(delta, M, N, L))
            assert found == list(square_root_coords_by_box(delta, M, N, L)), (K, M, N, L, delta)


def test_triple_kernel_names_the_ideal_like_the_entry(monkeypatch):
    # with the cap lowered, the search on a's HNF triple scaled by 2 and 4
    # (counting._roots, which builds no ideal) refuses every a that the
    # entry refuses on the ideals 2a and 4a, with the same text; principal
    # and non-principal a, over Q and two quadratic fields
    monkeypatch.setattr(ideals, "RESIDUE_ENUMERATION_BOUND", 20)
    refused = set()
    for d in (None, -15, 10):
        K = make_field(d)
        delta = K.elem(-3)
        counting._roots.cache_clear()
        for n in range(1, 13):
            for a in ideals_of_norm(K, n):
                if (a * 2).norm_int() <= 20:
                    assert counting._roots(K, delta.X, delta.Y, a) == tuple(square_root_coords(delta, a * 2, a * 4))
                    continue
                with pytest.raises(BoundExceeded) as want:
                    next(square_root_coords(delta, a * 2, a * 4))
                with pytest.raises(BoundExceeded) as got:
                    counting._roots(K, delta.X, delta.Y, a)
                assert str(got.value) == str(want.value), (K, a)
                assert f"the ideal {(a * 2).pretty()}:" in str(got.value)
                refused.add((a * 2).pretty().count(","))
    assert refused == {0, 1}  # "(n)" and "(a, b + c*w)" both named


@pytest.mark.parametrize("d", [2, 3, 5, 10, 13, 19, 195, -1, -3, -5, -15])
def test_norm_row_matches_scan(d):
    # every x of the row, in order, against the norm evaluated on a range
    # of x that holds all solutions, for point and signed intervals
    K = make_field(d)
    t, n = K.omega_trace, K.omega_norm
    for y in range(-25, 26):
        for lo, hi in ((-20, 20), (0, 0), (7, 7), (-9, -9), (1, 30), (-30, -2), (5, 4)):
            got = [x for r in _norm_row(K, y, lo, hi) for x in r]
            cap = abs(d) * abs(y) + 40
            want = [x for x in range(-cap, cap) if lo <= x * x + t * x * y + n * y * y <= hi]
            assert got == want, (d, y, lo, hi)


def _ideals_below(K, bound):
    return [a for m in range(1, bound) for a in ideals_of_norm(K, m)]


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 19, 22, 23, 46, 79, 82, 85, 195, -15])
def test_principal_generator_matches_box_oracle(d):
    # the same element as the balanced associate of the coordinate-box
    # scan's generator (the scan's own generator in an imaginary field),
    # not merely a generator, for every integral ideal of norm < 60 and for
    # each of them divided by 3; the box scan is out of reach for d = 46
    # (eps = 24335 + 3588w), whose rows the row-by-row oracle solves
    # instead, below norm 31
    # each ideal is checked with the continued-fraction memo empty and again
    # once the first pass has filled it
    K = make_field(d)
    oracle = lru_cache(maxsize=None)(row_principal_generator if d == 46 else box_principal_generator)
    ideals._cf_generator.cache_clear()
    for _ in ("cold", "warm"):
        for a in _ideals_below(K, 31 if d == 46 else 60):
            for I in (a, a * Fraction(1, 3)):
                g = oracle(Ideal(K, I.hnf, 1))
                assert I.principal_generator() == (None if g is None else balanced_associate(g) / I.den), (d, I)


@pytest.mark.parametrize("d", [10, 94])
def test_cf_generator_memo_matches_the_walk(d):
    # over every integral ideal of norm <= 200, principal or not, the
    # memoised walk returns what the unmemoised walk returns, with the memo
    # empty and again full, and principal_generator reads it alike
    K = make_field(d)
    cases = _ideals_below(K, 201)
    walked = [ideals._cf_generator.__wrapped__(I) for I in cases]
    # h = 2 for d = 10 and h = 1 for d = 94
    assert (None in walked) == (d == 10) and sum(g is not None for g in walked) > 20
    ideals._cf_generator.cache_clear()
    gens = [I.principal_generator() for I in cases]
    assert [ideals._cf_generator(I) for I in cases] == walked
    filled = ideals._cf_generator.cache_info()
    assert filled.maxsize == FACTOR_CACHE_SIZE and filled.misses == filled.currsize == len(cases)
    assert [I.principal_generator() for I in cases] == gens
    assert [ideals._cf_generator(I) for I in cases] == walked
    assert ideals._cf_generator.cache_info().misses == filled.misses
    for I, g, w in zip(cases, gens, walked):
        assert (g is None) == (w is None) and (g is None or principal_ideal(g) == I), (d, I)


def test_cf_generator_memo_keeps_fields_apart():
    # the HNF (2, 0, 1) is (2, w): (sqrt 2) in Q(sqrt 2), non-principal in
    # Q(sqrt 10); equal coordinates keep separate entries in either order
    Q2, Q10 = make_field(2), make_field(10)
    for first, second in ((Q2, Q10), (Q10, Q2)):
        ideals._cf_generator.cache_clear()
        got = {K: Ideal(K, (2, 0, 1)).principal_generator() for K in (first, second)}
        assert ideals._cf_generator.cache_info().currsize == 2
        assert got[Q10] is None and got[Q2] in (sqrt_gen(Q2), -sqrt_gen(Q2))
        assert principal_ideal(got[Q2]) == Ideal(Q2, (2, 0, 1))


REAL_SQUAREFREE = [d for d in range(2, 5001) if is_squarefree(d)]


@settings(deadline=None)
@given(
    d=st.sampled_from(REAL_SQUAREFREE),
    x=st.integers(-12, 12),
    y=st.integers(-12, 12),
    k=st.integers(-8, 8),
    sign=st.sampled_from((1, -1)),
)
def test_principal_generator_ignores_the_associate(d, x, y, k, sign):
    # the generator of (+-g*eps^k) is the one of (g), generates it, has
    # s1 > 0 and is the balanced associate; the window walk reaches it
    # from the far associate itself
    assume(x or y)
    K = make_field(d)
    g = K.elem(x, y)
    h = g * fundamental_unit(K) ** k * sign
    I = principal_ideal(h)
    got = I.principal_generator()
    assert got == principal_ideal(g).principal_generator()
    assert principal_ideal(got) == I and got.sign_at(0) > 0
    assert got == balanced_associate(g)
    start = h if h.sign_at(0) > 0 else -h
    assert _window_least(K, start.X, start.Y, 1) == (got.X, got.Y)


@pytest.mark.parametrize("d", [2, 5, 13, 22, 79])
def test_principal_generator_from_any_associate(monkeypatch, d):
    # the window walk of field._window_least gives the same generator
    # whichever generator the continued fraction yields, also g eps^-6 and
    # g eps^6, far outside the unit window on either side
    K = make_field(d)
    ideals_below = _ideals_below(K, 31)
    want = [a.principal_generator() for a in ideals_below]
    found = ideals._cf_generator
    for k in (-6, 6):
        u = fundamental_unit(K) ** k

        def shifted(I, u=u):
            g = found(I)
            return None if g is None else coords_mul(K, *g, u.X, u.Y)

        monkeypatch.setattr(ideals, "_cf_generator", shifted)
        assert [a.principal_generator() for a in ideals_below] == want, k


IMAGINARY_FIELDS = (-1, -2, -3, -5, -6, -7, -11, -14, -15, -19, -21, -23, -26, -43, -105, -163, -1000003)


@pytest.mark.parametrize("d", IMAGINARY_FIELDS)
def test_reduced_generator_matches_row_oracle(d):
    # the form reduction returns the row search's first hit, the associate
    # least in (y, -x), for every integral ideal of norm < 400, and None
    # exactly where the row search finds no generator
    K = make_field(d)
    ideals_below = _ideals_below(K, 400)
    for I in ideals_below:
        assert I.principal_generator() == row_principal_generator(I), (d, I)
    assert len(ideals_below) >= 100


def test_reduced_generator_of_large_prime_powers():
    # P^36 above 3 in Q(sqrt -2) was still running after 60 s with a search
    # over the rows of the norm form; the reduction takes O(log N) steps
    K = make_field(-2)
    P = primes_above(K, 3)[0].ideal
    for k in (36, 200):
        I = P**k
        start = time.perf_counter()
        g = I.principal_generator()
        assert time.perf_counter() - start < 1.0, k
        assert g.norm() == 3**k and principal_ideal(g) == I, k


def _moebius_by_factoring(a):
    # (-1)^omega(a), or 0 if a prime appears twice, with every exponent
    # found by repeated division
    K, omega = a.field, 0
    for p in primes_upto(a.norm_int()):
        for P in primes_above(K, p):
            e = valuation_by_division(a, P)
            if e > 1:
                return 0
            omega += e
    return (-1) ** omega


def test_moebius_matches_factoring_and_refuses_fractional_ideals(Q, test_fields):
    for I in (Ideal(Q, (1,), 2), Ideal(Q, (3,), 2), primes_above(make_field(5), 11)[0].ideal.inverse()):
        with pytest.raises(ValueError, match="integral ideal required"):
            I.moebius()
    for K in test_fields:
        for a in _ideals_below(K, 60):
            assert a.moebius() == _moebius_by_factoring(a), (K, a)
            for m in (2, 3):
                b = a * Fraction(1, m)
                if not b.is_integral():
                    with pytest.raises(ValueError, match="integral ideal required"):
                        b.moebius()


def test_principal_generator_over_q(Q):
    for a in _ideals_below(Q, 60):
        g = a.principal_generator()
        assert principal_ideal(g) == a and g.x > 0


def test_divides_matches_inverse_route(test_fields):
    # self | other iff other * self^-1 is integral, on integral and
    # fractional pairs
    for K in test_fields:
        small = _ideals_below(K, 13)
        pool = small + [a * b.inverse() for a in small[:8] for b in small[1:8]]
        for a in pool:
            for b in pool:
                assert a.divides(b) == (b * a.inverse()).is_integral(), (K, a, b)


def test_primes_above_checks_survive_optimize():
    # a Kronecker symbol of +1 at the inert primes 2 and 3 of Q(sqrt 5)
    # leaves root finding with no root; primes_above must raise under
    # python -O and name p (as asserts, -O returned no prime for 3), and
    # after the patch is undone it must answer as before
    code = (
        "import relquad.ideals as I\n"
        "from relquad.field import make_field\n"
        "K = make_field(5)\n"
        "real = I.kronecker\n"
        "I._primes_above.cache_clear()\n"
        "I.kronecker = lambda D, p: 1\n"
        "for p in (2, 3):\n"
        "    try:\n"
        "        print(__debug__, 'returned', len(I.primes_above(K, p)))\n"
        "    except AssertionError as exc:\n"
        "        print(__debug__, 'raised', f'p = {p} ' in str(exc))\n"
        "I.kronecker = real\n"
        "I._primes_above.cache_clear()\n"
        "print([P.residue_degree for p in (2, 3) for P in I.primes_above(K, p)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "raised", "True"] * 2 + ["[2,", "2]"]


def test_prime_power_memo_matches_square_and_multiply():
    # PrimeIdeal.power serves P^k from an LRU memo; every power equals the
    # square-and-multiply power and the running product, and a repeated
    # request is a memo hit
    for d in (None, 5, 10, -15):
        K = make_field(d)
        for p in (2, 3, 5):
            for P in primes_above(K, p):
                product = unit_ideal(K)
                for k in range(13):
                    assert P.power(k) == P.ideal**k == product, (d, p, k)
                    assert P.power(k) is P.power(k)
                    product = product * P.ideal


def test_residue_coords_bound_is_typed():
    K = make_field(10)
    I = principal_ideal(K.elem(1025))  # norm 1025^2 = 1050625 > 2^20
    with pytest.raises(BoundExceeded) as exc:
        I.residues()
    err = exc.value
    assert isinstance(err, ValueError)
    assert (err.operation, err.size, err.bound) == ("residue enumeration", 1050625, 1 << 20)
    assert "(1025)" in err.subject and "1050625 > 1048576" in str(err)


def _ideals_with_denominators(K, bound=30):
    # the integral ideals of norm <= bound, and each over 2 and over 3
    base = [I for n in range(1, bound + 1) for I in ideals_of_norm(K, n)]
    return [I * Fraction(1, m) for m in (1, 2, 3) for I in base]


def test_product_memo_matches_uncached_oracle(test_fields):
    # every product, on a miss and on a hit and in both orders, equals the
    # product computed afresh from the four basis products
    for K in test_fields:
        ideals._product.cache_clear()
        pool = _ideals_with_denominators(K)
        for I in pool:
            for J in pool:
                expected = ideal_product_by_vectors(I, J)
                assert I * J == expected and J * I == expected, (K, I, J)


def test_product_memo_is_bounded_by_the_factor_policy():
    assert ideals._product.cache_info().maxsize == FACTOR_CACHE_SIZE


def test_equal_ideals_hash_equal_across_routes():
    K = make_field(10)
    p2 = p2_of(K)
    routes = [
        p2 * p2,
        principal_ideal(K.elem(2)),
        ideal_from_generators(K, [K.elem(4), K.elem(6)]),
        parse_ideal(K, "[[2,0],[0,2]]"),
        parse_ideal(K, "(2, 2*w)"),
        Ideal(K, (4, 0, 4), 2),
    ]
    for I in routes:
        assert I == routes[0] and hash(I) == hash(routes[0]), I
    # a field built directly is the interned one, and so its ideals are
    # equal ideals of one field
    fresh, interned = QuadField(5), make_field(5)
    assert fresh is interned
    I, J = Ideal(fresh, (11, 3, 1)), Ideal(interned, (11, 3, 1))
    assert I == J and hash(I) == hash(J)
    assert I * J is J * J


def test_product_memo_keeps_fields_apart():
    # Q(sqrt 5) and Q(sqrt 13) share the HNFs of n*(1); their products must
    # come from separate memo entries, and mixing them must still raise
    K5, K13 = make_field(5), make_field(13)
    for warm in (False, True):
        if not warm:
            ideals._product.cache_clear()
        for hnf in ((1, 0, 1), (2, 0, 2), (3, 0, 3)):
            I5, I13 = Ideal(K5, hnf), Ideal(K13, hnf)
            assert (I5 * I5).field == K5 and (I13 * I13).field == K13
            assert I5 * I5 != I13 * I13
            with pytest.raises(ValueError, match="different fields"):
                I5 * I13
            with pytest.raises(ValueError, match="different fields"):
                I13 * I5


def test_product_fast_path_keeps_semantics():
    # two ideals over one field go straight to the product memo after one
    # identity test; QuadField(5) is that field, so an ideal built over it
    # shares the memo, while a different field and the scalar operands
    # keep their own paths and results
    K, fresh, K10 = make_field(5), QuadField(5), make_field(10)
    assert fresh is K
    ideals._product.cache_clear()
    pool = _ideals_with_denominators(K, 12)
    for I in pool:
        I_fresh = Ideal(fresh, I.hnf, I.den)
        for J in pool:
            expected = I * J
            assert expected.field is K and expected == ideal_product_by_vectors(I, J), (I, J)
            assert J * I is expected, (I, J)
            assert I_fresh * J is expected and J * I_fresh is expected, (I, J)
            assert I_fresh.divides(J) == I.divides(J), (I, J)
    for I in pool[:6]:
        for other in (Ideal(K10, (1, 0, 1)), Ideal(QuadField(10), (2, 0, 2))):
            with pytest.raises(ValueError, match="different fields"):
                I * other
            with pytest.raises(ValueError, match="different fields"):
                other * I
        for e in (K.elem(3), K.elem(-3), K.elem(Fraction(2, 3)), K.elem(1, 1), K.elem(Fraction(1, 2), -3)):
            expected = ideal_product_by_vectors(I, principal_ideal(e))
            assert I * e == expected, (I, e)
            if e.y == 0:
                assert I * e.x == expected and e.x * I == expected, (I, e)
                if e.x.denominator == 1:
                    n = int(e.x)
                    assert I * n == expected and n * I == expected, (I, e)
        for zero in (0, Fraction(0)):
            with pytest.raises(ValueError, match="nonzero"):
                I * zero


def test_elem_times_ideal_is_the_reflected_product():
    # Elem returns NotImplemented for an operand field.elem refuses with a
    # TypeError, so e * I reaches Ideal.__rmul__ and equals I * e; a sum
    # with an ideal or any operation with a bare object still raises
    # TypeError, and int, Fraction and string operands behave as before
    for K in (make_field(), make_field(5)):
        for I in (principal_ideal(K.elem(2)), Ideal(K, (3,) if K.is_rational else (3, 0, 3), 2)):
            for e in (K.elem(3), K.elem(Fraction(-2, 5)), K.one):
                assert e * I == I * e == ideal_product_by_vectors(I, principal_ideal(e)), (K, I, e)
            e = K.elem(3)
            for op in (lambda: e + I, lambda: I + e, lambda: e - I, lambda: e / I, lambda: I / e):
                with pytest.raises(TypeError):
                    op()
        e = K.elem(3)
        for op in (lambda: e * object(), lambda: object() * e, lambda: e + object(), lambda: e - None):
            with pytest.raises(TypeError):
                op()
        for x in (2, Fraction(-1, 3), "1/2", "7"):
            y = K.elem(x)
            assert e * x == x * e == K.elem(3) * y and e + x == x + e == e + y, (K, x)
            assert e - x == -(x - e) == e - y and e / x == e / y and x / e == y / e, (K, x)
        with pytest.raises(ValueError, match="Invalid literal"):
            e * "w"


def test_product_memo_under_threads():
    # four threads multiply the same pool, each in its own order, starting
    # from a cold memo; every product must be the oracle's
    K = make_field(-15)
    pool = _ideals_with_denominators(K, 12)
    pairs = [(i, j) for i in range(len(pool)) for j in range(len(pool))]
    expected = {(i, j): ideal_product_by_vectors(pool[i], pool[j]) for i, j in pairs}
    bad = []

    def work(seed):
        order = pairs[:]
        random.Random(seed).shuffle(order)
        for i, j in order:
            if pool[i] * pool[j] != expected[i, j]:
                bad.append((i, j))

    ideals._product.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_scale_sign_is_dropped_and_zero_raises(Q, Q10):
    for I in (p2_of(Q10), principal_ideal(Q.elem(6)) * Fraction(1, 5)):
        assert I * -2 == I * 2 == 2 * I == -2 * I
        assert I * Fraction(-1, 2) == I * Fraction(1, 2)
        for zero in (0, Fraction(0)):
            with pytest.raises(ValueError, match="nonzero"):
                I * zero


# the catalog fields, the fixture fields (all in the catalog), Q(sqrt -1),
# Q(sqrt -3), a field with a large prime discriminant, and Q
ENUMERATION_FIELDS = (-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22, 10007, None)


@pytest.mark.parametrize("d", ENUMERATION_FIELDS)
def test_ideals_of_norm_match_product_oracle_cold_and_warm(d):
    # every integral ideal of norm <= 500: the HNFs built on integers and
    # the handed factorizations equal the product route's ideals and
    # exponents, and the factoring of an ideal handed no pairs, with the
    # memos emptied first and then full
    K = make_field(d)
    expected = {n: ideals_of_norm_by_products(K, n) for n in range(1, 501)}
    ideals._ideals_of_norm.cache_clear()
    ideals._factor.cache_clear()
    for warm in (False, True):
        for n, pairs in expected.items():
            got = ideals_of_norm(K, n)
            assert [I.hnf for I in got] == [I.hnf for I, _ in pairs], (d, n, warm)
            for I, (_, fac) in zip(got, pairs):
                assert I.den == 1 and I.factor() == list(fac), (d, I, warm)
                if not warm:
                    assert ideals._factor_by_norm(I) == fac, (d, I)
    assert sum(len(pairs) for pairs in expected.values()) > 200


@pytest.mark.parametrize("d", [None, -3, 10, 10007])
def test_factoring_an_enumerated_ideal_builds_no_product(d, monkeypatch):
    # with the primes and their powers known, enumerating and factoring
    # multiply no ideals: the refusals stand in for Ideal.__mul__ (_product
    # calls the original _hnf_product), and the unhanded route meets them
    K = make_field(d)
    for n in range(1, 201):
        ideals_of_norm(K, n)
    ideals._ideals_of_norm.cache_clear()
    ideals._factor.cache_clear()

    def refuse(*args):
        raise AssertionError("ideal product")

    monkeypatch.setattr(ideals, "_hnf_product", refuse)
    monkeypatch.setattr(ideals, "_product", refuse)
    pool = [I for n in range(1, 201) for I in ideals_of_norm(K, n)]
    assert sum(len(I.factor()) for I in pool) > len(pool) // 2
    # an enumerated ideal over 3 is an ideal the enumeration never built,
    # so it is handed no pairs: it is factored as its numerator over (3),
    # and no ideal is multiplied either
    fractional = pool[-1] * Fraction(1, 3)
    assert fractional.den == 3 and fractional._factors is None
    fac = fractional.factor()
    monkeypatch.undo()
    assert fac == factor_by_products(fractional) and any(v < 0 for _, v in fac)


def test_handed_factorization_is_not_compared(Q10, monkeypatch):
    # an ideal is one object however it was built, so a memo keyed on it
    # is hit whichever route built it first
    for I in ideals_of_norm(Q10, 36):
        assert I._factors is not None
        assert Ideal(Q10, I.hnf) is I and ideal_from_generators(Q10, I.basis_elems()) is I
    # an ideal built by products and factored by its norm is the one that
    # ideals_of_norm returns: the pairs it hands are confirmed and kept, and
    # its factorization is a hit of the memo the unhanded route filled
    n = 3 * 13 * 31 * 37
    I = unit_ideal(Q10)
    for p in (3, 13, 31, 37):
        I = I * primes_above(Q10, p)[0].ideal
    assert I._factors is None
    fac = I.factor()
    hits = ideals._factor.cache_info().hits
    assert sum(J is I for J in ideals_of_norm(Q10, n)) == 1
    assert I._factors == tuple(fac)
    assert I.factor() == fac and ideals._factor.cache_info().hits == hits + 1
    # handing an ideal the pairs it carries costs one comparison: no
    # confirmation runs
    with monkeypatch.context() as m:
        m.setattr(ideals, "_confirm_factors", lambda *args: pytest.fail("pairs confirmed again"))
        assert Ideal(Q10, I.hnf, 1, _checked=True, _factors=tuple(fac)) is I
        ideals._ideals_of_norm.cache_clear()
        assert sum(J is I for J in ideals_of_norm(Q10, n)) == 1
    assert unit_ideal(Q10)._factors == () and unit_ideal(Q10).factor() == []


_WRONG_HANDED_FACTORS = (
    "import sys\n"
    "from relquad.field import make_field\n"
    "from relquad.ideals import _IDEALS, Ideal, ideals_of_norm, primes_above\n"
    "K = make_field(10)\n"
    "P2, = primes_above(K, 2)\n"
    "P3, Q3 = primes_above(K, 3)\n"
    "P5, = primes_above(K, 5)\n"
    "P7, = primes_above(K, 7)\n"
    "M5, = primes_above(make_field(15), 5)\n"
    "cases = [\n"
    "    (P3.ideal * P3.ideal, ((P3, 1),)),\n"  # wrong exponent
    "    (P3.ideal * Q3.ideal, ((P3, 1),)),\n"  # missing prime
    "    (P3.ideal * P3.ideal, ((P3, 1), (Q3, 1))),\n"  # right norm, wrong exponents
    "    (P3.ideal * Q3.ideal, ((P3, 1), (P3, 1))),\n"  # a prime twice
    "    (P2.ideal * Q3.ideal, ((Q3, 1), (P2, 1))),\n"  # out of order
    "    (P3.ideal * Q3.ideal, ((Q3, 1), (P3, 1))),\n"  # out of primes_above's order
    "    (P2.ideal * P5.ideal, ((P2, 1), (Q3, 0), (P5, 1))),\n"  # a zero exponent
    "    (P5.ideal, ((M5, 1),)),\n"  # a prime of another field
    "    (P2.ideal * P5.ideal, ((P2, 1), (P5, 1))),\n"  # right: no raise
    "]\n"
    "def attempt(hnf, pairs):\n"
    "    try:\n"
    "        J = Ideal(K, hnf, 1, _checked=True, _factors=pairs)\n"
    "        return J.factor() == list(pairs)\n"
    "    except AssertionError as exc:\n"
    "        return 'raised' if str(Ideal(K, hnf)) in str(exc) else 'unnamed'\n"
    "for I, pairs in cases:\n"
    "    # 7*I is new, and P7 is inert: its pairs are confirmed when it is factored\n"
    "    hnf = tuple(7 * x for x in I.hnf)\n"
    "    if (K, hnf, 1) in _IDEALS:\n"
    "        sys.exit(f'{hnf} is live')\n"
    "    print(attempt(hnf, pairs + ((P7, 1),)))\n"
    "    # I is live, carrying no pairs or its own: they are confirmed at once\n"
    "    print(attempt(I.hnf, pairs))\n"
    "    # I carries its own pairs once ideals_of_norm has handed them, and\n"
    "    # its factorization is memoised\n"
    "    ideals_of_norm(K, I.norm_int())\n"
    "    I.factor()\n"
    "    print(attempt(I.hnf, pairs))\n"
)


def test_wrong_handed_factorization_raises_even_under_O():
    for flags in ([], ["-O"]):
        env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, *flags, "-c", _WRONG_HANDED_FACTORS], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.split() == ["raised"] * 24 + ["True"] * 3, flags


# the catalog fields of the benchmark and Q
CATALOG_FIELDS = (-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22, None)


@pytest.mark.parametrize("d", CATALOG_FIELDS)
def test_principal_ideal_matches_vector_oracle(d):
    # the gcd mod the norm against the HNF of the full vectors {e, e*w}, on
    # integral and non-integral elements, zero refused
    K = make_field(d)
    rng = random.Random(d or 0)
    for _ in range(300):
        x, y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6) if K.degree == 2 else 0
        m = rng.choice((1, 1, 2, 3, 12, rng.randint(1, 10**4)))
        if x or y:
            e = Elem(K, x, y, m)
            assert principal_ideal(e) is principal_ideal_by_vectors(e), (d, e)
    for x, y in ((1, 0), (-7, 0), (0, 1), (0, -5), (6, 4))[: 5 if K.degree == 2 else 2]:
        e = Elem(K, x, y)
        assert principal_ideal(e) is principal_ideal_by_vectors(e), (d, e)
    with pytest.raises(ValueError):
        principal_ideal(K.zero)


def _sqrt_convergents(d: int, bits: int):
    # the convergents p/q of sqrt(d), d = 3 mod 4 so that w = sqrt(d), from
    # the first with p past the given bit length: N(p + q*w) = p^2 - d*q^2
    # stays below 2*sqrt(d) in size, so p + q*w is unit-sized
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    while True:
        m = a * den - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        if p1.bit_length() > bits:
            yield p1, q1


@pytest.mark.parametrize("d, bits, count", [(1000003, 831, 6), (10**9 + 7, 21198, 2)])
def test_principal_ideal_of_unit_sized_elements(d, bits, count):
    # elements the size of the fundamental unit (831 and 21,198 bits): the
    # same ideal as the full-vector HNF, integral and over 3, and at
    # d = 10^9 + 7 in well under 10 ms each (the full vectors take tens of
    # milliseconds)
    K = make_field(d)
    convergents = _sqrt_convergents(d, bits)
    for _ in range(count):
        p, q = next(convergents)
        assert 0 < abs(p * p - d * q * q) < 2 * isqrt(d) + 2
        for e in (Elem(K, p, q), Elem(K, p, q, 3), Elem(K, 2 * p, 6 * q)):
            start = time.process_time()
            got = principal_ideal(e)
            spent = time.process_time() - start
            assert got is principal_ideal_by_vectors(e), (d, e.m)
            assert spent < 0.01, (d, spent)
            assert got.norm() == abs(e.norm())


@pytest.mark.parametrize("d", [None, 5, 10, -15, -7, 17, 13, 10007])
def test_prime_powers_on_integers_match_products(d):
    # PrimeIdeal.power built on integers (a Newton lift at a split P, two
    # at p = 2 in Q(sqrt -7) and Q(sqrt 17)) is the product power, handed
    # its pair; P's own ideal carries (P, 1); and a product of powers of
    # distinct primes built by CRT is the product, handed its pairs
    K = make_field(d)
    primes = [P for p in (2, 3, 5, 7, 11, 13) for P in primes_above(K, p)]
    for P in primes:
        assert P.ideal._factors == ((P, 1),), (d, P)
        for k in range(9):
            assert P.power(k) is ideal_power_by_vectors(P.ideal, k), (d, P, k)
            if k:
                assert P.power(k)._factors == ((P, k),) and P.power(k).factor() == [(P, k)]
    rng = random.Random(7)
    for _ in range(200):
        chosen = sorted(rng.sample(range(len(primes)), rng.randint(1, 4)))
        pairs = tuple((primes[i], rng.randint(1, 4)) for i in chosen)
        expected = unit_ideal(K)
        for P, v in pairs:
            expected = ideal_product_by_vectors(expected, ideal_power_by_vectors(P.ideal, v))
        got = ideals._ideal_of_pairs(K, pairs)
        assert got is expected and got.factor() == list(pairs), (d, pairs)


_CONFIRMATION_FAULTS = (
    "import gc, sys\n"
    "from relquad import ideals\n"
    "from relquad.field import make_field\n"
    "from relquad.ideals import ideals_of_norm, primes_above, principal_ideal\n"
    "def swap(pairs):\n"
    "    # the conjugate of the first prime above a split p\n"
    "    out = list(pairs)\n"
    "    for i, (P, v) in enumerate(out):\n"
    "        above = primes_above(P.ideal.field, P.p)\n"
    "        if len(above) == 2:\n"
    "            out[i] = (above[P is above[0]], v)\n"
    "            return tuple(out)\n"
    "    sys.exit(f'no split prime in {pairs}')\n"
    "FAULTS = [\n"
    "    swap,\n"
    "    lambda pairs: ((pairs[0][0], pairs[0][1] + 1),) + pairs[1:],\n"
    "    lambda pairs: ((pairs[0][0], pairs[0][1] - 1),) + pairs[1:],\n"
    "    lambda pairs: pairs[1:],\n"
    "]\n"
    "def outcome(run, texts):\n"
    "    try:\n"
    "        run()\n"
    "    except AssertionError as exc:\n"
    "        return 'raised' if any(t in str(exc) for t in texts) else 'unnamed'\n"
    "    return 'passed'\n"
    "K10, K15 = make_field(10), make_field(-15)\n"
    "# found pairs: (8 + w) = P2 P3^3 and (6 + w) = P2 P13 in Q(sqrt 10), and\n"
    "# (1 + w) = P2 P3 and (5 + w) = P2 P17 in Q(sqrt -15), each factored afresh\n"
    "found = ideals._found_factors\n"
    "cases = [(K10, 8, 1), (K10, 6, 1), (K15, 1, 1), (K15, 5, 1)]\n"
    "for fault in FAULTS:\n"
    "    for K, x, y in cases:\n"
    "        I = principal_ideal(K.elem(x, y))\n"
    "        ideals._factor.cache_clear()\n"
    "        if I._factors is not None:\n"
    "            sys.exit(f'{I} carries pairs')\n"
    "        ideals._found_factors = lambda J: fault(found(J))\n"
    "        print(outcome(I.factor, [str(I)]))\n"
    "        ideals._found_factors = found\n"
    "for K, x, y in cases:\n"
    "    I = principal_ideal(K.elem(x, y))\n"
    "    print(outcome(I.factor, []), len(I.factor()))\n"
    "# handed pairs: the local pairs at 13 that ideals_of_norm hands the ideals\n"
    "# P2 P13 and P2 P13' of norm 26 in Q(sqrt 10), once they are live\n"
    "# (confirmed at the hand-off) and once new (confirmed when factored); the\n"
    "# ideal of norm 2 stays memoised, with its own pairs\n"
    "local = ideals._local_factors\n"
    "for fault in FAULTS:\n"
    "    for live in (True, False):\n"
    "        ideals._ideals_of_norm.cache_clear()\n"
    "        held = ideals_of_norm(K10, 26)\n"
    "        texts = [str(I) for I in held]\n"
    "        if not live:\n"
    "            del held\n"
    "            ideals._factor.cache_clear()\n"
    "            gc.collect()\n"
    "        ideals._ideals_of_norm.cache_clear()\n"
    "        ideals_of_norm(K10, 2)\n"
    "        ideals._local_factors = lambda ps, e: [(k, q, r, fault(pairs)) for k, q, r, pairs in local(ps, e)]\n"
    "        print(outcome(lambda: [I.factor() for I in ideals_of_norm(K10, 26)], texts))\n"
    "        ideals._local_factors = local\n"
    "ideals._ideals_of_norm.cache_clear()\n"
    "print(outcome(lambda: [I.factor() for I in ideals_of_norm(K10, 26)], []))\n"
    "# a prime power lifted to the conjugate's root but handed (P, 3)\n"
    "lift = ideals._lift_root\n"
    "ideals._lift_root = lambda K, b, p, q: (-K.omega_trace - lift(K, b, p, q)) % q\n"
    "P = primes_above(K10, 13)[0]\n"
    "texts = []\n"
    "def conjugate_power():\n"
    "    J = P.power(3)\n"
    "    texts.append(str(J))\n"
    "    J.factor()\n"
    "print(outcome(conjugate_power, texts))\n"
)


def test_confirmation_catches_wrong_pairs_even_under_O():
    # found pairs and handed pairs patched to name the conjugate at a split
    # p, shift an exponent by one either way, or drop a prime: each raises
    # an AssertionError that names the ideal, also under python -O; the
    # unpatched routes factor the same ideals
    for flags in ([], ["-O"]):
        env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, *flags, "-c", _CONFIRMATION_FAULTS], capture_output=True, text=True, env=env, check=True
        )
        lines = out.stdout.splitlines()
        assert lines == ["raised"] * 16 + ["passed 2"] * 4 + ["raised"] * 8 + ["passed", "raised"], (flags, lines)


# the positive rationals n/den with n, den <= 30, each once
RATIONALS = sorted({Fraction(n, den) for n in range(1, 31) for den in range(1, 31)})


def _rational(I: Ideal) -> Fraction:
    # the r > 0 of I = r*Z over Q, read off the HNF (n, 0, 1) over den,
    # which must be in lowest terms
    n, b, c = I.hnf
    assert (b, c) == (0, 1) and gcd(n, I.den) == 1, I
    return Fraction(n, I.den)


def _v(r: Fraction, p: int) -> int:
    # the p-adic valuation of a nonzero rational, by repeated division
    v = 0
    while r.numerator % p == 0:
        r, v = r / p, v + 1
    while r.denominator % p == 0:
        r, v = r * p, v - 1
    return v


@pytest.mark.parametrize("n", range(1, 31))
def test_rational_ideals_match_closed_forms(Q, n):
    # over Q the ideal r*Z, r = n/den, is an HNF triple with w's trace and
    # norm 0: every operation the generic formulas run on it matches
    # its closed form on the Fraction r; the binary ones against every
    # eleventh r' = m/e with m, e <= 30, from an offset that den turns
    # through, so each n meets every r'
    primes = [P for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for P in primes_above(Q, p)]
    for den in range(1, 31):
        r = Fraction(n, den)
        I = Ideal(Q, (n, 0, 1), den)
        assert _rational(I) == r and I.norm() == r
        assert I.is_unit_ideal() == (r == 1)
        assert I.conj() is I
        assert _rational(I.inverse()) == 1 / r
        assert _rational(I * 6) == 6 * r and _rational(I * Fraction(-4, 9)) == r * Fraction(4, 9)
        assert [I.valuation(P) for P in primes] == [_v(r, P.p) for P in primes]
        if r.denominator == 1:
            k = r.numerator
            assert I.norm_int() == k
            assert I.residue_coords() == [(i, 0) for i in range(k)]
            assert [I.reduce_coords(x, 0) for x in range(-45, 45)] == [(x % k, 0) for x in range(-45, 45)]
        else:
            with pytest.raises(ValueError):
                I.norm_int()
        for s in RATIONALS[den % 11 :: 11]:
            J = Ideal(Q, (s.numerator, 0, 1), s.denominator)
            assert _rational(I * J) == r * s
            assert _rational(I.gcd(J)) == Fraction(gcd(r.numerator, s.numerator), lcm(r.denominator, s.denominator))
            assert I.divides(J) == ((s / r).denominator == 1)
