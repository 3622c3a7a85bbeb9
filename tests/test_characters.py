import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from helpers import (
    ORACLE_FIELDS,
    _balance,
    auxiliary_splits,
    conductor_by_ideals,
    coprime_coords,
    extended_by_gcd,
    extended_by_ideals,
    ideal_gcd,
    on_element_by_ideal,
    primes_upto,
    primitive_by_auxiliary_prime,
    primitive_via,
    residue_table_by_ideal,
    sqrt_gen,
)
from relquad import characters, counting, discriminants, ideals
from relquad.arith import kronecker
from relquad.characters import QuadCharacter
from relquad.counting import (
    count_square_roots,
    count_square_roots_formula,
    count_square_roots_local,
    count_square_roots_local_product,
)
from relquad.discriminants import DiscriminantInfo, conductor_ideal, discriminant_classes, local_square_solvable
from relquad.field import make_field
from relquad.ideals import (
    Ideal,
    ideal_from_generators,
    ideals_of_norm,
    primes_above,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)


def brute_symbol(chi, P):
    """Oracle for the prime symbol: full solvability search of
    x^2 = delta mod 4P over all residues of 4P."""
    four_p = P.ideal * 4
    return 1 if any((x * x - chi.delta) in four_p for x in four_p.residues()) else -1


def test_at_prime_examples(Q, Q10, test_fields):
    chi5 = QuadCharacter(Q.elem(5))
    p11 = primes_above(Q, 11)[0]
    assert chi5.at_prime(p11) == 1  # 4^2 = 16 = 5 mod 11
    p2 = primes_above(Q, 2)[0]
    assert chi5.at_prime(p2) == -1  # 5 is not in {0,1,4} mod 8
    chim2 = QuadCharacter(Q10.elem(-2))
    p3 = next(
        P for P in primes_above(Q10, 3) if P.ideal == ideal_from_generators(Q10, [Q10.elem(3), sqrt_gen(Q10) + 1])
    )
    assert chim2.at_prime(p3) == 1  # -2 = 1 = 1^2 in F_3
    for P in (p11, p2, p3):
        chi = chi5 if P.p != 3 else chim2
        assert chi.at_prime(P) == brute_symbol(chi, P)
    # every P of norm <= 49 and every class with |N(delta)| <= 30 coprime
    # to P: split, inert and ramified P, both odd and above 2
    kinds = set()
    for K in test_fields:
        primes = [P for p in primes_upto(49) for P in primes_above(K, p) if P.norm() <= 49]
        for info in discriminant_classes(K, 30):
            chi = QuadCharacter(info)
            for P in primes:
                if chi.modulus.valuation(P) == 0:
                    kinds.add((P.p == 2, P.residue_degree, P.ramified))
                    assert chi.at_prime(P) == brute_symbol(chi, P), (info.delta, str(P))
    assert kinds == {(dyadic, *k) for dyadic in (False, True) for k in ((1, False), (2, False), (1, True))}


def test_at_prime_rejects_dividing(Q):
    chi = QuadCharacter(Q.elem(12))
    with pytest.raises(ValueError):
        chi.at_prime(primes_above(Q, 3)[0])


def test_at_prime_rejects_dividing_once_the_memo_holds_it(Q):
    # the one prime-value memo holds the primes of delta too: at_prime
    # refuses them before it reads the memo, whether the memoised value is
    # 0 (on the conductor) or +-1 (a prime of f off the conductor)
    P2, P3 = primes_above(Q, 2)[0], primes_above(Q, 3)[0]
    chi12 = QuadCharacter(Q.elem(12))
    assert chi12._prime_value(P3) == 0 and chi12._prime_memo[P3] == 0
    test_at_prime_rejects_dividing(Q)
    chi20 = QuadCharacter(Q.elem(20))  # 20 = 2^2 * 5, f = (2): 2 is inert in Q(sqrt 5)
    assert chi20._prime_value(P2) == -1 and chi20._prime_memo[P2] == -1
    with pytest.raises(ValueError, match="divides"):
        chi20.at_prime(P2)


def _fundamental_discriminant(delta: int) -> int:
    # delta = m t^2 with m squarefree; m if m = 1 mod 4, else 4m
    m, q = delta, 2
    while q * q <= abs(m):
        while m % (q * q) == 0:
            m //= q * q
        q += 1
    return m if m % 4 == 1 else 4 * m


def test_prime_value_over_q_is_the_kronecker_symbol_of_delta0(Q):
    # over Q the primitive character of delta = f^2 delta0 is the Kronecker
    # symbol of the fundamental discriminant delta0 at every prime p: 0 at
    # p | delta0, on the conductor, and the splitting of p in Q(sqrt delta0)
    # elsewhere, at the primes of f too
    deltas = [D for D in range(-200, 201) if D and D % 4 in (0, 1)]
    primes = [(p, primes_above(Q, p)[0]) for p in primes_upto(500)]
    for D in deltas:
        D0 = _fundamental_discriminant(D)
        chi = QuadCharacter(Q.elem(D))
        assert [chi._prime_value(P) for _, P in primes] == [kronecker(D0, p) for p, _ in primes], (D, D0)


def _cross_field_calls():
    # entries given an object of Q(sqrt 10) next to a character, element or
    # prime of Q(sqrt 5), and the converse
    K5, K10 = make_field(5), make_field(10)
    chi5 = QuadCharacter(K5.elem(-4))
    P3 = primes_above(K10, 3)[0]
    a9 = P3.power(2)
    return {
        "at_prime": lambda: chi5.at_prime(P3),
        "on_ideal": lambda: chi5.on_ideal(a9),
        "primitive": lambda: chi5.primitive(a9),
        "extended": lambda: chi5.extended(a9),
        "on_element": lambda: chi5.on_element(K10.elem(3, 1)),
        "count_square_roots": lambda: count_square_roots(chi5.delta, a9),
        "count_square_roots_formula": lambda: count_square_roots_formula(chi5, a9),
        "count_square_roots_local_product": lambda: count_square_roots_local_product(chi5, a9),
        "count_square_roots_local": lambda: count_square_roots_local(chi5, P3, 2),
        "valuation": lambda: unit_ideal(K5).valuation(P3),
        "local_square_solvable": lambda: local_square_solvable(K10.elem(-4), primes_above(K5, 3)[0], 3),
        "contains": lambda: K5.elem(3) in a9,
        "reduce": lambda: a9.reduce(K5.elem(7)),
        "square_root_coords": lambda: list(square_root_coords(K5.elem(-4), a9, a9)),
    }


@pytest.mark.parametrize("entry", sorted(_cross_field_calls()))
def test_entries_refuse_another_fields_arguments(entry):
    # each returned a value computed on another field's coordinates: the
    # character at a prime above 3 of Q(sqrt 10) was -1, its values on a
    # norm-9 ideal 1, the brute count 2 against the formula's and the local
    # product's 0, and valuation, solvability, membership and reduction
    # read the coordinates as their own field's, and the root search found
    # none
    with pytest.raises(ValueError, match="of different fields"):
        _cross_field_calls()[entry]()


def test_on_ideal_examples(Q):
    chi12 = QuadCharacter(Q.elem(12))
    assert chi12.on_ideal(unit_ideal(Q)) == 1
    assert chi12.on_ideal(principal_ideal(Q.elem(11))) == 1
    assert chi12.on_ideal(principal_ideal(Q.elem(5))) == -1
    with pytest.raises(ValueError):
        chi12.on_ideal(principal_ideal(Q.elem(6)))
    # fractional ideals coprime to delta: (5/7) = (5)(7)^-1
    assert chi12.on_ideal(principal_ideal(Q.elem(Fraction(5, 7)))) == -1 * -1
    with pytest.raises(ValueError):
        chi12.on_ideal(principal_ideal(Q.elem(Fraction(5, 6))))


def test_on_ideal_matches_kronecker(Q):
    rng = random.Random(23)
    for delta in (5, 12, -4, -16, 21, -24, 40):
        chi = QuadCharacter(Q.elem(delta))
        for _ in range(40):
            n = rng.randint(1, 400)
            from math import gcd

            if gcd(n, 4 * abs(delta)) not in (1,):
                if gcd(n, abs(delta)) != 1:
                    continue
            if gcd(n, abs(delta)) != 1:
                continue
            assert chi.on_ideal(principal_ideal(Q.elem(n))) == kronecker(delta, n)


def test_on_element_examples(Q):
    chim4 = QuadCharacter(Q.elem(-4))
    assert chim4.on_element(Q.elem(3)) == -1
    assert chim4.on_element(Q.elem(-1)) == -1
    assert chim4.on_element(Q.elem(5)) == 1
    assert chim4.on_element(Q.elem(1)) == 1
    chi12 = QuadCharacter(Q.elem(12))
    vals = [chi12.on_element(Q.elem(a)) for a in (1, 5, 7, 11)]
    assert vals == [1, -1, -1, 1]  # the mod-12 character of Q(sqrt 3)


def test_on_element_refuses_elements_not_coprime_to_delta(Q, Q10):
    # the coprimality check sits in on_element, in front of the coordinate
    # kernel; its error names the element, integral or not
    cases = [
        (QuadCharacter(Q.elem(-4)), [Q.elem(6), Q.elem(Fraction(2, 3)), Q.elem(Fraction(3, 2))]),
        (
            QuadCharacter(Q10.elem(-4)),
            [Q10.elem(2), sqrt_gen(Q10), sqrt_gen(Q10) / 3, Q10.elem(Fraction(5, 2))],
        ),
    ]
    for chi, elems in cases:
        for a in elems:
            with pytest.raises(ValueError, match=re.escape(f"{a} is not coprime to")):
                chi.on_element(a)
        with pytest.raises(ValueError, match="not defined at 0"):
            chi.on_element(chi.field.elem(0))


def test_characters_of_one_delta_share_prime_values(monkeypatch, Q5):
    # a second QuadCharacter of the same delta reads the first one's memo,
    # which lives on the info of delta: every at_prime value is computed by
    # one kronecker call in all
    discriminants._conductor.cache_clear()
    calls = []

    def counted(n, p):
        calls.append(p)
        return kronecker(n, p)

    monkeypatch.setattr(characters, "kronecker", counted)
    info = discriminant_classes(Q5, 30)[3]
    first = QuadCharacter(info)
    odd = [
        P
        for p in primes_upto(60)[1:]
        for P in primes_above(Q5, p)
        if first.modulus.valuation(P) == 0
    ]
    values = [first.at_prime(P) for P in odd]
    assert len(calls) == len(odd)
    assert info._prime == dict(zip(odd, values))
    for chi in (QuadCharacter(info), QuadCharacter(info.delta)):
        assert chi._prime_memo is info._prime
        assert [chi.at_prime(P) for P in odd] == values
        assert chi.on_ideal(odd[0].ideal * odd[1].ideal) == values[0] * values[1]
    assert len(calls) == len(odd)
    # an info dropped from the memo of conductor_ideal is rebuilt with
    # empty memos, refilled with the same values
    discriminants._conductor.cache_clear()
    again = QuadCharacter(info.delta)
    assert again.info is not info and again.info == info and not again.info._prime
    assert [again.at_prime(P) for P in odd] == values
    assert len(calls) == 2 * len(odd)


def test_characters_of_one_delta_share_setup_and_local_verdicts(monkeypatch, Q5):
    # delta = -4 in Q(sqrt 5): (2) is inert with v = 2, so the local casework
    # at (2) takes local_square_solvable verdicts.  The set-up and the
    # verdicts live on the one info of delta for characters built from the
    # info and from delta, and a dropped info is rebuilt with the same
    discriminants._conductor.cache_clear()
    calls = []

    def counted(delta, P, t):
        calls.append((P, t))
        return discriminants.local_square_solvable(delta, P, t)

    monkeypatch.setattr(counting, "local_square_solvable", counted)
    info = discriminant_classes(Q5, 30)[0]
    assert info.delta == Q5.elem(-4)
    pool = [a for n in range(1, 65) for a in ideals_of_norm(Q5, n)]
    first = QuadCharacter(info)
    built = discriminants._conductor.cache_info().misses
    setup = info.modulus, info.delta_primes, info.f_exponents, info.negative_embeddings
    counts = [count_square_roots_local_product(first, a) for a in pool]
    verdicts = dict(info._local)
    assert [str(P) for P in verdicts] == ["(2)"]
    assert 1 <= len(calls) <= 3
    made = len(calls)
    for chi in (QuadCharacter(info), QuadCharacter(info.delta)):
        assert chi.info is info and chi._local_memo is first._local_memo is info._local
        assert (chi.modulus, chi._delta_primes, chi._f_exponents, chi.negative_embeddings) == setup
        assert chi._delta_primes is first._delta_primes is info.delta_primes
        assert [count_square_roots_local_product(chi, a) for a in pool] == counts
    assert discriminants._conductor.cache_info().misses == built
    assert len(calls) == made
    discriminants._conductor.cache_clear()
    again = QuadCharacter(info.delta)
    rebuilt = again.info
    assert rebuilt is not info
    assert (rebuilt.modulus, rebuilt.delta_primes, rebuilt.f_exponents, rebuilt.negative_embeddings) == setup
    assert [count_square_roots_local_product(again, a) for a in pool] == counts
    assert rebuilt._local == verdicts
    assert len(calls) == 2 * made


@pytest.mark.parametrize("d", [None, -1, -3, -15, 2, 5, 10])
def test_dyadic_at_prime_matches_ideal_argument_search(d):
    # at a dyadic P off delta the symbol is one local verdict, delta a
    # square mod P^(2 v_P(2) + 1): the same as the global search of
    # square_root_coords on the ideals 2P and 4P, and as the full residue
    # search of 4P
    K = make_field(d)
    discriminants._conductor.cache_clear()
    checked = 0
    for info in discriminant_classes(K, 80):
        chi = QuadCharacter(info)
        for P in primes_above(K, 2):
            if P in chi._delta_primes:
                continue
            root = next(square_root_coords(info.delta, P.ideal * 2, P.ideal * 4), None)
            want = 1 if root is not None else -1
            assert chi.at_prime(P) == want == brute_symbol(chi, P), (K, info.delta, P)
            checked += 1
    assert checked > 10


def test_hand_made_info_cannot_poison_the_shared_setup(Q):
    # over Q, f(-16) = (2); no info claiming f = (1) can be made: an info
    # written out by hand is conductor_ideal's, a dataclass copy is
    # refused and a field cannot be rebound, so a fresh character of -16
    # still weights gcd (4) by N(f) = 2
    discriminants._conductor.cache_clear()
    delta = Q.elem(-16)
    true = conductor_ideal(delta)
    assert DiscriminantInfo(delta) is true
    with pytest.raises(TypeError):
        replace(true, f_delta=unit_ideal(Q), rel_disc=principal_ideal(Q.elem(16)))
    with pytest.raises(AttributeError, match="immutable"):
        true.f_delta = unit_ideal(Q)
    assert QuadCharacter(DiscriminantInfo(delta)).info is true
    assert true.f_delta == principal_ideal(Q.elem(2))
    assert QuadCharacter(delta).extended(principal_ideal(Q.elem(4))) == 2
    assert QuadCharacter(true).extended(principal_ideal(Q.elem(4))) == 2


def test_characters_from_elements_read_the_memo_info(monkeypatch, Q5):
    # the first character of delta builds its info once, in the memo of
    # conductor_ideal; later ones from the element read that info through
    # conductor_ideal, and one from the info calls nothing
    discriminants._conductor.cache_clear()
    calls = []

    def counted(delta):
        calls.append(delta)
        return conductor_ideal(delta)

    monkeypatch.setattr(characters, "conductor_ideal", counted)
    delta = Q5.elem(-12)
    first = QuadCharacter(delta)
    assert calls == [delta] and first.info is conductor_ideal(delta)
    for _ in range(3):
        again = QuadCharacter(delta)
        assert again.info is first.info and again.conductor == first.conductor
    assert QuadCharacter(first.info).info is first.info
    assert calls == [delta] * 4
    assert discriminants._conductor.cache_info().misses == 1


def test_non_discriminant_leaves_no_memo_entry_filled(Q, Q5):
    # an element that is not a square mod 4 raises conductor_ideal's
    # ValueError from QuadCharacter every time, and the memo of
    # conductor_ideal keeps no entry for it
    for K, x in ((Q, 3), (Q5, 2)):
        discriminants._conductor.cache_clear()
        delta = K.elem(x)
        with pytest.raises(ValueError) as first:
            conductor_ideal(delta)
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                QuadCharacter(delta)
            assert str(got.value) == str(first.value)
            memo = discriminants._conductor.cache_info()
            assert memo.currsize == memo.misses == 0


def test_character_memos_keep_fields_apart(Q, Q5):
    # 5 is a square in Q(sqrt 5), so its character is trivial there, while
    # over Q the prime 3 is inert in Q(sqrt 5); equal coordinates in the two
    # fields must not share the values above 3, in either order of use; nor
    # may they share the factorization of 3, memoised by coordinates
    assert Q.elem(5).X == Q5.elem(5).X and Q.elem(5) != Q5.elem(5)
    for first, second in ((Q, Q5), (Q5, Q)):
        discriminants._conductor.cache_clear()
        ideals._coords_factor.cache_clear()
        chis = {K: QuadCharacter(K.elem(5)) for K in (first, second)}
        assert chis[Q]._prime_memo is not chis[Q5]._prime_memo
        got = {K: chis[K].on_element(K.elem(3)) for K in (first, second)}
        assert got == {Q: -1, Q5: 1}
        assert ideals._coords_factor.cache_info().currsize == 2
        factors = {K: ideals._coords_factor(K, 3, 0, 1) for K in (first, second)}
        assert factors[Q] != factors[Q5]
        assert [P.ideal.field for P, _ in factors[Q] + factors[Q5]] == [Q, Q5]
    # delta = 20: v_(2) = 2 in both fields, but the unit part 5 is a square
    # mod 8 only in Q(sqrt 5); the set-up and the local verdicts at (2) of
    # the two fields keep separate entries, in either order of use
    expected = {
        K: [count_square_roots(K.elem(20), primes_above(K, 2)[0].ideal ** k) for k in range(1, 5)]
        for K in (Q, Q5)
    }
    assert expected == {Q: [1, 2, 0, 0], Q5: [1, 4, 8, 8]}
    for first, second in ((Q, Q5), (Q5, Q)):
        discriminants._conductor.cache_clear()
        chis = {K: QuadCharacter(K.elem(20)) for K in (first, second)}
        assert discriminants._conductor.cache_info().currsize == 2
        assert chis[Q]._local_memo is not chis[Q5]._local_memo
        assert chis[Q].modulus.field == Q and chis[Q5].modulus.field == Q5
        assert {K: chis[K]._f_exponents for K in chis} == {
            Q: {primes_above(Q, 2)[0]: 1, primes_above(Q, 5)[0]: 0},
            Q5: {primes_above(Q5, 2)[0]: 1, primes_above(Q5, 5)[0]: 1},
        }
        got = {
            K: [count_square_roots_local(chis[K], primes_above(K, 2)[0], k) for k in range(1, 5)]
            for K in (first, second)
        }
        assert got == expected
        assert {K: list(chis[K]._local_memo.values()) for K in chis} == {
            Q: [(True, -1)],
            Q5: [(True, 1)],
        }


def test_residue_tables_match_ideal_oracle_cold_and_warm():
    # the 38 classes of the benchmark sweep (|N(delta)| <= 30 in Q(sqrt 5),
    # Q(sqrt 10) and Q(sqrt -15)): every residue table, its lifts valued from
    # the element factorizations, equals the table whose lifts are valued by
    # factoring principal ideals, first with the factorization memo empty,
    # then with it filled by the first pass
    chis = [
        QuadCharacter(info)
        for d in (5, 10, -15)
        for info in discriminant_classes(make_field(d), 30)
    ]
    assert len(chis) == 38
    expected = [residue_table_by_ideal(chi) for chi in chis]
    ideals._coords_factor.cache_clear()
    assert [chi.residue_table() for chi in chis] == expected
    warm = ideals._coords_factor.cache_info()
    assert warm.currsize > 0
    assert [chi.residue_table() for chi in chis] == expected
    assert ideals._coords_factor.cache_info().misses == warm.misses


def test_residue_table_keys_are_int_pairs():
    # each key is the residue's integer pair, equal and hash-equal to the
    # key of the element it names, and conductor_exhaustive returns the
    # same table
    tables = 0
    for d in (5, 10, -15, None):
        K = make_field(d)
        for info in discriminant_classes(K, 30):
            chi = QuadCharacter(info)
            table = chi.residue_table()
            for key in table:
                assert [type(c) for c in key] == [int, int], (d, info.delta, key)
                elem_key = K.elem(*key).key()
                assert key == elem_key and hash(key) == hash(elem_key), (d, info.delta, key)
            _, got, _ = chi.conductor_exhaustive()
            assert got == table and all(type(c) is int for key in got for c in key)
            tables += bool(table)
    assert tables >= 40, tables


def _lifts(chi, x, y):
    # the residue x + y*w, its balanced form, and the residue plus +-e1, e2
    # and -e1-e2 of the HNF basis (a, 0), (b, c) of (delta)
    a, b, c = chi.modulus.hnf
    return [(x, y), _balance(chi.modulus, x, y), (x + a, y), (x - a, y), (x + b, y + c), (x - a - b, y - c)]


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("d", [5, -15])
def test_hecke_check_values_every_lift(d, position, monkeypatch):
    # a character whose value is negated at one lift of one class, in each
    # of the six positions, must break the Hecke check of residue_table and
    # conductor_exhaustive, which name delta: no lift goes unvalued
    K = make_field(d)
    on_coords = QuadCharacter._on_coords
    classes = 0
    for info in discriminant_classes(K, 30):
        chi = QuadCharacter(info)
        table = chi.residue_table()
        for x, y in table:
            target = _lifts(chi, x, y)[position]

            def faulty(self, u, v, m=1, target=target):
                val = on_coords(self, u, v, m)
                return -val if (u, v) == target else val

            with monkeypatch.context() as mp:
                mp.setattr(QuadCharacter, "_on_coords", faulty)
                for check in (chi.residue_table, chi.conductor_exhaustive):
                    with pytest.raises(AssertionError, match=re.escape(f"not well defined mod ({info.delta})")):
                        check()
            classes += 1
        assert chi.residue_table() == table
    assert classes >= 70, classes


def _both_routes(chi, a):
    out = []
    for route in (chi.on_element, lambda a: on_element_by_ideal(chi, a)):
        try:
            out.append(route(a))
        except ValueError:
            out.append("ValueError")
    return out


def test_on_element_matches_ideal_oracle():
    # every class with |N(delta)| <= 30; integral x + y*w with |x| <= 12,
    # |y| <= 7, and (x + y*w)/m with |x| <= 6, |y| <= 3, 2 <= m <= 7
    agree = raised = cancelled = 0
    for d in ORACLE_FIELDS:
        K = make_field(d)
        ys = range(-7, 8) if K.degree == 2 else [0]
        elems = [K.elem(x, y) for x in range(-12, 13) for y in ys]
        elems += [
            K.elem(Fraction(x, m), Fraction(y, m))
            for m in range(2, 8)
            for x in range(-6, 7)
            for y in (range(-3, 4) if K.degree == 2 else [0])
        ]
        for info in discriminant_classes(K, 30):
            chi = QuadCharacter(info)
            for a in elems:
                new, oracle = _both_routes(chi, a)
                assert new == oracle, (d, info.delta, a)
                if not a:
                    assert new == "ValueError"
                elif new == "ValueError":
                    raised += 1
                else:
                    agree += 1
                    # numerator and denominator both divisible by some P | delta
                    X, Y, m = a.X, a.Y, a.m
                    if m > 1 and any(
                        principal_ideal(K.elem(X, Y)).valuation(P) for P, _ in chi.modulus.factor()
                    ):
                        cancelled += 1
    assert agree > 40_000 and raised > 20_000 and cancelled > 100, (agree, raised, cancelled)


def test_conductor_exhaustive_builds_no_ideal_per_element(monkeypatch):
    # (cond, table, witnesses) equal the ideal route's with principal_ideal
    # unavailable to the character module, which no longer imports it, and
    # to the ideals module, whose Ideal * Elem would build one
    def no_ideals(e):
        raise AssertionError(f"principal ideal of {e} requested")

    for d in ORACLE_FIELDS:
        K = make_field(d)
        for info in discriminant_classes(K, 30):
            chi = QuadCharacter(info)
            expected = conductor_by_ideals(chi)
            with monkeypatch.context() as m:
                m.setattr(characters, "principal_ideal", no_ideals, raising=False)
                m.setattr(ideals, "principal_ideal", no_ideals)
                got = chi.conductor_exhaustive()
            assert got == expected, (d, info.delta)


def test_conductor_exhaustive_examples(Q, Q10):
    chi = QuadCharacter(Q.elem(-12))
    cond, _, wits = chi.conductor_exhaustive()
    assert cond == principal_ideal(Q.elem(3)) == chi.conductor
    assert set(wits) == {P for P, _ in cond.factor()}
    chi = QuadCharacter(Q.elem(-4))
    cond, _, _ = chi.conductor_exhaustive()
    assert cond == principal_ideal(Q.elem(4)) == chi.conductor
    chi = QuadCharacter(Q10.elem(2))
    cond, table, _ = chi.conductor_exhaustive()
    assert cond.is_unit_ideal()
    assert set(table.values()) == {1}


def test_hecke_property_and_conductor_small(test_fields):
    for K in test_fields:
        for info in discriminant_classes(K, 40):
            chi = QuadCharacter(info)
            cond, _, wits = chi.conductor_exhaustive()
            assert cond == info.rel_disc
            for Q_, (a, b) in wits.items():
                D = cond.divide_exact(Q_.ideal)
                assert D.reduce(a) == D.reduce(b)
                assert chi.on_element(a) != chi.on_element(b)


def _prime_splitting_lifts(chi):
    # a prime with odd exponent in one of the two lifts x + y*w and
    # (x + a) + y*w of a coprime class, a = the HNF's first entry of
    # (delta), but not in the other: residue_table values both lifts
    K, a = chi.field, chi.modulus.hnf[0]
    for x, y in chi.modulus.residue_coords():
        if not (x or y) or not coprime_coords(chi, x, y):
            continue
        odd = [{P for P, v in ideals._coords_factor(K, u, y, 1) if v % 2} for u in (x, x + a)]
        for P, v in ideals._coords_factor(K, x, y, 1) + ideals._coords_factor(K, x + a, y, 1):
            if P in odd[0] ^ odd[1]:
                return P
    return None


@pytest.mark.parametrize("d", [5, -15])
def test_hecke_check_fires_on_the_prime_memo(d):
    # _on_coords reads the shared prime memo; a flipped value there at a
    # prime that some lifts of a class carry to an odd power and others do
    # not must break the Hecke check of residue_table and
    # conductor_exhaustive, which name delta
    K = make_field(d)
    flipped = 0
    for info in discriminant_classes(K, 30):
        chi = QuadCharacter(info)
        table = chi.residue_table()  # fills the memo at every lift's primes
        P = _prime_splitting_lifts(chi)
        if P is None:
            assert chi.modulus.is_unit_ideal() and table == {}, info.delta  # delta = 1
            continue
        memo = info._prime
        saved = memo[P]
        memo[P] = -saved
        try:
            for check in (chi.residue_table, chi.conductor_exhaustive):
                with pytest.raises(AssertionError, match=re.escape(f"not well defined mod ({info.delta})")):
                    check()
        finally:
            memo[P] = saved
        assert chi.residue_table() == table
        flipped += 1
    assert flipped >= 10, flipped


def test_primitive_examples(Q):
    chi = QuadCharacter(Q.elem(-12))
    two = principal_ideal(Q.elem(2))
    assert chi.primitive(two) == -1  # kronecker(-3, 2), -3 = 5 mod 8
    # coprime-to-delta ideals: primitive == plain symbol
    for n in (5, 7, 11, 25):
        a = principal_ideal(Q.elem(n))
        assert chi.primitive(a) == chi.on_ideal(a)
    # primes dividing the conductor give 0
    assert chi.primitive(principal_ideal(Q.elem(3))) == 0


def test_primitive_independent_of_auxiliary(Q10, Q5):
    for K in (Q10, Q5):
        for info in discriminant_classes(K, 20):
            chi = QuadCharacter(info)
            mod = chi.modulus
            for n in range(2, 12):
                for a in ideals_of_norm(K, n):
                    if ideal_gcd(a, mod).is_unit_ideal() or not ideal_gcd(a, chi.conductor).is_unit_ideal():
                        continue
                    vals = {
                        primitive_via(chi, P, alpha)
                        for P, alpha in islice(auxiliary_splits(chi, a), 3)
                    }
                    assert len(vals) == 1
                    assert vals.pop() == chi.primitive(a)


def _auxiliary_cases(d):
    """(chi, ideals) for every class with |N(delta)| <= 20 of Q(sqrt d) and
    its ideals of norm <= 40."""
    K = make_field(d)
    ideals = [a for n in range(1, 41) for a in ideals_of_norm(K, n)]
    return [(QuadCharacter(info), ideals) for info in discriminant_classes(K, 20)]


@pytest.mark.parametrize("d", [None, 5, 10, -15, 2, -1, 13])
def test_primitive_matches_auxiliary_oracle(d):
    # the splitting law against the class-group route, including the
    # ideals that meet delta but not the conductor
    auxiliary = 0
    for chi, ideals in _auxiliary_cases(d):
        for a in ideals:
            assert chi.primitive(a) == primitive_by_auxiliary_prime(chi, a), (d, chi.delta, a)
            auxiliary += not chi._coprime(a) and ideal_gcd(a, chi.conductor).is_unit_ideal()
    assert auxiliary > 0


def test_primitive_needs_no_principal_generator(monkeypatch):
    # the values equal the oracle's with principal generators unavailable
    def no_generator(self):
        raise AssertionError(f"principal generator of {self} requested")

    for d in (10, -15):
        cases = [
            (chi, a, primitive_by_auxiliary_prime(chi, a))
            for chi, ideals in _auxiliary_cases(d)
            for a in ideals
            if not chi._coprime(a) and ideal_gcd(a, chi.conductor).is_unit_ideal()
        ]
        assert cases
        with monkeypatch.context() as m:
            m.setattr(Ideal, "principal_generator", no_generator)
            for chi, a, expected in cases:
                assert chi.primitive(a) == expected, (d, chi.delta, a)


def test_primitive_class_invariance(Q10, Q):
    rng = random.Random(9)
    for K in (Q10, Q):
        for info in discriminant_classes(K, 25):
            chi = QuadCharacter(info)
            c = K.elem(3) if K.degree == 1 else K.elem(1, 1)
            if not c.norm():
                continue
            chi2 = QuadCharacter(info.delta * c * c)
            for n in range(1, 30):
                for a in ideals_of_norm(K, n):
                    if ideal_gcd(a, chi.modulus).is_unit_ideal() and ideal_gcd(a, chi2.modulus).is_unit_ideal():
                        assert chi.on_ideal(a) == chi2.on_ideal(a)


def test_extended_examples(Q):
    chi16 = QuadCharacter(Q.elem(-16))
    assert chi16.extended(principal_ideal(Q.elem(4))) == 2
    assert chi16.extended(unit_ideal(Q)) == 1
    chi12 = QuadCharacter(Q.elem(12))
    assert chi12.extended(principal_ideal(Q.elem(5))) == -1  # kronecker(12, 5)


def test_extended_matches_gcd_oracle():
    # the exponent kernel against gcd(a, delta) as an ideal and against g
    # built as an ideal product, on every class with |N(delta)| <= 60 and
    # every ideal of norm <= 40
    kinds = {"coprime": 0, "zero": 0, "square gcd": 0}
    for d in ORACLE_FIELDS:
        K = make_field(d)
        ideals = [a for n in range(1, 41) for a in ideals_of_norm(K, n)]
        for info in discriminant_classes(K, 60):
            chi = QuadCharacter(info)
            for a in ideals:
                val = chi.extended(a)
                assert val == extended_by_gcd(chi, a) == extended_by_ideals(chi, a), (d, info.delta, a)
                g0 = ideal_gcd(a, chi.modulus)
                kinds["coprime" if g0.is_unit_ideal() else "square gcd" if val else "zero"] += 1
    assert min(kinds.values()) > 300, kinds


def test_coefficients_examples(Q, Q5):
    chi = QuadCharacter(Q.elem(-4))
    _, sums = chi.coefficients(5)
    assert sums[1:] == [1, 0, -1, 0, 1]
    # a square discriminant gives the coefficients of zeta_K-like positivity
    chisq = QuadCharacter(Q.elem(4))
    _, sums = chisq.coefficients(8)
    assert all(v >= 0 for v in sums[1:])
    chi5 = QuadCharacter(make_field(5).elem(-4))
    per_ideal, _ = chi5.coefficients(20)
    for a, v in per_ideal.items():
        fac = a.factor()
        if len(fac) == 1 and fac[0][1] == 1 and ideal_gcd(a, chi5.modulus).is_unit_ideal():
            assert v == chi5.at_prime(fac[0][0])


def test_divisor_sum_identity_per_ideal(test_fields):
    # chi(a) = sum over t | f, d | f/t with t d^2 | a of
    #          mu(t) chi'(t) N(d) chi'(a / t d^2)
    for K in test_fields:
        for info in discriminant_classes(K, 20):
            chi = QuadCharacter(info)
            f = info.f_delta
            tds = [
                (t, dd)
                for t in f.divisors()
                for dd in f.divide_exact(t).divisors()
            ]
            for n in range(1, 40):
                for a in ideals_of_norm(K, n):
                    total = 0
                    for t, dd in tds:
                        td2 = t * dd * dd
                        if not td2.divides(a):
                            continue
                        total += (
                            t.moebius()
                            * chi.primitive(t)
                            * dd.norm_int()
                            * chi.primitive(a.divide_exact(td2))
                        )
                    assert total == chi.extended(a), (info.delta, a)


def test_multiplicativity_coprime(test_fields):
    rng = random.Random(31)
    for K in test_fields:
        infos = discriminant_classes(K, 20)
        pool = [a for n in range(1, 30) for a in ideals_of_norm(K, n)]
        for info in infos[:6]:
            chi = QuadCharacter(info)
            done = 0
            while done < 40:
                a, b = rng.choice(pool), rng.choice(pool)
                if not ideal_gcd(a, b).is_unit_ideal():
                    continue
                assert chi.extended(a * b) == chi.extended(a) * chi.extended(b)
                done += 1
