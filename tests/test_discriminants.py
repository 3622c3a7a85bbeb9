import copy
import json
import pickle
import random
from dataclasses import replace

import pytest

import helpers
from helpers import (
    _box_window_member,
    box_discriminant_candidates,
    class_number,
    conductor_by_division,
    discriminant_candidates,
    discriminant_classes_by_buckets,
    discriminant_classes_by_elems,
    elem_trace,
    frac_sqrt,
    genus_unit_discriminant_classes,
    is_totally_negative,
    local_square_solvable_by_residues,
    sqrt_gen,
    unit_discriminants_by_classes,
)
from relquad import classes, discriminants, field, ideals, tables
from relquad.arith import is_squarefree
from relquad.cli import main
from relquad.discriminants import (
    DiscriminantInfo,
    conductor_ideal,
    discriminant_classes,
    discriminant_witness,
    fundamental_discriminant_data,
    is_unit_discriminant,
    local_square_solvable,
    relative_discriminant_general,
    same_class_mod_squares,
    same_class_mod_unit_squares,
)
from relquad.field import Elem, fundamental_unit, make_field, parse_elem
from relquad.ideals import (
    FACTOR_CACHE_SIZE,
    coords_valuation,
    ideal_from_generators,
    primes_above,
    principal_ideal,
    unit_ideal,
)
from relquad.tables import unit_discriminants


def test_witness_examples(Q10, Q):
    delta = Q10.elem(-2)
    w = discriminant_witness(delta)
    assert w is not None and (w * w - delta) in principal_ideal(Q10.elem(4))
    assert discriminant_witness(Q.elem(-2)) is None  # -2 = 2 mod 4
    assert discriminant_witness(Q.elem(12)) == Q.elem(0)
    with pytest.raises(ValueError):
        discriminant_witness(Q.elem(0))


def brute_conductor(delta):
    """Oracle: try every integral f with f^2 | (delta) by full residue search
    of x^2 = delta mod 4 f^2, and return the largest valid one."""
    dl = principal_ideal(delta)
    best = unit_ideal(delta.field)
    for f in dl.divisors():
        if not (f * f).divides(dl):
            continue
        four_f2 = f * f * 4
        if four_f2.norm_int() > 1 << 14:
            continue
        if any((x * x - delta) in four_f2 for x in four_f2.residues()):
            if best.divides(f):
                best = f
    return best


def test_conductor_examples(Q10, Q5, Q):
    info = conductor_ideal(Q10.elem(-4))
    assert info.f_delta == ideal_from_generators(Q10, [Q10.elem(2), sqrt_gen(Q10)])
    assert info.rel_disc == principal_ideal(Q10.elem(2))
    info = conductor_ideal(Q5.elem(-20))
    assert info.f_delta == principal_ideal(sqrt_gen(Q5))
    assert info.rel_disc == principal_ideal(Q5.elem(4))
    info = conductor_ideal(Q.elem(-12))
    assert info.f_delta == principal_ideal(Q.elem(2))
    assert info.rel_disc == principal_ideal(Q.elem(3))
    with pytest.raises(ValueError):
        conductor_ideal(Q.elem(7))  # 7 = 3 mod 4


def test_conductor_against_brute_oracle(test_fields):
    for K in test_fields:
        for info in discriminant_classes(K, 40):
            assert info.f_delta == brute_conductor(info.delta)
            # witness and divisibility invariants
            assert (info.witness_x**2 - info.delta) in (info.f_delta**2 * 4)
            assert info.rel_disc * info.f_delta**2 == principal_ideal(info.delta)


def test_witness_is_first_root_of_residue_route(test_fields):
    # witness_x is the first x of (2f).residues() with x^2 - delta in 4f^2
    for K in test_fields:
        for info in discriminant_classes(K, 40):
            f = info.f_delta
            four_f2 = f * f * 4
            first = next(x for x in (f * 2).residues() if (x * x - info.delta) in four_f2)
            assert info.witness_x == first, (K, info.delta)


def test_conductor_maximality(test_fields):
    # replacing f by f*P must violate one of the defining conditions
    for K in test_fields:
        for info in discriminant_classes(K, 30):
            dl = principal_ideal(info.delta)
            for P, _ in dl.factor():
                bigger = info.f_delta * P.ideal
                b2 = bigger * bigger
                if not b2.divides(dl):
                    continue
                four_b2 = b2 * 4
                assert not any(
                    (x * x - info.delta) in four_b2 for x in four_b2.residues()
                )


def test_rel_disc_general_examples(Q):
    g = relative_discriminant_general(Q.elem(2))
    assert g.s.is_unit_ideal() and g.t.is_unit_ideal()
    assert g.rel_disc_general == principal_ideal(Q.elem(8))
    # consistency with the conductor route for the discriminant 8
    assert conductor_ideal(Q.elem(8)).rel_disc == g.rel_disc_general
    assert relative_discriminant_general(Q.elem(1)).rel_disc_general.is_unit_ideal()
    g = relative_discriminant_general(Q.elem(-4))
    assert g.s == principal_ideal(Q.elem(2)) and g.t.is_unit_ideal()
    assert g.rel_disc_general == principal_ideal(Q.elem(4))


def test_rel_disc_general_consistency(test_fields):
    for K in test_fields:
        for info in discriminant_classes(K, 60):
            assert relative_discriminant_general(info.delta).rel_disc_general == info.rel_disc


def test_conductor_sweep_to_500_with_dyadic_crosscheck(test_fields):
    # general-formula consistency, scaling, and the two-path dyadic
    # solvability comparison, for every class with |N(delta)| <= 500
    from relquad.verify import conductor_suite

    for K in test_fields:
        rep = conductor_suite(field_d=K.d, bound=500)
        assert rep["ok"], rep["failures"][:3]


def test_unit_discriminants(Q10, Q):
    assert is_unit_discriminant(Q10.elem(2))
    assert not is_unit_discriminant(Q10.elem(-2))
    assert is_unit_discriminant(Q.elem(1))
    assert conductor_ideal(Q10.elem(-2)).f_delta.is_unit_ideal()


@pytest.mark.parametrize(
    "d", [-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22, 31, 94, 139, 10007]
)
def test_unit_discriminants_match_all_classes_oracle(d):
    # the classes built from the squares J^2, N(J)^2 <= window, against
    # conductors of every class in the window: the 14 fields of the
    # benchmark catalog, and four with large fundamental units
    K = make_field(d)
    assert unit_discriminants(K) == unit_discriminants_by_classes(K)


def test_unit_discriminants_match_genus_theory():
    # one class per genus class delta_S, built from the prime discriminants
    # of disc(K) with no ideal, unit or conductor code: over Q, every
    # squarefree d with |d| <= 300, and d = 10007
    ds = [None, 10007] + [d for d in range(-300, 301) if d not in (0, 1) and is_squarefree(d)]
    for d in ds:
        K = make_field(d)
        found = [info.delta for info in unit_discriminants(K)[0]]
        genus = genus_unit_discriminant_classes(K)
        matches = [[same_class_mod_squares(a, b) for b in genus] for a in found]
        assert len(found) == len(genus) and all(row.count(True) == 1 for row in matches), (d, found, genus)
        assert all(any(row[j] for row in matches) for j in range(len(genus))), (d, found, genus)


def test_conductor_scaling(test_fields):
    # f_{a^2 delta} = a f_delta
    rng = random.Random(17)
    for K in test_fields:
        infos = discriminant_classes(K, 30)
        small = [K.elem(2), K.elem(3), K.elem(5)]
        if K.degree == 2:
            small += [K.elem(1, 1), K.elem(2, 1)]
        for _ in range(50):
            info = rng.choice(infos)
            a = rng.choice(small)
            if not a:
                continue
            scaled = conductor_ideal(info.delta * a * a)
            assert scaled.f_delta == info.f_delta * a
            assert scaled.rel_disc == info.rel_disc


def test_class_invariance_of_rel_disc(Q10, Q5):
    for K in (Q10, Q5):
        for info in discriminant_classes(K, 25):
            u2 = make_eps2(K)
            other = conductor_ideal(info.delta * u2)
            assert other.rel_disc == info.rel_disc


def make_eps2(K):
    from relquad.field import fundamental_unit

    e = fundamental_unit(K)
    return e * e


def test_fundamental_data_examples(Q, Q10, Q5):
    fd = fundamental_discriminant_data(Q.elem(-12))
    assert fd.principal_rep == Q.elem(-3)
    assert fd.real_signs == (-1,)
    fd = fundamental_discriminant_data(Q10.elem(-4))
    assert fd.principal_rep is None  # f = (2, sqrt10) nonprincipal
    fd = fundamental_discriminant_data(Q5.elem(-20))
    assert fd.principal_rep is not None
    assert same_class_mod_unit_squares(fd.principal_rep, Q5.elem(-4))
    assert conductor_ideal(Q5.elem(-4)).f_delta.is_unit_ideal()


def test_fundamental_data_accepts_info(test_fields, monkeypatch):
    # the DiscriminantInfo stands in for delta, and cmd_fdelta computes the
    # conductor once, plus once for the principal representative's check
    for K in test_fields:
        for info in discriminant_classes(K, 30):
            assert fundamental_discriminant_data(info) == fundamental_discriminant_data(info.delta)
    calls = []

    def counted(delta):
        calls.append(delta)
        return conductor_ideal(delta)

    # cli reads conductor_ideal off discriminants when the command runs
    monkeypatch.setattr("relquad.discriminants.conductor_ideal", counted)
    assert main(["fdelta", "--field", "0", "--delta", "-12"]) == 0
    assert [int(d.x) for d in calls] == [-12, -3]
    calls.clear()
    assert main(["fdelta", "--field", "10", "--delta", "-4"]) == 0  # f nonprincipal
    assert len(calls) == 1


def test_hand_made_info_is_checked_by_fundamental_data(Q):
    # over Q, f(-16) = (2); no info claiming f = (1) can be handed in: an
    # info written out by hand, or copied, is conductor_ideal's, and a
    # dataclass copy is refused, so fundamental data reads the true info
    true = conductor_ideal(Q.elem(-16))
    with pytest.raises(TypeError):
        replace(true, f_delta=unit_ideal(Q), rel_disc=principal_ideal(Q.elem(16)))
    expected = fundamental_discriminant_data(true)
    assert expected.principal_rep == Q.elem(-4)
    assert DiscriminantInfo(Q.elem(-16)) is true and copy.copy(true) is true
    assert fundamental_discriminant_data(DiscriminantInfo(Q.elem(-16))) == expected
    assert fundamental_discriminant_data(Q.elem(-16)) == expected


def test_fundamental_data_builds_no_second_modulus(test_fields, monkeypatch):
    # on an info of conductor_ideal the primes of delta, v_P(delta) and
    # v_P(f) come from the kept factorization: the only principal ideal
    # built is the one of the principal representative's conductor check,
    # on a miss of the conductor memo, and none once that memo holds it
    infos = [info for K in test_fields for info in discriminant_classes(K, 40)]
    expected = [fundamental_discriminant_data(info) for info in infos]
    built = []

    def counted(e):
        built.append(e)
        return principal_ideal(e)

    monkeypatch.setattr(discriminants, "principal_ideal", counted)
    for info, want in zip(infos, expected):
        discriminants._conductor.cache_clear()
        built.clear()
        got = fundamental_discriminant_data(info)
        assert got == want, info.delta
        assert built == ([] if got.principal_rep is None else [got.principal_rep]), info.delta
        built.clear()
        assert fundamental_discriminant_data(info) == want and built == [], info.delta


def _class_reps_infos(monkeypatch, module, run):
    # every info _class_reps returns while run() executes, read through
    # the binding of module
    seen = []
    class_reps = discriminants._class_reps

    def recorded(*args, **kwargs):
        out = class_reps(*args, **kwargs)
        seen.extend(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(module, "_class_reps", recorded)
        run()
    return seen


def _fresh_conductor(delta):
    # conductor_ideal(delta) computed anew, not read off the memo of
    # _conductor, which the infos of the table rows share
    discriminants._conductor.cache_clear()
    return conductor_ideal(delta)


def _check_reused_factorization(infos):
    for info in infos:
        delta = info.delta
        fresh = _fresh_conductor(delta)
        assert fresh is not info
        assert (info.f_delta, info.rel_disc, info.witness_x) == (fresh.f_delta, fresh.rel_disc, fresh.witness_x)
        assert (info.f_delta, info.rel_disc, info.witness_x) == conductor_by_division(delta), delta
        dl = principal_ideal(delta)
        assert info.modulus == dl and list(info.delta_primes.items()) == dl.factor(), delta
        assert info.f_exponents == {P: info.f_delta.valuation(P) for P in info.delta_primes}, delta
        assert isinstance(info, DiscriminantInfo) and info == fresh


def _clear_ideal_memos():
    memos = (ideals._factor, ideals._coords_factor, ideals._prime_power, ideals._product, ideals._inverse)
    for memo in (*memos, classes._cf_generator, discriminants._conductor):
        memo.cache_clear()


@pytest.mark.parametrize("d", [5, 10])
def test_table_classes_reuse_the_factorization_of_delta(d, monkeypatch):
    # the rows of table --bound 500: each info's conductor, read off the
    # ideal _class_reps built delta from, equals a from-scratch
    # conductor_ideal and the division route; no row factors (delta) again:
    # principal_ideal(delta) is the interned ideal that ideals_of_norm
    # built and handed its factorization, so the unhanded route never runs
    K = make_field(d)
    _clear_ideal_memos()

    def refuse(I):
        raise AssertionError(f"{I} factored again for a table row")

    with monkeypatch.context() as m:
        m.setattr(ideals, "_factor_by_norm", refuse)
        infos = _class_reps_infos(monkeypatch, discriminants, lambda: tables.table_rows(K, 500))
    assert len(infos) == len(tables.table_rows(K, 500)) > 50
    _check_reused_factorization(infos)


def test_unit_disc_classes_reuse_the_factorization_of_delta(monkeypatch):
    # every class unit_discriminants builds, over the fixture fields and
    # three with large fundamental units
    fixture = tables.load_fixture("unit_discriminants.json")
    fields = sorted({row["d"] for row in fixture.values()} | {94, 139, 10007})
    assert len(fields) >= 7
    total = 0
    for d in fields:
        K = make_field(d)
        _clear_ideal_memos()
        infos = _class_reps_infos(monkeypatch, tables, lambda: unit_discriminants(K))
        _check_reused_factorization(infos)
        total += len(infos)
    assert total > 100


def _seeded_discriminants(K, count, seed):
    # count discriminants x + y*w of K, |x| <= 300 and |y| <= 40 (y = 0 over Q)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        delta = K.elem(rng.randint(-300, 300), rng.randint(-40, 40) if K.degree == 2 else 0)
        if delta and discriminant_witness(delta) is not None:
            out.append(delta)
    return out


def test_conductor_memo_matches_division_oracle_cold_and_warm():
    # every row of table --bound 500 over Q(sqrt 5) and Q(sqrt 10), and
    # seeded discriminants in Q, Q(sqrt -15) and Q(sqrt 195): the memoised
    # infos equal the division route with the memo empty and again full,
    # and a table row reads the very info conductor_ideal returns
    tables_of = {K: discriminant_classes(K, 500, "totally_negative") for K in map(make_field, (5, 10))}
    assert [len(t) for t in tables_of.values()] == [55, 77]
    deltas = [info.delta for t in tables_of.values() for info in t]
    for d, seed in ((None, 1), (-15, 2), (195, 3)):
        deltas += _seeded_discriminants(make_field(d), 60, seed)
    expected = [conductor_by_division(delta) for delta in deltas]
    discriminants._conductor.cache_clear()
    cold = [conductor_ideal(delta) for delta in deltas]
    filled = discriminants._conductor.cache_info()
    assert filled.maxsize == FACTOR_CACHE_SIZE
    assert filled.misses == filled.currsize == len(set(deltas))
    warm = [conductor_ideal(delta) for delta in deltas]
    assert discriminants._conductor.cache_info().misses == filled.misses
    for delta, c, w, want in zip(deltas, cold, warm, expected):
        assert c is w and isinstance(c, DiscriminantInfo), delta
        assert (w.f_delta, w.rel_disc, w.witness_x) == want, delta
    for K, rows in tables_of.items():
        again = discriminant_classes(K, 500, "totally_negative")
        assert again == rows
        assert all(info is conductor_ideal(info.delta) for info in again), K
    assert discriminants._conductor.cache_info().misses == filled.misses


def test_warm_conductor_builds_no_ideal(monkeypatch):
    # the memo is keyed on delta alone: conductor_ideal builds (delta) on a
    # miss only, so a warm call builds no ideal and returns the info a cold
    # call or a table row left, for rows of table --bound 500 and seeded
    # discriminants in Q and Q(sqrt -15)
    deltas = [info.delta for d in (5, 10) for info in discriminant_classes(make_field(d), 500, "totally_negative")]
    for d, seed in ((None, 4), (-15, 5)):
        deltas += _seeded_discriminants(make_field(d), 40, seed)
    discriminants._conductor.cache_clear()
    cold = [conductor_ideal(delta) for delta in deltas]
    filled = discriminants._conductor.cache_info()

    def refuse(*args, **kwargs):
        raise AssertionError("ideal built by a warm conductor_ideal")

    with monkeypatch.context() as m:
        m.setattr(discriminants, "principal_ideal", refuse)
        m.setattr(ideals.Ideal, "__init__", refuse)
        warm = [conductor_ideal(delta) for delta in deltas]
    assert all(w is c for w, c in zip(warm, cold))
    after = discriminants._conductor.cache_info()
    assert after.misses == filled.misses and after.hits == filled.hits + len(deltas)
    # a table row, which hands in its own ideal, reads the same entries
    for d in (5, 10):
        rows = discriminant_classes(make_field(d), 500, "totally_negative")
        assert all(info is conductor_ideal(info.delta) for info in rows)
    assert discriminants._conductor.cache_info().misses == filled.misses


def test_conductor_memo_keeps_no_failure(Q, Q5, Q10):
    # a non-discriminant, or a delta that is 0 or not integral, raises the
    # same ValueError every time and leaves no entry
    discriminants._conductor.cache_clear()
    for delta in (Q.elem(3), Q.elem(-2), Q5.elem(2), Q10.elem(2, 1), Q10.elem(0), Elem(Q5, 1, 0, 2)):
        texts = set()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                conductor_ideal(delta)
            texts.add(str(exc.value))
        assert len(texts) == 1, delta
    assert discriminants._conductor.cache_info().currsize == 0


def test_conductor_memo_keeps_fields_apart(Q, Q5):
    # 5 is a square in Q(sqrt 5), where (5) = (sqrt 5)^2 is unramified in
    # Q(sqrt 5)(sqrt 5) = Q(sqrt 5), while over Q its conductor is (1) and
    # its relative discriminant (5): equal coordinates in the two fields
    # keep separate entries, in either order of use
    want = {K: conductor_by_division(K.elem(5)) for K in (Q, Q5)}
    assert want[Q][1] != want[Q5][1]
    for first, second in ((Q, Q5), (Q5, Q)):
        discriminants._conductor.cache_clear()
        infos = {K: conductor_ideal(K.elem(5)) for K in (first, second)}
        assert discriminants._conductor.cache_info().currsize == 2
        for K, info in infos.items():
            assert info.delta.field == K and info.f_delta.field == K
            assert (info.f_delta, info.rel_disc, info.witness_x) == want[K]


def test_conductor_memo_cannot_be_poisoned(Q10):
    # the info a caller gets is shared with every later caller of its
    # delta: its fields cannot be rebound and its maps cannot be written,
    # so a later hit still equals the division route
    delta = Q10.elem(-4)
    want = conductor_by_division(delta)
    discriminants._conductor.cache_clear()
    info = conductor_ideal(delta)
    delta_primes, f_exponents = info.delta_primes, info.f_exponents
    P = next(iter(delta_primes))
    with pytest.raises(AttributeError, match="immutable"):
        info.f_delta = unit_ideal(Q10)
    for attempt in (
        lambda: delta_primes.__setitem__(P, 0),
        lambda: f_exponents.__setitem__(P, 0),
        lambda: delta_primes.pop(P),
        lambda: f_exponents.clear(),
    ):
        with pytest.raises((TypeError, AttributeError)):
            attempt()
    again = conductor_ideal(delta)
    assert again is info and (again.f_delta, again.rel_disc, again.witness_x) == want
    assert list(again.delta_primes.items()) == principal_ideal(delta).factor()
    assert dict(again.f_exponents) == {P: info.f_delta.valuation(P) for P in delta_primes}


def test_copies_of_an_info_are_the_info(Q, Q5, Q10):
    # copy, deepcopy, a pickle round trip and DiscriminantInfo(delta) give
    # the info of conductor_ideal: equal, with the hash of delta, and the
    # very object while the memo of conductor_ideal holds it
    for delta in (Q.elem(-16), Q5.elem(-3, 1), Q10.elem(-4)):
        info = conductor_ideal(delta)
        for twin in (copy.copy(info), copy.deepcopy(info), pickle.loads(pickle.dumps(info)), DiscriminantInfo(delta)):
            assert twin is info and twin == info and hash(twin) == hash(delta)
        discriminants._conductor.cache_clear()
        for twin in (copy.deepcopy(info), pickle.loads(pickle.dumps(info)), DiscriminantInfo(delta)):
            assert twin is conductor_ideal(delta)
            assert twin is not info and twin == info and hash(twin) == hash(info)
            assert (twin.f_delta, twin.rel_disc, twin.witness_x) == (info.f_delta, info.rel_disc, info.witness_x)
        assert info != conductor_ideal(delta * 4) and info != delta
    with pytest.raises(ValueError, match="not a discriminant"):
        DiscriminantInfo(Q.elem(3))


def test_an_info_refuses_assignment_and_deletion(Q10):
    info = conductor_ideal(Q10.elem(-4))
    before = [getattr(info, name) for name in DiscriminantInfo.__slots__]
    for name in (*DiscriminantInfo.__slots__, "other"):
        with pytest.raises(AttributeError, match="immutable: cannot set"):
            setattr(info, name, None)
        with pytest.raises(AttributeError, match="immutable: cannot delete"):
            delattr(info, name)
    assert [getattr(info, name) for name in DiscriminantInfo.__slots__] == before
    assert not hasattr(info, "__dict__")


def test_fundamental_data_local_components(Q10):
    fd = fundamental_discriminant_data(Q10.elem(-4))
    info = conductor_ideal(Q10.elem(-4))
    for comp in fd.local_components:
        assert comp.residual_exponent == info.rel_disc.valuation(comp.prime) >= 0


def test_principal_rep_generates_class(Q):
    # over Q every class has a principal rep delta0, and delta0 c^2 runs
    # through the class members (bound-limited spot check)
    for info in discriminant_classes(Q, 60):
        fd = fundamental_discriminant_data(info.delta)
        assert fd.principal_rep is not None
        d0 = int(fd.principal_rep.x)
        members = {
            int(j.delta.x)
            for j in discriminant_classes(Q, 400)
            if same_class_mod_squares(j.delta, info.delta)
        }
        expected = {d0 * c * c for c in range(1, 21) if abs(d0 * c * c) <= 400}
        assert expected <= members


def test_trace_norm_square_class_property(Q):
    # nonzero tr(a)^2 - 4 N(a) over integers a of Q(sqrt delta) all land in
    # delta * (Q^x)^2, and delta itself arises from a = (-x + sqrt delta)/2
    for delta in (5, -4, 12, -20, 40):
        info = conductor_ideal(Q.elem(delta))
        L = make_field(squarefree_of(delta))
        for u in range(-30, 31):
            for v in range(-30, 31):
                a = L.elem(u, v)
                val = elem_trace(a) ** 2 - 4 * a.norm()
                if val == 0:
                    continue
                assert same_class_mod_squares(Q.elem(val), info.delta)
        x = info.witness_x
        # a = (-x + sqrt delta)/2 in L has tr^2 - 4N = delta
        s = sqrt_gen(L)
        f2 = Q.elem(delta) / Q.elem(squarefree_of(delta))
        scale = frac_sqrt(f2.x)
        a = (-x.x + scale * s) / 2
        assert elem_trace(a) ** 2 - 4 * a.norm() == delta


def squarefree_of(n):
    from relquad.arith import squarefree_part

    return squarefree_part(n)


def test_enumeration_examples(Q5, Q10, Q):
    n5 = discriminant_classes(Q5, 16, sign="totally_negative")
    assert sorted(abs(int(i.delta.norm())) for i in n5) == [5, 9, 16]
    reps = {i.delta.key() for i in n5}
    assert any(same_class_mod_unit_squares(i.delta, Q5.elem(-2, -1)) for i in n5)
    assert any(same_class_mod_unit_squares(i.delta, Q5.elem(-3)) for i in n5)
    assert any(same_class_mod_unit_squares(i.delta, Q5.elem(-4)) for i in n5)
    n10 = discriminant_classes(Q10, 9, sign="totally_negative")
    assert sorted(abs(int(i.delta.norm())) for i in n10) == [4, 9]
    nq = discriminant_classes(Q, 5)
    assert sorted(int(i.delta.x) for i in nq) == [-4, -3, 1, 4, 5]


def test_enumeration_dedupes_classes(Q5):
    infos = discriminant_classes(Q5, 100, sign="totally_negative")
    for i, a in enumerate(infos):
        for b in infos[i + 1 :]:
            assert not same_class_mod_unit_squares(a.delta, b.delta)


def test_local_square_solvable_against_full_modulus(test_fields, Q):
    # 4^2 = 16 = 7 mod 9: solvable although no x mod 3 has v_3(x^2 - 7) >= 2
    assert local_square_solvable(Q.elem(7), primes_above(Q, 3)[0], 2)
    cases = 0
    for K in test_fields:
        for p in (2, 3, 5):
            for P in primes_above(K, p):
                t = 1
                while P.norm() ** t <= 81:
                    Pt = P.ideal**t
                    reps = Pt.residues()
                    squares = {Pt.reduce(x * x).key() for x in reps}
                    for delta in reps:
                        expected = delta.key() in squares
                        assert local_square_solvable(delta, P, t) == expected, (K, P, t, delta)
                        cases += 1
                    t += 1
    assert cases > 1000


def test_local_square_solvable_unit_at_odd_prime_high_power(Q, Q10):
    # a unit at an odd P is decided mod P (Hensel), so t = 14 needs no
    # enumeration of the 3^14 residues mod P^14
    for K in (Q, Q10):
        for P in primes_above(K, 3):
            assert not local_square_solvable(K.elem(2), P, 14)  # 2 = -1 mod 3
            assert local_square_solvable(K.elem(7), P, 14)  # 7 = 1 mod 3


def test_local_square_solvable_nonunit_at_odd_prime(test_fields, Q):
    # 0 < v_P(delta) < t at an odd P: v odd has no root, v even leaves the
    # unit delta/pi^v to decide modulo P; against the full modulus P^t
    cases = 0
    for K in test_fields:
        for p in (3, 5, 7):
            for P in primes_above(K, p):
                t = 2
                while P.norm() ** t <= 729:
                    Pt = P.ideal**t
                    reps = Pt.residues()
                    squares = {Pt.reduce(x * x).key() for x in reps}
                    for delta in reps:
                        if delta and delta in P.ideal:
                            expected = delta.key() in squares
                            assert local_square_solvable(delta, P, t) == expected, (K, P, t, delta)
                            cases += 1
                    t += 1
    assert cases > 1000
    # decided without enumerating the residues modulo P^(t - v/2), which
    # exceed the residue enumeration bound here
    P3 = primes_above(Q, 3)[0]
    assert not local_square_solvable(Q.elem(18), P3, 16)  # 9 * 2, 2 = -1 mod 3
    assert local_square_solvable(Q.elem(63), P3, 16)  # 9 * 7, 7 = 1 mod 3
    assert not local_square_solvable(Q.elem(3 * 7), P3, 16)  # odd valuation
    assert local_square_solvable(Q.elem(2 * 3**16), P3, 16)  # v >= t: x = 0
    assert local_square_solvable(Q.elem(7 * 3**40), P3, 60)


def test_local_square_solvable_non_integral_matches_residue_oracle():
    # delta = (x + y*w)/den against the Elem-residue route, at every P above
    # 2, 3 and 5: 2 and 3 split in Q(sqrt -15), Q(sqrt 17) and Q(sqrt 10),
    # 2, 3 and 5 ramify in some of them, so p | den meets v_P(delta) >= 0
    # (split P, where m^2 delta and t + 2 v_P(m) carry the question) as
    # well as v_P(delta) < 0
    cases = scaled = solvable = 0
    for d in (None, 10, -15, 17, -1):
        K = make_field(d)
        for p in (2, 3, 5):
            for P in primes_above(K, p):
                for den in (2, 3, 4, 6, 8, 9):
                    for x in range(-6, 7):
                        for y in range(4) if K.degree == 2 else (0,):
                            if not (x or y):
                                continue
                            delta = K.elem(x, y) / den
                            X, Y, m = delta.X, delta.Y, delta.m
                            for t in range(1, 6):
                                got = local_square_solvable(delta, P, t)
                                expected = local_square_solvable_by_residues(delta, P, t)
                                assert got == expected, (K, P, t, delta)
                                cases += 1
                                if m % p == 0 and coords_valuation(P, X, Y, m) >= 0:
                                    scaled += 1
                                    solvable += got
    assert cases > 20000
    assert scaled > 500 and 0 < solvable < scaled


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 17, 19, 21, 22, 23, 195, -1, -3, -15])
def test_candidates_match_box_oracle(d):
    # the row solve yields the box scan's members, as integer pairs, in the
    # box scan's order, and the classes built from principal ideals are
    # those the bucket merge keeps of the box scan's members, with both signs
    K = make_field(d)
    for bound in (1, 4, 9, 20, 37):
        rows = list(discriminant_candidates(K, bound))
        box = [(int(e.x), int(e.y)) for e in box_discriminant_candidates(K, bound)]
        assert rows == box, (d, bound)
        for sign in ("any", "totally_negative"):
            expected = discriminant_classes_by_buckets(K, box, sign)
            assert discriminant_classes(K, bound, sign) == expected, (d, bound, sign)


@pytest.mark.parametrize("d", [2, 5, 10, 46])
def test_unit_window_built_once_per_field(d, monkeypatch):
    # eps^4 is raised once per field: a warm enumeration multiplies no
    # element, and its window is that of eps^4 computed afresh
    K = make_field(d)
    first = discriminant_classes(K, 30)
    E, F = (int(2 * v) for v in (fundamental_unit(K) ** 4).as_sqrt_coords())

    def no_products(self, other):
        raise AssertionError("element product in a warm enumeration")

    discriminants._conductor.cache_clear()  # the conductors run again
    with monkeypatch.context() as m:
        m.setattr(Elem, "__mul__", no_products)
        assert discriminant_classes(K, 30) == first
    assert classes._unit_window(K, 2)[0] == (E, F)


@pytest.mark.parametrize(
    "d", [None, 2, 3, 5, 6, 7, 10, 13, 15, 19, 22, 23, 195, -1, -3, -5, -15, -21, -105]
)
def test_classes_match_elem_oracle(d):
    # the classes built from principal ideals against the Elem route over
    # the members of the row enumeration, at every bound up to 60 and with
    # both signs
    K = make_field(d)
    for bound in range(1, 61):
        for sign in ("any", "totally_negative"):
            expected = discriminant_classes_by_elems(K, bound, sign)
            assert discriminant_classes(K, bound, sign) == expected, (d, bound, sign)


def test_same_class_refuses_zero():
    # 0 * delta = 0 is a square, so same_class_mod_squares said True, and
    # principal_ideal(0) raised an error that did not name the argument
    for d in (None, 5, -15):
        K = make_field(d)
        for fn in (same_class_mod_squares, same_class_mod_unit_squares):
            with pytest.raises(ValueError, match=r"^d1 must be nonzero, got 0$"):
                fn(K.elem(0), K.elem(1))
            with pytest.raises(ValueError, match=r"^d2 must be nonzero, got 0$"):
                fn(K.elem(-3), K.elem(0))
            with pytest.raises(ValueError, match=r"^d1 must be nonzero, got 0$"):
                fn(K.elem(0), K.elem(0))
            assert fn(K.elem(-3), K.elem(-3))
            assert not fn(K.elem(-3), K.elem(2))


def test_classes_refuse_negative_bound():
    # a negative bound is refused up front and named; bound 0 has no class
    for d in (None, 5, 10, -15):
        K = make_field(d)
        with pytest.raises(ValueError, match=r"norm bound must be >= 0, got -1"):
            discriminant_classes(K, -1)
        assert discriminant_classes(K, 0) == []


def test_classes_build_no_quotient_and_no_fraction_root(monkeypatch):
    # the enumeration and the conductors divide no field elements and take
    # no Fraction square root; at the bound 60 the Elem route divides
    # delta/r in every quadratic field here
    def refuse(*args):
        raise AssertionError("Fraction route used")

    expected = {
        (d, sign): discriminant_classes_by_elems(make_field(d), 60, sign)
        for d in (None, 5, 10, 19, -3, -15)
        for sign in ("any", "totally_negative")
    }
    # the oracle filled the memos of the walk and the conductors: empty
    # them, so that both run under the refusals
    classes._cf_generator.cache_clear()
    discriminants._conductor.cache_clear()
    monkeypatch.setattr(Elem, "__truediv__", refuse)
    monkeypatch.setattr(helpers, "sqrt_by_fractions", refuse)
    for d in (None, 5, 10, 19, -3, -15):
        for sign in ("any", "totally_negative"):
            assert discriminant_classes(make_field(d), 60, sign) == expected[d, sign]


@pytest.mark.parametrize("d", [31, 46])
def test_table_beyond_box_cliff(d, capsys):
    # eps ~ 3040 and ~ 48670: the box scan took minutes at this bound
    K = make_field(d)
    assert main(["table", "--field", str(d), "--bound", "200", "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows
    eps4 = fundamental_unit(K) ** 4
    deltas = [parse_elem(K, r["delta"]) for r in rows]
    for r, delta in zip(rows, deltas):
        assert discriminant_witness(delta) is not None and is_totally_negative(delta)
        assert abs(delta.norm()) == r["norm"] <= 200
        assert _box_window_member(delta, eps4), delta
    for i, a in enumerate(deltas):
        for b in deltas[i + 1 :]:
            assert not same_class_mod_unit_squares(a, b), (a, b)


def test_class_number_beyond_box_cliff():
    assert class_number(make_field(31)) == 1


@pytest.mark.parametrize("d", [1009, 10, -15, None])
def test_first_touch_of_a_discriminant_multiplies_no_ideal(d, monkeypatch):
    # conductor_ideal of a delta whose ideal was never built, in a field
    # whose primes may be new too: with f = (1) the miss builds (delta) by a
    # gcd, factors and confirms it on integers and reads rel_disc = (delta),
    # so no ideal product runs; with f != (1) f, f^2 and rel_disc are built
    # on integers from the prime powers, which multiply none either.  The
    # answers match the division oracle once the count is taken
    K = make_field(d)
    t, n = K.omega_trace, K.omega_norm
    products = []
    real = ideals._hnf_product
    monkeypatch.setattr(ideals, "_hnf_product", lambda *args: products.append(args) or real(*args))
    rng = random.Random(d or 1)
    infos = []
    while len(infos) < 150:
        x, y = rng.randint(-10**5, 10**5), rng.randint(-10**3, 10**3) if K.degree == 2 else 0
        if not (x or y) or discriminants._witness_coords(K, x, y) is None:
            continue
        hnf = (abs(x), 0, 1) if K.degree == 1 else ideals._hnf_from_vectors([(x, y), (-n * y, x + t * y)])
        if (K, hnf, 1) in ideals._IDEALS:
            continue
        infos.append(conductor_ideal(Elem(K, x, y)))
    assert products == []
    monkeypatch.undo()
    assert sum(info.f_delta.is_unit_ideal() for info in infos) >= 50
    assert any(not info.f_delta.is_unit_ideal() for info in infos)
    for info in infos[:40]:
        assert (info.f_delta, info.rel_disc, info.witness_x) == conductor_by_division(info.delta), info.delta
