import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relquad.dyadic import (
    RAMIFIED_CLASSES,
    LocalField,
    all_local_fields,
    duality_report,
    hilbert_symbol,
    hilbert_symbol_q2_formula,
    is_square,
    local_field,
    sqrt_certificate,
)
from relquad import dyadic
from relquad.dyadic import LocalElem, SquareClassSpace, _class_symbol, _sample_integral
from relquad.field import make_field

from helpers import (
    _first_square_mask,
    agree_at_precision,
    all_reps,
    bilinear_by_entries,
    bilinear_by_row_pairs,
    certificate_square_classes,
    decompose_linear_by_elems,
    duality_by_classes,
    duality_by_pair_bits,
    element_pairing,
    gram_by_symbols,
    level_classes_at_depth_2e2,
    local_valuation_by_halving,
    norm_class_rows_by_decompose,
    hilbert_symbol_q2_by_division,
    norm_rows_one_value_at_a_time,
    orthogonal_classes,
    orthogonal_complement_by_pair_bits,
    product_formula_holds,
    q2_oracle_by_fractions,
    real_symbol,
    sample_elems,
    shift_down,
    space_basis,
    span_masks,
    sqrt_certificate_by_elems,
    symmetric_by_entries,
    tame_symbol,
    unit_level,
)

DESCRIPTORS = ["q2", "unram"] + [f"ram:{c}" for c in RAMIFIED_CLASSES]


def test_field_constants():
    F = local_field("q2")
    assert (F.e, F.f, F.dim) == (1, 1, 3)
    U = local_field("unram")
    assert (U.e, U.f, U.dim) == (1, 2, 4)
    for c in RAMIFIED_CLASSES:
        R = local_field(f"ram:{c}")
        assert (R.e, R.f, R.dim) == (2, 1, 4)
        assert R.pi.valuation() == 1
    assert U.pi.valuation() == 1 and F.pi.valuation() == 1
    with pytest.raises(ValueError):
        local_field("ram:3")


def test_residue_field_ops():
    F = local_field("q2")
    assert F.artin_schreier_solve((0, 0)) in [(0, 0), (1, 0)]
    assert F.artin_schreier_solve((1, 0)) is None  # trace 1 in F2
    U = local_field("unram")
    g = (0, 1)
    assert U.res_trace(g) == 1
    assert U.artin_schreier_solve(g) is None
    y = U.artin_schreier_solve((1, 0))  # solve y^2 + y = 1: y = g works
    assert y is not None
    y2 = U.res_mul(y, y)
    assert (y2[0] ^ y[0], y2[1] ^ y[1]) == (1, 0)
    # F4 multiplication table spot checks: g * g = g + 1
    assert U.res_mul(g, g) == (1, 1)


def test_valuations_and_arith():
    for F in all_local_fields():
        x = F.pi ** 3 * F.elem(1 + 2)
        assert (F.pi**2).valuation() == 2
        v = x.valuation()
        assert v == 3
        y = shift_down(x, 1)
        assert y.valuation() == 2
        u = F.elem(5) if F.f == 1 else F.elem(1, 2)
        if u.valuation() == 0:
            assert (u * u.unit_inverse()) == F.one


def test_is_square_examples():
    F = local_field("q2")
    cert = sqrt_certificate(F.elem(17))
    assert cert is not None and agree_at_precision(cert * cert, F.elem(17))
    assert not is_square(F.elem(-1))
    assert not is_square(F.elem(2))
    assert not is_square(F.elem(5))
    assert is_square(F.elem(9))
    U = local_field("unram")
    cert = sqrt_certificate(U.elem(5))  # 5 = (2w - 1)^2 since w^2 = w + 1
    assert cert is not None and agree_at_precision(cert * cert, U.elem(5))


def test_is_square_matches_integer_squares():
    # n kept inside the truncation window: small 2-valuation
    rng = random.Random(77)
    F = local_field("q2")
    for _ in range(60):
        n = rng.choice([1, 2, 4]) * (2 * rng.randint(1, 2000) - 1)
        z = F.elem(n * n)
        cert = sqrt_certificate(z)
        assert cert is not None and agree_at_precision(cert * cert, z)


def test_sqrt_certificates_everywhere():
    for F in all_local_fields():
        space = F.space()
        for rep in all_reps(space):
            sq = rep * rep
            cert = sqrt_certificate(sq)
            assert cert is not None and agree_at_precision(cert * cert, sq)
            if space.decompose(rep) != 0:
                assert not is_square(rep)


def test_unit_levels():
    F = local_field("q2")
    assert unit_level(F.elem(5)) == 2
    assert unit_level(F.elem(3)) == 1
    assert unit_level(F.elem(9)) == 3  # cap 2e+1, reported as "square range"
    with pytest.raises(ValueError):
        unit_level(F.elem(2))


def test_hilbert_examples():
    F = local_field("q2")
    for b in (F.elem(3), F.elem(2), F.elem(-1), F.elem(10)):
        assert hilbert_symbol(F.one, b) == 1
        assert hilbert_symbol(b, -b) == 1  # (a, -a) = 1
    assert hilbert_symbol(F.elem(2), F.elem(3)) == -1
    assert hilbert_symbol_q2_formula(2, 3) == -1


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_hilbert_symbol_refuses_zero_in_both_orders(desc):
    # the symbol lives on nonzero pairs; with a square first argument the
    # zero second argument was never decomposed and the symbol returned 1
    F = local_field(desc)
    for x in (F.one, F.elem(4), F.pi):
        for args in ((x, F.zero), (F.zero, x)):
            with pytest.raises(ValueError, match="cannot classify 0"):
                hilbert_symbol(*args)
    with pytest.raises(ValueError, match="cannot classify 0"):
        hilbert_symbol(F.zero, F.zero)


def test_q2_oracle_full_table():
    rep = duality_report("q2")
    assert rep["q2_closed_form_oracle"]


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_duality_report_all_checks(desc):
    rep = duality_report(desc)
    for key in (
        "symmetric",
        "decompose_linear",
        "bilinear",
        "nondegenerate",
        "duality_ok",
        "even_level_pairs_trivial",
        "units_mod_squares_lemma",
        "trace_criterion_level_2e",
        "q2_closed_form_oracle",
        "filtration_cardinalities_ok",
    ):
        assert rep[key], (desc, key)


def test_filtration_dimensions_examples():
    rep = duality_report("q2")
    assert [rep["dims"][k] for k in (-1, 0, 1)] == [3, 2, 1]
    rep = duality_report("ram:2")
    assert [rep["dims"][k] for k in (-1, 0, 1, 2)] == [4, 3, 2, 1]
    rep = duality_report("unram")
    assert [rep["dims"][k] for k in (-1, 0, 1)] == [4, 3, 1]


def test_precision_rerun_stability():
    for desc in ("q2", "ram:-5", "unram"):
        base = duality_report(desc)
        again = duality_report(desc, precision=base["precision"] + 4)
        for key in ("dims", "gram", "duality_ok", "bilinear", "nondegenerate"):
            assert base[key] == again[key]


def test_tame_and_real_symbols():
    # (5, 3)_3: 5 is a nonsquare mod 3 => depends on valuations: v_3(3) = 1
    assert tame_symbol(3, 5, 3) == kronecker_symbol_check(5, 3)
    assert real_symbol(-2, -3) == -1
    assert real_symbol(2, -3) == 1


def test_tame_symbol_rejects_zero():
    # 0 has no p-adic unit part; the split must refuse it, not loop
    with pytest.raises(ValueError):
        tame_symbol(0, 3, 5)
    with pytest.raises(ValueError):
        tame_symbol(3, 0, 5)


def kronecker_symbol_check(u, p):
    from relquad.arith import kronecker

    return kronecker(u, p)


def test_product_formula_random_rationals():
    rng = random.Random(20260808)
    checked = 0
    while checked < 200:
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        if not a or not b:
            continue
        assert product_formula_holds(a, b), (a, b)
        checked += 1


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_decompose_table_matches_square_search(desc, extra):
    # the unit table against the certificate search it replaced, on every
    # digit pattern two levels past the local square theorem's range, and
    # on those times pi and pi^2
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    space = F.space()
    for x in sample_elems(F, 2 * F.e + 3):
        if not x:
            continue
        for y in (x, x * F.pi, x * F.pi * F.pi):
            v = y.valuation()
            mask = _first_square_mask(shift_down(y, v), space_basis(space)[1:])
            assert space.decompose(y) == v % 2 | mask << 1, (desc, y)


@pytest.mark.parametrize("extra", [0, 4, 9])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_square_class_space_matches_certificate_build(desc, extra, monkeypatch):
    # the space built from explicit squares runs no square test, and has
    # the basis and table of the certificate search it replaced
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)

    def no_certificates(*args):
        raise AssertionError("square certificate requested at set-up")

    with monkeypatch.context() as m:
        m.setattr(dyadic, "sqrt_certificate", no_certificates)
        m.setattr(dyadic, "_sqrt_coords", no_certificates)
        space = SquareClassSpace(F)
    basis_units, table = certificate_square_classes(F, space._key)
    assert space_basis(space) == [F.pi, *basis_units]
    assert space.table == table


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_sqrt_certificate_matches_element_route(desc, extra):
    # the certificate on pairs against the LocalElem route it replaced, on
    # every nonzero digit pattern of depth 2e + 2: the same certificate, or
    # None for both; the pair kernel gives the certificate's pair
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    squares = 0
    for x in (LocalElem(F, a, b) for a, b in F.samples(2 * F.e + 2)):
        if not x:
            continue
        cert = sqrt_certificate_by_elems(x)
        assert sqrt_certificate(x) == cert, (desc, x)
        assert dyadic._sqrt_coords(F, x.a, x.b) == (None if cert is None else (cert.a, cert.b))
        squares += cert is not None
    assert squares, desc


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_norm_class_rows_match_decompose_route(desc, extra):
    # the norm-group search classifies each value with the valuation it
    # already took; its rows equal those of one decompose per value
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    for cx in range(1, 1 << F.dim):
        assert list(dyadic._norm_rows(F, cx)) == norm_class_rows_by_decompose(F, cx), (desc, cx)


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_cold_builds_match_deeper_and_one_value_searches(desc, extra):
    # the level classes read at depth 2e + 1 - i against one digit deeper,
    # the filtration they span, and every symbol row against a norm-group
    # search that classifies its u = 0 pass one value at a time
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    deeper = {i: level_classes_at_depth_2e2(F, i) for i in range(2 * F.e + 1)}
    for i, classes in deeper.items():
        assert set(dyadic._level_classes(F, i)) == classes, (desc, i)
    filtration = dyadic.unit_filtration(F)
    for k in range(F.e + 1):
        assert span_masks(filtration[k]) == span_masks(sorted(deeper[2 * k])), (desc, k)
    for cx in range(1, 1 << F.dim):
        norms = span_masks(norm_rows_one_value_at_a_time(F, cx))
        assert len(norms) == 1 << (F.dim - 1), (desc, cx)
        expected = sum(1 << cy for cy in range(1 << F.dim) if cy not in norms)
        assert dyadic._symbol_row(F, cx) == expected, (desc, cx)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_decompose_table_keys(desc):
    # one key per class of O*/U_(2e+1), and a key is blind to pi^(2e+1) O
    F = local_field(desc)
    space = F.space()
    q = 1 << F.f
    assert len(space.table) == (q - 1) * q ** (2 * F.e)
    rng = random.Random(2026)
    top = F.pi ** (2 * F.e + 1)
    units = [u for u in sample_elems(F, 2 * F.e + 1) if u.valuation() == 0]
    assert {space._key(u.a, u.b) for u in units} == set(space.table)
    for u in units:
        for _ in range(8):
            t = F.elem(rng.randrange(F.W), 0 if desc == "q2" else rng.randrange(F.W))
            moved = u + top * t
            assert space._key(moved.a, moved.b) == space._key(u.a, u.b), (desc, u, t)


def test_local_elem_preconditions_survive_optimize():
    # dividing a unit by pi or an odd coordinate by 2, and inverting a
    # non-unit, must raise under python -O as well (as asserts, -O returned
    # wrong elements)
    code = (
        "from relquad.dyadic import RAMIFIED_CLASSES, _div_int, _div_pi, local_field\n"
        "descs = ['q2', 'unram'] + [f'ram:{c}' for c in RAMIFIED_CLASSES]\n"
        "calls = [lambda F=local_field(d): _div_pi(F, 1, 0) for d in descs]\n"
        "calls += [lambda F=local_field(d): _div_int(F, 3, 0, 2) for d in descs]\n"
        "calls.append(lambda: local_field('q2').elem(2) ** -1)\n"
        "raised = 0\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        raised += 1\n"
        "print(__debug__, len(calls), raised)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dyadic.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "17", "17"]


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_sample_integral_order(desc):
    # one power of pi per digit level gives the same pairs, in the same
    # order, as raising pi for every (element, digit) pair on LocalElems,
    # the digit p + q*g lifted to p + q t
    F = local_field(desc)
    depth = 2 * F.e + 2
    outs = [F.zero]
    for i in range(depth):
        outs = [acc + F.elem(*r) * F.pi**i for acc in outs for r in F.digits]
    assert _sample_integral(F, depth) == [(x.a, x.b) for x in outs]


def _descriptor_args(desc):
    return ("ram", int(desc[4:])) if desc.startswith("ram:") else (desc, None)


def test_local_fields_are_interned():
    # one field per (kind, c, precision): the default precision names the
    # same instance as its explicit value, precision + 4 another one
    fields = all_local_fields()
    assert [local_field(d) for d in DESCRIPTORS] == fields
    for desc, F in zip(DESCRIPTORS, fields):
        assert local_field(desc) is F
        assert local_field(desc, F.precision) is F
        fine = local_field(desc, F.precision + 4)
        assert fine is not F and fine.precision == F.precision + 4
        assert local_field(desc, F.precision + 4) is fine
        assert all_local_fields(F.precision + 4)[DESCRIPTORS.index(desc)] is fine
        assert LocalField(*_descriptor_args(desc)) is not F
        assert F.space() is F.space()
    assert local_field("ram:2") is not local_field("ram:-2")


def test_local_fields_copy_to_the_interned_field():
    # copy, deepcopy and a pickle round trip of an interned field, at the
    # default precision and at + 4, hand back the field itself, so an
    # element of the copy equals the same element of the field
    for extra in (0, 4):
        for desc in DESCRIPTORS:
            F = local_field(desc)
            F = local_field(desc, F.precision + extra)
            for twin in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
                assert twin is F, (F, extra)
            assert copy.deepcopy(F).elem(3) == F.elem(3)
            x = F.elem(3, 0 if desc == "q2" else 1)
            assert pickle.loads(pickle.dumps([F, x])) == [F, x]


def test_field_caches_are_immutable():
    # shared caches hold tuples and ints; the symbol rows are read off one
    # norm-group search per class
    F = local_field("unram")
    assert isinstance(F.samples(3), tuple) and F.samples(3) is F.samples(3)
    assert list(F.samples(3)) == _sample_integral(F, 3)
    assert F.sample_squares(3) == tuple(((u * u).a, (u * u).b) for u in sample_elems(F, 3))
    rows = dyadic._norm_rows(F, 1)
    assert isinstance(rows, tuple)
    assert dyadic._symbol_row(F, 1) == sum(
        1 << cy for cy in range(1 << F.dim) if cy not in span_masks(list(rows))
    )
    assert F._symbol_memo and all(isinstance(r, int) for r in F._symbol_memo.values())


@pytest.mark.parametrize("extra", [0, 4])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_pairing_table_matches_element_symbols(desc, extra):
    # the report's class table and Gram matrix against one Hilbert symbol
    # per pair of elements and a Gram matrix rebuilt per filtration level;
    # on elements that are not class representatives, units and elements of
    # positive valuation, the symbol is the class symbol of the two
    # decompositions
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    table, gram, duality = element_pairing(F)
    rows = dyadic._symbol_table(F, F.space().rep_pairs)
    assert [[-1 if row >> j & 1 else 1 for j in range(len(rows))] for row in rows] == table
    rep = duality_report(desc, F.precision)
    assert rep["gram"] == gram
    assert rep["duality_ok"] == duality
    space = F.space()
    rng = random.Random(f"symbols:{desc}:{extra}")
    elems = [
        F.elem(rng.randrange(F.W), 0 if desc == "q2" else rng.randrange(F.W)) * F.pi**k
        for k in (0, 0, 1, 2, 3, 5)
        for _ in range(4)
    ]
    elems = [x for x in elems if x.valuation() is not None and x not in all_reps(space)]
    assert any(x.valuation() == 0 for x in elems) and any(x.valuation() > 1 for x in elems)
    for x in elems:
        for y in elems:
            expected = _class_symbol(F, space.decompose(x), space.decompose(y))
            assert hilbert_symbol(x, y) == expected, (desc, x, y)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_private_field_report_matches_interned(desc, monkeypatch):
    # a LocalField built directly shares no cache with the interned one and
    # must give the same report
    interned = duality_report(desc)
    with monkeypatch.context() as m:
        m.setattr(dyadic, "local_field", lambda d, p=None: LocalField(*_descriptor_args(d), p))
        private = duality_report(desc)
    assert private == interned


@pytest.mark.parametrize("extra", [0, 4, 9])
@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_unit_part_matches_shift_down(desc, extra):
    # the classify kernel's x f_v / 2^s reads the class of v divisions by pi,
    # on every digit pattern of depth 2e + 3 and on those times pi and pi^2
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    space = F.space()
    for x in sample_elems(F, 2 * F.e + 3):
        if not x:
            continue
        for y in (x, x * F.pi, x * F.pi * F.pi):
            v = y.valuation()
            u = shift_down(y, v)
            expect = v % 2 | space.table[space._key(u.a, u.b)] << 1
            assert space._classify_pairs([(y.a, y.b)]) == [expect], (desc, y)
            assert space.decompose(y) == expect, (desc, y)


def test_unit_part_at_the_valuation_cap():
    # the deepest valuation decompose accepts still leaves the unit part's
    # class readable
    for F in all_local_fields():
        space = F.space()
        top = F.e * (F.precision + 2)
        for u in (F.one, space_basis(space)[-1]):
            y = u * F.pi**top
            assert y.valuation() == top
            u = shift_down(y, top)
            expect = top % 2 | space.table[space._key(u.a, u.b)] << 1
            assert space._classify_pairs([(y.a, y.b)]) == [expect], F
            assert space.decompose(y) == expect, F


def test_shared_fields_survive_racing_threads(monkeypatch):
    # threads race to fill the lazy caches of fields no other test builds;
    # every report and symbol must equal those of private fields
    extra = 13
    pairs = [((3, 1), (2, -5)), ((-1, 0), (6, 7)), ((5, 2), (-3, 4))]

    def run(descs):
        out = {}
        for desc in descs:
            F = dyadic.local_field(desc)
            F = dyadic.local_field(desc, F.precision + extra)
            elems = [F.elem(a, 0 if desc == "q2" else b) for pair in pairs for a, b in pair]
            symbols = [hilbert_symbol(x, y) for x, y in zip(elems[::2], elems[1::2])]
            out[desc] = (duality_report(desc, F.precision), symbols)
        return out

    with monkeypatch.context() as m:
        m.setattr(dyadic, "local_field", lambda d, p=None: LocalField(*_descriptor_args(d), p))
        expected = run(DESCRIPTORS)
    results = []

    def worker(k):
        got = run(DESCRIPTORS[k:] + DESCRIPTORS[:k])
        results.append(got)

    threads = [threading.Thread(target=worker, args=(k % len(DESCRIPTORS),)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    assert all(got == expected for got in results)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_generator_rule_matches_global_arithmetic(desc):
    # t^2 = T t + C against field.Elem: a + b w in Q(sqrt 5), w^2 = w + 1,
    # for the unramified field and a + b sqrt c in Q(sqrt c) for ram:c; the
    # products agree modulo W.  Over Q2 the product is that of the integers
    F = local_field(desc)
    W = F.W
    grid = [0, 1, 2, 3, -5, 12, W - 7, (1 << F.precision) + 1]
    if desc == "q2":
        for a1 in grid:
            x = F.elem(a1)
            for a2 in grid:
                assert x * F.elem(a2) == F.elem(a1 * a2)
        return
    K = make_field(5 if desc == "unram" else F.c)

    def coords(X):
        return (int(X.x) % W, int(X.y) % W)

    pairs = [(a, b) for a in grid for b in grid]
    for a1, b1 in pairs:
        x, X = F.elem(a1, b1), K.elem(a1 % W, b1 % W)
        for a2, b2 in pairs[::7]:
            assert x * F.elem(a2, b2) == F.elem(*coords(X * K.elem(a2, b2))), (desc, a1, b1, a2, b2)


def _global_product(F, x, y):
    # the product of two pairs through field.Elem, as in
    # test_generator_rule_matches_global_arithmetic
    if F.kind == "q2":
        return x[0] * y[0] % F.W, 0
    K = make_field(5 if F.kind == "unram" else F.c)
    P = K.elem(*x) * K.elem(*y)
    return int(P.x) % F.W, int(P.y) % F.W


def _draw_pair(data, F):
    # zero, any pair, or a unit times pi^k with k up to and past the
    # valuation cap, where the value is lost to precision
    shape = data.draw(st.sampled_from(["zero", "any", "unit_times_pi_power"]))
    if shape == "zero":
        return 0, 0
    a = data.draw(st.integers(0, F.W - 1))
    b = 0 if F.kind == "q2" else data.draw(st.integers(0, F.W - 1))
    if shape == "any":
        return a, b
    # a odd, and b even when c is odd, make the norm odd
    a, b = a | 1, b & ~1 if F.kind == "ram" and F.c % 2 else b
    k = data.draw(
        st.one_of(
            st.integers(0, F.vcap + F.e + 2), st.sampled_from([F.vcap - 1, F.vcap, F.vcap + 1])
        )
    )
    if F.kind == "q2":
        return a * 2**k % F.W, 0
    K = make_field(5 if F.kind == "unram" else F.c)
    pi = F.pi
    x = K.elem(a, b) * K.elem(pi.a, pi.b) ** k
    return int(x.x) % F.W, int(x.y) % F.W


_KERNEL_CASES = [(desc, extra) for desc in DESCRIPTORS for extra in (0, 4)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_KERNEL_CASES), st.data())
def test_pair_kernels_match_oracles(case, data):
    # _valuation against the halving loop, _mul against field.Elem, and
    # the classify kernel against the square-certificate search
    desc, extra = case
    F = local_field(desc)
    F = local_field(desc, F.precision + extra)
    space = F.space()
    x, y = _draw_pair(data, F), _draw_pair(data, F)
    assert dyadic._mul(F, *x, *y) == _global_product(F, x, y), (desc, x, y)
    for a, b in (x, y):
        v = local_valuation_by_halving(F, a, b)
        assert dyadic._valuation(F, a, b) == v, (desc, a, b)
        if v is None:
            with pytest.raises(ValueError, match="cannot classify 0"):
                space._classify_pairs([(a, b)])
            continue
        mask = _first_square_mask(shift_down(LocalElem(F, a, b), v), space_basis(space)[1:])
        assert mask is not None, (desc, a, b)
        assert space._classify_pairs([(a, b)]) == [v % 2 | mask << 1], (desc, a, b)


def test_kernel_draws_reach_the_cap():
    # the pi^k draws above reach valuation vcap exactly and lose vcap + 1
    for F in all_local_fields():
        pi = F.pi
        at_cap = pi ** F.vcap
        assert dyadic._valuation(F, at_cap.a, at_cap.b) == F.vcap
        past = at_cap * pi
        assert past and dyadic._valuation(F, past.a, past.b) is None


_REPORT_CHECKS = ("decompose_linear", "symmetric", "bilinear", "duality_ok")


def _scalar_checks(F, table):
    # the four checks in their scalar forms, on the +-1 table given
    space = F.space()
    return {
        "decompose_linear": decompose_linear_by_elems(space),
        "symmetric": symmetric_by_entries(table),
        "bilinear": bilinear_by_entries(table),
        "duality_ok": duality_by_pair_bits(F, gram_by_symbols(F), dyadic.unit_filtration(F)),
    }


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_duality_checks_catch_a_flipped_symbol(desc, monkeypatch):
    # one entry of the symbol table flipped: the report's checks read False
    # exactly where their scalar forms on the flipped table do
    F = local_field(desc)
    table = element_pairing(F)[0]
    n = len(table)
    real = dyadic._symbol_table
    for i, j in sorted({(0, 0), (0, n - 1), (1, 2), (n - 1, 1), (n - 1, n - 1), (n // 2, 3)}):
        flipped = [row[:] for row in table]
        flipped[i][j] = -flipped[i][j]
        expected = _scalar_checks(F, flipped)

        def flip(F, reps, i=i, j=j):
            rows = real(F, reps)
            rows[i] ^= 1 << j
            return rows

        with monkeypatch.context() as m:
            m.setattr(dyadic, "_symbol_table", flip)
            rep = duality_report(desc)
        assert {key: rep[key] for key in _REPORT_CHECKS} == expected, (desc, i, j)
        assert not expected["bilinear"] and expected["symmetric"] == (i == j)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_duality_checks_catch_a_flipped_unit_class(desc, monkeypatch):
    # one entry of space.table flipped on a private field: the report's
    # checks read False exactly where their scalar forms on that field do,
    # or both routes stop at the same set-up check.  Every flip shows, and
    # each of the four checks is the one that shows it for some entry
    keys = sorted(local_field(desc).space().table)
    failed = dict.fromkeys(_REPORT_CHECKS, 0)
    for key in keys:
        F = LocalField(*_descriptor_args(desc))
        F.space().table[key] ^= 1
        try:
            expected = _scalar_checks(F, element_pairing(F)[0])
        except AssertionError as exc:
            expected = str(exc)
        with monkeypatch.context() as m:
            m.setattr(dyadic, "local_field", lambda d, p=None, F=F: F)
            try:
                rep = duality_report(desc)
                got = {k: rep[k] for k in _REPORT_CHECKS}
            except AssertionError as exc:
                got = str(exc)
        assert got == expected, (desc, key)
        if isinstance(expected, dict):
            assert not all(expected.values()), (desc, key)
            for k, ok in expected.items():
                failed[k] += not ok
    assert all(failed.values()), (desc, failed)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_report_checks_match_oracles_under_random_flips(desc, monkeypatch):
    # 1-3 entries of the symbol table flipped per trial, on fixed seeds: the
    # n-identity bilinearity, the row symmetry, the inclusion-plus-dimension
    # duality and the split-once Q2 closed form read what their n^2 and
    # 2^dim forms read on the same rows
    F = local_field(desc)
    n = 1 << F.dim
    rng = random.Random(f"flips:{desc}")
    gram_rows = [dyadic._row_to_mask(r) for r in gram_by_symbols(F)]
    duality = duality_by_classes(F, gram_rows, dyadic.unit_filtration(F))
    real = dyadic._symbol_table
    symmetric_seen = set()
    for trial in range(12):
        entries = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))}
        if trial % 3 == 0:  # a mirrored pair keeps the table symmetric
            i, j = rng.sample(range(n), 2)
            entries = {(i, j), (j, i)}
        rows = real(F, F.space().rep_pairs)
        for i, j in entries:
            rows[i] ^= 1 << j
        with monkeypatch.context() as m:
            m.setattr(dyadic, "_symbol_table", lambda F, reps, rows=rows: list(rows))
            rep = duality_report(desc)
        entries = [[-1 if row >> j & 1 else 1 for j in range(n)] for row in rows]
        expected = {
            "bilinear": bilinear_by_row_pairs(rows),
            "symmetric": symmetric_by_entries(entries),
            "duality_ok": duality,
            "q2_closed_form_oracle": q2_oracle_by_fractions(F, entries) if desc == "q2" else True,
        }
        assert {key: rep[key] for key in expected} == expected, (desc, entries)
        symmetric_seen.add(expected["symmetric"])
    assert symmetric_seen == {False, True}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_rows_linear_matches_row_pairs(dim):
    # the n identities against the n^2 pairs on random linear maps, the same
    # with 1-3 rows changed, and random rows
    rng = random.Random(f"linear:{dim}")
    n = 1 << dim
    verdicts = set()
    for trial in range(40):
        images = [rng.randrange(1 << n) for _ in range(dim)]
        rows = [0] * n
        for i in range(1, n):
            rows[i] = rows[i & (i - 1)] ^ images[(i & -i).bit_length() - 1]
        if trial % 4 == 1:
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        elif trial % 4 == 2:
            rows = [rng.randrange(1 << n) for _ in range(n)]
        ok = dyadic._rows_linear(rows)
        assert ok == bilinear_by_row_pairs(rows), (dim, rows)
        verdicts.add(ok)
    assert verdicts == {False, True}


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_complement_form_matches_class_sets(desc):
    # inclusion plus dimension against the orthogonal classes of all 2^dim,
    # on the real Gram matrix and on random ones, degenerate ones included,
    # for random row sets with zero, repeated and dependent rows, and
    # candidate complements that are the true one (with dependent rows
    # added), one row short, one row off, or random
    F = local_field(desc)
    rng = random.Random(f"complement:{desc}")
    real_gram = [dyadic._row_to_mask(r) for r in gram_by_symbols(F)]
    verdicts = set()
    for trial in range(60):
        gram_rows = real_gram if trial % 2 else [rng.randrange(1 << F.dim) for _ in range(F.dim)]
        rows = [rng.randrange(1 << F.dim) for _ in range(rng.randint(0, F.dim))]
        if rows and trial % 3 == 0:
            rows += [rows[0], rows[0] ^ rows[-1], 0]
        ortho = orthogonal_classes(F, gram_rows, rows)
        basis: list[int] = []
        for m in sorted(ortho):
            dyadic._gf2_insert(basis, m)
        kind = trial % 4
        if kind == 0:
            comp = basis + [basis[0] ^ basis[-1]] if basis else [0]
        elif kind == 1:
            comp = basis[1:]
        elif kind == 2:
            comp = basis[:-1] + [rng.randrange(1 << F.dim)]
        else:
            comp = [rng.randrange(1 << F.dim) for _ in range(rng.randint(0, F.dim))]
        ok = dyadic._complement_is_span(gram_rows, rows, comp)
        assert ok == (ortho == span_masks(comp)), (desc, gram_rows, rows, comp)
        verdicts.add(ok)
    assert verdicts == {False, True}


def test_q2_formula_matches_division_oracle():
    # the closed form on the shared integer split against valuations found
    # by division, over signed fractions with even and odd parts
    rng = random.Random("q2-formula")
    values = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3, 8)]
    for _ in range(120):
        num = rng.choice((-1, 1)) * rng.randrange(1, 400)
        values.append(Fraction(num, rng.randrange(1, 60)))
    for a in values:
        for b in values[::7]:
            assert hilbert_symbol_q2_formula(a, b) == hilbert_symbol_q2_by_division(a, b), (a, b)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_orthogonal_classes_match_pair_bits(desc):
    # the classes orthogonal through the mask rows of the Gram matrix span
    # the pair-bit complement, for every filtration level and every class
    F = local_field(desc)
    gram = dyadic.gram_matrix(F)
    assert gram == gram_by_symbols(F)
    gram_rows = [dyadic._row_to_mask(r) for r in gram]
    filtration = dyadic.unit_filtration(F)
    subspaces = [filtration[k] for k in filtration] + [[m] for m in range(1 << F.dim)]
    for rows in subspaces:
        expected = span_masks(orthogonal_complement_by_pair_bits(F, rows, gram))
        assert orthogonal_classes(F, gram_rows, rows) == expected, (desc, rows)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_products_of_representatives_are_symmetric(desc):
    # the premise of classifying each unordered product once in
    # _decompose_linear: both argument orders give the same pair
    F = local_field(desc)
    reps = F.space().rep_pairs
    for p in reps:
        for q in reps:
            assert dyadic._mul(F, *p, *q) == dyadic._mul(F, *q, *p), (desc, p, q)


def test_first_reports_build_only_the_field_constants():
    # the dyadic layer runs on coordinate pairs, with LocalElem only at the
    # public boundary: in a fresh process the first duality reports of the
    # eight fields build the three constants of each field, zero, one and
    # pi, and no other LocalElem
    code = (
        "from relquad import dyadic\n"
        "built = 0\n"
        "init = dyadic.LocalElem.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    global built\n"
        "    built += 1\n"
        "    init(self, *args, **kwargs)\n"
        "dyadic.LocalElem.__init__ = counted\n"
        "for desc in ['q2', 'unram'] + [f'ram:{c}' for c in dyadic.RAMIFIED_CLASSES]:\n"
        "    dyadic.duality_report(desc)\n"
        "print(built)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dyadic.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == [str(3 * len(DESCRIPTORS))]


def test_first_reports_classify_few_pairs(monkeypatch):
    # a timing-free guard on the cold builds: the first duality reports of
    # the eight fields, on private fields with nothing built, send at most
    # 3,441 pairs to the classify kernel in at most 622 calls (the u = 0
    # pass of each norm-group search in one batch, the level classes at
    # depth 2e + 1 - i); before those builds it took 3,871 pairs in 2,246
    # calls
    kernel = SquareClassSpace._classify_pairs
    seen = {"pairs": 0, "calls": 0}

    def counted(self, pairs):
        pairs = list(pairs)
        seen["pairs"] += len(pairs)
        seen["calls"] += 1
        return kernel(self, pairs)

    monkeypatch.setattr(SquareClassSpace, "_classify_pairs", counted)
    for desc in DESCRIPTORS:
        F = LocalField(*_descriptor_args(desc))
        monkeypatch.setattr(dyadic, "local_field", lambda d, p=None, F=F: F)
        assert all(v is not False for v in duality_report(desc).values()), desc
    assert seen["pairs"] <= 3441 and seen["calls"] <= 622, seen


def test_local_elem_is_immutable_and_equal_by_value():
    F = local_field("ram:-5")
    x = F.elem(3, 4)
    for name in ("field", "a", "b", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.a
    assert (x.field, x.a, x.b) == (F, 3, 4)
    y = LocalElem(F, 3, 4)
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != F.elem(3, 5) and x != F.elem(4, 4)
    assert x != local_field("ram:-5", F.precision + 4).elem(3, 4)
    assert x != LocalField("ram", -5).elem(3, 4)
    assert x != (3, 4) and len({x, y, F.elem(3, 5)}) == 2
    assert repr(x) == f"LocalElem(field={F!r}, a=3, b=4)"


def test_field_constants_are_per_instance():
    # one, zero and pi are built with the field: the same object on every
    # access, and never shared with a private field or another precision
    for desc in DESCRIPTORS:
        F = local_field(desc)
        fine = local_field(desc, F.precision + 4)
        private = LocalField(*_descriptor_args(desc))
        for name, pair in (("zero", (0, 0)), ("one", (1, 0))):
            x = getattr(F, name)
            assert x is getattr(F, name) and (x.a, x.b) == pair
        assert F.pi is F.pi and F.pi.valuation() == 1
        for G in (fine, private):
            for name in ("zero", "one", "pi"):
                mine, theirs = getattr(F, name), getattr(G, name)
                assert mine is not theirs and mine != theirs and (mine.a, mine.b) == (theirs.a, theirs.b)
                assert theirs.field is G, (desc, name)


def test_dyadic_verify_verdicts_survive_optimize():
    # relquad verify dyadic exits 0 under python -O; with the certificate
    # kernel of the trace criterion returning None, that check, and only
    # that one, fails in all eight fields and the exit code is 1
    code = (
        "import contextlib, io, json, sys\n"
        "import relquad.dyadic as dyadic\n"
        "from relquad.cli import main\n"
        "if sys.argv[1] == 'broken':\n"
        "    dyadic._sqrt_coords = lambda F, a, b: None\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['verify', 'dyadic'])\n"
        "rep = json.loads(out.getvalue())\n"
        "failed = sorted({f.split(': ')[1] for f in rep['failures']})\n"
        "print(json.dumps([__debug__, code, len(rep['reports']), failed]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dyadic.__file__).parents[1])}
    runs = {}
    for mode in ("real", "broken"):
        out = subprocess.run(
            [sys.executable, "-O", "-c", code, mode], capture_output=True, text=True, env=env, check=True
        )
        runs[mode] = out.stdout.strip()
    assert runs["real"] == '[false, 0, 8, []]'
    assert runs["broken"] == '[false, 1, 8, ["trace_criterion_level_2e fails"]]'


def test_local_duality_verdict_survives_optimize():
    # relquad local-duality exits 0 under python -O; with one entry of the
    # symbol table flipped the report shows bilinear false and exits 1
    code = (
        "import contextlib, io, json, sys\n"
        "import relquad.dyadic as dyadic\n"
        "from relquad.cli import main\n"
        "if sys.argv[1] == 'broken':\n"
        "    real = dyadic._symbol_table\n"
        "    def flipped(F, reps):\n"
        "        rows = real(F, reps)\n"
        "        rows[1] ^= 1 << 2\n"
        "        return rows\n"
        "    dyadic._symbol_table = flipped\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['local-duality', '--field', 'ram:-5'])\n"
        "rep = json.loads(out.getvalue())\n"
        "print(json.dumps([__debug__, code, rep['bilinear']]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dyadic.__file__).parents[1])}
    runs = {}
    for mode in ("real", "broken"):
        out = subprocess.run(
            [sys.executable, "-O", "-c", code, mode], capture_output=True, text=True, env=env, check=True
        )
        runs[mode] = out.stdout.strip()
    assert runs["real"] == "[false, 0, true]"
    assert runs["broken"] == "[false, 1, false]"


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_decompose_linear_classifies_each_unordered_product_once(desc, monkeypatch):
    # the linearity check sends the n (n + 1) / 2 products reps[i] reps[j],
    # i <= j, squares included, through the batched classify kernel, each
    # one once, and they are all the n^2 products
    F = local_field(desc)
    space = F.space()
    reps = space.rep_pairs
    n = len(reps)
    seen = []
    real = SquareClassSpace._classify_pairs

    def recorded(self, pairs):
        seen.extend(pairs)
        return real(self, pairs)

    monkeypatch.setattr(SquareClassSpace, "_classify_pairs", recorded)
    assert dyadic._decompose_linear(F, reps)
    expected = [dyadic._mul(F, *reps[i], *reps[j]) for i in range(n) for j in range(i, n)]
    assert len(seen) == n * (n + 1) // 2 and sorted(seen) == sorted(expected)
    assert set(seen) == {dyadic._mul(F, *p, *q) for p in reps for q in reps}


@pytest.mark.parametrize("desc", [d for d in DESCRIPTORS if d != "q2"])
def test_units_mod_squares_lemma_sees_a_wrong_root(desc, monkeypatch):
    # with every residue square root taken as 0, the factor built at level
    # 2k is 1 and leaves u outside U_(2k+1), and the lemma check reads False;
    # over Q2 the check is vacuous, as every unit lies in U_1
    F = LocalField(*_descriptor_args(desc))
    assert dyadic._units_mod_squares_constructive(F)
    monkeypatch.setattr(LocalField, "res_sqrt", lambda self, r: (0, 0))
    assert not dyadic._units_mod_squares_constructive(F)
