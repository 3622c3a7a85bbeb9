"""Acceptance suite: every criterion at its stated bound, exact arithmetic,
no tolerances.  Run with `pytest -s tests/test_acceptance.py` to see one
PASS/FAIL line per criterion."""

import pytest

from relquad.field import make_field
from relquad.tables import (
    fixture_row_multiset_matches,
    fixture_unit_discs_match,
    load_fixture,
    table_rows,
    unit_discriminants,
)
from relquad.verify import (
    ACCEPTANCE_FIELDS,
    ACCEPTANCE_PARAMS,
    character_suite,
    counting_suite,
    decomposition_suite,
    dyadic_suite,
    hurwitz_suite,
    identity_suite,
)


def _criterion(num: int, desc: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    line = f"[ACCEPTANCE {num}] {status}: {desc}"
    if failures:
        line += f" ({len(failures)} failures; first: {failures[0]})"
    print(line, flush=True)
    assert not failures, line


def test_criterion_1_conductor_reciprocity_sweep():
    failures = []
    for d in ACCEPTANCE_FIELDS:
        rep = counting_suite(field_d=d, **ACCEPTANCE_PARAMS["counting"])
        failures += [f"field {d or 0}: {f}" for f in rep["failures"]]
    _criterion(
        1,
        "count_square_roots == divisor formula == local casework for "
        "|N(delta)| <= 50, N(a) <= 200 over Q, Q(sqrt5), Q(sqrt10), Q(sqrt-15)",
        failures,
    )


def test_criterion_2_table_sqrt5_reproduction():
    K = make_field(5)
    rows = table_rows(K, 500, sign="totally_negative")
    failures = []
    if len(rows) != 55:
        failures.append(f"expected 55 rows, got {len(rows)}")
    failures += fixture_row_multiset_matches(K, rows, load_fixture("table_sqrt5.json"))
    _criterion(2, "55 totally negative classes over Q(sqrt 5), N <= 500, "
                  "(norm, class, conductor) multiset equals the published table", failures)


def test_criterion_3_table_sqrt10_reproduction():
    K = make_field(10)
    rows = table_rows(K, 500, sign="totally_negative")
    failures = fixture_row_multiset_matches(K, rows, load_fixture("table_sqrt10.json"))
    _criterion(3, "totally negative classes over Q(sqrt 10), N <= 500, including "
                  "two-generator conductors (2,sqrt10), (3,sqrt10+2), (5,sqrt10), (4,2sqrt10)",
               failures)


def test_criterion_4_unit_discriminant_sets():
    fixture = load_fixture("unit_discriminants.json")
    expected_sizes = {"-15": 2, "-84": 4, "-420": 8, "40": 2, "60": 4, "780": 8}
    failures = []
    for DK, row in fixture.items():
        K = make_field(row["d"])
        infos, _ = unit_discriminants(K)
        if len(infos) != expected_sizes[DK]:
            failures.append(f"D_K={DK}: {len(infos)} classes != {expected_sizes[DK]}")
        failures += [f"D_K={DK}: {p}" for p in fixture_unit_discs_match(K, infos, row)]
    _criterion(4, "unit discriminant sets for D_K in {-15,-84,-420,40,60,780} "
                  "with cardinalities {2,4,8,2,4,8}", failures)


def test_criterion_5_hecke_property_and_conductor():
    failures = []
    for d in ACCEPTANCE_FIELDS:
        rep = character_suite(field_d=d, **ACCEPTANCE_PARAMS["character"])
        failures += [f"field {d or 0}: {f}" for f in rep["failures"]]
    _criterion(5, "character well defined mod (delta) with conductor = delta/f^2 "
                  "and primitivity witnesses, |N(delta)| <= 300, all four fields", failures)


def test_criterion_6_hurwitz():
    rep = hurwitz_suite(**ACCEPTANCE_PARAMS["hurwitz"])
    _criterion(6, "hurwitz formula == form-count oracle for -2000 <= delta < 0, "
                  "spot values 1/3, 1/2, 4/3, 3", rep["failures"])


def test_criterion_7_dyadic_appendix():
    rep = dyadic_suite(**ACCEPTANCE_PARAMS["dyadic"])
    _criterion(7, "eight local fields: bilinear symmetric nondegenerate tables, "
                  "filtration cardinalities, duality, unit-group lemmas, trace "
                  "criterion, closed-form oracle over Q2", rep["failures"])


def test_criterion_8_identity_suite():
    failures = []
    for d in ACCEPTANCE_FIELDS:
        rep = identity_suite(field_d=d, **ACCEPTANCE_PARAMS["identity"])
        failures += [f"field {d or 0}: {f}" for f in rep["failures"]]
    _criterion(8, "per-ideal divisor-sum identity, convolution identity, and "
                  "order-ideal counts for n <= 200", failures)


def test_criterion_9_decomposition_law():
    rep = decomposition_suite(**ACCEPTANCE_PARAMS["decomposition"])
    _criterion(9, "ideal counts of Q(sqrt delta0) equal the unit-character "
                  "convolution for fundamental |delta0| <= 100, n <= 10^4",
               rep["failures"])
