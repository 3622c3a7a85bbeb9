"""Verification sweeps behind the `verify` CLI subcommand and the
acceptance suite.

Each suite returns a JSON-serializable report {suite, cases, failures,
failure_count, ok, seconds}: a case is one checked identity instance,
failures stay empty on a healthy build, seconds is the wall time.
run_suite("all") sums its parts and writes a progress line per part to stderr.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import wraps

from .characters import QuadCharacter
from .counting import (
    count_square_roots,
    count_square_roots_formula,
    count_square_roots_local_product,
    dirichlet_convolution,
    ideal_count_table,
    order_ideal_count_sublattice,
    order_ideal_counts,
    square_stretch,
    zeta_coefficients,
)
from .discriminants import conductor_ideal, discriminant_classes, relative_discriminant_general
from .dyadic import (
    LocalElem,
    LocalField,
    all_local_fields,
    duality_report,
    local_field,
    sqrt_certificate,
    square_mod_level,
)
from .field import Elem, QuadField, make_field
from .hurwitz import hurwitz_row, negative_discriminants
from .ideals import ideals_of_norm, primes_above

__all__ = [
    "run_suite",
    "SUITES",
    "ACCEPTANCE_FIELDS",
    "ACCEPTANCE_PARAMS",
    "completion_at",
    "embed_element",
]


# The acceptance criteria: the field suites run over every field in
# ACCEPTANCE_FIELDS, each suite at its parameters below.  The suites' default
# arguments, run_suite("all") and the acceptance tests all read this table.
ACCEPTANCE_FIELDS = (None, 5, 10, -15)
FIELD_SUITES = ("counting", "character", "conductor", "identity")
ACCEPTANCE_PARAMS = {
    "counting": {"delta_bound": 50, "ideal_bound": 200},
    "character": {"bound": 300},
    "conductor": {"bound": 500},
    "identity": {"delta_bound": 16, "norm_bound": 200},
    "dyadic": {"descriptor": "all"},
    "hurwitz": {"bound": 2000},
    "decomposition": {"disc_bound": 100, "norm_bound": 10_000},
}


def _report(suite: str, cases: int, failures: list[str], **extra) -> dict:
    return {
        "suite": suite,
        "cases": cases,
        "failures": failures[:50],
        "failure_count": len(failures),
        "ok": not failures,
        **extra,
    }


def _timed(suite):
    """The suite with its wall time added to its report as seconds."""
    @wraps(suite)
    def run(*args, **kwargs) -> dict:
        start = time.perf_counter()
        return dict(suite(*args, **kwargs), seconds=round(time.perf_counter() - start, 3))
    return run


def _field(field_d: int | None) -> QuadField:
    return make_field(field_d if field_d else None)


# -- completions at dyadic primes ----------------------------------------------


def _dyadic_square_class(d: int) -> int:
    v = 0
    while d % 2 == 0:
        d //= 2
        v += 1
    m = d % 8
    if v % 2 == 0:
        return {3: -5, 5: 5, 7: -1, 1: 1}[m]
    return {1: 2, 3: -10, 5: 10, 7: -2}[m]


def _hensel_root(F: LocalField, t: int, n: int, start: LocalElem) -> LocalElem:
    """Root of X^2 - tX + n by Newton from a simple residue root."""
    x = start
    for _ in range(F.precision + 8):
        fx = x * x - F.elem(t) * x + F.elem(n)
        if not fx or fx.valuation() is None:
            break
        dfx = x + x - F.elem(t)
        nx = x - fx * dfx.unit_inverse()
        if nx == x:
            break
        x = nx
    return x


def completion_at(K: QuadField, P, precision: int | None = None):
    """(local field, image of omega) for the completion of K at a dyadic
    prime P; the field is the interned one of dyadic.local_field, and the
    image is None over Q.  Its checks raise explicitly, not by
    assert: conductor_suite's dyadic cross-check must survive python -O."""
    if P.p != 2:
        raise ValueError("dyadic prime required")
    if K.degree == 1:
        return local_field("q2", precision), None
    t, n = K.omega_trace, K.omega_norm
    d = K.d
    if d % 8 in (1, 5):  # split: Q2, omega to a 2-adic root; inert: unramified
        if d % 8 == 1:
            F = local_field("q2", precision)
            _, b, c = P.ideal.hnf
            if c != 1:  # degree-1 prime: second HNF column is b + w, so w = -b
                raise AssertionError(f"split dyadic prime {P} of Q(sqrt {d}) has HNF c = {c}")
            root = _hensel_root(F, t, n, F.elem((-b) % 2))
        else:
            F = local_field("unram", precision)
            root = _hensel_root(F, t, n, F.elem(0, 1))
        fx = root * root - F.elem(t) * root + F.elem(n)
        if fx and fx.valuation() is not None and fx.valuation() < F.precision:
            raise AssertionError(f"{root} is not the image of w at {P} of Q(sqrt {d})")
        return F, root
    # ramified: Q2(sqrt c) with c the dyadic square class of d
    c = _dyadic_square_class(d)
    F = local_field(f"ram:{c}", precision)
    q2 = local_field("q2", F.precision)
    num, den = Fraction(d, c).numerator, Fraction(d, c).denominator
    if not (num % 2 and den % 2 and (num * pow(den, -1, 8)) % 8 == 1):
        raise AssertionError(f"d/c = {num}/{den} is not a 2-adic unit square class 1 for d = {d}")
    s = sqrt_certificate(q2.elem(num * pow(den, -1, q2.W)))
    if s is None:
        raise AssertionError(f"no 2-adic square root of d/c = {num}/{den} for d = {d} at {P}")
    return F, F.elem(0, s.a)  # sqrt d -> s * sqrt c


def embed_element(F: LocalField, omega_img, e: Elem) -> LocalElem:
    """Exact image of an integral element under the completion embedding;
    ValueError for an element that is not integral."""
    if not e.is_integral():
        raise ValueError(f"embed_element needs an integral element, got {e}")
    if omega_img is None:
        return F.elem(e.X)
    return F.elem(e.X) + F.elem(e.Y) * omega_img


# -- suites ---------------------------------------------------------------------


@_timed
def counting_suite(
    field_d=None,
    delta_bound: int = ACCEPTANCE_PARAMS["counting"]["delta_bound"],
    ideal_bound: int = ACCEPTANCE_PARAMS["counting"]["ideal_bound"],
) -> dict:
    """Brute force == character divisor sum == local casework product."""
    if ideal_bound < 0:
        raise ValueError(f"norm bound must be >= 0, got {ideal_bound}")
    K = _field(field_d)
    failures: list[str] = []
    cases = 0
    ideals = [a for n in range(1, ideal_bound + 1) for a in ideals_of_norm(K, n)]
    for info in discriminant_classes(K, delta_bound):
        chi = QuadCharacter(info)
        for a in ideals:
            brute = count_square_roots(info.delta, a)
            formula = count_square_roots_formula(chi, a)
            local = count_square_roots_local_product(chi, a)
            cases += 1
            if not brute == formula == local:
                failures.append(
                    f"delta {info.delta}, ideal {a}: brute {brute}, "
                    f"formula {formula}, local {local}"
                )
    return _report("counting", cases, failures, field=field_d or 0)


@_timed
def character_suite(
    field_d=None, bound: int = ACCEPTANCE_PARAMS["character"]["bound"]
) -> dict:
    """Hecke property (multi-lift agreement), conductor identification, and
    primitivity witnesses at every conductor prime."""
    K = _field(field_d)
    failures: list[str] = []
    cases = 0
    for info in discriminant_classes(K, bound):
        chi = QuadCharacter(info)
        try:
            cond, table, wits = chi.conductor_exhaustive()
        except AssertionError as exc:  # lift disagreement = broken Hecke property
            failures.append(f"delta {info.delta}: {exc}")
            continue
        cases += 1 + len(table)
        if cond != info.rel_disc:
            failures.append(
                f"delta {info.delta}: conductor {cond} != rel disc {info.rel_disc}"
            )
        for Q, (a, b) in wits.items():
            cases += 1
            D = cond.divide_exact(Q.ideal)
            if D.reduce(a) != D.reduce(b) or chi.on_element(a) == chi.on_element(b):
                failures.append(f"delta {info.delta}: bad witness at {Q}")
    return _report("character", cases, failures, field=field_d or 0)


@_timed
def conductor_suite(
    field_d=None, bound: int = ACCEPTANCE_PARAMS["conductor"]["bound"]
) -> dict:
    """General relative-discriminant formula against the conductor route,
    conductor scaling, and the dyadic completion cross-check (the second,
    independent path for dyadic square solvability)."""
    K = _field(field_d)
    failures: list[str] = []
    cases = 0
    infos = discriminant_classes(K, bound)
    completions = {}
    for P in primes_above(K, 2):
        completions[P] = completion_at(K, P)
    for info in infos:
        cases += 1
        g = relative_discriminant_general(info.delta)
        if g.rel_disc_general != info.rel_disc:
            failures.append(f"delta {info.delta}: 4delta/(st)^2 != delta/f^2")
        # scaling: f_{4 delta} = 2 f_delta
        cases += 1
        scaled = conductor_ideal(info.delta * 4)
        if scaled.f_delta != info.f_delta * 2:
            failures.append(f"delta {info.delta}: conductor scaling failed")
        # dyadic two-path agreement, with v_P(delta) read off the
        # factorization of (delta) that the info keeps
        for P, (F, omega_img) in completions.items():
            l = info.delta_primes.get(P, 0)
            if l == 0:
                continue
            cases += 1
            loc = embed_element(F, omega_img, info.delta)
            if loc.valuation() != l:
                failures.append(f"delta {info.delta}: embedding valuation mismatch at {P}")
                continue
            e2 = 2 if P.ramified else 1
            k_loc = l // 2
            while k_loc > 0 and not square_mod_level(loc, 2 * k_loc + 2 * e2):
                k_loc -= 1
            if k_loc != info.f_delta.valuation(P):
                failures.append(
                    f"delta {info.delta}: local conductor exponent {k_loc} != "
                    f"global {info.f_delta.valuation(P)} at {P}"
                )
    return _report("conductor", cases, failures, field=field_d or 0)


@_timed
def identity_suite(
    field_d=None,
    delta_bound: int = ACCEPTANCE_PARAMS["identity"]["delta_bound"],
    norm_bound: int = ACCEPTANCE_PARAMS["identity"]["norm_bound"],
) -> dict:
    """Per-ideal divisor-sum identity for the extended character, the
    convolution identity zeta_K(s) L(chi, s) = zeta_K(2s) zeta(delta, s)
    coefficientwise, and the order-ideal counting identity."""
    K = _field(field_d)
    failures: list[str] = []
    cases = 0
    aK = ideal_count_table(K, norm_bound)
    for info in discriminant_classes(K, delta_bound):
        chi = QuadCharacter(info)
        f = info.f_delta
        # t dd^2 and its coefficient depend on the pair (t, dd) alone
        tds = [
            (t * dd * dd, t.moebius() * chi.primitive(t) * dd.norm_int())
            for t in f.divisors()
            for dd in f.divide_exact(t).divisors()
        ]
        per_ideal, chi_sums = chi.coefficients(norm_bound)
        for a, val in per_ideal.items():
            total = 0
            for td2, coeff in tds:
                if td2.divides(a):
                    total += coeff * chi.primitive(a.divide_exact(td2))
            cases += 1
            if total != val:
                failures.append(f"divisor-sum identity fails: delta {info.delta}, {a}")
        zd = zeta_coefficients(info.delta, norm_bound)
        lhs = dirichlet_convolution(aK, chi_sums)
        rhs = dirichlet_convolution(square_stretch(aK, norm_bound), zd)
        order = order_ideal_counts(info.delta, norm_bound)
        for n in range(1, norm_bound + 1):
            cases += 2
            if lhs[n] != rhs[n]:
                failures.append(f"convolution identity fails: delta {info.delta}, n={n}")
            if order[n] != lhs[n]:
                failures.append(f"order-ideal count fails: delta {info.delta}, n={n}")
        if K.degree == 1:
            for n in range(1, min(60, norm_bound) + 1):
                cases += 1
                if order_ideal_count_sublattice(info.delta.X, n) != lhs[n]:
                    failures.append(f"sublattice count fails: delta {info.delta}, n={n}")
    return _report("identity", cases, failures, field=field_d or 0)


@_timed
def dyadic_suite(
    descriptor: str = ACCEPTANCE_PARAMS["dyadic"]["descriptor"],
    precision: int | None = None,
) -> dict:
    failures: list[str] = []
    cases = 0
    if descriptor == "all":
        fields = [f.kind if f.kind != "ram" else f"ram:{f.c}" for f in all_local_fields()]
    else:
        fields = [descriptor]
    reports = {}
    for desc in fields:
        try:
            rep = duality_report(desc, precision)
            rerun = duality_report(desc, rep["precision"] + 4)
        except AssertionError as exc:  # an appendix fact failed to check
            cases += 1
            failures.append(f"{desc}: {exc}")
            continue
        reports[desc] = rep
        for key, val in rep.items():
            if isinstance(val, bool):
                cases += 1
                if not val:
                    failures.append(f"{desc}: {key} fails")
        cases += 1
        # every entry but the precision itself must survive precision + 4
        if dict(rep, precision=None) != dict(rerun, precision=None):
            failures.append(f"{desc}: decisions changed at precision +4")
    return _report("dyadic", cases, failures, reports=reports)


@_timed
def hurwitz_suite(bound: int = ACCEPTANCE_PARAMS["hurwitz"]["bound"]) -> dict:
    failures: list[str] = []
    cases = 0
    for delta in negative_discriminants(bound):
        cases += 1
        try:
            hurwitz_row(delta)  # raises on formula/oracle mismatch
        except AssertionError as exc:
            failures.append(f"delta {delta}: {exc}")
    spot = {
        -3: Fraction(1, 3),
        -4: Fraction(1, 2),
        -12: Fraction(4, 3),
        -23: Fraction(3),
    }
    from .hurwitz import hurwitz_class_number

    for delta, expect in spot.items():
        cases += 1
        if hurwitz_class_number(delta) != expect:
            failures.append(f"spot value H({delta}) != {expect}")
    return _report("hurwitz", cases, failures, bound=bound)


@_timed
def decomposition_suite(
    disc_bound: int = ACCEPTANCE_PARAMS["decomposition"]["disc_bound"],
    norm_bound: int = ACCEPTANCE_PARAMS["decomposition"]["norm_bound"],
) -> dict:
    """Ideal counts of Q(sqrt delta0) against the divisor convolution of the
    primitive character, for fundamental discriminants."""
    from .arith import squarefree_part
    from .counting import primitive_character_table

    Q = make_field()
    failures: list[str] = []
    cases = 0
    ones = [0] + [1] * norm_bound
    for delta0 in _fundamental_discriminants(disc_bound):
        L = make_field(squarefree_part(delta0))
        if L.disc != delta0:
            raise AssertionError(f"field of delta0 = {delta0} has discriminant {L.disc}")
        aL = ideal_count_table(L, norm_bound)
        chi = QuadCharacter(Q.elem(delta0))
        conv = dirichlet_convolution(ones, primitive_character_table(chi, norm_bound))
        cases += norm_bound
        if aL[1:] != conv[1:]:
            bad = next(n for n in range(1, norm_bound + 1) if aL[n] != conv[n])
            failures.append(f"delta0 {delta0}: first mismatch at n={bad}")
    return _report("decomposition", cases, failures)


def _fundamental_discriminants(bound: int) -> list[int]:
    from .arith import is_squarefree

    out = []
    for D in range(-bound, bound + 1):
        if D in (0, 1):
            continue
        if D % 4 == 1 and is_squarefree(D):
            out.append(D)
        elif D % 4 == 0:
            m = D // 4
            if m % 4 in (2, 3) and is_squarefree(m):
                out.append(D)
    return sorted(out, key=abs)


SUITES = {
    "counting": counting_suite,
    "character": character_suite,
    "conductor": conductor_suite,
    "identity": identity_suite,
    "dyadic": dyadic_suite,
    "hurwitz": hurwitz_suite,
    "decomposition": decomposition_suite,
}


def run_suite(name: str, **kwargs) -> dict:
    if name == "all":
        merged = {
            "suite": "all",
            "cases": 0,
            "failures": [],
            "failure_count": 0,
            "ok": True,
            "seconds": 0.0,
            "parts": {},
        }
        for part, fn in SUITES.items():
            params = ACCEPTANCE_PARAMS[part]
            if part in FIELD_SUITES:
                runs = {f"{part}:{d or 0}": dict(params, field_d=d) for d in ACCEPTANCE_FIELDS}
            else:
                runs = {part: params}
            for key, kw in runs.items():
                rep = fn(**kw)
                merged["parts"][key] = rep
                merged["cases"] += rep["cases"]
                merged["failures"] += rep["failures"]
                merged["failure_count"] += rep["failure_count"]
                merged["seconds"] = round(merged["seconds"] + rep["seconds"], 3)
                status = "ok" if rep["ok"] else f"FAIL ({rep['failure_count']} failures)"
                print(f"verify all: {key} {status}, {rep['cases']} cases, {rep['seconds']} s", file=sys.stderr, flush=True)
        merged["ok"] = not merged["failure_count"]
        return merged
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
