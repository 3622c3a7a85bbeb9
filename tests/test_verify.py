import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import SCRIPT_PATCH

import relquad
from relquad import dyadic, verify
from relquad.discriminants import conductor_ideal
from relquad.field import make_field
from relquad.ideals import primes_above, principal_ideal
from relquad.verify import completion_at, embed_element, run_suite


@pytest.mark.parametrize("d", [17, 5, -15, 10, 15, -21, 3, -1, 2])
def test_completion_embedding_valuations(d):
    # the embedding must preserve the valuation at the chosen dyadic prime
    K = make_field(d)
    for P in primes_above(K, 2):
        F, omega_img = completion_at(K, P)
        for coords in ((2, 0), (0, 2), (6, 4), (1, 1), (3, 5), (-2, 6)):
            e = K.elem(*coords)
            if not e:
                continue
            v_global = principal_ideal(e).valuation(P)
            v_local = embed_element(F, omega_img, e).valuation()
            assert v_local == v_global, (d, P, coords)


def test_completion_embedding_rational():
    Q = make_field()
    P = primes_above(Q, 2)[0]
    F, omega_img = completion_at(Q, P)
    assert omega_img is None
    assert embed_element(F, None, Q.elem(24)).valuation() == 3


@pytest.mark.parametrize("d", [None, 5, 10])
def test_embed_element_rejects_non_integral(d):
    # a denominator cannot be dropped: 1/2 must not embed as the image of 1
    K = make_field(d)
    P = primes_above(K, 2)[0]
    F, omega_img = completion_at(K, P)
    elems = [K.elem(Fraction(1, 2))] + ([K.elem(Fraction(3, 4), 1)] if d else [])
    for e in elems:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            embed_element(F, omega_img, e)
    assert embed_element(F, omega_img, K.elem(1)) == F.one


def test_conductor_suite_includes_dyadic_crosscheck(Q10):
    rep = run_suite("conductor", field_d=10, bound=40)
    assert rep["ok"]
    # the sweep counts the dyadic two-path comparisons as cases
    assert rep["cases"] > 2 * 10


def test_conductor_suite_reads_the_kept_factorization(monkeypatch):
    # the dyadic two-path check reads v_P(delta) off the factorization the
    # info keeps: with principal_ideal gone from verify, the reports equal
    # those of the parent, which built (delta) once more per class
    monkeypatch.setattr(
        "relquad.verify.principal_ideal",
        lambda delta: pytest.fail("conductor_suite built (delta) again"),
        raising=False,
    )
    for d, cases in ((0, 150), (5, 52), (10, 80)):
        rep = verify.conductor_suite(d, bound=60)
        rep.pop("seconds")
        assert rep == {
            "suite": "conductor",
            "cases": cases,
            "failures": [],
            "failure_count": 0,
            "ok": True,
            "field": d,
        }
    # and the local path still reaches every dyadic prime of delta: with no
    # local square found, each delta with v_P(f) > 0 at P | 2 fails there
    monkeypatch.setattr(verify, "square_mod_level", lambda loc, level: False)
    rep = verify.conductor_suite(0, bound=60)
    assert not rep["ok"] and rep["failure_count"] > 0
    assert all(re.fullmatch(r"delta -?\d+: local conductor exponent 0 != global [1-9]\d* at .+", f) for f in rep["failures"])


def test_suite_reports_shape():
    rep = run_suite("hurwitz", bound=100)
    assert set(rep) >= {"suite", "cases", "failures", "failure_count", "ok"}
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_failure_count_is_the_true_count(monkeypatch):
    # a sabotaged Hurwitz oracle fails all 100 discriminants down to -200:
    # the report keeps 50 failures but counts every one, and run_suite("all")
    # adds up the parts' counts
    from relquad.tables import validate_record

    monkeypatch.setattr("relquad.hurwitz.hurwitz_class_number_forms", lambda delta: Fraction(999))
    rep = verify.hurwitz_suite(bound=200)
    assert (rep["failure_count"], len(rep["failures"]), rep["ok"]) == (100, 50, False)
    assert validate_record(rep, "verify_report") == []
    monkeypatch.setattr(
        verify,
        "SUITES",
        {
            "hurwitz": lambda **kw: verify.hurwitz_suite(bound=200),
            "decomposition": verify._timed(lambda **kw: verify._report("decomposition", 1, ["one"])),
        },
    )
    merged = run_suite("all")
    assert (merged["failure_count"], len(merged["failures"]), merged["ok"]) == (101, 51, False)
    assert validate_record(merged, "verify_report") == []
    assert [p["failure_count"] for p in merged["parts"].values()] == [100, 1]


def test_decomposition_suite_small():
    rep = run_suite("decomposition", disc_bound=24, norm_bound=400)
    assert rep["ok"], rep["failures"][:3]


def test_hurwitz_suite_verdict_survives_optimize():
    # a sabotaged oracle must fail the suite under python -O as well
    code = SCRIPT_PATCH + (
        "from fractions import Fraction\n"
        "import relquad.hurwitz, relquad.verify\n"
        "patch(relquad.hurwitz, 'hurwitz_class_number_forms', lambda delta: Fraction(999))\n"
        "rep = relquad.verify.hurwitz_suite(bound=20)\n"
        "print(__debug__, rep['ok'], len(rep['failures']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "False", "10"]


def test_decomposition_verdict_survives_optimize():
    # the CLI verdict of the decomposition law under python -O: exit 0 as it
    # stands, and exit 1 with every discriminant counted once the convolution
    # returns one entry with its sign flipped
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    argv = ["verify", "decomposition", "--bound", "60"]
    out = subprocess.run(
        [sys.executable, "-O", "-m", "relquad", *argv], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["failure_count"] == 0
    code = SCRIPT_PATCH + (
        "import sys\n"
        "import relquad.verify\n"
        "from relquad.cli import main\n"
        "conv = relquad.verify.dirichlet_convolution\n"
        "def flipped(A, B):\n"
        "    out = conv(A, B)\n"
        "    out[7] = -out[7] or 1\n"
        "    return out\n"
        "patch(relquad.verify, 'dirichlet_convolution', flipped)\n"
        f"sys.exit(main({argv!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 1, out.stderr
    rep = json.loads(out.stdout)
    assert (rep["ok"], rep["failure_count"]) == (False, len(verify._fundamental_discriminants(100)))


def test_character_suite_verdict_survives_optimize():
    # a character whose value depends on the lift breaks the Hecke property;
    # residue_table must report it under python -O as well (with the check
    # as an assert, -O saw only the conductor mismatches it caused).  The
    # lifts are evaluated on integer coordinates by _on_coords, which
    # on_element calls too
    code = SCRIPT_PATCH + (
        "import itertools\n"
        "import relquad.characters, relquad.verify\n"
        "flip = itertools.cycle((1, -1))\n"
        "patch(relquad.characters.QuadCharacter, '_on_coords', lambda self, x, y, m=1: next(flip))\n"
        "rep = relquad.verify.character_suite(bound=12)\n"
        "hecke = sum('not well defined' in f for f in rep['failures'])\n"
        "print(__debug__, rep['ok'], len(rep['failures']), hecke)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "False", "11", "11"]


def test_character_suite_one_lift_fault_survives_optimize():
    # the value negated at one lift of one class of each delta, the last
    # class whose six lifts are distinct, in each of the six lift positions
    # in turn: residue_table must value that lift and report the broken
    # Hecke property under python -O
    code = (
        "import relquad.characters as C, relquad.verify as V\n"
        "from relquad.discriminants import discriminant_classes\n"
        "from relquad.field import make_field\n"
        "on_coords = C.QuadCharacter._on_coords\n"
        "chis = [C.QuadCharacter(i) for i in discriminant_classes(make_field(5), 30)]\n"
        "def lifts(chi, x, y):\n"
        "    a, b, c = chi.modulus.hnf\n"
        "    bx, by = C._balance(chi.modulus, x, y)\n"
        "    return [(x, y), (bx, by), (x + a, y), (x - a, y), (x + b, y + c), (x - a - b, y - c)]\n"
        "last = {\n"
        "    chi.delta: [r for r in chi.residue_table() if len(set(lifts(chi, *r))) == 6][-1:]\n"
        "    for chi in chis\n"
        "}\n"
        "def faulty(self, x, y, m=1):\n"
        "    val = on_coords(self, x, y, m)\n"
        "    return -val if (x, y) in targets[self.delta] else val\n"
        "C.QuadCharacter._on_coords = faulty\n"
        "out = [__debug__, sum(map(bool, last.values()))]\n"
        "for i in range(6):\n"
        "    targets = {chi.delta: {lifts(chi, x, y)[i] for x, y in last[chi.delta]} for chi in chis}\n"
        "    rep = V.character_suite(5, bound=30)\n"
        "    out += [rep['ok'], len(rep['failures']), sum('not well defined' in f for f in rep['failures'])]\n"
        "print(*out)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    debug, faulted, *reports = out.stdout.split()
    assert (debug, faulted) == ("False", "6")
    assert reports == ["False", "6", "6"] * 6


def test_fundamental_discriminant_checks_survive_optimize():
    # with a bogus principal generator the representative -20 of Q(sqrt 5)
    # keeps conductor (2); the check must raise under python -O as well
    # (as an assert, -O returned principal_rep = -20)
    code = SCRIPT_PATCH + (
        "import relquad.ideals\n"
        "from relquad.discriminants import fundamental_discriminant_data\n"
        "from relquad.field import make_field\n"
        "patch(relquad.ideals.Ideal, 'principal_generator', lambda self: 1)\n"
        "try:\n"
        "    fd = fundamental_discriminant_data(make_field(5).elem(-20))\n"
        "    print(__debug__, 'returned', fd.principal_rep)\n"
        "except AssertionError:\n"
        "    print(__debug__, 'raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "raised"]


def test_completion_checks_survive_optimize():
    # a Newton step that stops at a residue root gives w a wrong image at
    # the split and the inert dyadic primes; completion_at must raise under
    # python -O as well, naming d (as asserts, -O returned the wrong image)
    code = SCRIPT_PATCH + (
        "import relquad.verify as v\n"
        "from relquad.field import make_field\n"
        "from relquad.ideals import primes_above\n"
        "patch(v, '_hensel_root', lambda F, t, n, start: start + F.elem(2))\n"
        "for d in (17, 5):\n"
        "    K = make_field(d)\n"
        "    for P in primes_above(K, 2):\n"
        "        try:\n"
        "            v.completion_at(K, P)\n"
        "            print(__debug__, 'returned')\n"
        "        except AssertionError as exc:\n"
        "            print(__debug__, 'raised', f'Q(sqrt {d})' in str(exc))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "raised", "True"] * 3


def test_dyadic_suite_verdict_survives_optimize():
    # a Newton step that returns 1 yields wrong square roots; the certificate
    # check must fail every field under python -O as well (as an assert, -O
    # passed the suite with ok=True)
    code = SCRIPT_PATCH + (
        "import relquad.dyadic, relquad.verify\n"
        "patch(relquad.dyadic, '_newton_unit_sqrt', lambda F, a, b: (1, 0))\n"
        "rep = relquad.verify.dyadic_suite()\n"
        "cert = sum('certificate fails' in f for f in rep['failures'])\n"
        "print(__debug__, rep['ok'], len(rep['failures']), cert)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "False", "8", "8"]


def test_dyadic_unit_class_checks_survive_optimize():
    # with a single candidate unit no square-class basis can be found; the
    # set-up check must fail every field under python -O as well
    code = SCRIPT_PATCH + (
        "import relquad.dyadic, relquad.verify\n"
        "patch(relquad.dyadic, '_unit_candidates', lambda F: [(1, 0)])\n"
        "rep = relquad.verify.dyadic_suite()\n"
        "gone = sum('unit square classes not exhausted' in f for f in rep['failures'])\n"
        "print(__debug__, rep['ok'], len(rep['failures']), gone)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "False", "8", "8"]


def test_forged_convergent_hit_survives_optimize():
    # the walk's confirmation of a hit is an explicit raise: under python -O
    # a forged |Q| = 2 at every step still raises, naming the field or the
    # ideal, for the unit and for a principality walk alike
    code = SCRIPT_PATCH + (
        "import relquad.classes as C, relquad.field as F, relquad.ideals as I\n"
        "patch(C, '_cf_step', lambda P, Q, D, s: (1, 0, 2))\n"
        "patch(C, 'CF_STEP_BOUND', 50)\n"
        "J = I.primes_above(F.make_field(10), 2)[0].ideal\n"
        "for walk, arg, name in ((F.fundamental_unit, F.make_field(94), 'd=94'), (C._cf_generator, J, str(J))):\n"
        "    try:\n"
        "        walk.__wrapped__(arg)\n"
        "    except AssertionError as exc:\n"
        "        print(name in str(exc))\n"
        "print(__debug__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["True", "True", "False"]


@pytest.mark.parametrize(("d", "desc"), [(None, "q2"), (5, "unram"), (10, "ram:10"), (-7, "q2")])
def test_completion_uses_interned_fields(d, desc):
    # completions share the interned field, and so its digit samples and
    # square-class tables, with every other caller
    K = make_field(d)
    for P in primes_above(K, 2):
        assert completion_at(K, P)[0] is dyadic.local_field(desc), (d, P)


def test_dyadic_suite_compares_whole_reports(monkeypatch):
    # a rerun at precision + 4 that differs only in `symmetric` fails the
    # suite: the stability check compares whole reports, not chosen keys
    real = verify.duality_report

    def flipped(desc, precision=None):
        rep = real(desc, precision)
        if precision is not None:
            rep = dict(rep, symmetric=not rep["symmetric"])
        return rep

    assert run_suite("dyadic", descriptor="q2")["ok"]
    monkeypatch.setattr(verify, "duality_report", flipped)
    rep = run_suite("dyadic", descriptor="q2")
    assert not rep["ok"]
    assert rep["failures"] == ["q2: decisions changed at precision +4"]
