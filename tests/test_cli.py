import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import golden
import pytest
from helpers import equals_form, main_by_full_parser

import relquad
from relquad import classes, cli, discriminants, ideals, tables
from relquad.cli import main
from relquad.field import make_field, parse_elem
from relquad.ideals import parse_ideal
from relquad.tables import fixture_row_multiset_matches, fixture_unit_discs_match, load_fixture, validate_record
from relquad.verify import _fundamental_discriminants


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_fdelta_json(capsys):
    code, out, _ = run_cli("fdelta", "--field", "10", "--delta", "-4", capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["f_delta_pretty"] == "(2, 1*w)"
    assert rec["norm"] == "16"
    assert validate_record(rec, "fdelta") == []


def test_fdelta_principal_rep(capsys):
    code, out, _ = run_cli("fdelta", "--field", "0", "--delta", "-12", capsys=capsys)
    rec = json.loads(out)
    assert rec["principal_rep"] == "-3"
    assert validate_record(rec, "fdelta") == []


@pytest.mark.parametrize("d", [5, 2, 10, 15, 7, 195, 23, 19, 22, 94, 10007])
def test_fdelta_square_has_principal_rep_one(d, capsys):
    # f = (6) for delta = 36, and 6 is its generator in the unit window, so
    # delta/g^2 = 1; the least associate in the eps-box made it 13 - 8w in
    # Q(sqrt 5) and a 60-digit element in Q(sqrt 10007)
    code, out, _ = run_cli("fdelta", "--field", str(d), "--delta=36", capsys=capsys)
    assert code == 0 and json.loads(out)["principal_rep"] == "1"


def test_fdelta_with_a_huge_unit_finishes():
    # eps has 21,198 bits in Q(sqrt 1000000007): the least associate of 2
    # in the eps-box had 21,199 bits, and its text exceeded Python's
    # 4300-digit limit, so fdelta exited 2
    src = str(Path(relquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "relquad", "fdelta", "--field", "1000000007", "--delta=-4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["principal_rep"] == "-1"


def test_table_prints_representatives_past_the_digit_limit():
    # the norm-4 class of Q(sqrt 1000000007) has a representative with a
    # 21,199-bit coordinate, over 6,000 digits: Python's 4300-digit limit
    # for integer text made the table exit 2
    src = str(Path(relquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "relquad", "table", "--field", "1000000007", "--bound", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        bits = {int(m).bit_length() for m in re.findall(r"\d+", proc.stdout)}
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(bits) == 21199


def test_output_is_the_same_in_every_process():
    # the memos key on interned fields, primes and ideals, which hash by
    # identity, and so differently in every process: two fresh processes,
    # with different string hash seeds too, must print the same bytes
    src = str(Path(relquad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["table", "--field", "10", "--bound", "500", "--format", "json"], ["unit-discs", "--field", "10"]):
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "relquad", *argv], capture_output=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].count(b"\n") > 3, argv


def test_main_restores_the_digit_limit(capsys):
    # main lifts the integer-to-text limit only for its own call, so an
    # in-process caller keeps its interpreter state, after a usage error too
    before = sys.get_int_max_str_digits()
    assert run_cli("table", "--field", "10", "--bound", "9", capsys=capsys)[0] == 0
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(SystemExit):
        main(["table", "--bound", "x"])
    assert sys.get_int_max_str_digits() == before


def test_conductor_and_char(capsys):
    code, out, _ = run_cli("conductor", "--field", "0", "--delta", "-12", capsys=capsys)
    assert code == 0 and json.loads(out)["rel_disc"] == "[3]/1"
    code, out, _ = run_cli(
        "char", "--field", "0", "--delta", "-12", "--ideal", "[2]/1", capsys=capsys
    )
    rec = json.loads(out)
    assert code == 0 and rec["uleg"] == -1 and rec["chi"] == 0
    assert validate_record(rec, "char") == []


def test_count_agreement(capsys):
    code, out, _ = run_cli(
        "count", "--field", "10", "--delta", "-4", "--ideal", "(2, w)", capsys=capsys
    )
    rec = json.loads(out)
    assert code == 0 and rec == {"brute": 1, "formula": 1}
    assert validate_record(rec, "count") == []


def test_table_fixture_counts(capsys):
    code, out, _ = run_cli(
        "table", "--field", "5", "--bound", "500", "--format", "json", capsys=capsys
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 55
    for rec in recs[:5]:
        assert validate_record(rec, "table_row") == []


def test_repeated_requests_print_the_same_text(capsys):
    # one process, the memos of the conductors and of the continued-fraction
    # walk emptied first: the second table and unit-discs request of each
    # field prints byte for byte what the first printed, and still matches
    # the shipped fixtures
    discriminants._conductor.cache_clear()
    classes._cf_generator.cache_clear()
    for d, name in ((5, "table_sqrt5.json"), (10, "table_sqrt10.json")):
        argv = ("table", "--field", str(d), "--bound", "500", "--format", "json")
        first, second = (run_cli(*argv, capsys=capsys) for _ in range(2))
        assert first == second and first[0] == 0
        K = make_field(d)
        rows = [
            SimpleNamespace(norm=r["norm"], delta=parse_elem(K, r["delta"]), f_delta=parse_ideal(K, r["f_delta"]))
            for r in map(json.loads, second[1].splitlines())
        ]
        assert fixture_row_multiset_matches(K, rows, load_fixture(name)) == []
    for row in load_fixture("unit_discriminants.json").values():
        argv = ("unit-discs", "--field", str(row["d"]))
        first, second = (run_cli(*argv, capsys=capsys) for _ in range(2))
        assert first == second and first[0] == 0
        K = make_field(row["d"])
        infos = [SimpleNamespace(delta=parse_elem(K, c)) for c in json.loads(second[1])["classes"]]
        assert fixture_unit_discs_match(K, infos, row) == []
    assert discriminants._conductor.cache_info().hits > 0 and classes._cf_generator.cache_info().hits > 0


def test_golden_corpus():
    # every request of tests/golden.py prints what its digest in
    # tests/golden/cli.json records: exit code, stdout and stderr
    assert len(golden.REQUESTS) > 80
    assert golden.mismatches() == []


def test_table_tsv_header(capsys):
    code, out, _ = run_cli("table", "--field", "10", "--bound", "9", capsys=capsys)
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["norm", "delta", "f_delta", "rel_disc", "extras"]
    assert len(lines) == 3  # norms 4 and 9


def test_unit_discs_cli(capsys):
    code, out, _ = run_cli("unit-discs", "--field", "10", capsys=capsys)
    rec = json.loads(out)
    assert code == 0 and rec["classes"] == ["1", "2"]
    assert validate_record(rec, "unit_discs") == []


def test_hurwitz_cli(capsys):
    code, out, _ = run_cli("hurwitz", "--delta", "-23", capsys=capsys)
    assert code == 0
    assert out.strip().splitlines()[1].split("\t") == ["-23", "3", "3", "3", "2", "1"]
    code, _, err = run_cli("hurwitz", capsys=capsys)
    assert code == 2
    assert err.startswith("error: exactly one of")
    code, _, err = run_cli("hurwitz", "--delta", "-23", "--upto", "30", capsys=capsys)
    assert code == 2
    assert err.startswith("error: exactly one of")


def test_schema_is_parsed_once(monkeypatch):
    # validate_record reads a bounded memo of the parsed schema; the
    # fixture loader still hands out a fresh dict on every call
    validate_record({}, "fdelta")
    monkeypatch.setattr(tables, "load_fixture", lambda name: pytest.fail(f"{name} parsed again"))
    assert validate_record({}, "fdelta") == validate_record({}, "fdelta") != []
    assert tables._schema_defs.cache_info().maxsize == 1
    monkeypatch.undo()
    assert load_fixture("schema.json") is not load_fixture("schema.json")
    assert load_fixture("schema.json")["$defs"] == tables._schema_defs()


def test_verify_choices_are_the_suites():
    # cli writes verify's suite names out, so that parsing a request
    # imports no verify: they are verify.SUITES in its order, then "all"
    from relquad.verify import SUITES

    (suite,) = [kwargs for name, kwargs in cli._COMMANDS["verify"][2] if name == "suite"]
    assert suite["choices"] == (*SUITES, "all")


def test_schema_integers_refuse_json_booleans(capsys):
    # JSON Schema's integer and number take no boolean, though Python's bool
    # is an int; every record the CLI prints for the catalog fields, and
    # for the dyadic fields, still validates
    from relquad.dyadic import all_local_fields

    row = {"norm": True, "delta": "-4", "f_delta": "-", "f_delta_pretty": "-", "rel_disc": "-", "extras": {}}
    assert validate_record(row, "table_row") == ["$.norm: expected integer, got bool"]
    report = {"suite": "all", "cases": 1, "failures": [], "failure_count": 0, "ok": True, "seconds": 0.5}
    assert validate_record(report, "verify_report") == []
    assert validate_record({**report, "seconds": False}, "verify_report") == ["$.seconds: expected number, got bool"]
    assert validate_record({**report, "ok": 1}, "verify_report") == ["$.ok: expected boolean, got int"]
    printed = []
    for d in (-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22):
        f = str(d)
        code, out, _ = run_cli("unit-discs", "--field", f, capsys=capsys)
        printed.append((code, json.loads(out), "unit_discs"))
        code, out, _ = run_cli("table", "--field", f, "--bound", "20", "--format", "json", capsys=capsys)
        rows = [json.loads(line) for line in out.splitlines()]
        printed += [(code, rec, "table_row") for rec in rows]
        for rec in rows[:2]:
            delta = f"--delta={rec['delta']}"
            queries = (("fdelta",), ("char", "--ideal", rec["f_delta"]), ("count", "--ideal", rec["rel_disc"]))
            for command, *ideal in queries:
                code, out, _ = run_cli(command, "--field", f, delta, *ideal, capsys=capsys)
                printed.append((code, json.loads(out), command))
    for F in all_local_fields():
        desc = F.kind if F.kind != "ram" else f"ram:{F.c}"
        code, out, _ = run_cli("local-duality", "--field", desc, capsys=capsys)
        printed.append((code, json.loads(out), "local_duality"))
    assert len(printed) > 100 and {schema for *_, schema in printed} == {
        "unit_discs", "table_row", "fdelta", "char", "count", "local_duality",
    }
    assert [(code, schema) for code, rec, schema in printed if code or validate_record(rec, schema)] == []


def test_local_duality_cli(capsys):
    code, out, _ = run_cli("local-duality", "--field", "q2", capsys=capsys)
    rec = json.loads(out)
    assert code == 0 and rec["duality_ok"]
    assert validate_record(rec, "local_duality") == []


def test_verify_cli(capsys):
    code, out, _ = run_cli(
        "verify", "counting", "--field", "10", "--bound", "10", capsys=capsys
    )
    rec = json.loads(out)
    assert code == 0 and rec["ok"]
    assert validate_record(rec, "verify_report") == []


def test_verify_decomposition_takes_its_bound(capsys):
    # the suite ran its default norm bound of 10,000 whatever --bound said
    code, out, _ = run_cli("verify", "decomposition", "--bound", "5", capsys=capsys)
    rec = json.loads(out)
    assert code == 0 and rec["ok"]
    assert rec["cases"] == 5 * len(_fundamental_discriminants(100))


def test_verify_all_reports_seconds_and_progress(capsys, monkeypatch):
    # verify all at small bounds: stdout is the one JSON report, which
    # validates, and so does each part, with the parts' seconds summed; the
    # progress lines, one per part, go to stderr only
    from relquad import verify

    monkeypatch.setattr(
        verify,
        "ACCEPTANCE_PARAMS",
        {
            "counting": {"delta_bound": 5, "ideal_bound": 5},
            "character": {"bound": 10},
            "conductor": {"bound": 10},
            "identity": {"delta_bound": 4, "norm_bound": 5},
            "dyadic": {"descriptor": "q2"},
            "hurwitz": {"bound": 20},
            "decomposition": {"disc_bound": 8, "norm_bound": 20},
        },
    )
    code, out, err = run_cli("verify", "all", capsys=capsys)
    rep = json.loads(out)
    assert code == 0 and rep["ok"]
    assert validate_record(rep, "verify_report") == []
    parts = rep["parts"]
    assert len(parts) == 4 * 4 + 3
    for part in parts.values():
        assert validate_record(part, "verify_report") == []
    assert rep["seconds"] == pytest.approx(sum(p["seconds"] for p in parts.values()), abs=1e-9)
    lines = {line.split()[2]: line for line in err.splitlines()}
    assert len(lines) == len(err.splitlines()) and set(lines) == set(parts)
    for key, part in parts.items():
        assert lines[key] == f"verify all: {key} ok, {part['cases']} cases, {part['seconds']} s"
    assert "verify all:" not in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dyadic", "--bound", "5"], "--bound"),
        (["all", "--bound", "5"], "--bound"),
        (["hurwitz", "--precision", "3"], "--precision"),
        (["counting", "--field", "5", "--precision", "3"], "--precision"),
        (["hurwitz", "--field", "5"], "--field"),
        (["decomposition", "--field", "5", "--bound", "3"], "--field"),
        (["all", "--field", "5"], "--field"),
        (["counting", "--field", "x"], "--field x"),
    ],
)
def test_verify_refuses_flags_its_suite_does_not_take(capsys, argv, flag):
    code, out, err = run_cli("verify", *argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]} does not take {flag}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fdelta", "--field", "10007", "--delta=36"],
        ["conductor", "--field", "10007", "--delta=36"],
        ["char", "--field", "10007", "--delta=36", "--ideal", "(3, 1+w)"],
        ["count", "--field", "10007", "--delta=36", "--ideal", "(3, 1+w)"],
        ["unit-discs", "--field", "10007"],
        ["unit-discs", "--field", "94"],
        ["table", "--field", "94", "--bound", "200"],
        ["table", "--field", "139", "--bound", "50"],
    ],
)
def test_large_unit_field_requests_finish(argv):
    # eps has 30 digits in Q(sqrt 10007), 7 in Q(sqrt 94) and 11 in
    # Q(sqrt 139); with searches over the rows of the fundamental-unit box,
    # fdelta --field 10007 was still running after 20 s, table --field 94
    # took 17 s and table --field 139 did not finish in 120 s, so a slow
    # route coming back fails here instead of hanging the suite
    src = str(Path(relquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "relquad", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr


def test_usage_errors(capsys):
    code, _, err = run_cli("fdelta", "--field", "0", "--delta", "7", capsys=capsys)
    assert code == 2 and "discriminant" in err
    code, _, err = run_cli("fdelta", "--field", "12", "--delta", "5", capsys=capsys)
    assert code == 2 and "squarefree" in err
    for argv in (["no-such-command"], ["table", "--field", "5", "--bound", "9", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    # a broken internal invariant is exit code 3, not 1 (verification
    # failure), and prints one line instead of a traceback
    def broken(delta):
        raise AssertionError("factorization does not reassemble")

    # cli reads conductor_ideal off its module when the command runs
    monkeypatch.setattr("relquad.discriminants.conductor_ideal", broken)
    code, out, err = run_cli("conductor", "--field", "0", "--delta", "-12", capsys=capsys)
    assert code == 3 and out == ""
    assert err == "internal error: factorization does not reassemble\n"


def test_residue_enumeration_bound_exit_code(capsys):
    # count enumerates 2a: N((2 * 524289)) = 1048578 > RESIDUE_ENUMERATION_BOUND
    code, out, err = run_cli(
        "count", "--field", "0", "--delta", "1", "--ideal", "[524289]/1", capsys=capsys
    )
    assert code == 2 and out == ""
    assert "residue enumeration bound exceeded for the ideal (1048578): 1048578 > 1048576" in err


def test_residue_table_bound_exit_code(capsys):
    # the first class of Q at bound 4100 is -4100, whose residue table the
    # character suite would build: N = 4100 > RESIDUE_TABLE_BOUND = 4096
    code, out, err = run_cli("verify", "character", "--field", "0", "--bound", "4100", capsys=capsys)
    assert code == 2 and out == ""
    assert "character residue table bound exceeded for delta = -4100: 4100 > 4096" in err


def test_negative_table_bound_exit_code(capsys):
    code, out, err = run_cli("table", "--field", "5", "--bound", "-1", capsys=capsys)
    assert code == 2 and out == ""
    assert "norm bound must be >= 0, got -1" in err


def test_zeta_coeffs_bound_zero_and_negative(capsys):
    # both exited 1 with an IndexError traceback from the sieve of bound 0
    code, out, err = run_cli("zeta-coeffs", "--field", "5", "--delta=5", "--bound", "0", capsys=capsys)
    assert code == 0 and out == "n\tcoeff\tconvolution_coeff\n" and err == ""
    code, out, err = run_cli("zeta-coeffs", "--field", "5", "--delta=5", "--bound", "-1", capsys=capsys)
    assert code == 2 and out == ""
    assert "norm bound must be >= 0, got -1" in err


def test_module_entry_point():
    src = str(Path(relquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "relquad", "table", "--field", "5", "--bound", "20"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split("\t")[0] == "norm"


def test_reused_parser_matches_fresh_parsers(capsys):
    # main() parses every request with one parser; a run of mixed requests,
    # usage errors among them, must print and exit as with a fresh parser
    # per request
    from relquad import cli

    requests = [
        ["fdelta", "--field", "10", "--delta", "-4"],
        ["table", "--field", "5", "--bound", "30", "--format", "json"],
        ["table", "--field", "5"],  # argparse usage error: no --bound
        ["conductor", "--field", "0", "--delta", "-12"],
        ["fdelta", "--field", "0", "--delta", "7"],  # not a discriminant
        ["hurwitz", "--delta", "-23"],
        ["local-duality", "--field", "ram:-5"],
        ["char", "--field", "0", "--delta", "-12", "--ideal", "[2]/1"],
        ["zeta-coeffs", "--field", "5", "--delta", "-4", "--bound", "12"],
        ["no-such-command"],
        ["table", "--field", "10", "--bound", "9"],
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    cli._parser.cache_clear()
    reused = [run(argv) for argv in requests]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in requests:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 0]
    assert cli.build_parser() is not cli.build_parser()


# every subcommand once, then help, usage errors and argument forms that
# the full parser and a subcommand's own parser could read differently
DISPATCH_CORPUS = [
    ["fdelta", "--field", "5", "--delta", "-3"],
    ["conductor", "--field", "0", "--delta", "-12"],
    ["char", "--field", "10", "--delta", "-4", "--ideal", "(3, 1+w)"],
    ["count", "--field", "10", "--delta", "-4", "--ideal", "(2, w)"],
    ["zeta-coeffs", "--field", "5", "--delta", "5", "--bound", "8", "--format", "json"],
    ["table", "--field", "10", "--bound", "30"],
    ["unit-discs", "--field", "10"],
    ["hurwitz", "--upto", "12", "--format", "json"],
    ["local-duality", "--field", "q2"],
    ["verify", "hurwitz", "--bound", "20"],
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    *([cmd, "-h"] for cmd in ("fdelta", "table", "verify", "zeta-coeffs")),
    ["fdelta", "--field", "5", "--help", "--delta", "-3"],
    ["fdelta", "--field", "5"],
    ["table", "--bound", "9"],
    ["verify"],
    ["fdelta", "--field", "five", "--delta", "-3"],
    ["table", "--field", "5", "--bound", "9.5"],
    ["table", "--field", "5", "--bound", "9", "--format", "xml"],
    ["verify", "everything"],
    ["table", "--field", "5", "--bound", "9", "--jobs", "2"],
    ["fdelta", "--field", "5", "--delta", "-3", "--jobs=2"],
    ["fdelta", "--field", "5", "--delta", "-3", "extra"],
    ["fdelta", "extra", "--field", "5", "--delta", "-3", "-h"],
    ["verify", "hurwitz", "counting"],
    ["fdelta", "--field", "5", "--field", "10", "--delta", "-4"],
    ["fdelta", "--fie", "5", "--del", "-3"],
    ["fdelta", "--fie", "5", "--del", "-3+1*w"],
    ["zeta-coeffs", "--f", "5", "--delta", "5"],
    ["fdelta", "--field", "5", "--delta", "-3"],
    ["fdelta", "--field", "5", "--delta=-3"],
    ["fdelta", "--field", "5", "--delta"],
    ["--field", "5", "fdelta", "--delta", "-3"],
    ["-h", "fdelta"],
    ["no-such-command", "--field", "5"],
    ["--", "fdelta", "--field", "5", "--delta", "-3"],
    ["fdelta", "--", "--field", "5", "--delta", "-3"],
    ["fdelta", "--field", "5", "--delta", "-3", "--"],
    ["hurwitz", "--delta", "-23", "--", "-3"],
    ["fdelta", "--field", "0", "--delta", "7"],
    ["hurwitz"],
    # the boundary of the parse straight off the action table
    ["fdelta", "--field", "10", "--delta", "-4+2*w"],
    ["table", "--field", "5", "--bound", "0x10"],
    ["table", "--field", "5", "--bound="],
    ["table", "--field", "5", "--bound", " 7"],
    ["table", "--field", "5", "--bound", "9", "--format", "json", "--format", "tsv"],
    ["char", "--field", "10", "--delta=-4", "--ideal=(3, 1+w)"],
    ["local-duality", "--field", "q2", "--precision", "-1"],
    # a value led by "-" as the token after its option
    ["char", "--field", "5", "--delta", "-3+1*w", "--ideal", "(11)"],
    ["fdelta", "--delta", "-3+1*w"],
    ["fdelta", "--field", "5", "--delta", "-3+1*w", "extra"],
    ["fdelta", "--field", "5", "--delta", "-h"],
    ["fdelta", "--field", "5", "--delta", "--field"],
    ["fdelta", "--field", "5", "--delta", "--", "-3+1*w"],
    ["fdelta", "--", "--field", "5", "--delta", "-3+1*w"],
    ["hurwitz", "--delta", "-23", "--", "--upto", "-5"],
    ["fdelta", "--field", "5", "--delta", "-"],
    ["fdelta", "--field", "5", "--delta", "-w", "--delta", "-3"],
    ["verify", "hurwitz", "--bound", "-20"],
]


def _outcome(fn, argv, capsys):
    try:
        code = fn(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    # a verify report times itself
    return code, re.sub(r'"seconds": [0-9.e-]+', '"seconds": _', out), err


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_matches_full_parser(argv, capsys):
    # main() parses a request that names its subcommand with that
    # subcommand's parser alone; exit code, stdout and stderr must be those
    # of one parse_args on the full parser, of argv with each value led by
    # "-" joined to its option
    assert _outcome(main, list(argv), capsys) == _outcome(main_by_full_parser, list(argv), capsys)
    # and a request that parses gives the full parser's namespace, command
    # included
    try:
        full = cli.build_parser().parse_args(equals_form(argv))
    except SystemExit:
        return
    assert cli._parse(list(argv)) == full


def test_equals_form_joins_only_values_led_by_one_dash():
    # the oracle's rewrite: argparse reads a value led by "-" only inside
    # its option, and every other token as it stands
    assert equals_form(["fdelta", "--field", "5", "--delta", "-3+1*w"]) == ["fdelta", "--field", "5", "--delta=-3+1*w"]
    assert equals_form(["hurwitz", "--delta", "-23", "--", "-3"]) == ["hurwitz", "--delta=-23", "--", "-3"]
    # an option abbreviated as argparse's allow_abbrev reads it, when the
    # prefix is of one option string only
    assert equals_form(["fdelta", "--fie", "5", "--del", "-3+1*w"]) == ["fdelta", "--fie", "5", "--del=-3+1*w"]
    for argv in (
        ["fdelta", "--field", "5", "--delta", "-h"],
        ["fdelta", "--field", "5", "--delta", "--field"],
        ["fdelta", "--", "--delta", "-3"],
        ["zeta-coeffs", "--f", "-3"],
        ["fdelta", "--he", "-3"],
        ["fdelta", "--del=-3", "-3"],
        ["--field", "5", "fdelta", "--delta", "-3"],
        [],
    ):
        assert equals_form(argv) == argv


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(["fdelta", "--field", "5"], "--delta", id="fdelta"),
        pytest.param(["conductor", "--field", "5"], "--delta", id="conductor"),
        pytest.param(["char", "--field", "5", "--ideal", "(11)"], "--delta", id="char"),
        pytest.param(["count", "--field", "5", "--ideal", "(11)"], "--delta", id="count"),
        pytest.param(["zeta-coeffs", "--field", "5", "--bound", "12"], "--delta", id="zeta-coeffs"),
        pytest.param(["fdelta", "--fie", "5"], "--del", id="fdelta --fie 5 --del"),
    ],
)
def test_delta_led_by_minus_as_a_separate_token(argv, option, capsys):
    # --delta -3+1*w, written as two tokens, prints what --delta=-3+1*w
    # prints, byte for byte, and so does an abbreviated option; argparse
    # alone refuses it
    two = _outcome(main, [*argv, option, "-3+1*w"], capsys)
    joined = _outcome(main, [*argv, f"{option}=-3+1*w"], capsys)
    assert two == joined and two[0] == 0 and two[1] and two[2] == ""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*argv, option, "-3+1*w"])
    assert "expected one argument" in capsys.readouterr().err


def test_main_reads_sys_argv(capsys, monkeypatch):
    # main(None) parses sys.argv[1:], as parse_args(None) does
    for argv in (["fdelta", "--field", "10", "--delta", "-4"], ["--field", "5"], ["table", "--bound", "9"]):
        monkeypatch.setattr(sys, "argv", ["relquad", *argv])
        assert _outcome(main, None, capsys) == _outcome(main_by_full_parser, argv, capsys)
    monkeypatch.setattr(sys, "argv", ["relquad", "fdelta", "--field", "10", "--delta", "-4"])
    code, out, _ = _outcome(main, None, capsys)
    assert code == 0 and json.loads(out)["norm"] == "16"


def _fast_parse(argv):
    """cli._read_options on argv's subcommand, None if argv names none."""
    return cli._read_options(argv[0], list(argv[1:])) if argv and argv[0] in cli._COMMANDS else None


# every form of each option of the subcommands that take no positional
FAST_PATH_OPTIONS = {
    "fdelta": [("--field", "5"), ("--delta", "-3")],
    "char": [("--field", "10"), ("--delta", "-4"), ("--ideal", "(3, 1+w)")],
    "zeta-coeffs": [("--field", "5"), ("--delta", "5"), ("--bound", "8"), ("--format", "json")],
    "table": [("--field", "10"), ("--bound", "30"), ("--sign", "any"), ("--format", "json")],
    "unit-discs": [("--field", "10")],
    "hurwitz": [("--delta", "-23"), ("--upto", "12"), ("--format", "json")],
    "local-duality": [("--field", "q2"), ("--precision", "-1")],
}
FAST_PATH_VALUES = ["", " 7", "-1", "-.5", "1.5", "0x10", "-4+2*w", "--", "-", "-x", "--field", "json", "xml", "any", "a=b", "="]


def _fast_path_corpus():
    # each option given as --name value and as --name=value, the values
    # above put in each option's place, an option repeated, one left out,
    # and a trailing "--"
    out = []
    for cmd, opts in FAST_PATH_OPTIONS.items():
        flat = [t for pair in opts for t in pair]
        out += [[cmd, *flat], [cmd, *(f"{n}={v}" for n, v in opts)], [cmd, *flat, "--"], [cmd, *flat[2:]]]
        out.append([cmd, *flat, *opts[0]])
        for i, (name, _) in enumerate(opts):
            rest = [t for j, pair in enumerate(opts) if j != i for t in pair]
            for value in FAST_PATH_VALUES:
                out += [[cmd, name, value, *rest], [cmd, f"{name}={value}", *rest], [cmd, *rest, name, value]]
    return out


def test_fast_path_namespace_is_argparses(capsys):
    # every argv the parse off the action table accepts gives the namespace
    # of parse_args on the full parser (of argv with each value led by "-"
    # joined to its option), attribute order included; and it accepts the
    # plain requests, leaving every malformed one to argparse
    ap = cli.build_parser()
    corpus = [list(argv) for argv in DISPATCH_CORPUS] + _fast_path_corpus()
    accepted = 0
    for argv in corpus:
        fast = _fast_parse(argv)
        if fast is None:
            continue
        accepted += 1
        full = ap.parse_args(equals_form(argv))
        assert fast == full and list(vars(fast)) == list(vars(full)), argv
    capsys.readouterr()
    assert accepted > 250
    for argv in DISPATCH_CORPUS[:9] + [
        ["char", "--field", "10", "--delta=-4", "--ideal=(3, 1+w)"],
        ["fdelta", "--field", "10", "--delta", "-4+2*w"],
    ]:
        assert _fast_parse(argv) is not None, argv
    for argv in (
        ["table", "--field", "5", "--bound", "0x10"],
        ["table", "--field", "5", "--bound="],
        ["table", "--field", "5", "--bound", "9", "--format", "json", "--format", "tsv"],
        ["fdelta", "--fie", "5", "--delta", "-3"],
        ["fdelta", "--field", "5", "--delta", "-3", "--"],
        ["fdelta", "--field", "5", "--delta=--"],
        ["fdelta", "--field", "5"],
        ["fdelta", "--field", "5", "--help", "--delta", "-3"],
        ["verify", "hurwitz", "--bound", "20"],
    ):
        assert _fast_parse(argv) is None, argv


def test_well_formed_requests_skip_argparse(capsys, monkeypatch):
    # the catalog's requests parse without an argparse pass
    def refuse(*args, **kwargs):
        raise AssertionError("argparse pass for a well-formed request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in (
        ["fdelta", "--field", "5", "--delta=-3"],
        ["conductor", "--field", "0", "--delta=-12"],
        ["char", "--field", "10", "--delta=-4", "--ideal=(3, 1+w)"],
        ["count", "--field", "10", "--delta=-4", "--ideal=(2, w)"],
        ["zeta-coeffs", "--field", "5", "--delta=5", "--bound", "8", "--format", "json"],
        ["table", "--field", "10", "--bound", "30", "--format", "json"],
        ["unit-discs", "--field", "10"],
        ["hurwitz", "--delta=-23", "--format", "json"],
        ["local-duality", "--field", "q2"],
    ):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 0 and out and err == "", argv


# the fields of the catalog benchmark workload
CATALOG_FIELDS = (-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22)


def test_writer_matches_json_dumps(capsys, monkeypatch):
    # every object the CLI prints indented, written by cli._dumps, is the
    # text of json.dumps(obj, indent=1, sort_keys=True), and every one-line
    # record that of json.dumps(obj, sort_keys=True): each record kind over
    # the catalog's fields, the eight duality reports at their default
    # precision and at +4, and verify reports with their seconds
    from relquad.discriminants import discriminant_classes
    from relquad.dyadic import all_local_fields

    indented, compact = [], []
    writer, encoder = cli._dumps, cli._compact
    monkeypatch.setattr(cli, "_dumps", lambda obj: indented.append(obj) or writer(obj))
    monkeypatch.setattr(cli, "_compact", lambda obj: compact.append(obj) or encoder(obj))
    requests = []
    for d in CATALOG_FIELDS:
        f = str(d)
        deltas = [str(info.delta) for info in discriminant_classes(make_field(d), 30, "any")[:3]]
        requests += [["unit-discs", "--field", f], ["table", "--field", f, "--bound", "20", "--format", "json"]]
        requests += [["table", "--field", f, "--bound", "20"]]
        for delta in deltas:
            requests += [
                ["fdelta", "--field", f, f"--delta={delta}"],
                ["conductor", "--field", f, f"--delta={delta}"],
                ["char", "--field", f, f"--delta={delta}", "--ideal=(3, 1+w)"],
                ["count", "--field", f, f"--delta={delta}", "--ideal=(4, 2+w)"],
                ["zeta-coeffs", "--field", f, f"--delta={delta}", "--bound", "12", "--format", "json"],
            ]
    requests += [["hurwitz", "--upto", "30", "--format", "json"]]
    for F in all_local_fields():
        desc = F.kind if F.kind != "ram" else f"ram:{F.c}"
        requests += [["local-duality", "--field", desc], ["local-duality", "--field", desc, "--precision", str(F.precision + 4)]]
    requests += [["verify", "hurwitz", "--bound", "20"], ["verify", "dyadic", "--field", "ram:-5"]]
    for argv in requests:
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code in (0, 1) and err == "", (argv, err)
    kinds = {frozenset(obj) for obj in indented if isinstance(obj, dict)}
    assert len(indented) == len(requests) - len(CATALOG_FIELDS) * 2 - 1 and len(kinds) >= 9
    assert sum("seconds" in obj for obj in indented) == 2
    for obj in indented:
        assert writer(obj) == json.dumps(obj, indent=1, sort_keys=True), obj
    assert len(compact) > 100
    for obj in compact:
        assert encoder(obj) == json.dumps(obj, sort_keys=True), obj


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"b": {}, "a": [[], [1, (2, [3, {}])]]},
        {10: "x", -1: True, 2: None, 0: False},
        ["\u00e9 \x00\"\\\n", "\U0001f600", {"\u00fc": "\t"}],
        [10**60, -(10**60), 0, True, False, None],
        [1.5, -0.0, 1e100, 1e-7, 0.1 + 0.2, float("nan"), float("inf"), float("-inf")],
    ],
    ids=repr,
)
def test_writer_edge_values(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=1, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        Fraction(1, 2),
        {1, 2},
        b"x",
        # repr(object()) holds a memory address, so this case needs an id of its own
        pytest.param([object()], id="[object()]"),
        {1.5: 0},
        {True: 0},
        {None: 0},
        {(1,): 0},
    ],
    ids=repr,
)
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "counting", "--field", "5", "--bound", "-3"], "norm bound must be >= 0, got -3"),
        (["verify", "hurwitz", "--bound", "-5"], "discriminant bound must be >= 0, got -5"),
        (["hurwitz", "--upto", "-5"], "discriminant bound must be >= 0, got -5"),
    ],
)
def test_negative_bounds_are_refused(argv, message, capsys):
    # each exited 0: the counting suite with no case, the Hurwitz suite
    # with its four spot values only and hurwitz with an empty table
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_bound_zero_stays_valid(capsys):
    code, out, _ = run_cli("verify", "counting", "--field", "5", "--bound", "0", capsys=capsys)
    assert code == 0 and json.loads(out)["cases"] == 0
    code, out, _ = run_cli("verify", "hurwitz", "--bound", "0", capsys=capsys)
    assert code == 0 and json.loads(out)["cases"] == 4
    code, out, err = run_cli("hurwitz", "--upto", "0", capsys=capsys)
    assert code == 0 and out == "delta\tH_formula\tH_oracle\th\tw\tf\n" and err == ""
