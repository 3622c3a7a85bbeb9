"""The golden corpus of CLI requests.

Each argv of REQUESTS runs in process through relquad.cli.main, and the
sha256 of its exit code, stdout and stderr is kept per request in
golden/cli.json, so a change that should leave the CLI's output alone can
show that it does.  From the root of a checkout:

    PYTHONPATH=src python tests/golden.py           # compare; exit 1 on a difference
    PYTHONPATH=src python tests/golden.py --write   # regenerate golden/cli.json

The requests reach the reduction theory of relquad.classes (unit
discriminants, the class tables and the principal representative of
fdelta, over Q, real fields and imaginary fields) and the dyadic appendix
(the duality report of each of the eight local fields at its default
precision and at 4 more digits, and verify dyadic).  A verify report's
seconds is a wall time, so it is dropped from stdout before hashing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from relquad.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.json"

# the fields of the benchmark's catalog, then Q and fields with larger units
# or other splitting of 2
CATALOG_FIELDS = (-1, -3, -15, -21, -105, 5, 2, 10, 15, 7, 195, 23, 19, 22)
MORE_FIELDS = (0, 31, 94, 139, 10007, 13, -2, 3, 6)

# fdelta requests that print a principal_rep over Q, real and imaginary
# fields, and two whose conductor is not principal
FDELTA = (
    ("0", "-12"),
    ("0", "45"),
    ("0", "-108"),
    ("10", "36"),
    ("10", "76+24*w"),
    ("10", "12+4*w"),
    ("10", "-40"),
    ("5", "20"),
    ("5", "4+4*w"),
    ("7", "-64+32*w"),
    ("2", "-8+4*w"),
    ("139", "556"),
    ("-15", "-15"),
    ("-1", "-4"),
    ("-1", "-4*w"),
    ("-3", "-48"),
    ("-3", "-12*w"),
    ("-3", "4*w"),
    ("-105", "-420"),
)

# the eight dyadic fields with their default precisions
LOCAL_FIELDS = (
    ("q2", 10),
    ("unram", 10),
    *((f"ram:{c}", 14) for c in (-1, -5, 2, -2, 10, -10)),
)

REQUESTS = [
    *(
        argv
        for d in CATALOG_FIELDS + MORE_FIELDS
        for argv in (
            ["unit-discs", "--field", str(d)],
            ["table", "--field", str(d), "--bound", "60", "--format", "json"],
            ["table", "--field", str(d), "--bound", "40", "--sign", "any"],
        )
    ),
    ["table", "--field", "5", "--bound", "500"],
    ["table", "--field", "10", "--bound", "500"],
    *(["fdelta", "--field", d, f"--delta={delta}"] for d, delta in FDELTA),
    *(
        ["local-duality", "--field", desc, *precision]
        for desc, default in LOCAL_FIELDS
        for precision in ((), ("--precision", str(default + 4)))
    ),
    ["verify", "dyadic"],
]


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    stdout = out.getvalue()
    if argv[0] == "verify":
        report = json.loads(stdout)
        del report["seconds"]
        stdout = json.dumps(report)
    return hashlib.sha256(json.dumps([rc, stdout, err.getvalue()]).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in REQUESTS}


def mismatches() -> list[str]:
    """The requests whose digest is not the one kept in the corpus, with
    every request the corpus and REQUESTS do not share."""
    kept = json.loads(CORPUS.read_text())
    got = digests()
    return sorted(key for key in kept.keys() | got.keys() if kept.get(key) != got.get(key))


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        CORPUS.write_text(json.dumps(digests(), indent=1) + "\n")
    elif sys.argv[1:]:
        sys.exit("usage: golden.py [--write]")
    else:
        bad = mismatches()
        print("\n".join(bad) or f"{len(REQUESTS)} requests match")
        sys.exit(1 if bad else 0)
