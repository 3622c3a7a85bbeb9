"""The benchmark's workloads: inputs drawn from a seed, ops, and their checks.

Construction is the set-up that ``setup_s`` times: it imports relquad,
builds the fields, loads fixtures and prepares the input pools.  After
that, ``cycle()`` draws the next list of ops.  Every cycle of a workload has
the same composition (every class, field or request kind once, and one draw
from each stratum of the larger input pools), so runs of whole cycles see
the same mix whatever the seed.  ``CYCLE_SECONDS`` is the time of one
cycle at run.py's reference speed when the workload was sized; a run's
cycle count follows from it and the requested seconds alone, never from how
fast the code under test is.

For each op, ``execute`` makes the relquad calls and returns their raw
outputs; it is the timed part.  ``check`` compares the independent routes
in those outputs and returns a list of problems; ``canonical`` gives the
text that the output digest hashes.  relquad is always reached through its
module attributes, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import isqrt
from types import SimpleNamespace

from relquad import (
    arith,
    characters,
    cli,
    counting,
    discriminants,
    dyadic,
    field,
    hurwitz,
    ideals,
    tables,
    verify,
)

# Shared by rational and catalog: the descriptors of Q2 and its seven
# quadratic extensions, and the negative discriminants that Hurwitz rows take.
LOCAL_FIELDS = [F.kind if F.kind != "ram" else f"ram:{F.c}" for F in dyadic.all_local_fields()]
HURWITZ_BOUND = 2000
HURWITZ_DELTAS = [D for D in range(-1, -HURWITZ_BOUND - 1, -1) if D % 4 in (0, 1)]


def _strata(items: list, count: int) -> list[list]:
    """Split a sorted list into `count` contiguous, nearly equal buckets."""
    if len(items) < count:
        raise ValueError(f"{len(items)} inputs cannot fill {count} strata")
    return [items[i * len(items) // count : (i + 1) * len(items) // count] for i in range(count)]


class Sweep:
    """The verification sweep over the quadratic base fields.

    One op is one discriminant class of Q(sqrt 5), Q(sqrt 10) or
    Q(sqrt -15), checked with the public calls and equality tests of
    verify.counting_suite, character_suite and identity_suite.  A cycle
    takes every class once, in a seeded order."""

    name = "sweep"
    CYCLE_SECONDS = 3.6
    FIELDS = (5, 10, -15)
    DELTA_BOUND = 30  # classes with |N(delta)| <= this
    IDEAL_BOUND = 8  # the counting routes run over every ideal of norm <= this
    NORM_BOUND = 8  # the identities run for norms <= this

    def __init__(self, rng):
        self.rng = rng
        self.pools = {}
        for d in self.FIELDS:
            K = field.make_field(d)
            infos = discriminants.discriminant_classes(K, self.DELTA_BOUND)
            ideal_list = [
                a for n in range(1, self.IDEAL_BOUND + 1) for a in ideals.ideals_of_norm(K, n)
            ]
            aK = counting.ideal_count_table(K, self.NORM_BOUND)
            self.pools[d] = (infos, ideal_list, aK)

    def cycle(self) -> list:
        ops = [(d, info) for d in self.FIELDS for info in self.pools[d][0]]
        self.rng.shuffle(ops)
        return ops

    def describe(self, op) -> str:
        d, info = op
        return f"Q(sqrt {d}) delta {info.delta}"

    def execute(self, op):
        d, info = op
        _, ideal_list, aK = self.pools[d]
        chi = characters.QuadCharacter(info)
        counts = [
            (
                counting.count_square_roots(info.delta, a),
                counting.count_square_roots_formula(chi, a),
                counting.count_square_roots_local_product(chi, a),
            )
            for a in ideal_list
        ]
        chi = characters.QuadCharacter(info)
        cond, table, wits = chi.conductor_exhaustive()
        witnesses = []
        for Q, (a, b) in wits.items():
            D = cond.divide_exact(Q.ideal)
            witnesses.append(
                (str(Q), D.reduce(a) == D.reduce(b), chi.on_element(a) != chi.on_element(b))
            )
        return counts, cond, table, witnesses, self._identities(info, aK)

    def _identities(self, info, aK):
        """Divisor-sum, convolution and order-ideal identities for one class."""
        nb = self.NORM_BOUND
        chi = characters.QuadCharacter(info)
        f = info.f_delta
        tds = [(t, dd) for t in f.divisors() for dd in f.divide_exact(t).divisors()]
        per_ideal, chi_sums = chi.coefficients(nb)
        divisor_sums = []
        for a, val in per_ideal.items():
            total = 0
            for t, dd in tds:
                td2 = t * dd * dd
                if td2.divides(a):
                    total += (
                        t.moebius()
                        * chi.primitive(t)
                        * dd.norm_int()
                        * chi.primitive(a.divide_exact(td2))
                    )
            divisor_sums.append((str(a), val, total))
        zd = counting.zeta_coefficients(info.delta, nb)
        lhs = counting.dirichlet_convolution(aK, chi_sums)
        rhs = counting.dirichlet_convolution(counting.square_stretch(aK, nb), zd)
        pair_counts = [0] * (nb + 1)
        for rp in counting.square_root_pairs(info.delta, nb):
            pair_counts[rp.a_ideal.norm_int()] += 1
        order = [0] + [
            sum(aK[m] * pair_counts[n // (m * m)] for m in range(1, isqrt(n) + 1) if n % (m * m) == 0)
            for n in range(1, nb + 1)
        ]
        return divisor_sums, lhs, rhs, order

    def check(self, op, out) -> list[str]:
        d, info = op
        counts, cond, _, witnesses, (divisor_sums, lhs, rhs, order) = out
        problems = []
        for a, (brute, formula, local) in zip(self.pools[d][1], counts):
            if not brute == formula == local:
                problems.append(f"ideal {a}: brute {brute}, formula {formula}, local {local}")
        if cond != info.rel_disc:
            problems.append(f"conductor {cond} != rel disc {info.rel_disc}")
        for Q, same_class, values_differ in witnesses:
            if not (same_class and values_differ):
                problems.append(f"bad witness at {Q}")
        for a, val, total in divisor_sums:
            if total != val:
                problems.append(f"divisor-sum identity fails at {a}")
        for n in range(1, self.NORM_BOUND + 1):
            if lhs[n] != rhs[n]:
                problems.append(f"convolution identity fails at n={n}")
            if order[n] != lhs[n]:
                problems.append(f"order-ideal count fails at n={n}")
        return problems

    def canonical(self, op, out) -> str:
        d, info = op
        counts, cond, table, witnesses, identities = out
        return repr((d, str(info.delta), counts, str(cond), sorted(table.items()), witnesses, identities))


class Rational:
    """Work over Q and Q2: the decomposition law, Hurwitz class numbers,
    and the dyadic appendix.

    A cycle has four kinds of op.  Its composition is fixed so that the
    median falls inside the decomposition ops, whose cost does not depend
    on delta0, and the p90 inside the duality reports of the ramified
    fields, which are six ops of nearly equal cost."""

    name = "rational"
    CYCLE_SECONDS = 1.8
    DISC_BOUND = 100  # fundamental delta0 with |delta0| <= this
    NORM_BOUND = 500  # the decomposition law for n <= this
    DECOMPOSITION_STRATA = 16
    HURWITZ_STRATA = 6
    PAIRS = 4  # Hilbert symbol pairs per op
    COORD = 15  # |coordinate| of the Hilbert symbol arguments

    def __init__(self, rng):
        self.rng = rng
        self.Q = field.make_field()
        self.decomposition = _strata(
            verify._fundamental_discriminants(self.DISC_BOUND), self.DECOMPOSITION_STRATA
        )
        self.hurwitz = _strata(HURWITZ_DELTAS, self.HURWITZ_STRATA)
        self.ones = [0] + [1] * self.NORM_BOUND
        self.reports = {}  # descriptor -> first duality report, checked at precision + 4

    def cycle(self) -> list:
        rng = self.rng
        ops = [("decomposition", rng.choice(b)) for b in self.decomposition]
        ops += [("hurwitz", rng.choice(b)) for b in self.hurwitz]
        ops += [("duality", desc) for desc in LOCAL_FIELDS]
        ops += [("hilbert", desc, self._pairs(desc)) for desc in LOCAL_FIELDS]
        rng.shuffle(ops)
        return ops

    def _pairs(self, desc: str) -> tuple:
        rng, c = self.rng, self.COORD

        def coords():
            while True:
                a = rng.randint(-c, c)
                b = 0 if desc == "q2" else rng.randint(-c, c)
                if a or b:
                    return a, b

        return tuple((coords(), coords()) for _ in range(self.PAIRS))

    def describe(self, op) -> str:
        return f"{op[0]} {op[1]}"

    def execute(self, op):
        kind = op[0]
        if kind == "decomposition":
            d0 = op[1]
            L = field.make_field(arith.squarefree_part(d0))
            aL = counting.ideal_count_table(L, self.NORM_BOUND)
            chi = characters.QuadCharacter(self.Q.elem(d0))
            conv = counting.dirichlet_convolution(
                self.ones, counting.primitive_character_table(chi, self.NORM_BOUND)
            )
            return L.disc, aL, conv
        if kind == "hurwitz":
            r = hurwitz.hurwitz_row(op[1])
            return r.H_formula, r.H_oracle, r.h_L, r.w_L, r.f_delta
        if kind == "duality":
            return dyadic.duality_report(op[1])
        desc, pairs = op[1], op[2]
        F = dyadic.local_field(desc)
        fine = dyadic.local_field(desc, F.precision + 4)
        symbols = []
        for (a1, b1), (a2, b2) in pairs:
            x, y = F.elem(a1, b1), F.elem(a2, b2)
            symbols.append(
                (
                    dyadic.hilbert_symbol(x, y),
                    dyadic.hilbert_symbol(y, x),
                    dyadic.hilbert_symbol(fine.elem(a1, b1), fine.elem(a2, b2)),
                    dyadic.hilbert_symbol_q2_formula(a1, a2) if desc == "q2" else None,
                )
            )
        return symbols

    def check(self, op, out) -> list[str]:
        kind = op[0]
        if kind == "decomposition":
            disc, aL, conv = out
            problems = [] if disc == op[1] else [f"field discriminant {disc} != {op[1]}"]
            bad = [n for n in range(1, self.NORM_BOUND + 1) if aL[n] != conv[n]]
            if bad:
                problems.append(f"ideal counts != convolution at {len(bad)} n, first n={bad[0]}")
            return problems
        if kind == "hurwitz":
            H_formula, H_oracle = out[0], out[1]
            return [] if H_formula == H_oracle else [f"formula {H_formula} != oracle {H_oracle}"]
        if kind == "duality":
            return self._check_report(op[1], out)
        problems = []
        for ((a1, b1), (a2, b2)), (h, swapped, fine, oracle) in zip(op[2], out):
            if not h == swapped == fine or oracle not in (None, h):
                problems.append(
                    f"Hilbert symbol ({a1}+{b1}t, {a2}+{b2}t): {h}, swapped {swapped}, "
                    f"precision +4 {fine}, closed form {oracle}"
                )
        return problems

    def _check_report(self, desc: str, rep: dict) -> list[str]:
        """Every check in the report holds.  The first report of a field is
        compared with a re-run at precision + 4; later ones, whose inputs are
        the same, must equal the first."""
        problems = [f"{key} fails" for key, val in rep.items() if val is False]
        first = self.reports.get(desc)
        if first is None:
            self.reports[desc] = rep
            rerun = dyadic.duality_report(desc, rep["precision"] + 4)
            for key in ("dims", "gram", "duality_ok", "bilinear", "nondegenerate"):
                if rep[key] != rerun[key]:
                    problems.append(f"{key} changed at precision +4")
        elif rep != first:
            problems.append("report differs from the field's first report")
        return problems

    def canonical(self, op, out) -> str:
        if op[0] == "duality":
            return json.dumps([op[1], out], sort_keys=True)
        if op[0] == "hilbert":
            return json.dumps([op[1], op[2], out])
        return repr((op[:2], out))


class Catalog:
    """A stream of CLI requests, each run in-process through relquad.cli.main.

    Each field gets a session: unit-discs, then table, then seeded fdelta,
    conductor, char, count and zeta-coeffs queries.  Hurwitz requests and a
    local-duality request for every dyadic field ride along.  Fields 5 and
    10 table at their published bound, so their rows are compared with the
    shipped fixtures."""

    name = "catalog"
    CYCLE_SECONDS = 6.5
    IMAGINARY = (-1, -3, -15, -21, -105)
    # real fields ordered by fundamental unit, from about 1.6 to about 394;
    # d = 31 (eps ~ 3040) is left out: its unit-discs search alone takes a minute
    REAL = (5, 2, 10, 15, 7, 195, 23, 19, 22)
    TABLE_BOUND = 20
    FIXTURE_TABLES = {5: "table_sqrt5.json", 10: "table_sqrt10.json"}
    HURWITZ_REQUESTS = 2  # per cycle
    ZETA_BOUND = 30
    SCHEMAS = {
        "fdelta": "fdelta",
        "char": "char",
        "count": "count",
        "unit-discs": "unit_discs",
        "local-duality": "local_duality",
    }

    def __init__(self, rng):
        self.rng = rng
        self.fields = {d: field.make_field(d) for d in self.IMAGINARY + self.REAL}
        self.table_fixtures = {d: tables.load_fixture(n) for d, n in self.FIXTURE_TABLES.items()}
        units = tables.load_fixture("unit_discriminants.json")
        self.unit_fixtures = {row["d"]: row for row in units.values()}
        missing = set(self.unit_fixtures) - set(self.fields)
        if missing:
            raise ValueError(f"unit-discriminant fixture fields {sorted(missing)} not in the catalog")
        self.deltas = {d: self._discriminants(K) for d, K in self.fields.items()}

    def fundamental_units(self) -> dict[int, str]:
        """eps of every real field, for the report.  Asked for only after the
        timed run: relquad caches units process-wide, so the first cycle pays
        for its own unit searches, as a fresh CLI process would."""
        return {d: str(field.fundamental_unit(self.fields[d])) for d in self.REAL}

    def cycle(self) -> list:
        rng = self.rng
        groups = [self._session(d) for d in self.fields]
        groups += [
            [["hurwitz", f"--delta={rng.choice(HURWITZ_DELTAS)}", "--format", "json"]]
            for _ in range(self.HURWITZ_REQUESTS)
        ]
        groups += [[["local-duality", "--field", desc]] for desc in LOCAL_FIELDS]
        rng.shuffle(groups)
        return [argv for group in groups for argv in group]

    def _session(self, d: int) -> list[list[str]]:
        f = str(d)
        bound = 500 if d in self.FIXTURE_TABLES else self.TABLE_BOUND
        # the five queries take one discriminant from each norm stratum
        deltas = [f"--delta={self.rng.choice(s)}" for s in self.deltas[d]]
        self.rng.shuffle(deltas)
        return [
            ["unit-discs", "--field", f],
            ["table", "--field", f, "--bound", str(bound), "--format", "json"],
            ["fdelta", "--field", f, deltas[0]],
            ["conductor", "--field", f, deltas[1]],
            ["char", "--field", f, deltas[2], f"--ideal={self._ideal()}"],
            ["count", "--field", f, deltas[3], f"--ideal={self._ideal()}"],
            ["zeta-coeffs", "--field", f, deltas[4], "--bound", str(self.ZETA_BOUND), "--format", "json"],
        ]

    def _discriminants(self, K) -> list[list[str]]:
        """Nonzero x + y*w in a small box that are squares mod 4, in five
        strata by |norm|; tested on integer coordinates rather than by the
        program under test."""
        t, n = K.omega_trace, K.omega_norm
        found = []
        for x in range(-12, 13):
            for y in range(-4, 5):
                # (i + j w)^2 = (i^2 - n j^2) + (2 i j + t j^2) w
                if (x or y) and any(
                    (i * i - n * j * j - x) % 4 == 0 and (2 * i * j + t * j * j - y) % 4 == 0
                    for i in range(4)
                    for j in range(4)
                ):
                    found.append((abs(x * x + t * x * y + n * y * y), x, y))
        found.sort()
        return _strata([f"{x}{y:+d}*w" if y else str(x) for _, x, y in found], 5)

    def _ideal(self) -> str:
        m = self.rng.randint(2, 12)
        return f"({m}, {self.rng.randrange(m)}+w)"

    def describe(self, op) -> str:
        return " ".join(op)

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op))
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, out) -> list[str]:
        rc, text, err = out
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        cmd = op[0]
        if cmd == "table":
            records = [json.loads(line) for line in text.splitlines()]
            problems = [p for rec in records for p in tables.validate_record(rec, "table_row")]
            d = int(op[2])
            if d in self.FIXTURE_TABLES:
                problems += self._table_fixture(d, records)
            return problems
        if cmd == "hurwitz":
            rec = json.loads(text)
            ok = rec["H_formula"] == rec["H_oracle"]
            return [] if ok else [f"formula {rec['H_formula']} != oracle {rec['H_oracle']}"]
        rec = json.loads(text)
        if cmd == "conductor":
            return [] if {"f_delta", "rel_disc"} <= set(rec) else ["conductor keys missing"]
        if cmd == "zeta-coeffs":
            n = self.ZETA_BOUND
            ok = len(rec["coeff"]) == len(rec["convolution_coeff"]) == n
            return [] if ok else ["zeta-coeffs table has the wrong length"]
        problems = tables.validate_record(rec, self.SCHEMAS[cmd])
        if cmd == "unit-discs" and int(op[2]) in self.unit_fixtures:
            d = int(op[2])
            K = self.fields[d]
            found = [SimpleNamespace(delta=field.parse_elem(K, s)) for s in rec["classes"]]
            problems += tables.fixture_unit_discs_match(K, found, self.unit_fixtures[d])
        return problems

    def _table_fixture(self, d: int, records: list[dict]) -> list[str]:
        K = self.fields[d]
        rows = [
            tables.TableRow(
                norm=rec["norm"],
                delta=field.parse_elem(K, rec["delta"]),
                f_delta=ideals.parse_ideal(K, rec["f_delta"]),
                rel_disc=ideals.parse_ideal(K, rec["rel_disc"]),
            )
            for rec in records
        ]
        return tables.fixture_row_multiset_matches(K, rows, self.table_fixtures[d])

    def canonical(self, op, out) -> str:
        rc, text, _ = out
        return f"{' '.join(op)}\n{rc}\n{text}"


WORKLOADS = {w.name: w for w in (Sweep, Rational, Catalog)}
