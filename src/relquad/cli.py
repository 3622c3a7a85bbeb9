"""Command-line front end.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors,
3 on an internal error (an AssertionError from a broken internal
invariant).  All output is deterministic for identical flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .characters import QuadCharacter
from .counting import (
    count_square_roots,
    count_square_roots_formula,
    dirichlet_convolution,
    ideal_count_table,
    square_stretch,
    zeta_coefficients,
)
from .discriminants import conductor_ideal, fundamental_discriminant_data
from .dyadic import duality_report
from .field import make_field, parse_elem
from .hurwitz import hurwitz_row
from .ideals import parse_ideal
from .tables import table_rows, unit_discriminants
from .verify import FIELD_SUITES, run_suite


def _field_of(args):
    d = args.field
    return make_field(d if d else None)


def _emit(args, obj):
    if getattr(args, "format", "json") == "json":
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        raise ValueError("tsv output is not defined for this command")


def cmd_fdelta(args) -> int:
    K = _field_of(args)
    delta = parse_elem(K, args.delta)
    info = conductor_ideal(delta)
    rec = {
        "norm": str(delta.norm()),
        "delta": str(delta),
        "f_delta_hnf": str(info.f_delta),
        "f_delta_pretty": info.f_delta.pretty(),
        "rel_disc_hnf": str(info.rel_disc),
    }
    fd = fundamental_discriminant_data(info)
    if fd.principal_rep is not None:
        rec["principal_rep"] = str(fd.principal_rep)
    _emit(args, rec)
    return 0


def cmd_conductor(args) -> int:
    K = _field_of(args)
    info = conductor_ideal(parse_elem(K, args.delta))
    _emit(args, {"f_delta": str(info.f_delta), "rel_disc": str(info.rel_disc)})
    return 0


def cmd_char(args) -> int:
    K = _field_of(args)
    chi = QuadCharacter(parse_elem(K, args.delta))
    a = parse_ideal(K, args.ideal)
    leg = chi.on_ideal(a) if a.gcd(chi.modulus).is_unit_ideal() else "undefined"
    _emit(
        args,
        {"leg": str(leg), "uleg": chi.primitive(a), "chi": chi.extended(a)},
    )
    return 0


def cmd_count(args) -> int:
    K = _field_of(args)
    delta = parse_elem(K, args.delta)
    a = parse_ideal(K, args.ideal)
    chi = QuadCharacter(delta)
    rec = {
        "brute": count_square_roots(delta, a),
        "formula": count_square_roots_formula(chi, a),
    }
    _emit(args, rec)
    return 0 if rec["brute"] == rec["formula"] else 1


def cmd_zeta_coeffs(args) -> int:
    K = _field_of(args)
    delta = parse_elem(K, args.delta)
    zd = zeta_coefficients(delta, args.bound)
    chi = QuadCharacter(delta)
    aK = ideal_count_table(K, args.bound)
    _, sums = chi.coefficients(args.bound)
    conv = dirichlet_convolution(aK, sums)
    conv2 = dirichlet_convolution(square_stretch(aK, args.bound), zd)
    if args.format == "json":
        _emit(args, {"n": list(range(1, args.bound + 1)), "coeff": zd[1:], "convolution_coeff": conv[1:]})
    else:
        print("n\tcoeff\tconvolution_coeff")
        for n in range(1, args.bound + 1):
            print(f"{n}\t{zd[n]}\t{conv[n]}")
    return 0 if conv[1:] == conv2[1:] else 1


def cmd_table(args) -> int:
    K = _field_of(args)
    recs = [r.to_record() for r in table_rows(K, args.bound, sign=args.sign)]
    if args.format == "json":
        for rec in recs:
            print(json.dumps(rec, sort_keys=True))
    else:
        print("norm\tdelta\tf_delta\trel_disc\textras")
        for rec in recs:
            print(
                f"{rec['norm']}\t{rec['delta']}\t{rec['f_delta_pretty']}\t"
                f"{rec['rel_disc']}\t{json.dumps(rec['extras'], sort_keys=True)}"
            )
    return 0


def cmd_unit_discs(args) -> int:
    K = _field_of(args)
    infos, window = unit_discriminants(K)
    rec = {
        "field": args.field,
        "window_norm_bound": window,
        "classes": [str(i.delta) for i in infos],
    }
    _emit(args, rec)
    return 0


def cmd_hurwitz(args) -> int:
    if (args.delta is None) == (args.upto is None):
        print("exactly one of --delta / --upto is required", file=sys.stderr)
        return 2
    deltas = [args.delta] if args.delta is not None else [
        d for d in range(-args.upto, 0) if d % 4 in (0, 1)
    ]
    rows = [hurwitz_row(d) for d in sorted(deltas, reverse=True)]
    if args.format == "json":
        for r in rows:
            print(
                json.dumps(
                    {
                        "delta": r.delta,
                        "H_formula": str(r.H_formula),
                        "H_oracle": str(r.H_oracle),
                        "h": r.h_L,
                        "w": r.w_L,
                        "f": r.f_delta,
                    },
                    sort_keys=True,
                )
            )
    else:
        print("delta\tH_formula\tH_oracle\th\tw\tf")
        for r in rows:
            print(f"{r.delta}\t{r.H_formula}\t{r.H_oracle}\t{r.h_L}\t{r.w_L}\t{r.f_delta}")
    return 0


def cmd_local_duality(args) -> int:
    rep = duality_report(args.field, args.precision)
    print(json.dumps(rep, indent=1, sort_keys=True))
    checks = [v for v in rep.values() if isinstance(v, bool)]
    return 0 if all(checks) else 1


def cmd_verify(args) -> int:
    # the keyword each suite takes --bound as; only dyadic takes --precision
    bound_key = {
        "counting": "ideal_bound",
        "character": "bound",
        "conductor": "bound",
        "identity": "norm_bound",
        "hurwitz": "bound",
        "decomposition": "norm_bound",
    }.get(args.suite)
    kwargs = {}
    if args.bound is not None:
        if bound_key is None:
            raise ValueError(f"verify {args.suite} does not take --bound")
        kwargs[bound_key] = args.bound
    if args.precision is not None:
        if args.suite != "dyadic":
            raise ValueError(f"verify {args.suite} does not take --precision")
        kwargs["precision"] = args.precision
    if args.suite in FIELD_SUITES:
        kwargs["field_d"] = int(args.field) if args.field else None
    elif args.field is not None:
        if args.suite != "dyadic":
            raise ValueError(f"verify {args.suite} does not take --field")
        kwargs["descriptor"] = args.field
    rep = run_suite(args.suite, **kwargs)
    print(json.dumps(_json_safe(rep), indent=1, sort_keys=True))
    return 0 if rep["ok"] else 1


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _add_field_flag(p, required=True):
    p.add_argument(
        "--field",
        type=int,
        required=required,
        default=0,
        help="0 for Q, else a squarefree d for Q(sqrt d)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relquad",
        description="Exact arithmetic for relative quadratic extensions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fdelta", help="conductor data of a discriminant")
    _add_field_flag(p)
    p.add_argument("--delta", required=True, help='element text "x+y*w"')
    p.set_defaults(fn=cmd_fdelta, format="json")

    p = sub.add_parser("conductor", help="conductor ideal only")
    _add_field_flag(p)
    p.add_argument("--delta", required=True)
    p.set_defaults(fn=cmd_conductor, format="json")

    p = sub.add_parser("char", help="character values on an ideal")
    _add_field_flag(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--ideal", required=True, help='ideal text "[[a,b],[0,c]]/den" or "(g1, g2)"')
    p.set_defaults(fn=cmd_char, format="json")

    p = sub.add_parser("count", help="square-root count: brute force and formula")
    _add_field_flag(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--ideal", required=True)
    p.set_defaults(fn=cmd_count, format="json")

    p = sub.add_parser("zeta-coeffs", help="coefficient table of zeta(delta, s)")
    _add_field_flag(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_zeta_coeffs)

    p = sub.add_parser("table", help="discriminant-class table")
    _add_field_flag(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--sign", choices=("totally_negative", "any"), default="totally_negative")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("unit-discs", help="discriminant classes with trivial relative discriminant")
    _add_field_flag(p)
    p.set_defaults(fn=cmd_unit_discs, format="json")

    p = sub.add_parser("hurwitz", help="Hurwitz class numbers")
    p.add_argument("--delta", type=int)
    p.add_argument("--upto", type=int)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("local-duality", help="dyadic local field report")
    p.add_argument("--field", required=True, help="q2, unram, or ram:c")
    p.add_argument("--precision", type=int)
    p.set_defaults(fn=cmd_local_duality)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument(
        "suite",
        choices=("counting", "character", "conductor", "identity", "dyadic", "hurwitz", "decomposition", "all"),
    )
    p.add_argument(
        "--field",
        default=None,
        help="0 or d for number-field suites; q2, unram, or ram:c for dyadic",
    )
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--precision", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses: built on the first call, since parse_args
    keeps no state between calls.  Its subcommand parsers, which _parse
    calls directly, live inside it, so cache_clear() drops them too."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """The namespace parse_args(argv) gives on _parser(), in one argparse
    pass when argv[0] names a subcommand: that subcommand's parser reads
    argv[1:], as the full parser would hand them on, and raises the same
    usage errors.  An argv it leaves arguments over from, and any argv that
    does not start with a subcommand (none, -h, an unknown command), goes
    through the full parser, which prints the same help or usage error as
    it would have for the whole request."""
    ap = _parser()
    sub = ap._subparsers._group_actions[0].choices.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return ap.parse_args(argv)


def main(argv=None) -> int:
    # output is exact, so integers of any length are printed in full:
    # Python's integer-to-text limit is lifted for the call and restored
    # after it, which leaves an in-process caller's interpreter as it was
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
