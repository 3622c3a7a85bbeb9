"""Command-line front end.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors,
3 on an internal error (an AssertionError from a broken internal
invariant).  All output is deterministic for identical flags.

The field, element and ideal arguments are parsed by field and ideals,
which every command loads.  Each command imports the rest of what it runs
when it runs, read off the module at that moment: a process compiles only
the modules its request needs, and a function patched on its module is
the one called.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .field import make_field, parse_elem
from .ideals import parse_ideal


def _field_of(args):
    d = args.field
    return make_field(d if d else None)


# json.dumps(obj, sort_keys=True) for the one-line records of table and
# hurwitz: the same C encoder, built once rather than once per row
_compact = json.JSONEncoder(sort_keys=True).encode
_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """The text of json.dumps(obj, indent=1, sort_keys=True), written
    directly: with an indent, json runs its pure-Python encoder.  It takes
    the values the CLI prints, dicts (str or int keys, sorted as json sorts
    them), lists, tuples, str, int, bool, None and float, and raises
    TypeError on any other."""
    return _indented(obj, "\n")


def _indented(obj, newline: str) -> str:
    # newline is "\n" and the indent of obj's own line; json's order of tests
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _compact(obj)
    # a member of exact type str or int is written in place, without the
    # recursive call: the zeta record is three lists of ints
    inner = newline + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            _encode_str(v) if type(v) is str else int.__repr__(v) if type(v) is int else _indented(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _key(k)
            + ": "
            + (_encode_str(v) if type(v) is str else int.__repr__(v) if type(v) is int else _indented(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _encode_str(k)
    if isinstance(k, int) and not isinstance(k, bool):
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"keys must be str or int, not {type(k).__name__}")


def cmd_fdelta(args) -> int:
    from .discriminants import conductor_ideal, fundamental_discriminant_data

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
    print(_dumps(rec))
    return 0


def cmd_conductor(args) -> int:
    from .discriminants import conductor_ideal

    K = _field_of(args)
    info = conductor_ideal(parse_elem(K, args.delta))
    print(_dumps({"f_delta": str(info.f_delta), "rel_disc": str(info.rel_disc)}))
    return 0


def cmd_char(args) -> int:
    from .characters import QuadCharacter

    K = _field_of(args)
    chi = QuadCharacter(parse_elem(K, args.delta))
    a = parse_ideal(K, args.ideal)
    try:
        leg = chi.on_ideal(a)
    except ValueError:  # a is not coprime to delta
        leg = "undefined"
    print(_dumps({"leg": str(leg), "uleg": chi.primitive(a), "chi": chi.extended(a)}))
    return 0


def cmd_count(args) -> int:
    from .characters import QuadCharacter
    from .counting import count_square_roots, count_square_roots_formula

    K = _field_of(args)
    delta = parse_elem(K, args.delta)
    a = parse_ideal(K, args.ideal)
    chi = QuadCharacter(delta)
    rec = {
        "brute": count_square_roots(delta, a),
        "formula": count_square_roots_formula(chi, a),
    }
    print(_dumps(rec))
    return 0 if rec["brute"] == rec["formula"] else 1


def cmd_zeta_coeffs(args) -> int:
    from .characters import QuadCharacter
    from .counting import dirichlet_convolution, ideal_count_table, square_stretch, zeta_coefficients

    K = _field_of(args)
    delta = parse_elem(K, args.delta)
    zd = zeta_coefficients(delta, args.bound)
    chi = QuadCharacter(delta)
    aK = ideal_count_table(K, args.bound)
    _, sums = chi.coefficients(args.bound)
    conv = dirichlet_convolution(aK, sums)
    conv2 = dirichlet_convolution(square_stretch(aK, args.bound), zd)
    if args.format == "json":
        print(_dumps({"n": list(range(1, args.bound + 1)), "coeff": zd[1:], "convolution_coeff": conv[1:]}))
    else:
        print("n\tcoeff\tconvolution_coeff")
        for n in range(1, args.bound + 1):
            print(f"{n}\t{zd[n]}\t{conv[n]}")
    return 0 if conv[1:] == conv2[1:] else 1


def cmd_table(args) -> int:
    from .tables import table_rows

    K = _field_of(args)
    recs = [r.to_record() for r in table_rows(K, args.bound, sign=args.sign)]
    if args.format == "json":
        for rec in recs:
            print(_compact(rec))
    else:
        print("norm\tdelta\tf_delta\trel_disc\textras")
        for rec in recs:
            print(
                f"{rec['norm']}\t{rec['delta']}\t{rec['f_delta_pretty']}\t"
                f"{rec['rel_disc']}\t{_compact(rec['extras'])}"
            )
    return 0


def cmd_unit_discs(args) -> int:
    from .tables import unit_discriminants

    K = _field_of(args)
    infos, window = unit_discriminants(K)
    rec = {
        "field": args.field,
        "window_norm_bound": window,
        "classes": [str(i.delta) for i in infos],
    }
    print(_dumps(rec))
    return 0


def cmd_hurwitz(args) -> int:
    from .hurwitz import hurwitz_row, negative_discriminants

    if (args.delta is None) == (args.upto is None):
        raise ValueError("exactly one of --delta / --upto is required")
    deltas = [args.delta] if args.delta is not None else negative_discriminants(args.upto)
    rows = [hurwitz_row(d) for d in sorted(deltas, reverse=True)]
    if args.format == "json":
        for r in rows:
            rec = {
                "delta": r.delta,
                "H_formula": str(r.H_formula),
                "H_oracle": str(r.H_oracle),
                "h": r.h_L,
                "w": r.w_L,
                "f": r.f_delta,
            }
            print(_compact(rec))
    else:
        print("delta\tH_formula\tH_oracle\th\tw\tf")
        for r in rows:
            print(f"{r.delta}\t{r.H_formula}\t{r.H_oracle}\t{r.h_L}\t{r.w_L}\t{r.f_delta}")
    return 0


def cmd_local_duality(args) -> int:
    from .dyadic import duality_report

    rep = duality_report(args.field, args.precision)
    print(_dumps(rep))
    checks = [v for v in rep.values() if isinstance(v, bool)]
    return 0 if all(checks) else 1


def cmd_verify(args) -> int:
    from .verify import FIELD_SUITES, run_suite

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
        try:
            kwargs["field_d"] = int(args.field) if args.field else None
        except ValueError:
            raise ValueError(f"verify {args.suite} does not take --field {args.field}") from None
    elif args.field is not None:
        if args.suite != "dyadic":
            raise ValueError(f"verify {args.suite} does not take --field")
        kwargs["descriptor"] = args.field
    rep = run_suite(args.suite, **kwargs)
    print(_dumps(_json_safe(rep)))
    return 0 if rep["ok"] else 1


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


# Each subcommand, in the order relquad -h lists them, with its function,
# its help and its arguments: a name and the keywords argparse's
# add_argument takes for it, in the order argparse lists them.  build_parser
# hands them to argparse, and _read_options and _join_values read them here,
# so nothing reads argparse's own tables.
_FIELD = (
    "--field",
    {"type": int, "required": True, "default": 0, "help": "0 for Q, else a squarefree d for Q(sqrt d)"},
)
_DELTA = ("--delta", {"required": True})
_FORMAT = ("--format", {"choices": ("tsv", "json"), "default": "tsv"})
_COMMANDS = {
    "fdelta": (
        cmd_fdelta,
        "conductor data of a discriminant",
        [_FIELD, ("--delta", {"required": True, "help": 'element text "x+y*w"'})],
    ),
    "conductor": (cmd_conductor, "conductor ideal only", [_FIELD, _DELTA]),
    "char": (
        cmd_char,
        "character values on an ideal",
        [_FIELD, _DELTA, ("--ideal", {"required": True, "help": 'ideal text "[[a,b],[0,c]]/den" or "(g1, g2)"'})],
    ),
    "count": (
        cmd_count,
        "square-root count: brute force and formula",
        [_FIELD, _DELTA, ("--ideal", {"required": True})],
    ),
    "zeta-coeffs": (
        cmd_zeta_coeffs,
        "coefficient table of zeta(delta, s)",
        [_FIELD, _DELTA, ("--bound", {"type": int, "default": 50}), _FORMAT],
    ),
    "table": (
        cmd_table,
        "discriminant-class table",
        [
            _FIELD,
            ("--bound", {"type": int, "required": True}),
            ("--sign", {"choices": ("totally_negative", "any"), "default": "totally_negative"}),
            _FORMAT,
        ],
    ),
    "unit-discs": (cmd_unit_discs, "discriminant classes with trivial relative discriminant", [_FIELD]),
    "hurwitz": (cmd_hurwitz, "Hurwitz class numbers", [("--delta", {"type": int}), ("--upto", {"type": int}), _FORMAT]),
    "local-duality": (
        cmd_local_duality,
        "dyadic local field report",
        [("--field", {"required": True, "help": "q2, unram, or ram:c"}), ("--precision", {"type": int})],
    ),
    "verify": (
        cmd_verify,
        "run a verification sweep",
        [
            # verify.SUITES, then "all", written out so that parsing a
            # request imports no verify
            (
                "suite",
                {
                    "choices": (
                        *("counting", "character", "conductor", "identity", "dyadic", "hurwitz", "decomposition"),
                        "all",
                    )
                },
            ),
            ("--field", {"help": "0 or d for number-field suites; q2, unram, or ram:c for dyadic"}),
            ("--bound", {"type": int}),
            ("--precision", {"type": int}),
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relquad",
        description="Exact arithmetic for relative quadratic extensions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (fn, help, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(fn=fn)
    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses: built on the first call, since parse_args
    keeps no state between calls."""
    return build_parser()


def _reader(command: str, fn, arguments) -> tuple:
    """What _read_options needs of a subcommand: its options, each --name
    with its dest, type and choices; the namespace argparse starts from, in
    argparse's order: the command, every dest with its default, then fn;
    and the dests that must be given, a positional's among them."""
    options, defaults, required = {}, {"command": command}, []
    for name, kwargs in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name[:2] == "--":
            options[name] = (dest, kwargs.get("type"), kwargs.get("choices"))
        if name[:2] != "--" or kwargs.get("required"):
            required.append(dest)
        defaults[dest] = kwargs.get("default")
    defaults["fn"] = fn
    return options, defaults, tuple(required)


_READERS = {command: _reader(command, fn, arguments) for command, (fn, _, arguments) in _COMMANDS.items()}


def _parse(argv: list) -> argparse.Namespace:
    """The namespace parse_args(argv) gives on _parser(), but for a value
    led by one "-" after its option, which argparse would refuse.  A
    request that names its subcommand and is well formed is read straight
    off the table above (_read_options); any other goes through _parser()
    in one argparse pass, with each such value first joined to its option
    (_join_values), so every usage error and help text is argparse's."""
    if argv and argv[0] in _READERS:
        args = _read_options(argv[0], argv[1:])
        if args is not None:
            return args
        argv = [argv[0], *_join_values(argv[0], argv[1:])]
    return _parser().parse_args(argv)


def _lone_dash(value: str) -> bool:
    """Whether value is led by one "-" and is no option, like the delta
    -3+1*w, which argparse takes for an unknown option: -h is the one
    option string of a subcommand led by a single "-"."""
    return value[:1] == "-" and value[:2] not in ("--", "-h")


def _takes_value(token: str, options: dict) -> bool:
    """Whether token is one of options, or abbreviates it and no other
    option string (--help included), as argparse's allow_abbrev reads it."""
    if token in options:
        return True
    if token[:2] != "--" or "=" in token:
        return False
    matches = [name for name in (*options, "--help") if name.startswith(token)]
    return len(matches) == 1 and matches[0] in options


def _join_values(command: str, tokens: list) -> list:
    """tokens with each pair --name value written --name=value up to the
    first "--", where --name is an option of command, whole or abbreviated
    (_takes_value), and value is a _lone_dash."""
    options = _READERS[command][0]
    out, i = [], 0
    while i < len(tokens) and tokens[i] != "--":
        token = tokens[i]
        i += 1
        if i < len(tokens) and _lone_dash(tokens[i]) and _takes_value(token, options):
            token, i = f"{token}={tokens[i]}", i + 1
        out.append(token)
    return out + tokens[i:]


def _read_options(command: str, tokens: list):
    """_parser().parse_args([command, *tokens]) when every token is --name
    value or --name=value: each name an exact option of command, no option
    given twice, each value passing the option's type and choices, a
    separate value led by "-" only as a _lone_dash, and every required
    argument present.  None for anything else (help, abbreviations,
    positionals, "--", repeats, bad values, missing arguments), which
    argparse then parses and reports."""
    options, defaults, required = _READERS[command]
    given = {}
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        if token[:2] != "--":
            return None
        option = options.get(token)
        if option is not None:
            if i + 1 == n:
                return None
            value = tokens[i + 1]
            if value[:1] == "-" and not _lone_dash(value):
                return None
            i += 2
        else:
            name, eq, value = token.partition("=")
            option = options.get(name) if eq else None
            # argparse drops an explicit "--" value
            if option is None or value == "--":
                return None
            i += 1
        dest, type_, choices = option
        if dest in given:
            return None
        if type_ is not None:
            try:
                value = type_(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    for dest in required:
        if dest not in given:
            return None
    args = argparse.Namespace()
    vars(args).update(defaults, **given)
    return args


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
