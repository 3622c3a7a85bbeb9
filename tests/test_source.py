"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

from helpers import ideal_gcd
import relquad
from relquad.field import make_field
from relquad.ideals import ideal_from_generators, ideals_of_norm, parse_ideal, primes_above, principal_ideal, unit_ideal


def test_package_has_no_assert_statements():
    # a verdict must not depend on assert, which python -O strips: every
    # check in relquad raises explicitly
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_module_imports_dataclasses():
    # the package's records are relquad._record classes: dataclasses, with
    # inspect, ast, dis and tokenize under it, costs every fresh process
    # its import and each decorator's class build
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_unused_import():
    # every name a package module imports is loaded in that module, or named
    # by one of its strings, as __all__ and _HOMES name what they export;
    # from __future__ import annotations is exempt
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def test_package_init_imports_no_submodule():
    # relquad/__init__.py resolves its exports on first access: no
    # top-level statement imports a module of the package
    tree = ast.parse((Path(relquad.__file__).parent / "__init__.py").read_text())
    found = [
        f"__init__.py:{node.lineno}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "relquad")
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "relquad" for a in node.names)
    ]
    assert not found, found


# run under python -S, so that no site-imported module hides a load
_FRESH_PROCESS = """
import json, sys
import relquad
out = {"bare": sorted(m for m in sys.modules if m.startswith("relquad."))}
import relquad.cli
relquad.cli._parse(["table", "--field", "10", "--bound", "500"])
heavy = ["relquad.dyadic", "relquad.verify", "relquad.counting", "dataclasses", "inspect", "importlib.resources"]
out["parsed"] = [m for m in heavy if m in sys.modules]
relquad.cli.main(["table", "--field", "10", "--bound", "20"])
out["tabled"] = [m for m in heavy if m in sys.modules]
out["exports"] = {}
for name in relquad.__all__:
    ns = {}
    exec(f"from relquad import {name}", ns)
    out["exports"][name] = getattr(relquad, name) is ns[name]
out["dir"] = sorted(set(relquad.__all__) - set(dir(relquad)))
from relquad import arith
out["arith"] = arith is sys.modules["relquad.arith"]
try:
    relquad.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


def test_a_fresh_process_loads_what_it_uses():
    # import relquad loads no submodule; parsing a table request, and
    # running one, loads no module the table does not need; every export
    # still resolves, as relquad.X and as from relquad import X, to the
    # object of the module that defines it
    src = str(Path(relquad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FRESH_PROCESS], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["bare"] == [] and out["parsed"] == [] and out["tabled"] == []
    assert out["exports"] == dict.fromkeys(relquad.__all__, True) and len(relquad.__all__) > 30
    assert out["dir"] == [] and out["arith"] is True
    assert out["missing"] == "module 'relquad' has no attribute 'no_such_name'"
    # in this process too, each export is its module's own object
    homes = relquad._HOMES
    assert list(homes) == relquad.__all__
    for name, home in homes.items():
        assert getattr(relquad, name) is getattr(importlib.import_module(f"relquad.{home}"), name), name


def test_only_dyadic_builds_local_fields():
    # the package reaches a dyadic field through dyadic.local_field, whose
    # interned instances share their tables; a private LocalField would
    # rebuild them on every use
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        if path.name == "dyadic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "LocalField":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# memos that intern one object per key, and so grow for the life of the
# process: the fields and the primes above p, each a module dict that
# publishes by setdefault (a rename of either must be made here too, as the
# objects they hand out are the only ones of their value), and the
# functions that intern a fundamental unit, the primes above p, a unit
# window, the small-prime list, the CLI parser and a dyadic field; every
# other memo has a size
UNBOUNDED_MEMOS = {
    "arith._small_primes",
    "classes._unit_window",
    "cli._parser",
    "dyadic._intern_field",
    "field._FIELDS",
    "field.fundamental_unit",
    "ideals._PRIMES",
    "ideals._primes_above",
}

# intern tables of weak references: the ideals, by (field, hnf, den).  A
# dying ideal's callback takes its entry out, so the table holds the live
# ideals only, and it is bounded by whatever keeps them alive, the bounded
# memos above all
WEAK_INTERN_TABLES = {"ideals._IDEALS"}


def _unbounded_cache_call(node) -> bool:
    """Whether node is lru_cache(maxsize=None), lru_cache(None) or cache."""
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        if name != "lru_cache":
            return False
        size = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "maxsize":
                size = kw.value
        return isinstance(size, ast.Constant) and size.value is None
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name == "cache"


def _grown_module_dicts(tree) -> set[str]:
    """Names bound to {} at module level that the module's code grows, by
    a setdefault call or an item assignment."""
    empty = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            empty.update(t.id for t in targets if isinstance(t, ast.Name))
    grown = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setdefault":
            owner = node.func.value
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            owner = node.value
        else:
            continue
        if isinstance(owner, ast.Name) and owner.id in empty:
            grown.add(owner.id)
    return grown


def test_every_unbounded_memo_interns():
    # an lru_cache without a size, or a module dict that is only ever
    # added to, grows for the life of the process, and a bounded memo
    # reports its size through cache_info()
    found = set()
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{name}" for name in _grown_module_dicts(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _unbounded_cache_call(dec):
                        found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _unbounded_cache_call(node.value.func):
                    found.update(f"{path.stem}.{t.id}" for t in node.targets)
    assert found <= UNBOUNDED_MEMOS | WEAK_INTERN_TABLES, sorted(found - UNBOUNDED_MEMOS - WEAK_INTERN_TABLES)
    # the walk sees all three forms: decorators, wrapped assignments and
    # the intern tables of the fields, the primes and the ideals
    assert {"field._FIELDS", "ideals._PRIMES", "ideals._primes_above", "dyadic._intern_field"} <= found
    assert WEAK_INTERN_TABLES <= found
    # and every entry of a weak table is a weak reference; the memo of
    # ideals_of_norm keeps the ideals of norm 20 live, so it has entries
    relquad.ideals.ideals_of_norm(relquad.field.make_field(5), 20)
    for name in WEAK_INTERN_TABLES:
        module, table = name.split(".")
        refs = getattr(importlib.import_module(f"relquad.{module}"), table).values()
        assert refs and all(isinstance(ref, weakref.ref) for ref in refs), name


def _class_defs(path: Path, name: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name]
    out = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return out


def test_interned_classes_compare_by_identity():
    # one object per field, per prime and per ideal, so no class of them
    # defines __eq__ or __hash__: they use object's, which CPython runs in C
    package = Path(relquad.__file__).parent
    for module, cls in (("field", "QuadField"), ("ideals", "PrimeIdeal"), ("ideals", "Ideal")):
        names = _class_defs(package / f"{module}.py", cls)
        assert "__new__" in names and "__reduce__" in names, (cls, names)
        assert not {"__eq__", "__hash__"} & set(names), (cls, names)


def test_only_the_interning_path_builds_primes():
    # the package builds a PrimeIdeal in ideals._new_prime alone, which
    # only ideals._find_primes_above calls: no call PrimeIdeal(...) (that
    # looks the interned prime up) and no other object.__new__(PrimeIdeal)
    found = set()
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                names = {a.id for a in node.args if isinstance(a, ast.Name)}
                if callee in ("PrimeIdeal", "_new_prime") or (callee == "__new__" and "PrimeIdeal" in names):
                    found.add((callee, f"{path.stem}.{fn.name}"))
    assert found == {("__new__", "ideals._new_prime"), ("_new_prime", "ideals._find_primes_above")}, found


def test_only_conductor_builds_infos():
    # the package builds a DiscriminantInfo in discriminants._conductor
    # alone, the memo of conductor_ideal: no call DiscriminantInfo(...)
    # (that is conductor_ideal) and no other object.__new__(DiscriminantInfo)
    found = set()
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                names = {a.id for a in node.args if isinstance(a, ast.Name)}
                if callee == "DiscriminantInfo" or (callee == "__new__" and "DiscriminantInfo" in names):
                    found.add((callee, f"{path.stem}.{fn.name}"))
    assert found == {("__new__", "discriminants._conductor")}, found


def test_cli_reads_no_private_attribute():
    # cli declares each subcommand's arguments in its own table, which
    # builds the parser and reads the well-formed requests: it reads no
    # attribute led by one "_" (argparse's _actions, _option_string_actions,
    # _StoreAction and the like) of any object
    path = Path(relquad.__file__).parent / "cli.py"
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr[:1] == "_" and node.attr[:2] != "__"
    ]
    assert not found, found


# the reduction theory: every name that decides principality, walks the
# unit window or picks a class representative, with the walk's step bound
REDUCTION_THEORY = {
    "CF_STEP_BOUND",
    "_cf_step",
    "_cf_convergents",
    "_sqrt_d_nonneg",
    "_window_side",
    "_unit_window",
    "_window_least",
    "_unit_square_least",
    "minkowski_bound",
    "_norm_form",
    "_cf_generator",
    "_gauss_generator",
    "_generator",
    "_principal_generator_integral",
}


def test_reduction_theory_has_one_home():
    # each name of the reduction theory is defined in classes.py and in no
    # other module of the package, and the class kernel of discriminants
    # reads the one generator rule: it tests no kind of field
    package = Path(relquad.__file__).parent
    homes = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        for name in defined & REDUCTION_THEORY:
            homes.setdefault(name, []).append(path.stem)
    assert homes == dict.fromkeys(REDUCTION_THEORY, ["classes"]), homes
    tree = ast.parse((package / "discriminants.py").read_text())
    (kernel,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_class_reps"]
    kinds = {"is_rational", "is_real_quadratic", "is_imaginary_quadratic", "degree"}
    found = sorted({node.attr for node in ast.walk(kernel) if isinstance(node, ast.Attribute)} & kinds)
    assert not found, found


def test_one_continued_fraction_loop():
    # fundamental_unit and the real principality test read their
    # convergents from classes._cf_convergents, the one caller of _cf_step
    callers = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_cf_step":
                        callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["classes._cf_convergents"], callers


def test_convergents_are_judged_in_the_walk():
    # classes._cf_convergents judges each convergent on its complete quotient
    # and confirms a hit once, so no loop over its convergents evaluates a
    # form: no product there has the loop's targets on both sides (p * p,
    # p * q, A * p * p), while p * a + q * b stays allowed; and
    # fundamental_unit walks the principal form, with no d mod 4 start
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    loops, found = [], []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in ast.walk(tree):
            if isinstance(top, ast.For) and getattr(getattr(top.iter, "func", None), "id", None) == "_cf_convergents":
                loops.append(f"{path.name}:{top.lineno}")
                targets = names(top.target)
                for node in (n for stmt in top.body + top.orelse for n in ast.walk(stmt)):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                        if names(node.left) & targets and names(node.right) & targets:
                            found.append(f"{path.name}:{node.lineno}")
            elif isinstance(top, ast.FunctionDef) and top.name == "fundamental_unit":
                for node in ast.walk(top):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                        found.append(f"{path.name}:{node.lineno}")
    assert len(loops) == 2, loops
    assert not found, found


def test_one_hnf_format():
    # every ideal's hnf is the triple (a, b, c), over Q too, where it is
    # (n, 0, 1): no code reads an hnf's length or unpacks a 1-tuple from
    # one, and every route that builds an ideal over Q gives the triple
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len":
                if any(isinstance(arg, ast.Attribute) and arg.attr == "hnf" for arg in node.args):
                    found.append(f"{path.name}:{node.lineno}")
            value = getattr(node, "value", None)
            if isinstance(node, ast.Assign) and "hnf" in (getattr(value, "attr", None), getattr(value, "id", None)):
                if any(isinstance(t, (ast.Tuple, ast.List)) and len(t.elts) == 1 for t in node.targets):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found

    Q = make_field()
    I, J = parse_ideal(Q, "[12]/5"), parse_ideal(Q, "(6, 9)")
    P, = primes_above(Q, 3)
    built = {
        "parse_ideal": [I, J, parse_ideal(Q, "[7]"), parse_ideal(Q, "3/4")],
        "principal_ideal": [principal_ideal(Q.elem(-18)), principal_ideal(Q.elem(Fraction(10, 4)))],
        "ideal_from_generators": [ideal_from_generators(Q, [Q.elem(4), Q.elem(Fraction(6, 7))])],
        "primes_above": [P.ideal],
        "PrimeIdeal.power": [P.power(k) for k in (-2, 0, 2, 5)],
        "ideals_of_norm": [*ideals_of_norm(Q, 1), *ideals_of_norm(Q, 360)],
        "ideal product": [I * J, I * I.inverse(), P.ideal * J],
        "integer product": [I * 4, 6 * J, I * Fraction(-3, 8)],
        "gcd": [ideal_gcd(I, J), ideal_gcd(J, P.ideal)],
        "inverse": [I.inverse(), J.inverse()],
        "unit_ideal": [unit_ideal(Q)],
    }
    bad = {route: [str(K) for K in ideals if K.hnf[1:] != (0, 1)] for route, ideals in built.items()}
    assert bad == {route: [] for route in built}, bad


def _reads_classify_tables(fn) -> bool:
    """Whether fn reads an attribute _unshift or indexes an attribute table,
    directly or through a local name bound to it."""
    aliases = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = [t for tgt in node.targets for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])]
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value] * len(targets)
            for t, v in zip(targets, values):
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr == "table":
                    aliases.add(t.id)
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "_unshift" and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Subscript):
            v = node.value
            if (isinstance(v, ast.Attribute) and v.attr == "table") or (
                isinstance(v, ast.Name) and v.id in aliases
            ):
                return True
    return False


def test_one_classify_kernel():
    # decompose, the norm-group search, the level classes and the duality
    # report classify through SquareClassSpace._classify_pairs, the one
    # function that reads the unshift factors or indexes the unit table
    readers = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and _reads_classify_tables(fn):
                readers.append(f"{path.stem}.{fn.name}")
    assert readers == ["dyadic._classify_pairs"], readers


def _functions(tree):
    """(qualified name, node) of every top-level function and method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{stmt.name}.{sub.name}", sub


def _writes_prime_memo(fn) -> bool:
    """Whether fn stores into, or calls a mutator of, an attribute _prime or
    _prime_memo, directly or through a local name bound to one."""
    memo = ("_prime", "_prime_memo")
    aliases = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = [t for tgt in node.targets for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])]
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value] * len(targets)
            for t, v in zip(targets, values):
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr in memo:
                    aliases.add(t.id)

    def is_memo(v) -> bool:
        return (isinstance(v, ast.Attribute) and v.attr in memo) or (isinstance(v, ast.Name) and v.id in aliases)

    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and is_memo(node.value):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and is_memo(node.func.value):
            if node.func.attr in ("setdefault", "update", "pop", "popitem", "clear", "__setitem__"):
                return True
    return False


def test_one_prime_value():
    # the splitting law has one rule, one memo and one kernel: in
    # characters, only QuadCharacter._prime_value calls kronecker or
    # discriminants._solvable_at; in the package, only it writes the
    # prime-value memo; and the unit-part memo and its method are gone
    package = Path(relquad.__file__).parent
    tree = ast.parse((package / "characters.py").read_text())
    callers = sorted(
        name
        for name, fn in _functions(tree)
        if any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("kronecker", "_solvable_at")
            for node in ast.walk(fn)
        )
    )
    assert callers == ["QuadCharacter._prime_value"], callers
    writers = []
    left = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        writers += [f"{path.stem}.{name}" for name, fn in _functions(ast.parse(text)) if _writes_prime_memo(fn)]
        left += [f"{path.name}:{i}" for i, line in enumerate(text.splitlines(), 1) if "_unit_part" in line]
    assert writers == ["characters.QuadCharacter._prime_value"], writers
    assert not left, left


def test_one_indented_json_writer():
    # indented output has one writer, cli._dumps: no json.dumps call in the
    # package passes indent=, which would run json's pure-Python encoder
    found = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps":
                if any(kw.arg == "indent" for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# names in a module's __all__ that nothing in the CLI, verify or perfbench
# reaches, each with the reason it stays public
UNREACHED_PUBLIC = {
    "discriminants.discriminant_witness": "the paper's definition of a discriminant: delta is one iff this is not None",
}
ENTRY_MODULES = ("cli", "verify")


def _loaded_names(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _traced_names(perfbench: Path) -> list[tuple[str, str]]:
    tree = ast.parse((perfbench / "tracing.py").read_text())
    (value,) = [
        s.value for s in tree.body if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "TRACED"
    ]
    return ast.literal_eval(value)


def _reached_names(package: Path, perfbench: Path) -> set[str]:
    """The names loaded by code that the CLI, verify or perfbench reach,
    followed by name through function bodies.  The seeds are every line of
    cli, verify and perfbench (with the names tracing.TRACED looks up by
    string) and the top-level statements of the other modules, imports
    aside.  A reached class brings its bases, decorators, class-level
    statements and dunder methods; any other function or method is reached
    when its name is loaded."""
    bodies: dict[str, list] = {}
    todo = set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if path.stem in ENTRY_MODULES or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                todo |= _loaded_names(stmt)
                continue
            own = [stmt] if isinstance(stmt, ast.FunctionDef) else [*stmt.bases, *stmt.decorator_list]
            for sub in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    bodies.setdefault(sub.name, []).append(sub)
                else:
                    own.append(sub)
            bodies.setdefault(stmt.name, []).extend(own)
    for path in sorted(perfbench.glob("*.py")):
        todo |= _loaded_names(ast.parse(path.read_text()))
    todo |= {part for _, attr in _traced_names(perfbench) for part in attr.split(".")}
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in bodies.get(name, ()):
            todo |= _loaded_names(node) - reached
    return reached


def test_public_surface_is_reached():
    # relquad/__init__.py exports names its modules list in __all__ (by
    # import, or through its name table), and
    # every __all__ name has a caller in the CLI, verify or perfbench: a
    # name only tests call belongs in tests/helpers.py
    package = Path(relquad.__file__).parent
    perfbench = Path(__file__).parent.parent / "perfbench"
    # the benchmark's tracer looks these up by string, so each must exist
    for module, attr in _traced_names(perfbench):
        obj = importlib.import_module(f"relquad.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
    tree = ast.parse((package / "__init__.py").read_text())
    exports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    # the lazy package's name table, _HOMES: each exported name by the
    # module that defines it
    (homes,) = [
        ast.literal_eval(s.value)
        for s in tree.body
        if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "_HOMES"
    ]
    exports += [(module, name) for name, module in homes.items()]
    assert len(exports) > 30, exports
    listed = {
        f"{path.stem}.{name}"
        for path in package.glob("[!_]*.py")
        for name in getattr(importlib.import_module(f"relquad.{path.stem}"), "__all__", ())
    }
    unlisted = sorted(f"{m}.{n}" for m, n in exports if f"{m}.{n}" not in listed)
    assert not unlisted, unlisted
    reached = _reached_names(package, perfbench)
    unreached = {q for q in listed if q.rsplit(".", 1)[1] not in reached}
    assert unreached == set(UNREACHED_PUBLIC), sorted(unreached ^ set(UNREACHED_PUBLIC))


# methods that nothing in the package or perfbench reaches by name, kept as
# the documented API of their class
DOCUMENTED_METHODS = {"ideals.Ideal.contains", "ideals.Ideal.residues", "field.Elem.sqrt"}


def _methods(package: Path) -> set[str]:
    """module.Class.method of every method of a relquad class, dunders aside."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                out.update(
                    f"{path.stem}.{cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[:2] != "__"
                )
    return out


def test_every_method_is_referenced():
    # a method of a relquad class is read as .name somewhere in the package
    # or in perfbench (whose tracer looks its TRACED names up by string), or
    # it is documented API: a method that only tests call belongs in
    # tests/helpers.py.  A name-based scan: any attribute of that name
    # counts, whatever its receiver
    package = Path(relquad.__file__).parent
    perfbench = Path(__file__).parent.parent / "perfbench"
    referenced = {part for _, attr in _traced_names(perfbench) for part in attr.split(".")}
    for path in [*package.glob("*.py"), *perfbench.glob("*.py")]:
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    methods = _methods(package)
    assert DOCUMENTED_METHODS <= methods, sorted(DOCUMENTED_METHODS - methods)
    unreferenced = {m for m in methods if m.rsplit(".", 1)[1] not in referenced}
    assert unreferenced <= DOCUMENTED_METHODS, sorted(unreferenced - DOCUMENTED_METHODS)
