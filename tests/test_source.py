"""Checks on the package source itself."""

import ast
import importlib
import weakref
from fractions import Fraction
from pathlib import Path

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
    "cli._parser",
    "dyadic._intern_field",
    "field._FIELDS",
    "field._unit_window",
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


def test_one_continued_fraction_loop():
    # fundamental_unit and the real principality test read their
    # convergents from field._cf_convergents, the one caller of _cf_step
    callers = []
    for path in sorted(Path(relquad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_cf_step":
                        callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["field._cf_convergents"], callers


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
        "gcd": [I.gcd(J), J.gcd(P.ideal)],
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
    # relquad/__init__.py exports names its modules list in __all__, and
    # every __all__ name has a caller in the CLI, verify or perfbench: a
    # name only tests call belongs in tests/helpers.py
    package = Path(relquad.__file__).parent
    perfbench = Path(__file__).parent.parent / "perfbench"
    # the benchmark's tracer looks these up by string, so each must exist
    for module, attr in _traced_names(perfbench):
        obj = importlib.import_module(f"relquad.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
    exports = [
        (node.module, alias.name)
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
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
