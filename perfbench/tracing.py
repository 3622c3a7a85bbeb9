"""Span tracing around relquad's public functions, installed from outside.

The tracer replaces each traced function by a wrapper that records one span
(name, start, end, parent span, op id) per call.  Methods are patched on
their classes; module-level functions are patched under every name that
any loaded ``relquad`` module binds to them, so call sites that did
``from .ideals import primes_above`` are traced too.  Spans live in flat
arrays while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, attribute): "Class.method" patches the class, a bare name patches
# the function in every relquad namespace that binds it.
TRACED = [
    ("arith", "factorint"),
    ("arith", "kronecker"),
    ("field", "Elem.__mul__"),
    ("field", "fundamental_unit"),
    ("field", "is_unit_square"),
    ("ideals", "Ideal.__mul__"),
    ("ideals", "Ideal.inverse"),
    ("ideals", "Ideal.valuation"),
    ("ideals", "Ideal.factor"),
    ("ideals", "Ideal.residues"),
    ("ideals", "primes_above"),
    ("ideals", "Ideal.principal_generator"),
    ("ideals", "ideals_of_norm"),
    ("discriminants", "conductor_ideal"),
    ("discriminants", "discriminant_classes"),
    ("discriminants", "local_square_solvable"),
    ("characters", "QuadCharacter.at_prime"),
    ("characters", "QuadCharacter.on_ideal"),
    ("characters", "QuadCharacter.residue_table"),
    ("characters", "QuadCharacter.primitive"),
    ("counting", "count_square_roots"),
    ("counting", "count_square_roots_formula"),
    ("counting", "count_square_roots_local_product"),
    ("counting", "ideal_count_table"),
    ("counting", "primitive_character_table"),
    ("counting", "dirichlet_convolution"),
    ("hurwitz", "hurwitz_class_number"),
    ("hurwitz", "hurwitz_class_number_forms"),
    ("dyadic", "SquareClassSpace.decompose"),
    ("dyadic", "hilbert_symbol"),
    ("dyadic", "duality_report"),
    ("tables", "table_rows"),
    ("tables", "unit_discriminants"),
    ("cli", "main"),
]

# Metric names follow the issue's spelling: operators by their verb, and
# principal_generator by its role rather than its class.
_RENAMES = {
    "field.Elem.__mul__": "field.Elem.mul",
    "ideals.Ideal.__mul__": "ideals.Ideal.mul",
    "ideals.Ideal.principal_generator": "ideals.principal_generator",
}


def metric_name(module: str, attr: str) -> str:
    name = f"{module}.{attr}"
    return _RENAMES.get(name, name)


NAMES = [metric_name(m, a) for m, a in TRACED]
_FOUND_ID = NAMES.index("ideals.principal_generator")
_RESIDUES_ID = NAMES.index("ideals.Ideal.residues")

# Inputs whose repetition a later cache would exploit.  Keys are the
# mathematical input, not object identity: a character's prime value is
# keyed by (delta, P) so that fresh QuadCharacter instances still repeat.
REPEAT_KEYS = {
    "ideals.Ideal.factor": lambda args: args[0],
    "ideals.primes_above": lambda args: (args[0], args[1]),
    "characters.QuadCharacter.at_prime": lambda args: (
        args[0].delta.field,
        args[0].delta.key(),
        args[1],
    ),
}


class Tracer:
    """Records spans for the traced functions while installed and active."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        # whether a span has no enclosing span of the same function; only
        # those count towards total_s, so recursion is not counted twice
        self.outermost = array("b")
        self.open = [0] * len(NAMES)
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.seen = {n: set() for n in REPEAT_KEYS}
        self.repeats = dict.fromkeys(REPEAT_KEYS, 0)
        self.generator_found = 0
        self.residue_elements = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "relquad" or name.startswith("relquad."))
        ]
        for nid, (module, attr) in enumerate(TRACED):
            mod = importlib.import_module(f"relquad.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                self._patch(owner, fn_name, self._wrap(nid, original))
                continue
            original = getattr(mod, fn_name)
            wrapper = self._wrap(nid, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, nid: int, fn):
        name = NAMES[nid]
        key_of = REPEAT_KEYS.get(name)
        seen = self.seen.get(name)
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op
        outermost, open_spans, stack = self.outermost, self.open, self.stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                key = key_of(args)
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            outermost.append(open_spans[nid] == 0)
            open_spans[nid] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                open_spans[nid] -= 1
            if nid == _FOUND_ID and result is not None:
                tracer.generator_found += 1
            elif nid == _RESIDUES_ID:
                tracer.residue_elements += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus the ratios.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        Span times are wall-clock: perf_counter costs a fraction of what a
        CPU clock costs per call, and there are hundreds of thousands of
        spans per run."""
        n = len(NAMES)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
        selfs = [0.0] * n
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            k = names[i]
            calls[k] += 1
            if self.outermost[i]:
                total[k] += dur
            selfs[k] += dur - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_s"] = total[k]
            out[f"{name}.self_s"] = selfs[k]
        for name in REPEAT_KEYS:
            c = out[f"{name}.calls"]
            out[f"{name}.repeat_share"] = self.repeats[name] / c if c else 0.0
        c = out["ideals.principal_generator.calls"]
        out["ideals.principal_generator.found_share"] = self.generator_found / c if c else 0.0
        out["ideals.Ideal.residues.elements"] = self.residue_elements
        return out

    def write(self, stem: str) -> None:
        """Dump the spans: <stem>.json describes the columns of <stem>.bin."""
        with open(stem + ".bin", "wb") as f:
            for col in (self.start, self.end, self.parent, self.name, self.op):
                col.tofile(f)
        meta = {
            "spans": len(self.start),
            "columns": [
                ["start", "d"],
                ["end", "d"],
                ["parent", "q"],
                ["name", "q"],
                ["op", "q"],
            ],
            "names": NAMES,
        }
        with open(stem + ".json", "w") as f:
            json.dump(meta, f, indent=1)

