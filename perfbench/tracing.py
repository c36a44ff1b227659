"""Per-layer tracing from outside the library.

A :class:`Tracer` swaps wrappers in for public functions of each
``wallforms`` module, wherever the modules that call them look them up
(every module namespace that binds the function, or the class that owns
the method), and puts the originals back on :meth:`Tracer.restore`.
Functions that are called a few hundred thousand times per run or less get
a span (name, parent, start, end), kept in memory; the hottest ones (field
payload operations, element boxing, form evaluation, blade products) are
only counted.  Timed runs never install a tracer.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("fields", "linalg", "quadspace", "isometry", "wallform",
          "decompose", "clifford", "oracle", "cli")

# (module, class or None, attribute, span name)
SPANS = [
    ("wallforms.linalg", "Matrix", "rref", "linalg.rref"),
    ("wallforms.linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("wallforms.linalg", "Matrix", "solve", "linalg.solve"),
    ("wallforms.linalg", "Matrix", "kernel_basis", "linalg.kernel"),
    ("wallforms.linalg", "Matrix", "det", "linalg.det"),
    ("wallforms.linalg", "Matrix", "inverse", "linalg.inverse"),
    ("wallforms.quadspace", "Subspace", "from_vectors", "quadspace.subspace"),
    ("wallforms.quadspace", "Subspace", "contains", "quadspace.subspace"),
    ("wallforms.quadspace", "Subspace", "intersection", "quadspace.subspace"),
    ("wallforms.quadspace", "Subspace", "orthogonal_complement", "quadspace.subspace"),
    ("wallforms.isometry", "Isometry", "__post_init__", "isometry.validate"),
    ("wallforms.isometry", None, "reflection", "isometry.reflection"),
    ("wallforms.isometry", None, "eichler", "isometry.eichler"),
    ("wallforms.wallform", None, "wall_form", "wallform.wall_form"),
    ("wallforms.decompose", None, "decompose", "decompose.decompose"),
    ("wallforms.decompose", None, "validate_decomposition", "decompose.validate"),
    ("wallforms.decompose", None, "reassemble", "decompose.validate"),
    ("wallforms.decompose", None, "complement_W", "decompose.complement_W"),
    ("wallforms.decompose", None, "interchange_block", "decompose.block"),
    ("wallforms.decompose", None, "reflection_block", "decompose.block"),
    ("wallforms.decompose", None, "interchange_normal_basis", "decompose.normal_basis"),
    ("wallforms.clifford", None, "algebra_for_space", "clifford.algebra_for_space"),
    ("wallforms.clifford", None, "natural_involution", "clifford.natural_involution"),
    ("wallforms.clifford", None, "involution_type", "clifford.involution_type"),
    ("wallforms.clifford", None, "phi_subalgebra", "clifford.phi_subalgebra"),
    ("wallforms.clifford", None, "alternating_generators_check", "clifford.alternating_generators"),
    ("wallforms.clifford", None, "pfister_invariant", "clifford.pfister"),
    ("wallforms.clifford", None, "transpose_iso_criterion", "clifford.criterion"),
    ("wallforms.clifford", None, "explicit_matrix_iso", "clifford.explicit_matrix_iso"),
    ("wallforms.clifford", None, "goldman_element", "clifford.goldman"),
    ("wallforms.clifford", None, "square_scalar_check", "clifford.square_scalar"),
    ("wallforms.oracle", None, "enumerate_orthogonal_group", "oracle.enumerate"),
    ("wallforms.oracle", None, "standard_generators", "oracle.standard_generators"),
    ("wallforms.oracle", None, "_closure", "oracle.closure"),
    ("wallforms.oracle", "GroupEnumeration", "unipotent2_indices", "oracle.filter"),
    ("wallforms.oracle", "GroupEnumeration", "involution_indices", "oracle.filter"),
    ("wallforms.oracle", "GroupEnumeration", "identity_index", "oracle.filter"),
    ("wallforms.oracle", "GroupEnumeration", "isometry", "oracle.isometry"),
    ("wallforms.oracle", None, "exhaustive_verify", "oracle.runner"),
    ("wallforms.cli", None, "main", "cli.main"),
    ("wallforms.cli", None, "load_problem", "cli.load_problem"),
    ("wallforms.cli", None, "cmd_analyze", "cli.command"),
    ("wallforms.cli", None, "cmd_decompose", "cli.command"),
    ("wallforms.cli", None, "cmd_clifford", "cli.command"),
    ("wallforms.cli", None, "cmd_verify", "cli.command"),
    ("wallforms.cli", None, "cmd_enumerate", "cli.command"),
    ("wallforms.cli", None, "_emit", "cli.emit"),
]

# (module, class, attribute, counter name): counted, not timed
COUNTED = [
    ("wallforms.fields", cls, attr, name)
    for cls in ("PrimeField", "Galois2Field", "RationalFunctionField")
    for attr, name in (("mul", "fields.mul"), ("add", "fields.addsub"),
                       ("sub", "fields.addsub"), ("div", "fields.div"))
] + [
    ("wallforms.fields", "FieldElement", "__init__", "fields.boxed"),
    ("wallforms.quadspace", "QuadraticSpace", "eval_q", "quadspace.eval"),
    ("wallforms.quadspace", "QuadraticSpace", "eval_b", "quadspace.eval"),
    ("wallforms.clifford", "CliffordAlgebra", "blade_mul", "clifford.blade_mul"),
]

RUNNER_NAMES = {"v'": "vprime", "vprime": "vprime"}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def bump(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, before=None, after=None):
        """`fn` wrapped in a span.  `name` is a span name or a function of
        the call's arguments that returns one."""
        fixed = None if callable(name) else self.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(starts)
            names.append(fixed if fixed is not None else self.index(name(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if after is not None:
                    after(None, exc)
                raise
            ends[sid] = clock()
            stack.pop()
            if after is not None:
                after(result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str) -> int:
        cell = self._cells.get(key)
        return self.counts.get(key, 0) + (cell[0] if cell else 0)

    # -- installing ----------------------------------------------------------

    def _hooks(self, name):
        if name == "linalg.rref":
            def before(args):
                if getattr(args[0], "_rref", None) is not None:
                    self.bump("linalg.rref_hits")
            return before, None
        if name == "decompose.decompose":
            def after(result, exc):
                for blk in getattr(result, "blocks", ()):
                    self.bump(f"decompose.blocks_{blk.kind}")
            return None, after
        if name == "oracle.standard_generators":
            return None, lambda result, exc: self.bump("oracle.generators", len(result or ()))
        if name == "oracle.enumerate":
            return None, lambda result, exc: self.bump(
                "oracle.elements", result.order if result is not None else 0)
        if name == "cli.main":
            return None, lambda result, exc: self.bump(
                f"cli.exit_{1 if exc is not None else result}")
        return None, None

    def install(self):
        for module in {spec[0] for spec in SPANS + COUNTED}:
            importlib.import_module(module)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "wallforms" or k.startswith("wallforms.")]
        for module, cls, attr, name in SPANS:
            if name == "oracle.runner":
                name = lambda args, kwargs: "oracle.runner." + RUNNER_NAMES.get(args[0], args[0])
            before, after = self._hooks(name)
            self._swap(modules, module, cls, attr,
                       lambda fn, name=name, b=before, a=after: self.span(name, fn, b, a))
        for module, cls, attr, name in COUNTED:
            self._swap(modules, module, cls, attr, lambda fn, name=name: self.counted(name, fn))

    def _swap(self, modules, module, cls, attr, make):
        if cls is not None:
            owner = getattr(sys.modules[module], cls)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        original = getattr(sys.modules[module], attr)
        replacement = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def root_s(self) -> float:
        """Summed duration of the top-level spans."""
        _, parents, starts, ends = self.spans()
        return float((ends - starts)[parents < 0].sum())

    def aggregate(self, scale: float = 1.0) -> "Aggregate":
        """Per-name totals, times multiplied by `scale`."""
        names, parents, starts, ends = self.spans()
        own = self_times(parents, starts, ends) * scale
        k = len(self.names)
        return Aggregate(
            self,
            dict(zip(self.names, np.bincount(names, minlength=k).tolist())),
            dict(zip(self.names, np.bincount(names, weights=own, minlength=k).tolist())),
            dict(zip(self.names, np.bincount(
                names, weights=(ends - starts) * scale, minlength=k).tolist())),
        )

    def write(self, path: str):
        names, parents, starts, ends = self.spans()
        origin = float(starts.min()) if len(starts) else 0.0
        doc = {"names": self.names, "name": names.tolist(), "parent": parents.tolist(),
               "start": (starts - origin).tolist(), "end": (ends - origin).tolist(),
               "counts": {k: self.count(k) for k in sorted(set(self.counts) | set(self._cells))}}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def self_times(parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    parents = np.asarray(parents)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    own = ends - starts
    children = np.flatnonzero(parents >= 0)
    if not len(children):
        return own
    order = children[np.lexsort((starts[children], parents[children]))]
    prev_parent, cover_end = -1, 0.0
    for c in order.tolist():
        p = int(parents[c])
        lo, hi = max(starts[c], starts[p]), min(ends[c], ends[p])
        if p != prev_parent:
            prev_parent, cover_end = p, lo
        lo = max(lo, cover_end)
        if hi > lo:
            own[p] -= hi - lo
            cover_end = hi
    return own


class Aggregate:
    """Per span name: calls, summed self time and summed duration."""

    def __init__(self, tracer, calls, own, total):
        self.tracer, self.calls, self.own, self.total = tracer, calls, own, total

    def n(self, name):
        return self.calls.get(name, 0)

    def self_s(self, *names):
        return sum(self.own.get(n, 0.0) for n in names)

    def total_s(self, name):
        return self.total.get(name, 0.0)

    def module_self_s(self, module):
        return sum(v for k, v in self.own.items() if k.split(".", 1)[0] == module)

    def layer_self_s(self):
        return sum(self.module_self_s(m) for m in LAYERS)

    def count(self, key):
        return self.tracer.count(key)


def _ratio(num, den):
    return num / den if den else 0.0


_FIELDS = "wall_s on unipotent-sweep and involution-sweep; latency_p50_ms on cli-requests"
_UNI = "wall_s on unipotent-sweep"
_CLIF = "wall_s on involution-sweep; latency_tail_ms and peak_rss_mb on cli-requests"
_ORACLE = "items_per_s on enumerate-groups; setup_s on unipotent-sweep and involution-sweep"
_CLI = "latency_p50_ms on cli-requests"
_TRACE = "none: the cost and coverage of tracing itself"

# name, unit, better, value(a, run), the end-to-end metric and workload it should move
PER_LAYER = [
    ("fields.mul_ops", "count", "lower", lambda a, r: a.count("fields.mul"), _FIELDS),
    ("fields.addsub_ops", "count", "lower", lambda a, r: a.count("fields.addsub"), _FIELDS),
    ("fields.div_ops", "count", "lower", lambda a, r: a.count("fields.div"), _FIELDS),
    ("fields.boxed_elements", "count", "lower", lambda a, r: a.count("fields.boxed"), _FIELDS),
] + [
    row for op in ("rref", "matmul", "solve", "kernel", "det", "inverse") for row in (
        (f"linalg.{op}_calls", "count", "lower", lambda a, r, op=op: a.n(f"linalg.{op}"), _UNI),
        (f"linalg.{op}_self_s", "s", "lower", lambda a, r, op=op: a.self_s(f"linalg.{op}"), _UNI),
    )
] + [
    ("linalg.rref_cache_hit_ratio", "ratio", "higher",
     lambda a, r: _ratio(a.count("linalg.rref_hits"), a.n("linalg.rref")), _UNI),
    ("linalg.self_s", "s", "lower", lambda a, r: a.module_self_s("linalg"), _UNI),
    ("quadspace.subspace_ops", "count", "lower", lambda a, r: a.n("quadspace.subspace"), _UNI),
    ("quadspace.subspace_self_s", "s", "lower", lambda a, r: a.self_s("quadspace.subspace"), _UNI),
    ("quadspace.eval_calls", "count", "lower", lambda a, r: a.count("quadspace.eval"), _UNI),
    ("isometry.validations", "count", "lower", lambda a, r: a.n("isometry.validate"),
     "wall_s on all four workloads"),
    ("isometry.validate_self_s", "s", "lower", lambda a, r: a.self_s("isometry.validate"),
     "wall_s on all four workloads"),
    ("isometry.self_s", "s", "lower", lambda a, r: a.module_self_s("isometry"),
     "wall_s on all four workloads; setup_s on both sweeps"),
    ("wallform.wall_form_calls", "count", "lower", lambda a, r: a.n("wallform.wall_form"), _UNI),
    ("wallform.calls_per_item", "calls/item", "lower",
     lambda a, r: _ratio(a.n("wallform.wall_form"), r["items"]), _UNI),
    ("wallform.self_s", "s", "lower", lambda a, r: a.module_self_s("wallform"), _UNI),
    ("decompose.decompose_self_s", "s", "lower", lambda a, r: a.self_s("decompose.decompose"), _UNI),
    ("decompose.validate_self_s", "s", "lower", lambda a, r: a.self_s("decompose.validate"), _UNI),
    ("decompose.complement_W_self_s", "s", "lower",
     lambda a, r: a.self_s("decompose.complement_W"), _UNI),
    ("decompose.blocks_interchange", "count", "lower",
     lambda a, r: a.count("decompose.blocks_interchange"), _UNI),
    ("decompose.blocks_reflection", "count", "lower",
     lambda a, r: a.count("decompose.blocks_reflection"), _UNI),
    ("decompose.self_s", "s", "lower", lambda a, r: a.module_self_s("decompose"), _UNI),
] + [
    (f"clifford.{fn}_self_s", "s", "lower", lambda a, r, fn=fn: a.self_s(f"clifford.{fn}"), _CLIF)
    for fn in ("natural_involution", "phi_subalgebra", "pfister", "criterion",
               "explicit_matrix_iso", "goldman")
] + [
    ("clifford.blade_mul_calls", "count", "lower", lambda a, r: a.count("clifford.blade_mul"), _CLIF),
    ("clifford.algebra_cache_hit_ratio", "ratio", "higher",
     lambda a, r: _ratio(r["algebra_cache"][0], sum(r["algebra_cache"])), _CLIF),
    ("clifford.self_s", "s", "lower", lambda a, r: a.module_self_s("clifford"), _CLIF),
    ("oracle.standard_generators_s", "s", "lower",
     lambda a, r: a.total_s("oracle.standard_generators"), _ORACLE),
    ("oracle.standard_generators_self_s", "s", "lower",
     lambda a, r: a.self_s("oracle.standard_generators"), _ORACLE),
    ("oracle.closure_self_s", "s", "lower", lambda a, r: a.self_s("oracle.closure"), _ORACLE),
    ("oracle.generators", "count", "lower", lambda a, r: a.count("oracle.generators"), _ORACLE),
    ("oracle.elements", "count", "lower", lambda a, r: a.count("oracle.elements"), _ORACLE),
    ("oracle.filter_self_s", "s", "lower", lambda a, r: a.self_s("oracle.filter"), _ORACLE),
    ("oracle.isometry_calls", "count", "lower", lambda a, r: a.n("oracle.isometry"), _ORACLE),
    ("oracle.isometry_self_s", "s", "lower", lambda a, r: a.self_s("oracle.isometry"), _ORACLE),
] + [
    (f"oracle.runner.{th}_s", "s", "lower", lambda a, r, th=th: a.total_s(f"oracle.runner.{th}"),
     "wall_s on unipotent-sweep" if th in ("char", "vprime") else "wall_s on involution-sweep")
    for th in ("char", "vprime", "res", "g", "clif")
] + [
    ("oracle.self_s", "s", "lower", lambda a, r: a.module_self_s("oracle"), _ORACLE),
    ("cli.load_problem_self_s", "s", "lower", lambda a, r: a.self_s("cli.load_problem"), _CLI),
    ("cli.command_self_s", "s", "lower", lambda a, r: a.self_s("cli.command"), _CLI),
    ("cli.emit_self_s", "s", "lower", lambda a, r: a.self_s("cli.emit"), _CLI),
    ("cli.self_s", "s", "lower", lambda a, r: a.module_self_s("cli"), _CLI),
] + [
    (f"cli.exit_{code}", "count", "lower", lambda a, r, code=code: a.count(f"cli.exit_{code}"), _CLI)
    for code in (0, 1, 2, 3, 4)
] + [
    ("trace.traced_s", "s", "lower", lambda a, r: r["traced_s"], _TRACE),
    ("trace.untraced_s", "s", "lower", lambda a, r: r["untraced_s"], _TRACE),
    ("trace.overhead_s", "s", "lower", lambda a, r: r["traced_s"] - r["untraced_s"], _TRACE),
    ("trace.unattributed_s", "s", "lower", lambda a, r: r["traced_s"] - a.layer_self_s(), _TRACE),
    ("trace.items", "count", "higher", lambda a, r: r["items"], _TRACE),
    ("trace.spans", "count", "lower", lambda a, r: sum(a.calls.values()), _TRACE),
]


def per_layer_metrics(agg: Aggregate, run: dict) -> dict:
    """`run` holds items, traced_s, untraced_s and algebra_cache (hits,
    misses) of the traced work; times in the units of `agg`."""
    return {name: {"value": value(agg, run), "unit": unit}
            for name, unit, _better, value, _moves in PER_LAYER}
