"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer wraps the public functions of each aelcert module (a layer) where
their callers bind them: `aelcert.rounding.rs_unique_decode` is wrapped in
`aelcert.rounding`, so a call from the rounding layer into the outer layer is
a span of its own.  Constructors of public classes and a few methods also
get spans.  Field operations are only counted, and in a pass of their own
(`install(counts_only=True)`): there are millions of them, and even a
counter on each would inflate the self time of the layers that call them.
Every wrapper is removed again by `uninstall`.

A span is (id, parent id, name, start, end), kept in memory.  The benchmark
opens one root span per timed section (one per request on `decode`), so
every span of one request shares the root's id as its ancestor.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from common import count_subsets

LAYERS = (
    "gf", "codes", "inner", "arld", "graphs", "ael", "outer", "listdec",
    "rounding", "io", "cli",
)

# Methods that get a span besides module-level functions and constructors.
SPAN_METHODS = {
    ("codes", "LinearCode"): ("contains",),
    ("ael", "AELCode"): ("encode", "enumerate_codewords"),
}
# Methods that are only counted.
COUNT_METHODS = {("gf", "Field"): ("mul", "add", "inv")}

CLI_STEPS = (
    "build-graph", "build-outer", "build-ael", "encode", "corrupt", "decode",
    "list-decode", "verify-amplification", "verify-singleton", "verify-eml",
    "report",
)


def _hook_sweep(tr, sid, args, result):
    tr.counters["arld.subsets_covered"] += count_subsets(args["sym"].shape[0], args["k"])


def _hook_pairs(tr, sid, args, result):
    tr.counters["ael.pairs_checked"] += result["pairs_checked"]


def _hook_inequalities(tr, sid, args, result):
    tr.counters["listdec.inequalities_checked"] += result["inequalities_checked"]


def _hook_graph(tr, sid, args, result):
    tr.tags[sid] = f"n{args['n']}"


def _hook_thresholds(tr, sid, args, result):
    tr.counters["rounding.thresholds_tried"] += len(result)


def _hook_recovered(tr, sid, args, result):
    tr.counters["rounding.recovered"] += result is not None


def _hook_rs_useful(tr, sid, args, result):
    tr.counters["outer.rs_useful"] += result is not None


def _hook_bytes(tr, sid, args, result):
    tr.counters["io.bytes_written"] += os.path.getsize(args["path"])


def _hook_cli(tr, sid, args, result):
    tr.tags[sid] = args["argv"][0]


# Work counters read from the arguments or the result of a call.
HOOKS = {
    "arld.min_disagreement_by_size": _hook_sweep,
    "ael.verify_distance_amplification": _hook_pairs,
    "listdec.verify_common_error_bound": _hook_inequalities,
    "graphs.random_regular_bipartite": _hook_graph,
    "rounding.threshold_endpoints": _hook_thresholds,
    "rounding.decode_from_distributions": _hook_recovered,
    "outer.rs_unique_decode": _hook_rs_useful,
    "io.save_artifact": _hook_bytes,
    "cli.main": _hook_cli,
}


def _layer_of(obj) -> str | None:
    parts = getattr(obj, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "aelcert" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.sid = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, str] = {}
        self.counters: Counter = Counter()
        self.known: set[str] = set()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name_id, t0, t1):
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.name_id.append(name_id)
            self.start.append(t0)
            self.end.append(t1)

    @contextmanager
    def root(self, name: str):
        """A root span opened by the benchmark; records only inside roots."""
        name_id = self._intern(f"bench.{name}")
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self.enabled = True
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self.enabled = False
            stack.pop()
            self._record(sid, -1, name_id, t0, t1)

    def _span_wrapper(self, fn, name: str):
        name_id = self._intern(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, parent, name_id, t0, t1)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, sid, bound.arguments, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self, aelcert, counts_only: bool = False) -> None:
        namespaces = [aelcert] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("aelcert.") and mod is not None
        ]
        wrappers: dict = {}
        classes_done: set = set()
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                if inspect.isfunction(obj) and not counts_only:
                    if obj not in wrappers:
                        name = f"{layer}.{obj.__qualname__}"
                        wrappers[obj] = self._span_wrapper(obj, name)
                        self.known.add(name)
                    self._patch(ns, attr, obj, wrappers[obj])
                elif inspect.isclass(obj) and obj not in classes_done:
                    classes_done.add(obj)
                    self._wrap_class(layer, obj, counts_only)

    def _wrap_class(self, layer: str, cls, counts_only: bool) -> None:
        spans = () if counts_only else ("__init__",) + SPAN_METHODS.get((layer, cls.__name__), ())
        counts = COUNT_METHODS.get((layer, cls.__name__), ()) if counts_only else ()
        for attr in spans + counts:
            fn = cls.__dict__.get(attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            wrap = self._count_wrapper if attr in counts else self._span_wrapper
            self._patch(cls, attr, fn, wrap(fn, name))
            self.known.add(name)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading the trace ---------------------------------------------------

    def aggregate(self) -> "Aggregate":
        return Aggregate(self)


class Aggregate:
    """Inclusive and self times by span name and by layer, from one trace."""

    def __init__(self, tr: Tracer):
        n = len(tr.sid)
        index = {tr.sid[i]: i for i in range(n)}
        child_time = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child_time[index[p]] += tr.end[i] - tr.start[i]
        self.spans = n
        self.incl: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl_by_tag: defaultdict = defaultdict(float)
        self.calls_under: Counter = Counter()  # (parent name, name) -> calls
        self.self_by_name: defaultdict = defaultdict(float)
        self.self_by_layer: defaultdict = defaultdict(float)
        self.io_save_s = 0.0
        self.roots_s = 0.0
        self.counters = Counter(tr.counters)
        self.known = set(tr.known)
        for i in range(n):
            name = tr.names[tr.name_id[i]]
            layer = name.split(".", 1)[0]
            dur = tr.end[i] - tr.start[i]
            self.incl[name] += dur
            self.calls[name] += 1
            self.self_by_name[name] += dur - child_time[i]
            self.self_by_layer[layer] += dur - child_time[i]
            tag = tr.tags.get(tr.sid[i])
            if tag is not None:
                self.incl_by_tag[(name, tag)] += dur
            p = tr.parent[i]
            parent_name = tr.names[tr.name_id[index[p]]] if p >= 0 else None
            if parent_name is None:
                self.roots_s += dur
            else:
                self.calls_under[(parent_name, name)] += 1
            if name.startswith("io.save_") and not (parent_name or "").startswith("io."):
                self.io_save_s += dur


def _ratio(num, den) -> float:
    return num / den if den else 0.0


SWEEP = "arld.min_disagreement_by_size"
SEARCH = "inner.search_inner_code"
SLACK = "inner.min_arld_slack"
SINGLETON = "listdec.verify_generalized_singleton"
COMMON = "listdec.verify_common_error_bound"
AMPLIFY = "ael.verify_distance_amplification"
GRAPH = "graphs.random_regular_bipartite"
DECODE = "rounding.decode_from_distributions"
RS = "outer.rs_unique_decode"
CONTAINS = "codes.LinearCode.contains"


def _span_metric(name, unit, better, requires, value):
    return {"name": name, "unit": unit, "better": better,
            "requires": requires, "value": value}


def _extra(name, unit, better):
    """A per-layer metric the workload measures itself, outside the trace."""
    return {"name": name, "unit": unit, "better": better, "requires": None,
            "value": None}


PER_LAYER = [
    _span_metric("arld.sweep_s", "s", "lower", (SWEEP,), lambda a: a.incl[SWEEP]),
    _span_metric("arld.subsets_covered", "count", "higher", (SWEEP,),
                 lambda a: a.counters["arld.subsets_covered"]),
    _span_metric("arld.subsets_per_s", "1/s", "higher", (SWEEP,),
                 lambda a: _ratio(a.counters["arld.subsets_covered"], a.incl[SWEEP])),
    _extra("arld.m3_s", "s", "lower"),
    _extra("arld.m4_s", "s", "lower"),
    _extra("arld.m5_s", "s", "lower"),
    _extra("arld.thread_speedup", "ratio", "higher"),
    _extra("arld.witness_thread_mismatches", "count", "lower"),
    _span_metric("inner.search_inner_code_s", "s", "lower", (SEARCH,),
                 lambda a: a.incl[SEARCH]),
    _span_metric("inner.search_tries", "count", "lower", (SEARCH, SLACK),
                 lambda a: a.calls_under[(SEARCH, SLACK)]),
    _span_metric("inner.min_arld_slack_s", "s", "lower", (SLACK,),
                 lambda a: a.incl[SLACK]),
    _span_metric("listdec.verify_generalized_singleton_self_s", "s", "lower",
                 (SINGLETON,), lambda a: a.self_by_name[SINGLETON]),
    _span_metric("listdec.verify_common_error_bound_s", "s", "lower", (COMMON,),
                 lambda a: a.incl[COMMON]),
    _span_metric("listdec.inequalities_checked", "count", "higher", (COMMON,),
                 lambda a: a.counters["listdec.inequalities_checked"]),
    _span_metric("listdec.brute_force_list_s", "s", "lower",
                 ("listdec.brute_force_list",),
                 lambda a: a.incl["listdec.brute_force_list"]),
    _span_metric("ael.verify_distance_amplification_s", "s", "lower", (AMPLIFY,),
                 lambda a: a.incl[AMPLIFY]),
    _span_metric("ael.pairs_checked", "count", "higher", (AMPLIFY,),
                 lambda a: a.counters["ael.pairs_checked"]),
    _span_metric("ael.pairs_per_s", "1/s", "higher", (AMPLIFY,),
                 lambda a: _ratio(a.counters["ael.pairs_checked"], a.incl[AMPLIFY])),
    _span_metric("ael.enumerate_codewords_s", "s", "lower",
                 ("ael.AELCode.enumerate_codewords",),
                 lambda a: a.incl["ael.AELCode.enumerate_codewords"]),
    _span_metric("ael.encode_calls", "count", "lower", ("ael.AELCode.encode",),
                 lambda a: a.calls["ael.AELCode.encode"]),
    _span_metric("graphs.build_n64_s", "s", "lower", (GRAPH,),
                 lambda a: a.incl_by_tag[(GRAPH, "n64")]),
    _span_metric("graphs.build_n600_s", "s", "lower", (GRAPH,),
                 lambda a: a.incl_by_tag[(GRAPH, "n600")]),
    _span_metric("graphs.graph_constructions", "count", "lower",
                 ("graphs.second_singular_value",),
                 lambda a: a.calls["graphs.second_singular_value"]),
    _span_metric("graphs.verify_eml_s", "s", "lower", ("graphs.verify_eml",),
                 lambda a: a.incl["graphs.verify_eml"]),
    _span_metric("graphs.verify_eml_sets_s", "s", "lower", ("graphs.verify_eml_sets",),
                 lambda a: a.incl["graphs.verify_eml_sets"]),
    _span_metric("graphs.eml_checks", "count", "higher",
                 ("graphs.verify_eml", "graphs.verify_eml_sets"),
                 lambda a: a.calls["graphs.verify_eml"] + a.calls["graphs.verify_eml_sets"]),
    _span_metric("rounding.decode_from_distributions_s", "s", "lower", (DECODE,),
                 lambda a: a.incl[DECODE]),
    _span_metric("rounding.local_views_to_distributions_s", "s", "lower",
                 ("rounding.local_views_to_distributions",),
                 lambda a: a.incl["rounding.local_views_to_distributions"]),
    _span_metric("rounding.thresholds_tried", "count", "lower",
                 ("rounding.threshold_endpoints",),
                 lambda a: a.counters["rounding.thresholds_tried"]),
    _span_metric("rounding.recovered_frac", "ratio", "higher", (DECODE,),
                 lambda a: _ratio(a.counters["rounding.recovered"], a.calls[DECODE])),
    _span_metric("outer.rs_unique_decode_s", "s", "lower", (RS,), lambda a: a.incl[RS]),
    _span_metric("outer.rs_unique_decode_calls", "count", "lower", (RS,),
                 lambda a: a.calls[RS]),
    _span_metric("outer.rs_useful_frac", "ratio", "higher", (RS,),
                 lambda a: _ratio(a.counters["outer.rs_useful"], a.calls[RS])),
    _span_metric("codes.contains_calls", "count", "lower", (CONTAINS,),
                 lambda a: a.calls[CONTAINS]),
    _span_metric("codes.contains_s", "s", "lower", (CONTAINS,), lambda a: a.incl[CONTAINS]),
    _span_metric("gf.mul_calls", "count", "lower", ("gf.Field.mul",),
                 lambda a: a.counters["gf.Field.mul"]),
    _span_metric("gf.add_calls", "count", "lower", ("gf.Field.add",),
                 lambda a: a.counters["gf.Field.add"]),
    _span_metric("gf.inv_calls", "count", "lower", ("gf.Field.inv",),
                 lambda a: a.counters["gf.Field.inv"]),
    _span_metric("io.save_s", "s", "lower", ("io.save_artifact",), lambda a: a.io_save_s),
    _span_metric("io.bytes_written", "B", "lower", ("io.save_artifact",),
                 lambda a: a.counters["io.bytes_written"]),
    _span_metric("io.load_bundle_s", "s", "lower", ("io.load_bundle",),
                 lambda a: a.incl["io.load_bundle"]),
    _span_metric("io.load_bundle_calls", "count", "lower", ("io.load_bundle",),
                 lambda a: a.calls["io.load_bundle"]),
    *[
        _span_metric(f"cli.{step.replace('-', '_')}_s", "s", "lower", ("cli.main",),
                     lambda a, step=step: a.incl_by_tag[("cli.main", step)])
        for step in CLI_STEPS
    ],
    *[
        _span_metric(f"{layer}.self_s", "s", "lower", (f"{layer}.",),
                     lambda a, layer=layer: a.self_by_layer[layer])
        for layer in LAYERS
    ],
    _span_metric("trace.unattributed_s", "s", "lower", (),
                 lambda a: a.self_by_layer["bench"]),
    _span_metric("trace.spans", "count", "lower", (), lambda a: a.spans),
    _extra("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(agg: Aggregate | None, extras: dict, absent_extras=()):
    """Every per-layer metric, and the names of those that are absent.

    A metric is absent when a function it wraps no longer exists (a name in
    `requires` ending in "." stands for any function of that layer), or when
    the workload reports one of its own measurements absent.  An absent
    metric reads 0, as does one the workload does not exercise.
    """
    values, absent = {}, []
    for m in PER_LAYER:
        name = m["name"]
        if m["requires"] is None:
            present = name not in absent_extras
            value = extras.get(name, 0.0) if present else 0.0
        else:
            present = agg is not None and all(
                any(k.startswith(r) for k in agg.known) if r.endswith(".")
                else r in agg.known
                for r in m["requires"]
            )
            value = m["value"](agg) if present else 0.0
        if not present:
            absent.append(name)
        values[name] = {"value": value, "unit": m["unit"]}
    return values, absent
