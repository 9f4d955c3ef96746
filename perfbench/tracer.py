"""Span recorder for the traced benchmark run.

The recorder wraps public functions of `dyadlab` from outside the package:
module-level functions are replaced at every module attribute that is bound
to them (so `estimates.operator_norm` and `shifts.operator_norm` are both
wrapped), methods are replaced on their class.  Each call records one span
(name, start, end, parent span, item id) in memory; `install` returns a
handle whose `uninstall` restores every original.

Spans of one benchmark item share the item id.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
from collections import defaultdict
from statistics import mean
from time import perf_counter

# spans grouped into the grid.level_ops metrics
LEVEL_OPS = ("grid.pool", "grid.expand", "grid.subcell_matrix",
             "grid.scatter_subcells", "grid.ancestor_map")
CLI_COMMANDS = ("char", "norm", "cz", "corona", "test-conditions", "lemmas", "sweep")

# (module, attribute) of every wrapped module-level function
FUNCTIONS = [
    ("grid", "integral_pyramid"),
    ("grid", "pool"),
    ("grid", "expand"),
    ("grid", "subcell_matrix"),
    ("grid", "scatter_subcells"),
    ("grid", "ancestor_map"),
    ("weights", "random_a2_weight"),
    ("weights", "ap_characteristic"),
    ("shifts", "dense_matrix"),
    ("shifts", "operator_norm"),
    ("shifts", "random_simple_shift"),
    ("corona", "build_corona"),
    ("corona", "packing_check"),
    ("corona", "carleson_check"),
    ("corona", "qn_partition"),
    ("estimates", "testing_constants"),
    ("estimates", "h_functional"),
    ("estimates", "bold_h"),
    ("estimates", "corona_ab_split"),
    ("estimates", "essence_check"),
    ("estimates", "jn_check"),
    ("estimates", "paraproduct_identity"),
    ("estimates", "weak_boundedness_from_t1_check"),
    ("experiments", "run_sweep"),
    ("experiments", "jn_boundary_family"),
    ("serialize", "dumps_json"),
    ("serialize", "save_grid_function"),
    ("serialize", "load_grid_function"),
    ("serialize", "save_weight"),
    ("serialize", "load_weight"),
    ("serialize", "save_shift"),
    ("serialize", "load_shift"),
    ("cli", "main"),
    ("cli", "_emit"),
] + [("cli", "cmd_" + c.replace("-", "_")) for c in CLI_COMMANDS]

# (module, class, method) of every wrapped method
METHODS = [
    ("shifts", "SimpleHaarShift", "apply_values"),
    ("shifts", "GenericHaarShift", "apply_values"),
    ("corona", "CoronaDecomposition", "export"),
]


def _nbytes(obj) -> int:
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    return int(getattr(obj, "nbytes", 0))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _header_and_payload_bytes(header_path) -> int:
    """Size of a serialized header plus the payload file it names."""
    try:
        with open(header_path, "r", encoding="utf-8") as fh:
            data = json.load(fh).get("data")
    except (OSError, ValueError, AttributeError):
        data = None
    payload = (_file_size(os.path.join(os.path.dirname(header_path) or ".", data))
               if isinstance(data, str) else 0)
    return _file_size(header_path) + payload


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.enabled = False
        self.item = -1
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.items: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.cascade_keys: dict[int, list] = defaultdict(list)
        # operator_norm calls of the current item, to count repeats
        self.norm_item = None
        self.norm_seen: set = set()
        self.norm_args: list = []

    # -- span bookkeeping ---------------------------------------------------
    def open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self.stack.append(k)
        self.start.append(perf_counter())
        return k

    def close(self, k: int):
        self.end[k] = perf_counter()
        self.stack.pop()

    def span_count(self) -> int:
        return len(self.names)

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for k, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[k] - self.start[k]
        return out

    def write_jsonl(self, path: str):
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": self.start[k], "end": self.end[k],
                    "parent": self.parent[k], "item": self.items[k],
                }, separators=(",", ":")) + "\n")


def _wrap(rec: Recorder, name, fn, after=None):
    """Span around fn; `after(args, kwargs, result)` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        k = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(k)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _counter_hooks(rec: Recorder):
    """Per-function counters taken at the wrapped boundary: a dict of
    function name -> hook, and the hook for `apply_values`."""
    c = rec.counts

    def grid_bytes(args, kwargs, result):
        c["grid.bytes_computed"] += _nbytes(args[0]) + _nbytes(result)

    def ancestor_bytes(args, kwargs, result):
        c["grid.bytes_computed"] += _nbytes(result)

    def apply_columns(args, kwargs, result):
        values = args[1] if len(args) > 1 else kwargs["values"]
        c["shifts.apply_values.columns"] += 1 if values.ndim == 1 else values.shape[1]

    def cascade_key(args, kwargs, result):
        grid = _arg(args, kwargs, 2, "grid")
        key = (float(_arg(args, kwargs, 0, "n")), int(_arg(args, kwargs, 1, "seed")),
               grid.d, grid.N)
        rec.cascade_keys[rec.item].append(key)

    def stopping(args, kwargs, result):
        c["corona.stopping_cubes"] += result.stopping.count()

    def bytes_written(args, kwargs, result):
        c["serialize.bytes_written"] += _header_and_payload_bytes(result)

    def bytes_read(args, kwargs, result):
        c["serialize.bytes_read"] += _header_and_payload_bytes(_arg(args, kwargs, 0, "header_path"))

    def header_bytes(args, kwargs, result):
        # load_weight reads its header once more on top of load_grid_function
        c["serialize.bytes_read"] += _file_size(_arg(args, kwargs, 0, "header_path"))

    after = {name: grid_bytes for name in ("integral_pyramid", "pool", "expand",
                                           "subcell_matrix", "scatter_subcells")}
    after.update({
        "ancestor_map": ancestor_bytes,
        "random_a2_weight": cascade_key,
        "build_corona": stopping,
        "save_grid_function": bytes_written,
        "save_shift": bytes_written,
        "load_grid_function": bytes_read,
        "load_weight": header_bytes,
        "load_shift": bytes_read,
    })
    return after, apply_columns


class Installed:
    """Handle of an installed recorder; `uninstall` restores the originals."""

    def __init__(self, rec: Recorder, restore):
        self.rec = rec
        self._restore = restore

    def uninstall(self):
        self.rec.enabled = False
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []


def install(rec: Recorder) -> Installed:
    """Wrap every function in FUNCTIONS and METHODS.  Spans record only while
    `rec.enabled` is true, which the caller sets around the traced work."""
    import dyadlab

    modules = {m: importlib.import_module(f"dyadlab.{m}") for m in
               ("grid", "weights", "shifts", "corona", "estimates",
                "experiments", "serialize", "cli", "calibration")}
    namespaces = [dyadlab] + list(modules.values())
    after, apply_columns = _counter_hooks(rec)
    OperatorNormError = modules["shifts"].OperatorNormError
    restore = []

    for mod_name, attr in FUNCTIONS:
        original = getattr(modules[mod_name], attr)
        if attr == "_emit":
            span = "cli.emit"
        elif attr.startswith("cmd_"):
            span = "cli." + attr[4:].replace("_", "-")
        else:
            span = f"{mod_name}.{attr}"
        if attr == "operator_norm":
            wrapped = _norm_wrapper(rec, original, OperatorNormError)
        else:
            wrapped = _wrap(rec, span, original, after=after.get(attr))
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    restore.append((ns, name, original))
                    setattr(ns, name, wrapped)

    for mod_name, cls_name, meth in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        original = cls.__dict__[meth]
        span = f"{mod_name}.{meth}"
        hook = apply_columns if meth == "apply_values" else None
        restore.append((cls, meth, original))
        setattr(cls, meth, _wrap(rec, span, original, after=hook))

    return Installed(rec, restore)


def _norm_wrapper(rec: Recorder, original, OperatorNormError):
    """operator_norm span named by method (`auto` resolved as the program
    resolves it), with repeat and failure counters."""

    def name_of(args, kwargs):
        method = _arg(args, kwargs, 3, "method", "power-iteration")
        if method == "auto":
            method = "dense-svd" if args[0].grid.cell_count <= 4096 else "power-iteration"
        return "shifts.operator_norm." + ("dense" if method == "dense-svd" else "power")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return original(*args, **kwargs)
        name = name_of(args, kwargs)
        if rec.item != rec.norm_item:
            rec.norm_item, rec.norm_seen, rec.norm_args = rec.item, set(), []
        T, sigma, mu = args[0], _arg(args, kwargs, 1, "sigma"), _arg(args, kwargs, 2, "mu")
        key = (id(T), id(sigma), id(mu), name)
        rec.counts["norm.calls"] += 1
        rec.counts["norm.repeats"] += key in rec.norm_seen
        rec.norm_seen.add(key)
        rec.norm_args.append((T, sigma, mu))   # keeps the ids unique within the item
        k = rec.open(name)
        try:
            return original(*args, **kwargs)
        except OperatorNormError:
            rec.counts["shifts.norm_failures"] += 1
            raise
        finally:
            rec.close(k)

    return wrapper


# ---------------------------------------------------------------------------
# per-module report
# ---------------------------------------------------------------------------

# metric -> unit, in report order.  "<span>.calls" and "<span>.self_s" are
# per-pass call counts and self times of a span (or span group),
# "cli.<command>.s" the per-pass inclusive time of a command.
PER_LAYER = {
    "grid.integral_pyramid.calls": "count",
    "grid.integral_pyramid.self_s": "s",
    "grid.level_ops.calls": "count",
    "grid.level_ops.self_s": "s",
    "grid.bytes_computed": "B",
    "weights.random_a2_weight.calls": "count",
    "weights.random_a2_weight.self_s": "s",
    "weights.ap_characteristic.calls": "count",
    "weights.cascade_distinct_frac": "ratio",
    "shifts.apply_values.calls": "count",
    "shifts.apply_values.columns": "count",
    "shifts.apply_values.self_s": "s",
    "shifts.dense_matrix.self_s": "s",
    "shifts.operator_norm.dense.calls": "count",
    "shifts.operator_norm.dense.self_s": "s",
    "shifts.operator_norm.power.calls": "count",
    "shifts.operator_norm.power.self_s": "s",
    "shifts.power_iters.mean": "count",
    "shifts.power_iters.max": "count",
    "shifts.operator_norm.repeat_frac": "ratio",
    "shifts.norm_failures": "count",
    "shifts.random_simple_shift.self_s": "s",
    "corona.build_corona.calls": "count",
    "corona.build_corona.self_s": "s",
    "corona.packing_check.self_s": "s",
    "corona.carleson_check.self_s": "s",
    "corona.qn_partition.self_s": "s",
    "corona.export.self_s": "s",
    "corona.stopping_cubes": "count",
    "estimates.testing_constants.calls": "count",
    "estimates.testing_constants.self_s": "s",
    "estimates.h_functional.self_s": "s",
    "estimates.bold_h.self_s": "s",
    "estimates.corona_ab_split.self_s": "s",
    "estimates.essence_check.self_s": "s",
    "estimates.jn_check.self_s": "s",
    "estimates.paraproduct_identity.self_s": "s",
    "estimates.weak_boundedness_from_t1_check.self_s": "s",
    "experiments.run_sweep.self_s": "s",
    "experiments.jn_boundary_family.self_s": "s",
    "serialize.bytes_written": "B",
    "serialize.bytes_read": "B",
    "serialize.self_s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "bench.cpu_s": "s",
    "bench.spans": "count",
    "bench.trace_overhead_s": "s",
}

# metrics counted by the hooks rather than derived from spans
COUNTERS = ("grid.bytes_computed", "shifts.apply_values.columns", "shifts.norm_failures",
            "corona.stopping_cubes", "serialize.bytes_written", "serialize.bytes_read")

# item ids are pass * ITEMS_STRIDE + item index
ITEMS_STRIDE = 1 << 20


def layer_metrics(rec: Recorder, passes: int, cpu_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Per-pass module metrics from the spans of `passes` traced passes;
    `cpu_s` is the untraced CPU time per pass, `overhead_s` the tracing
    overhead per pass."""
    selfs = rec.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    power_children: dict[int, int] = {}
    for k, name in enumerate(rec.names):
        group = "grid.level_ops" if name in LEVEL_OPS else name
        calls[group] += 1
        self_s[group] += selfs[k]
        incl_s[group] += rec.end[k] - rec.start[k]
        if name == "shifts.operator_norm.power":
            power_children[k] = 0
        elif name == "shifts.apply_values" and rec.parent[k] in power_children:
            power_children[rec.parent[k]] += 1

    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in COUNTERS:
            out[metric] = rec.counts[metric] / passes
        elif field == "calls":
            out[metric] = calls[span] / passes
        elif field == "self_s":
            out[metric] = self_s[span] / passes
        elif field == "s":
            out[metric] = incl_s[span] / passes

    out["serialize.self_s"] = sum(v for k, v in self_s.items()
                                  if k.startswith("serialize.")) / passes
    # argument parsing and dispatch in main, plus JSON emission
    out["cli.self_s"] = (self_s["cli.main"] + self_s["cli.emit"]) / passes

    # power iterations: apply_values calls inside a power-method span, halved
    iters = [n / 2 for n in power_children.values()]
    out["shifts.power_iters.mean"] = mean(iters) if iters else 0.0
    out["shifts.power_iters.max"] = max(iters) if iters else 0.0

    # a repeat is an identical (shift, weights, method) call within one item
    calls_n = rec.counts["norm.calls"]
    out["shifts.operator_norm.repeat_frac"] = (rec.counts["norm.repeats"] / calls_n
                                               if calls_n else 0.0)

    # distinct (n, seed, d, N) cascade requests within a pass over calls
    per_pass: dict[int, set] = defaultdict(set)
    for item, keys in rec.cascade_keys.items():
        per_pass[item // ITEMS_STRIDE].update(keys)
    cascade_calls = sum(len(v) for v in rec.cascade_keys.values())
    out["weights.cascade_distinct_frac"] = (sum(len(v) for v in per_pass.values())
                                            / cascade_calls if cascade_calls else 0.0)

    out["bench.cpu_s"] = cpu_s
    out["bench.spans"] = rec.span_count() / passes
    out["bench.trace_overhead_s"] = overhead_s
    return out
