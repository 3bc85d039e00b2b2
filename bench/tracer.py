"""Span tracer that wraps fluctforce's public functions from outside.

A span is (id, parent, name, start, end, thread).  Ids are taken on
entry, so a parent's id is always smaller than its children's.  The
tracer patches every binding of each layer's public functions: the
module attributes, names other modules imported with `from .x import
y`, and functions captured at import time in module-level dicts (such
as the circuit regime dispatch table).  Nothing in `src/` changes.

Spans of a thread-pool worker have no open span in their own thread;
they are parented to the innermost open span of the main thread, which
is the `cli.main` call that is waiting for them.  A span's self time is
its duration minus the union of its children's intervals, so children
that overlap in two threads are not subtracted twice.

Spans are kept in memory and reduced between benchmark operations,
outside the timed calls, so memory stays bounded by one operation's
spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "circuits", "forces", "specfun", "oscillator", "matsubara",
          "validation")

#: calls that build a model from config data; ideally once per sweep.
MODEL_BUILDS = frozenset({"oscillator.power_law", "circuits.map_series",
                          "circuits.map_parallel", "circuits.SeriesRLC.of",
                          "circuits.ParallelRLC.of"})
#: oracles that sum Matsubara terms and report n_used.
ORACLES = frozenset({"matsubara.force_sum_exact",
                     "matsubara.free_energy_difference",
                     "matsubara.free_energy_drude",
                     "matsubara.per_parameter_sums_drude"})
#: the row builders of the CLI, called in worker threads when workers > 1.
CLI_ROW = "cli.row"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: duration minus its children's union.

    spans is an iterable of (id, parent, name, start, end, thread); a
    parent of -1, or one not among the spans, marks a root.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
            for sid, _, _, t0, t1, _ in spans}


class Aggregate:
    """Per-name and per-layer totals accumulated over reduced spans."""

    def __init__(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dur_s = defaultdict(float)
        self.outer_count = defaultdict(int)   # spans with no same-layer ancestor
        self.layer_self_s = defaultdict(float)
        self.digamma_under = defaultdict(int)  # by nearest forces ancestor
        self.builds_under_cli = 0
        self.spans = 0


class Tracer:
    def __init__(self, modules: dict, package):
        """modules maps layer name to module; package is the top package."""
        self.modules = modules
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._tids: dict[int, int] = {}
        self._buf: list[tuple] = []
        self._patches: list[tuple] = []
        self._lock = threading.Lock()
        self.agg = Aggregate()
        self.terms = 0
        self.capped = 0
        self.hard_cap = modules["matsubara"].SumSpec().hard_cap
        self.reports: dict[str, tuple[float, float, str]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            ident = threading.get_ident()
            stack = self._main_stack if ident == self._main_ident else []
            self._local.stack = stack
            with self._lock:
                self._local.tid = self._tids.setdefault(ident, len(self._tids))
            return stack

    def _wrap(self, fn, name: str, layer: str, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        ids, buf, clock, main_stack = self._ids, self._buf, time.perf_counter, \
            self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.append((sid, parent, name_id, t0, t1, self._local.tid))
            if hook is not None:
                hook(result)
            return result

        return traced

    def _oracle_hook(self, result) -> None:
        parts = (result.f_omega, result.f_gamma0, result.f_omega_d_1,
                 result.f_omega_d_2) if hasattr(result, "f_omega") \
            else (result,)
        with self._lock:
            for part in parts:
                self.terms += part.n_used
                self.capped += part.n_used >= self.hard_cap

    def _report_hook(self, span_name: str, report) -> None:
        self.reports[report.name] = (report.worst, report.tolerance,
                                     span_name)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = self._oracle_hook if name in ORACLES else (
                    functools.partial(self._report_hook, name)
                    if layer == "validation" and attr.startswith("criterion_")
                    else None)
                wrapped[id(obj)] = (obj, self._wrap(obj, name, layer, hook))
        circuits = self.modules["circuits"]
        for cls_name in ("SeriesRLC", "ParallelRLC"):
            cls = getattr(circuits, cls_name)
            original = cls.__dict__["of"]
            traced = self._wrap(original.__func__, f"circuits.{cls_name}.of",
                                "circuits")
            self._set(cls, "of", classmethod(traced), original)
        builders = getattr(self.modules["cli"], "_ROW_BUILDERS", {})
        for key, fn in list(builders.items()):
            self._set_item(builders, key, self._wrap(fn, CLI_ROW, "cli"))

        owners = [self.package] + [self.modules[layer] for layer in LAYERS]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(owner, attr, hit[1], val)
                elif isinstance(val, dict) and attr.startswith("_"):
                    for key, item in list(val.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set_item(val, key, hit[1])

    def _set(self, owner, attr, new, old) -> None:
        self._patches.append(("attr", owner, attr, old))
        setattr(owner, attr, new)

    def _set_item(self, table, key, new) -> None:
        self._patches.append(("item", table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        for kind, owner, key, old in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, old)
            else:
                owner[key] = old
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> None:
        """Fold the recorded spans into the aggregate and drop them.

        Call only when no traced call is running."""
        spans = sorted(self._buf)
        self._buf.clear()
        agg = self.agg
        selfs = self_times(spans)
        layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        ctx: dict[int, tuple[int, int, bool]] = {}
        for sid, parent, name_id, t0, t1, _ in spans:
            name = self.names[name_id]
            layer = self.layer_of[name_id]
            mask, near_forces, under_cli = ctx.get(parent, (0, -1, False))
            bit = layer_bit[layer]
            agg.count[name] += 1
            agg.self_s[name] += selfs[sid]
            agg.dur_s[name] += t1 - t0
            agg.layer_self_s[layer] += selfs[sid]
            if not mask & bit:
                agg.outer_count[layer] += 1
            if name == "specfun.digamma" and near_forces >= 0:
                agg.digamma_under[self.names[near_forces]] += 1
            if under_cli and name in MODEL_BUILDS:
                agg.builds_under_cli += 1
            ctx[sid] = (mask | bit,
                        name_id if layer == "forces" else near_forces,
                        under_cli or layer == "cli")
        agg.spans += len(spans)
