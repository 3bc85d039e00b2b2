"""fluctforce benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep-closed --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark imports fluctforce from
`src/` and drives it through its public entry points: `cli.main`
in-process (`sweep` and `validate`) and the library functions.  Inputs
come from the seed; outputs are checked against the library's own
oracles outside the timed region.  The last line of standard output is
a JSON object {"correct", "attempted", "failed", "metrics"}: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  The lines before it record the environment,
the seed's input mix and a readable summary.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as wl
from pace import Pace
from gate import check_oracle_sweep, check_sweep, check_validate
from points import build_calls, check_calls
from stats import summarize
from tracer import LAYERS, ORACLES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh-interpreter imports for setup_s, taken before and again after
#: the timed window so that one slow stretch of the machine does not set
#: the whole sample; one warm-up import writes the bytecode cache first.
SETUP_REPEATS = 6
#: the modules from outside the package that fluctforce.cli imports: the
#: reference import that each setup_s import is paired with.
SETUP_REFERENCE = "numpy, argparse, concurrent.futures, dataclasses, json"
#: the reference import's time on the reference machine; only a scale.
SETUP_REFERENCE_S = 0.1
SETUP_TIMEOUT_S = 60
#: share of a traced run measured untraced first, for the overhead.
UNTRACED_SHARE = 0.25
#: wall and CPU time samples kept per run; the buffers are allocated
#: before timing so their memory does not depend on how many calls
#: complete.
LATENCY_SLOTS = 1 << 21
#: passes over the point-call plan per cycle (about 0.4 s of calls, so
#: that the host's steal, counted in 10 ms ticks, is resolved per cycle).
POINTS_CYCLE_PASSES = 40
#: distinct suite orders drawn per seed for the validate workload.
VALIDATE_ORDERS = 64
#: reduce the points workload's spans after this many calls.
POINTS_REDUCE_EVERY = 4096
#: weight of the interpreted kernel in each workload's pace; the numpy
#: kernel has the rest.  Fitted to interleaved runs across the machine's
#: slow and fast stretches (see pace.py and bench/README.md).
INTERPRETED_WEIGHT = {"sweep-closed": 0.5, "sweep-oracle": 0.0,
                      "validate": 0.25, "points": 0.5}

CRITERIA = ("ohmic-oracle-equivalence", "sign-laws", "drude-finite-difference",
            "gamma-vs-product", "vieta-and-cubic-residuals", "zero-point-limit",
            "asymptotic-slopes", "critical-damping-continuity",
            "circuit-composition", "planar-relative-weights",
            "sphere-plate-relative-weights")


def _import_library():
    sys.path.insert(0, str(SRC))
    import fluctforce
    from fluctforce import (circuits, cli, forces, matsubara, oscillator,
                            specfun, validation)
    return fluctforce, types.SimpleNamespace(
        cli=cli, circuits=circuits, forces=forces, specfun=specfun,
        oscillator=oscillator, matsubara=matsubara, validation=validation)


def measure_setup(warm_up: bool) -> list[tuple[float, float]]:
    """(raw, scaled) seconds fresh interpreters take to import
    fluctforce.cli.  Each import is paired with the reference import in
    a fresh interpreter just before it, and scaled by
    SETUP_REFERENCE_S / reference seconds: a slow stretch of the machine
    slows both alike, and the reference is not the program's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def seconds(modules: str) -> float:
        code = ("import time; t = time.perf_counter(); "
                f"import {modules}; print(repr(time.perf_counter() - t))")
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        return float(out.stdout.strip().splitlines()[-1])

    times = []
    for i in range(SETUP_REPEATS + warm_up):
        reference = seconds(SETUP_REFERENCE)
        raw = seconds("fluctforce.cli")
        if i or not warm_up:
            times.append((raw, raw * SETUP_REFERENCE_S / reference))
    return times


def environment(nproc: int) -> dict:
    """Versions, CPU model and cache sizes, read from /proc and lscpu."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": nproc, "cpu_model": None, "l2": None, "l3": None}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        for line in out.splitlines():
            key, _, val = line.partition(":")
            if key.strip() == "L2 cache":
                env["l2"] = val.strip()
            elif key.strip() == "L3 cache":
                env["l3"] = val.strip()
    return env


class Window:
    """Wall and CPU times of the operations of one timed window, cut into
    cycles.

    Sample k of the window is operation (start + k) % ops, and belongs
    to cycle k // cycle_ops.  After each cycle, and once more when the
    window closes, the caller records the cycle's scale factors (see
    pace.py): wall times are scaled by pace and kept share, CPU times,
    which the host's steal does not lengthen, by pace alone.  Both
    statistics are medians: of the cycles' throughputs, and over the
    operations of each operation's median CPU time across its repeats.
    """

    def __init__(self, ops: int, cycle_ops: int, start: int = 0):
        self.lat = array("d", bytes(8 * LATENCY_SLOTS))
        self.cpu = array("d", bytes(8 * LATENCY_SLOTS))
        self.ops = ops
        self.cycle_ops = cycle_ops
        self.start = start
        self.cycles: list[float] = []   # raw work per second of each cycle
        # one per cycle, plus the last one
        self.scales: list[float] = []       # wall times
        self.cpu_scales: list[float] = []   # CPU times
        self.kernel_s: list[tuple[float, float]] = []   # (interpreted, numpy)
        self.failed: set[int] = set()   # samples whose operation failed
        self.n = 0
        self.busy = 0.0
        self.work = 0
        self._cycle = [0.0, 0]

    def add(self, seconds: float, cpu: float, work: int,
            ok: bool = True) -> bool:
        """Record one operation; True when it completed a cycle."""
        if not ok:
            self.failed.add(self.n)
            work = 0
        self.lat[self.n % LATENCY_SLOTS] = seconds
        self.cpu[self.n % LATENCY_SLOTS] = cpu
        self.n += 1
        self.busy += seconds
        self.work += work
        cycle = self._cycle
        cycle[0] += seconds
        cycle[1] += work
        if self.n % self.cycle_ops:
            return False
        self.cycles.append(cycle[1] / cycle[0])
        self._cycle = [0.0, 0]
        return True

    def record_scale(self, factors: tuple[float, float]) -> None:
        """Record a cycle's (CPU, wall) scale factors."""
        self.cpu_scales.append(factors[0])
        self.scales.append(factors[1])

    def samples(self) -> np.ndarray:
        return np.frombuffer(self.lat)[:min(self.n, LATENCY_SLOTS)]

    def work_per_s(self) -> float:
        """Median scaled throughput of the complete cycles; the whole
        window's when no cycle completed."""
        if self.cycles:
            return statistics.median(
                c / s for c, s in zip(self.cycles, self.scales))
        return self.work / self.busy / self.scales[-1]

    def _scaled(self, values: array, scales: list[float]):
        """(operation, scaled value) of each kept sample."""
        kept = np.frombuffer(values)[:min(self.n, LATENCY_SLOTS)]
        sample = self.n - 1 - (self.n - 1 - np.arange(len(kept))) \
            % LATENCY_SLOTS
        kept = kept * np.asarray(scales)[
            np.minimum(sample // self.cycle_ops, len(scales) - 1)]
        return (self.start + sample) % self.ops, kept

    def op_cpu(self) -> float:
        """Median over the operations of each operation's median scaled
        CPU time across its repeats."""
        op, cpu = self._scaled(self.cpu, self.cpu_scales)
        order = np.lexsort((cpu, op))
        _, first, counts = np.unique(op[order], return_index=True,
                                     return_counts=True)
        ordered = cpu[order]
        mid = ordered[first + (counts - 1) // 2]
        upper = ordered[first + counts // 2]
        return float(np.median((mid + upper) / 2.0))

    def time_by_op(self) -> np.ndarray:
        """Summed scaled wall time of each operation over the kept
        samples."""
        op, lat = self._scaled(self.lat, self.scales)
        return np.bincount(op, weights=lat, minlength=self.ops)


class SweepWorkload:
    """Closed-form or oracle `fluctforce sweep` invocations via cli.main."""

    def __init__(self, ff, name: str, configs: list[dict], nproc: int,
                 work: Path):
        self.ff, self.name, self.nproc = ff, name, nproc
        self.configs = configs
        self.argvs, self.outs = [], []
        for i, cfg in enumerate(self.configs):
            path = work / f"cfg{i}.json"
            program_cfg = wl.program_config(cfg)
            path.write_text(json.dumps(program_cfg), encoding="utf-8")
            out = work / f"out{i}.{cfg['output']['format']}"
            self.argvs.append(["sweep", "--config", str(path), "--out",
                               str(out)])
            self.outs.append(out)
        self.reference: list[bytes] = []
        self.bad: set[int] = set()
        self.errors: list[str] = []
        self.n_used: list[list[int]] = []

    def __len__(self):
        return len(self.configs)

    def op(self, i: int) -> tuple[bool, int]:
        rc = self.ff.cli.main(self.argvs[i])
        return rc == 0, self.configs[i]["sweep"]["points"]

    def reference_pass(self) -> None:
        for i in range(len(self)):
            ok, _ = self.op(i)
            self.reference.append(self.outs[i].read_bytes() if ok else b"")
            if not ok:
                self._fail(i, f"config {i}: sweep exit code was not 0")

    def _fail(self, i: int, msg: str) -> None:
        self.bad.add(i)
        self.errors.append(msg)

    def gate(self) -> None:
        for i, cfg in enumerate(self.configs):
            if i in self.bad:
                self.n_used.append([])
                continue
            text = self.reference[i].decode("utf-8")
            if self.name == "sweep-closed":
                last = cfg["sweep"]["points"] - 1
                errs = check_sweep(self.ff, cfg["kind"], cfg, text,
                                   (0, last // 2, last))
            else:
                errs, used = check_oracle_sweep(self.ff, cfg["kind"], cfg,
                                                text)
                self.n_used.append(used)
            for msg in errs:
                self._fail(i, f"config {i}: {msg}")
        self._check_workers()

    def _check_workers(self) -> None:
        """Byte-identical output of every sweep at the other worker
        count."""
        for i, cfg in enumerate(self.configs):
            if i in self.bad:
                continue
            other = 1 if cfg["workers"] > 1 else self.nproc
            rc = self.ff.cli.main(self.argvs[i] + ["--workers", str(other)])
            if rc != 0 or self.outs[i].read_bytes() != self.reference[i]:
                self._fail(i, f"config {i}: output differs at workers={other}")

    def check_repeat(self) -> None:
        for i in range(len(self)):
            if i not in self.bad and self.outs[i].read_bytes() != \
                    self.reference[i]:
                self._fail(i, f"config {i}: output differs on repeat")

    def time_share(self, win: Window) -> dict:
        """Share of the window's scaled time per mode/damping kind
        (sweep-closed) or per n_max class (sweep-oracle)."""
        key = "class" if self.name == "sweep-oracle" else "kind"
        by_op = win.time_by_op()
        shares = Counter()
        for cfg, seconds in zip(self.configs, by_op):
            shares[cfg[key]] += seconds / by_op.sum()
        return dict(sorted(shares.items()))

    def mix(self) -> dict:
        rows = sum(c["sweep"]["points"] for c in self.configs)
        drude = sum(c["sweep"]["points"] for c in self.configs
                    if c["kind"] == "osc-drude")
        out = {"sweeps": len(self), "rows": rows, "drude_share": drude / rows,
               "kinds": sorted({c["kind"] for c in self.configs})}
        if self.name == "sweep-closed":
            out["workers_share_nproc"] = sum(
                c["workers"] > 1 for c in self.configs) / len(self)
            out["json_share"] = sum(
                c["output"]["format"] == "json" for c in self.configs) / len(self)
        elif self.n_used:
            flat = [(n, c["oracle"]["n_max"])
                    for c, used in zip(self.configs, self.n_used) for n in used]
            out["auto_scaled_share"] = sum(n > base for n, base in flat) / len(flat)
            out["capped_rows"] = sum(n >= wl.HARD_CAP for n, _ in flat)
            out["terms_per_cycle"] = sum(n for n, _ in flat)
            chunk = getattr(self.ff.matsubara, "_CHUNK", None)
            if chunk:
                out["bytes_per_chunk"] = {
                    str(n): 8 * min(n // 2, chunk) for n in wl.ORACLE_N_MAX}
        return out


class ValidateWorkload:
    """Full passes of `fluctforce validate` over all five suites."""

    def __init__(self, ff, seed: int):
        self.ff = ff
        self.order = wl.validate_order(seed, VALIDATE_ORDERS)
        self.passes = 0
        self.reference: dict[str, list[str]] = {}
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def __len__(self):
        return 1   # every pass runs all suites; only the order differs

    def _suite(self, suite: str) -> tuple[int, list[str]]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ff.cli.main(["validate", "--suite", suite])
        return rc, buf.getvalue().splitlines()

    def op(self, _: int) -> tuple[bool, int]:
        ok = True
        for suite in self.order[self.passes % VALIDATE_ORDERS]:
            rc, lines = self._suite(suite)
            if rc != 0 or lines != self.reference[suite]:
                ok = False
                self.errors.append(f"pass {self.passes}: suite {suite} exit "
                                   f"{rc} or output differs from first pass")
        self.passes += 1
        return ok, 1

    def reference_pass(self) -> None:
        for suite in wl.VALIDATE_SUITES:
            rc, lines = self._suite(suite)
            self.reference[suite] = lines
            errs = check_validate(lines)
            if rc != 0 or errs:
                self.errors.extend(errs or [f"suite {suite}: exit code {rc}"])
                self.bad.add(0)

    def gate(self) -> None:
        pass

    def check_repeat(self) -> None:
        pass

    def mix(self) -> dict:
        return {"suites": list(wl.VALIDATE_SUITES),
                "first_order": self.order[0]}


class PointsWorkload:
    """Single-point library calls in a closed loop."""

    def __init__(self, ff, seed: int):
        self.ff = ff
        self.sets = wl.point_sets(seed)
        self.calls = build_calls(ff, self.sets)
        self.reference: list = []
        self.last: list = []
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def __len__(self):
        return len(self.calls)

    def rebind(self) -> None:
        """Rebuild the plan so it calls the currently bound functions."""
        self.calls = build_calls(self.ff, self.sets)

    def reference_pass(self) -> None:
        for call in self.calls:
            self.reference.append(call.fn(*call.args))
        self.last = list(self.reference)

    def gate(self) -> None:
        for j, msg in check_calls(self.calls, self.reference):
            self.errors.append(msg)
            self.bad.add(j)

    def check_repeat(self) -> None:
        for j, (a, b) in enumerate(zip(self.last, self.reference)):
            if a != b and j not in self.bad:
                self.bad.add(j)
                self.errors.append(f"{self.calls[j].name}: result differs "
                                   "on repeat")

    def mix(self) -> dict:
        return {"calls_per_cycle": len(self.calls),
                "parameter_sets": len(self.sets),
                "functions": len({c.name for c in self.calls}),
                "zero_temperature_sets": sum(
                    s["temperature"] == 0.0 for s in self.sets),
                "critical_sets": sum(s["damping"] == "critical"
                                     for s in self.sets)}


def run_window(workload, seconds: float, weight: float, start: int = 0,
               tracer: Tracer | None = None):
    """Cycle through the workload's operations for `seconds`.

    Returns (window, executed operation indices, wall seconds, CPU
    seconds).  Span reduction, when tracing, happens between operations
    and is not part of any timed operation."""
    n = len(workload)
    passes = POINTS_CYCLE_PASSES if isinstance(workload, PointsWorkload) else 1
    win = Window(n, n * passes, start)
    pace = Pace(weight)
    win.kernel_s = pace.history
    if isinstance(workload, PointsWorkload):
        return _points_window(workload, seconds, start, tracer, win, pace)
    clock, cpu_clock = time.perf_counter, time.process_time
    cpu0, wall0 = cpu_clock(), clock()
    end = wall0 + seconds
    i = start
    while True:
        t0, c0 = clock(), cpu_clock()
        try:
            ok, work = workload.op(i % n)
        except Exception as exc:  # a raising call is a failed operation
            workload.errors.append(f"op {i % n}: {exc!r}")
            ok, work = False, 0
        c1, t1 = cpu_clock(), clock()
        pace.sample(t1 - t0)
        if win.add(t1 - t0, c1 - c0, work, ok):
            win.record_scale(pace.scale())
        i += 1
        if tracer is not None:
            tracer.reduce()
        if t1 >= end:
            break
    win.record_scale(pace.scale())
    return win, range(start, i), clock() - wall0, cpu_clock() - cpu0


def _points_window(workload, seconds, start, tracer, win, pace):
    calls = workload.calls
    n = len(calls)
    last = workload.last
    clock, cpu_clock = time.perf_counter, time.process_time
    cpu0, wall0 = cpu_clock(), clock()
    end = wall0 + seconds
    j = start
    pass_t0 = clock()
    while True:
        k = j % n
        call = calls[k]
        t0, c0 = clock(), cpu_clock()
        try:
            last[k] = call.fn(*call.args)
            ok = True
        except Exception as exc:  # a raising call is a failed operation
            ok = False
            workload.errors.append(f"{call.name}: {exc!r}")
        c1, t1 = cpu_clock(), clock()
        if k == n - 1:   # a pass over the plan ends: time the kernel
            pace.sample(t1 - pass_t0)
        if win.add(t1 - t0, c1 - c0, 1, ok):
            win.record_scale(pace.scale())
        if k == n - 1:
            pass_t0 = clock()
        j += 1
        if tracer is not None and win.n % POINTS_REDUCE_EVERY == 0:
            tracer.reduce()
        if t1 >= end:
            break
    win.record_scale(pace.scale())
    if tracer is not None:
        tracer.reduce()
    return win, range(start, j), clock() - wall0, cpu_clock() - cpu0


def make_workload(ff, name: str, seed: int, nproc: int, work: Path):
    if name in ("sweep-closed", "sweep-oracle"):
        gen = wl.sweep_closed if name == "sweep-closed" else wl.sweep_oracle
        return SweepWorkload(ff, name, gen(seed, nproc), nproc, work)
    if name == "validate":
        return ValidateWorkload(ff, seed)
    return PointsWorkload(ff, seed)


def failed_ops(workload, win: Window, executed: range) -> int:
    """Executed operations that raised or failed, or whose output failed
    the gate."""
    n = len(workload)
    return sum(1 for k, i in enumerate(executed)
               if k in win.failed or i % n in workload.bad)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, win: Window, wall: float,
               setup: list[tuple[float, float]],
               peak_rss: float) -> tuple[dict, dict]:
    lat = summarize(win.samples().tolist())
    metrics = {
        "setup_s": {"value": statistics.median(s for _, s in setup),
                    "unit": "s"},
        "work_per_s": {"value": win.work_per_s(), "unit": "1/s"},
        "op_cpu_ms": {"value": 1e3 * win.op_cpu(), "unit": "ms"},
    }
    summary = {"workload": name, "operations": win.n, "work": win.work,
               "cycles": len(win.cycles), "window_s": wall,
               "mean_work_per_s": win.work / win.busy,
               "peak_rss_mb": peak_rss,
               "setup_raw_s": [raw for raw, _ in setup],
               "scale": {"median": statistics.median(win.scales),
                         "min": min(win.scales), "max": max(win.scales)},
               "kernel_ms": [1e3 * statistics.median(half)
                             for half in zip(*win.kernel_s)],
               "latency_ms": {k: (1e3 * v if k in ("p50", "tail") and v
                                  is not None else v)
                              for k, v in lat.items()}}
    return metrics, summary


def readable(name: str, metrics: dict, summary: dict, attempted: int,
             failed: int) -> list[str]:
    """Workload-specific metric names, with units.  Plain
    wall-clock statistics over the whole window, then the bounded
    scaled statistic in brackets."""
    lat = summary["latency_ms"]
    scale, unit = (1e3, "us") if name == "points" else (1.0, "ms")
    tail = (f"{scale * lat['tail']:.6g} {unit} at p{lat['tail_pct']:g} "
            f"({lat['beyond']} of {lat['n']} samples beyond)"
            if lat["tail"] is not None else
            f"none: {lat['n']} samples leave fewer than 10 beyond p90")
    work = {"sweep-closed": "rows", "sweep-oracle": "rows",
            "validate": "passes", "points": "points"}[name]
    op = {"sweep-closed": "sweep", "sweep-oracle": "sweep",
          "validate": "validate", "points": "point"}[name]
    op_cpu = metrics["op_cpu_ms"]["value"]
    lines = [
        f"setup_s          {statistics.median(summary['setup_raw_s']):.6g}"
        f" s over {len(summary['setup_raw_s'])} fresh imports "
        f"[setup_s {metrics['setup_s']['value']:.6g}]",
        f"{work}_per_s".ljust(17)
        + f"{summary['mean_work_per_s']:.6g} 1/s over {summary['work']} "
        f"{work} [work_per_s {metrics['work_per_s']['value']:.6g}]",
        f"{op}_{unit}_p50".ljust(17)
        + f"{scale * lat['p50']:.6g} {unit} over {lat['n']} calls "
        f"[op_cpu_ms {op_cpu:.6g}]",
        f"{op}_{unit}_tail".ljust(17) + tail,
        f"peak_rss_mb      {summary['peak_rss_mb']:.6g} MB",
        f"error_rate       {failed / attempted:.6g} "
        f"({failed} failed of {attempted} attempted)"]
    return lines


def per_layer(name, workload, tracer: Tracer, traced: Window, executed,
              untraced: Window, cpu_per_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of the traced window, and the self-check."""
    agg = tracer.agg
    sweeps = isinstance(workload, SweepWorkload)
    rows = traced.work if sweeps else 0
    layer_calls = {layer: sum(c for n, c in agg.count.items()
                              if n.split(".", 1)[0] == layer)
                   for layer in LAYERS}

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    points = agg.outer_count["forces"]
    sf_calls = layer_calls["specfun"]
    oracle_calls = sum(agg.count[n] for n in ORACLES)
    oracle_self = sum(agg.self_s[n] for n in ORACLES)
    solves = agg.count["oscillator.solve_cubic"]
    m = {
        "cli.rows": (rows, "count"),
        "cli.self_us_per_row": (ratio(agg.layer_self_s["cli"], rows, 1e6), "us"),
        "cli.model_builds_per_row": (ratio(agg.builds_under_cli, rows), "count"),
        "cli.cpu_per_wall": (cpu_per_wall, "ratio"),
        "forces.points": (points, "count"),
        "forces.self_us_per_point": (
            ratio(agg.layer_self_s["forces"], points, 1e6), "us"),
        "specfun.calls.digamma": (agg.count["specfun.digamma"], "count"),
        "specfun.calls.log_gamma": (agg.count["specfun.log_gamma"], "count"),
        "specfun.calls.trigamma": (agg.count["specfun.trigamma"], "count"),
        "specfun.ns_per_call": (
            ratio(agg.layer_self_s["specfun"], sf_calls, 1e9), "ns"),
        "specfun.digamma_per_point.ohmic": (ratio(
            agg.digamma_under["forces.force_ohmic_exact"],
            agg.count["forces.force_ohmic_exact"]), "count"),
        "specfun.digamma_per_point.drude": (ratio(
            agg.digamma_under["forces.force_drude_full"],
            agg.count["forces.force_drude_full"]), "count"),
        "circuits.calls": (layer_calls["circuits"], "count"),
        "circuits.us_per_call": (
            ratio(agg.layer_self_s["circuits"], layer_calls["circuits"], 1e6),
            "us"),
        "matsubara.oracle_calls": (oracle_calls, "count"),
        "matsubara.terms": (tracer.terms, "count"),
        "matsubara.ns_per_term": (ratio(oracle_self, tracer.terms, 1e9), "ns"),
        "matsubara.capped": (tracer.capped, "count"),
        "matsubara.computed_bytes": (8 * tracer.terms, "B"),
        "oscillator.cubic_solves": (solves, "count"),
        "oscillator.us_per_solve": (
            ratio(agg.self_s["oscillator.solve_cubic"], solves, 1e6), "us"),
    }
    passes = traced.n if name == "validate" else 0
    for crit in CRITERIA:
        worst, tol, span = tracer.reports.get(crit, (0.0, 0.0, ""))
        m[f"validation.{crit}.s"] = (ratio(agg.dur_s[span], passes), "s")
        m[f"validation.{crit}.worst"] = (worst, "ratio")
        m[f"validation.{crit}.tolerance"] = (tol, "ratio")
    overhead = 100.0 * (untraced.work_per_s() / traced.work_per_s() - 1.0) \
        if traced.work and untraced.work else 0.0
    m["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
    m["trace.overhead_pct"] = (overhead, "%")
    m["trace.spans_per_op"] = (ratio(agg.spans, traced.n), "count")

    problems = self_check(name, workload, tracer, executed, traced)
    m["trace.selfcheck_ok"] = (0 if problems else 1, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, problems


def self_check(name, workload, tracer: Tracer, executed, traced) -> list[str]:
    """The tracer must see exactly the work the benchmark issued."""
    agg = tracer.agg
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: traced {got}, expected {want}")

    if isinstance(workload, SweepWorkload):
        cfgs = workload.configs
        ok_exec = [i % len(cfgs) for i in executed
                   if i % len(cfgs) not in workload.bad]
        expect("forces.points (rows of every mode but sphere-plate)",
               agg.outer_count["forces"],
               sum(cfgs[i]["sweep"]["points"] for i in ok_exec
                   if cfgs[i]["kind"] != "sphere-plate"))
        if name == "sweep-oracle":
            expect("matsubara.terms (sum of n_used of the direct oracles)",
                   tracer.terms, sum(sum(workload.n_used[i]) for i in ok_exec))
        for fn, per in (("force_ohmic_exact", 2), ("force_drude_full", 6)):
            expect(f"digamma calls in {fn}",
                   agg.digamma_under[f"forces.{fn}"],
                   per * agg.count[f"forces.{fn}"])
    elif isinstance(workload, PointsWorkload):
        calls, n = workload.calls, len(workload)
        want = Counter()
        for i in executed:
            want[calls[i % n].host] += calls[i % n].digammas
        for fn in ("force_ohmic_exact", "force_drude_full"):
            expect(f"digamma calls in {fn}",
                   agg.digamma_under[f"forces.{fn}"], want[fn])
    else:
        expect("criterion reports", len(tracer.reports), len(CRITERIA))
    return problems


def declared_metrics(trace: int) -> set[str] | None:
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-closed", "sweep-oracle", "validate",
                                 "points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "fluctforce" / "__init__.py").is_file():
        print(f"fluctforce sources not found under {SRC}", file=sys.stderr)
        return 2
    package, ff = _import_library()
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        setup = [] if args.trace else measure_setup(warm_up=True)
        workload = make_workload(ff, args.workload, args.seed, nproc, work)
        workload.reference_pass()
        workload.gate()
        if args.trace:
            metrics, summary, attempted, failed = _traced(
                args, ff, package, workload)
        else:
            metrics, summary, attempted, failed = _untraced(args, workload,
                                                            setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if declared is not None and declared != metrics.keys():
        print("metrics differ from BENCHMARK.json: "
              f"{sorted(declared ^ metrics.keys())}", file=sys.stderr)
        return 3
    record = {"env": env, "seed": args.seed, "mix": workload.mix(),
              "summary": summary, "failures": workload.errors[:50]}
    print(json.dumps(record))
    if not args.trace:
        for line in readable(args.workload, metrics, summary, attempted,
                             failed):
            print(line)
    print(json.dumps({"correct": failed == 0 and not workload.errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _untraced(args, workload, setup: list[float]):
    win, executed, wall, _ = run_window(
        workload, args.seconds, INTERPRETED_WEIGHT[args.workload])
    peak = peak_rss_mb()
    setup += measure_setup(warm_up=False)
    workload.check_repeat()
    metrics, summary = end_to_end(args.workload, win, wall, setup, peak)
    if isinstance(workload, SweepWorkload):
        summary["time_share"] = workload.time_share(win)
    return metrics, summary, win.n, failed_ops(workload, win, executed)


def _traced(args, ff, package, workload):
    seconds_untraced = args.seconds * UNTRACED_SHARE
    weight = INTERPRETED_WEIGHT[args.workload]
    plain, done, wall, cpu = run_window(workload, seconds_untraced, weight)
    tracer = Tracer(vars(ff), package)
    tracer.install()
    try:
        if isinstance(workload, PointsWorkload):
            workload.rebind()
        traced, executed, _, _ = run_window(
            workload, args.seconds - seconds_untraced, weight,
            start=done.stop, tracer=tracer)
    finally:
        tracer.uninstall()
        if isinstance(workload, PointsWorkload):
            workload.rebind()
    workload.check_repeat()
    metrics, problems = per_layer(args.workload, workload, tracer, traced,
                                  executed, plain, cpu / wall)
    workload.errors.extend(f"trace self-check: {p}" for p in problems)
    summary = {"untraced_ops": plain.n, "traced_ops": traced.n,
               "spans": tracer.agg.spans, "self_check": problems or "ok"}
    attempted = plain.n + traced.n
    failed = failed_ops(workload, plain, done) \
        + failed_ops(workload, traced, executed)
    return metrics, summary, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
