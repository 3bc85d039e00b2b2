"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from gate import check_oracle_sweep, check_sweep, parse_rows  # noqa: E402
from stats import (TAIL_LADDER, samples_beyond, summarize,  # noqa: E402
                   tail_percentile)
from tracer import Tracer, self_times, union_length  # noqa: E402


@pytest.mark.parametrize("n, pct", [
    (1, None), (90, None), (98, 90.0), (1000, 99.0), (10_000, 99.9),
    (100_000, 99.99), (10_000_000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_is_the_highest_ladder_step_with_ten_beyond():
    for n in range(1, 30_000, 37):
        pct = tail_percentile(n)
        higher = [p for p in TAIL_LADDER if pct is None or p > pct]
        if pct is not None:
            assert samples_beyond(n, pct) >= 10
        assert all(samples_beyond(n, p) < 10 for p in higher)


def test_summarize_states_tail_and_count():
    out = summarize([float(i) for i in range(1, 1001)])
    assert out["n"] == 1000
    assert out["tail_pct"] == 99.0
    assert out["beyond"] >= 10
    assert out["p50"] == pytest.approx(500.5)
    assert summarize([1.0, 2.0, 3.0])["tail"] is None


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(2, 8), (4, 9), (12, 13)], 0, 10) == 7
    assert union_length([], 0, 10) == 0


def test_self_time_with_overlapping_children_in_two_threads():
    # (id, parent, name, start, end, thread)
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, 0),
        (1, 0, "cli.row", 2.0, 8.0, 1),       # worker thread 1
        (2, 0, "cli.row", 4.0, 9.0, 2),       # worker thread 2, overlaps
        (3, 1, "forces.f", 3.0, 5.0, 1),
        (4, 2, "forces.f", 4.5, 6.0, 2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)   # 10 - |[2, 9]|
    assert selfs[1] == pytest.approx(4.0)   # 6 - 2
    assert selfs[2] == pytest.approx(3.5)   # 5 - 1.5
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.5)


def test_generation_is_deterministic_and_stratified():
    assert wl.sweep_closed(7, 2) == wl.sweep_closed(7, 2)
    assert wl.sweep_closed(7, 2) != wl.sweep_closed(8, 2)
    assert wl.sweep_oracle(7, 2) == wl.sweep_oracle(7, 2)
    assert wl.point_sets(7) == wl.point_sets(7)
    assert wl.validate_order(7, 5) == wl.validate_order(7, 5)
    for seed in (1, 2):
        closed = wl.sweep_closed(seed, 2)
        assert Counter(c["kind"] for c in closed) == \
            {k: 8 for k in wl.CLOSED_KINDS}
        assert sum(c["workers"] == 2 for c in closed) == len(closed) // 2
        oracle = wl.sweep_oracle(seed, 2)
        assert Counter(c["class"] for c in oracle) == {
            "n_max 2e+04": 48, "n_max 1e+05": 24, "n_max 1e+06": 2,
            "capped": 1, "low-T": 1}
        assert Counter(c["oracle"]["n_max"] for c in oracle) == \
            {20_000: 50, 100_000: 24, 1_000_000: 2}
        assert all(c["workers"] == 2 for c in oracle)
        assert all("class" not in wl.program_config(c) for c in oracle)


@pytest.fixture(scope="module")
def ff():
    from fluctforce import (circuits, cli, forces, matsubara, oscillator,
                            specfun, validation)
    from types import SimpleNamespace
    return SimpleNamespace(cli=cli, circuits=circuits, forces=forces,
                           specfun=specfun, oscillator=oscillator,
                           matsubara=matsubara, validation=validation)


def _sweep_text(ff, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(wl.program_config(cfg)))
    out = tmp_path / f"out.{cfg['output']['format']}"
    assert ff.cli.main(["sweep", "--config", str(path), "--out",
                        str(out)]) == 0
    return out.read_text()


def _perturb(text, fmt, column, index, factor):
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"][index][column] *= factor
        return json.dumps(payload)
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[index + 1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    lines[index + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["osc-ohmic", "osc-drude", "series-rlc",
                                  "planar", "sphere-plate"])
def test_gate_rejects_a_perturbed_closed_form_row(ff, tmp_path, kind):
    cfg = next(c for c in wl.sweep_closed(3, 2) if c["kind"] == kind)
    text = _sweep_text(ff, tmp_path, cfg)
    sample = (0, 31, 63)
    assert check_sweep(ff, kind, cfg, text, sample) == []
    column = "r_weight" if kind in ("planar", "sphere-plate") else "force"
    bad = _perturb(text, cfg["output"]["format"], column, 31, 1.0 + 1e-2)
    assert check_sweep(ff, kind, cfg, bad, sample)
    assert len(parse_rows(bad, cfg["output"]["format"])) == 64


def test_gate_rejects_a_perturbed_oracle_column(ff, tmp_path):
    cfg = next(c for c in wl.sweep_oracle(3, 2)
               if c["kind"] == "osc-ohmic" and c["oracle"]["n_max"] == 20_000)
    text = _sweep_text(ff, tmp_path, cfg)
    errors, used = check_oracle_sweep(ff, cfg["kind"], cfg, text)
    assert errors == [] and len(used) == wl.ROWS_ORACLE
    bad = _perturb(text, cfg["output"]["format"], "oracle", 1, 1.0 + 1e-12)
    assert check_oracle_sweep(ff, cfg["kind"], cfg, bad)[0]


def test_tracer_sees_imported_names_and_dispatch_tables(ff):
    import fluctforce
    original = ff.forces.digamma
    tracer = Tracer(vars(ff), fluctforce)
    tracer.install()
    try:
        loop = ff.circuits.SeriesRLC.of(0.5, 1.0, (0.8, 1.0))
        ff.circuits.force_series_rlc(loop, 0.3, 1.0, units="reduced")
    finally:
        tracer.uninstall()
    tracer.reduce()
    agg = tracer.agg
    assert ff.forces.digamma is original
    assert agg.count["circuits.SeriesRLC.of"] == 1
    assert agg.count["circuits.force_series_rlc"] == 1
    assert agg.count["forces.force_ohmic_exact"] == 1
    assert agg.digamma_under["forces.force_ohmic_exact"] == 2
    assert agg.outer_count["forces"] == 1


@pytest.mark.parametrize("slots", [1 << 10, 7])
@pytest.mark.parametrize("slowdown", [1.0, 2.0])
def test_window_median_statistics(monkeypatch, slots, slowdown):
    import run
    monkeypatch.setattr(run, "LATENCY_SLOTS", slots)
    win = run.Window(ops=3, cycle_ops=3, start=1)
    base = {0: 1.0, 1: 2.0, 2: 4.0}
    for k in range(21):
        op = (1 + k) % 3
        noise = 3.0 if k in (0, 8, 16) else 1.0   # slow calls in 3 cycles
        # a machine `slowdown` times slower stretches the calls, and the
        # pace measured during each cycle gives the scale back; half the
        # wall time is stolen, which the CPU time does not see
        seconds = slowdown * base[op] * noise
        if win.add(2.0 * seconds, seconds, 1):
            win.record_scale((1.0 / slowdown, 0.5 / slowdown))
    win.record_scale((1.0 / slowdown, 0.5 / slowdown))
    assert len(win.cycles) == 7
    # each operation's median is its undisturbed CPU time
    assert win.op_cpu() == pytest.approx(2.0)
    assert win.work_per_s() == pytest.approx(3 / 7.0)
    kept = min(slots, 21)
    assert win.time_by_op().sum() == pytest.approx(
        sum(base[(1 + k) % 3] * (3.0 if k in (0, 8, 16) else 1.0)
            for k in range(21 - kept, 21)))


def test_window_median_sees_a_slowdown_of_half_the_repeats():
    import run
    win = run.Window(ops=1, cycle_ops=1)
    for k in range(8):
        seconds = 2.0 if k % 2 else 1.0
        if win.add(seconds, seconds, 1):
            win.record_scale((1.0, 1.0))
    win.record_scale((1.0, 1.0))
    assert win.op_cpu() == pytest.approx(1.5)
    assert win.work_per_s() == pytest.approx(0.75)


@pytest.mark.parametrize("stolen, busy, wall, kept", [
    (0.0, 1.0, 1.0, 1.0),      # no steal
    (0.2, 0.8, 1.0, 0.8),      # one always-busy thread loses all steal
    (0.1, 0.4, 1.0, 0.9),      # one thread busy half the time: not 0.8
    (0.4, 1.6, 1.0, 0.8),      # two busy threads lose half the steal each
    (0.0, 0.0, 0.0, 1.0),
])
def test_kept_share_weights_steal_by_busy_threads(stolen, busy, wall, kept):
    from pace import kept_share
    assert kept_share(stolen, busy, wall) == pytest.approx(kept)


def test_single_threaded_cycle_under_steal_is_not_over_credited(monkeypatch):
    """One thread, busy half of a 1 s cycle, with 0.1 s stolen: it lost
    0.1 s of wall time, not the 20 % steal share of all busy time."""
    import pace
    clock = iter([0.0, 1.0, 1.0])
    jiffies = iter([(0.0, 0.0), (0.1, 0.4), (0.1, 0.4)])
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(pace, "cpu_seconds", lambda: next(jiffies))
    monkeypatch.setattr(pace, "kernel_seconds", lambda: (
        pace.INTERPRETED_REF_S, pace.NUMPY_REF_S))
    meter = pace.Pace()
    meter.sample(0.5)
    assert meter.scale() == pytest.approx((1.0, 0.9))


def test_worker_gate_catches_a_1e6_sweep_that_differs_at_one_worker(
        ff, tmp_path):
    import run
    cfg = next(c for c in wl.sweep_oracle(3, 2)
               if c["oracle"]["n_max"] == 1_000_000)
    main = ff.cli.main

    def one_worker_differs(argv):
        rc = main(argv)
        if argv[-2:] == ["--workers", "1"]:
            out = Path(argv[argv.index("--out") + 1])
            out.write_bytes(out.read_bytes().replace(b"e", b"E", 1))
        return rc

    fake = type(ff)(**{**vars(ff), "cli": type(ff)(main=one_worker_differs)})
    sweeps = run.SweepWorkload(fake, "sweep-oracle", [cfg], 2, tmp_path)
    sweeps.reference_pass()
    sweeps.gate()
    assert sweeps.bad == {0}
    assert sweeps.errors == ["config 0: output differs at workers=1"]
