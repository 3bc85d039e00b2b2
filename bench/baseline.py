"""Single-call costs and the thread-pool crossover, for bench/README.md.

    python3 bench/baseline.py

Run from the repository root.  Prints wall-clock medians of repeated
calls, unscaled, so they read as what a caller waits on this machine at
this moment; bench/run.py gives the steadier, scaled figures.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fluctforce import cli, forces, matsubara, specfun  # noqa: E402
from fluctforce.oscillator import (  # noqa: E402
    Drude, Ohmic, OscillatorParams, power_law_model)

#: base n_max values of the crossover: cache-resident to L2-spilling.
CROSSOVER_N_MAX = (20_000, 50_000, 100_000, 1_000_000)
ORACLE_ROWS = 32
CLOSED_ROWS = 2000


def median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sweep_ms_per_row(work: Path, cfg: dict, workers: int,
                     repeats: int) -> float:
    path = work / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["sweep", "--config", str(path), "--out", str(work / "out.csv"),
            "--workers", str(workers)]
    return 1e3 * median_s(lambda: cli.main(argv), repeats) \
        / cfg["sweep"]["points"]


def main() -> int:
    cfg = {"schema": "fluctforce/1", "mode": "oscillator",
           "parameters": {"damping": "ohmic", "temperature": 0.5,
                          "omega0": {"coeff": 1.0, "power": 0.5},
                          "gamma0": 0.3},
           "sweep": {"start": 0.5, "stop": 2.0, "points": ORACLE_ROWS}}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        work = Path(tmp)
        for n_max in CROSSOVER_N_MAX:
            cfg["oracle"] = {"enabled": True, "n_max": n_max}
            repeats = 3 if n_max >= 1_000_000 else 5
            one, two = (sweep_ms_per_row(work, cfg, w, repeats)
                        for w in (1, 2))
            print(f"oracle sweep, n_max {n_max:>9}: workers 1 {one:.3f} "
                  f"ms/row, workers 2 {two:.3f} ms/row")
        del cfg["oracle"]
        cfg["sweep"]["points"] = CLOSED_ROWS
        for workers in (1, 2):
            per_row = 1e3 * sweep_ms_per_row(work, cfg, workers, 5)
            print(f"closed sweep, {CLOSED_ROWS} rows, workers {workers}: "
                  f"{per_row:.1f} us/row")

    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    model = power_law_model(omega0=(1.0, 0.5))
    p_drude = OscillatorParams(1.0, Drude(0.5, 100.0), 0.25)
    m_drude = power_law_model(omega0=(1.0, 0.5), gamma0=(0.5, 1.0),
                              omega_d=(100.0, 0.5))
    spec = matsubara.SumSpec(n_max=100_000)
    at = model.params_at(1.0, 0.25)
    cold = OscillatorParams(1.0, Ohmic(0.5), 1e-8)
    n_used = matsubara.force_sum_exact(cold, model, 1.0).n_used
    calls = (
        ("digamma", 1e6, "us", 20001,
         lambda: specfun.digamma(1.3 + 0.7j)),
        ("force_ohmic_exact", 1e6, "us", 5001,
         lambda: forces.force_ohmic_exact(p, 1.0)),
        ("force_drude_full", 1e6, "us", 5001,
         lambda: forces.force_drude_full(p_drude, m_drude, 1.0)),
        ("force_sum_exact, n_max 1e5", 1e3, "ms", 21,
         lambda: matsubara.force_sum_exact(at, model, 1.0, spec)),
        (f"force_sum_exact, T = 1e-8 (n_used {n_used})", 1.0, "s", 3,
         lambda: matsubara.force_sum_exact(cold, model, 1.0)),
    )
    for name, scale, unit, repeats, fn in calls:
        print(f"{name}: {scale * median_s(fn, repeats):.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
