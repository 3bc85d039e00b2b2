"""Fit the interpreted-kernel weight of each workload's pace.

    python3 bench/calibrate.py --rounds 20 --seconds 6

Run from the repository root.  Runs short windows of the four
workloads in turn, without the correctness gate, round after round, so
that each workload sees the machine's fast and slow stretches alike.
For each weight w it prints the spread, (Q3 - Q1) / median, of the
windows' throughput and operation CPU time scaled with that weight.
The weight with the smallest spread goes into INTERPRETED_WEIGHT in
run.py.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile
from pathlib import Path

import run
from pace import INTERPRETED_REF_S, NUMPY_REF_S

WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)
WORKLOADS = ("sweep-closed", "sweep-oracle", "validate", "points")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    _, ff = run._import_library()
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE))
    try:
        loads = {}
        for name in WORKLOADS:
            (work / name).mkdir()
            loads[name] = run.make_workload(ff, name, args.seed, 2,
                                            work / name)
            loads[name].reference_pass()
        windows = {name: [] for name in WORKLOADS}
        for _ in range(args.rounds):
            for name, load in loads.items():
                win, *_ = run.run_window(load, args.seconds, 0.5)
                # raw statistics, and the window's median kernel times
                win.scales = win.cpu_scales = [1.0] * len(win.scales)
                interp, numeric = (statistics.median(h)
                                   for h in zip(*win.kernel_s))
                windows[name].append((win.work_per_s(), win.op_cpu(),
                                      interp / INTERPRETED_REF_S,
                                      numeric / NUMPY_REF_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, rows in windows.items():
        cells = [f"raw {spread([r[0] for r in rows]):.3f}"]
        for w in WEIGHTS:
            pace = [w * r[2] + (1.0 - w) * r[3] for r in rows]
            tput = spread([r[0] * p for r, p in zip(rows, pace)])
            lat = spread([r[1] / p for r, p in zip(rows, pace)])
            cells.append(f"w={w:g}: {tput:.3f} / {lat:.3f}")
        print(f"{name} ({len(rows)} windows; work_per_s / op_cpu_ms spread): "
              + " | ".join(cells))


if __name__ == "__main__":
    main()
