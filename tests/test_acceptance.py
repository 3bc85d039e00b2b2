"""Acceptance battery.

Each test runs one acceptance criterion at its stated tolerance, prints a
single PASS/FAIL line with the worst residual, and asserts.  Criteria
1-10 are shared with the CLI `validate` suites via the validation
module; criterion 11 (output determinism) needs the filesystem and lives
here.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

from fluctforce import validation
from fluctforce.cli import main


def _report(number, rep):
    line = f"criterion {number:>2} {rep.line()}"
    print(line)
    assert rep.passed, line


def test_criterion_01_ohmic_oracle_equivalence():
    start = time.perf_counter()
    rep = validation.criterion_ohmic_oracle(count=200)
    elapsed = time.perf_counter() - start
    _report(1, rep)
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s (limit 60s)"


def test_criterion_02_drude_finite_difference():
    start = time.perf_counter()
    rep = validation.criterion_drude_fd(count=50)
    elapsed = time.perf_counter() - start
    _report(2, rep)
    assert elapsed <= 30.0, f"criterion 2 took {elapsed:.1f}s (limit 30s)"


def test_criterion_03_gamma_vs_product():
    _report(3, validation.criterion_gamma_vs_product(count=20))


def test_criterion_04_planar_relative_weights():
    _report(4, validation.criterion_planar_weights())


def test_criterion_05_sphere_plate_relative_weights():
    _report(5, validation.criterion_sphere_weights())


def test_criterion_06_zero_point_limit():
    _report(6, validation.criterion_zero_point())


def test_criterion_07_asymptotic_slopes():
    _report(7, validation.criterion_asymptotic_slopes())


def test_criterion_08_sign_laws():
    _report(8, validation.criterion_sign_laws())


def test_criterion_09_vieta_and_cubic_residuals():
    _report(9, validation.criterion_vieta(count=10_000))


def test_criterion_10_critical_damping_continuity():
    _report(10, validation.criterion_critical_damping(count=20))


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "schema": "fluctforce/1",
        "mode": "oscillator",
        "units": "reduced",
        "parameters": {"damping": "ohmic", "temperature": 0.5,
                       "omega0": {"coeff": 1.0, "power": 0.5},
                       "gamma0": 0.3},
        "sweep": {"parameter": "lambda", "start": 0.5, "stop": 2.0,
                  "points": 16, "spacing": "log"},
        "oracle": {"enabled": True, "n_max": 20_000},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = [tmp_path / name for name in
            ("r1.csv", "r2.csv", "w1.csv", "w4.csv")]
    assert main(["sweep", "--config", str(path), "--out", str(outs[0])]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(outs[1])]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(outs[2]),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(outs[3]),
                 "--workers", "4"]) == 0
    blobs = [o.read_bytes() for o in outs]
    identical = all(b == blobs[0] for b in blobs)
    status = "PASS" if identical else "FAIL"
    print(f"criterion 11 {status} output-determinism: repeated, single- and "
          "multi-worker sweeps byte-identical")
    assert identical
