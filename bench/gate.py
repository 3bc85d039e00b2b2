"""Correctness gate: every output checked against the library's oracles.

Runs outside the timed region.  Each check returns a list of failure
messages; an empty list is a pass.  The tolerances are the acceptance
battery's:

* Ohmic closed forms vs force_sum_exact: max(1e-8, 2 * truncation
  estimate) (criterion 1);
* the full Drude force vs Richardson differences of the Gamma-function
  free energy: 1e-5 relative (criterion 2), taken against the larger of
  |oracle| and the summed component magnitudes so rows where the
  components cancel are not judged on a near-zero denominator;
* geometry rows: r_weight vs the f_circuit / f_casimir quotient to 1e-3
  relative (the circuit-composition criterion).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ORACLE_TOL_ABS = 1e-8
DRUDE_FD_TOL = 1e-5
QUOTIENT_TOL = 1e-3
#: n_max of the oracle that checks sampled closed-form rows.
CHECK_N_MAX = 100_000


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a sweep output as dicts of float | str | None."""
    if fmt == "json":
        return json.loads(text)["rows"]
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, val in raw.items():
            if val == "":
                row[key] = None
            elif key in ("regime", "warnings"):
                row[key] = val
            else:
                row[key] = float(val)
        rows.append(row)
    return rows


def sweep_values(sweep: dict) -> list[float]:
    space = np.geomspace if sweep["spacing"] == "log" else np.linspace
    return [float(v) for v in space(sweep["start"], sweep["stop"],
                                    sweep["points"])]


def _law(spec):
    """A config law as the circuit layer's (coeff, exponent) or number."""
    if isinstance(spec, dict):
        return (float(spec["coeff"]), float(spec["power"]))
    return float(spec)


def model_of(ff, kind: str, params: dict):
    """The ParametricModel the CLI builds for a config's parameters."""
    if kind in ("osc-ohmic", "osc-drude"):
        laws = [_law(params["omega0"]), _law(params["gamma0"])]
        if kind == "osc-drude":
            laws.append(_law(params["omega_d"]))
        laws = [law if isinstance(law, tuple) else (law, 0.0) for law in laws]
        return ff.oscillator.power_law_model(*laws)
    elements = (_law(params["resistance"]), _law(params["inductance"]),
                _law(params["capacitance"]))
    if kind == "series-rlc":
        return ff.circuits.map_series(ff.circuits.SeriesRLC.of(*elements))
    return ff.circuits.map_parallel(ff.circuits.ParallelRLC.of(*elements))


def row_point(cfg: dict, row: dict) -> tuple[float, float]:
    """(lambda, temperature) at which a row was evaluated."""
    params = cfg["parameters"]
    if cfg["sweep"]["parameter"] == "temperature":
        return float(params.get("lambda", 1.0)), row["lambda"]
    return row["lambda"], float(params.get("temperature", 0.0))


def ohmic_oracle_miss(ff, force: float, model, lam: float, t: float,
                      n_max: int = CHECK_N_MAX):
    """(message or None, OracleResult) of an Ohmic closed-form value."""
    oracle = ff.matsubara.force_sum_exact(model.params_at(lam, t), model, lam,
                                          ff.matsubara.SumSpec(n_max=n_max))
    tol = max(ORACLE_TOL_ABS, 2.0 * oracle.truncation_estimate)
    if not abs(force - oracle.value) <= tol:
        return (f"force {force!r} vs oracle {oracle.value!r} at lambda={lam!r}"
                f" T={t!r} exceeds {tol:.3e}"), oracle
    return None, oracle


def drude_fd_miss(ff, force: float, components: float, model, lam: float,
                  t: float) -> str | None:
    fd = ff.matsubara.finite_difference_force(
        lambda x: ff.forces.free_energy_drude_gamma(model.params_at(x, t)),
        lam, h=1e-4 * lam)
    scale = max(abs(fd.value), components)
    if not abs(force - fd.value) <= DRUDE_FD_TOL * scale:
        return (f"Drude force {force!r} vs finite difference {fd.value!r} at "
                f"lambda={lam!r} T={t!r}")
    return None


def _components(row: dict) -> float:
    return sum(abs(row[k]) for k in ("f_omega", "f_gamma0", "f_omegaD")
               if row.get(k) is not None)


def check_sweep(ff, kind: str, cfg: dict, text: str, sample) -> list[str]:
    """Closed-form sweep output: shape, sweep values, finiteness, and the
    sampled rows against their oracle."""
    fmt = cfg["output"]["format"]
    rows = parse_rows(text, fmt)
    expected = sweep_values(cfg["sweep"])
    errors = []
    if [r["lambda"] for r in rows] != expected:
        return [f"{kind}: lambda column differs from the requested sweep"]
    for row in rows:
        if not math.isfinite(row["force"]):
            errors.append(f"{kind}: non-finite force at {row['lambda']!r}")
    if errors:
        return errors
    model = None if kind in ("planar", "sphere-plate") else \
        model_of(ff, kind, cfg["parameters"])
    for i in sample:
        row = rows[i]
        if kind in ("planar", "sphere-plate"):
            quotient = row["force"] / row["f_casimir"]
            if not abs(quotient - row["r_weight"]) <= \
                    QUOTIENT_TOL * abs(row["r_weight"]):
                errors.append(f"{kind}: r_weight {row['r_weight']!r} vs "
                              f"quotient {quotient!r}")
            continue
        lam, t = row_point(cfg, row)
        if kind == "osc-drude":
            msg = drude_fd_miss(ff, row["force"], _components(row), model,
                                lam, t)
        else:
            msg, _ = ohmic_oracle_miss(ff, row["force"], model, lam, t)
        if msg:
            errors.append(f"{kind}: {msg}")
    return errors


def check_oracle_sweep(ff, kind: str, cfg: dict, text: str):
    """Oracle sweep output: every row's oracle column against a direct
    force_sum_exact call, and its closed form against that oracle
    (Ohmic family) or against finite differences (Drude).

    Returns (errors, n_used of each row)."""
    fmt = cfg["output"]["format"]
    rows = parse_rows(text, fmt)
    expected = sweep_values(cfg["sweep"])
    if [r["lambda"] for r in rows] != expected:
        return [f"{kind}: lambda column differs from the requested sweep"], []
    model = model_of(ff, kind, cfg["parameters"])
    spec = ff.matsubara.SumSpec(n_max=cfg["oracle"]["n_max"])
    errors, n_used = [], []
    for row in rows:
        lam, t = row_point(cfg, row)
        oracle = ff.matsubara.force_sum_exact(model.params_at(lam, t), model,
                                              lam, spec)
        n_used.append(oracle.n_used)
        if row["oracle"] != oracle.value:
            errors.append(f"{kind}: oracle column {row['oracle']!r} != "
                          f"direct {oracle.value!r}")
        if kind == "osc-drude":
            msg = drude_fd_miss(ff, row["force"], _components(row), model,
                                lam, t)
        else:
            tol = max(ORACLE_TOL_ABS, 2.0 * oracle.truncation_estimate)
            msg = None if abs(row["force"] - oracle.value) <= tol else (
                f"force {row['force']!r} vs oracle {oracle.value!r} "
                f"(n_used={oracle.n_used}) exceeds {tol:.3e}")
        if msg:
            errors.append(f"{kind}: {msg}")
    return errors, n_used


def check_validate(lines: list[str]) -> list[str]:
    if not lines:
        return ["validate printed no criterion lines"]
    return [f"validate: {ln}" for ln in lines if not ln.startswith("PASS ")]
