"""CLI behaviour: config validation, outputs, determinism, exit codes."""

import argparse
import copy
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fluctforce import cli
from fluctforce.cli import main
from test_matsubara import counted_tails


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def oscillator_cfg(**overrides):
    cfg = {
        "schema": "fluctforce/1",
        "mode": "oscillator",
        "units": "reduced",
        "parameters": {
            "damping": "ohmic",
            "temperature": 0.5,
            "omega0": {"coeff": 1.0, "power": 0.5},
            "gamma0": 0.3,
        },
        "sweep": {"parameter": "lambda", "start": 0.5, "stop": 2.0,
                  "points": 8, "spacing": "linear"},
    }
    cfg.update(overrides)
    return cfg


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_missing_config_is_config_error(capsys, tmp_path):
    assert main(["force", "--config", str(tmp_path / "nope.json")]) == 2


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["force", "--config", str(path)]) == 2


def test_wrong_schema_rejected(tmp_path):
    cfg = oscillator_cfg()
    cfg["schema"] = "something/2"
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg)]) == 2


def test_unknown_mode_rejected(tmp_path):
    cfg = oscillator_cfg(mode="quantum-gravity")
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg)]) == 2


def test_geometry_mode_requires_si(tmp_path):
    cfg = {
        "schema": "fluctforce/1", "mode": "sphere-plate", "units": "reduced",
        "parameters": {"radius": 1e-4, "inductance": 1e-6,
                       "temperature": 300.0, "regime": "high-T"},
    }
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg)]) == 2


def test_precondition_violation_exit_code(tmp_path):
    # swept resistance makes gamma lambda-dependent: domain error, exit 3
    cfg = {
        "schema": "fluctforce/1", "mode": "series-rlc", "units": "reduced",
        "parameters": {"resistance": {"coeff": 1.0, "power": 1.0},
                       "inductance": 1.0,
                       "capacitance": {"coeff": 1.0, "power": 1.0},
                       "temperature": 0.5, "lambda": 1.0},
    }
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg)]) == 3


def test_loop_with_gamma_constant_by_construction_sweeps(tmp_path):
    # R = 3 lambda over L = 0.7 lambda: dgamma/dlambda rounds to about
    # 1e-16, not 0, at most points; the loop sweeps, oracle included
    cfg = {
        "schema": "fluctforce/1", "mode": "series-rlc", "units": "reduced",
        "parameters": {"resistance": {"coeff": 3.0, "power": 1.0},
                       "inductance": {"coeff": 0.7, "power": 1.0},
                       "capacitance": 1.0, "temperature": 0.5},
        "sweep": {"parameter": "lambda", "start": 0.1, "stop": 3.0,
                  "points": 300, "spacing": "linear"},
        "oracle": {"enabled": True},
    }
    out = tmp_path / "loop.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 300
    assert all(float(row["discrepancy"]) <= 1e-12 for row in rows)


def test_force_single_row_stdout(capsys, tmp_path):
    cfg = oscillator_cfg()
    del cfg["sweep"]
    cfg["parameters"]["lambda"] = 1.0
    assert main(["force", "--config",
                 write_config(tmp_path, "c.json", cfg)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("lambda,force,f_omega,f_gamma0,f_omegaD,"
                               "regime,oracle,discrepancy,warnings")
    assert len(lines) == 2
    assert ",exact," in lines[1]


def test_zero_derivative_sweep_all_zero(tmp_path):
    cfg = oscillator_cfg()
    cfg["parameters"]["omega0"] = {"coeff": 1.0, "power": 0.0}
    out = tmp_path / "zero.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 8
    assert all(float(r["force"]) == 0.0 for r in rows)


def test_oscillator_oracle_discrepancy_column(tmp_path):
    cfg = oscillator_cfg(oracle={"enabled": True, "n_max": 50_000})
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    for row in rows:
        assert row["oracle"] != ""
        assert float(row["discrepancy"]) <= 1e-8


def test_oracle_sweep_takes_one_tail_per_row(tmp_path, monkeypatch):
    # a row's oracle sums once, and its estimate comes from that sum
    calls = counted_tails(monkeypatch)
    drude = oscillator_cfg(oracle={"enabled": True, "n_max": 20_000})
    drude["parameters"].update(damping="drude", omega_d=50.0)
    for cfg in (oscillator_cfg(oracle={"enabled": True, "n_max": 20_000}),
                drude):
        calls.clear()
        out = tmp_path / "tails.csv"
        assert main(["sweep", "--config", write_config(tmp_path, "c.json",
                                                       cfg),
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 8 and all(row["oracle"] for row in rows)
        assert calls == [32] * 8


def test_drude_mode_components(tmp_path):
    cfg = oscillator_cfg()
    cfg["parameters"]["damping"] = "drude"
    cfg["parameters"]["omega_d"] = 50.0
    cfg["parameters"]["gamma0"] = {"coeff": 0.3, "power": 1.0}
    out = tmp_path / "d.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    for row in rows:
        total = (float(row["f_omega"]) + float(row["f_gamma0"])
                 + float(row["f_omegaD"]))
        assert total == pytest.approx(float(row["force"]), rel=1e-12)


def test_warning_flags_appear_verbatim(tmp_path):
    cfg = oscillator_cfg()
    cfg["parameters"]["damping"] = "drude"
    cfg["parameters"]["omega_d"] = 2.0    # below 10 max(Omega, gamma0)
    cfg["parameters"]["gamma0"] = 0.3
    out = tmp_path / "w.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert any("drude-approx-regime" in r["warnings"] for r in rows)


def test_sphere_plate_sweep_weight_span(tmp_path):
    radius = 1e-4
    cfg = {
        "schema": "fluctforce/1", "mode": "sphere-plate", "units": "si",
        "parameters": {"radius": radius, "inductance": 1e-6,
                       "temperature": 300.0, "regime": "high-T"},
        "sweep": {"parameter": "lambda", "start": 0.035 * radius,
                  "stop": 0.75 * radius, "points": 12, "spacing": "log"},
    }
    out = tmp_path / "sp.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header[-2:] == ["f_casimir", "r_weight"]
    weights = [float(r["r_weight"]) for r in rows]
    assert weights[0] == pytest.approx(0.0209, abs=5e-4)
    assert weights[-1] == pytest.approx(0.50, abs=0.01)
    assert all(a < b for a, b in zip(weights, weights[1:]))


def test_sphere_plate_high_t_at_zero_temperature_exit_code(capsys,
                                                          tmp_path):
    # the high-T geometry forms need T > 0, as the planar mode's do
    cfg = {
        "schema": "fluctforce/1", "mode": "sphere-plate", "units": "si",
        "parameters": {"radius": 1e-4, "inductance": 1e-6,
                       "temperature": 0.0, "regime": "high-T"},
        "sweep": {"parameter": "lambda", "start": 1e-6, "stop": 2e-6,
                  "points": 3},
    }
    out = tmp_path / "sp.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("domain error: sphere_plate_circuit_force requires "
                   "temperature > 0\n")


def test_planar_mode_columns(tmp_path):
    cfg = {
        "schema": "fluctforce/1", "mode": "planar", "units": "si",
        "parameters": {"area": 2.5e-5, "inductance": 1e-6,
                       "resistance": 0.0, "temperature": 300.0,
                       "regime": "high-T"},
        "sweep": {"parameter": "lambda", "start": 0.5e-3, "stop": 1e-3,
                  "points": 5, "spacing": "linear"},
    }
    out = tmp_path / "pc.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    # r_T^pc = 4 pi d^2 / (zeta(3) S); at d = 1 mm, S = 25 mm^2 -> 0.418
    assert float(rows[-1]["r_weight"]) == pytest.approx(0.418, abs=2e-3)
    assert float(rows[0]["f_casimir"]) < 0.0


def test_sweep_determinism_byte_identical(tmp_path):
    cfg = oscillator_cfg(oracle={"enabled": True, "n_max": 20_000})
    path = write_config(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("mode, units", [("oscillator", "reduced"),
                                         ("series-rlc", "si")])
def test_oracle_rows_reuse_the_point_paths_parameters(tmp_path, monkeypatch,
                                                      mode, units):
    # the point path checks the units once per sweep, when it is built,
    # and an oracle row sums on the OscillatorParams its closed form ran
    # on: no row converts units again, and one params_at per row serves both
    from fluctforce import circuits, matsubara
    from fluctforce.oscillator import ParametricModel
    logs = {}
    for owner, name in ((circuits, "units_factors"),
                        (ParametricModel, "params_at"),
                        (matsubara, "force_sum_exact")):
        def logged(*args, _f=getattr(owner, name), _log=logs.setdefault(
                name, [])):
            _log.append(args)
            return _f(*args)
        monkeypatch.setattr(owner, name, logged)
    cfg = oscillator_cfg(mode=mode, units=units,
                         oracle={"enabled": True})
    if mode == "series-rlc":
        cfg["parameters"] = {"resistance": 2.0, "inductance": 1.0,
                             "capacitance": {"coeff": 0.5, "power": 1.0},
                             "temperature": 1e-3}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) \
        == 0
    assert logs["units_factors"] == [(0.0, units)]
    assert len(logs["params_at"]) == len(logs["force_sum_exact"]) == 8
    for (model, lam, t_freq), (p, m, at) in zip(logs["params_at"],
                                                logs["force_sum_exact"]):
        assert (m, at) == (model, lam)
        assert p == model.params_at(lam, t_freq)


def test_sweep_workers_do_not_change_output(tmp_path):
    cfg = oscillator_cfg(oracle={"enabled": True, "n_max": 20_000})
    path = write_config(tmp_path, "c.json", cfg)
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(["sweep", "--config", path, "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", path, "--out", str(out4),
                 "--workers", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_json_format_output(tmp_path):
    cfg = oscillator_cfg(output={"format": "json"})
    out = tmp_path / "o.json"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "fluctforce/1"
    assert payload["columns"][0] == "lambda"
    assert len(payload["rows"]) == 8
    assert payload["rows"][0]["regime"] == "exact"


def test_temperature_sweep(tmp_path):
    cfg = oscillator_cfg()
    cfg["parameters"]["lambda"] = 1.0
    cfg["sweep"] = {"parameter": "temperature", "start": 0.1, "stop": 10.0,
                    "points": 6, "spacing": "log"}
    out = tmp_path / "t.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    forces_col = [float(r["force"]) for r in rows]
    assert all(f < 0.0 for f in forces_col)
    # classical growth with T at the high end
    assert abs(forces_col[-1]) > abs(forces_col[0])


def test_parallel_rlc_mode(tmp_path):
    cfg = {
        "schema": "fluctforce/1", "mode": "parallel-rlc", "units": "reduced",
        "parameters": {"resistance": 50.0, "capacitance": 1.0,
                       "inductance": {"coeff": 1.0, "power": 1.0},
                       "temperature": 0.5},
        "sweep": {"parameter": "lambda", "start": 0.5, "stop": 2.0,
                  "points": 5, "spacing": "linear"},
        "oracle": {"enabled": True, "n_max": 30_000},
    }
    out = tmp_path / "p.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    # dL/dlam > 0: the swept inductance pulls Omega down, so the force
    # is positive (repulsive) and tracks the oracle
    for row in rows:
        assert float(row["force"]) > 0.0
        assert float(row["discrepancy"]) <= 1e-8


def test_validate_suite_pass(capsys):
    assert main(["validate", "--suite", "paper-numbers"]) == 0
    out = capsys.readouterr().out
    assert "PASS planar-relative-weights" in out
    assert "PASS sphere-plate-relative-weights" in out


def test_validate_unknown_suite():
    assert main(["validate", "--suite", "does-not-exist"]) == 2


def test_validate_criterion_value_error_is_not_a_usage_error(monkeypatch):
    # a fault inside a criterion propagates; it is not an unknown suite
    from fluctforce import validation

    def broken():
        raise ValueError("criterion fault")

    monkeypatch.setattr(validation, "criterion_planar_weights", broken)
    with pytest.raises(ValueError, match="criterion fault"):
        main(["validate", "--suite", "paper-numbers"])


def test_validate_has_no_n_max_option(capsys):
    # every oracle sums 32 terms, so there is no term count to set
    assert main(["validate", "--suite", "circuits", "--n-max", "100000"]) == 2
    assert "unrecognized arguments: --n-max" in capsys.readouterr().err


def test_divergent_sum_exit_code(tmp_path):
    # Ohmic damping with lambda-dependent gamma0 and the oracle enabled
    cfg = oscillator_cfg(oracle={"enabled": True, "n_max": 10_000})
    cfg["parameters"]["gamma0"] = {"coeff": 0.3, "power": 1.0}
    del cfg["sweep"]
    cfg["parameters"]["lambda"] = 1.0
    assert main(["force", "--config",
                 write_config(tmp_path, "c.json", cfg)]) == 3


# One config per kind of row, plus one with the oracle.  Each is
# written to disk as JSON, so its floats are exactly the ones below.
GOLDEN_CONFIGS = {
    "ohmic": oscillator_cfg(),
    "drude": oscillator_cfg(
        parameters={"damping": "drude", "lambda": 1.2,
                    "omega0": {"coeff": 1.5, "power": -0.5},
                    "gamma0": {"coeff": 0.4, "power": 1.0},
                    "omega_d": {"coeff": 60.0, "power": 0.5}},
        sweep={"parameter": "temperature", "start": 0.05, "stop": 5.0,
               "points": 7, "spacing": "log"}),
    "series": {
        "schema": "fluctforce/1", "mode": "series-rlc", "units": "si",
        "parameters": {"resistance": 4000.0, "inductance": 1e-6,
                       "capacitance": {"planar": {"area": 1e-4,
                                                  "epsilon": 2.0}},
                       "temperature": 4.0, "element_size": 1e-2},
        "sweep": {"parameter": "lambda", "start": 1e-6, "stop": 1e-5,
                  "points": 6, "spacing": "log"}},
    "parallel": {
        "schema": "fluctforce/1", "mode": "parallel-rlc",
        "units": "reduced",
        "parameters": {"resistance": 2.0, "capacitance": 0.7,
                       "inductance": {"coeff": 1.3, "power": -1.0},
                       "regime": "high-T", "lambda": 0.8},
        "sweep": {"parameter": "temperature", "start": 1.0, "stop": 20.0,
                  "points": 5, "spacing": "linear"}},
    "planar": {
        "schema": "fluctforce/1", "mode": "planar", "units": "si",
        "parameters": {"area": 2.5e-5, "epsilon": 1.5, "inductance": 1e-6,
                       "resistance": 1e-3, "temperature": 0.01,
                       "regime": "low-T"},
        "sweep": {"parameter": "lambda", "start": 2e-6, "stop": 2e-5,
                  "points": 6, "spacing": "log"}},
    "sphere-plate": {
        "schema": "fluctforce/1", "mode": "sphere-plate", "units": "si",
        "parameters": {"radius": 1e-4, "inductance": 1e-6,
                       "temperature": 300.0, "regime": "high-T",
                       "lambda": 2e-5},
        "sweep": {"parameter": "temperature", "start": 10.0, "stop": 400.0,
                  "points": 6, "spacing": "linear"}},
    "oracle": {
        "schema": "fluctforce/1", "mode": "series-rlc", "units": "reduced",
        "parameters": {"resistance": 0.8, "inductance": 1.1,
                       "capacitance": {"coeff": 0.9, "power": 1.0},
                       "temperature": 0.6},
        "sweep": {"parameter": "lambda", "start": 0.5, "stop": 1.5,
                  "points": 4, "spacing": "linear"},
        "oracle": {"enabled": True, "n_max": 20_000}},
    # a Drude oracle whose n_max lies far beyond the 32 direct terms
    "oracle-large": oscillator_cfg(
        parameters={"damping": "drude", "temperature": 0.4,
                    "omega0": {"coeff": 1.2, "power": 0.5},
                    "gamma0": {"coeff": 0.3, "power": 1.0},
                    "omega_d": 40.0},
        sweep={"parameter": "lambda", "start": 0.8, "stop": 1.6,
               "points": 3, "spacing": "linear"},
        oracle={"enabled": True, "n_max": 1_100_000}),
}

# sha256 of the CSV and JSON output of each config above.  The digests
# pin every output byte on x86-64 Linux with CPython 3.11 and numpy 2.4;
# a libm or numpy that rounds differently changes them too.
GOLDEN_DIGESTS = {
    "drude": (
        "f5c66c04e7fe72faffcab60d9a27685fac565f89da0d44b9bc7e95c227b7326c",
        "785f475136b67dffe641c923bfbebe500afa28907a143e5282471583c8b47e13"),
    "ohmic": (
        "8ee77dd11be0ad503e540ffd89a88c027463b376411f5f40fadfee7ec29db4f5",
        "d976cc5dd6718160239893bb283c8f015be89a41f9f25e4f423cdc8fd86b4da4"),
    "oracle": (
        "19db034943ee0e53107f5664697a4bb797229c32b6f85ae1c0397836508f51d8",
        "5309e50a4b65f31303fd207e23cd901c9756dabd5489a0e411213f2770082f08"),
    "oracle-large": (
        "29e776b6235717644e6c25c7c4a90a52369b3d769f959afc13c0f8e9450d9b61",
        "3efad1dbe5a46df5fe108e54d80c1041761a880438c70c31b07f8c252485567a"),
    "parallel": (
        "e1cce402403c0f867b570bcb1c26b4be95a4ed2c6af1c16ce399037606fe9e96",
        "aa1ddffc1b13b088aebc8a0713f40d96ce01bb5a91ce103d019bacdfed9d131e"),
    "planar": (
        "8e79137d79730fb71779ff1e4f606d006693fdedfe43574d36e3c846499343a3",
        "2d7bccfaaaa70ddec5114dea20610c3052717ea70e42ce3e34e09c1ee9802dfb"),
    "series": (
        "703c514d1d100bdad0b4313c8bde5dac8a6ab55c2ffbf794ae788a76df7463ab",
        "e1f70227d516707529167eb20df49a235abf6b76e2237e7f0fec238a44335656"),
    "sphere-plate": (
        "06b2fead189b5f7a05a69697ef01894d09b94ede88a0cd8addbbee688e4b7026",
        "f41572c7764e3d38190bff8d9230b71cc9d15e42145c12ee967b3129174ea5e5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_output_bytes(tmp_path, name):
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS[name])
    for fmt, digest in zip(("csv", "json"), GOLDEN_DIGESTS[name]):
        for workers in ("1", "4"):
            out = tmp_path / f"{name}-{workers}.{fmt}"
            assert main(["sweep", "--config", path, "--out", str(out),
                         "--format", fmt, "--workers", workers]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
                (fmt, workers)


def _set(path, value):
    """Config transform that sets the key at a dotted path."""
    def apply(cfg):
        *outer, last = path.split(".")
        node = cfg
        for key in outer:
            node = node.setdefault(key, {})
        node[last] = value
        return cfg
    return apply


def _on_series(edit):
    """Config transform that applies edit to the SI series-RLC config."""
    return lambda cfg: edit(copy.deepcopy(GOLDEN_CONFIGS["series"]))


@pytest.mark.parametrize("edit", [
    _set("workers", "two"),
    _set("oracle", {"enabled": True, "n_max": "x"}),
    _set("parameters.omega0", {"coeff": "x", "power": 0.5}),
    _set("parameters.temperature", float("nan")),   # written as NaN
    _set("sweep.stop", float("inf")),               # written as Infinity
    _set("parameters.temperature", "inf"),
    _set("parameters.omega0", {"coeff": "1e999"}),
    _on_series(_set("parameters.element_size", 0)),
    _on_series(_set("parameters.element_size", -1e-2)),
    _on_series(_set("parameters.capacitance", {"planar": 5})),
], ids=["workers-text", "n_max-text", "coeff-text", "temperature-NaN",
        "stop-Infinity", "temperature-inf-text", "coeff-overflow",
        "element_size-zero", "element_size-negative", "planar-not-object"])
def test_malformed_numbers_are_config_errors(tmp_path, edit):
    path = write_config(tmp_path, "c.json", edit(oscillator_cfg()))
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_parser_reuse_keeps_calls_apart(tmp_path, monkeypatch, capsys):
    seen = []
    cmd_rows = cli._cmd_rows

    def recording(args):
        if args.command == "sweep":
            seen.append((args.workers, args.format))
        return cmd_rows(args)

    monkeypatch.setattr(cli, "_cmd_rows", recording)
    cfg = oscillator_cfg(oracle={"enabled": True, "n_max": 2_000},
                         workers=2, output={"format": "csv"})
    cfg["sweep"]["points"] = 3
    cfg["parameters"]["lambda"] = 1.0
    path = write_config(tmp_path, "c.json", cfg)
    for k in range(2):
        flagged, plain, single = (tmp_path / f"{name}{k}" for name in
                                  ("flagged", "plain", "single"))
        assert main(["sweep", "--config", path, "--out", str(flagged),
                     "--format", "json", "--workers", "4"]) == 0
        assert main(["sweep", "--config", path, "--out", str(plain)]) == 0
        assert main(["validate", "--suite", "paper-numbers"]) == 0
        assert main(["force", "--config", path, "--out", str(single)]) == 0
        assert json.loads(flagged.read_text())["columns"][0] == "lambda"
        assert plain.read_text().startswith("lambda,force,")
        assert len(single.read_text().strip().split("\n")) == 2
    # the plain sweep sees no flag, so the config's format and workers apply
    assert seen == [(4, "json"), (0, None)] * 2
    assert "PASS planar-relative-weights" in capsys.readouterr().out


def _argparse_reference():
    """The argparse parser the CLI had, kept as the reference for its own."""
    parser = argparse.ArgumentParser(
        prog="fluctforce",
        description="Fluctuation-induced forces of damped oscillators and "
                    "RLC circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("force", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--units", choices=("reduced", "si"), default=None)
        if name == "sweep":
            p.add_argument("--workers", type=int, default=0)
    v = sub.add_parser("validate")
    v.add_argument("--suite", required=True)
    return parser


_PARSE_CASES = [
    # each command with every option, in any order
    ["force", "--config", "c.json"],
    ["force", "--config", "c", "--out", "o", "--format", "json",
     "--units", "si"],
    ["force", "--units", "reduced", "--format", "csv", "--out", "o",
     "--config", "c"],
    ["sweep", "--config", "c", "--out", "o", "--format", "csv",
     "--units", "si", "--workers", "4"],
    ["sweep", "--workers", "2", "--units", "reduced", "--config", "c",
     "--format", "json", "--out", "o"],
    ["validate", "--suite", "circuits"],
    # --opt=value, repeated options, values that look like options
    ["force", "--config=c", "--out=o", "--format=json", "--units=si"],
    ["sweep", "--config", "a", "--config=b", "--workers", "1",
     "--workers=3", "--format", "csv", "--format", "json"],
    ["force", "--config=", "--out="],
    ["force", "--config=a=b"],
    ["force", "--config", "-"],
    ["force", "--config", "-1.5"],
    ["force", "--config", "-x y"],
    ["sweep", "--config", "c", "--workers", "-1"],
    ["sweep", "--config", "c", "--workers=-1"],
    ["sweep", "--config", "c", "--workers", " 7 "],
    # "--": every later token is positional, and no command takes one
    ["force", "--config", "c", "--", "x"],
    ["force", "--config", "c", "--"],
    ["force", "--", "--config", "c"],
    ["--", "force", "--config", "c"],
    ["validate", "--suite", "--", "x"],
    # unique prefixes, as argparse's allow_abbrev takes them
    ["force", "--conf", "c", "--o", "o", "--f=json", "--u", "si"],
    ["sweep", "--c", "c", "--w", "5"],
    ["validate", "--s", "x"],
    # usage errors
    [],
    ["--config", "c", "force"],
    ["Force", "--config", "c"],
    ["-1"],
    ["--bogus", "force", "--config", "c"],
    ["force"],
    ["sweep", "--out", "o"],
    ["validate"],
    ["force", "--config"],
    ["force", "--config", "--out", "o"],
    ["force", "--config", "-x"],
    ["force", "--config", "c", "--format", "xml"],
    ["force", "--config", "c", "--units", "SI"],
    ["sweep", "--config", "c", "--workers", "two"],
    ["sweep", "--config", "c", "--workers", "2.0"],
    ["sweep", "--config", "c", "--workers"],
    ["force", "--config", "c", "extra"],
    ["force", "--config", "c", "-"],
    ["force", "--config", "c", "--workers", "2"],
    ["force", "--config", "c", "--x=1"],
    ["force", "--help=x"],
    ["validate", "--suite", "circuits", "--n-max", "100000"],
    ["validate", "--suite", "circuits", "--config", "c"],
    ["force", "--config", "c", "sweep", "--config", "d"],
    # help comes before what is checked after the last token, not before
    # a bad value ahead of it
    ["-h"],
    ["--help"],
    ["--he"],
    ["force", "-h"],
    ["sweep", "--config", "c", "--help"],
    ["validate", "--h"],
    ["--bogus", "-h"],
    ["force", "-h", "--format", "xml"],
    ["force", "--format", "xml", "-h"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_parser_matches_argparse(argv, monkeypatch, capsys):
    try:
        want = vars(_argparse_reference().parse_args(argv))
    except SystemExit as exc:
        want = exc.code
    ref = capsys.readouterr()
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    monkeypatch.setattr(cli, "_cmd_rows", record)
    monkeypatch.setattr(cli, "_cmd_validate", record)
    code = main(list(argv))
    got = capsys.readouterr()
    assert (seen[0] if seen else code) == want
    if want == 2:       # the same error, up to wording that varies
        assert got.err.startswith("usage: fluctforce ")   # by version
        assert got.err.splitlines()[-1].split(": ")[1:4] \
            == ref.err.splitlines()[-1].split(": ")[1:4]
    elif want == 0:
        assert got.out.startswith("usage: fluctforce ") and not got.err
        assert ref.out.startswith("usage: fluctforce ")


def test_attached_double_dash_is_a_config_path(tmp_path, monkeypatch,
                                               capsys):
    # the parser's one pinned difference from the argparse reference:
    # "--config=--" names the file "--", where argparse before Python
    # 3.13 took an attached "--" for the end of options and gave []
    monkeypatch.chdir(tmp_path)
    assert main(["force", "--config=--"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config: ")
    assert err.endswith(": '--'\n")


def test_console_script_reads_sys_argv(tmp_path, monkeypatch, capsys):
    # the fluctforce entry point calls main() with no argument
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS["ohmic"])
    out = tmp_path / "o.csv"
    monkeypatch.setattr(sys, "argv", ["fluctforce", "sweep", "--config",
                                      path, "--out", str(out)])
    assert main() == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == GOLDEN_DIGESTS["ohmic"][0]
    monkeypatch.setattr(sys, "argv", ["fluctforce", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: fluctforce ")
    monkeypatch.setattr(sys, "argv", ["fluctforce", "sweep", "--out", "o"])
    assert main() == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --config\n")

_AWKWARD_ROWS = [
    {"lambda": None, "force": -0.0, "f_omega": 5e-324, "f_gamma0": 1e300,
     "f_omegaD": -1e-300, "regime": 'say "hi"', "oracle": 0.0,
     "discrepancy": 2.5, "warnings": "back\\slash\nnew line\ttab",
     "f_casimir": "ünïcödé ☃ 𝄞", "r_weight": ""},
    {"lambda": 0.1 + 0.2, "force": -1.7976931348623157e308,
     "regime": "exact", "warnings": "a;b", "oracle": None},
]


@pytest.mark.parametrize("columns", [cli.BASE_COLUMNS, cli.GEOMETRY_COLUMNS])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_render_json_is_indented_dumps(columns, count):
    # rows as the CLI builds them: the cells of the columns, in order
    rows = [{c: row.get(c) for c in columns} for row in _AWKWARD_ROWS[:count]]
    payload = {"schema": cli.SCHEMA, "columns": list(columns), "rows": rows}
    assert cli._render(columns, [list(r.values()) for r in rows], "json") \
        == json.dumps(payload, indent=2) + "\n"


def _render_csv_reference(columns, rows) -> str:
    """The CSV renderer of dict rows that the cell encoder replaced,
    verbatim: the reference for its CSV bytes."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([
            _repr(v) if type(v) is float else "" if v is None else v
            for v in row.values()]))
    lines.append("")
    return "\n".join(lines)


_repr = float.__repr__
_SUM = 0.1 + 0.2
# rows whose floats the cell cache must not give another float's text:
# signed zeros, which compare equal, after each other and back; equal
# floats that are distinct objects; a repeated float with None or a str
# between; and floats that JSON spells as names, next to strings that
# look like them
_CACHE_ROWS = [
    [0.0, -0.0, 0.0, -0.0, -0.0, "0.0", 0.0, 0.0, "-0.0"],
    [_SUM, float(repr(_SUM)), 3 * 0.1, -_SUM, _SUM, "", 0.5 + 0.5, 1.0,
     None],
    [1.5, None, 1.5, "1.5", 1.5, None, -1.5, "", 1.5],
    [math.inf, math.inf, -math.inf, math.nan, math.nan, "a: inf",
     ": nan,\n", None, "-inf"],
]


@pytest.mark.parametrize("count", range(len(_CACHE_ROWS) + 1))
def test_cell_cache_keeps_every_float_its_own_text(count):
    sums = _CACHE_ROWS[1]   # equal floats, distinct objects
    assert sums[0] == sums[1] and sums[0] is not sums[1]
    columns = cli.BASE_COLUMNS
    for rows in (_CACHE_ROWS[:count], _CACHE_ROWS[count:][:1]):
        dicts = [dict(zip(columns, row)) for row in rows]
        payload = {"schema": cli.SCHEMA, "columns": list(columns),
                   "rows": dicts}
        assert cli._render(columns, rows, "json") \
            == json.dumps(payload, indent=2) + "\n"
        assert cli._render(columns, rows, "csv") \
            == _render_csv_reference(columns, dicts)


_OVERFLOWING_LAWS = [
    ({"coeff": 1e300, "power": 0.5}, 1e-300),   # dOmega/dlambda overflows
    ({"coeff": 1.0, "power": 2.0}, 1e200),      # Omega itself overflows
]


@pytest.mark.parametrize("command, law, lam", [
    ("force", {"coeff": 1.0, "power": 0.5}, -1.0),   # Omega would be complex
] + [(command, law, lam) for command in ("force", "sweep")
     for law, lam in _OVERFLOWING_LAWS])
def test_overflowing_power_law_is_a_domain_error(tmp_path, capsys, command,
                                                  law, lam):
    cfg = oscillator_cfg()
    cfg["parameters"]["omega0"] = law
    cfg["parameters"]["lambda"] = lam
    cfg["sweep"] = {"start": lam, "stop": lam, "points": 1}
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("domain error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, regime, params, start", [
    # dC/dd = -C/d and the Casimir reference overflow
    ("planar", "high-T", {"area": 1e300, "resistance": 1e-3}, 1e-10),
    # the T = 0 log of a root that rounds to 0, then gap**4 underflows
    ("planar", "low-T", {"area": 2.5e-5, "resistance": 1e-3}, 1e-90),
    ("sphere-plate", "low-T", {"radius": 1e-4}, 1e-110),
], ids=["planar-high-T-area", "planar-low-T-gap", "sphere-plate-low-T-gap"])
@pytest.mark.parametrize("command", ["force", "sweep"])
def test_non_finite_geometry_rows_are_domain_errors(tmp_path, capsys, mode,
                                                    regime, params, start,
                                                    command):
    cfg = {"schema": "fluctforce/1", "mode": mode, "units": "si",
           "parameters": dict(params, inductance=1e-6, temperature=300.0,
                              regime=regime, **{"lambda": start}),
           "sweep": {"parameter": "lambda", "start": start, "stop": 2e-5,
                     "points": 3, "spacing": "linear"}}
    out = tmp_path / "o.csv"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("domain error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, params", [
    # a negative temperature made the high-T sphere-plate force repulsive
    ("sphere-plate", {"radius": 1e-4, "inductance": 1e-6, "gap": 1e-6,
                      "temperature": -300.0, "regime": "high-T"}),
    ("sphere-plate", {"radius": 1e-4, "inductance": 1e-6, "gap": 1e-6,
                      "temperature": -300.0, "regime": "low-T"}),
    ("planar", {"area": 1e-4, "inductance": 1e-6, "resistance": 1e-3,
                "temperature": -300.0, "regime": "high-T"}),
    # gamma = R/L divided by zero
    ("series-rlc", {"resistance": 1.0, "inductance": 0.0,
                    "capacitance": 1.0, "temperature": 0.5}),
], ids=["sphere-plate-high-T", "sphere-plate-low-T", "planar-high-T",
        "series-rlc-zero-inductance"])
def test_negative_temperature_and_zero_inductance_exit_3(tmp_path, capsys,
                                                         mode, params):
    cfg = {"schema": "fluctforce/1", "mode": mode,
           "units": "reduced" if mode == "series-rlc" else "si",
           "parameters": dict(params, **{"lambda": 1e-6})}
    out = tmp_path / "o.csv"
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("domain error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, regime", [
    ("sphere-plate", "high-T"), ("sphere-plate", "low-T"),
    ("planar", "high-T"), ("planar", "low-T")])
def test_negative_inductance_is_named_in_every_regime(tmp_path, capsys, mode,
                                                      regime):
    params = {"radius": 1e-4} if mode == "sphere-plate" else \
        {"area": 1e-4, "resistance": 1e-3}
    cfg = {"schema": "fluctforce/1", "mode": mode, "units": "si",
           "parameters": dict(params, inductance=-1e-6, temperature=300.0,
                              regime=regime, **{"lambda": 1e-6})}
    out = tmp_path / "o.csv"
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "domain error: inductance must be positive")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    _set("oracle", {"enabled": "no"}),
    _set("oracle", {"enabled": 1}),
    _set("oracle", {"enabled": None}),
    _set("sweep.points", 2.7),
    _set("sweep.points", True),
    _set("oracle", {"enabled": True, "n_max": 2000.5}),
    _set("oracle", {"enabled": True, "n_max": True}),
    _set("oracle", {"enabled": True, "n_max": 0}),
    _set("oracle", {"enabled": True, "n_max": -5}),
    _set("workers", 2.7),
    _set("workers", True),
    _set("parameters.temperature", True),
    _set("parameters.gamma0", False),
    _set("parameters.omega0", {"coeff": True, "power": 0.5}),
    _set("parameters.temperature", "0.5"),
    _set("sweep.start", "0.5"),
    _set("sweep.points", 10**12),
    _set("sweep.points", 10**6 + 1),
], ids=["enabled-text", "enabled-int", "enabled-null", "points-fraction",
        "points-true", "n_max-fraction", "n_max-true", "n_max-zero",
        "n_max-negative", "workers-fraction", "workers-true",
        "temperature-true", "gamma0-false", "coeff-true",
        "temperature-numeric-text", "start-numeric-text", "points-1e12",
        "points-over-cap"])
def test_wrongly_typed_config_values_are_config_errors(tmp_path, capsys,
                                                       edit):
    path = write_config(tmp_path, "c.json", edit(oscillator_cfg()))
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode, params", [
    # gamma0 = 0.3 lam makes the Ohmic force diverge; it wrote the force
    # of a constant gamma0
    ("oscillator", {"damping": "ohmic", "temperature": 0.5,
                    "omega0": {"coeff": 1.0, "power": 0.5},
                    "gamma0": {"coeff": 0.3, "power": 1.0}}),
    # an unhashable regime is as unknown as any other
    ("series-rlc", {"resistance": 0.8, "inductance": 1.1,
                    "capacitance": {"coeff": 0.9, "power": 1.0},
                    "temperature": 0.6, "regime": ["exact"]}),
], ids=["ohmic-gamma0-law", "regime-list"])
def test_swept_ohmic_damping_and_unknown_regime_exit_3(tmp_path, capsys,
                                                       mode, params):
    cfg = {"schema": "fluctforce/1", "mode": mode, "units": "reduced",
           "parameters": params}
    out = tmp_path / "o.csv"
    assert main(["force", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("domain error: ")
    assert not out.exists()


def test_zero_power_resistance_is_the_constant(tmp_path):
    cfg = {"schema": "fluctforce/1", "mode": "series-rlc", "units": "reduced",
           "parameters": {"resistance": 2.0, "inductance": 1.0,
                          "capacitance": {"coeff": 0.8, "power": 1.0},
                          "temperature": 0.3},
           "sweep": {"start": 0.5, "stop": 1.5, "points": 5}}
    outputs = []
    for resistance in (2.0, {"coeff": 2.0, "power": 0}):
        cfg["parameters"]["resistance"] = resistance
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("edit, argv", [
    # --units replaces the config's units before the SI-only check
    (lambda cfg: cfg, ["--units", "reduced"]),
    # geometry modes have no oracle
    (_set("oracle", {"enabled": "yes"}), []),
    (_set("oracle", {"enabled": True}), []),
], ids=["units-reduced", "oracle-enabled-text", "oracle-enabled"])
@pytest.mark.parametrize("mode", ["planar", "sphere-plate"])
def test_geometry_modes_check_units_and_oracle(tmp_path, capsys, mode, edit,
                                                argv):
    path = write_config(tmp_path, "c.json",
                        edit(copy.deepcopy(GOLDEN_CONFIGS[mode])))
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", path, "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_integral_floats_stay_valid(tmp_path):
    outputs = []
    for points, n_max, workers in ((4, 2000, 2), (4.0, 2e3, 2.0)):
        cfg = oscillator_cfg(oracle={"enabled": True, "n_max": n_max},
                             workers=workers)
        cfg["sweep"]["points"] = points
        out = tmp_path / f"o{len(outputs)}.csv"
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].decode().strip().split("\n")) == 5


@pytest.mark.parametrize("damping", ["ohmic", "drude"])
def test_oracle_n_max_changes_no_byte(tmp_path, damping):
    # every oracle sums the same 32 terms; n_max is only checked
    outputs = []
    for n_max in (1, 100_000):
        cfg = oscillator_cfg(oracle={"enabled": True, "n_max": n_max})
        if damping == "drude":
            cfg["parameters"].update(damping="drude", omega_d=30.0)
        out = tmp_path / f"o{n_max}.csv"
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_existing_output_is_replaced(tmp_path, fmt):
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS["drude"])
    fresh = tmp_path / f"fresh.{fmt}"
    argv = ["sweep", "--config", path, "--format", fmt, "--out"]
    assert main(argv + [str(fresh)]) == 0
    want = fresh.read_bytes()
    out = tmp_path / f"out.{fmt}"
    for old in (b"x" * (3 * len(want) + 17), want[:-40], b"", want,
                b"\n" * 5, b"x", b"z" * len(want)):
        out.write_bytes(old)
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == want
    # a symlinked output path is written through, and stays a link
    target = tmp_path / "target"
    target.write_bytes(b"y" * (2 * len(want)))
    link = tmp_path / f"link.{fmt}"
    link.symlink_to(target)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == want


def test_existing_output_is_rewritten_in_place(tmp_path, monkeypatch):
    # never opened with O_TRUNC nor cut to 0 bytes, which on ext4 makes
    # close() start writeback; the inode, its mode and links stay
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS["drude"])
    out, link = tmp_path / "out.csv", tmp_path / "link.csv"
    out.write_bytes(b"x" * 100_000)
    out.chmod(0o640)
    os.link(out, link)
    inode = out.stat().st_ino
    opens, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def guarded_open(file, flags, *args, **kwargs):
        opens.append(flags)
        assert not flags & os.O_TRUNC, "output opened with O_TRUNC"
        return real_open(file, flags, *args, **kwargs)

    def guarded_ftruncate(fd, length):
        cuts.append(length)
        assert length > 0, "output truncated to 0 bytes"
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", guarded_open)
    monkeypatch.setattr(os, "ftruncate", guarded_ftruncate)
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert opens and cuts == [1]
    monkeypatch.undo()
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", "--config", path, "--out", str(fresh)]) == 0
    assert out.read_bytes() == link.read_bytes() == fresh.read_bytes()
    st = out.stat()
    assert st.st_ino == inode and st.st_nlink == 2
    assert stat.S_IMODE(st.st_mode) == 0o640


_NO_SPACE = (f"config error: cannot write output: [Errno {errno.ENOSPC}] "
             f"{os.strerror(errno.ENOSPC)}\n")


class _FullDisk(io.FileIO):
    """An output file whose every write fails as on a full disk."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _full_disk_open(file, mode="r", *args, **kwargs):
    if mode == "wb":
        return _FullDisk(file, "w")
    return open(file, mode, *args, **kwargs)


def test_failed_output_write_leaves_at_most_the_first_byte(tmp_path, capsys,
                                                           monkeypatch):
    out = tmp_path / "out.csv"
    old = b"old output\n" * 1000
    out.write_bytes(old)
    monkeypatch.setattr(cli, "open", _full_disk_open, raising=False)
    assert main(["sweep", "--config",
                 write_config(tmp_path, "c.json", oscillator_cfg()),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == _NO_SPACE
    assert out.read_bytes() in (b"", old[:1])


@pytest.mark.parametrize("device, code, err", [
    ("/dev/null", 0, ""),
    ("/dev/full", 2, _NO_SPACE),
])
def test_output_to_a_device(tmp_path, capsys, device, code, err):
    # a device has st_size 0: written, never cut
    if not os.path.exists(device):
        pytest.skip(f"no {device} on this platform")
    assert main(["sweep", "--config",
                 write_config(tmp_path, "c.json", oscillator_cfg()),
                 "--out", device]) == code
    assert capsys.readouterr().err == err


def test_output_to_a_fifo_is_the_file_bytes(tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no os.mkfifo on this platform")
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS["drude"])
    fresh, fifo = tmp_path / "fresh.csv", tmp_path / "fifo"
    assert main(["sweep", "--config", path, "--out", str(fresh)]) == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(["sweep", "--config", path, "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [fresh.read_bytes()]


class _InConfig(str):
    """An output path given as the config's output.path, not by --out."""


@pytest.mark.parametrize("path, message", [
    (5, "output.path must be a string"),            # not a file descriptor
    (2.5, "output.path must be a string"),
    ({"a": 1}, "output.path must be a string"),
    (True, "output.path must be a string"),         # nor fd 1
    pytest.param(_InConfig(""), "the output path is empty",
                 id="config-empty"),                # nor stdout
    pytest.param("", "the output path is empty", id="out-empty"),
    ("missing/x.csv", "cannot write output: "),     # via --out
    (".", "cannot write output: "),                 # a directory
])
def test_bad_output_path_is_a_config_error(tmp_path, capsys, monkeypatch,
                                           path, message):
    if not message.startswith("cannot write"):  # checked before any row
        monkeypatch.setattr(cli, "_compute_rows", None)
    argv = ["sweep", "--config"]
    if type(path) is str:
        argv += [write_config(tmp_path, "c.json", oscillator_cfg()),
                 "--out", str(tmp_path / path) if path else path]
    else:
        argv.append(write_config(tmp_path, "c.json",
                                 oscillator_cfg(output={"path": path})))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}")
    assert not (tmp_path / "missing").exists()
    assert not sys.stdout.closed


def test_closed_stdout_is_a_config_error(tmp_path, capsys, monkeypatch):
    # `fluctforce sweep ... >&-`: Python starts with sys.stdout = None
    argv = ["sweep", "--config",
            write_config(tmp_path, "c.json", oscillator_cfg())]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("config error: cannot write output: standard output "
                   "is closed\n")


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_on_stdout_is_a_config_error(tmp_path, capsys,
                                                 monkeypatch):
    # `fluctforce sweep ... | head -c 0`: the reader has gone
    argv = ["sweep", "--config",
            write_config(tmp_path, "c.json", oscillator_cfg())]
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("config error: cannot write output: [Errno 32] Broken "
                   "pipe\n")


@pytest.mark.parametrize("points", [8, 20_000])
def test_broken_pipe_in_a_fresh_interpreter_exits_2(tmp_path, points):
    # a small output stays in stdout's buffer after the failed flush; the
    # flush at interpreter exit must not fail on it again.  Buffered
    # stdout, as in a shell: PYTHONUNBUFFERED would hide that flush.
    cfg = oscillator_cfg()
    cfg["sweep"]["points"] = points
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fluctforce.cli", "sweep", "--config",
             write_config(tmp_path, "c.json", cfg)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == (b"config error: cannot write output: "
                           b"[Errno 32] Broken pipe\n")


def test_render_json_strings_that_look_like_row_separators():
    tricky = ["},\n      {", "}, {", "}\n    },\n    {\n      {", "{", "}"]
    rows = [{"lambda": float(i), "force": None, "regime": text,
             "warnings": text + ";" + text} for i, text in enumerate(tricky)]
    rows.append(dict(zip(cli.BASE_COLUMNS, tricky * 2)))
    columns = cli.BASE_COLUMNS
    rows = [{c: row.get(c) for c in columns} for row in rows]
    payload = {"schema": cli.SCHEMA, "columns": list(columns), "rows": rows}
    cells = [list(row.values()) for row in rows]
    for count in range(len(rows) + 1):
        payload_part = dict(payload, rows=rows[:count])
        assert cli._render(columns, cells[:count], "json") \
            == json.dumps(payload_part, indent=2) + "\n"


def test_bare_value_error_is_not_a_domain_error(tmp_path, monkeypatch,
                                               capsys):
    # exit 3 is for the library's own errors; a bare ValueError is a bug
    def broken_rows(cfg):
        def row(lam, temperature):
            raise ValueError("internal bug")
        return row

    monkeypatch.setattr(cli, "_row_function", broken_rows)
    path = write_config(tmp_path, "c.json", oscillator_cfg())
    for command in ("force", "sweep"):
        with pytest.raises(ValueError, match="internal bug") as info:
            main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert type(info.value) is ValueError
    assert "domain error" not in capsys.readouterr().err


# cli.main on each argv in one fresh interpreter, noting after the import
# and after each call whether numpy and the Matsubara oracles have been
# loaded.
_FRESH = """
import json, sys
def loaded():
    return ["numpy" in sys.modules, "fluctforce.matsubara" in sys.modules]
import fluctforce
steps = [["import fluctforce"] + loaded()]
from fluctforce import cli
steps.append(["import fluctforce.cli"] + loaded())
for argv in json.loads(sys.argv[1]):
    steps.append([cli.main(argv)] + loaded())
print(json.dumps(steps))
"""


def _run_fresh(script, *args):
    """The JSON a script prints last, run in a fresh interpreter that
    imports from the package and the test modules."""
    src = str(Path(cli.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def _fresh(*argvs):
    return [tuple(step) for step in _run_fresh(_FRESH, json.dumps(argvs))]


_CLOSED_MODES = ("ohmic", "drude", "series", "parallel", "planar",
                 "sphere-plate")


def test_closed_forms_leave_numpy_unloaded(tmp_path):
    argvs = []
    for name in _CLOSED_MODES:
        write_config(tmp_path, f"{name}.json", GOLDEN_CONFIGS[name])
        cfg = copy.deepcopy(GOLDEN_CONFIGS[name])
        cfg["parameters"].setdefault("temperature", 2.0)
        argvs.append(["force", "--config",
                      write_config(tmp_path, f"force-{name}.json", cfg),
                      "--out", str(tmp_path / f"{name}.csv")])
    for name, fmt in (("ohmic", "csv"), ("parallel", "json"),
                      ("sphere-plate", "csv")):      # linear sweeps
        assert GOLDEN_CONFIGS[name]["sweep"]["spacing"] == "linear"
        argvs.append(["sweep", "--config", str(tmp_path / f"{name}.json"),
                      "--format", fmt,
                      "--out", str(tmp_path / f"sweep-{name}.{fmt}")])
    steps = _fresh(*argvs)
    assert steps == [("import fluctforce", False, False),
                     ("import fluctforce.cli", False, False)] \
        + [(0, False, False)] * 9
    for name, fmt, digest in (("ohmic", "csv", 0), ("parallel", "json", 1),
                              ("sphere-plate", "csv", 0)):
        data = (tmp_path / f"sweep-{name}.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() \
            == GOLDEN_DIGESTS[name][digest]


@pytest.mark.parametrize("name, fmt", [("oracle-large", "csv"),
                                       ("drude", "json")],
                         ids=["oracle-sweep", "log-sweep"])
def test_numpy_sweeps_load_it_on_first_use(tmp_path, name, fmt):
    # numpy only for the log spacing of the closed-form sweep: the linear
    # Drude oracle sweep loads the Matsubara oracles, whose pole finder
    # is plain Python, and no numpy
    out = tmp_path / f"o.{fmt}"
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS[name])
    steps = _fresh(["sweep", "--config", path, "--format", fmt,
                    "--out", str(out)])
    assert GOLDEN_CONFIGS["drude"]["sweep"]["spacing"] == "log"
    assert GOLDEN_CONFIGS["oracle-large"]["sweep"]["spacing"] == "linear"
    assert steps == [("import fluctforce", False, False),
                     ("import fluctforce.cli", False, False),
                     (0, name == "drude", name == "oracle-large")]
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == GOLDEN_DIGESTS[name][("csv", "json").index(fmt)]


def test_ohmic_oracle_sweeps_leave_numpy_unloaded(tmp_path):
    # the Ohmic poles are a quadratic's roots in closed form: an oracle
    # sweep of the Ohmic family with linear spacing needs no numpy
    cfg = copy.deepcopy(GOLDEN_CONFIGS["ohmic"])
    cfg["oracle"] = {"enabled": True, "n_max": 1_000_000}
    assert cfg["sweep"]["spacing"] == "linear"
    argvs = [["sweep", "--config", write_config(tmp_path, f"{name}.json", c),
              "--format", fmt, "--out", str(tmp_path / f"{name}.{fmt}")]
             for name, c, fmt in (("oracle", GOLDEN_CONFIGS["oracle"], "csv"),
                                  ("ohmic", cfg, "json"))]
    assert _fresh(*argvs) == [("import fluctforce", False, False),
                              ("import fluctforce.cli", False, False),
                              (0, False, True), (0, False, True)]
    assert hashlib.sha256((tmp_path / "oracle.csv").read_bytes()).hexdigest() \
        == GOLDEN_DIGESTS["oracle"][0]


# one call of each Drude oracle in a fresh interpreter, noting after the
# import and after each call whether numpy has been loaded
_FRESH_DRUDE = """
import json, sys
from fluctforce import matsubara
from fluctforce.oscillator import Drude, OscillatorParams, ParametricModel
steps = [["import fluctforce.matsubara", "numpy" in sys.modules]]
p = OscillatorParams(1.0, Drude(0.3, 30.0), 0.5)
m = ParametricModel(lambda lam: 1.0, lambda lam: 1.0, lambda lam: 0.3,
                    lambda lam: 0.5, lambda lam: 30.0, lambda lam: 2.0)
calls = [("force_sum_exact", lambda: matsubara.force_sum_exact(p, m, 1.0)),
         ("free_energy_difference", lambda: matsubara.free_energy_difference(
             p, OscillatorParams(1.7, Drude(0.3, 30.0), 0.5))),
         ("free_energy_drude", lambda: matsubara.free_energy_drude(
             p, roots="exact")),
         ("per_parameter_sums_drude",
          lambda: matsubara.per_parameter_sums_drude(p, m, 1.0))]
for name, call in calls:
    call()
    steps.append([name, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_drude_oracles_leave_numpy_unloaded():
    assert [tuple(step) for step in _run_fresh(_FRESH_DRUDE)] == [
        ("import fluctforce.matsubara", False),
        ("force_sum_exact", False), ("free_energy_difference", False),
        ("free_energy_drude", False), ("per_parameter_sums_drude", False)]


def test_validate_loads_numpy_on_first_use():
    assert _fresh(["validate", "--suite", "paper-numbers"]) == [
        ("import fluctforce", False, False),
        ("import fluctforce.cli", False, False), (0, True, True)]


# the package's public names in a fresh interpreter: `import *`, dir()
# and attribute access resolve every name in __all__, and only a name
# from the Matsubara oracles loads them
_FRESH_NAMES = """
import json, sys
import fluctforce
steps = ["fluctforce.matsubara" in sys.modules]
listed = set(dir(fluctforce))
steps.append(sorted(set(fluctforce.__all__) - listed))
steps.append("fluctforce.matsubara" in sys.modules)
steps.append(fluctforce.force_ohmic_exact.__module__)
steps.append("fluctforce.matsubara" in sys.modules)
namespace = {}
exec("from fluctforce import *", namespace)
steps.append(sorted(set(fluctforce.__all__) - set(namespace)))
steps.append("fluctforce.matsubara" in sys.modules)
from fluctforce import matsubara
steps.append(all(namespace[n] is getattr(fluctforce, n)
                 for n in fluctforce.__all__))
steps.append(namespace["SumSpec"] is matsubara.SumSpec
             and fluctforce.force_sum_exact is matsubara.force_sum_exact)
try:
    fluctforce.no_such_name
except AttributeError as exc:
    steps.append(str(exc))
print(json.dumps(steps))
"""


def test_package_names_resolve_and_load_the_oracles_on_first_use():
    assert _run_fresh(_FRESH_NAMES) == [
        False, [], False, "fluctforce.forces", False, [], True, True, True,
        "module 'fluctforce' has no attribute 'no_such_name'"]


# A closed force and sweep in a fresh interpreter, which must load neither
# dataclasses nor inspect; then, with dataclasses imported, each sampled
# value type as dataclasses sees it.  The first lookup of a type's
# metadata adds __dataclass_fields__ and __dataclass_params__ to the
# class and nothing else.
_FRESH_METADATA = """
import json, pickle, sys
from fluctforce import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
steps = [codes, "dataclasses" in sys.modules, "inspect" in sys.modules]
import dataclasses
from fluctforce import _value
from fluctforce.errors import DomainError
from test_value_types import SAMPLES
INVALID = {"Ohmic": {"gamma0": -1.0}, "Drude": {"omega_d": 0.0},
           "OscillatorParams": {"omega0": 0.0},
           "PlanarCapacitor": {"gap": 0.0}, "SpherePlate": {"radius": 0.0},
           "SumSpec": {"n_max": 0}, "SeriesRLC": {"element_size": 0.0},
           "ParallelRLC": {"element_size": -1.0}}
def plain(v):
    if isinstance(v, _value.Frozen):
        return {n: plain(getattr(v, n)) for n in v.__match_args__}
    return v
def matched(obj):
    names = ", ".join(f"v{i}" for i in range(len(obj.__match_args__)))
    scope = {"obj": obj, "cls": type(obj)}
    exec(f"match obj:\\n case cls({names}):\\n  got = [{names}]", scope)
    return scope["got"]
added = {}
for cls in dict.fromkeys(cls for cls, *_ in SAMPLES):
    before = set(vars(cls))
    added[cls] = [dataclasses.is_dataclass(cls),
                  sorted(set(vars(cls)) - before)]
for cls, args, _, change in SAMPLES:
    obj = cls(*args)
    row = [cls.__name__, dataclasses.is_dataclass(obj), *added[cls],
           cls.__dataclass_params__.init,
           [f.name for f in dataclasses.fields(obj)]
           == list(cls.__match_args__),
           dataclasses.replace(obj, **change)
           == cls(**{**vars(obj), **change})]
    bad = INVALID.get(cls.__name__, {})
    try:
        dataclasses.replace(obj, **bad)
        row.append(not bad)
    except DomainError:
        row.append(bool(bad))
    row += [dataclasses.asdict(obj) == plain(obj),
            pickle.loads(pickle.dumps(obj)) == obj,
            matched(obj) == [getattr(obj, n) for n in cls.__match_args__]]
    steps.append(row)
steps.append(dataclasses.is_dataclass(_value.Frozen))
print(json.dumps(steps))
"""


def test_value_type_metadata_is_built_on_first_use(tmp_path):
    from test_value_types import SAMPLES
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS["ohmic"])
    steps = _run_fresh(_FRESH_METADATA, json.dumps([
        ["force", "--config", path, "--out", str(tmp_path / "f.csv")],
        ["sweep", "--config", path, "--out", str(tmp_path / "s.csv")]]))
    assert steps[:3] == [[0, 0], False, False]
    assert steps[3:] == [
        [cls.__name__, True, True,
         ["__dataclass_fields__", "__dataclass_params__"],
         False, True, True, True, True, True, True]
        for cls, *_ in SAMPLES] + [False]


def test_linspace_is_numpy_linspace_bit_for_bit():
    import numpy as np
    rng = np.random.default_rng(20261018)
    tiny = 5e-324
    cases = [(1.0, 2.0, 1), (1.0, 2.0, 2), (0.5, 0.5, 7), (3.0, 3.0, 1),
             (1.0, math.nextafter(1.0, 2.0), 5),
             (tiny, 3 * tiny, 7),                       # step underflows
             (-tiny, tiny, 4), (0.0, 2.2e-308, 9),
             (1.7e308, 1.7976931348623157e308, 6),
             (-1.7e308, 1.7e308, 5),                   # delta overflows
             (0.5, 2.0, 10**6)]
    scales = 10.0 ** rng.uniform(-320, 308, (2000, 2))
    signs = np.where(rng.random((2000, 2)) < 0.2, -1.0, 1.0)
    bounds = np.sort(scales * signs, axis=1)
    counts = rng.integers(1, 200, 2000)
    cases += [(a, b, int(n)) for (a, b), n in zip(bounds.tolist(), counts)]
    for start, stop, num in cases:
        with np.errstate(over="ignore", invalid="ignore"):   # delta is inf
            want = np.linspace(start, stop, num)
        got = np.array(cli._linspace(start, stop, num))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
            (start, stop, num)


def test_log_spacing_is_geomspace_bit_for_bit():
    # np.geomspace's own steps: log10 of the ends, linspace over the
    # exponents, one power of ten and the ends set back; one point is
    # [start].  Run alone on the oldest supported numpy too.
    import numpy as np
    rng = np.random.default_rng(20261019)
    cases = [(1e-300, 1e300, 10**4), (1e-300, 1e300, 1), (1e-300, 1e300, 2),
             (5e-324, 1.7976931348623157e308, 9), (0.5, 2.0, 1),
             (2.0, 2.0, 1), (2.0, 2.0, 5), (1.0, math.nextafter(1.0, 2.0), 3)]
    count = 20_000
    lo = rng.uniform(-300.0, 300.0, count)
    hi = rng.uniform(lo, 300.0)
    ends = np.sort(10.0 ** np.stack([lo, hi], axis=1), axis=1).tolist()
    for i, (start, stop) in enumerate(ends):
        kind = i % 20
        if kind < 2:
            num = 1
        elif kind < 4:
            num = 2
        elif kind < 6:
            stop, num = start, int(rng.integers(1, 64))
        elif kind == 19:
            num = int(10.0 ** rng.uniform(0.0, 4.0))
        else:
            num = int(rng.integers(3, 65))
        cases.append((start, stop, num))
    for start, stop, num in cases:
        sweep = {"start": start, "stop": stop, "points": num,
                 "spacing": "log"}
        with np.errstate(over="ignore"):    # 10^log10(stop) may overflow
            _, got = cli._sweep_values({"sweep": sweep})
            want = np.geomspace(start, stop, num)
        assert type(got) is list and len(got) == num
        assert np.array_equal(np.array(got).view(np.uint64),
                              want.view(np.uint64)), (start, stop, num)



def test_log_sweep_to_the_largest_float_warns_nothing(tmp_path, capsys):
    # 10^log10(stop) rounds past the largest float, but np.geomspace sets
    # the end back: raising it would warn of an overflow (an error here)
    import numpy as np
    start, stop = 1e300, 1.7976931348623157e308
    cfg = oscillator_cfg(sweep={"parameter": "lambda", "start": start,
                                "stop": stop, "points": 4, "spacing": "log"})
    cfg["parameters"]["omega0"] = 1.0
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with np.errstate(over="ignore"):
        want = np.geomspace(start, stop, 4)
    _, rows = read_rows(out)
    got = np.array([float(row["lambda"]) for row in rows])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

def _counted_laws(monkeypatch) -> list:
    """Every call of a config law from now on, as (law, part, lambda)."""
    calls, laws = [], []

    def counted(coeff, exponent):
        law = len(laws)
        laws.append((coeff, exponent))
        value, derivative = power_law(coeff, exponent)

        def count(part, fn):
            def f(lam):
                calls.append((law, part, lam))
                return fn(lam)
            return f

        return count("value", value), count("derivative", derivative)

    from fluctforce.oscillator import power_law
    monkeypatch.setattr(cli, "power_law", counted)
    return calls


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("mode, params", [
    ("series-rlc", {"resistance": {"coeff": 2.0, "power": 1.0},
                    "inductance": {"coeff": 1.0, "power": 1.0},
                    "capacitance": {"coeff": 0.5, "power": -0.5}}),
    ("parallel-rlc", {"resistance": 50.0, "capacitance": 1.0,
                      "inductance": {"coeff": 1.0, "power": 1.5}}),
])
def test_loop_rows_evaluate_each_law_once_per_lambda(tmp_path, monkeypatch,
                                                     mode, params, oracle):
    # a row's force, its oracle and the oracle's derivatives share one
    # evaluation of each element value and derivative at the row's lambda
    calls = _counted_laws(monkeypatch)
    cfg = {"schema": "fluctforce/1", "mode": mode, "units": "reduced",
           "parameters": dict(params, temperature=0.5),
           "sweep": {"parameter": "lambda", "start": 0.5, "stop": 2.0,
                     "points": 4, "spacing": "linear"},
           "oracle": {"enabled": oracle}}
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    laws = {law for law, _, _ in calls}
    lams = {lam for _, _, lam in calls}
    assert len(laws) == 3 and len(lams) == 4
    assert sorted(calls, key=repr) == sorted(
        [(law, part, lam) for law in laws for lam in lams
         for part in ("value", "derivative")], key=repr)
    _, rows = read_rows(out)
    assert all((row["oracle"] != "") == oracle for row in rows)



@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_config_line_ends_read_as_universal_newlines(tmp_path, capsys,
                                                     newline):
    # a config is read as bytes; its line ends fold as text mode's do, so
    # a JSON error names the line and column a text-mode read gives
    path = tmp_path / "c.json"
    good = json.dumps(oscillator_cfg(), indent=1)
    for text in (good, good[:-9] + "\n  bad\n}", good[:-30] + "\r\n\r"):
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            try:
                json.loads(fh.read())
                want = ""
            except json.JSONDecodeError as exc:
                want = f"config error: config is not valid JSON: {exc}\n"
        assert main(["force", "--config", str(path)]) == (2 if want else 0)
        assert capsys.readouterr().err == want

def test_config_with_byte_order_mark_is_json_loads_error(tmp_path, capsys):
    # the decoder built once keeps json.loads's check and its message
    cfg = json.dumps(oscillator_cfg())
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + cfg, encoding="utf-8")
    try:
        json.loads("\ufeff" + cfg)
    except json.JSONDecodeError as exc:
        want = f"config error: config is not valid JSON: {exc}\n"
    assert main(["force", "--config", str(path)]) == 2
    assert capsys.readouterr().err == want
    path.write_text(cfg, encoding="utf-8")
    assert main(["force", "--config", str(path)]) == 0


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    raw = b'{"schema": "fluctforce/1", "note": "\xff"}'
    path.write_bytes(raw)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        want = f"config error: config is not valid UTF-8: {exc}\n"
    assert main(["force", "--config", str(path)]) == 2
    assert capsys.readouterr().err == want


def _sweep_cfg(**sweep):
    cfg = oscillator_cfg()
    cfg["sweep"] = dict(cfg["sweep"], **sweep)
    return cfg


def _params_cfg(drop=(), **params):
    cfg = oscillator_cfg()
    cfg["parameters"] = {k: v for k, v in dict(cfg["parameters"],
                                               **params).items()
                         if k not in drop}
    return cfg


_NO_SWEEP = oscillator_cfg()
del _NO_SWEEP["sweep"]


@pytest.mark.parametrize("command, cfg, message", [
    ("force", [1, 2], "config must be a JSON object"),
    ("force", oscillator_cfg(units="cgs"), "units must be 'reduced' or 'si'"),
    ("force", oscillator_cfg(parameters=[]),
     "config needs a 'parameters' object"),
    # an integer beyond the float range
    ("force", _params_cfg(temperature=10**400),
     "'temperature' must be a finite number"),
    ("force", _params_cfg(omega0="one"),
     "parameter 'omega0' must be a number or {'coeff': c, 'power': p}"),
    ("force", _params_cfg(drop=("omega0",)), "missing parameter 'omega0'"),
    ("force", _params_cfg(damping="viscous"),
     "damping must be 'ohmic' or 'drude'"),
    ("force", oscillator_cfg(oracle=1), "'oracle' must be an object"),
    ("force", oscillator_cfg(output=[]), "'output' must be an object"),
    ("force", oscillator_cfg(output={"format": "xml"}),
     "format must be 'csv' or 'json'"),
    ("sweep", _NO_SWEEP, "sweep mode needs a 'sweep' object"),
    ("sweep", _sweep_cfg(parameter="gap"),
     "sweep parameter must be 'lambda' or 'temperature'"),
    ("sweep", {**_NO_SWEEP, "sweep": {"start": 0.5, "points": 3}},
     "sweep needs numeric start/stop/points"),
    ("sweep", _sweep_cfg(points=0), "sweep points must be >= 1"),
    ("sweep", _sweep_cfg(start=2.0, stop=1.0),
     "sweep range must be positive and ordered"),
    ("sweep", _sweep_cfg(spacing="cubic"), "spacing must be 'linear' or 'log'"),
    # every interior point is inf; pytest makes numpy's overflow warning
    # an error, so the sweep must not raise that warning either
    ("sweep", _sweep_cfg(parameter="temperature",
                         start=1.7976931348623157e308,
                         stop=1.7976931348623157e308, points=3,
                         spacing="log"),
     "log spacing gives a sweep point beyond the largest float"),
])
def test_config_errors_name_the_fault(tmp_path, capsys, command, cfg,
                                      message):
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
