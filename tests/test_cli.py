"""CLI behaviour: config validation, outputs, determinism, exit codes."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fluctforce import cli
from fluctforce.cli import main


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
    # rows as the CLI builds them: exactly the columns, in order
    rows = [{c: row.get(c) for c in columns} for row in _AWKWARD_ROWS[:count]]
    payload = {"schema": cli.SCHEMA, "columns": list(columns), "rows": rows}
    assert cli._render_json(columns, rows) \
        == json.dumps(payload, indent=2) + "\n"


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
                b"\n" * 5):
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


def test_render_json_strings_that_look_like_row_separators():
    tricky = ["},\n      {", "}, {", "}\n    },\n    {\n      {", "{", "}"]
    rows = [{"lambda": float(i), "force": None, "regime": text,
             "warnings": text + ";" + text} for i, text in enumerate(tricky)]
    rows.append(dict(zip(cli.BASE_COLUMNS, tricky * 2)))
    columns = cli.BASE_COLUMNS
    rows = [{c: row.get(c) for c in columns} for row in rows]
    payload = {"schema": cli.SCHEMA, "columns": list(columns), "rows": rows}
    for count in range(len(rows) + 1):
        payload_part = dict(payload, rows=rows[:count])
        assert cli._render_json(columns, rows[:count]) \
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
    # numpy for both: the Drude oracle takes its poles from numpy.roots;
    # the Matsubara oracles only for the oracle sweep, not for a
    # closed-form sweep with log spacing
    out = tmp_path / f"o.{fmt}"
    path = write_config(tmp_path, "c.json", GOLDEN_CONFIGS[name])
    steps = _fresh(["sweep", "--config", path, "--format", fmt,
                    "--out", str(out)])
    assert GOLDEN_CONFIGS["drude"]["sweep"]["spacing"] == "log"
    assert steps == [("import fluctforce", False, False),
                     ("import fluctforce.cli", False, False),
                     (0, True, name == "oracle-large")]
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
