"""Command-line interface: single-point forces, parameter sweeps, and
validation batteries.

Configs are JSON with a versioned "schema" field ("fluctforce/1"); see
the README for the full key reference.  Output is CSV or JSON with a
fixed column set

    lambda, force, f_omega, f_gamma0, f_omegaD, regime, oracle,
    discrepancy, warnings

(geometry modes append f_casimir and r_weight).  Floats are written with
Python's shortest round-trip repr, rows in sweep order, so identical
configs produce byte-identical files.  Every row runs in one serial
pass, and every oracle sums the same 32 terms; --workers and the config
keys "workers" and "oracle.n_max" are still accepted and checked, for
existing configs, but change neither how rows run nor a byte of the
output.

Exit codes: 0 success, 2 config error, 3 domain/precondition violation
(the library's DomainError, PreconditionError and DivergentSumError),
4 validation failure.

Importing this module loads neither numpy nor the Matsubara oracles,
and neither does `force` or a linear closed-form sweep (linear points
come from _linspace, which gives np.linspace's bits).  The oracles
(matsubara) load on first use in a config with the oracle enabled and
in `validate`.  numpy loads only in `validate` and for log spacing,
which takes np.geomspace's own steps: np.log10 of the two ends,
_linspace over the exponents, one np.power(10.0, ...) and the two ends
set back.  numpy stays because its log10 and power differ in bits from
libm's (math.log10 and 10.0 ** y miss np.geomspace in about 70 % of
random ranges of 3 to 64 points); no oracle loads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import circuits, forces
from .errors import _INF, DivergentSumError, DomainError, PreconditionError
from .oscillator import ParametricModel, power_law

SCHEMA = "fluctforce/1"

BASE_COLUMNS = ("lambda", "force", "f_omega", "f_gamma0", "f_omegaD",
                "regime", "oracle", "discrepancy", "warnings")
GEOMETRY_COLUMNS = BASE_COLUMNS + ("f_casimir", "r_weight")

_GEOMETRY_MODES = ("planar", "sphere-plate")
_MODES = ("oscillator", "series-rlc", "parallel-rlc") + _GEOMETRY_MODES

#: the most sweep points a config may ask for; checked before any
#: array is allocated.
MAX_POINTS = 10**6


class ConfigError(ValueError):
    pass


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


#: the config decoder, which json.load(fh, parse_constant=...) would
#: build on every call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _load_config(path: str, units: str | None = None) -> dict:
    """The checked config at path; units, where given (--units),
    replaces the config's own before it is checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):      # json.loads's own check
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        cfg = _DECODER.decode(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}")
    mode = cfg.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}")
    if units:
        cfg["units"] = units
    units = cfg.get("units", "reduced")
    if units not in ("reduced", "si"):
        raise ConfigError("units must be 'reduced' or 'si'")
    if mode in _GEOMETRY_MODES and units != "si":
        raise ConfigError(f"mode {mode!r} is SI only")
    if "parameters" not in cfg or not isinstance(cfg["parameters"], dict):
        raise ConfigError("config needs a 'parameters' object")
    return cfg


def _number(value: object, name: str, kind=float):
    """A finite JSON number from a config value, as a float, or with
    kind=int as an int, which the value must equal exactly (1e5 is
    100000).  Anything else, booleans and strings included, is a
    ConfigError."""
    if type(value) is float or type(value) is int:
        try:
            x = float(value)
        except OverflowError:
            x = _INF
        if -_INF < x < _INF:
            if kind is float:
                return x
            if x.is_integer():
                return value if type(value) is int else int(x)
            raise ConfigError(f"{name!r} must be an integer")
    raise ConfigError(f"{name!r} must be a finite number")


def _law(spec: object, name: str):
    """A scalar is a constant; {'coeff': c, 'power': p} is c * lam**p."""
    if isinstance(spec, (int, float)):
        return power_law(_number(spec, name), 0.0)
    if isinstance(spec, dict) and set(spec) <= {"coeff", "power"}:
        return power_law(_number(spec.get("coeff"), name),
                         _number(spec.get("power", 0.0), name))
    raise ConfigError(f"parameter {name!r} must be a number or "
                      "{'coeff': c, 'power': p}")


def _require_key(params: dict, key: str):
    if key not in params:
        raise ConfigError(f"missing parameter {key!r}")
    return params[key]


def _param(params: dict, key: str, default: float | None = None) -> float:
    """A numeric parameter; without a default it is required."""
    value = _require_key(params, key) if default is None \
        else params.get(key, default)
    return _number(value, key)


def _sweep_values(cfg: dict) -> tuple[str, list[float]]:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep mode needs a 'sweep' object")
    name = sweep.get("parameter", "lambda")
    if name not in ("lambda", "temperature"):
        raise ConfigError("sweep parameter must be 'lambda' or 'temperature'")
    try:
        start = _number(sweep["start"], "start")
        stop = _number(sweep["stop"], "stop")
        points = _number(sweep["points"], "points", int)
    except KeyError as exc:
        raise ConfigError("sweep needs numeric start/stop/points") from exc
    if points < 1:
        raise ConfigError("sweep points must be >= 1")
    if points > MAX_POINTS:
        raise ConfigError(f"sweep points must be <= {MAX_POINTS}")
    if not (0.0 < start <= stop):
        raise ConfigError("sweep range must be positive and ordered")
    spacing = sweep.get("spacing", "linear")
    if spacing == "linear":
        return name, _linspace(start, stop, points)
    if spacing == "log":
        import numpy as np
        values = np.power(10.0, _linspace(float(np.log10(start)),
                                          float(np.log10(stop)),
                                          points)).tolist()
        values[-1] = stop       # the ends, as np.geomspace sets them
        values[0] = start       # (one point: start)
        return name, values
    raise ConfigError("spacing must be 'linear' or 'log'")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num).tolist() without numpy, bit for bit:
    numpy's own steps, value i = i * step + start with step = (stop -
    start) / (num - 1), or i / (num - 1) * (stop - start) + start where
    that step underflows to zero, and the last value set to stop."""
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _oracle_enabled(cfg: dict) -> bool:
    """Whether the config asks for the oracle column."""
    oracle = cfg.get("oracle", {})
    if not isinstance(oracle, dict):
        raise ConfigError("'oracle' must be an object")
    enabled = oracle.get("enabled", False)
    if type(enabled) is not bool:
        raise ConfigError("oracle 'enabled' must be true or false")
    if not enabled:
        return False
    if _number(oracle.get("n_max", 100_000), "n_max", int) < 1:
        raise ConfigError("oracle n_max must be >= 1")
    return True


def _force_row(lam: float, res: forces.ForceResult) -> dict:
    """A row whose keys are BASE_COLUMNS in order; geometry rows append
    the two extra columns, so their keys are GEOMETRY_COLUMNS."""
    parts = res.components or {}
    return {
        "lambda": lam,
        "force": res.value,
        "f_omega": parts.get("f_omega"),
        "f_gamma0": parts.get("f_gamma0"),
        "f_omegaD": parts.get("f_omegaD"),
        "regime": res.regime,
        "oracle": None,
        "discrepancy": None,
        "warnings": ";".join(res.warnings),
    }


# Per-sweep builders: each reads and checks its parameters once, so that
# a row evaluates only what depends on its own lambda and temperature.
# _oscillator and _loop give the (loop, model, regime) of rlc_force_at.

def _oscillator(params: dict):
    damping = _require_key(params, "damping")
    if damping not in ("ohmic", "drude"):
        raise ConfigError("damping must be 'ohmic' or 'drude'")
    laws = _law(_require_key(params, "omega0"), "omega0") \
        + _law(params.get("gamma0", 0.0), "gamma0")
    if damping == "drude":
        laws += _law(_require_key(params, "omega_d"), "omega_d")
    return None, ParametricModel(*laws), "exact"


def _element(params: dict, key: str) -> circuits.ElementLaw:
    spec = _require_key(params, key)
    if isinstance(spec, dict) and "planar" in spec:
        geom = spec["planar"]
        if not isinstance(geom, dict):
            raise ConfigError(f"{key!r} planar geometry must be an object")
        return circuits.planar_capacitance_law(_param(geom, "area"),
                                               _param(geom, "epsilon", 1.0))
    return circuits.ElementLaw(*_law(spec, key))


def _loop(params: dict, series: bool):
    size = params.get("element_size")
    if size is not None:
        size = _number(size, "element_size")
        if size <= 0.0:
            raise ConfigError("'element_size' must be positive")
    loop = (circuits.SeriesRLC if series else circuits.ParallelRLC).of(
        _element(params, "resistance"), _element(params, "inductance"),
        _element(params, "capacitance"), size)
    model = (circuits.map_series if series else circuits.map_parallel)(loop)
    return loop, model, params.get("regime", "exact")


def _geometry(params: dict, planar: bool):
    """Rows of a capacitor geometry: the circuit force, the Casimir
    reference for the same bodies and their relative weight."""
    inductance = _param(params, "inductance")
    regime = _require_key(params, "regime")
    if planar:
        area, epsilon = _param(params, "area"), _param(params, "epsilon", 1.0)
        loop = circuits.SeriesRLC.of(
            _param(params, "resistance", 0.0), inductance,
            circuits.planar_capacitance_law(area, epsilon))
        model = circuits.map_series(loop)
    else:
        radius = _param(params, "radius")
        loop = circuits.SeriesRLC.of(
            0.0, inductance, circuits.sphere_plate_capacitance_law(radius))

    def row(gap: float, temperature: float) -> dict:
        if planar:
            geom = circuits.PlanarCapacitor(area, gap, epsilon)
            res = circuits.rlc_force_at(loop, model, temperature, gap,
                                        regime, "si")
        else:
            geom = circuits.SpherePlate(radius, gap)
            res = circuits.sphere_plate_circuit_force(geom, inductance,
                                                      temperature, regime)
        cas = circuits.casimir_reference(geom, temperature, regime)
        out = _force_row(gap, res)
        out["warnings"] = ";".join(res.warnings + cas.warnings)
        out["f_casimir"] = cas.value
        out["r_weight"] = circuits.relative_weight(geom, loop, temperature,
                                                   regime)
        return out

    return row


def _row_function(cfg: dict):
    """row(lam, temperature) -> dict for the configured mode."""
    params, mode = cfg["parameters"], cfg["mode"]
    units = cfg.get("units", "reduced")
    oracle_on = _oracle_enabled(cfg)
    if mode in _GEOMETRY_MODES:
        if oracle_on:
            raise ConfigError(f"mode {mode!r} has no oracle")
        return _geometry(params, mode == "planar")
    loop, model, regime = _oscillator(params) if mode == "oscillator" \
        else _loop(params, mode == "series-rlc")
    if oracle_on:
        from . import matsubara

    def row(lam: float, temperature: float) -> dict:
        res = circuits.rlc_force_at(loop, model, temperature, lam, regime,
                                    units)
        out = _force_row(lam, res)
        if oracle_on:
            hbar_out, t_freq = circuits.units_factors(temperature, units)
            oracle = hbar_out * matsubara.force_sum_exact(
                model.params_at(lam, t_freq), model, lam).value
            out["oracle"] = oracle
            out["discrepancy"] = abs(res.value - oracle)
        return out

    return row


def _compute_rows(cfg: dict,
                  sweep: tuple[str, list[float]] | None) -> list[dict]:
    """Rows of a sweep in one serial pass, or the single row at the
    configured lambda when sweep is None."""
    params = cfg["parameters"]
    base_t = _param(params, "temperature",
                    None if cfg["mode"] in _GEOMETRY_MODES else 0.0)
    base_lam = _param(params, "lambda", 1.0)
    row = _row_function(cfg)
    name, values = sweep or ("lambda", [base_lam])

    def one(value: float) -> dict:
        out = row(base_lam, value) if name == "temperature" \
            else row(value, base_t)
        out["lambda"] = value
        return out

    return [one(v) for v in values]


def _columns(mode: str) -> tuple[str, ...]:
    return GEOMETRY_COLUMNS if mode in _GEOMETRY_MODES else BASE_COLUMNS


_repr = float.__repr__


def _render_csv(columns, rows) -> str:
    """One line per row; each row has exactly the columns as keys, in
    order, and a float (as its repr), None (empty) or a str in each."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([
            _repr(v) if type(v) is float else "" if v is None else v
            for v in row.values()]))
    lines.append("")
    return "\n".join(lines)


# The rows' keys at the indentation json.dumps(..., indent=2) gives them.
# Without indent, json runs its C encoder; with it, the pure-Python one.
_ROWS_JSON = json.JSONEncoder(separators=(",\n      ", ": ")).encode


@functools.cache
def _json_head(columns: tuple[str, ...]) -> str:
    """The payload's text up to its rows, built once per column set."""
    head = json.dumps({"schema": SCHEMA, "columns": list(columns)}, indent=2)
    return head[:-2] + ',\n  "rows": '


def _render_json(columns, rows) -> str:
    """The bytes of json.dumps(payload, indent=2) + "\\n", for rows as
    _render_csv takes them.

    All (flat) rows go through the C encoder in one call, which puts the
    item separator between the rows as well; that separator is the only
    place where "}" meets a raw newline (JSON escapes the newlines in
    strings), so it is replaced there by the indented one."""
    body = "[]"
    if rows:
        text = _ROWS_JSON(rows)
        body = ("[\n    {\n      "
                + text[2:-2].replace("},\n      {",
                                     "\n    },\n    {\n      ")
                + "\n    }\n  ]")
    return _json_head(columns) + body + "\n}\n"


def _cmd_rows(args) -> int:
    """force (one row) and sweep: the config is read and checked once,
    before any row runs."""
    cfg = _load_config(args.config, args.units)
    out_cfg = cfg.get("output", {})
    if not isinstance(out_cfg, dict):
        raise ConfigError("'output' must be an object")
    fmt = args.format or out_cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    sweep = None
    if args.command == "sweep":
        sweep = _sweep_values(cfg)
        if not args.workers:    # checked, though every value runs serially
            _number(cfg.get("workers", 1), "workers", int)
    rows = _compute_rows(cfg, sweep)
    columns = _columns(cfg["mode"])
    text = _render_csv(columns, rows) if fmt == "csv" \
        else _render_json(columns, rows)
    path = args.out or out_cfg.get("path")
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    from . import validation
    if args.suite not in validation.SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{validation.SUITE_NAMES}", file=sys.stderr)
        return 2
    reports = validation.run_suite(args.suite)
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.passed
    return 0 if ok else 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
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


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_rows(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, DivergentSumError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
