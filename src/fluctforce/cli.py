"""Command-line interface: single-point forces, parameter sweeps, and
validation batteries.

Configs are JSON with a versioned "schema" field ("fluctforce/1"); see
the README for the full key reference.  Output is CSV or JSON with a
fixed column set

    lambda, force, f_omega, f_gamma0, f_omegaD, regime, oracle,
    discrepancy, warnings

(geometry modes append f_casimir and r_weight).  A sweep resolves its
point path once (circuits.point_force) and runs its rows, lists of cells
in column order, in one serial pass.  One cell encoder writes floats as
Python's shortest round-trip repr, and JSON as json.dumps(payload,
indent=2) would, so identical configs give byte-identical files.  An
existing output file is rewritten in place, on the same inode: cut to
its first byte, never to none, which on ext4 would make close() start
writeback; a killed run leaves at most that byte of the old output.
The trade: with no early writeback, a system crash or power loss
within the kernel's writeback window (about 30 s by default) can leave
that 1-byte stub, where a cut to none had the new output on disk about
one journal commit after close().
--workers and the config keys "workers" and "oracle.n_max" (every oracle
sums 32 terms) are still checked, but change no byte of the output.

Exit codes: 0 success (and -h/--help), 2 usage or config error, 3
domain/precondition violation (the library's DomainError,
PreconditionError and DivergentSumError), 4 validation failure.  The
command line is read by a table-driven parser of the fixed grammar,
which gives the fields, exit codes and accepted forms argparse gave, but
for "--config=--" (see README).

Importing this module loads neither argparse, numpy nor the Matsubara
oracles, nor does `force` or a linear closed-form sweep (_linspace gives
np.linspace's bits).  The oracles load for a config with the oracle
enabled and in `validate`; numpy in `validate` and for log spacing,
whose np.geomspace steps libm's log10 and power miss in bits.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import circuits
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


def _load_config(path: str, units: str | None = None) -> dict:
    """The checked config at path; units, where given (--units),
    replaces the config's own before it is checked."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:    # line ends as text mode's universal newlines
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        cfg = json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
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
        exponents = _linspace(float(np.log10(start)), float(np.log10(stop)),
                              points)
        # np.geomspace sets the ends back (one point: start), so only the
        # interior is raised: 10^log10(stop) may round past the largest float
        try:
            with np.errstate(over="raise"):
                inner = np.power(10.0, exponents[1:-1]).tolist()
        except FloatingPointError:
            raise ConfigError("log spacing gives a sweep point beyond the "
                              "largest float") from None
        return name, [start, *inner, stop][:points]
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


def _force_row(lam: float, res: circuits.ForceResult) -> list:
    """The BASE_COLUMNS cells of a ForceResult (geometry rows append two)."""
    parts = res.components or {}
    return [lam, res.value, parts.get("f_omega"), parts.get("f_gamma0"),
            parts.get("f_omegaD"), res.regime, None, None,
            ";".join(res.warnings)]


# Per-sweep builders: each reads and checks its parameters once, so that
# a row evaluates only what depends on its own lambda and temperature.
# _oscillator and _loop give the (loop, model, regime) of point_force.

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
    # the loop's class picks its topology: map_series maps either class
    return loop, circuits.map_series(loop), params.get("regime", "exact")


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
        at = circuits.point_force(loop, circuits.map_series(loop), regime,
                                  "si")
    else:
        radius = _param(params, "radius")
        loop = circuits.SeriesRLC.of(
            0.0, inductance, circuits.sphere_plate_capacitance_law(radius))

    def row(gap: float, temperature: float) -> list:
        if planar:
            geom = circuits.PlanarCapacitor(area, gap, epsilon)
            res = at(temperature, gap)[0]
        else:
            geom = circuits.SpherePlate(radius, gap)
            res = circuits.sphere_plate_circuit_force(geom, inductance,
                                                      temperature, regime)
        cas = circuits.casimir_reference(geom, temperature, regime)
        out = _force_row(gap, res)
        out[8] = ";".join(res.warnings + cas.warnings)
        out += cas.value, circuits.relative_weight(geom, loop, temperature,
                                                   regime)
        return out

    return row


def _row_function(cfg: dict):
    """row(lam, temperature) -> the cells of a row of the configured mode."""
    params, mode = cfg["parameters"], cfg["mode"]
    units = cfg.get("units", "reduced")
    oracle_on = _oracle_enabled(cfg)
    if mode in _GEOMETRY_MODES:
        if oracle_on:
            raise ConfigError(f"mode {mode!r} has no oracle")
        return _geometry(params, mode == "planar")
    loop, model, regime = _oscillator(params) if mode == "oscillator" \
        else _loop(params, mode == "series-rlc")
    at = circuits.point_force(loop, model, regime, units)
    if oracle_on:
        from . import matsubara

    def row(lam: float, temperature: float) -> list:
        res, p, hbar_out = at(temperature, lam)
        out = _force_row(lam, res)
        if oracle_on:   # on the parameters the point path built
            oracle = hbar_out * matsubara.force_sum_exact(p, model, lam).value
            out[6:8] = oracle, abs(res.value - oracle)
        return out

    return row


def _compute_rows(cfg: dict,
                  sweep: tuple[str, list[float]] | None) -> list[list]:
    """Rows of a sweep in one serial pass, or the single row at the
    configured lambda when sweep is None."""
    params = cfg["parameters"]
    base_t = _param(params, "temperature",
                    None if cfg["mode"] in _GEOMETRY_MODES else 0.0)
    base_lam = _param(params, "lambda", 1.0)
    row = _row_function(cfg)
    name, values = sweep or ("lambda", [base_lam])
    if name == "lambda":
        return [row(value, base_t) for value in values]
    rows = [row(base_lam, value) for value in values]
    for out, value in zip(rows, values):
        out[0] = value      # the lambda column holds the swept temperature
    return rows


#: json's own escaping of a str, in quotes, as json.dumps applies it
_json_str = json.encoder.encode_basestring_ascii


def _cells(rows, null: str, text) -> list[str]:
    """The text of every cell of rows, row by row: null for None, a float's
    repr and text(cell) for a str.  A non-zero float equal to the float
    before it in its row reuses its text (0.0 and -0.0 never merge)."""
    cells = []
    add = cells.append
    for row in rows:
        last = 0.0      # a first float differs from it or is zero
        for v in row:
            if v is None:
                add(null)
            elif type(v) is float:
                if v != last or not v:
                    last = v
                    shown = repr(v)     # float.__repr__: v is a float
                add(shown)
            else:
                add(text(v))
    return cells


def _render(columns, rows, fmt: str) -> str:
    """CSV (a header, then a line of comma-joined cells per row) or JSON
    (json.dumps(payload, indent=2) + "\\n", each row {column: cell}) of
    rows of cells in column order, each cell after its separator or key."""
    if fmt == "csv":
        cells, head, end = _cells(rows, "", str), ",".join(columns), "\n"
        seps = ["\n"] + [","] * (len(columns) - 1)
    else:   # a row's first separator closes the row before it
        cells = _cells(rows, "null", _json_str)
        seps = [f",\n      {_json_str(c)}: " for c in columns]
        seps[0] = "\n    },\n    {" + seps[0][1:]
        head = json.dumps({"schema": SCHEMA, "columns": list(columns)},
                          indent=2)[:-2] + ',\n  "rows": ['
        end = "\n    }\n  ]\n}\n" if rows else "]\n}\n"
    pieces = [x for sep in seps for x in (sep, "")] * len(rows)
    pieces[1::2] = cells
    body = "".join(pieces)
    if fmt != "csv":
        body = body[7:]     # the first row closes none: cut its "\n    },"
        if "inf" in body or "nan" in body:
            # floats json.dumps names; a raw newline ends bare values only
            body = re.sub(r"(?<=: )(-?)inf(?=,?\n)", r"\1Infinity", body)
            body = re.sub(r"(?<=: )nan(?=,?\n)", "NaN", body)
    return head + body + end


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
    path = out_cfg.get("path") if args.out is None else args.out
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path must be a string")
    if path == "":
        raise ConfigError("the output path is empty")
    sweep = None
    if args.command == "sweep":
        sweep = _sweep_values(cfg)
        if not args.workers:    # checked, though every value runs serially
            _number(cfg.get("workers", 1), "workers", int)
    columns = GEOMETRY_COLUMNS if cfg["mode"] in _GEOMETRY_MODES \
        else BASE_COLUMNS
    text = _render(columns, _compute_rows(cfg, sweep), fmt)
    if path is not None:    # opened only now: a failed row leaves no file
        data = text.encode("utf-8")
        try:
            # in place, never cut to 0 bytes: on ext4 that makes close()
            # start writeback (auto_da_alloc).  Without that writeback a
            # system crash before normal writeback can leave the 1-byte
            # stub on disk, the trade for the saved time (README).
            # Cut to its first byte before the write, which data (at
            # least a header) covers; a FIFO or a device has st_size 0
            # and is never cut.
            fd = os.open(path, os.O_WRONLY | os.O_CREAT
                         | getattr(os, "O_BINARY", 0), 0o666)
            with open(fd, "wb") as fh:
                if os.fstat(fd).st_size > 1:
                    os.ftruncate(fd, 1)
                fh.write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        out = sys.stdout
        if out is None:     # started with stdout closed (`>&-`)
            raise ConfigError("cannot write output: standard output is "
                              "closed")
        try:
            out.write(text)
            out.flush()
        except OSError as exc:
            _silence(out)
            raise ConfigError(f"cannot write output: {exc}") from exc
    return 0


def _silence(stream) -> None:
    """Point a stream that failed to flush at os.devnull: its buffer
    keeps the unwritten bytes, and the flush at interpreter exit would
    fail on them again (a BrokenPipeError message and exit 120)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return      # no file descriptor, so nothing to flush at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


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


# The command-line grammar.  Each command's options, every one of which
# takes one value: {option: (default, check)}, where a check of None
# takes any string, a tuple holds the choices and int converts; the
# first option is required.  -h/--help prints the usage.
_ROW_OPTIONS = {"--config": (None, None), "--out": (None, None),
                "--format": (None, ("csv", "json")),
                "--units": (None, ("reduced", "si"))}
_COMMANDS = {
    "force": _ROW_OPTIONS,
    "sweep": dict(_ROW_OPTIONS, **{"--workers": (0, int)}),
    "validate": {"--suite": (None, None)},
}
#: each command's fields before its options are read: their defaults
_FIELDS = {command: {"command": command,
                     **{o[2:]: default for o, (default, _) in opts.items()}}
           for command, opts in _COMMANDS.items()}

_USAGE = """\
usage: fluctforce force    --config PATH [--out PATH] [--format {csv,json}]
                           [--units {reduced,si}]
       fluctforce sweep    --config PATH [--out PATH] [--format {csv,json}]
                           [--units {reduced,si}] [--workers N]
       fluctforce validate --suite NAME
"""

#: argparse's test for a token that is a negative number, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match


class _UsageError(Exception):
    """A command line outside the grammar: exit 2."""


def _option(options, token: str):
    """(option, value after "=" or None) for a token that names an option
    of options or -h/--help, in full or by a unique prefix as argparse's
    allow_abbrev takes it; (None, None) for a value or positional token,
    ("", None) for an unknown option and ("--", None) for "--", after
    which every token is positional."""
    if token in options or token in ("-h", "--help", "--"):
        return token, None
    if token[:1] != "-" or token == "-":
        return None, None
    if token[:2] == "--":
        name, eq, value = token.partition("=")
        names = [o for o in (*options, "--help") if o.startswith(name)]
        if len(names) == 1:
            return names[0], value if eq else None
    if _NEGATIVE(token) or " " in token:
        return None, None
    return "", None


def _parse_args(argv: list[str]):
    """The fields argparse gave for argv: command, and each option of the
    command under its name without dashes; None after -h/--help.
    _UsageError for a line outside the grammar.  Errors come in
    argparse's order: a bad or missing option value at once, a missing
    required option after the last token, unrecognized tokens last."""
    command, options, fields, extras = None, {}, {}, []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        option, value = _option(options, token)
        if option == "--" and command:      # no command takes a positional
            extras += argv[i - 1:]
            break
        if command is None and option in (None, "--"):
            if token not in _COMMANDS:
                raise _UsageError(
                    f"argument command: invalid choice: {token!r} (choose "
                    "from 'force', 'sweep', 'validate')")
            command, options = token, _COMMANDS[token]
            fields = dict(_FIELDS[command])
        elif not option:
            extras.append(token)
        elif option in ("-h", "--help"):
            if value is not None:
                raise _UsageError("argument -h/--help: ignored explicit "
                                  f"argument {value!r}")
            return None
        else:
            if value is None:
                if i == len(argv) or _option(options, argv[i])[0] is not None:
                    raise _UsageError(f"argument {option}: expected one "
                                      "argument")
                value = argv[i]
                i += 1
            check = options[option][1]
            if check is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"argument {option}: invalid int "
                                      f"value: {value!r}") from None
            elif check and value not in check:
                raise _UsageError(
                    f"argument {option}: invalid choice: {value!r} (choose "
                    f"from {', '.join(map(repr, check))})")
            fields[option[2:]] = value
    if command is None:
        raise _UsageError("the following arguments are required: command")
    required = next(iter(options))
    if fields[required[2:]] is None:
        raise _UsageError(
            f"the following arguments are required: {required}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}fluctforce: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(f"{_USAGE}\nFluctuation-induced forces of damped "
                         "oscillators and RLC circuits\n")
        return 0
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
