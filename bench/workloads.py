"""Seeded inputs for the four benchmark workloads.

Everything here is a pure function of the seed (and of `nproc` for the
worker counts): the same seed gives the same configs, the same call
plan and the same suite order.  The program under test only ever sees
the generated configs and arguments.

The mixes are stratified, not sampled: every seed produces the same
number of sweeps per (mode, sweep parameter, spacing, workers) cell and
the same number of oracle rows per n_max class, and only the parameter
values, output formats and orders are drawn.  That keeps the cost of a
cycle nearly the same from seed to seed, so medians taken over
different seeds can be compared.
"""

from __future__ import annotations

import itertools
import math
import random

SCHEMA = "fluctforce/1"

#: rows per `sweep` invocation on sweep-closed (the stated row count).
ROWS_CLOSED = 64
#: rows per `sweep` invocation on sweep-oracle.
ROWS_ORACLE = 8
#: base n_max classes of sweep-oracle: cache-resident to L2-spilling.
ORACLE_N_MAX = (20_000, 100_000, 1_000_000)
#: sweeps per kind and cycle at n_max 2e4 and 1e5 on sweep-oracle (1e6
#: has two in all).  Chosen so that each of the three classes takes
#: roughly a fifth to a third of a cycle's time, and the capped sweep
#: about a sixth to a quarter; see bench/README.md.
ORACLE_SWEEPS = {20_000: 12, 100_000: 6}
#: matches SumSpec's auto-scale rule (n >= 5 * scale / T) and hard cap.
AUTO_SCALE_FACTOR = 5.0
HARD_CAP = 16_000_000

OHMIC_FAMILY = ("osc-ohmic", "series-rlc", "parallel-rlc")
ORACLE_KINDS = OHMIC_FAMILY + ("osc-drude",)
CLOSED_KINDS = ORACLE_KINDS + ("planar", "sphere-plate")
VALIDATE_SUITES = ("ohmic-oracle", "drude-fd", "asymptotics", "circuits",
                   "paper-numbers")


def program_config(cfg: dict) -> dict:
    """The config as the program reads it, without the benchmark's own
    labels."""
    return {k: v for k, v in cfg.items() if k not in ("kind", "class")}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _law(rng: random.Random, lo: float, hi: float, powers) -> dict:
    return {"coeff": rng.uniform(lo, hi), "power": rng.choice(powers)}


def _reduced_params(kind: str, rng: random.Random) -> dict:
    """Parameters of an oscillator or RLC loop in reduced units.

    Ohmic-family damping is lambda independent (a swept gamma0 makes the
    oracle diverge), Drude laws keep omega_d well above gamma0.
    """
    if kind == "osc-ohmic":
        return {"damping": "ohmic",
                "omega0": _law(rng, 0.5, 2.0, (0.5, 1.0, -0.5)),
                "gamma0": rng.uniform(0.0, 3.0)}
    if kind == "osc-drude":
        om = _law(rng, 0.5, 2.0, (0.5, 1.0, -0.5))
        g0 = _law(rng, 0.05, 2.0, (0.0, 0.5, 1.0))
        ratio = _log_uniform(rng, 10.0, 1.0e3)
        wd = {"coeff": ratio * max(om["coeff"], g0["coeff"]),
              "power": rng.choice((0.0, 0.5))}
        return {"damping": "drude", "omega0": om, "gamma0": g0,
                "omega_d": wd}
    if kind == "series-rlc":
        return {"resistance": rng.uniform(0.1, 3.0),
                "inductance": rng.uniform(0.5, 2.0),
                "capacitance": _law(rng, 0.3, 2.0, (1.0, -1.0, 0.5))}
    if kind == "parallel-rlc":
        return {"resistance": rng.uniform(0.2, 5.0),
                "capacitance": rng.uniform(0.5, 2.0),
                "inductance": _law(rng, 0.3, 2.0, (1.0, -1.0, 0.5))}
    raise ValueError(kind)


def _mode(kind: str) -> str:
    return "oscillator" if kind.startswith("osc-") else kind


def _closed_config(kind: str, sweep_param: str, spacing: str, fmt: str,
                   workers: int, rng: random.Random) -> dict:
    if kind in ("planar", "sphere-plate"):
        regime = rng.choice(("high-T", "low-T"))
        if kind == "planar":
            params = {"area": _log_uniform(rng, 1.0e-5, 1.0e-3),
                      "epsilon": rng.uniform(1.0, 5.0),
                      "inductance": _log_uniform(rng, 1.0e-7, 1.0e-5),
                      # the circuit-to-Casimir quotient is dissipationless
                      # at low T, so keep gamma/Omega below ~1e-5 there
                      "resistance": (_log_uniform(rng, 1.0e-4, 1.0e-2)
                                     if regime == "low-T"
                                     else rng.uniform(0.0, 1.0)),
                      "regime": regime}
            gap_lo = _log_uniform(rng, 1.0e-6, 1.0e-5)
            gap_hi = gap_lo * rng.uniform(3.0, 10.0)
        else:
            radius = _log_uniform(rng, 1.0e-5, 1.0e-3)
            params = {"radius": radius,
                      "inductance": _log_uniform(rng, 1.0e-7, 1.0e-5),
                      "regime": regime}
            gap_lo = radius * rng.uniform(0.02, 0.1)
            gap_hi = radius * rng.uniform(0.3, 0.9)
        if sweep_param == "lambda":
            params["temperature"] = rng.uniform(1.0, 400.0)
            start, stop = gap_lo, gap_hi
        else:
            params["temperature"] = 300.0
            params["lambda"] = math.sqrt(gap_lo * gap_hi)
            start, stop = rng.uniform(1.0, 10.0), rng.uniform(100.0, 1000.0)
        units = "si"
    else:
        params = _reduced_params(kind, rng)
        if sweep_param == "lambda":
            params["temperature"] = rng.uniform(
                0.1 if kind == "osc-drude" else 0.05, 5.0)
            start = rng.uniform(0.3, 1.0)
            stop = start * rng.uniform(2.0, 5.0)
        else:
            params["lambda"] = rng.uniform(0.5, 2.0)
            start = rng.uniform(0.1 if kind == "osc-drude" else 0.02, 0.2)
            stop = start * rng.uniform(10.0, 25.0)
        units = "reduced"
    return {"schema": SCHEMA, "mode": _mode(kind), "units": units,
            "parameters": params,
            "sweep": {"parameter": sweep_param, "start": start, "stop": stop,
                      "points": ROWS_CLOSED, "spacing": spacing},
            "output": {"format": fmt}, "workers": workers}


def sweep_closed(seed: int, nproc: int) -> list[dict]:
    """48 closed-form sweeps: each of the six mode/damping kinds once per
    (sweep parameter, spacing, workers) cell, half CSV and half JSON."""
    rng = random.Random(f"sweep-closed/{seed}")
    configs = []
    for kind in CLOSED_KINDS:
        cells = list(itertools.product(("lambda", "temperature"),
                                       ("linear", "log"), (1, nproc)))
        formats = ["csv", "json"] * (len(cells) // 2)
        rng.shuffle(formats)
        for (param, spacing, workers), fmt in zip(cells, formats):
            cfg = _closed_config(kind, param, spacing, fmt, workers, rng)
            cfg["kind"] = kind
            configs.append(cfg)
    rng.shuffle(configs)
    return configs


def _value(law, lam: float) -> float:
    if isinstance(law, dict):
        return law["coeff"] * lam ** law["power"]
    return float(law)


def oracle_scale(kind: str, params: dict, lam: float) -> float:
    """The largest frequency scale the oracle's auto-scaling uses."""
    if kind == "osc-ohmic":
        return max(_value(params["omega0"], lam), params["gamma0"])
    if kind == "osc-drude":
        return max(_value(params["omega0"], lam),
                   _value(params["gamma0"], lam),
                   _value(params["omega_d"], lam))
    r = _value(params["resistance"], lam)
    ind = _value(params["inductance"], lam)
    cap = _value(params["capacitance"], lam)
    omega = 1.0 / math.sqrt(ind * cap)
    gamma = r / ind if kind == "series-rlc" else 1.0 / (r * cap)
    return max(omega, gamma)


def _oracle_config(kind: str, n_max: int, sweep_param: str, workers: int,
                   rng: random.Random, low_t_terms: float | None = None) -> dict:
    params = _reduced_params(kind, rng)
    if low_t_terms is not None:
        # a log temperature sweep whose coldest row asks the oracle for
        # low_t_terms terms; each warmer row needs ten times fewer, down
        # to the n_max floor
        params["lambda"] = rng.uniform(0.5, 2.0)
        scale = oracle_scale(kind, params, params["lambda"])
        start = AUTO_SCALE_FACTOR * scale / low_t_terms
        stop = start * 10.0 ** (ROWS_ORACLE - 1)
        sweep = {"parameter": "temperature", "start": start, "stop": stop,
                 "points": ROWS_ORACLE, "spacing": "log"}
    else:
        # outside the low-T share no row may auto-scale, so every row of
        # an n_max class sums the same number of terms
        if sweep_param == "lambda":
            start = rng.uniform(0.5, 1.0)
            stop = start * rng.uniform(1.5, 2.0)
            scale = max(oracle_scale(kind, params, start),
                        oracle_scale(kind, params, stop))
            params["temperature"] = max(
                rng.uniform(0.2, 2.0), 1.05 * AUTO_SCALE_FACTOR * scale / n_max)
        else:
            params["lambda"] = rng.uniform(0.5, 1.5)
            scale = oracle_scale(kind, params, params["lambda"])
            start = max(rng.uniform(0.2, 0.5),
                        1.05 * AUTO_SCALE_FACTOR * scale / n_max)
            stop = start * rng.uniform(2.0, 4.0)
        sweep = {"parameter": sweep_param, "start": start, "stop": stop,
                 "points": ROWS_ORACLE, "spacing": rng.choice(("linear", "log"))}
    return {"schema": SCHEMA, "mode": _mode(kind), "units": "reduced",
            "parameters": params, "sweep": sweep,
            "oracle": {"enabled": True, "n_max": n_max},
            "output": {"format": rng.choice(("csv", "json"))},
            "workers": workers, "kind": kind}


def sweep_oracle(seed: int, nproc: int) -> list[dict]:
    """76 oracle sweeps at workers = nproc, each labelled with its class.

    Per kind: twelve sweeps at n_max 2e4 and six at 1e5, half lambda and
    half temperature sweeps.  Two at 1e6: one Drude, one of the Ohmic
    family.  Two low-temperature sweeps auto-scale: an Ohmic-family one
    whose coldest row hits the 16M cap ("capped"), and a Drude one from
    2e6 terms down ("low-T").
    """
    rng = random.Random(f"sweep-oracle/{seed}")
    configs = []

    def add(label, kind, n_max, param, low_t_terms=None):
        cfg = _oracle_config(kind, n_max, param, nproc, rng, low_t_terms)
        cfg["class"] = label
        configs.append(cfg)

    for kind in ORACLE_KINDS:
        for n_max in ORACLE_N_MAX[:2]:
            for k in range(ORACLE_SWEEPS[n_max]):
                add(f"n_max {n_max:.0e}", kind, n_max,
                    ("lambda", "temperature")[k % 2])
    for kind in (rng.choice(OHMIC_FAMILY), "osc-drude"):
        add("n_max 1e+06", kind, ORACLE_N_MAX[2],
            rng.choice(("lambda", "temperature")))
    add("capped", rng.choice(OHMIC_FAMILY), ORACLE_N_MAX[0], "temperature",
        low_t_terms=2.0 * HARD_CAP)
    add("low-T", "osc-drude", ORACLE_N_MAX[0], "temperature",
        low_t_terms=2.0e6)
    rng.shuffle(configs)
    return configs


def validate_order(seed: int, passes: int) -> list[list[str]]:
    """The suite order of each full validate pass."""
    rng = random.Random(f"validate/{seed}")
    order = []
    for _ in range(passes):
        suites = list(VALIDATE_SUITES)
        rng.shuffle(suites)
        order.append(suites)
    return order


#: damping cases of the points workload: (label, gamma0 / Omega)
DAMPING_CASES = ("under", "critical", "over")


def point_sets(seed: int, count: int = 48) -> list[dict]:
    """Parameter sets for the single-point library calls.

    Each set is stratified over damping (under / exactly critical /
    over), carries a Drude cutoff ratio from 10 to 1e4, and every fourth
    set has T = 0 so the closed forms take their low-temperature
    reroute.
    """
    rng = random.Random(f"points/{seed}")
    sets = []
    for i in range(count):
        om = rng.uniform(0.3, 3.0)
        damping = DAMPING_CASES[i % 3]
        if damping == "under":
            g = om * rng.uniform(0.05, 1.5)
        elif damping == "critical":
            g = 2.0 * om
        else:
            g = om * rng.uniform(2.5, 8.0)
        t = 0.0 if i % 4 == 3 else om * _log_uniform(rng, 0.05, 20.0)
        ratio = _log_uniform(rng, 10.0, 1.0e4)
        sets.append({
            "omega0": om, "gamma0": g, "temperature": t,
            "damping": damping,
            "drude_gamma0": om * rng.uniform(0.05, 2.0),
            "drude_ratio": ratio,
            "d_omega": rng.uniform(0.5, 2.0),
            "d_gamma0": rng.uniform(-1.0, 1.0),
            "d_omega_d": rng.uniform(0.5, 2.0),
            "z": complex(rng.uniform(0.05, 30.0), rng.uniform(-30.0, 30.0)),
            "gap": _log_uniform(rng, 1.0e-6, 1.0e-4),
            "area": _log_uniform(rng, 1.0e-5, 1.0e-3),
            "radius": _log_uniform(rng, 1.0e-5, 1.0e-3),
            "inductance": _log_uniform(rng, 1.0e-7, 1.0e-5),
            "kelvin": rng.uniform(1.0, 400.0),
            "regime": rng.choice(("high-T", "low-T")),
        })
    rng.shuffle(sets)
    return sets
