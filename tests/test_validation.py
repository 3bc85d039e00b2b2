"""The Vieta battery: its block of draws and its report."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fluctforce import cli, oscillator, validation


def _scalar_draws(count, rng):
    """The battery's draws one set at a time, three rng.uniform calls per
    set: the loop that the block draw replaced, kept as its reference."""
    sets = []
    for _ in range(count):
        om = float(rng.uniform(0.1, 10.0))
        wd = om * float(np.exp(rng.uniform(0.0, math.log(1.0e4))))
        g0 = om * float(rng.uniform(0.0, 10.0))
        sets.append((om, wd, g0))
    return sets


def test_vieta_grid_is_the_scalar_stream():
    seed = validation._SEED + 3
    om, wd, g0 = validation._vieta_grid(10_000, np.random.default_rng(seed))
    ref = np.array(_scalar_draws(10_000, np.random.default_rng(seed)))
    for got, want in zip((om, wd, g0), ref.T):
        assert got.tobytes() == want.tobytes()


def test_vieta_report_line():
    assert validation.criterion_vieta().line() == (
        "PASS vieta-and-cubic-residuals: worst=6.070e-03 tol=1.000e+00 "
        "(10000 parameter sets, residuals as fraction of their stated "
        "bounds)")


@pytest.mark.parametrize("criterion", [
    validation.criterion_vieta, validation.criterion_ohmic_oracle,
    validation.criterion_gamma_vs_product], ids=lambda c: c.__name__)
def test_criterion_without_sets_passes_at_zero(criterion):
    rep = criterion(0)
    assert rep.passed and rep.worst == 0.0


def test_vieta_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(validation, "_drude_roots", lambda om, g0, wd: (
        complex(math.nan, 0.0), 0j, 0j))
    rep = validation.criterion_vieta(3)
    assert not rep.passed
    assert math.isnan(rep.worst)


@pytest.mark.parametrize("module, name, wrong", [
    ("forces", "force_ohmic_exact", 400),   # both signs of dOmega
    ("matsubara", "force_sum_exact", 200),
    ("forces", "force_drude_full", 150),
])
def test_sign_laws_fail_on_a_wrong_sign(monkeypatch, module, name, wrong):
    module = getattr(validation, module)
    force = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: SimpleNamespace(
        value=-force(*args).value))
    rep = validation.criterion_sign_laws()
    assert rep.passed is False and rep.worst == wrong > 0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def call(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, call)
    return calls


@pytest.mark.parametrize("count", [0, 1, 257])
def test_vieta_solves_each_set_once_through_the_module(monkeypatch, count):
    # the benchmark's tracer counts cubic solves on the module attribute
    solves = _counting(monkeypatch, oscillator, "solve_cubic")
    assert validation.criterion_vieta(count).passed
    assert len(solves) == count


def test_ohmic_oracle_suite_evaluates_its_grid_once(monkeypatch):
    sums = _counting(monkeypatch, validation.matsubara, "force_sum_exact")
    closed = _counting(monkeypatch, validation.forces, "force_ohmic_exact")
    oracle, signs = validation.run_suite("ohmic-oracle")
    assert len(sums) == 200 and len(closed) == 400
    # dOmega = +1 at each grid point in criterion 1, -1 in the sign laws
    assert [args[1] for args in closed] == [1.0] * 200 + [-1.0] * 200
    # the same reports as each criterion evaluating its own grid
    for shared, alone in ((oracle, validation.criterion_ohmic_oracle()),
                          (signs, validation.criterion_sign_laws())):
        assert (shared.worst.hex(), shared.line()) == (alone.worst.hex(),
                                                       alone.line())
    assert len(sums) == 600 and len(closed) == 1000


def test_ohmic_oracle_suite_keeps_no_grid_between_calls(monkeypatch):
    validation.run_suite("ohmic-oracle")
    sums = _counting(monkeypatch, validation.matsubara, "force_sum_exact")
    validation.run_suite("ohmic-oracle")
    assert len(sums) == 200


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        validation.run_suite("nope")


#: the lines `fluctforce validate --suite <suite>` prints, one per
#: criterion.  A change that moves a criterion's worst case or tolerance
#: on purpose updates its line here, and says why.
VALIDATE_LINES = {
    "ohmic-oracle": (
        "PASS ohmic-oracle-equivalence: worst=1.421e-06 tol=1.000e+00 "
        "(200 cases, 32 terms + tail, worst as fraction of "
        "max(1e-8, 2*estimate))",
        "PASS sign-laws: worst=0.000e+00 tol=0.000e+00 (750 sign checks)",
    ),
    "drude-fd": (
        "PASS drude-finite-difference: worst=3.264e-08 tol=1.000e-05 "
        "(50 cases, relative)",
        "PASS gamma-vs-product: worst=2.311e-13 tol=1.000e-08 "
        "(20 cases, 32 terms + tail, relative)",
        "PASS vieta-and-cubic-residuals: worst=6.070e-03 tol=1.000e+00 "
        "(10000 parameter sets, residuals as fraction of their stated "
        "bounds)",
    ),
    "asymptotics": (
        "PASS zero-point-limit: worst=3.183e-07 tol=1.000e-03 "
        "(relative to -(hbar/2) dOmega)",
        "PASS asymptotic-slopes: worst=-1.096e+00 tol=0.000e+00 "
        "(high-T slope -3.00 (<= -1.8 required); low-T error slope 2.00 "
        "vs T (>= 0.9 required, i.e. at least first-order decay as "
        "T -> 0))",
        "PASS critical-damping-continuity: worst=6.171e-07 tol=1.000e-06 "
        "(20 (Omega, T) pairs)",
    ),
    "circuits": (
        "PASS circuit-composition: worst=3.322e-13 tol=1.000e+00 "
        "(composition residual and weight quotients, as fractions of "
        "their tolerances)",
    ),
    "paper-numbers": (
        "PASS planar-relative-weights: worst=3.865e-01 tol=1.000e+00 "
        "(r_T at d^2/S = 0.04 and 2.5e-3 vs 0.42+-0.02, 0.03+-0.01)",
        "PASS sphere-plate-relative-weights: worst=1.779e-01 "
        "tol=1.000e+00 (r_T at d/R = 0.75 and 0.035 vs 0.50+-0.02, "
        "0.02+-0.005)",
    ),
}


@pytest.mark.parametrize("suite", validation.SUITE_NAMES)
def test_validate_transcript(suite, capsys):
    assert cli.main(["validate", "--suite", suite]) == 0
    assert capsys.readouterr().out.splitlines() == list(VALIDATE_LINES[suite])


def test_validation_hands_the_library_python_floats(monkeypatch):
    # a numpy scalar argument runs numpy's scalar arithmetic, not the
    # float path the CLI takes, and comes back as a numpy scalar
    grid = validation._ohmic_grid(50, np.random.default_rng(validation._SEED))
    assert all(type(x) is float for row in grid for x in row)
    seen = []

    def recording(module, name):
        original = getattr(module, name)

        def call(p, *args):
            result = original(p, *args)
            seen.append((name, type(p.omega0), type(p.damping.gamma0),
                         type(p.temperature), type(result.value)))
            return result
        monkeypatch.setattr(module, name, call)

    for name in ("force_ohmic_exact", "force_ohmic_high_t",
                 "force_ohmic_low_t"):
        recording(validation.forces, name)
    recording(validation.matsubara, "force_sum_exact")
    for criterion in (lambda: validation.criterion_ohmic_oracle(20),
                      validation.criterion_sign_laws,
                      validation.criterion_asymptotic_slopes):
        assert criterion().passed
    assert {name for name, *_ in seen} == {
        "force_ohmic_exact", "force_ohmic_high_t", "force_ohmic_low_t",
        "force_sum_exact"}
    assert all(t is float for _, *types in seen for t in types)
