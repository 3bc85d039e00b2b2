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
        "PASS vieta-and-cubic-residuals: worst=2.972e-03 tol=1.000e+00 "
        "(10000 parameter sets, residuals as fraction of their stated "
        "bounds)")


@pytest.mark.parametrize("criterion", [
    validation.criterion_vieta, validation.criterion_ohmic_oracle,
    validation.criterion_gamma_vs_product], ids=lambda c: c.__name__)
def test_criterion_without_sets_passes_at_zero(criterion):
    rep = criterion(0)
    assert rep.passed and rep.worst == 0.0


def test_vieta_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(oscillator, "solve_cubic", lambda a2, a1, a0: (
        complex(math.nan, 0.0), 0j, 0j))
    rep = validation.criterion_vieta(3)
    assert not rep.passed
    assert math.isnan(rep.worst)


@pytest.mark.parametrize("perturbed", [0, 128, 256])
def test_vieta_fails_on_a_largest_root_off_by_1e_9(monkeypatch, perturbed):
    solve = oscillator.solve_cubic
    calls = []

    def solve_and_perturb(a2, a1, a0):
        roots = list(solve(a2, a1, a0))
        if len(calls) == perturbed:
            k = max(range(3), key=lambda i: abs(roots[i]))
            roots[k] *= 1.0 + 1.0e-9
        calls.append(a2)
        return tuple(roots)
    monkeypatch.setattr(oscillator, "solve_cubic", solve_and_perturb)
    rep = validation.criterion_vieta(257)
    # the roots sum to -omega_d and the largest is at least omega_d / 3:
    # the sum misses by at least 1e-9 omega_d / 3, 333 times its bound
    assert not rep.passed and rep.worst > 300.0


def _battery(count):
    """(om, wd, g0, a1, a0) of the battery's first count sets."""
    om, wd, g0 = validation._vieta_grid(
        count, np.random.default_rng(validation._SEED + 3))
    return om, wd, g0, om * om + g0 * wd, om * om * wd


def _omega_space_residuals(count):
    """The battery's residuals as they were taken before they moved to s:
    the ordered roots omega of the kernel behind
    eigenfrequencies_drude_exact, the residuals in omega; kept as their
    reference.  The dispersion residual is each set's worst of its three
    roots."""
    om, wd, g0, _, _ = _battery(count)
    flat = []
    for o, d, g in zip(om.tolist(), wd.tolist(), g0.tolist()):
        flat += oscillator._drude_roots(o, g, d)
    w = np.array(flat, dtype=complex).reshape(count, 3)
    w1, w2, w3 = w.T
    b = om * om + g0 * wd
    c = 1j * om * om * wd
    r1 = abs(w1 + w2 + w3 + 1j * wd) / (1.0e-12 * wd)
    r2 = abs(w1 * w2 + w1 * w3 + w2 * w3 + b) / (1.0e-12 * b)
    r3 = abs(w1 * w2 * w3 - c) / (1.0e-12 * om * om * wd)
    sq = w * w
    res = abs(w * sq + (1j * wd)[:, None] * sq - b[:, None] * w
              - c[:, None]) / (1.0e-10 * wd ** 3)[:, None]
    return r1, r2, r3, res.max(axis=1)


def _s_space_residuals(count):
    """criterion_vieta's four residuals in s, each set's worst root for the
    dispersion residual, and for each the sum of its terms' magnitudes
    over its bound."""
    om, wd, g0, a1, a0 = _battery(count)
    s = np.array([oscillator.solve_cubic(*c) for c in zip(
        wd.tolist(), a1.tolist(), a0.tolist())], dtype=complex)
    s1, s2, s3 = s.T
    m = abs(s)
    m1, m2, m3 = m.T
    sq = s * s
    res = abs(s * sq + wd[:, None] * sq + a1[:, None] * s
              + a0[:, None]) / (1.0e-10 * wd ** 3)[:, None]
    res_terms = (m ** 3 + wd[:, None] * m * m + a1[:, None] * m
                 + a0[:, None]) / (1.0e-10 * wd ** 3)[:, None]
    residuals = (abs(s1 + s2 + s3 + wd) / (1.0e-12 * wd),
                 abs(s1 * s2 + s1 * s3 + s2 * s3 - a1) / (1.0e-12 * a1),
                 abs(s1 * s2 * s3 + a0) / (1.0e-12 * a0), res.max(axis=1))
    terms = ((m1 + m2 + m3 + wd) / (1.0e-12 * wd),
             (m1 * m2 + m1 * m3 + m2 * m3 + a1) / (1.0e-12 * a1),
             (m1 * m2 * m3 + a0) / (1.0e-12 * a0), res_terms.max(axis=1))
    return residuals, terms


def test_vieta_residuals_in_s_give_the_omega_space_worst():
    """The residuals in s are the residuals in omega up to the rounding of
    their evaluation.

    Each residual is |t_1 + ... + t_k| / bound with k <= 4 terms t_j, a
    coefficient or a product of up to three roots.  With omega = i s the
    terms are the same numbers times a power of i, and multiplying by i
    is exact, so both forms evaluate the same exact sum.  They round
    differently: the omega form multiplies complex numbers where the s
    form multiplies reals, and it adds the roots in their sorted order.
    Each product and each of the k - 1 additions errs by at most about
    u = 2^-53 of a partial result no larger than T = sum_j |t_j|, so the
    two residuals differ by a few u T / bound.  The allowance is 4 u T /
    bound; on this battery the difference reaches 1.92 u T / bound.  The
    worst values then differ by no more than the allowance at the sets
    where each form has its worst: 8.9e-4 of the bound here, where the
    two differ by 1 ulp, far below the pass limit of 1.0."""
    allow = 4.0 * 2.0 ** -53
    in_s, terms = _s_space_residuals(10_000)
    in_omega = _omega_space_residuals(10_000)
    for r_s, r_omega, t in zip(in_s, in_omega, terms):
        assert np.all(abs(r_s - r_omega) <= allow * t)
    r_s, r_omega, t = (np.concatenate(x) for x in (in_s, in_omega, terms))
    i, j = int(np.argmax(r_s)), int(np.argmax(r_omega))
    assert r_s[i] == validation.criterion_vieta().worst
    assert abs(r_s[i] - r_omega[j]) <= allow * max(t[i], t[j]) < 2.0e-3


def _nan_at(monkeypatch, module, name, call, field="value"):
    """Replace module.name by the original whose result at the given call,
    counted from 0, is NaN, or has a NaN field."""
    original = getattr(module, name)
    calls = []

    def nan_once(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(args)
        if len(calls) - 1 != call:
            return result
        if type(result) is float:
            return math.nan
        return SimpleNamespace(**{**vars(result), field: math.nan})
    monkeypatch.setattr(module, name, nan_once)
    return calls


@pytest.mark.parametrize("criterion, module, name, call", [
    ("ohmic_oracle", "forces", "force_ohmic_exact", 0),
    ("ohmic_oracle", "matsubara", "force_sum_exact", 0),
    ("drude_fd", "forces", "force_drude_full", 0),
    ("drude_fd", "matsubara", "finite_difference_force", 0),
    ("gamma_vs_product", "forces", "free_energy_drude_gamma", 0),
    ("gamma_vs_product", "matsubara", "free_energy_drude", 0),
    ("zero_point", "forces", "force_ohmic_exact", 0),
    ("critical_damping", "forces", "force_ohmic_exact", 0),
    ("critical_damping", "forces", "force_ohmic_exact", 1),
    ("circuit_composition", "circuits", "force_series_rlc", 0),
    ("circuit_composition", "circuits", "sphere_plate_circuit_force", 0),
    # a NaN only after the first check: max(checks) kept one that led
    ("planar_weights", "circuits", "relative_weight", 1),
    ("sphere_weights", "circuits", "relative_weight", 1),
    ("asymptotic_slopes", "validation", "_fit_slope", 1),
], ids=lambda x: str(x))
def test_criterion_fails_on_a_nan(monkeypatch, criterion, module, name,
                                  call):
    # a NaN at the first of many values, which the builtin max dropped
    # at once and a plain x if not x <= worst else worst at the next
    module = validation if module == "validation" else getattr(validation,
                                                               module)
    calls = _nan_at(monkeypatch, module, name, call)
    rep = getattr(validation, f"criterion_{criterion}")()
    assert len(calls) > call
    assert rep.passed is False and math.isnan(rep.worst)
    assert rep.line().startswith("FAIL ") and "worst=nan" in rep.line()


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
        "PASS vieta-and-cubic-residuals: worst=2.972e-03 tol=1.000e+00 "
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


def test_ohmic_oracle_fails_on_a_nan_estimate(monkeypatch):
    # max(1e-8, NaN) was 1e-8: the case passed on its value alone
    _nan_at(monkeypatch, validation.matsubara, "force_sum_exact", 0,
            "truncation_estimate")
    rep = validation.criterion_ohmic_oracle()
    assert rep.passed is False and math.isnan(rep.worst)
