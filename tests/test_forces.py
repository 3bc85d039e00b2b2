"""Closed-form forces against their oracles and printed limits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctforce import forces
from fluctforce.errors import DomainError, PreconditionError
from fluctforce.forces import (force_drude_full, force_drude_high_t,
                               force_drude_low_t, force_drude_very_high_t,
                               force_ohmic_exact, force_ohmic_high_t,
                               force_ohmic_low_t,
                               force_ohmic_weak_dissipation, force_tilde,
                               free_energy_difference_gamma,
                               free_energy_drude_gamma)
from fluctforce.matsubara import (SumSpec, finite_difference_force,
                                  force_sum_exact, free_energy_difference,
                                  free_energy_drude)
from fluctforce.oscillator import Drude, Ohmic, OscillatorParams, \
    ParametricModel

from test_matsubara import OHMIC_FORCE_FIXTURE, linear_model


def test_zero_derivative_is_zero():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    assert force_ohmic_exact(p, 0.0).value == 0.0
    assert force_ohmic_weak_dissipation(p, 0.0).value == 0.0
    assert force_ohmic_high_t(p, 0.0).value == 0.0
    assert force_ohmic_low_t(p, 0.0).value == 0.0
    assert force_tilde(p, 0.0, 0.0).value == 0.0


def test_ohmic_exact_fixture():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    res = force_ohmic_exact(p, 1.0)
    assert res.regime == "exact"
    assert abs(res.value - OHMIC_FORCE_FIXTURE) <= 1e-12


def test_ohmic_exact_zero_point_limit():
    p = OscillatorParams(1.0, Ohmic(1e-6), 1e-4)
    res = force_ohmic_exact(p, 1.0)
    assert abs(res.value + 0.5) <= 1e-3 * 0.5


def test_ohmic_exact_oracle_agreement_grid():
    rng = np.random.default_rng(99)
    for _ in range(30):
        om = float(rng.uniform(0.1, 10.0))
        g = float(rng.uniform(0.0, 20.0))
        t = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        p = OscillatorParams(om, Ohmic(g), t)
        m = linear_model(om, dom=1.0, g0=g)
        oracle = force_sum_exact(p, m, 1.0, SumSpec(n_max=100_000))
        got = force_ohmic_exact(p, 1.0).value
        assert abs(got - oracle.value) \
            <= max(1e-8, 2.0 * oracle.truncation_estimate)


def test_weak_dissipation_undamped_is_coth():
    p = OscillatorParams(1.5, Ohmic(0.0), 0.8)
    ref = -0.5 / math.tanh(1.5 / 1.6)
    res = force_ohmic_weak_dissipation(p, 1.0)
    assert res.value == pytest.approx(ref, rel=1e-14)
    assert res.warnings == ()
    # gamma = 0 must also coincide with the exact route
    assert force_ohmic_exact(p, 1.0).value == pytest.approx(ref, rel=1e-13)


def test_weak_dissipation_error_is_second_order():
    om, t = 1.0, 0.7
    deltas = []
    for g in (1e-2 * om, 1e-3 * om):
        p = OscillatorParams(om, Ohmic(g), t)
        deltas.append(abs(force_ohmic_weak_dissipation(p, 1.0).value
                          - force_ohmic_exact(p, 1.0).value))
    # gamma down 10x -> error down ~100x
    assert deltas[1] <= 0.03 * deltas[0]


def test_weak_dissipation_guard_flag():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.8)
    assert forces.WARN_WEAK_DISSIPATION in \
        force_ohmic_weak_dissipation(p, 1.0).warnings


def test_high_t_value_and_agreement():
    p = OscillatorParams(1.0, Ohmic(0.0), 100.0)
    res = force_ohmic_high_t(p, 1.0)
    assert res.value == pytest.approx(-(100.0 + 1.0 / 1200.0), rel=1e-15)
    exact = force_ohmic_exact(p, 1.0).value
    assert abs(res.value - exact) <= 1e-4 * abs(exact)
    assert abs(res.value + 100.0) <= 1e-3 * 100.0   # leading term -T/Omega


def test_high_t_slope():
    om, g = 1.0, 0.5
    ts = np.logspace(1.0, 3.0, 9)
    errs = []
    for t in ts:
        p = OscillatorParams(om, Ohmic(g), float(t))
        exact = force_ohmic_exact(p, 1.0).value
        errs.append(abs(force_ohmic_high_t(p, 1.0).value - exact) / abs(exact))
    slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
    assert abs(slope + 3.0) <= 0.15


def test_low_t_undamped_limit():
    p = OscillatorParams(2.0, Ohmic(0.0), 0.0)
    assert force_ohmic_low_t(p, 1.0).value == pytest.approx(-0.5, rel=1e-14)


def test_low_t_branch_continuity_at_critical_damping():
    for om in (0.5, 1.0, 2.0):
        lo = force_ohmic_low_t(
            OscillatorParams(om, Ohmic(2.0 * om * (1 - 1e-6)), 0.0), 1.0).value
        hi = force_ohmic_low_t(
            OscillatorParams(om, Ohmic(2.0 * om * (1 + 1e-6)), 0.0), 1.0).value
        mid = force_ohmic_low_t(
            OscillatorParams(om, Ohmic(2.0 * om), 0.0), 1.0).value
        assert abs(hi - lo) <= 1e-5 * abs(mid)
        assert abs(mid + 1.0 / math.pi) <= 1e-9  # removable limit, Omega' = 1


def test_low_t_overdamped_matches_exact():
    p = OscillatorParams(1.0, Ohmic(10.0), 1e-5)
    approx = force_ohmic_low_t(p, 1.0).value
    exact = force_ohmic_exact(p, 1.0).value
    assert abs(approx - exact) <= 1e-3 * abs(exact)
    # overdamped printed form
    root = math.sqrt(100.0 - 4.0)
    printed = -(1.0 / (math.pi * root)) * math.log((10.0 + root) / (10.0 - root))
    assert approx == pytest.approx(printed, rel=1e-12)


def test_low_t_names_the_small_root_where_it_rounds_to_zero():
    # i omega1 = Omega^2 / i omega2 underflows to 0, and log(0) is undefined
    with pytest.raises(DomainError, match=r"takes log\(i omega1\), and "
                       r"i omega1 rounds to 0 at this overdamping$"):
        force_ohmic_low_t(OscillatorParams(1e-170, Ohmic(1e3), 0.0), 1.0)


@pytest.mark.parametrize("ratio", [1e4, 1e6, 1e8])
def test_strongly_overdamped_exact_force_matches_the_oracle(ratio):
    # i omega1 = gamma/2 - sqrt(gamma^2/4 - Omega^2) would cancel to
    # 1.2e-11, 5.5e-8 and 1.4e-3 relative error here; it is Omega^2 over
    # the large root instead
    p = OscillatorParams(1.0, Ohmic(ratio), 1.0 / ratio)
    exact = force_ohmic_exact(p, 1.0).value
    oracle = force_sum_exact(p, linear_model(1.0, dom=1.0, g0=ratio), 1.0)
    assert abs(exact - oracle.value) <= max(
        1e-12 * abs(oracle.value), 2.0 * oracle.truncation_estimate)


def test_low_t_underdamped_printed_form():
    om, g = 1.0, 1.2
    p = OscillatorParams(om, Ohmic(g), 0.0)
    sq = math.sqrt(om * om - 0.25 * g * g)
    printed = -(om / (2.0 * sq)) * (1.0 - (2.0 / math.pi)
                                    * math.atan(0.5 * g / sq))
    assert force_ohmic_low_t(p, 1.0).value == pytest.approx(printed, rel=1e-12)


def test_low_t_error_slope():
    om, g = 1.0, 3.0
    scale = 0.5 * g - math.sqrt(0.25 * g * g - om * om)
    ts = np.geomspace(1e-4, 1e-1, 9) * scale
    errs = []
    for t in ts:
        p = OscillatorParams(om, Ohmic(g), float(t))
        exact = force_ohmic_exact(p, 1.0).value
        errs.append(abs(force_ohmic_low_t(p, 1.0).value - exact) / abs(exact))
    slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.15


def test_monotone_crossover_continuity():
    # continuity probe at each grid temperature: no branch seams
    p0 = OscillatorParams(1.0, Ohmic(1.3), 1.0)
    for t in np.geomspace(1e-4, 1e4, 81):
        lo = force_ohmic_exact(
            OscillatorParams(1.0, Ohmic(1.3), float(t) * (1 - 1e-9)), 1.0).value
        hi = force_ohmic_exact(
            OscillatorParams(1.0, Ohmic(1.3), float(t) * (1 + 1e-9)), 1.0).value
        assert abs(hi - lo) <= 1e-8 * abs(lo)
    del p0


def test_t_zero_routes_to_low_t():
    p = OscillatorParams(1.0, Ohmic(0.8), 0.0)
    res = force_ohmic_exact(p, 1.0)
    assert res.regime == "low-T"
    assert res.value == force_ohmic_low_t(p, 1.0).value


@pytest.mark.parametrize("t", [0.45, 0.0])
@pytest.mark.parametrize("g0", [0.6, 2.0, 5.0],
                         ids=["under", "critical", "over"])
def test_each_closed_form_builds_the_root_pair_once(monkeypatch, g0, t):
    builds = []
    pair_data = forces._pair_data

    def counted(om, g):
        builds.append((om, g))
        return pair_data(om, g)

    monkeypatch.setattr(forces, "_pair_data", counted)
    p = OscillatorParams(1.0, Ohmic(g0), t)
    m = linear_model(1.0, 1.0, g0, 0.5, 300.0, 0.7)
    p_dr = m.params_at(1.0, t)
    calls = {"force_ohmic_exact": lambda: force_ohmic_exact(p, 1.0),
             "force_ohmic_low_t": lambda: force_ohmic_low_t(p, 1.0),
             "force_drude_full": lambda: force_drude_full(p_dr, m, 1.0),
             "force_drude_low_t": lambda: force_drude_low_t(p_dr, m, 1.0)}
    if t > 0.0:     # force_tilde needs T > 0
        calls["force_tilde"] = lambda: force_tilde(p, 1.0, 0.3)
    counts = {}
    for name, call in calls.items():
        builds.clear()
        call()
        assert set(builds) <= {(1.0, g0)}
        counts[name] = len(builds)
    assert counts == dict.fromkeys(calls, 1)


def test_tilde_reduces_to_exact_without_gamma_derivative():
    p = OscillatorParams(1.3, Ohmic(0.6), 0.45)
    assert force_tilde(p, 1.0, 0.0).value \
        == pytest.approx(force_ohmic_exact(p, 1.0).value, rel=1e-14)


def test_tilde_difference_contract():
    # f~(k1) - f~(k2) = f(k1) - f(k2), with f from the convergent
    # difference free energy via finite differences
    t, om1, om2 = 0.6, 1.0, 1.7

    def f_tilde(om):
        p = OscillatorParams(om, Ohmic(0.4), t)
        return force_tilde(p, 0.0, 0.4).value   # gamma(lam) = 0.4 lam at lam=1

    def fe_diff(lam):
        p1 = OscillatorParams(om1, Ohmic(0.4 * lam), t)
        p2 = OscillatorParams(om2, Ohmic(0.4 * lam), t)
        return free_energy_difference(p1, p2, SumSpec(n_max=200_000)).value

    lhs = f_tilde(om2) - f_tilde(om1)
    rhs = finite_difference_force(fe_diff, 1.0, h=1e-4).value
    assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


def test_tilde_same_kappa_difference_is_zero():
    p = OscillatorParams(1.0, Ohmic(0.4), 0.6)
    assert force_tilde(p, 0.3, 0.7).value - force_tilde(p, 0.3, 0.7).value == 0.0


def test_drude_full_zero_derivatives():
    m = linear_model(1.0, 0.0, 0.3, 0.0, 300.0, 0.0)
    p = m.params_at(1.0, 0.5)
    assert force_drude_full(p, m, 1.0).value == 0.0


def test_drude_full_matches_fd_oracle():
    t = 0.5
    m = linear_model(1.0, 1.0, 0.3, 1.0, 300.0, 1.0)
    p = m.params_at(1.0, t)
    fd = finite_difference_force(
        lambda lam: free_energy_drude_gamma(m.params_at(lam, t)), 1.0)
    res = force_drude_full(p, m, 1.0)
    assert abs(res.value - fd.value) <= 1e-5 * abs(fd.value)
    assert set(res.components) == {"f_omega", "f_gamma0", "f_omegaD"}
    assert sum(res.components.values()) == pytest.approx(res.value, rel=1e-12)


def test_drude_full_fd_of_product_free_energy():
    t = 0.5
    m = linear_model(1.0, 1.0, 0.3, 1.0, 300.0, 1.0)
    p = m.params_at(1.0, t)
    fd = finite_difference_force(
        lambda lam: free_energy_drude(m.params_at(lam, t),
                                      SumSpec(n_max=400_000)).value,
        1.0, h=1e-3)
    res = force_drude_full(p, m, 1.0)
    assert abs(res.value - fd.value) <= 1e-5 * abs(fd.value)


def test_drude_full_ohmic_limit():
    m = linear_model(1.0, 1.0, 0.3, 0.0, 1e6, 0.0)
    p = m.params_at(1.0, 0.7)
    drude = force_drude_full(p, m, 1.0).value
    ohmic = force_ohmic_exact(OscillatorParams(1.0, Ohmic(0.3), 0.7), 1.0).value
    assert abs(drude - ohmic) <= 1e-4 * abs(ohmic)


def test_drude_full_regime_warning():
    m = linear_model(1.0, 1.0, 0.3, 0.0, 5.0, 0.0)
    p = m.params_at(1.0, 0.5)
    res = force_drude_full(p, m, 1.0)
    assert "drude-approx-regime" in res.warnings


def test_drude_full_rejects_overdamped_cutoff():
    m = linear_model(1.0, 1.0, 10.0, 0.0, 5.0, 0.0)
    p = m.params_at(1.0, 0.5)
    with pytest.raises(PreconditionError):
        force_drude_full(p, m, 1.0)


def test_drude_very_high_t():
    m = linear_model(1.0, 0.0, 0.3, 0.0, 30.0, 0.0)
    p = m.params_at(1.0, 3000.0)
    assert force_drude_very_high_t(p, m, 1.0).value == 0.0
    m = linear_model(1.0, 1.0, 0.3, 1.0, 30.0, 1.0)
    p = m.params_at(1.0, 3000.0)
    approx = force_drude_very_high_t(p, m, 1.0).value
    full = force_drude_full(p, m, 1.0).value
    assert abs(approx - full) <= 1e-3 * abs(full)
    # attraction for increasing Omega
    m_om = linear_model(1.0, 1.0, 0.3, 0.0, 30.0, 0.0)
    assert force_drude_very_high_t(m_om.params_at(1.0, 3000.0),
                                   m_om, 1.0).value < 0.0


def test_drude_high_t_log_growth_and_agreement():
    t = 100.0
    vals = []
    for wd in (1e4, 1e6):
        m = linear_model(1.0, 0.0, 0.05, 1.0, wd, 0.0)
        p = m.params_at(1.0, t)
        vals.append(force_drude_high_t(p, m, 1.0).value)
    growth = (vals[1] - vals[0])
    expected = -math.log(1e2) / (2.0 * math.pi)
    assert growth == pytest.approx(expected, rel=1e-10)

    m = linear_model(1.0, 1.0, 0.05, 1.0, 1e4, 1.0)
    p = m.params_at(1.0, t)
    approx = force_drude_high_t(p, m, 1.0).value
    full = force_drude_full(p, m, 1.0).value
    assert abs(approx - full) <= 1e-2 * abs(full)

    m0 = linear_model(1.0, 0.0, 0.05, 0.0, 1e4, 0.0)
    assert force_drude_high_t(m0.params_at(1.0, t), m0, 1.0).value == 0.0


def test_weak_dissipation_error_slope():
    gs = np.geomspace(1e-4, 1e-2, 7)
    errs = []
    for g in gs:
        p = OscillatorParams(1.0, Ohmic(float(g)), 0.7)
        errs.append(abs(force_ohmic_weak_dissipation(p, 1.0).value
                        - force_ohmic_exact(p, 1.0).value))
    slope = np.polyfit(np.log10(gs), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.15


def test_drude_very_high_t_error_slope():
    m = linear_model(1.0, 1.0, 0.3, 1.0, 30.0, 1.0)
    ts = np.geomspace(300.0, 3e4, 7)
    errs = []
    for t in ts:
        p = m.params_at(1.0, float(t))
        a = force_drude_very_high_t(p, m, 1.0).value
        b = force_drude_full(p, m, 1.0).value
        errs.append(abs(a - b) / abs(b))
    slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
    assert abs(slope + 2.0) <= 0.15


def test_drude_low_t_gamma_coefficient_sign():
    # the factor multiplying dgamma0 stays negative (the printed bracket
    # is positive) throughout omega_d >> Omega, gamma0
    for wd_ratio in (10.0, 100.0, 1e3, 1e4):
        for g0 in (0.05, 0.5, 1.5, 1.9):
            wd = wd_ratio * max(1.0, g0)
            m = linear_model(1.0, 0.0, g0, 1.0, wd, 0.0)
            p = OscillatorParams(1.0, Drude(g0, wd), 0.0)
            assert force_drude_low_t(p, m, 1.0).value < 0.0


def test_drude_low_t_agreement_and_ohmic_reduction():
    m = linear_model(1.0, 1.0, 0.3, 1.0, 300.0, 1.0)
    p = m.params_at(1.0, 1e-5)
    approx = force_drude_low_t(p, m, 1.0).value
    full = force_drude_full(p, m, 1.0).value
    assert abs(approx - full) <= 1e-3 * abs(full)

    m_om = linear_model(1.0, 1.0, 0.3, 0.0, 300.0, 0.0)
    p_om = m_om.params_at(1.0, 0.0)
    drude = force_drude_low_t(p_om, m_om, 1.0).value
    ohmic = force_ohmic_low_t(OscillatorParams(1.0, Ohmic(0.3), 0.0), 1.0).value
    assert drude == pytest.approx(ohmic, rel=1e-14)


def test_drude_t_zero_routes_to_low_t():
    m = linear_model(1.0, 1.0, 0.3, 1.0, 300.0, 1.0)
    p = m.params_at(1.0, 0.0)
    res = force_drude_full(p, m, 1.0)
    assert res.regime == "low-T"


def test_free_energy_drude_gamma_properties():
    p = OscillatorParams(1.0, Drude(0.3, 300.0), 0.5)
    ref = free_energy_drude(p, SumSpec(n_max=1_000_000)).value
    val = free_energy_drude_gamma(p)
    assert abs(val - ref) <= 1e-8 * abs(ref)
    # reality residual
    c = forces._free_energy_drude_gamma_c(p)
    assert abs(c.imag) <= 1e-12 * abs(c.real)
    # gamma0 -> 0, T << Omega: ground-state energy Omega/2
    p0 = OscillatorParams(1.0, Drude(1e-12, 500.0), 0.01)
    assert abs(free_energy_drude_gamma(p0) - 0.5) <= 1e-6


def test_reality_residuals_on_random_grid(monkeypatch):
    # psi(conj a) is conj psi(a) bit for bit, and so is log(conj a), so
    # the imaginary parts of a conjugate pair cancel exactly below
    # critical damping; above it the arguments are real, and at it the
    # series are.  So each form hands _realize a value whose imaginary
    # part is exactly 0.0, and the real part loses nothing.
    handed = []
    realize = forces._realize

    def recording(value_c, *args):
        handed.append(value_c)
        return realize(value_c, *args)

    monkeypatch.setattr(forces, "_realize", recording)
    rng = np.random.default_rng(2029)
    for k in range(600):
        om = 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:          # underdamped
            g = om * rng.uniform(0.0, 1.999)
        elif k % 3 == 1:        # inside the critical-damping cut
            g = 2.0 * om * (1.0 + rng.uniform(-1e-9, 1e-9))
        else:                   # overdamped
            g = om * 10.0 ** rng.uniform(0.31, 4.0)
        t = 10.0 ** rng.uniform(-4.0, 4.0)
        wd = max(om, g) * 10.0 ** rng.uniform(0.01, 4.0)
        p = OscillatorParams(om, Ohmic(g), t)
        pd = OscillatorParams(om, Drude(g, wd), t)
        m = linear_model(om, dom=rng.uniform(-2.0, 2.0), g0=g,
                         dg0=rng.uniform(-2.0, 2.0), wd=wd,
                         dwd=rng.uniform(-2.0, 2.0))
        for form, args in ((force_ohmic_exact, (p, 1.3)),
                           (force_tilde, (p, 1.3, -0.7)),
                           (force_drude_full, (pd, m, 1.0)),
                           (force_ohmic_low_t, (p, 1.3)),
                           (force_drude_low_t, (pd, m, 1.0))):
            handed.clear()
            res = form(*args)
            assert len(handed) == 1, (form.__name__, om, g, t, wd)
            assert handed[0].imag == 0.0, (form.__name__, om, g, t, wd,
                                           handed[0])
            assert res.value == handed[0].real


def test_sign_laws_in_guard():
    rng = np.random.default_rng(321)
    for _ in range(25):
        om = float(rng.uniform(0.1, 5.0))
        g = float(rng.uniform(0.0, 10.0))
        t = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        p = OscillatorParams(om, Ohmic(g), t)
        assert force_ohmic_exact(p, 1.0).value < 0.0
        assert force_ohmic_exact(p, -1.0).value > 0.0
        assert force_ohmic_low_t(p, 1.0).value < 0.0
        assert force_ohmic_high_t(p, 1.0).value < 0.0
    for picked in range(3):
        derivs = [0.0, 0.0, 0.0]
        derivs[picked] = 1.0
        m = linear_model(1.0, derivs[0], 0.4, derivs[1], 200.0, derivs[2])
        p = m.params_at(1.0, 0.7)
        assert force_drude_full(p, m, 1.0).value < 0.0


# Every public closed form returns finite numbers or raises a library
# error, over the whole range of valid parameters.
_POSITIVE = st.floats(0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_NON_NEGATIVE = st.floats(0.0, allow_nan=False, allow_infinity=False)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
# Omega and gamma0 are valid below 2**511
_RATE = st.floats(0.0, 2.0 ** 511, exclude_min=True, exclude_max=True)
_NON_NEGATIVE_RATE = st.floats(0.0, 2.0 ** 511, exclude_max=True)


def _finite_or_library_error(fn, *args):
    try:
        out = fn(*args)
    except (DomainError, PreconditionError):
        return
    values = [out] if isinstance(out, float) else \
        [out.value, *(out.components or {}).values()]
    assert all(math.isfinite(v) for v in values), (fn.__name__, args, out)


@given(om=_RATE, g0=_NON_NEGATIVE_RATE, t=_NON_NEGATIVE, dom=_REAL,
       dg0=_REAL, omega2=_NON_NEGATIVE)
@example(om=1e-200, g0=0.0, t=1e200, dom=1.0, dg0=0.0, omega2=1.0)
@example(om=1.0, g0=0.5, t=1.0, dom=1.0, dg0=0.0, omega2=0.0)
@settings(max_examples=300, deadline=None)
def test_ohmic_closed_forms_are_finite_or_raise(om, g0, t, dom, dg0, omega2):
    p = OscillatorParams(om, Ohmic(g0), t)
    for fn in (force_ohmic_exact, force_ohmic_weak_dissipation,
               force_ohmic_high_t, force_ohmic_low_t):
        _finite_or_library_error(fn, p, dom)
    _finite_or_library_error(force_tilde, p, dom, dg0)
    _finite_or_library_error(free_energy_difference_gamma, p, omega2)


@given(om=_RATE, g0=_NON_NEGATIVE_RATE, wd=_POSITIVE, t=_NON_NEGATIVE,
       dom=_REAL, dg0=_REAL, dwd=_REAL)
@example(om=1.0, g0=0.5, wd=1e300, t=1e-300, dom=1.0, dg0=0.0, dwd=0.0)
@example(om=1e-300, g0=0.5, wd=10.0, t=1e300, dom=1.0, dg0=0.0, dwd=0.0)
@settings(max_examples=300, deadline=None)
def test_drude_closed_forms_are_finite_or_raise(om, g0, wd, t, dom, dg0, dwd):
    p = OscillatorParams(om, Drude(g0, wd), t)
    m = ParametricModel(lambda lam: om, lambda lam: dom, lambda lam: g0,
                        lambda lam: dg0, lambda lam: wd, lambda lam: dwd)
    for fn in (force_drude_full, force_drude_very_high_t, force_drude_high_t,
               force_drude_low_t):
        _finite_or_library_error(fn, p, m, 1.0)
    _finite_or_library_error(free_energy_drude_gamma, p)
