"""Lumped-element layer: mappings, capacitances, circuit forces,
Casimir references and relative weights."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctforce import circuits as cc
from fluctforce.errors import DivergentSumError, DomainError, \
    PreconditionError, finite, not_finite
from fluctforce.forces import (force_drude_full, force_drude_high_t,
                               force_drude_very_high_t,
                               force_ohmic_exact, force_ohmic_high_t,
                               force_ohmic_low_t,
                               force_ohmic_weak_dissipation,
                               free_energy_difference_gamma,
                               free_energy_drude_gamma)
from fluctforce.matsubara import SumSpec, force_sum_exact
from fluctforce.oscillator import (Drude, Ohmic, OscillatorParams,
                                   ParametricModel, power_law_model)

HBAR, KB, C, EPS0 = cc.HBAR, cc.K_B, cc.C_LIGHT, cc.EPSILON_0


def test_series_mapping_identities():
    loop = cc.SeriesRLC.of(0.0, 1.0, 1.0)
    m = cc.map_series(loop)
    assert m.omega(1.0) == 1.0
    assert m.gamma0(1.0) == 0.0
    # Omega^2 L C = 1 at several sweep points for a varying capacitance
    loop = cc.SeriesRLC.of(2.0, 0.7, (0.8, 1.0))
    m = cc.map_series(loop)
    for lam in (0.5, 1.0, 3.0):
        om = m.omega(lam)
        assert abs(om * om * 0.7 * (0.8 * lam) - 1.0) <= 1e-15


def test_series_power_law_capacitance_chain_rule():
    # C proportional to lam gives dOmega/dlam = -Omega/(2 lam)
    loop = cc.SeriesRLC.of(0.0, 1.0, (2.0, 1.0))
    m = cc.map_series(loop)
    for lam in (0.5, 1.0, 2.0):
        assert m.d_omega(lam) == pytest.approx(-m.omega(lam) / (2.0 * lam),
                                               rel=1e-13, abs=0.0)


def test_parallel_mapping():
    loop = cc.ParallelRLC.of(1e9, (1.0, 1.0), 1.0)
    m = cc.map_parallel(loop)
    assert m.gamma0(1.0) == pytest.approx(1e-9, abs=0.0)
    # gamma is independent of the swept inductance
    assert m.d_gamma0(1.0) == 0.0
    # L linear in lam: dOmega/dlam = -Omega/(2L) dL/dlam
    for lam in (0.5, 2.0):
        assert m.d_omega(lam) == pytest.approx(
            -m.omega(lam) / (2.0 * lam), rel=1e-13, abs=0.0)


def test_mapping_derivatives_match_finite_differences():
    loop = cc.SeriesRLC.of(3.0, (0.5, 0.3), (1.2, -1.0))
    m = cc.map_series(loop)
    for lam in (0.7, 1.5):
        h = 1e-6 * lam
        fd_om = (m.omega(lam + h) - m.omega(lam - h)) / (2 * h)
        fd_g = (m.gamma0(lam + h) - m.gamma0(lam - h)) / (2 * h)
        assert abs(m.d_omega(lam) - fd_om) <= 1e-6 * abs(fd_om)
        assert abs(m.d_gamma0(lam) - fd_g) <= 1e-6 * abs(fd_g)


def test_capacitance_planar():
    g = cc.PlanarCapacitor(area=1e-4, gap=1e-6)
    cap, dcap = cc.capacitance_planar(g)
    assert cap == pytest.approx(EPS0 * 1e-4 / 1e-6, rel=1e-15, abs=0.0)
    assert dcap == pytest.approx(-cap / 1e-6, rel=1e-15, abs=0.0)
    # doubling the gap halves C
    g2 = cc.PlanarCapacitor(area=1e-4, gap=2e-6)
    assert cc.capacitance_planar(g2)[0] == pytest.approx(cap / 2.0, rel=1e-15,
                                                         abs=0.0)
    # mapped resonance reproduces sqrt(d / (eps0 L S))
    loop = cc.SeriesRLC.of(0.0, 1e-6, cc.planar_capacitance_law(1e-4))
    m = cc.map_series(loop)
    assert m.omega(1e-6) == pytest.approx(
        math.sqrt(1e-6 / (EPS0 * 1e-6 * 1e-4)), rel=1e-13, abs=0.0)


def test_capacitance_sphere_plate():
    radius = 1e-4
    # isolated-sphere limit
    far = cc.capacitance_sphere_plate(cc.SpherePlate(radius, 1e4 * radius))
    assert far[0] == pytest.approx(4.0 * math.pi * EPS0 * radius, rel=1e-4,
                                   abs=0.0)
    # analytic derivative vs finite differences
    d = 0.2 * radius
    h = 1e-7 * d
    up = cc.capacitance_sphere_plate(cc.SpherePlate(radius, d + h))[0]
    dn = cc.capacitance_sphere_plate(cc.SpherePlate(radius, d - h))[0]
    fd = (up - dn) / (2 * h)
    assert abs(cc.capacitance_sphere_plate(cc.SpherePlate(radius, d))[1] - fd) \
        <= 1e-8 * abs(fd)
    # bracket at R/d = 28.57 (d/R = 0.035)
    near = cc.capacitance_sphere_plate(cc.SpherePlate(radius, 0.035 * radius))
    bracket = near[0] / (4.0 * math.pi * EPS0 * radius)
    assert bracket == pytest.approx(1.0 + 0.5 * math.log(1.0 + 1.0 / 0.035),
                                    rel=1e-12, abs=0.0)


def test_force_series_is_composition():
    loop = cc.SeriesRLC.of(2.0, 1.0, (0.8, 1.0))
    m = cc.map_series(loop)
    for t, lam in ((0.3, 1.0), (5.0, 0.7), (0.01, 1.9)):
        via = cc.force_series_rlc(loop, t, lam, units="reduced")
        direct = force_ohmic_exact(m.params_at(lam, t), m.d_omega(lam))
        assert abs(via.value - direct.value) <= 1e-14 * abs(direct.value)


def test_force_parallel_is_composition():
    loop = cc.ParallelRLC.of(4.0, (1.1, 1.0), 0.9)
    m = cc.map_parallel(loop)
    for t, lam in ((0.4, 1.0), (3.0, 0.6)):
        via = cc.force_parallel_rlc(loop, t, lam, units="reduced")
        direct = force_ohmic_exact(m.params_at(lam, t), m.d_omega(lam))
        assert abs(via.value - direct.value) <= 1e-14 * abs(direct.value)


def test_force_series_precondition():
    # The Ohmic closed forms need dgamma/dlambda = 0 at the point, the
    # oracle's own test.  A swept R (series) or C (parallel) fails it.
    swept_r = cc.SeriesRLC.of((2.0, 1.0), 1.0, 0.5)
    with pytest.raises(PreconditionError):
        cc.force_series_rlc(swept_r, 1.0, 1.0, units="reduced")
    swept_c_parallel = cc.ParallelRLC.of(2.0, 1.0, (0.5, 1.0))
    with pytest.raises(PreconditionError):
        cc.force_parallel_rlc(swept_c_parallel, 1.0, 1.0, units="reduced")
    # R = 2 lam**0, and gamma = R/L = 0 under a swept L, pass it.  A loop
    # with R proportional to L has a constant gamma only by cancellation:
    # where rounding leaves dgamma/dlambda != 0, it is rejected too.
    zero_power_r = cc.SeriesRLC.of((2.0, 0.0), 1.0, (0.8, 1.0))
    zero_r_swept_l = cc.SeriesRLC.of(0.0, (1.0, 1.0), (0.8, 1.0))
    for loop in (zero_power_r, zero_r_swept_l):
        m = cc.map_series(loop)
        res = cc.force_series_rlc(loop, 0.3, 1.0, units="reduced")
        oracle = force_sum_exact(m.params_at(1.0, 0.3), m, 1.0)
        assert abs(res.value - oracle.value) \
            <= max(1e-12, 2.0 * oracle.truncation_estimate)
    assert cc.force_series_rlc(zero_power_r, 0.3, 1.0, units="reduced") \
        == cc.force_series_rlc(cc.SeriesRLC.of(2.0, 1.0, (0.8, 1.0)), 0.3,
                               1.0, units="reduced")


def test_series_constant_capacitance_zero_force():
    loop = cc.SeriesRLC.of(2.0, 1.0, 0.5)
    assert cc.force_series_rlc(loop, 1.0, 1.0, units="reduced").value == 0.0


def test_planar_weak_dissipation_low_t_estimate():
    # Eq-(7)-style check in its window: gamma/Omega ~ 3e-5
    L, S, d = 1e-6, 1e-4, 1e-6
    geom = cc.PlanarCapacitor(S, d)
    omega_pc = math.sqrt(d / (EPS0 * L * S))
    r = 1e-3
    t = 1e-4 * HBAR * omega_pc / (2.0 * math.pi * KB)
    loop = cc.SeriesRLC.of(r, L, cc.planar_capacitance_law(S))
    exact = cc.force_series_rlc(loop, t, d, regime="exact").value
    estimate = cc.planar_rlc_low_t_weak(geom, L, r)
    assert abs(exact - estimate) <= 1e-2 * abs(exact)
    # the R-term itself: hbar R / (4 pi L d) against the R = 0 baseline
    base = cc.force_series_rlc(cc.SeriesRLC.of(0.0, L, cc.planar_capacitance_law(S)),
                               t, d, regime="exact").value
    r_term = HBAR * r / (4.0 * math.pi * L * d)
    assert exact - base == pytest.approx(r_term, rel=2e-2, abs=0.0)


def test_weak_dissipation_loop_force_at_zero_temperature():
    # T = 0 keeps the first-order term, -gamma / (2 pi Omega) as T -> 0+,
    # and so gives the low-T weak-dissipation estimate of a planar loop
    L, S, d, r = 1e-6, 1e-4, 1e-6, 1e-3
    loop = cc.SeriesRLC.of(r, L, cc.planar_capacitance_law(S))
    res = cc.force_series_rlc(loop, 0.0, d, "weak-dissipation")
    estimate = cc.planar_rlc_low_t_weak(cc.PlanarCapacitor(S, d), L, r)
    assert res.value == pytest.approx(estimate, rel=1e-12, abs=0.0)


def test_planar_strong_dissipation_low_t_estimate():
    # Eq-(8)-style check: gamma/Omega = 100
    L, S, d = 1e-6, 1e-4, 1e-6
    geom = cc.PlanarCapacitor(S, d)
    omega_pc = math.sqrt(d / (EPS0 * L * S))
    r = 100.0 * omega_pc * L
    t = 1e-4 * HBAR * d / (2.0 * math.pi * EPS0 * S * r * KB)
    loop = cc.SeriesRLC.of(r, L, cc.planar_capacitance_law(S))
    exact = cc.force_series_rlc(loop, t, d, regime="exact").value
    estimate = cc.planar_rlc_low_t_strong(geom, L, r)
    assert abs(exact - estimate) <= 1e-2 * abs(exact)


def test_parallel_high_t_leading_term():
    # (T/2L) dL/dlam, the classical term of the parallel loop
    loop = cc.ParallelRLC.of(50.0, (1.0, 1.0), 1.0)
    t = 500.0
    res = cc.force_parallel_rlc(loop, t, 1.0, regime="high-T", units="reduced")
    assert res.value == pytest.approx(t / 2.0, rel=1e-3)
    exact = cc.force_parallel_rlc(loop, t, 1.0, units="reduced")
    assert abs(res.value - exact.value) <= 1e-4 * abs(exact.value)


def test_parallel_low_t_overdamped_vs_exact():
    # strong dissipation in the parallel loop: gamma = 1/(RC) >> Omega
    loop = cc.ParallelRLC.of(1e-3, (1.0, 1.0), 1.0)   # gamma = 1000, Omega = 1
    t = 1e-5 * 1.0 / 1e3    # well under Omega^2/gamma
    low = cc.force_parallel_rlc(loop, t, 1.0, regime="low-T", units="reduced")
    exact = cc.force_parallel_rlc(loop, t, 1.0, units="reduced")
    assert abs(low.value - exact.value) <= 1e-3 * abs(exact.value)


def test_series_force_matches_matsubara_oracle():
    loop = cc.SeriesRLC.of(0.6, 1.0, (0.8, 1.0))
    m = cc.map_series(loop)
    t, lam = 0.4, 1.2
    res = cc.force_series_rlc(loop, t, lam, units="reduced")
    oracle = force_sum_exact(m.params_at(lam, t), m, lam, SumSpec(n_max=100_000))
    assert abs(res.value - oracle.value) \
        <= max(1e-8, 2.0 * oracle.truncation_estimate)


def test_casimir_reference_plates():
    g = cc.PlanarCapacitor(1e-4, 1e-6)
    low = cc.casimir_reference(g, 1.0, "low-T")
    assert low.value == pytest.approx(
        -math.pi ** 2 * HBAR * C * 1e-4 / (240.0 * 1e-24), rel=1e-12, abs=0.0)
    # doubling the gap at low T divides the force by 16
    g2 = cc.PlanarCapacitor(1e-4, 2e-6)
    assert cc.casimir_reference(g2, 1.0, "low-T").value \
        == pytest.approx(low.value / 16.0, rel=1e-12, abs=0.0)
    high = cc.casimir_reference(g, 300.0, "high-T")
    assert high.value == pytest.approx(
        -cc.ZETA_3 * KB * 300.0 * 1e-4 / (8.0 * math.pi * 1e-18), rel=1e-12,
        abs=0.0)


def test_casimir_reference_sphere_plate():
    g = cc.SpherePlate(1e-4, 1e-6)
    high = cc.casimir_reference(g, 300.0, "high-T")
    assert high.value == pytest.approx(
        -cc.ZETA_3 * KB * 300.0 * 1e-4 / (8.0 * 1e-12), rel=1e-12, abs=0.0)
    low = cc.casimir_reference(g, 1.0, "low-T")
    assert low.value == pytest.approx(
        -math.pi ** 3 * HBAR * C * 1e-4 / (360.0 * 1e-18), rel=1e-12, abs=0.0)


def test_casimir_regime_ambiguity_warning():
    # k_B T d / (hbar c) of order one
    d = HBAR * C / (KB * 300.0)
    g = cc.PlanarCapacitor(1.0, d)
    res = cc.casimir_reference(g, 300.0, "high-T")
    assert cc.WARN_REGIME_AMBIGUOUS in res.warnings
    clear = cc.casimir_reference(cc.PlanarCapacitor(1.0, d * 1e3), 300.0,
                                 "high-T")
    assert cc.WARN_REGIME_AMBIGUOUS not in clear.warnings


def test_edge_effect_warning():
    g = cc.PlanarCapacitor(area=1e-12, gap=1e-6)   # d^2/S = 1
    res = cc.casimir_reference(g, 300.0, "high-T")
    assert cc.WARN_EDGE_EFFECTS in res.warnings


def test_sphere_interp_warning():
    g = cc.SpherePlate(1e-6, 2e-6)
    res = cc.sphere_plate_circuit_force(g, 1e-6, 300.0, "high-T")
    assert cc.WARN_SPHERE_INTERP in res.warnings


def test_relative_weight_planar_reference_values():
    for ratio, target, tol in ((0.04, 0.418, 2e-3), (2.5e-3, 0.026, 2e-4)):
        d = 1e-3
        geom = cc.PlanarCapacitor(d * d / ratio, d)
        loop = cc.SeriesRLC.of(0.0, 1e-6, cc.planar_capacitance_law(geom.area))
        r = cc.relative_weight(geom, loop, 300.0, "high-T")
        assert abs(r - target) <= tol


def test_relative_weight_sphere_reference_values():
    radius = 1e-4
    for gap_ratio, target, tol in ((0.75, 0.50, 1e-2), (0.035, 0.0209, 1e-3)):
        geom = cc.SpherePlate(radius, gap_ratio * radius)
        loop = cc.SeriesRLC.of(0.0, 1e-6,
                               cc.sphere_plate_capacitance_law(radius))
        r = cc.relative_weight(geom, loop, 300.0, "high-T")
        assert abs(r - target) <= tol


def test_relative_weight_whose_product_underflows_raises():
    # eps0 eps L S underflows to 0: the quotient divides by zero
    geom = cc.PlanarCapacitor(1e-200, 1e-6)
    loop = cc.SeriesRLC.of(0.0, 1e-200, 1.0)
    with pytest.raises(DomainError, match="the relative weight is not"):
        cc.relative_weight(geom, loop, 1.0, "low-T")


def test_unknown_units_and_regime_raise():
    with pytest.raises(DomainError, match="units must be 'si' or 'reduced'"):
        cc.units_factors(1.0, "cgs")
    with pytest.raises(DomainError, match="regime must be 'low-T' or"):
        cc.casimir_reference(cc.PlanarCapacitor(1e-6, 1e-6), 1.0, "mid-T")


def test_relative_weight_equals_force_quotient():
    # 20-point geometry grid, both geometries, high and low T regimes
    radius, L = 1e-4, 1e-6
    for gap_ratio in np.linspace(0.035, 0.75, 10):
        geom = cc.SpherePlate(radius, float(gap_ratio) * radius)
        loop = cc.SeriesRLC.of(0.0, L, cc.sphere_plate_capacitance_law(radius))
        for regime, t in (("high-T", 300.0), ("low-T", 1e-3)):
            r_closed = cc.relative_weight(geom, loop, t, regime)
            f_circ = cc.sphere_plate_circuit_force(geom, L, t, regime).value
            f_cas = cc.casimir_reference(geom, t, regime).value
            assert abs(f_circ / f_cas - r_closed) <= 1e-3 * r_closed
    for ratio in np.linspace(0.002, 0.05, 10):
        d = 1e-5
        geom = cc.PlanarCapacitor(d * d / float(ratio), d)
        loop = cc.SeriesRLC.of(0.0, L, cc.planar_capacitance_law(geom.area))
        # dissipationless circuit force: T >> hbar Omega for the classical
        # branch so the quotient matches the closed weight to 1e-3
        omega_pc = math.sqrt(d / (EPS0 * L * geom.area))
        t_high = 40.0 * HBAR * omega_pc / KB
        f_circ = cc.force_series_rlc(loop, t_high, d, regime="high-T").value
        f_cas = cc.casimir_reference(geom, t_high, "high-T").value
        r_closed = cc.relative_weight(geom, loop, t_high, "high-T")
        assert abs(f_circ / f_cas - r_closed) <= 1e-3 * r_closed
        # low-T quotient via the weak-dissipation zero-point force
        f0 = cc.planar_rlc_low_t_weak(geom, L, 0.0)
        f_cas0 = cc.casimir_reference(geom, 1e-6, "low-T").value
        r0 = cc.relative_weight(geom, loop, 1e-6, "low-T")
        assert abs(f0 / f_cas0 - r0) <= 1e-3 * r0


def test_sphere_plate_force_matches_chain_rule():
    radius, L = 1e-4, 1e-6
    for gap_ratio in (0.05, 0.3, 0.75):
        geom = cc.SpherePlate(radius, gap_ratio * radius)
        cap, dcap = cc.capacitance_sphere_plate(geom)
        omega_lc = 1.0 / math.sqrt(L * cap)
        d_omega = -0.5 * omega_lc * dcap / cap
        low = cc.sphere_plate_circuit_force(geom, L, 1e-3, "low-T").value
        assert low == pytest.approx(-0.5 * HBAR * d_omega, rel=1e-12, abs=0.0)
        t = 300.0
        high = cc.sphere_plate_circuit_force(geom, L, t, "high-T").value
        assert high == pytest.approx(-(KB * t / omega_lc) * d_omega, rel=1e-12,
                                     abs=0.0)


def test_sphere_plate_force_monotonic_in_gap():
    radius, L = 1e-4, 1e-6
    gaps = np.linspace(0.02, 0.9, 25) * radius
    vals = [cc.sphere_plate_circuit_force(cc.SpherePlate(radius, float(d)),
                                          L, 300.0, "high-T").value
            for d in gaps]
    # attraction weakens monotonically as the gap opens
    assert all(a < b < 0.0 for a, b in zip(vals, vals[1:]))


def test_si_reduced_round_trip():
    loop = cc.SeriesRLC.of(5.0, 1e-6, cc.planar_capacitance_law(1e-4))
    d, t_k = 1e-6, 0.7
    f_si = cc.force_series_rlc(loop, t_k, d, units="si").value
    t_red = KB * t_k / HBAR
    f_red = cc.force_series_rlc(loop, t_red, d, units="reduced").value
    assert abs(f_si - HBAR * f_red) <= 1e-12 * abs(f_si)


def test_element_size_advisory():
    small = cc.SeriesRLC.of(1e3, 1e-9, 1e-12, element_size=1.0)
    res = cc.force_series_rlc(small, 300.0, 1.0, units="si")
    assert cc.WARN_ELEMENT_SIZE in res.warnings
    fine = cc.SeriesRLC.of(1e-3, 1e-6, 1e-12, element_size=1e-3)
    res2 = cc.force_series_rlc(fine, 300.0, 1.0, units="si")
    assert cc.WARN_ELEMENT_SIZE not in res2.warnings


def test_bare_oscillator_model_has_no_element_size():
    # c = None: even a gamma far above 0.1 c / r0 for any r0 is not flagged
    model = power_law_model((1e9, 0.0), (1e12, 0.0))
    for regime in ("exact", "high-T"):
        res = cc.point_force(None, model, regime, "si")(300.0, 1.0)[0]
        assert cc.WARN_ELEMENT_SIZE not in res.warnings


def test_rlc_force_at_runs_a_bare_drude_model():
    # the oscillator rows' path: force_drude_full, times hbar in SI
    lam, t_red = 1.3, 0.7
    for units, t, scale in (("reduced", t_red, 1.0),
                            ("si", t_red * HBAR / KB, HBAR)):
        t_freq = t if units == "reduced" else KB * t / HBAR
        direct = force_drude_full(_DRUDE_MODEL.params_at(lam, t_freq),
                                  _DRUDE_MODEL, lam)
        res = cc.point_force(None, _DRUDE_MODEL, units=units)(t, lam)[0]
        assert res.value == scale * direct.value
        assert res.components == {k: scale * v
                                  for k, v in direct.components.items()}
        assert (res.regime, res.warnings) == (direct.regime, direct.warnings)


@pytest.mark.parametrize("regime", ["high-T", "low-T", "weak-dissipation"])
def test_rlc_force_at_drude_model_has_only_the_exact_regime(regime):
    with pytest.raises(DomainError, match="regime 'exact'"):
        cc.point_force(None, _DRUDE_MODEL, regime, "reduced")(0.7, 1.3)[0]


@pytest.mark.parametrize("units", ["si", "reduced"])
@pytest.mark.parametrize("regime", ["exact", "low-T", "drude"])
def test_point_force_gives_the_parameters_it_ran_on(units, regime):
    # the force of a path built for the one point, bit for bit, with the
    # OscillatorParams and hbar_out the point was built from
    loop = cc.SeriesRLC.of(0.5, 1.0, (0.8, 1.0), element_size=1e8)
    loop, model = (None, _DRUDE_MODEL) if regime == "drude" \
        else (loop, cc.map_series(loop))
    regime = "exact" if regime == "drude" else regime
    at = cc.point_force(loop, model, regime, units)
    for t, lam in ((0.3, 1.0), (0.0, 2.5), (40.0, 0.7)):
        res, p, hbar_out = at(t, lam)
        want_hbar, t_freq = cc.units_factors(t, units)
        want = cc.point_force(loop, model, regime, units)(t, lam)[0]
        assert (hbar_out, p) == (want_hbar, model.params_at(lam, t_freq))
        assert repr((res.value, res.components, res.warnings)) \
            == repr((want.value, want.components, want.warnings))


def test_point_force_settles_its_choices_when_built(monkeypatch):
    # regime and units are checked before any point; the regime's force is
    # read from the dispatch table when the path is built, not at import
    model = cc.map_series(cc.SeriesRLC.of(0.5, 1.0, 0.8))
    for regime, units in (("mid-T", "si"), ("exact", "cgs")):
        with pytest.raises(DomainError, match="regime|units"):
            cc.point_force(None, model, regime, units)
    with pytest.raises(DomainError, match="only the regime 'exact'"):
        cc.point_force(None, _DRUDE_MODEL, "high-T", "si")
    monkeypatch.setitem(cc._OHMIC_DISPATCH, "exact",
                        lambda p, dom: force_ohmic_high_t(p, dom))
    at = cc.point_force(None, model, "exact", "reduced")
    assert at(0.3, 1.0)[0].value == force_ohmic_high_t(
        model.params_at(1.0, 0.3), model.d_omega(1.0)).value
    with pytest.raises(DomainError, match=r"got -1\.0 \(reduced\)"):
        at(-1.0, 1.0)


@pytest.mark.parametrize("cap", [-1e-12, 0.0])
def test_parallel_loop_names_a_non_positive_capacitance(cap):
    loop = cc.ParallelRLC.of(1e3, 1e-6, cap)
    with pytest.raises(DomainError, match="capacitance must be positive"):
        cc.force_parallel_rlc(loop, 300.0, 1.0, "high-T")


def test_parallel_loop_gamma_raises_where_rc_underflows():
    loop = cc.ParallelRLC.of(1e-200, 1e-6, 1e-200)
    with pytest.raises(DomainError, match=r"gamma = 1/\(RC\)"):
        cc.force_parallel_rlc(loop, 300.0, 1.0, "high-T")


@pytest.mark.parametrize("loop", [cc.SeriesRLC, cc.ParallelRLC])
@pytest.mark.parametrize("size", [0.0, -1e-3])
def test_element_size_must_be_positive(loop, size):
    with pytest.raises(ValueError, match="element_size"):
        loop.of(1e-3, 1e-6, 1e-12, element_size=size)


def test_nan_fails_the_positivity_checks():
    # NaN fails every comparison, so "x <= 0" let it through
    for loop in (cc.SeriesRLC, cc.ParallelRLC):
        with pytest.raises(DomainError, match="element_size"):
            loop.of(1.0, 1e-6, (1e-12, 1.0), element_size=math.nan)
    for args in ((math.nan, 1e-6), (1e-4, math.nan), (1e-4, 1e-6, math.nan),
                 (math.inf, 1e-6)):
        with pytest.raises(DomainError, match="area, gap and epsilon"):
            cc.PlanarCapacitor(*args)
    with pytest.raises(DomainError, match="inductance"):
        cc.planar_rlc_low_t_weak(cc.PlanarCapacitor(1e-4, 1e-6), math.nan,
                                 1.0)


def test_scale_result_passes_unit_scale_through():
    r = cc.ForceResult(-0.25, "exact", ("w",), {"f_omega": -0.25})
    assert cc.scale_result(r, 1.0) is r
    assert cc.scale_result(r, 1.0, ()) is r
    # extra warnings or another scale build a new result
    warned = cc.scale_result(r, 1.0, (cc.WARN_ELEMENT_SIZE,))
    assert warned is not r and warned.warnings == ("w", cc.WARN_ELEMENT_SIZE)
    assert (warned.value, warned.components) == (r.value, r.components)
    scaled = cc.scale_result(r, HBAR)
    assert scaled == cc.ForceResult(HBAR * -0.25, "exact", ("w",),
                                    {"f_omega": HBAR * -0.25})


_LOOP = cc.SeriesRLC.of(1e-3, 1e-6, 1e-12)


_TINY = OscillatorParams(1e-200, Ohmic(0.0), 1e200)
_TINY_DRUDE = OscillatorParams(1e-200, Drude(0.3, 30.0), 1e200)
_DRUDE_MODEL = power_law_model((1.0, 0.5), (0.3, 1.0), (30.0, 0.5))


def _nf(what: str) -> str:
    return f"{what} is not a finite number for these inputs"


# closed forms whose result overflows, or divides by a power of the gap
# that underflows to zero: a DomainError, never inf, NaN or a bare
# ZeroDivisionError.  Each case is (fn, (args, the error's text)).
@pytest.mark.parametrize("fn, args", [
    (cc.casimir_reference, ((cc.PlanarCapacitor(1e300, 1e-10), 300.0,
                             "low-T"), _nf("the Casimir reference force"))),
    (cc.casimir_reference, ((cc.PlanarCapacitor(1e300, 1e-10), 300.0,
                             "high-T"), _nf("the Casimir reference force"))),
    (cc.casimir_reference, ((cc.PlanarCapacitor(1e-4, 1e-90), 300.0,
                             "low-T"), _nf("the Casimir reference force"))),
    (cc.casimir_reference, ((cc.PlanarCapacitor(1e-4, 1e200), 300.0,
                             "low-T"), _nf("the Casimir reference force"))),
    (cc.casimir_reference, ((cc.SpherePlate(1e-4, 1e-110), 300.0, "low-T"),
                            _nf("the Casimir reference force"))),
    (cc.casimir_reference, ((cc.SpherePlate(1e-4, 1e-170), 300.0, "high-T"),
                            _nf("the Casimir reference force"))),
    (cc.relative_weight, ((cc.PlanarCapacitor(1e-300, 1e300), None, 300.0,
                           "high-T"), _nf("the relative weight"))),
    (cc.relative_weight, ((cc.PlanarCapacitor(1e-300, 1e-5), _LOOP, 300.0,
                           "low-T"), _nf("the relative weight"))),
    (cc.capacitance_planar, ((cc.PlanarCapacitor(1e300, 1e-90),),
                             _nf("dC/dd"))),
    (cc.capacitance_sphere_plate, ((cc.SpherePlate(1e-4, 1e-170),),
                                   _nf("dC/dd"))),
    (cc.planar_capacitance_law(1e-4).derivative, ((1e-170,), _nf("dC/dd"))),
    (cc.planar_capacitance_law(1e300).value, ((1e-90,), _nf("^C"))),
    (cc.planar_rlc_low_t_weak, ((cc.PlanarCapacitor(1e-200, 1e-200), 1e-9,
                                 1.0),
                                _nf("the low-temperature weak-dissipation "
                                    "force"))),
    (cc.planar_rlc_low_t_strong, ((cc.PlanarCapacitor(1e-4, 1e-6), 1e-9,
                                   0.0), "resistance must be positive")),
    (cc.planar_rlc_low_t_strong, ((cc.PlanarCapacitor(1e-4, 1e-6), 1e-9,
                                   1e-200),
                                  _nf("the low-temperature strong-dissipation "
                                      "force"))),
    (cc.sphere_plate_circuit_force, ((cc.SpherePlate(1e-4, 1e-6), -1e-9,
                                      300.0, "low-T"),
                                     "inductance must be positive")),
    # gamma = R/L at L = 0
    (cc.map_series(cc.SeriesRLC.of(1.0, 0.0, 1e-12)).gamma0,
     ((1.0,), "inductance must be positive")),
    # T / Omega overflows, or Omega / T underflows to a zero divisor
    (force_ohmic_high_t, ((_TINY, 1.0), _nf("the high-T force"))),
    (force_ohmic_weak_dissipation, ((_TINY, 1.0),
                                    _nf("the weak-dissipation force"))),
    (force_drude_very_high_t, ((_TINY_DRUDE, _DRUDE_MODEL, 1.0),
                               _nf("the very-high-T force"))),
    (force_drude_high_t, ((_TINY_DRUDE, _DRUDE_MODEL, 1.0),
                          _nf("the high-T force"))),
    (free_energy_drude_gamma, ((_TINY_DRUDE,), _nf("the Drude free energy"))),
    (free_energy_difference_gamma, ((OscillatorParams(1e-200, Ohmic(0.3),
                                                      1.0), 1e150),
                                    _nf("the free-energy difference"))),
    # inputs that no regime may take
    (cc.sphere_plate_circuit_force, ((cc.SpherePlate(1e-4, 1e-6), -1e-6,
                                      300.0, "high-T"),
                                     "inductance must be positive")),
    (cc.planar_rlc_low_t_weak, ((cc.PlanarCapacitor(1e-4, 1e-6), 1e-6, -1.0),
                                "resistance must be finite and >= 0")),
    (cc.map_series(cc.SeriesRLC.of(1e-3, -1e-6, 1e-12)).gamma0,
     ((1.0,), "inductance must be positive")),
])
def test_closed_forms_raise_domain_error_where_not_finite(fn, args):
    args, text = args
    with pytest.raises(DomainError, match=text):
        fn(*args)


def test_series_loop_with_tiny_inductance():
    # dgamma/dlambda = (R' - gamma L') / L, with no L L to underflow to 0
    model = cc.map_series(cc.SeriesRLC.of(1.0, 1e-200, 1e-12))
    assert model.derivatives_at(1.0)[1] == 0.0
    res = cc.force_series_rlc(cc.SeriesRLC.of(1e-30, 1e-170, 1.0), 1.0, 1.0,
                              units="reduced")
    assert res.value == 0.0
    res = cc.force_series_rlc(cc.SeriesRLC.of(0.0, 1e-170, (1.0, 1.0)), 1.0,
                              1.0, units="reduced")
    assert res.value == 2.4999999999999996e84


def test_overdamped_low_t_force_raises_where_a_root_rounds_to_zero():
    # C(d) of a 1e-90 gap: Omega ~ 1e-35 against gamma = 1e3.  The small
    # root gamma/2 - sqrt(gamma^2/4 - Omega^2) would round to 0; taken as
    # Omega^2 over the large root it is 4.5e-72, and the force is finite
    loop = cc.SeriesRLC.of(1e-3, 1e-6, cc.planar_capacitance_law(2.5e-5))
    model = cc.map_series(loop)
    assert cc.point_force(loop, model, "low-T")(0.01, 1e-90)[0].value \
        == -1.2980024935043856e-14
    assert cc.point_force(loop, model, "low-T")(0.01, 1e-6)[0].value < 0.0
    # Omega^2 / gamma underflows only below Omega ~ 1e-160
    with pytest.raises(DomainError, match="rounds to 0"):
        force_ohmic_low_t(OscillatorParams(1e-170, Ohmic(1e3), 0.0), 1.0)


def test_circuit_force_raises_where_dc_dd_overflows():
    loop = cc.SeriesRLC.of(1e-3, 1e-6, cc.planar_capacitance_law(1e300))
    model = cc.map_series(loop)
    with pytest.raises(DomainError, match="dC/dd"):
        cc.point_force(loop, model, "high-T")(300.0, 1e-10)[0]


# Every public function returns finite values or raises a library error,
# whatever float, NaN or +-inf reaches one of its numeric arguments.
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SERIES = cc.SeriesRLC.of(1e-3, 1e-6, cc.planar_capacitance_law(1e-4))
_PARALLEL = cc.ParallelRLC.of(1e3, (1e-6, 1.0), 1e-12)
_PLATES = cc.PlanarCapacitor(1e-4, 1e-6)
_SPHERE = cc.SpherePlate(1e-4, 1e-6)
_RESULT = cc.ForceResult(-0.25, "exact", (), {"f_omega": -0.25})


def _circuit_calls(x):
    series, parallel = cc.map_series(_SERIES), cc.map_parallel(_PARALLEL)
    return [
        lambda: cc.constant_element(x).value(1.0),
        lambda: cc.power_element(x, 0.5).value(2.0),
        lambda: cc.power_element(1.0, x).derivative(2.0),
        lambda: cc.power_element(1.0, 0.5).value(x),
        lambda: cc.force_series_rlc(cc.SeriesRLC.of(1e-3, 1e-6, (x, 1.0)),
                                    300.0, 1.0),
        lambda: cc.force_parallel_rlc(cc.ParallelRLC.of(x, (1e-6, 1.0),
                                                        1e-12), 300.0, 1.0),
        lambda: cc.SeriesRLC.of(1.0, 1e-6, 1e-12, x).element_size,
        lambda: cc.PlanarCapacitor(x, 1e-6).area,
        lambda: cc.PlanarCapacitor(1e-4, x).gap,
        lambda: cc.PlanarCapacitor(1e-4, 1e-6, x).epsilon,
        lambda: cc.capacitance_sphere_plate(cc.SpherePlate(x, 1e-6)),
        lambda: cc.capacitance_sphere_plate(cc.SpherePlate(1e-4, x)),
        lambda: cc.SpherePlate(1e-4, x).gap,
        lambda: cc.planar_capacitance_law(x).value(1e-6),
        lambda: cc.planar_capacitance_law(1e-4, x).derivative(1e-6),
        lambda: cc.planar_capacitance_law(1e-4).value(x),
        lambda: cc.planar_capacitance_law(1e-4).derivative(x),
        lambda: cc.sphere_plate_capacitance_law(x).value(1e-6),
        lambda: cc.sphere_plate_capacitance_law(1e-4).derivative(x),
        lambda: series.params_at(x, 1.0),
        lambda: series.derivatives_at(x),
        lambda: parallel.params_at(x, 1.0),
        lambda: parallel.derivatives_at(x),
        lambda: cc.units_factors(x, "si"),
        lambda: cc.units_factors(x, "reduced"),
        lambda: cc.scale_result(_RESULT, x),
        lambda: cc.force_series_rlc(_SERIES, x, 1e-6),
        lambda: cc.force_series_rlc(_SERIES, 300.0, x, "high-T"),
        lambda: cc.force_parallel_rlc(_PARALLEL, x, 1.0, "low-T"),
        lambda: cc.force_parallel_rlc(_PARALLEL, 1.0, x, units="reduced"),
        lambda: cc.planar_rlc_low_t_weak(_PLATES, x, 1.0),
        lambda: cc.planar_rlc_low_t_weak(_PLATES, 1e-9, x),
        lambda: cc.planar_rlc_low_t_strong(_PLATES, x, 1.0),
        lambda: cc.planar_rlc_low_t_strong(_PLATES, 1e-9, x),
        lambda: cc.casimir_reference(_PLATES, x, "high-T"),
        lambda: cc.casimir_reference(_SPHERE, x, "low-T"),
        lambda: cc.sphere_plate_circuit_force(_SPHERE, x, 300.0, "low-T"),
        lambda: cc.sphere_plate_circuit_force(_SPHERE, 1e-6, x, "high-T"),
        lambda: cc.relative_weight(_PLATES, _SERIES, x, "low-T"),
        lambda: cc.relative_weight(_SPHERE, _SERIES, x, "high-T"),
    ]


def _all_finite(value) -> bool:
    if value is None:
        return True
    if isinstance(value, (tuple, list)):
        return all(map(_all_finite, value))
    if isinstance(value, dict):
        return _all_finite(list(value.values()))
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, (float, int)):
        return math.isfinite(value)
    if isinstance(value, cc.ForceResult):
        return _all_finite([value.value, value.components])
    if isinstance(value, OscillatorParams):
        return _all_finite([value.omega0, value.temperature,
                            value.damping.gamma0])
    raise TypeError(f"unexpected result {value!r}")


@given(st.one_of(_NON_FINITE, st.floats()))
@settings(max_examples=300, deadline=None)
def test_public_functions_are_finite_or_raise(x):
    for k, call in enumerate(_circuit_calls(x)):
        try:
            result = call()
        except (DomainError, PreconditionError):
            continue
        assert _all_finite(result), (k, x, result)


@given(st.one_of(_NON_FINITE, st.floats(max_value=-5e-324)))
@settings(max_examples=40, deadline=None)
def test_non_finite_temperatures_raise(t):
    # negative temperatures raise as well
    for units in ("si", "reduced"):
        with pytest.raises(DomainError, match="temperature"):
            cc.units_factors(t, units)
    with pytest.raises(DomainError, match="temperature"):
        cc.force_series_rlc(_SERIES, t, 1e-6)
    for regime in ("low-T", "high-T"):
        for call in (lambda: cc.casimir_reference(_PLATES, t, regime),
                     lambda: cc.casimir_reference(_SPHERE, t, regime),
                     lambda: cc.sphere_plate_circuit_force(_SPHERE, 1e-6, t,
                                                           regime),
                     lambda: cc.relative_weight(_PLATES, _SERIES, t, regime),
                     lambda: cc.relative_weight(_SPHERE, _SERIES, t,
                                                regime)):
            with pytest.raises(DomainError,
                               match="temperature must be finite and >= 0"):
                call()


def test_geometry_forms_reject_other_geometries():
    with pytest.raises(PreconditionError, match="PlanarCapacitor"):
        cc.casimir_reference(object(), 300.0, "high-T")
    with pytest.raises(PreconditionError, match="PlanarCapacitor"):
        cc.relative_weight(object(), _SERIES, 300.0, "high-T")


def test_geometry_forms_take_zero_temperature():
    regime = "low-T"
    assert cc.casimir_reference(_PLATES, 0.0, regime).value <= 0.0
    assert cc.casimir_reference(_SPHERE, 0.0, regime).value <= 0.0
    assert cc.sphere_plate_circuit_force(_SPHERE, 1e-6, 0.0,
                                         regime).value <= 0.0
    assert cc.relative_weight(_PLATES, _SERIES, 0.0, regime) > 0.0
    assert cc.relative_weight(_SPHERE, _SERIES, 0.0, regime) > 0.0
    # the high-T forms, like the oscillator's, need T > 0
    for name, call in (
            ("casimir_reference",
             lambda: cc.casimir_reference(_PLATES, 0.0, "high-T")),
            ("casimir_reference",
             lambda: cc.casimir_reference(_SPHERE, 0.0, "high-T")),
            ("sphere_plate_circuit_force",
             lambda: cc.sphere_plate_circuit_force(_SPHERE, 1e-6, 0.0,
                                                   "high-T")),
            ("relative_weight",
             lambda: cc.relative_weight(_PLATES, _SERIES, 0.0, "high-T")),
            ("relative_weight",
             lambda: cc.relative_weight(_SPHERE, _SERIES, 0.0, "high-T"))):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == f"{name} requires temperature > 0"


def test_power_law_loops_whose_gamma_is_constant_by_construction():
    # dgamma/dlambda of R = 3 lambda over L = 0.7 lambda, and of R C =
    # 3 lambda x 0.7 / lambda, rounds to a few 1e-16, not 0; both loops
    # take the closed form at every point, and the oracle agrees
    lams = np.linspace(0.1, 3.0, 300).tolist()
    loops = [(cc.force_series_rlc, cc.map_series,
              cc.SeriesRLC.of((3.0, 1.0), (0.7, 1.0), 1.0)),
             (cc.force_parallel_rlc, cc.map_parallel,
              cc.ParallelRLC.of((3.0, 1.0), 1.0, (0.7, -1.0)))]
    for force, mapping, loop in loops:
        model = mapping(loop)
        assert any(model.d_gamma0(lam) != 0.0 for lam in lams)
        for lam in lams:
            res = force(loop, 0.5, lam, units="reduced")
            oracle = force_sum_exact(model.params_at(lam, 0.5), model, lam)
            assert abs(res.value - oracle.value) \
                <= max(1e-12, 2.0 * oracle.truncation_estimate), lam


def test_a_power_law_gamma_still_raises():
    # gamma = 3 lambda^0.5 / 0.7 changes with lambda: no closed form, and
    # the oracle's sum diverges
    loop = cc.SeriesRLC.of((3.0, 0.5), 0.7, 1.0)
    model = cc.map_series(loop)
    for lam in (0.1, 1.0, 3.0):
        with pytest.raises(PreconditionError):
            cc.force_series_rlc(loop, 0.5, lam, units="reduced")
        with pytest.raises(DivergentSumError):
            force_sum_exact(model.params_at(lam, 0.5), model, lam)


def test_loop_model_shares_evaluations_by_value_and_sign_of_lambda():
    # the reads at one lambda share its evaluations; a distinct float of
    # the same value evaluates again, to the same bits, and so does the
    # other sign of zero: R(-0) = -0, so gamma(-0) = -0
    calls = []

    def counted(coeff, exponent):
        law = cc.power_element(coeff, exponent)
        return cc.ElementLaw(
            lambda lam: calls.append((coeff, lam)) or law.value(lam),
            law.derivative)

    for mapper, loop_of in ((cc.map_series, cc.SeriesRLC),
                            (cc.map_parallel, cc.ParallelRLC)):
        for read in ("omega", "d_omega", "gamma0", "d_gamma0"):
            model = mapper(loop_of(counted(2.0, 1.0), counted(1.0, 0.0),
                                   counted(0.5, 0.0)))
            calls.clear()
            first, again = 1.5, float("1.5")
            assert first is not again
            getattr(model, read)(first)
            once = [(2.0, first), (1.0, first), (0.5, first)]
            assert sorted(calls) == sorted(once)    # each value, once
            assert model.omega(first) == model.omega(again)
            assert model.d_omega(again) == model.d_omega(first)
            twice = once + [(2.0, again), (1.0, again), (0.5, again)]
            assert sorted(calls) == sorted(twice + once)
    series = cc.map_series(cc.SeriesRLC.of((2.0, 1.0), 1.0, 0.5))
    assert math.copysign(1.0, series.gamma0(0.0)) == 1.0
    assert math.copysign(1.0, series.gamma0(-0.0)) == -1.0
    assert math.copysign(1.0, series.gamma0(0.0)) == 1.0


def _uncached_model(loop) -> ParametricModel:
    """The loop's model as plain closures over its laws, with no cache:
    Omega from L and C, gamma from R and L (series) or R and C
    (parallel), and their derivatives, each law evaluated on every read."""
    r_of, l_of, c_of = loop.resistance, loop.inductance, loop.capacitance

    def omega_of(cl, cap):
        cc._check_positive("inductance", cl)
        cc._check_positive("capacitance", cap)
        try:
            return 1.0 / math.sqrt(cl * cap)
        except ZeroDivisionError:
            raise not_finite("Omega = 1/sqrt(LC)") from None

    def omega(lam):
        return omega_of(l_of.value(lam), c_of.value(lam))

    def d_omega(lam):
        cl, cap = l_of.value(lam), c_of.value(lam)
        return finite(-0.5 * omega_of(cl, cap) * (l_of.derivative(lam) / cl
                                                  + c_of.derivative(lam) / cap),
                      "dOmega/dlambda")

    if isinstance(loop, cc.SeriesRLC):
        def gamma0(lam):
            return r_of.value(lam) / cc._check_positive("inductance",
                                                        l_of.value(lam))

        def d_gamma0(lam):
            return ((r_of.derivative(lam) - gamma0(lam) * l_of.derivative(lam))
                    / l_of.value(lam))
    else:
        def gamma0(lam):
            try:
                return 1.0 / (cc._check_positive("resistance", r_of.value(lam))
                              * cc._check_positive("capacitance",
                                                   c_of.value(lam)))
            except ZeroDivisionError:
                raise not_finite("gamma = 1/(RC)") from None

        def d_gamma0(lam):
            rr, cap = r_of.value(lam), c_of.value(lam)
            return -gamma0(lam) * (r_of.derivative(lam) / rr
                                   + c_of.derivative(lam) / cap)

    return ParametricModel(omega, d_omega, gamma0, d_gamma0)


class _LawFailed(Exception):
    pass


def _fails(lam):
    raise _LawFailed(f"the law failed at {lam!r}")


@pytest.mark.parametrize("loop_of", [cc.SeriesRLC, cc.ParallelRLC])
@pytest.mark.parametrize("law", ["resistance", "inductance", "capacitance"])
@pytest.mark.parametrize("part, fault", [
    ("value", _fails), ("value", -1.0), ("value", math.nan),
    ("derivative", _fails), ("derivative", math.nan),
    ("derivative", math.inf)])
def test_a_single_faulty_law_fails_as_without_the_cache(loop_of, law, part,
                                                        fault):
    # each law raising, or returning a value a check rejects, while the
    # others are constant: the force raises as with the uncached model,
    # and so do the one-point forms
    bad = fault if callable(fault) else (lambda _lam: fault)
    laws = {}
    for name, value in (("resistance", 2.0), ("inductance", 1.0),
                        ("capacitance", 0.5)):
        value_of, derivative_of = (lambda _lam, v=value: v), (lambda _lam: 0.0)
        if name == law:
            value_of, derivative_of = ((bad, derivative_of) if part == "value"
                                       else (value_of, bad))
        laws[name] = cc.ElementLaw(value_of, derivative_of)
    loop = loop_of(laws["resistance"], laws["inductance"],
                   laws["capacitance"], None)
    mapper = cc.map_series if loop_of is cc.SeriesRLC else cc.map_parallel
    raised = []
    for model in (_uncached_model(loop), mapper(loop)):
        with pytest.raises(Exception) as exc:
            cc.point_force(loop, model, "exact", "reduced")(0.5, 1.5)[0]
        raised.append((type(exc.value), str(exc.value)))
    for force in (cc.force_series_rlc, cc.force_parallel_rlc):
        with pytest.raises(Exception) as exc:
            force(loop, 0.5, 1.5, "exact", "reduced")
        raised.append((type(exc.value), str(exc.value)))
    assert raised[1:] == raised[:-1]


def _outcome(f, *args, **kwargs):
    """f's value, exactly (repr tells -0.0 from 0.0), or its exception."""
    try:
        return repr(f(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


_ELEMENTS = {"constant": (2.0, 1.0, 0.5), "swept-R": ((2.0, 1.0), 1.0, 0.5),
             "swept-L": (2.0, (1.0, 1.0), 0.5),
             "swept-C": (2.0, 1.0, (0.5, 1.0))}


@pytest.mark.parametrize("loop_of", [cc.SeriesRLC, cc.ParallelRLC])
@pytest.mark.parametrize("elements", list(_ELEMENTS.values()), ids=_ELEMENTS)
def test_a_loop_maps_by_its_own_class(loop_of, elements):
    # the loop's class picks the topology, whichever name is called: the
    # model and force are those of the uncached model of that class
    loop = loop_of.of(*elements)
    own = _uncached_model(loop)
    for mapper in (cc.map_series, cc.map_parallel):
        model = mapper(loop)
        for lam in (0.5, 1.5):
            for read in ("omega", "d_omega", "gamma0", "d_gamma0"):
                assert _outcome(getattr(model, read), lam) \
                    == _outcome(getattr(own, read), lam)
    for regime in ("exact", "high-T"):
        want = _outcome(lambda: cc.point_force(loop, own, regime,
                                               "reduced")(0.3, 1.0)[0])
        for force in (cc.force_series_rlc, cc.force_parallel_rlc):
            assert _outcome(force, loop, 0.3, 1.0, regime,
                            units="reduced") == want


@pytest.mark.parametrize("force", [cc.force_series_rlc, cc.force_parallel_rlc])
def test_a_parallel_loop_has_its_own_force_through_both_names(force):
    # gamma = 1/(RC) varies with a swept C, and not with a swept L
    with pytest.raises(PreconditionError, match="dgamma/dlambda = 0"):
        force(cc.ParallelRLC.of(2.0, 1.0, (0.5, 1.0)), 0.3, 1.0,
              units="reduced")
    res = force(cc.ParallelRLC.of(2.0, (1.0, 1.0), 0.5), 0.3, 1.0,
                units="reduced")
    assert repr(res.value) == "0.31993201204526983"


# proportional: gamma constant by construction, dgamma/dlambda a few
# ulps; overdamped: the same with Omega 1e-9 gamma, flat by gamma only
_REUSED = {cc.SeriesRLC: dict(_ELEMENTS, proportional=((3.0, 1.0), (0.7, 1.0),
                                                       (0.5, -0.5)),
                              overdamped=((3e6, 1.0), (0.7, 1.0),
                                          (1e6, -0.5))),
           cc.ParallelRLC: dict(_ELEMENTS, proportional=((3.0, 1.0), 1.0,
                                                         (0.7, -1.0)),
                                overdamped=((3e-6, 0.5), (1e6, 1.0),
                                            (0.7, -0.5)))}


def _reads(loop_at, grid):
    """Each point's force on the loop loop_at() gives, as its repr, or
    its exception."""
    return [_outcome(force, loop_at(), t, lam, regime, units="reduced")
            for force, regime, t, lam in grid]


def _grid(lams):
    return [(force, regime, t, lam)
            for force in (cc.force_series_rlc, cc.force_parallel_rlc)
            for regime in ("exact", "low-T", "high-T")
            for lam in lams for t in (0.0, 0.3, 2.0)]


@pytest.mark.parametrize("loop_of", [cc.SeriesRLC, cc.ParallelRLC])
def test_the_one_point_forms_run_the_point_path(loop_of):
    # force_series_rlc and force_parallel_rlc read the loop's point where
    # point_force's at reads the model: same bits, warnings and errors,
    # in the same order, also on a reused loop and at a lambda object
    # that repeats, an equal but distinct one, and both signs of zero
    one = 1.25
    lams = [one, one, float("1.25"), 0.75, one, -0.0, 0.0, -0.0]
    temps = (0.0, 0.3, 2.0, -1.0, math.nan, math.inf, 1e300)
    for elements in _REUSED[loop_of].values():
        for size in (None, 1e-3, 1e8):
            loop = loop_of.of(*elements, element_size=size)
            for regime, units, t, lam in itertools.product(
                    ("exact", "low-T", "high-T", "weak-dissipation", "nope",
                     []), ("reduced", "si", "SI"), temps, lams):
                want = _outcome(lambda: cc.point_force(
                    loop, cc.map_series(loop), regime, units)(t, lam)[0])
                for force in (cc.force_series_rlc, cc.force_parallel_rlc):
                    assert _outcome(force, loop, t, lam, regime, units) \
                        == want, (force, regime, units, t, lam)
                    assert _outcome(force, loop_of.of(*elements,
                                                      element_size=size),
                                    t, lam, regime, units) == want


@pytest.mark.parametrize("loop_of", [cc.SeriesRLC, cc.ParallelRLC])
def test_two_threads_on_one_loop_give_the_serial_results(loop_of):
    # each thread reads the shared loop at its own lambda; what the calls
    # share (the loop's laws, specfun's digamma memo) gives each thread
    # its serial results
    elements = _REUSED[loop_of]["proportional"]
    loop = loop_of.of(*elements)
    grids = [_grid([0.75]) * 20, _grid([1.25]) * 20]
    serial = [_reads(lambda: loop_of.of(*elements), grid) for grid in grids]
    results = [None, None]

    def run(k):
        results[k] = _reads(lambda: loop, grids[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == serial
