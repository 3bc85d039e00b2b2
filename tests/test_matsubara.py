"""Oracle-side tests: truncated sums, tails, finite differences."""

import cmath
import dataclasses
import functools
import math
import operator
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctforce import circuits, forces, matsubara
from fluctforce.errors import DivergentSumError, DomainError, \
    PreconditionError
from fluctforce.forces import free_energy_difference_gamma, \
    free_energy_drude_gamma
from fluctforce.matsubara import (SumSpec, central_difference,
                                  finite_difference_force, force_sum_exact,
                                  free_energy_difference, free_energy_drude,
                                  per_parameter_sums_drude)
from fluctforce.oscillator import Drude, Ohmic, OscillatorParams, \
    ParametricModel

# frozen from an exact evaluation (mpmath nsum agrees with the closed
# digamma form to 25 digits); Omega=1, gamma=0.5, T=0.25, dOmega=1
OHMIC_FORCE_FIXTURE = -0.4818669175337633537


def linear_model(om, dom=0.0, g0=0.0, dg0=0.0, wd=None, dwd=0.0):
    kwargs = dict(omega=lambda lam: om + (lam - 1.0) * dom,
                  d_omega=lambda lam: dom,
                  gamma0=lambda lam: g0 + (lam - 1.0) * dg0,
                  d_gamma0=lambda lam: dg0)
    if wd is not None:
        kwargs["omega_d"] = lambda lam: wd + (lam - 1.0) * dwd
        kwargs["d_omega_d"] = lambda lam: dwd
    return ParametricModel(**kwargs)


def test_zero_derivatives_give_zero_force():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    m = linear_model(1.0, dom=0.0, g0=0.5)
    assert force_sum_exact(p, m, 1.0).value == 0.0


def test_ohmic_fixture_value():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    m = linear_model(1.0, dom=1.0, g0=0.5)
    res = force_sum_exact(p, m, 1.0, SumSpec(n_max=100_000))
    assert abs(res.value - OHMIC_FORCE_FIXTURE) \
        <= max(1e-12, 2.0 * res.truncation_estimate)


def test_ohmic_gamma_derivative_diverges():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.25)
    m = linear_model(1.0, dom=0.0, g0=0.5, dg0=1.0)
    with pytest.raises(DivergentSumError):
        force_sum_exact(p, m, 1.0)


def test_requires_positive_temperature():
    p = OscillatorParams(1.0, Ohmic(0.5), 0.0)
    m = linear_model(1.0, dom=1.0, g0=0.5)
    with pytest.raises(PreconditionError):
        force_sum_exact(p, m, 1.0)


def test_cap_status():
    # every oracle sums 32 terms at any temperature, whatever n_max; the
    # count is a class constant, not a field
    assert SumSpec().hard_cap == SumSpec.hard_cap == 32
    assert [f.name for f in dataclasses.fields(SumSpec)] == ["n_max"]
    with pytest.raises(TypeError):
        dataclasses.replace(SumSpec(), hard_cap=64)
    m = linear_model(1.0, dom=1.0, g0=0.5)
    drude_m = linear_model(1.0, 1.0, 0.5, 0.0, 2.0)

    def bits(t, *spec):
        res = force_sum_exact(OscillatorParams(1.0, Ohmic(0.5), t), m,
                              1.0, *spec)
        sums = per_parameter_sums_drude(
            OscillatorParams(1.0, Drude(0.5, 2.0), t), drude_m, 1.0, *spec)
        return [(part.n_used, part.value.hex(),
                 part.truncation_estimate.hex())
                for part in (res, sums.f_omega, sums.f_gamma0,
                             sums.f_omega_d_1, sums.f_omega_d_2)]

    for t in (1e-9, 1e-3, 0.5, 10.0):
        want = bits(t)
        assert {n for n, *_ in want} == {32}, t
        for n_max in (1, 31, 32, 33, 16_000_000):
            assert bits(t, SumSpec(n_max)) == want, (n_max, t)


# Ohmic force sums (Omega, gamma, T, force at dOmega/dlambda = 1), frozen
# from the digamma form, and the trigamma form at critical damping,
# evaluated with mpmath 1.3.0 at 60 digits
OHMIC_FORCE_REFERENCES = (
    (1.0, 0.0, 1e-09, -0.5),
    (1.0, 0.0, 1e-06, -0.5),
    (1.0, 0.0, 0.001, -0.5),
    (1.0, 0.0, 0.1, -0.50004540199100968779),
    (1.0, 0.0, 1.0, -1.0819767068693264244),
    (1.0, 0.0, 10.0, -10.008331944775049624),
    (1.0, 0.01, 1e-09, -0.49841467415991661158),
    (1.0, 0.01, 1e-06, -0.49841467415992708355),
    (1.0, 0.01, 0.001, -0.49841468463197480514),
    (1.0, 0.01, 0.1, -0.49857672613616544947),
    (1.0, 0.01, 1.0, -1.0818839998112435427),
    (1.0, 0.01, 10.0, -10.008330976132726039),
    (1.0, 0.3, 1e-09, -0.4572459120032213123),
    (1.0, 0.3, 1e-06, -0.45724591200353547125),
    (1.0, 0.3, 0.001, -0.45724622616485561225),
    (1.0, 0.3, 0.1, -0.46073220253131580993),
    (1.0, 0.3, 1.0, -1.0793031553131582174),
    (1.0, 0.3, 10.0, -10.008303005684470897),
    (1.0, 2.0, 1e-09, -0.31830988618379067363),
    (1.0, 2.0, 1e-06, -0.31830988618588506664),
    (1.0, 2.0, 0.001, -0.31831198056235685013),
    (1.0, 2.0, 0.1, -0.33791896951044416766),
    (1.0, 2.0, 1.0, -1.0674077424418574478),
    (1.0, 2.0, 10.0, -10.008143576013823291),
    (1.0, 10.0, 1e-09, -0.14895013665030216273),
    (1.0, 10.0, 1e-06, -0.14895013666077412777),
    (1.0, 10.0, 0.001, -0.14896060458176057703),
    (1.0, 10.0, 0.1, -0.20163538267411118677),
    (1.0, 10.0, 1.0, -1.0419276258991499084),
    (1.0, 10.0, 10.0, -10.007483649651228184),
    (1.0, 1000.0, 1e-09, -0.0043976217519091854208),
    (1.0, 1000.0, 1e-06, -0.0043976227991015553356),
    (1.0, 1000.0, 0.001, -0.0049214940975022309452),
    (1.0, 1000.0, 0.1, -0.10252973377273069365),
    (1.0, 1000.0, 1.0, -1.001798444718069202),
    (1.0, 1000.0, 10.0, -10.00107447903923365),
    (0.5, 0.005, 0.02, -0.4984316515469156549),
    (3.0, 6.0, 0.7, -0.40793758928563148351),
    (0.2, 200.0, 0.0001, -0.0045805506148421660398),
)


def _ohmic_case(om, g, t):
    return OscillatorParams(om, Ohmic(g), t), linear_model(om, 1.0, g)


@pytest.mark.parametrize("om, g, t, ref", OHMIC_FORCE_REFERENCES)
def test_ohmic_force_sum_matches_frozen_references(om, g, t, ref):
    res = force_sum_exact(*_ohmic_case(om, g, t), 1.0)
    assert res.n_used == 32
    assert abs(res.value - ref) <= 1e-13 * abs(ref)


def test_tail_estimate_bounds_doubling():
    # from a single direct term up: the estimate covers the distance to
    # the frozen reference, whose own rounding is half an ulp
    for om, g, t, ref in OHMIC_FORCE_REFERENCES:
        p, m = _ohmic_case(om, g, t)
        (recorded,) = oracle_sums(lambda: force_sum_exact(p, m, 1.0))
        for n in (1, 2, 3, 4, 8, 16, 32):
            value, estimate = sum_at(n, *recorded)
            assert abs(value - ref) <= estimate + 0.5 * math.ulp(ref), \
                (om, g, t, n)


def test_drude_matches_frozen_per_term_ohmic_summand():
    # with only Omega lambda-dependent, the Drude summand equals an
    # Ohmic-style one with gamma frozen at gamma(i omega_n), term by term
    rng = np.random.default_rng(3)
    n = np.arange(1, 5_001, dtype=np.float64)
    for _ in range(20):
        om = float(rng.uniform(0.5, 2.0))
        g0 = float(rng.uniform(0.05, 2.0))
        wd = float(rng.uniform(10.0, 100.0)) * max(om, g0)
        t = float(rng.uniform(0.2, 2.0))
        p = OscillatorParams(om, Drude(g0, wd), t)
        m = linear_model(om, dom=1.0, g0=g0, wd=wd)
        (terms, _, head, *_), = oracle_sums(lambda: force_sum_exact(p, m, 1.0))
        assert head == 1.0 / om
        w = 2.0 * math.pi * t * n
        gam_n = g0 * wd / (wd + w)
        manual = 2.0 * om / ((w + gam_n) * w + om * om)
        got = np.array(terms(5_000))
        assert np.all(np.abs(got - manual) <= 1e-13 * np.abs(manual))


def test_free_energy_difference_trivial_and_antisymmetric():
    p1 = OscillatorParams(1.0, Ohmic(0.8), 0.3)
    p2 = OscillatorParams(2.0, Ohmic(0.8), 0.3)
    same = free_energy_difference(p1, p1, SumSpec(n_max=10_000))
    assert same.value == 0.0
    ab = free_energy_difference(p1, p2, SumSpec(n_max=200_000)).value
    ba = free_energy_difference(p2, p1, SumSpec(n_max=200_000)).value
    assert abs(ab + ba) <= 1e-14


def test_free_energy_difference_requires_same_damping():
    p1 = OscillatorParams(1.0, Ohmic(0.8), 0.3)
    p2 = OscillatorParams(2.0, Ohmic(0.9), 0.3)
    with pytest.raises(PreconditionError):
        free_energy_difference(p1, p2)


def test_free_energy_difference_requires_equal_temperatures():
    p1 = OscillatorParams(1.0, Ohmic(0.1), 1.0)
    p2 = OscillatorParams(1.2, Ohmic(0.1), 2.0)
    with pytest.raises(PreconditionError, match="equal temperatures"):
        free_energy_difference(p1, p2)


def test_free_energy_drude_rejects_unknown_roots():
    p = OscillatorParams(1.0, Drude(0.1, 30.0), 1.0)
    with pytest.raises(DomainError, match="roots must be 'approx' or 'exact'"):
        free_energy_drude(p, roots="bogus")


def test_free_energy_difference_classical_limit():
    # T >> Omega: the half-weight n = 0 term dominates
    p1 = OscillatorParams(1.0, Ohmic(0.0), 100.0)
    p2 = OscillatorParams(2.0, Ohmic(0.0), 100.0)
    res = free_energy_difference(p1, p2, SumSpec(n_max=100_000))
    ref = 100.0 * math.log(2.0)
    assert abs(res.value - ref) <= 1e-4 * ref


def test_free_energy_difference_gamma_cross_oracle():
    for om1, om2, g, t in ((1.0, 2.0, 0.8, 0.3), (0.7, 1.1, 3.0, 0.15),
                           (1.0, 1.6, 0.0, 0.5)):
        p1 = OscillatorParams(om1, Ohmic(g), t)
        p2 = OscillatorParams(om2, Ohmic(g), t)
        via_sum = free_energy_difference(p1, p2, SumSpec(n_max=1_000_000)).value
        via_gamma = free_energy_difference_gamma(p1, om2)
        assert abs(via_sum - via_gamma) <= 1e-8 * abs(via_gamma)


def test_free_energy_drude_matches_gamma_form():
    p = OscillatorParams(1.0, Drude(0.3, 300.0), 0.5)
    res = free_energy_drude(p, SumSpec(n_max=1_000_000), roots="approx")
    ref = free_energy_drude_gamma(p)
    assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_free_energy_drude_exact_vs_approx_roots_differ_mildly():
    p = OscillatorParams(1.0, Drude(0.3, 30.0), 0.5)
    a = free_energy_drude(p, SumSpec(n_max=200_000), roots="exact").value
    b = free_energy_drude(p, SumSpec(n_max=200_000), roots="approx").value
    assert a != b
    assert abs(a - b) <= 0.05 * abs(a)


def test_free_energy_drude_undamped_force_limit():
    # gamma0 -> 0: -dF/dlam -> -(1/2) coth(Omega/2T) dOmega
    t = 0.4
    m = linear_model(1.0, dom=1.0, g0=1e-9, wd=500.0)
    fd = finite_difference_force(
        lambda lam: free_energy_drude(m.params_at(lam, t),
                                      SumSpec(n_max=200_000)).value, 1.0)
    ref = -0.5 / math.tanh(0.5 / t)
    assert abs(fd.value - ref) <= 1e-4 * abs(ref)


def test_free_energy_drude_classical_limit():
    # T >> omega_d: F ~ T log(Omega/T)
    p = OscillatorParams(1.0, Drude(0.2, 20.0), 2000.0)
    res = free_energy_drude(p, SumSpec(n_max=100_000))
    ref = 2000.0 * math.log(1.0 / 2000.0)
    assert abs(res.value - ref) <= 1e-3 * abs(ref)


def test_exact_product_fd_equals_direct_force_sum():
    # two independent routes to the true Drude force: -dF/dlam of the
    # exact-root product vs the direct Matsubara force sum
    t = 0.5
    m = linear_model(1.0, 1.1, 0.3, 0.7, 300.0, 0.9)
    p = m.params_at(1.0, t)
    fd = finite_difference_force(
        lambda lam: free_energy_drude(m.params_at(lam, t),
                                      SumSpec(n_max=400_000),
                                      roots="exact").value,
        1.0, h=1e-3)
    direct = force_sum_exact(p, m, 1.0, SumSpec(n_max=400_000))
    assert abs(fd.value - direct.value) <= 1e-9 * abs(direct.value)


def test_finite_difference_quadratic_exact():
    fd = finite_difference_force(lambda x: 3.0 * x * x - 2.0 * x + 1.0, 1.5)
    assert abs(fd.value - (-(6.0 * 1.5 - 2.0))) <= 1e-10 * 7.0


def test_finite_difference_refinement_ratio():
    # second order: halving h divides the error by ~4
    def energy(x):
        return math.cos(3.0 * x)

    exact = 3.0 * math.sin(3.0 * 1.1)
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(abs(central_difference(energy, 1.1, h) - (-exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_finite_difference_matches_drude_full_case():
    from fluctforce.forces import force_drude_full
    t = 0.5
    m = linear_model(1.0, dom=1.0, g0=0.3, dg0=0.8, wd=300.0, dwd=1.2)
    p = m.params_at(1.0, t)
    fd = finite_difference_force(
        lambda lam: free_energy_drude_gamma(m.params_at(lam, t)), 1.0)
    full = force_drude_full(p, m, 1.0)
    assert abs(full.value - fd.value) <= 1e-5 * abs(fd.value)


def test_per_parameter_sums_zero_derivatives():
    p = OscillatorParams(1.0, Drude(0.3, 100.0), 0.5)
    m = linear_model(1.0, g0=0.3, wd=100.0)
    sums = per_parameter_sums_drude(p, m, 1.0, SumSpec(n_max=10_000))
    assert sums.total() == 0.0


def test_per_parameter_sums_total_matches_force_sum():
    rng = np.random.default_rng(8)
    for _ in range(10):
        om = float(rng.uniform(0.5, 2.0))
        g0 = float(rng.uniform(0.1, 2.0))
        wd = float(rng.uniform(20.0, 500.0))
        t = float(rng.uniform(0.2, 2.0))
        derivs = rng.uniform(0.5, 2.0, 3)
        p = OscillatorParams(om, Drude(g0, wd), t)
        m = linear_model(om, float(derivs[0]), g0, float(derivs[1]),
                         wd, float(derivs[2]))
        spec = SumSpec(n_max=100_000)
        sums = per_parameter_sums_drude(p, m, 1.0, spec)
        total = force_sum_exact(p, m, 1.0, spec)
        assert abs(sums.total() - total.value) <= 1e-10 * abs(total.value)


def test_per_parameter_cutoff_components_cancel():
    # for T << omega_d the two cutoff components nearly cancel: their sum
    # is the small residual -gamma0/(2 pi omega_d) dOmega_d, far below
    # either component alone (the cancellation that removes the log)
    p = OscillatorParams(1.0, Drude(0.4, 500.0), 0.5)
    m = linear_model(1.0, 0.0, 0.4, 0.0, 500.0, 1.0)
    sums = per_parameter_sums_drude(p, m, 1.0, SumSpec(n_max=200_000))
    ratio = sums.f_omega_d_2.value / sums.f_omega_d_1.value
    assert -1.0 < ratio < 0.0
    combined = sums.f_omega_d_1.value + sums.f_omega_d_2.value
    assert abs(combined) < 0.25 * abs(sums.f_omega_d_1.value)
    closed = -0.4 / (2.0 * math.pi * 500.0)
    assert abs(combined - closed) <= 0.05 * abs(closed)


# -- the summands and their tails ---------------------------------------------
#
# Each oracle hands _oracle its summand, as terms(stop) = [term(1), ...,
# term(stop)], and a tail built from the summand's poles.  The reference
# below writes each summand out of place as a numpy expression of
# omega_n = 2 pi T n.  The direct terms must equal it, and the sum must
# not depend on where the direct terms stop and the tail takes over,
# which fails if the poles or the numerator of a tail do not belong to
# its summand.

OM, DOM, G0, DG0, WD, DWD, T = 1.3, 0.7, 0.45, 0.3, 3.0, 1.1, 0.37
OM2 = 1.9
TWO_PI_T = 2.0 * math.pi * T


def _reference_terms():
    """name -> (oracle call, index of its leaf, out-of-place term of w)."""
    om, dom, g0, dg0, wd, dwd, om2 = OM, DOM, G0, DG0, WD, DWD, OM2
    ohmic = OscillatorParams(om, Ohmic(g0), T)
    drude = OscillatorParams(om, Drude(g0, wd), T)
    delta = om2 * om2 - om * om
    b, c = om * om + g0 * wd, om * om * wd

    def cubic(w):
        return ((w + wd) * w + b) * w + c

    def force_drude(w):
        wpd = w + wd
        num = 2.0 * om * dom + w * (dg0 * wd / wpd
                                    + g0 * dwd * w / (wpd * wpd))
        den = (w + g0 * wd / wpd) * w + om * om
        return num / den

    def components():
        return per_parameter_sums_drude(
            drude, linear_model(om, dom, g0, dg0, wd, dwd), 1.0)

    return {
        "force-ohmic": (
            lambda: force_sum_exact(ohmic, linear_model(om, dom, g0), 1.0),
            0, lambda w: (2.0 * om * dom) / ((w + g0) * w + om * om)),
        "force-drude": (
            lambda: force_sum_exact(
                drude, linear_model(om, dom, g0, dg0, wd, dwd), 1.0),
            0, force_drude),
        "free-energy-difference-ohmic": (
            lambda: free_energy_difference(
                ohmic, OscillatorParams(om2, Ohmic(g0), T)),
            0, lambda w: np.log1p(delta / ((w + g0) * w + om * om))),
        "free-energy-difference-drude": (
            lambda: free_energy_difference(
                drude, OscillatorParams(om2, Drude(g0, wd), T)),
            0, lambda w: np.log1p(
                delta / ((w + g0 * wd / (w + wd)) * w + om * om))),
        "free-energy-drude-exact": (
            lambda: free_energy_drude(drude, roots="exact"),
            0, lambda w: np.log1p(g0 * wd / (w * (w + wd))
                                  + om * om / (w * w))),
        "free-energy-drude-approx": (
            lambda: free_energy_drude(drude, roots="approx"),
            0, lambda w: (np.log1p((g0 * w + om * om) / (w * w))
                          + np.log1p(-g0 / (w + wd)))),
        "component-omega": (
            components, 0, lambda w: (w + wd) / cubic(w)),
        # these two share one summand; omega_d and gamma0 are in their
        # prefactors
        "component-gamma0": (
            components, 1, lambda w: w / cubic(w)),
        "component-omega_d-1": (
            components, 2, lambda w: w / cubic(w)),
        "component-omega_d-2": (
            components, 3,
            lambda w: wd * g0 * w / ((w + wd) * cubic(w))),
    }


REFERENCE_TERMS = _reference_terms()


def oracle_sums(call):
    """(term, pref, head, tail, rel, head_error) of each result an oracle
    call asks _oracle for, one per prefactor."""
    sums = []

    def record(terms, head, tail, *prefs, rel=0.0, head_error=0.0):
        sums.extend((terms, pref, head, tail, rel, head_error)
                    for pref in prefs)
        return [matsubara.OracleResult(0.0, 0.0, 1)] * len(prefs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matsubara, "_oracle", record)
        call()
    return sums


def sum_at(n, terms, pref, head, tail, rel, head_error):
    """(value, truncation_estimate) of a sum oracle_sums recorded, from n
    direct terms and the tail: _oracle's arithmetic, at n other than its
    SumSpec.hard_cap."""
    total, error = matsubara._with_tail([head, *terms(n)], n, tail, rel)
    return pref * total, abs(pref) * (error + head_error)


@pytest.mark.parametrize("name", sorted(REFERENCE_TERMS))
def test_summands_match_reference_terms(name):
    call, index, reference = REFERENCE_TERMS[name]
    terms, _, head, tail, *_ = oracle_sums(call)[index]
    n = np.arange(1, 257)
    want = reference(TWO_PI_T * n.astype(float))
    got = np.array(terms(256))
    if name.startswith("free-energy"):
        # numpy's log1p and libm's differ in the last bit now and then,
        # and the approximate-root summand adds two that partly cancel
        assert np.allclose(got, want, rtol=1e-14, atol=1e-18)
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    terms = [head] + want.tolist()
    values = [matsubara._with_tail(terms, stop, tail)[0]
              for stop in (32, 64, 128, 256)]
    assert max(values) - min(values) <= 2e-15 * max(map(abs, values))


# the Drude force at gamma0 = 0, where -omega_d is a double pole of the
# summand: (Omega, omega_d, T, dOmega, dgamma0, domega_d, force), frozen
# from the digamma form of the summand without the common factor,
# evaluated with mpmath 1.3.0 at 60 digits
DRUDE_DOUBLE_POLE_REFERENCES = (
    (1.0, 30.0, 0.5, 1.0, 0.7, 0.9, -0.96693760509236312849),
    (1.3, 5.0, 0.05, 0.6, 0.0, 1.0, -0.30000000000306544231),
    (0.7, 400.0, 2.0, 1.1, 0.3, 0.0, -3.3682345406245259279),
    (1.0, 1e4, 1e-5, 1.0, 1.0, 1.0, -1.9658961830475337732),
)


@pytest.mark.parametrize("om, wd, t, dom, dg0, dwd, ref",
                         DRUDE_DOUBLE_POLE_REFERENCES)
def test_drude_force_sum_with_a_double_pole(om, wd, t, dom, dg0, dwd, ref):
    p = OscillatorParams(om, Drude(0.0, wd), t)
    m = linear_model(om, dom, 0.0, dg0, wd, dwd)
    assert abs(force_sum_exact(p, m, 1.0).value - ref) <= 1e-13 * abs(ref)
    sums = per_parameter_sums_drude(p, m, 1.0)
    assert abs(sums.total() - ref) <= 1e-13 * abs(ref)


# the Drude force: (Omega, gamma0, omega_d, T, dOmega, dgamma0, domega_d,
# force), frozen from the summand's partial fractions over its four
# poles, -T [dOmega / Omega - sum_j A_j psi(1 - r_j)], evaluated with
# mpmath 1.3.0 at 60 digits (mpmath nsum of the summand agrees to 20
# digits on the two cases tried).  They
# reach every branch of the divided difference of the tail: clustered
# poles at each quadrature rule, and spread poles in groups of one and
# two, for omega_d / Omega from 10 to 1e4 and T from 0.05 to 5.
DRUDE_FORCE_REFERENCES = (
    (1.0, 0.3, 10.0, 0.05, 1.0, 0.5, 2.0, -0.65381224794392985728),
    (1.0, 0.3, 10.0, 0.5, 1.0, 0.5, 2.0, -0.79665178735899241154),
    (1.0, 0.3, 30.0, 0.1, 1.0, 0.5, 2.0, -0.72389355956718145895),
    (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0, -0.86603259738347245257),
    (1.0, 0.3, 10.0, 5.0, 1.0, 0.5, 2.0, -5.0540419995408970745),
    (1.0, 0.3, 100.0, 0.05, 1.0, 0.5, 2.0, -0.81108417363695212981),
    (1.0, 0.3, 100.0, 0.5, 1.0, 0.5, 2.0, -0.95375844401364807093),
    (1.0, 0.3, 100.0, 5.0, 1.0, 0.5, 2.0, -5.1666931060573672202),
    (1.0, 0.3, 1000.0, 0.05, 1.0, 0.5, 2.0, -0.99049459331694320122),
    (1.0, 0.3, 1000.0, 0.5, 1.0, 0.5, 2.0, -1.1331284012064723181),
    (1.0, 0.3, 1000.0, 5.0, 1.0, 0.5, 2.0, -5.3380250838382686585),
    (1.0, 0.3, 10000.0, 0.05, 1.0, 0.5, 2.0, -1.1732418717362268716),
    (1.0, 0.3, 10000.0, 0.5, 1.0, 0.5, 2.0, -1.3158713974379703662),
    (1.0, 0.3, 10000.0, 5.0, 1.0, 0.5, 2.0, -5.5199074007906386696),
    (0.7, 1.5, 7.0, 0.05, 1.1, -0.4, 0.8, -0.27654272602951336214),
    (1.3, 2.6, 13.0, 0.5, 0.6, 0.3, 1.0, -0.41819841825605985427),
    (2.0, 0.05, 20000.0, 0.2, 1.0, 1.0, 0.0, -1.9536978192616016949),
    (0.5, 0.8, 5000.0, 5.0, -0.7, 0.2, 1.5, 6.8271030241518899155),
    (1.0, 20.0, 10.0, 0.05, 1.0, 0.5, 2.0, -0.53396891729865271193),
)


@pytest.mark.parametrize("om, g0, wd, t, dom, dg0, dwd, ref",
                         DRUDE_FORCE_REFERENCES)
def test_drude_force_sum_matches_frozen_references(om, g0, wd, t, dom, dg0,
                                                   dwd, ref):
    p = OscillatorParams(om, Drude(g0, wd), t)
    m = linear_model(om, dom, g0, dg0, wd, dwd)
    assert abs(force_sum_exact(p, m, 1.0).value - ref) <= 1e-13 * abs(ref)


# free energy differences: (Omega1, Omega2, gamma0, omega_d or None for
# Ohmic, T, F(Omega2) - F(Omega1)), frozen from the log-Gamma form
# sum_j [log Gamma(1 - b_j) - log Gamma(1 - a_j)] over the exact (mpmath
# polyroots) factors of the two summands, at 50 digits
DIFFERENCE_REFERENCES = (
    (1.0, 1.7, 0.3, None, 0.5, 0.39812867427811887),
    (1.0, 1.7, 0.3, None, 0.01, 0.32677929158632176014),
    (0.7, 1.1, 3.0, None, 0.15, 0.13277508878765987088),
    (1.0, 1.7, 2.0, None, 0.5, 0.36858714522921846085),
    (1.0, 1.7, 0.3, 30.0, 0.5, 0.39902802637163619657),
    (1.0, 1.7, 0.3, 30.0, 0.01, 0.3280639376781683322),
    (1.0, 1.7, 2.0, 1000.0, 0.5, 0.36872671531377008908),
    (0.7, 1.1, 3.0, 300.0, 0.0001, 0.10483120033634429597),
)

# the same where Omega2 is close to Omega1, frozen the same way: delta =
# Omega2^2 - Omega1^2 from two rounded squares was off by up to u
# (Omega1^2 + Omega2^2) / |delta| relative, 5e-10 in the last two
CLOSE_DIFFERENCE_REFERENCES = (
    (2.11, 2.1117, 0.3, None, 2.45, 0.0020920560548687460464),
    (1.0, 1.000001, 0.5, None, 0.3, 5.0693539139780556646e-7),
    (1.5, 1.5015, 2.0, 300.0, 1.0, 0.0011498120440981056207),
    (1.0, 0.999999999, 0.2, 80.0, 0.05, -4.7152627993832406819e-10),
    (0.7, 0.7000000007, 3.0, None, 0.01, 1.6473100593592722084e-10),
)


@pytest.mark.parametrize("om1, om2, g0, wd, t, ref",
                         CLOSE_DIFFERENCE_REFERENCES)
def test_free_energy_difference_of_close_frequencies(om1, om2, g0, wd, t,
                                                     ref):
    damping = Ohmic(g0) if wd is None else Drude(g0, wd)
    res = free_energy_difference(OscillatorParams(om1, damping, t),
                                 OscillatorParams(om2, damping, t))
    assert abs(res.value - ref) <= 1e-14 * abs(ref)


def test_groups_split_again_a_linked_group_that_spreads_too_far(
        monkeypatch):
    # Omega 30 -> 95 under Drude(120, 15) at T = 1: Omega1's pair and
    # real root share a real part, and the six poles lie near one line
    # across the real axis at |N - c| = 32.8, the pairs 8.2 and 16.5 off
    # the axis.  Single linkage at _LINK joins all six, but they spread
    # 0.504 |N - c| from their centroid, beyond _CLUSTER, so _groups
    # splits them again.  The reference is mpmath's nsum at 50 digits.
    seen = []
    groups = matsubara._groups
    monkeypatch.setattr(matsubara, "_groups", lambda poles, n: (
        seen.append((poles, n)) or groups(poles, n)))
    damping = Drude(120.0, 15.0)
    res = free_energy_difference(OscillatorParams(30.0, damping, 1.0),
                                 OscillatorParams(95.0, damping, 1.0))
    assert abs(res.value - 28.234076387879663904) <= res.truncation_estimate
    [(poles, n)] = seen
    c = sum(poles) / len(poles)
    assert max([abs(r - c) for r in poles]) > matsubara._CLUSTER * abs(n - c)
    assert sorted(map(len, groups(poles, n))) == [1, 1, 1, 1, 2]
    monkeypatch.setattr(matsubara, "_CLUSTER", math.inf)   # no re-split
    assert [len(g) for g in groups(poles, n)] == [6]


# Drude free energies (Omega, gamma0, omega_d, T, roots, F), frozen the
# same way; the last at 40 digits, where P of the divided difference
# reaches 1e370 at the pair |s| ~ 1.7e74
DRUDE_FREE_ENERGY_REFERENCES = (
    (1.0, 0.3, 30.0, 0.5, "exact", 0.55817199709383581427),
    (1.0, 0.3, 30.0, 0.5, "approx", 0.55628430950474992855),
    (1.0, 0.3, 30.0, 0.01, "exact", 0.66053929089910259453),
    (1.0, 0.3, 30.0, 0.01, "approx", 0.65689456249581358812),
    (1.0, 2.0, 1000.0, 0.5, "exact", 2.2959299887461752198),
    (1.0, 2.0, 1000.0, 0.5, "approx", 2.2922670233648227492),
    (1.0, 0.3, 3.0, 2.0, "exact", -1.3495388364422062036),
    (1.0, 0.3, 3.0, 2.0, "approx", -1.3514304980597327734),
    (2.0, 5.0, 1e4, 1e-4, "exact", 7.2454681715915327979),
    (2.0, 5.0, 1e4, 1e-4, "approx", 7.2423893452599784236),
    (1e-160, 1e150, 0.3, 0.5, "exact",
     2.738612787525830490368392016200374958971e+74),
)

# the four Drude force components (Omega, gamma0, omega_d, T, dOmega,
# dgamma0, domega_d, (f_omega, f_gamma0, f_omega_d_1, f_omega_d_2)),
# frozen from partial fractions over the exact poles and digamma, at 50
# digits
PER_PARAMETER_REFERENCES = (
    (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0,
     (-0.64841192688811066882, -0.2146748012395644408,
      -0.0085869920495825773143, 0.0056411227937852343608)),
    (1.0, 0.3, 30.0, 0.01, 1.0, 0.5, 2.0,
     (-0.45909514186519583371, -0.26105356081176515781,
      -0.010442142432470605926, 0.0074525789443824492999)),
    (1.0, 2.0, 1000.0, 0.5, 0.3, -1.0, 0.7,
     (-0.18386890915642910249, 0.88786887095412394085,
      -0.0012430164193357734383, 0.0010224521960523819537)),
    (1.3, 2.6, 13.0, 0.05, 0.6, 0.3, 1.0,
     (-0.20177190612545250213, -0.088130655643358501206,
      -0.058753770428905671652, 0.034186017575950688235)),
)


def _damping(g0, wd):
    return Ohmic(g0) if wd is None else Drude(g0, wd)


def _bound_cases():
    """pytest params (oracle, arguments, references) at every frozen
    reference above, with ids of their table and row."""
    cases = []
    for i, (om, g, t, ref) in enumerate(OHMIC_FORCE_REFERENCES):
        cases.append(pytest.param(force_sum_exact,
                                  (*_ohmic_case(om, g, t), 1.0), [ref],
                                  id=f"ohmic-force-{i}"))
    drude = [("double-pole", (om, 0.0, wd, t, dom, dg0, dwd, ref))
             for om, wd, t, dom, dg0, dwd, ref
             in DRUDE_DOUBLE_POLE_REFERENCES]
    drude += [("drude-force", row) for row in DRUDE_FORCE_REFERENCES]
    for i, (name, (om, g0, wd, t, dom, dg0, dwd, ref)) in enumerate(drude):
        cases.append(pytest.param(force_sum_exact, (
            OscillatorParams(om, Drude(g0, wd), t),
            linear_model(om, dom, g0, dg0, wd, dwd), 1.0), [ref],
            id=f"{name}-{i}"))
    for i, (om1, om2, g0, wd, t, ref) in enumerate(DIFFERENCE_REFERENCES):
        cases.append(pytest.param(free_energy_difference, (
            OscillatorParams(om1, _damping(g0, wd), t),
            OscillatorParams(om2, _damping(g0, wd), t)), [ref],
            id=f"difference-{i}"))
    for i, (om1, om2, g0, wd, t, ref) in enumerate(
            CLOSE_DIFFERENCE_REFERENCES):
        cases.append(pytest.param(free_energy_difference, (
            OscillatorParams(om1, _damping(g0, wd), t),
            OscillatorParams(om2, _damping(g0, wd), t)), [ref],
            id=f"close-difference-{i}"))
    for i, (om, g0, wd, t, roots, ref) in enumerate(
            DRUDE_FREE_ENERGY_REFERENCES):
        cases.append(pytest.param(
            lambda p, roots=roots: free_energy_drude(p, roots=roots),
            (OscillatorParams(om, Drude(g0, wd), t),), [ref],
            id=f"drude-{roots}-{i}"))
    for i, (om, g0, wd, t, dom, dg0, dwd, refs) in enumerate(
            PER_PARAMETER_REFERENCES):
        cases.append(pytest.param(
            lambda *args: list(vars(per_parameter_sums_drude(*args))
                               .values()),
            (OscillatorParams(om, Drude(g0, wd), t),
             linear_model(om, dom, g0, dg0, wd, dwd), 1.0), list(refs),
            id=f"per-parameter-{i}"))
    return cases


@pytest.mark.parametrize("oracle, args, refs", _bound_cases())
def test_the_estimate_bounds_the_error(oracle, args, refs):
    got = oracle(*args)
    for res, ref in zip(got if isinstance(got, list) else [got], refs,
                        strict=True):
        assert abs(res.value - ref) <= res.truncation_estimate, (res, ref)


def test_drude_free_energy_where_the_divided_difference_overflowed():
    # P(s) at the pair |s| ~ 1.7e74 overflows unless P and the gaps are
    # scaled by a power of two near |N - s|
    p = OscillatorParams(1e-160, Drude(1e150, 0.3), 0.5)
    ref = DRUDE_FREE_ENERGY_REFERENCES[-1][-1]
    assert abs(free_energy_drude(p, roots="exact").value - ref) \
        <= 1e-13 * ref


def test_drude_oracles_where_the_cubic_overflowed():
    # the cubic's terms at its pair |s| ~ 1e125 overflow unless it is
    # solved in units of a power of two
    om, g0, wd, t = 1e-160, 1e150, 1e100, 1e100
    p = OscillatorParams(om, Drude(g0, wd), t)
    m = linear_model(om, 1.0, g0, 0.5, wd, 0.7)
    results = [force_sum_exact(p, m, 1.0), free_energy_drude(p, roots="exact"),
               free_energy_difference(p, OscillatorParams(2.0 * om,
                                                          p.damping, t))]
    assert all(math.isfinite(res.value)
               and math.isfinite(res.truncation_estimate) for res in results)


@pytest.mark.parametrize("om", [1e110, 1e150])
def test_ohmic_force_sum_where_p_overflows(om):
    # P = 2 Omega Omega' / (2 pi T)^2 overflows while the force, the
    # zero-point -Omega' / 2, is finite: the tail runs in units of 2^e
    p = OscillatorParams(om, Ohmic(0.0), 1e-101)
    m = linear_model(om, om)
    assert not math.isfinite(2.0 * om * om / (2.0 * math.pi * 1e-101) ** 2)
    res = force_sum_exact(p, m, 1.0)
    closed = forces.force_ohmic_exact(p, om).value
    assert closed == -0.5 * om
    assert 0.0 < res.truncation_estimate < 1e-12 * abs(closed)
    assert abs(res.value - closed) <= res.truncation_estimate


def test_a_pair_whose_scaled_gap_underflows_stays_a_pair():
    # at T = 1.4e239 the Drude pair lies 2e-323 off the real axis, in n,
    # and that gap over |N - c| underflows to 0; the quadrature still
    # takes the two poles as a pair, and the classical limit T log 2 holds
    om, g0, wd, t = (3.024989523206749e-139, 881940841616.116,
                     3.874031186254112e-178, 1.370734396705545e+239)
    p = OscillatorParams(om, Drude(g0, wd), t)
    res = free_energy_difference(p, OscillatorParams(2.0 * om, p.damping, t))
    assert abs(res.value - t * math.log(2.0)) <= 1e-12 * t


def test_drude_force_sum_with_nearly_coincident_roots():
    # the cubic (w + 1)^2 (w + 4) has omega_d = 6, Omega^2 = 2/3 and
    # gamma0 = 25/18; a gamma0 1e-13 smaller parts the double root into
    # two that agree to about 1e-6, relative
    om, wd, g0 = math.sqrt(2.0 / 3.0), 6.0, 25.0 / 18.0 * (1.0 - 1e-13)
    roots = sorted(np.roots([1.0, wd, om * om + g0 * wd, om * om * wd]),
                   key=abs)
    assert 1e-7 < abs(roots[0] - roots[1]) < 1e-5
    m = linear_model(om, 1.0, g0, 0.5, wd, 0.8)
    for t in (0.05, 0.5):
        direct = force_sum_exact(m.params_at(1.0, t), m, 1.0).value
        fd = finite_difference_force(
            lambda lam: free_energy_drude(m.params_at(lam, t),
                                          roots="exact").value, 1.0, h=1e-3)
        assert abs(fd.value - direct) <= 1e-11 * abs(direct)


def _oracle_calls(p, m, p2):
    """Each oracle at p (and p2 for the difference), as a call that
    returns its OracleResults."""
    calls = [lambda: [force_sum_exact(p, m, 1.0)],
             lambda: [free_energy_difference(p, p2)]]
    if isinstance(p.damping, Drude):
        def components():
            sums = per_parameter_sums_drude(p, m, 1.0)
            return [sums.f_omega, sums.f_gamma0, sums.f_omega_d_1,
                    sums.f_omega_d_2]
        calls += [components,
                  lambda: [free_energy_drude(p, roots="exact")],
                  lambda: [free_energy_drude(p, roots="approx")]]
    return calls


def test_oracles_at_one_two_and_three_terms():
    for damping, dg0 in ((Ohmic(0.3), 0.0), (Drude(0.3, 30.0), 0.4)):
        p = OscillatorParams(1.0, damping, 0.5)
        m = linear_model(1.0, 1.0, 0.3, dg0, 30.0, 0.6)
        p2 = OscillatorParams(1.7, damping, 0.5)
        best = [res for call in _oracle_calls(p, m, p2) for res in call()]
        recorded = [s for call in _oracle_calls(p, m, p2)
                    for s in oracle_sums(call)]
        for got, want in zip(recorded, best, strict=True):
            # sum_at is the oracle's own arithmetic, bit for bit
            assert sum_at(32, *got) == (want.value, want.truncation_estimate)
            for n in (1, 2, 3):
                value, estimate = sum_at(n, *got)
                assert abs(value - want.value) \
                    <= estimate + 1e-15 * abs(want.value)


# Every oracle returns a finite value and a finite estimate, or raises a
# library error, over the whole range of valid parameters.
_POSITIVE = st.floats(0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
# Omega and gamma0 are valid below 2**511
_RATE = st.floats(0.0, 2.0 ** 511, exclude_min=True, exclude_max=True)
_NON_NEGATIVE_RATE = st.floats(0.0, 2.0 ** 511, exclude_max=True)


@given(om=_RATE, om2=_RATE, g0=_NON_NEGATIVE_RATE, wd=_POSITIVE,
       t=_POSITIVE, dom=_REAL, dg0=_REAL, dwd=_REAL)
@example(om=1.0, om2=1.0, g0=0.0, wd=1.0, t=8.98846567431158e+307, dom=1.0,
         dg0=0.0, dwd=0.0)
@settings(max_examples=300, deadline=None)
def test_oracles_are_finite_or_raise(om, om2, g0, wd, t, dom, dg0, dwd):
    for damping, dg in ((Ohmic(g0), 0.0), (Drude(g0, wd), dg0)):
        p = OscillatorParams(om, damping, t)
        m = ParametricModel(lambda lam: om, lambda lam: dom, lambda lam: g0,
                            lambda lam: dg, lambda lam: wd, lambda lam: dwd)
        for call in _oracle_calls(p, m, OscillatorParams(om2, damping, t)):
            try:
                results = call()
            except (DomainError, PreconditionError):
                continue
            for res in results:
                assert math.isfinite(res.value), (damping, res)
                assert math.isfinite(res.truncation_estimate), (damping, res)


def test_a_sum_next_to_overflow_is_returned():
    # the sum is formed without its prefactor, and the estimate as a
    # multiple of |prefactor|, so a value of -2**1023 and its estimate
    # are both finite
    p = OscillatorParams(1.0, Ohmic(0.0), 2.0 ** 1023)
    res = force_sum_exact(p, linear_model(1.0, 1.0), 1.0)
    assert res.value == -2.0 ** 1023
    assert 0.0 < res.truncation_estimate <= 1e-14 * 2.0 ** 1023


def _force_cases():
    return [(OscillatorParams(OM, Ohmic(G0), T), linear_model(OM, DOM, G0)),
            (OscillatorParams(OM, Drude(G0, WD), T),
             linear_model(OM, DOM, G0, DG0, WD, DWD))]


def test_concurrent_oracle_calls_match_serial():
    # more threads than cores, each alternating the Ohmic and the Drude
    # oracle, so that state shared between calls would mix their values
    # or estimates; and each running rows on one shared series and one
    # shared parallel loop model, at lambdas in its own order, so that a
    # loop model's cache of one lambda would leak into a row at another
    cases = _force_cases()
    spec = SumSpec(n_max=300_000)
    series = circuits.SeriesRLC.of((0.6, 1.0), (1.5, 1.0), (0.8, -0.5))
    parallel = circuits.ParallelRLC.of(2.0, (1.2, 1.5), 0.4)
    loops = [(series, circuits.map_series, circuits.map_series(series)),
             (parallel, circuits.map_parallel,
              circuits.map_parallel(parallel))]
    lams = (0.7, 1.3, 2.1, 0.9)

    def rows(k, fresh=False):
        out = []
        for i in range(len(lams)):
            lam = lams[(i + k) % len(lams)]
            for loop, mapper, shared in loops:
                model = mapper(loop) if fresh else shared
                res = circuits.point_force(loop, model, "exact",
                                           "reduced")(T, lam)[0]
                oracle = force_sum_exact(model.params_at(lam, T), model,
                                         lam, spec)
                out.append((lam, res.value.hex(), oracle.value.hex(),
                            oracle.truncation_estimate.hex()))
        return out

    def results(k):
        return [(res.value.hex(), res.truncation_estimate.hex())
                for res in (force_sum_exact(*cases[j], 1.0, spec)
                            for j in orders[k])] + rows(k)

    orders = [(0, 1, 0, 1), (1, 0, 1, 0)] * 2
    serial = [results(k) for k in range(len(orders))]
    # a model built for each row has nothing to share
    assert [got[-len(lams) * len(loops):] for got in serial] \
        == [rows(k, fresh=True) for k in range(len(orders))]
    got = [None] * len(orders)
    barrier = threading.Barrier(len(orders))

    def worker(k):
        barrier.wait(timeout=30)
        got[k] = results(k)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == serial


def counted_tails(monkeypatch) -> list:
    """The n of each _with_tail call from now on."""
    calls = []
    with_tail = matsubara._with_tail

    def counted(terms, n, *args):
        calls.append(n)
        return with_tail(terms, n, *args)

    monkeypatch.setattr(matsubara, "_with_tail", counted)
    return calls


def test_each_oracle_part_takes_one_tail(monkeypatch):
    # the estimate is formed at the call from the value's own sum, so a
    # result takes one Euler-Maclaurin tail whether or not its estimate
    # is read; f_gamma0 and f_omega_d_1 share one sum, w / cubic
    calls = counted_tails(monkeypatch)
    for p, m in _force_cases():
        p2 = OscillatorParams(OM2, p.damping, T)
        for call in _oracle_calls(p, m, p2):
            calls.clear()
            results = call()
            sums = 3 if len(results) == 4 else 1    # the shared w / cubic
            assert calls == [32] * sums, call
            assert all(math.isfinite(res.truncation_estimate)
                       for res in results)
            assert calls == [32] * sums, call


def test_oracle_call_allocates_no_arrays():
    # an oracle call allocates only small Python objects, whatever n_max
    # asks for: it sums 32 terms and adds the tail
    spec = SumSpec(n_max=1_000_000)
    for p, m in _force_cases():
        force_sum_exact(p, m, 1.0, spec)
        tracemalloc.start()
        try:
            assert force_sum_exact(p, m, 1.0, spec).n_used == 32
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# Roots of the Drude cubic w^3 + omega_d w^2 + (Omega^2 + gamma0 omega_d) w
# + Omega^2 omega_d, with the float coefficients _cubic_poles forms:
# (Omega, gamma0, omega_d, roots), from mpmath 1.3.0 polyroots at 40
# digits.  They include the two sets where the closed forms' solver
# loses the small pair (Omega, gamma0, omega_d) = (1, 0.1, 1e12) and
# (0.01, 1, 1e8), three real roots, and Omega^2 omega_d underflowing to 0
# (an exact 0 root) or to a subnormal (roots from the exact factors
# (w + 1) (w^2 + Omega^2) at 40 digits).
CUBIC_ROOTS = (
    (1.0, 0.1, 1000000000000.0,
     ((-999999999999.9+0j), (-0.050000000000005-0.9987492177719588j),
      (-0.050000000000005+0.9987492177719588j))),
    (0.01, 1.0, 100000000.0,
     ((-99999998.99999999+0j), (-0.9998999999979998+0j),
      (-0.0001000100020004001+0j))),
    (1.0, 3.0, 100000000.0,
     ((-99999996.99999991+0j), (-2.6180340807073277+0j),
      (-0.38196600929267766+0j))),
    (1.0, 0.3, 30.0,
     ((-29.697285237348616+0j), (-0.15135738132569168-0.9936218048653176j),
      (-0.15135738132569168+0.9936218048653176j))),
    (1.0, 0.3, 3000.0,
     ((-2999.699970027345+0j), (-0.15001498632741622+0.9887343039821511j),
      (-0.15001498632741622-0.9887343039821511j))),
    (1.0, 0.0, 10.0,
     ((-10+0j), 1j, (-0-1j))),
    (1.0, 0.3, 0.001,
     ((-0.0009997000902726481+0j),
      (-1.499548636759494e-07+1.0001499886017886j),
      (-1.499548636759494e-07-1.0001499886017886j))),
    (2.0, 5.0, 0.5,
     ((-0.31050304725906275+0j), (-0.09474847637046861-2.536174943680563j),
      (-0.09474847637046861+2.536174943680563j))),
    (1.0, 10.0, 3.0,
     ((-0.09766725945533472+0j), (-1.4511663702723328-5.348892715412615j),
      (-1.4511663702723328+5.348892715412615j))),
    (1.0, 2.0, 10.0,
     ((-7.3166247903554+0j), (-2+0j), (-0.6833752096446002+0j))),
    (1.0, 8.0, 10.0,
     ((-0.12537300292450498+0j), (-4.937313498537748+7.44210479486645j),
      (-4.937313498537748-7.44210479486645j))),
    (1000.0, 0.1, 10000.0,
     ((-9999.900989138107+0j), (-0.04950543094645022+1000.004949354469j),
      (-0.04950543094645022-1000.004949354469j))),
    (0.5, 4.0, 5.0,
     ((-0.06268650146225249+0j), (-2.468656749268874+3.721052397433225j),
      (-2.468656749268874-3.721052397433225j))),
    (3.0, 9.0, 30.0,
     ((-1.0910959587039293+0j), (-14.454452020648036-6.206966119833916j),
      (-14.454452020648036+6.206966119833916j))),
    (0.2, 200.0, 2000.0,
     ((-1774.5966725210392+0j), (-225.40312747878076+0j),
      (-0.00020000018000032206+0j))),
    (10.0, 0.5, 20.0,
     ((-19.595115939181078+0j), (-0.20244203040946182+10.100755769280358j),
      (-0.20244203040946182-10.100755769280358j))),
    (1e-170, 0.3, 2.0,
     (0j, (-1.632455532033676+0j), (-0.3675444679663241+0j))),
    (1e-162, 0.0, 100000000.0,
     (0j, (-100000000+0j), 0j)),
    (1e-155, 0.0, 1.0,
     ((-1+0j), 9.999999999999986e-156j, (-0-9.999999999999986e-156j))),
)


@pytest.mark.parametrize("om, g0, wd, roots", CUBIC_ROOTS)
def test_cubic_poles_match_frozen_roots(om, g0, wd, roots):
    want = list(roots)
    for z in matsubara._cubic_poles(om, g0, wd, 1.0)[0]:
        assert type(z) is complex
        ref = min(want, key=lambda r: abs(r - z))
        want.remove(ref)
        assert z == ref if ref == 0 else abs(z - ref) <= 1e-13 * abs(ref), \
            (z, ref)


def test_cubic_poles_satisfy_vieta():
    # sum, pairwise sum and product of the roots in w = a n match the
    # cubic's coefficients to a few ulps of their terms, over the Vieta
    # battery's range and omega_d / Omega up to 1e12
    rng = np.random.default_rng(20261018)
    count = 1500
    om = rng.uniform(0.1, 10.0, 2 * count)
    ratio = np.exp(np.concatenate([rng.uniform(0.0, math.log(1e4), count),
                                   rng.uniform(0.0, math.log(1e12), count)]))
    g0 = om * rng.uniform(0.0, 10.0, 2 * count)
    a = 2.0 * math.pi * np.exp(rng.uniform(math.log(0.01), math.log(100.0),
                                           2 * count))
    for om, g0, wd, a in zip(om.tolist(), g0.tolist(), (om * ratio).tolist(),
                             a.tolist()):
        x, y, z = [r * a for r in matsubara._cubic_poles(om, g0, wd, a)[0]]
        assert abs(x + y + z + wd) \
            <= 4e-15 * (abs(x) + abs(y) + abs(z)), (om, g0, wd, a)
        assert abs(x * y + x * z + y * z - (om * om + g0 * wd)) \
            <= 4e-15 * (abs(x * y) + abs(x * z) + abs(y * z)), (om, g0, wd, a)
        assert abs(x * y * z + om * om * wd) <= 4e-15 * abs(x * y * z), \
            (om, g0, wd, a)


def test_non_finite_cubic_coefficients_raise_domain_error():
    # Omega^2 omega_d overflows: every Drude oracle raises DomainError,
    # and the root finder's loops are bounded, so it does so at once
    damping = Drude(0.3, 1e300)
    p = OscillatorParams(1e150, damping, 1.0)
    m = linear_model(1e150, 1.0, 0.3, 0.0, 1e300, 0.0)
    calls = [lambda: force_sum_exact(p, m, 1.0),
             lambda: free_energy_difference(
                 p, OscillatorParams(1.0, damping, 1.0)),
             lambda: free_energy_drude(p, roots="exact"),
             lambda: per_parameter_sums_drude(p, m, 1.0)]
    with pytest.raises(DomainError, match="coefficient of the Drude cubic"):
        matsubara._cubic_poles(1e150, 0.3, 1e300, 1.0)
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(DomainError):
            call()
        assert time.perf_counter() - start < 1.0


# -- the written-out tail of two poles -----------------------------------------
#
# _taylor writes its loops out for two poles with a constant P (the Ohmic
# force), and _divided_difference skips the zero [r0, r1] P of a constant
# P over two poles.  Each must give the bits of the loops and of Leibniz's
# rule in full, kept here as the plain implementation they replaced; the
# other cases (a non-constant P, four poles) run the loops themselves.

def _plain_taylor(p, poles, n):
    q = [1.0]
    for r in poles:
        x = n - r
        prev = 0.0
        for i, a in enumerate(q):
            q[i] = x * a + prev
            prev = a
        q.append(x * 0.0 + prev)
    inv = 1.0 / q[0].real
    q = [-x.real * inv for x in q[1:]]
    c = [x * inv for x in matsubara._shift(p, n)] + [0.0] * (8 - len(p))
    for i in range(1, 8):
        s = c[i]
        j = i
        for x in q[:i]:
            j -= 1
            s += x * c[j]
        c[i] = s
    return c


def _plain_leibniz(p, poles, n):
    r0, r1 = poles
    ps = matsubara._shift(p, r0)
    terms = [x * (r1 - r0) ** j for j, x in enumerate(ps[1:])]
    dp = functools.reduce(operator.add, terms, 0)     # a left fold
    scale = matsubara._scale(poles, n)
    x = ps[0] * matsubara._slope(r0, r1, n)
    y = dp * cmath.log((n - r1) / scale)
    return x + y, abs(x) + abs(y)


def _plain_tail(p, poles, n):
    c = _plain_taylor(p, poles, n)
    if len(poles) == 2:
        dd, mass = _plain_leibniz(p, poles, n)
    else:
        dd, mass = matsubara._divided_difference(p, poles, n)
    return (-dd.real, [b * x for b, x in zip(matsubara._CORRECTION, c[1::2])],
            matsubara._ROUND_TAIL * mass)


def _hexes(values):
    return [(z.real.hex(), z.imag.hex()) if isinstance(z, complex)
            else z.hex() for z in values]


def _random_pole_cases(count, seed):
    """(P, poles, n): Ohmic pairs under-, over- and critically damped,
    Ohmic difference and Drude force quadruples, T from 1e-9 to 1e3."""
    rng = random.Random(seed)
    for i in range(count):
        om = 10.0 ** rng.uniform(-3.0, 3.0)
        kind = i % 4
        if kind == 0:
            g = om * 10.0 ** rng.uniform(-4.0, 0.3)     # under, some over
        elif kind == 1:
            g = om * 10.0 ** rng.uniform(0.3, 4.0)      # over
        elif kind == 2:                                 # at and near critical
            g = 2.0 * om * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-6,
                                              -1e-6]))
        else:
            g = om * 10.0 ** rng.uniform(-4.0, 4.0)
        a = 2.0 * math.pi * 10.0 ** rng.uniform(-9.0, 3.0)
        n = rng.choice([1, 2, 3, 16, 32])
        p = [rng.choice([1.0, -1.0, 0.0]) * 10.0 ** rng.uniform(-5.0, 5.0)]
        poles = matsubara._pair_poles(g, om, a)
        yield p, poles, n
        yield p + [rng.uniform(-2.0, 2.0) for _ in range(1 + i % 3)], \
            poles, n
        if i % 10 == 0:
            om2 = om * rng.uniform(1.01, 3.0)
            yield ([rng.uniform(-2.0, 2.0), 2.0],
                   matsubara._pair_poles(g, om2, a) + poles, n)
            wd = om * 10.0 ** rng.uniform(0.0, 4.0)
            cubic, _ = matsubara._cubic_poles(om, g, wd, a)
            yield ([rng.uniform(0.5, 2.0) for _ in range(3)],
                   cubic + [-wd / a], n)


def test_written_out_tail_keeps_the_bits_of_the_loops():
    cases = 0
    for p, poles, n in _random_pole_cases(10_000, 2024):
        got = matsubara._tail(p, poles)(n, 0.0)
        want = _plain_tail(p, poles, n)
        assert _hexes([got[0], *got[1], got[2]]) \
            == _hexes([want[0], *want[1], want[2]]), (p, poles, n)
        if len(poles) == 2:     # the tail reads the real part only
            got_dd, got_mass = matsubara._divided_difference(p, poles, n)
            want_dd, want_mass = _plain_leibniz(p, poles, n)
            assert _hexes([got_dd.real, got_mass]) \
                == _hexes([want_dd.real, want_mass]), (p, poles, n)
        cases += 1
    assert cases >= 20_000
