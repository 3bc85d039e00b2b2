"""Eigenfrequency solvers, parametric models, damping evaluation."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctforce.errors import DomainError, PreconditionError
from fluctforce.forces import force_drude_full
from fluctforce.oscillator import (Drude, Ohmic, OscillatorParams,
                                   ParametricModel, _ordered,
                                   damping_at_matsubara,
                                   eigenfrequencies_drude_approx,
                                   eigenfrequencies_drude_exact,
                                   eigenfrequencies_ohmic, power_law,
                                   power_law_model,
                                   solve_cubic, WARN_CUBIC_RESIDUAL,
                                   WARN_DRUDE_APPROX)


def i_omegas(eig):
    return sorted(((1j * w).real, (1j * w).imag) for w in eig.as_tuple())


def test_ohmic_undamped():
    p = OscillatorParams(1.0, Ohmic(0.0), 1.0)
    eig = eigenfrequencies_ohmic(p)
    vals = sorted(eig.as_tuple(), key=lambda w: w.real)
    assert vals[0] == pytest.approx(-1.0)
    assert vals[1] == pytest.approx(1.0)


def test_ohmic_critical_damping_double_root():
    p = OscillatorParams(1.0, Ohmic(2.0), 1.0)
    eig = eigenfrequencies_ohmic(p)
    assert 1j * eig.omega1 == pytest.approx(1.0)
    assert 1j * eig.omega2 == pytest.approx(1.0)


def test_ohmic_overdamped_vs_quadratic_oracle():
    # direct solve of w^2 + i g w - 1 = 0 by the quadratic formula
    g = 4.0
    disc = cmath.sqrt((1j * g) ** 2 + 4.0)
    oracle = sorted([(-1j * g + disc) / 2.0, (-1j * g - disc) / 2.0],
                    key=lambda w: (1j * w).real)
    p = OscillatorParams(1.0, Ohmic(g), 1.0)
    eig = eigenfrequencies_ohmic(p)
    got = sorted(eig.as_tuple(), key=lambda w: (1j * w).real)
    for a, b in zip(got, oracle):
        assert abs(a - b) < 1e-14 * abs(b)
    # i w = 2 +- sqrt(3), both real
    assert (1j * got[0]).real == pytest.approx(2.0 - math.sqrt(3.0))
    assert (1j * got[1]).real == pytest.approx(2.0 + math.sqrt(3.0))
    assert abs((1j * got[0]).imag) < 1e-15


def test_ohmic_branch_continuity():
    om = 1.0
    ref = eigenfrequencies_ohmic(OscillatorParams(om, Ohmic(2.0 * om), 1.0))
    for eps in (1e-8, -1e-8):
        eig = eigenfrequencies_ohmic(
            OscillatorParams(om, Ohmic(2.0 * om * (1.0 + eps)), 1.0))
        assert abs(eig.omega1 - ref.omega1) <= 1e-3 * om


def test_solve_cubic_known_roots():
    # (s+1)(s+2)(s+3)
    roots = sorted(r.real for r in solve_cubic(6.0, 11.0, 6.0))
    assert np.allclose(roots, [-3.0, -2.0, -1.0], rtol=1e-14)


def test_drude_exact_decoupled_limit():
    p = OscillatorParams(1.0, Drude(0.0, 50.0), 1.0)
    eig = eigenfrequencies_drude_exact(p)
    assert eig.omega3 == -50.0j
    assert {eig.omega1, eig.omega2} == {1.0 + 0j, -1.0 + 0j}


def test_drude_exact_vieta_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        om = float(rng.uniform(0.1, 10.0))
        wd = om * float(np.exp(rng.uniform(0.0, math.log(1e4))))
        g0 = om * float(rng.uniform(0.0, 10.0))
        p = OscillatorParams(om, Drude(g0, wd), 1.0)
        w1, w2, w3 = eigenfrequencies_drude_exact(p).as_tuple()
        b = om * om + g0 * wd
        assert abs(w1 + w2 + w3 + 1j * wd) <= 1e-12 * wd
        assert abs(w1 * w2 + w1 * w3 + w2 * w3 + b) <= 1e-12 * b
        assert abs(w1 * w2 * w3 - 1j * om * om * wd) <= 1e-12 * om * om * wd
        for w in (w1, w2, w3):
            res = abs(w ** 3 + 1j * wd * w * w - b * w - 1j * om * om * wd)
            assert res <= 1e-10 * wd ** 3


def test_drude_exact_vs_approx_small_parameter():
    p = OscillatorParams(1.0, Drude(0.2, 100.0), 1.0)
    exact = eigenfrequencies_drude_exact(p)
    approx = eigenfrequencies_drude_approx(p)
    # second-order accuracy: |delta| = O(max(Omega, gamma0)^2 / omega_d)
    bound = 3.0 * max(1.0, 0.2) ** 2 / 100.0
    for we, wa in zip(exact.as_tuple(), approx.as_tuple()):
        assert abs(we - wa) <= bound


def test_drude_approx_error_scales_inversely_with_cutoff():
    errs = []
    for wd in (10.0, 100.0, 1000.0):
        p = OscillatorParams(1.0, Drude(0.3, wd), 1.0)
        exact = eigenfrequencies_drude_exact(p)
        approx = eigenfrequencies_drude_approx(p)
        errs.append(abs(exact.omega1 - approx.omega1))
    cs = [e * wd for e, wd in zip(errs, (10.0, 100.0, 1000.0))]
    assert max(cs) <= 5.0            # fitted C stays O(1)
    assert errs[2] < errs[1] < errs[0]


def test_drude_approx_third_root_and_sum_rule():
    p = OscillatorParams(1.0, Drude(0.5, 200.0), 1.0)
    eig = eigenfrequencies_drude_approx(p)
    assert 1j * eig.omega3 == pytest.approx(199.5)
    total = eig.omega1 + eig.omega2 + eig.omega3
    assert total == -200.0j          # exact, not approximate


def test_drude_approx_regime_warning():
    ok = eigenfrequencies_drude_approx(OscillatorParams(1.0, Drude(0.5, 50.0), 1.0))
    assert ok.warnings == ()
    flagged = eigenfrequencies_drude_approx(
        OscillatorParams(1.0, Drude(0.5, 5.0), 1.0))
    assert WARN_DRUDE_APPROX in flagged.warnings


def test_damped_modes_have_positive_damping_rate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        om = float(rng.uniform(0.1, 5.0))
        wd = om * float(rng.uniform(1.0, 1e3))
        g0 = om * float(rng.uniform(0.01, 5.0))
        eig = eigenfrequencies_drude_exact(OscillatorParams(om, Drude(g0, wd), 1.0))
        for w in eig.as_tuple():
            assert (1j * w).real > 0.0


def test_damping_at_matsubara():
    p_ohmic = OscillatorParams(1.0, Ohmic(0.7), 1.0)
    assert damping_at_matsubara(p_ohmic, 13.0) == 0.7
    p_drude = OscillatorParams(1.0, Drude(0.7, 40.0), 1.0)
    assert damping_at_matsubara(p_drude, 0.0) == pytest.approx(0.7)
    assert damping_at_matsubara(p_drude, 40.0) == pytest.approx(0.35)
    with pytest.raises(PreconditionError):
        damping_at_matsubara(p_drude, -1.0)


def test_parametric_model_derivatives_match_finite_differences():
    m = power_law_model(omega0=(2.0, 0.5), gamma0=(0.3, 1.0),
                        omega_d=(50.0, -1.0))
    for lam in (0.5, 1.0, 2.0):
        h = 1e-6 * lam
        for val, der in ((m.omega, m.d_omega), (m.gamma0, m.d_gamma0),
                         (m.omega_d, m.d_omega_d)):
            fd = (val(lam + h) - val(lam - h)) / (2.0 * h)
            assert abs(der(lam) - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_params_at_builds_matching_damping():
    m = power_law_model(omega0=(1.0, 0.0), gamma0=(0.2, 0.0))
    p = m.params_at(1.0, 0.5)
    assert isinstance(p.damping, Ohmic)
    m2 = power_law_model(omega0=(1.0, 0.0), gamma0=(0.2, 0.0),
                         omega_d=(30.0, 0.0))
    p2 = m2.params_at(1.0, 0.5)
    assert isinstance(p2.damping, Drude)
    assert p2.damping.omega_d == 30.0


@pytest.mark.parametrize("dropped", ["omega_d", "d_omega_d"])
def test_parametric_model_takes_omega_d_with_its_derivative(dropped):
    # omega_d = 30 lambda without d_omega_d once read domega_d/dlambda as
    # 0, and the Drude force as -0.0 where it is -0.04555
    laws = dict(omega=lambda lam: 1.0, d_omega=lambda lam: 0.0,
                gamma0=lambda lam: 0.3, d_gamma0=lambda lam: 0.0,
                omega_d=lambda lam: 30.0 * lam, d_omega_d=lambda lam: 30.0)
    with pytest.raises(DomainError, match="omega_d and d_omega_d"):
        ParametricModel(**{k: v for k, v in laws.items() if k != dropped})
    m = ParametricModel(**laws)
    assert m.derivatives_at(1.0) == (0.0, 0.0, 30.0)
    assert force_drude_full(m.params_at(1.0, 0.5), m, 1.0).value \
        == pytest.approx(-0.04555, rel=1e-3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        OscillatorParams(-1.0, Ohmic(0.1), 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, Ohmic(-0.1), 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, Drude(0.1, -5.0), 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, Ohmic(0.1), -1.0)
    with pytest.raises(PreconditionError):
        eigenfrequencies_ohmic(OscillatorParams(1.0, Drude(0.1, 5.0), 1.0))
    with pytest.raises(PreconditionError):
        eigenfrequencies_drude_exact(OscillatorParams(1.0, Ohmic(0.1), 1.0))


def _ordered_by_sorting(omegas):
    """The root order as two stable sorts: the reference for _ordered."""
    by_mag = sorted(omegas, key=abs)
    pair = sorted(by_mag[:2], key=lambda w: (-(1j * w).imag, (1j * w).real))
    return pair[0], pair[1], by_mag[2]


def _same_roots(got, want):
    return [repr(w) for w in got] == [repr(w) for w in want]


def test_ordered_matches_sorting_on_the_vieta_battery():
    from fluctforce import validation
    om, wd, g0 = validation._vieta_grid(
        10_000, np.random.default_rng(validation._SEED + 3))
    for o, d, g in zip(om.tolist(), wd.tolist(), g0.tolist()):
        omegas = [1j * s for s in solve_cubic(d, o * o + g * d, o * o * d)]
        for perm in itertools.permutations(omegas):
            assert _same_roots(_ordered(list(perm)),
                               _ordered_by_sorting(list(perm)))


@pytest.mark.parametrize("omegas", [
    [1.0 - 0.5j, -1.0 - 0.5j, -30.0j],      # conjugate pair, equal |w|
    [-0.2j, -0.7j, -40.0j],                  # overdamped real pair
    [1.5 + 0j, -1.5 + 0j, -50.0j],           # gamma0 = 0, decoupled
    [1.0 + 0j, -1.0 + 0j, 1.0j],             # three equal magnitudes
    [1.0j, -1.0j, 1.0 + 0j],
    [2.0 + 0j, 2.0 + 0j, 2.0 + 0j],          # identical roots
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0)],
    [-0.5j, -0.5j, -9.0j],                   # exact double root
    [3.0 - 4.0j, 4.0 - 3.0j, -5.0j],         # equal |w|, distinct parts
    [1.0 - 1.0j, 1.0 - 2.0j, -3.0j],         # equal Re(w), tie on Im
])
def test_ordered_matches_sorting_on_ties(omegas):
    for perm in itertools.permutations(omegas):
        assert _same_roots(_ordered(list(perm)),
                           _ordered_by_sorting(list(perm)))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NON_NEGATIVE = st.floats(0.0, allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
# Omega and gamma0 are valid below 2**511
_RATE = st.floats(0.0, 2.0 ** 511, exclude_min=True, exclude_max=True)
_NON_NEGATIVE_RATE = st.floats(0.0, 2.0 ** 511, exclude_max=True)


@given(_NON_FINITE, _POSITIVE)
@settings(max_examples=60, deadline=None)
def test_damping_rejects_non_finite_fields(bad, good):
    with pytest.raises(DomainError):
        Ohmic(bad)
    with pytest.raises(DomainError):
        Drude(bad, good)
    with pytest.raises(DomainError):
        Drude(good, bad)


@given(_NON_FINITE, _POSITIVE, _NON_NEGATIVE_RATE)
@settings(max_examples=60, deadline=None)
def test_params_reject_non_finite_fields(bad, positive, non_negative):
    damping = Ohmic(non_negative)
    with pytest.raises(DomainError):
        OscillatorParams(bad, damping, non_negative)
    with pytest.raises(DomainError):
        OscillatorParams(positive, damping, bad)


@given(_RATE, _NON_NEGATIVE_RATE, _POSITIVE, _NON_NEGATIVE)
@settings(max_examples=200, deadline=None)
def test_constructors_accept_finite_in_domain_values(omega0, gamma0, omega_d,
                                                     temperature):
    for damping in (Ohmic(gamma0), Drude(gamma0, omega_d)):
        p = OscillatorParams(omega0, damping, temperature)
        assert (p.omega0, p.temperature) == (omega0, temperature)


def test_rates_from_two_to_the_511_raise():
    # Omega^2 or gamma0^2/4 would overflow: eigenfrequencies_ohmic gave
    # NaN at Omega = 1e200, force_ohmic_exact -8.05e158 at 1e160
    for rate in (2.0 ** 511, 1e160, 1e200):
        for make in (lambda: OscillatorParams(rate, Ohmic(0.3), 1.0),
                     lambda: Ohmic(rate), lambda: Drude(rate, 1.0)):
            with pytest.raises(DomainError):
                make()
    below = math.nextafter(2.0 ** 511, 0.0)
    p = OscillatorParams(below, Ohmic(below), 1.0)
    assert all(cmath.isfinite(w)
               for w in eigenfrequencies_ohmic(p).as_tuple())


def test_domain_errors_are_value_errors():
    # CLI exit code 3 and existing `except ValueError` callers rely on it
    with pytest.raises(ValueError):
        OscillatorParams(1.0, Ohmic(0.1), math.inf)
    with pytest.raises(DomainError, match="temperature"):
        OscillatorParams(1.0, Ohmic(0.1), math.nan)


@pytest.mark.parametrize("law, lam, which", [
    ((1e300, 0.5), 1e-300, "derivative"),   # 0.5e300 * 1e150 overflows
    ((1.0, 2.0), 1e200, "value"),           # lam**2 raises OverflowError
    ((1.0, -0.5), 0.0, "value"),            # 0.0 ** -0.5 is infinite
    ((1e308, 2.0), 1.0, "derivative"),      # coeff * exponent overflows
    ((1.0, 0.5), -1.0, "value"),            # complex: (-1.0) ** 0.5
    ((1.0, 0.5), -1.0, "derivative"),
    ((10**400, 0.5), 1.0, "value"),         # an int beyond the float range
    ((10**400, 0.5), 1.0, "derivative"),
])
def test_power_law_raises_where_not_finite(law, lam, which):
    value, derivative = power_law(*law)
    fn = value if which == "value" else derivative
    with pytest.raises(DomainError, match="not a finite real number"):
        fn(lam)


def test_power_law_overflow_stops_the_model():
    m = power_law_model(omega0=(1e300, 0.5), gamma0=(0.3, 0.0))
    assert m.params_at(1e-300, 0.5).omega0 == 1e150   # the value is finite
    with pytest.raises(DomainError):
        m.d_omega(1e-300)
    m2 = power_law_model(omega0=(1.0, 2.0), gamma0=(0.3, 0.0))
    with pytest.raises(DomainError):
        m2.params_at(1e200, 0.5)


def test_power_law_finite_values_unchanged():
    value, derivative = power_law(1.7, -0.5)
    for lam in (1e-100, 0.3, 1.0, 2.5, 1e300):
        assert value(lam) == 1.7 * lam ** -0.5
        assert derivative(lam) == 1.7 * -0.5 * lam ** -1.5
    assert power_law(2.0, 0.0)[1](1e300) == 0.0
    # integral powers of a negative lambda are real
    assert power_law(2.0, 2.0)[0](-3.0) == 18.0
    assert power_law(2.0, 3.0)[1](-1.5) == 2.0 * 3.0 * (-1.5) ** 2.0


def test_int_coeff_with_exponent_zero_has_derivative_zero():
    # an int coeff skips the constant law's shortcut, not its derivative
    value, derivative = power_law(3, 0.0)
    assert value(0.0) == 3.0 and derivative(0.0) == 0.0


# (Omega, gamma0, omega_d) and the three Drude eigenfrequencies, from the
# cubic's roots by mpmath.polyroots at 80 digits (frozen here: the test
# environment need not have mpmath), in order of magnitude.  The solver
# is accurate on the first group and not on the second.
_ACCURATE = [
    ((1.0, 1.0, 1e3), ((-0.8663147540053021 - 0.5005005004999975j),
                       (0.8663147540053021 - 0.5005005004999975j),
                       -998.998998999j)),
    ((1.0, 0.5, 1e6), ((-0.9682460624761388 - 0.250000124999875j),
                       (0.9682460624761388 - 0.250000124999875j),
                       -999999.49999975j)),
    ((3.17, 97.1, 5.55e11), (-0.10360075299711319j, -96.99639926399101j,
                             -554999999902.9j)),
    ((0.0796, 0.00252, 4.33e9), (
        (-0.07959002701346247 - 0.0012600000000007334j),
        (0.07959002701346247 - 0.0012600000000007334j),
        -4329999999.99748j)),
    ((0.0105, 0.134, 1.25e9), (-0.0008278759597360857j,
                               -0.13317212405462872j, -1249999999.866j)),
    ((0.744, 0.0244, 45300.0), (
        (-0.7439001666836098 - 0.012200006568018642j),
        (0.7439001666836098 - 0.012200006568018642j),
        -45299.975599986865j)),
]
_INACCURATE = [
    ((1.0, 1.0, 1e50), ((-0.8660254037844386 - 0.5j),
                        (0.8660254037844386 - 0.5j), -1e50j)),
    ((1.0, 0.1, 1e12), ((-0.9987492177719588 - 0.050000000000005006j),
                        (0.9987492177719588 - 0.050000000000005006j),
                        -999999999999.9j)),
    ((1.0, 3.0, 1e8), (-0.38196600929267766j, -2.6180340807073277j,
                       -99999996.99999991j)),
    ((0.01, 1.0, 1e8), (-0.0001000100020004001j, -0.9998999999979998j,
                        -99999998.99999999j)),
    ((1.64, 156.0, 1.32e12), (-0.017242931530049452j, -155.9827570869063j,
                              -1319999999844j)),
    ((0.301, 0.000314, 6.01e9), (
        (-0.30099995905482235 - 0.0001570000000000082j),
        (0.30099995905482235 - 0.0001570000000000082j),
        -6009999999.999686j)),
    ((0.0415, 0.000904, 2.64e9), (
        (-0.04149753843302744 - 0.00045200000000015475j),
        (0.04149753843302744 - 0.00045200000000015475j),
        -2639999999.999096j)),
    ((0.196, 0.0011, 2.86e9), (
        (-0.1959992283148451 - 0.0005500000000002116j),
        (0.1959992283148451 - 0.0005500000000002116j),
        -2859999999.9989j)),
]


def _worst_root_error(params, want):
    eig = eigenfrequencies_drude_exact(
        OscillatorParams(params[0], Drude(*params[1:]), 1.0))
    return eig, max(min(abs(w - r) / abs(r) for r in want)
                    for w in eig.as_tuple())


@pytest.mark.parametrize("params, want", _ACCURATE)
def test_drude_exact_accurate_roots_carry_no_warning(params, want):
    eig, worst = _worst_root_error(params, want)
    assert eig.warnings == () and worst <= 1e-12


@pytest.mark.parametrize("params, want", _INACCURATE)
def test_drude_exact_inaccurate_roots_carry_the_cubic_residual_warning(
        params, want):
    eig, worst = _worst_root_error(params, want)
    assert eig.warnings == (WARN_CUBIC_RESIDUAL,) and worst > 1e-9


@pytest.mark.parametrize("omega_d", [1e52, 1e100, 1e300])
def test_drude_exact_non_finite_roots_raise(omega_d):
    with pytest.raises(DomainError, match="not finite"):
        eigenfrequencies_drude_exact(
            OscillatorParams(1.0, Drude(1.0, omega_d), 1.0))


def test_drude_exact_roots_unmoved_by_the_check():
    # the roots are still the solver's own, ordered, bit for bit, and the
    # Vieta battery's whole range stays free of the warning
    from fluctforce import validation
    om, wd, g0 = validation._vieta_grid(
        10_000, np.random.default_rng(validation._SEED + 3))
    grid = list(zip(om.tolist(), g0.tolist(), wd.tolist()))
    for i, (o, g, d) in enumerate(
            grid + [p for p, _ in _ACCURATE + _INACCURATE]):
        eig = eigenfrequencies_drude_exact(OscillatorParams(o, Drude(g, d),
                                                            1.0))
        omegas = [1j * s for s in solve_cubic(d, o * o + g * d, o * o * d)]
        assert _same_roots(eig.as_tuple(), _ordered(omegas))
        assert i >= len(grid) or eig.warnings == ()


def _oscillator_calls(x):
    drude, ohmic = Drude(0.3, 30.0), Ohmic(0.3)
    model = power_law_model((1.0, 0.5), (0.3, 0.0), (30.0, 0.5))
    return [
        lambda: solve_cubic(x, 1.0, 1.0),
        lambda: solve_cubic(30.0, x, 30.0),
        lambda: solve_cubic(1.0, 1.0, x),
        lambda: solve_cubic(x, x, x),
        lambda: power_law(x, 0.5)[0](2.0),
        lambda: power_law(1.0, x)[1](2.0),
        lambda: power_law(1.0, 0.5)[0](x),
        lambda: power_law(1.0, 0.5)[1](x),
        lambda: power_law_model((x, 1.0)).params_at(1.0, 0.5),
        lambda: power_law_model((1.0, 0.5), (0.3, 0.0),
                                (30.0, x)).derivatives_at(2.0),
        lambda: model.params_at(x, 0.5),
        lambda: model.params_at(1.0, x),
        lambda: model.derivatives_at(x),
        lambda: damping_at_matsubara(OscillatorParams(1.0, drude, 1.0), x),
        lambda: damping_at_matsubara(OscillatorParams(1.0, ohmic, 1.0), x),
        lambda: float(drude.in_approx_regime(x)),
        lambda: eigenfrequencies_ohmic(OscillatorParams(x, ohmic, 1.0)),
        lambda: eigenfrequencies_ohmic(OscillatorParams(1.0, Ohmic(x), 1.0)),
        lambda: eigenfrequencies_drude_exact(OscillatorParams(x, drude, 1.0)),
        lambda: eigenfrequencies_drude_exact(
            OscillatorParams(1.0, Drude(x, 30.0), 1.0)),
        lambda: eigenfrequencies_drude_exact(
            OscillatorParams(1.0, Drude(0.3, x), 1.0)),
        lambda: eigenfrequencies_drude_approx(OscillatorParams(x, drude, 1.0)),
        lambda: eigenfrequencies_drude_approx(
            OscillatorParams(1.0, Drude(x, 1e300), 1.0)),
    ]


def _all_finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_all_finite, value))
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, (float, int)):
        return math.isfinite(value)
    if isinstance(value, OscillatorParams):
        return _all_finite([value.omega0, value.temperature,
                            value.damping.gamma0])
    return _all_finite(value.as_tuple())     # Eigenfrequencies


# Every public function returns finite values or raises a library error
# when NaN or +-inf reaches one of its numeric arguments.
@given(_NON_FINITE)
@settings(max_examples=30, deadline=None)
def test_public_functions_are_finite_or_raise(x):
    for k, call in enumerate(_oscillator_calls(x)):
        try:
            result = call()
        except (DomainError, PreconditionError):
            continue
        assert _all_finite(result), (k, x, result)


@given(_NON_FINITE, st.integers(0, 2),
       st.tuples(_REAL, _REAL, _REAL))
@settings(max_examples=200, deadline=None)
def test_solve_cubic_raises_on_non_finite_coefficients(bad, k, finite):
    coefficients = list(finite)
    coefficients[k] = bad
    with pytest.raises(DomainError, match="not finite"):
        solve_cubic(*coefficients)


@given(_REAL, _REAL, _REAL)
@settings(max_examples=300, deadline=None)
def test_solve_cubic_is_finite_or_raises(a2, a1, a0):
    try:
        roots = solve_cubic(a2, a1, a0)
    except DomainError:
        return
    assert len(roots) == 3 and _all_finite(roots)


@pytest.mark.parametrize("omega0, gamma0, omega_d", [
    (1e-112, 1e-112, 1e-108), (1e-160, 1e-160, 1e-150)])
def test_drude_exact_raises_where_the_cubic_underflows(omega0, gamma0,
                                                       omega_d):
    # p m of the trigonometric branch underflows to 0: a DomainError, not
    # a bare ZeroDivisionError
    with pytest.raises(DomainError, match="underflows"):
        eigenfrequencies_drude_exact(
            OscillatorParams(omega0, Drude(gamma0, omega_d), 1.0))
