"""Eigenfrequency solvers, parametric models, damping evaluation."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctforce import oscillator
from fluctforce.errors import DomainError, PreconditionError
from fluctforce.forces import force_drude_full
from fluctforce.oscillator import (Drude, Ohmic, OscillatorParams,
                                   ParametricModel, _drude_roots, _ordered,
                                   _polish,
                                   damping_at_matsubara,
                                   eigenfrequencies_drude_approx,
                                   eigenfrequencies_drude_exact,
                                   eigenfrequencies_ohmic, power_law,
                                   power_law_model,
                                   solve_cubic, CUBIC_RESIDUAL_BOUND,
                                   WARN_CUBIC_RESIDUAL, WARN_DRUDE_APPROX)


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


def test_polish_stops_where_its_first_step_lands_on_a_critical_point():
    # (s - 1.51)^3: the one-real-root branch estimates the triple root as
    # 1.5099923706054688, and one Newton step from there lands exactly on
    # 1.51, where the derivative rounds to 0, so the second step is skipped
    a2, a1, a0 = -4.53, 6.8403, -3.442951
    assert (3.0 * 1.51 + 2.0 * a2) * 1.51 + a1 == 0.0
    assert _polish(1.5099923706054688, a2, a1, a0) == 1.51
    assert solve_cubic(a2, a1, a0) == (1.6211111309793476 + 0j,
                                       1.1766666467984521 + 0j, 1.51 + 0j)


def _newton(s, a2, a1, a0):
    """(s after one Newton step on s^3 + a2 s^2 + a1 s + a0, the step)."""
    step = (((s + a2) * s + a1) * s + a0) / ((3.0 * s + 2.0 * a2) * s + a1)
    return s - step, step


def _polish_starts(monkeypatch, a2, a1, a0):
    """The starts that solve_cubic hands to _polish for this cubic."""
    starts = []

    def record(s, *coefficients):
        starts.append(s)
        return _polish(s, *coefficients)
    monkeypatch.setattr(oscillator, "_polish", record)
    solve_cubic(a2, a1, a0)
    return starts


# the second start of a Vieta battery set in the trigonometric branch, and
# the complex start of the pair in the Cardano branch
@pytest.mark.parametrize("coefficients, kind", [
    ((69.27542018810851, 441.61816470171294, 228.83483695712826), float),
    ((10.0, 31.0, 10.0), complex),
])
def test_polish_stops_after_a_first_step_below_2_to_the_minus_26(
        monkeypatch, coefficients, kind):
    start = _polish_starts(monkeypatch, *coefficients)[1]
    assert type(start) is kind
    # the solver's own start: one step lands within 2^-26 of the root,
    # and the polish returns it although a second step would move it
    s1, step = _newton(start, *coefficients)
    assert abs(step) <= 2.0 ** -26 * abs(s1)
    assert _newton(s1, *coefficients)[0] != s1
    assert _polish(start, *coefficients) == s1
    # 1e-4 off, the first step is larger and the second one is taken
    far = start * (1.0 + 1.0e-4)
    s1, step = _newton(far, *coefficients)
    assert abs(step) > 2.0 ** -26 * abs(s1)
    s2 = _newton(s1, *coefficients)[0]
    assert s2 != s1 and _polish(far, *coefficients) == s2


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


def test_solve_cubic_roots_are_within_32_ulp_of_mpmath():
    # 300 sets drawn as the Vieta battery draws them, from another seed,
    # and the accurate reference sets: each root lies within 32 * 2^-52,
    # relative, of the nearest root that mpmath finds at 40 digits for
    # the same float coefficients (the battery's worst is 13.2 * 2^-52)
    mpmath = pytest.importorskip("mpmath")
    from fluctforce import validation
    om, wd, g0 = validation._vieta_grid(300, np.random.default_rng(4242))
    sets = (list(zip(om.tolist(), g0.tolist(), wd.tolist()))
            + [p for p, _ in _ACCURATE])
    with mpmath.workdps(40):
        for o, g, d in sets:
            cubic = (d, o * o + g * d, o * o * d)
            exact = mpmath.polyroots([1.0, *cubic], maxsteps=100,
                                     extraprec=100)
            for s in solve_cubic(*cubic):
                error = min(abs(s - r) / abs(r) for r in exact)
                assert error <= 32 * 2.0 ** -52, (cubic, s)


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


def _solve_cubic_reference(a2, a1, a0):
    """solve_cubic as it was before its polish became one straight-line
    helper, verbatim but for math.inf in place of the module's _INF and
    for the polish's stop after a first step of at most 2^-26 of the
    root: the module must give the same roots and errors, bit for bit."""
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = a2 * (2.0 * a2 * a2 / 27.0 - a1 / 3.0) + a0
    disc = -4.0 * p * p * p - 27.0 * q * q

    cardano = not (disc >= 0.0 and p < 0.0)
    if not cardano:
        # three real roots, trigonometric form
        m = 2.0 * math.sqrt(-p / 3.0)
        try:
            arg = 3.0 * q / (p * m)
        except ZeroDivisionError:   # p m underflows to 0
            raise DomainError(f"the cubic underflows: {a2, a1, a0}") from None
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        tau = 2.0 * math.pi     # (phi - tau k) / 3 at k = 0, 1, 2
        todo = [m * math.cos(phi / 3.0) - shift,
                m * math.cos((phi - tau) / 3.0) - shift,
                m * math.cos((phi - 2.0 * tau) / 3.0) - shift]
    else:
        # one real root, numerically stable Cardano
        rad = math.sqrt(max(q * q / 4.0 + p * p * p / 27.0, 0.0))
        u3 = -0.5 * q - math.copysign(rad, q)
        if u3 == 0.0:
            t0 = 0.0
        else:
            u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
            t0 = u - p / (3.0 * u)
        todo = [t0 - shift]
    roots: list[complex] = []
    deflate, pair = cardano, False
    for s in todo:
        for _ in (0, 1):
            f = ((s + a2) * s + a1) * s + a0
            df = (3.0 * s + 2.0 * a2) * s + a1
            if df == 0.0:
                break
            step = f / df
            # near-double roots make Newton overshoot; keep the current value
            if abs(step) > 0.5 * (1.0 + abs(s)):
                break
            s = s - step
            if abs(step) <= 2.0 ** -26 * abs(s):
                break
        if not deflate:
            roots.append(complex(s))
            continue
        # deflate by Cardano's real root: the pair solves t^2 + b t + c
        deflate, s0 = False, s
        b = a2 + s0
        c = -a0 / s0 if s0 != 0.0 else a1
        disc2 = b * b - 4.0 * c
        if disc2 >= 0.0:
            r = -0.5 * (b + math.copysign(math.sqrt(disc2), b)) if b != 0.0 \
                else math.sqrt(disc2) * 0.5
            todo += [r, c / r] if r != 0.0 else [0.0, -b]
        else:
            todo.append(complex(-0.5 * b, 0.5 * math.sqrt(-disc2)))
            pair = True
    if cardano:
        roots += [roots[0].conjugate(), complex(s0)] if pair else [complex(s0)]
    z = roots[0] + roots[1] + roots[2]      # NaN or inf if a root is
    if not -math.inf < z.real + z.imag < math.inf:
        raise DomainError(f"the cubic's roots are not finite: {a2, a1, a0}")
    return roots


def _root_bits(roots):
    return [(type(w), w.real.hex(), w.imag.hex(), math.copysign(1.0, w.real),
             math.copysign(1.0, w.imag)) for w in roots]


def _solver_outcome(solve, coefficients):
    try:
        return _root_bits(solve(*coefficients))
    except DomainError as exc:
        return str(exc)


def _drude_sets():
    """(Omega, gamma0, omega_d): the Vieta battery's 10^4 sets, then the
    accurate and inaccurate reference sets."""
    from fluctforce import validation
    om, wd, g0 = validation._vieta_grid(
        10_000, np.random.default_rng(validation._SEED + 3))
    return (list(zip(om.tolist(), g0.tolist(), wd.tolist()))
            + [p for p, _ in _ACCURATE + _INACCURATE])


def test_solve_cubic_is_bit_identical_to_the_reference():
    from test_bit_pins import CUBIC_PINS
    cubics = [(d, o * o + g * d, o * o * d) for o, g, d in _drude_sets()]
    cubics += [c for c, _ in CUBIC_PINS]
    # signed zeros, an underflow, and roots that are not finite
    cubics += [(-0.0, -0.0, -0.0), (1.0, 0.0, -0.0), (1e-300, -1e-300, 0.0),
               (1e200, 1e300, 1e300), (math.inf, 1.0, 1.0),
               (1.0, 1.0, math.nan)]
    for coefficients in cubics:
        assert _solver_outcome(solve_cubic, coefficients) == _solver_outcome(
            _solve_cubic_reference, coefficients), coefficients


def _cubic_residual_warnings(om, g0, wd):
    """The cubic-residual check as the root kernel made it before it moved
    into eigenfrequencies_drude_exact: on solve_cubic's roots s (omega = i s)
    in the solver's order, kept as the reference for the moved check."""
    if g0 == 0.0:
        return ()
    a1, a0 = om * om + g0 * wd, om * om * wd
    s1, s2, s3 = solve_cubic(wd, a1, a0)
    bound = CUBIC_RESIDUAL_BOUND
    close = (abs(s1 * s2 * s3 + a0) <= bound * a0
             and abs(s1 * s2 + (s1 + s2) * s3 - a1) <= bound * a1)
    return () if close else (WARN_CUBIC_RESIDUAL,)


def test_drude_exact_is_its_kernel_bit_for_bit():
    # the Vieta battery calls the kernel's solver; this keeps the public
    # function, which points and the library's users call, equal to the
    # kernel
    for o, g, d in _drude_sets():
        eig = eigenfrequencies_drude_exact(OscillatorParams(o, Drude(g, d),
                                                            1.0))
        roots = _drude_roots(o, g, d)
        warnings = _cubic_residual_warnings(o, g, d)
        assert _root_bits(eig.as_tuple()) == _root_bits(roots)
        assert eig.warnings == warnings and eig.method == "exact-cubic"


def _drude_scan(count, seed):
    """(Omega, gamma0, omega_d) with omega_d / max(Omega, gamma0) from 1e-2
    to 1e13, log-uniform, and gamma0 = 0 in about one set in ten."""
    rng = np.random.default_rng(seed)
    om = 10.0 ** rng.uniform(-3.0, 3.0, count)
    g0 = om * 10.0 ** rng.uniform(-3.0, 2.0, count)
    g0[rng.random(count) < 0.1] = 0.0
    wd = np.maximum(om, g0) * 10.0 ** rng.uniform(-2.0, 13.0, count)
    return list(zip(om.tolist(), g0.tolist(), wd.tolist()))


def test_drude_exact_warns_as_the_solver_order_check():
    # the moved check reads the ordered roots; its flags are those of the
    # check on the solver's order, on the battery's grid, the reference
    # sets and a scan far beyond the battery's range, where sets are flagged
    flagged = zero = 0
    for o, g, d in _drude_sets() + _drude_scan(4000, 20261020):
        warnings = _cubic_residual_warnings(o, g, d)
        eig = eigenfrequencies_drude_exact(OscillatorParams(o, Drude(g, d),
                                                            1.0))
        assert eig.warnings == warnings, (o, g, d)
        flagged += warnings != ()
        zero += g == 0.0
    assert flagged > 100 and zero > 100


# stand-in roots of (Omega, gamma0, omega_d) = (1, 1.5, 2), whose cubic has
# the root product i a0 = 2i and the pair sum -a1 = -4, both exact in floats
@pytest.mark.parametrize("roots, flagged", [
    ((2.0, -2.0, -0.5j), False),    # product and pair sum exact
    ((2.0, 2.0, 0.5j), True),       # product exact, pair sum 8 + 2i off
    ((2.0, -2.0, 1j), True),        # pair sum exact, product 6i off
])
def test_cubic_residual_flags_a_miss_of_either_vieta_sum(monkeypatch, roots,
                                                         flagged):
    import fluctforce.oscillator as osc
    monkeypatch.setattr(osc, "_drude_roots", lambda om, g0, wd: roots)
    eig = eigenfrequencies_drude_exact(OscillatorParams(1.0, Drude(1.5, 2.0),
                                                        1.0))
    assert eig.as_tuple() == roots
    assert eig.warnings == ((WARN_CUBIC_RESIDUAL,) if flagged else ())


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
