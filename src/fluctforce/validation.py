"""Validation batteries: every closed form against its independent oracle.

Each criterion function returns a CriterionReport; the CLI `validate`
command and the acceptance test-suite both run these, so there is a
single source of truth for tolerances.  All random grids use fixed
seeds, making reports reproducible.  Grids are drawn as arrays, but the
functions under test are still called one point at a time, through
their public scalar entry points; the Vieta battery calls the cubic
solver behind eigenfrequencies_drude_exact, oscillator.solve_cubic, and
takes its residuals in s, where omega = i s, and the ohmic-oracle
suite's sign laws read the forces that its oracle criterion evaluated
on their shared grid.  A criterion's worst value is NaN once any of
its values is, so a NaN fails the criterion.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import circuits, forces, matsubara, oscillator
from ._value import Frozen
from .oscillator import Drude, Ohmic, OscillatorParams, ParametricModel

_SEED = 20260809
#: the terms every Matsubara oracle sums before its tail, named in reports
_TERMS = matsubara.SumSpec.hard_cap


class CriterionReport(Frozen):
    """One criterion's outcome: its worst error against its tolerance."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def __init__(self, name: str, passed: bool, worst: float,
                 tolerance: float, detail: str = ""):
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["worst"] = worst
        d["tolerance"] = tolerance
        d["detail"] = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        txt = (f"{status} {self.name}: worst={self.worst:.3e} "
               f"tol={self.tolerance:.3e}")
        if self.detail:
            txt += f" ({self.detail})"
        return txt


def _worse(worst: float, x: float) -> float:
    """max(worst, x), except that a NaN in either is the result, so that a
    NaN, once folded in, stays the worst value: the builtin max drops a
    NaN x, and x if not x <= worst else worst drops a NaN worst."""
    return worst if worst != worst or x <= worst else x


def _linear_model(om, dom=0.0, g0=0.0, dg0=0.0, wd=None,
                  dwd=0.0) -> ParametricModel:
    """Parameters linear in lambda around 1 (simple analytic laws)."""
    kwargs = dict(
        omega=lambda lam: om + (lam - 1.0) * dom,
        d_omega=lambda lam: dom,
        gamma0=lambda lam: g0 + (lam - 1.0) * dg0,
        d_gamma0=lambda lam: dg0,
    )
    if wd is not None:
        kwargs["omega_d"] = lambda lam: wd + (lam - 1.0) * dwd
        kwargs["d_omega_d"] = lambda lam: dwd
    return ParametricModel(**kwargs)


def _ohmic_grid(count: int, rng) -> list[tuple[float, float, float]]:
    """(Omega, gamma, T) as Python floats: the library's own arithmetic,
    not numpy's scalar one."""
    oms = rng.uniform(0.1, 10.0, count).tolist()
    gs = rng.uniform(0.0, 20.0, count).tolist()
    ts = np.exp(rng.uniform(math.log(0.01), math.log(100.0), count)).tolist()
    return list(zip(oms, gs, ts))


def _drude_grid(count: int, rng):
    oms = rng.uniform(0.5, 2.0, count)
    g0s = rng.uniform(0.05, 5.0, count)
    ratios = np.exp(rng.uniform(math.log(10.0), math.log(1.0e4), count))
    ts = np.exp(rng.uniform(math.log(0.1), math.log(10.0), count))
    derivs = rng.uniform(0.5, 2.0, (count, 3))
    cases = []
    for om, g0, ratio, t, d in zip(oms, g0s, ratios, ts, derivs):
        cases.append((float(om), float(g0), float(ratio * max(om, g0)),
                      float(t), tuple(float(x) for x in d)))
    return cases


def _ohmic_oracle_points(count: int) -> list:
    """(p, closed-form force value, Matsubara force) at each point of the
    Ohmic oracle grid, at dOmega/dlambda = 1."""
    points = []
    for om, g, t in _ohmic_grid(count, np.random.default_rng(_SEED)):
        p = OscillatorParams(om, Ohmic(g), t)
        m = _linear_model(om, dom=1.0, g0=g)
        points.append((p, forces.force_ohmic_exact(p, 1.0).value,
                       matsubara.force_sum_exact(p, m, 1.0)))
    return points


def criterion_ohmic_oracle(count: int = 200,
                           points: list | None = None) -> CriterionReport:
    """Closed Ohmic force vs the Matsubara sum on a random grid.

    The grid's forces are appended to points, if it is given, for
    criterion_sign_laws to read."""
    evaluated = _ohmic_oracle_points(count)
    if points is not None:
        points += evaluated
    worst = 0.0
    for _, exact, oracle in evaluated:
        tol = _worse(1.0e-8, 2.0 * oracle.truncation_estimate)
        worst = _worse(worst, abs(exact - oracle.value) / tol)
    return CriterionReport("ohmic-oracle-equivalence", worst <= 1.0, worst, 1.0,
                           f"{count} cases, {_TERMS} terms + tail, "
                           "worst as fraction of max(1e-8, 2*estimate)")


def criterion_drude_fd(count: int = 50) -> CriterionReport:
    """force_drude_full vs Richardson finite differences of the
    Gamma-function free energy."""
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for om, g0, wd, t, (dom, dg0, dwd) in _drude_grid(count, rng):
        m = _linear_model(om, dom, g0, dg0, wd, dwd)
        p = m.params_at(1.0, t)
        full = forces.force_drude_full(p, m, 1.0).value
        fd = matsubara.finite_difference_force(
            lambda lam: forces.free_energy_drude_gamma(m.params_at(lam, t)),
            1.0, h=1.0e-4)
        worst = _worse(worst, abs(full - fd.value) / abs(fd.value))
    return CriterionReport("drude-finite-difference", worst <= 1.0e-5, worst,
                           1.0e-5, f"{count} cases, relative")


def criterion_gamma_vs_product(count: int = 20) -> CriterionReport:
    """Gamma-function free energy vs the infinite product."""
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(count):
        om = float(rng.uniform(0.5, 2.0))
        g0 = float(rng.uniform(0.05, 2.0))
        ratio = float(np.exp(rng.uniform(math.log(10.0), math.log(1.0e3))))
        t = float(rng.uniform(0.2, 2.0))
        p = OscillatorParams(om, Drude(g0, ratio * max(om, g0)), t)
        fg = forces.free_energy_drude_gamma(p)
        fp = matsubara.free_energy_drude(p, roots="approx")
        worst = _worse(worst, abs(fg - fp.value) / abs(fg))
    return CriterionReport("gamma-vs-product", worst <= 1.0e-8, worst, 1.0e-8,
                           f"{count} cases, {_TERMS} terms + tail, relative")


def criterion_planar_weights() -> CriterionReport:
    """High-temperature planar relative weights at the two quoted geometries."""
    worst = 0.0
    for ratio, target, tol in ((0.04, 0.42, 0.02), (2.5e-3, 0.03, 0.01)):
        d = 1.0e-3
        geom = circuits.PlanarCapacitor(area=d * d / ratio, gap=d)
        loop = circuits.SeriesRLC.of(0.0, 1.0e-6, circuits.planar_capacitance_law(geom.area))
        r = circuits.relative_weight(geom, loop, 300.0, "high-T")
        worst = _worse(worst, abs(r - target) / tol)
    return CriterionReport("planar-relative-weights", worst <= 1.0, worst, 1.0,
                           "r_T at d^2/S = 0.04 and 2.5e-3 vs 0.42+-0.02, "
                           "0.03+-0.01")


def criterion_sphere_weights() -> CriterionReport:
    """High-temperature sphere-plate weights at the two quoted gap ratios."""
    radius = 1.0e-4
    worst = 0.0
    for gap_ratio, target, tol in ((0.75, 0.50, 0.02), (0.035, 0.02, 0.005)):
        geom = circuits.SpherePlate(radius, gap_ratio * radius)
        loop = circuits.SeriesRLC.of(0.0, 1.0e-6,
                                     circuits.sphere_plate_capacitance_law(radius))
        r = circuits.relative_weight(geom, loop, 300.0, "high-T")
        worst = _worse(worst, abs(r - target) / tol)
    return CriterionReport("sphere-plate-relative-weights", worst <= 1.0,
                           worst, 1.0,
                           "r_T at d/R = 0.75 and 0.035 vs 0.50+-0.02, "
                           "0.02+-0.005")


def criterion_zero_point() -> CriterionReport:
    """Ohmic force at tiny gamma and T reduces to the zero-point value."""
    worst = 0.0
    for om in (0.3, 1.0, 5.0):
        p = OscillatorParams(om, Ohmic(1.0e-6 * om), 1.0e-4 * om)
        value = forces.force_ohmic_exact(p, 1.0).value
        worst = _worse(worst, abs(value - (-0.5)) / 0.5)
    return CriterionReport("zero-point-limit", worst <= 1.0e-3, worst, 1.0e-3,
                           "relative to -(hbar/2) dOmega")


def _fit_slope(xs, ys) -> float:
    lx = np.log10(np.asarray(xs))
    ly = np.log10(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def criterion_asymptotic_slopes() -> CriterionReport:
    """Error decay of the Ohmic high-T and low-T limits vs the exact form."""
    om, g = 1.0, 0.5
    ts = np.logspace(1.0, 4.0, 13).tolist()
    errs = []
    for t in ts:
        p = OscillatorParams(om, Ohmic(g), t)
        exact = forces.force_ohmic_exact(p, 1.0).value
        approx = forces.force_ohmic_high_t(p, 1.0).value
        errs.append(abs(approx - exact) / abs(exact))
    slope_high = _fit_slope(ts, errs)

    g_strong = 3.0
    i_w_small = 0.5 * g_strong - math.sqrt(0.25 * g_strong ** 2 - om ** 2)
    ts = (np.logspace(-4.0, -1.0, 13) * i_w_small).tolist()
    errs = []
    for t in ts:
        p = OscillatorParams(om, Ohmic(g_strong), t)
        exact = forces.force_ohmic_exact(p, 1.0).value
        approx = forces.force_ohmic_low_t(p, 1.0).value
        errs.append(abs(approx - exact) / abs(exact))
    slope_low = _fit_slope(ts, errs)

    passed = slope_high <= -1.8 and slope_low >= 0.9
    worst = _worse(slope_high + 1.8, 0.9 - slope_low)
    return CriterionReport(
        "asymptotic-slopes", passed, worst, 0.0,
        f"high-T slope {slope_high:.2f} (<= -1.8 required); low-T error "
        f"slope {slope_low:.2f} vs T (>= 0.9 required, i.e. at least "
        "first-order decay as T -> 0)")


def criterion_sign_laws(points: list | None = None) -> CriterionReport:
    """Attraction/repulsion signs: each parameter derivative alone fixes
    the force sign on the oracle grids.

    points holds the Ohmic grid's forces as criterion_ohmic_oracle
    evaluated them; without it, they are evaluated here."""
    bad = 0
    total = 0
    if points is None:
        points = _ohmic_oracle_points(200)
    for p, exact, oracle in points:
        total += 3
        if not exact < 0.0:
            bad += 1
        if not oracle.value < 0.0:
            bad += 1
        if not forces.force_ohmic_exact(p, -1.0).value > 0.0:
            bad += 1
    rng = np.random.default_rng(_SEED + 1)
    for om, g0, wd, t, _ in _drude_grid(50, rng):
        p = OscillatorParams(om, Drude(g0, wd), t)
        for picked in range(3):
            derivs = [0.0, 0.0, 0.0]
            derivs[picked] = 1.0
            m = _linear_model(om, derivs[0], g0, derivs[1], wd, derivs[2])
            total += 1
            if not forces.force_drude_full(p, m, 1.0).value < 0.0:
                bad += 1
    return CriterionReport("sign-laws", bad == 0, float(bad), 0.0,
                           f"{total} sign checks")


def _vieta_grid(count: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(om, wd, g0) of the Vieta battery, drawn in one block.

    Row i of rng.random((count, 3)) holds the three uniforms that set i
    once drew with three rng.uniform calls, and Generator.uniform maps u
    to low + (high - low) * u, so every value is the same, bit for bit
    (with low = 0 that is just high * u)."""
    u = rng.random((count, 3))
    om = 0.1 + (10.0 - 0.1) * u[:, 0]
    wd = om * np.exp(math.log(1.0e4) * u[:, 1])
    g0 = om * (10.0 * u[:, 2])
    return om, wd, g0


def criterion_vieta(count: int = 10_000) -> CriterionReport:
    """Vieta and dispersion-equation residuals of the exact cubic roots.

    omega = i s maps the Drude dispersion relation onto the real cubic
    s^3 + omega_d s^2 + a1 s + a0, a1 = Omega^2 + gamma0 omega_d and
    a0 = Omega^2 omega_d, which oscillator.solve_cubic, the solver behind
    eigenfrequencies_drude_exact, solves one set at a time.  It is looked
    up on the module at each call.  The residuals are taken in s, where
    the roots sum to -omega_d, their pair products to a1 and their
    product to -a0; multiplying by i is exact, so they are the residuals
    in omega up to the rounding of their evaluation.  The draws,
    coefficients and residuals are whole-array expressions, and the
    coefficients are the solver's bits."""
    om, wd, g0 = _vieta_grid(count, np.random.default_rng(_SEED + 3))
    a1 = om * om + g0 * wd
    a0 = om * om * wd
    roots = map(oscillator.solve_cubic, wd.tolist(), a1.tolist(),
                a0.tolist())
    s = np.fromiter(itertools.chain.from_iterable(roots), complex,
                    3 * count).reshape(count, 3)
    s1, s2, s3 = s.T
    r1 = abs(s1 + s2 + s3 + wd) / (1.0e-12 * wd)
    r2 = abs(s1 * s2 + s1 * s3 + s2 * s3 - a1) / (1.0e-12 * a1)
    r3 = abs(s1 * s2 * s3 + a0) / (1.0e-12 * a0)
    sq = s * s
    res = abs(s * sq + wd[:, None] * sq + a1[:, None] * s
              + a0[:, None]) / (1.0e-10 * wd ** 3)[:, None]
    # np.max, unlike the builtin max, lets a NaN residual fail the check
    worst = float(np.max([r.max(initial=0.0) for r in (r1, r2, r3, res)]))
    return CriterionReport("vieta-and-cubic-residuals", worst <= 1.0, worst,
                           1.0, f"{count} parameter sets, residuals as "
                           "fraction of their stated bounds")


def criterion_critical_damping(count: int = 20) -> CriterionReport:
    """Continuity of the exact Ohmic force across gamma = 2 Omega."""
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for _ in range(count):
        om = float(rng.uniform(0.3, 3.0))
        t = om * float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        lo = forces.force_ohmic_exact(
            OscillatorParams(om, Ohmic(2.0 * om * (1.0 - 1.0e-6)), t), 1.0)
        hi = forces.force_ohmic_exact(
            OscillatorParams(om, Ohmic(2.0 * om * (1.0 + 1.0e-6)), t), 1.0)
        worst = _worse(worst, abs(hi.value - lo.value) / abs(lo.value))
    return CriterionReport("critical-damping-continuity", worst <= 1.0e-6,
                           worst, 1.0e-6, f"{count} (Omega, T) pairs")


def criterion_circuit_composition() -> CriterionReport:
    """Circuit forces are exactly the Ohmic force of the mapped oscillator,
    and closed-form weights match brute-force force quotients.

    worst is reported as a fraction of each sub-check's own tolerance
    (1e-14 relative for the composition identity, 1e-3 relative for the
    weight quotients)."""
    worst = 0.0
    loop = circuits.SeriesRLC.of(2.0, 1.0, (0.8, 1.0))
    m = circuits.map_series(loop)
    for t, lam in ((0.3, 1.0), (5.0, 0.7)):
        via_circuit = circuits.force_series_rlc(loop, t, lam, units="reduced")
        direct = forces.force_ohmic_exact(m.params_at(lam, t), m.d_omega(lam))
        rel = abs(via_circuit.value - direct.value) / abs(direct.value)
        worst = _worse(worst, rel / 1.0e-14)
    radius = 1.0e-4
    for gap_ratio in np.linspace(0.035, 0.75, 20):
        geom = circuits.SpherePlate(radius, float(gap_ratio) * radius)
        loop_sp = circuits.SeriesRLC.of(
            0.0, 1.0e-6, circuits.sphere_plate_capacitance_law(radius))
        r_closed = circuits.relative_weight(geom, loop_sp, 300.0, "high-T")
        f_circ = circuits.sphere_plate_circuit_force(geom, 1.0e-6, 300.0,
                                                     "high-T").value
        f_cas = circuits.casimir_reference(geom, 300.0, "high-T").value
        rel = abs(f_circ / f_cas - r_closed) / r_closed
        worst = _worse(worst, rel / 1.0e-3)
    return CriterionReport("circuit-composition", worst <= 1.0, worst, 1.0,
                           "composition residual and weight quotients, "
                           "as fractions of their tolerances")


def _ohmic_oracle_suite() -> list[CriterionReport]:
    """Criteria 1 and 8; the sign laws read criterion 1's evaluated grid."""
    points: list = []
    return [criterion_ohmic_oracle(points=points), criterion_sign_laws(points)]


# each suite looks its criteria up by name when it runs, so a criterion
# replaced on the module is the one that runs
_SUITES = {
    "ohmic-oracle": _ohmic_oracle_suite,
    "drude-fd": lambda: [criterion_drude_fd(), criterion_gamma_vs_product(),
                         criterion_vieta()],
    "asymptotics": lambda: [criterion_zero_point(),
                            criterion_asymptotic_slopes(),
                            criterion_critical_damping()],
    "circuits": lambda: [criterion_circuit_composition()],
    "paper-numbers": lambda: [criterion_planar_weights(),
                              criterion_sphere_weights()],
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[CriterionReport]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()
