"""Single-point library calls: the call plan and its oracle checks.

The plan calls every public force and free-energy closed form, the
eigenfrequency solvers, the circuit and Casimir-reference functions and
the three specfun functions once per parameter set.  Arguments are
built before timing; only the call itself is timed.
"""

from __future__ import annotations

import cmath
import math

from gate import (DRUDE_FD_TOL, QUOTIENT_TOL, ohmic_oracle_miss)


class Call:
    __slots__ = ("name", "fn", "args", "check", "digammas", "host")

    def __init__(self, name, fn, args, check=None, digammas=0,
                 host="force_ohmic_exact"):
        self.name = name
        self.fn = fn
        self.args = args
        self.check = check        # (result) -> message | None
        self.digammas = digammas  # digamma calls the call makes ...
        self.host = host          # ... inside this forces function


def _linear_model(ff, om, dom, g0=0.0, dg0=0.0, wd=None, dwd=0.0):
    kwargs = dict(omega=lambda lam: om + (lam - 1.0) * dom,
                  d_omega=lambda lam: dom,
                  gamma0=lambda lam: g0 + (lam - 1.0) * dg0,
                  d_gamma0=lambda lam: dg0)
    if wd is not None:
        kwargs["omega_d"] = lambda lam: wd + (lam - 1.0) * dwd
        kwargs["d_omega_d"] = lambda lam: dwd
    return ff.oscillator.ParametricModel(**kwargs)


def _finite(x) -> bool:
    if isinstance(x, (tuple, list)):
        return all(_finite(v) for v in x)
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    if isinstance(x, float):
        return math.isfinite(x)
    if hasattr(x, "as_tuple"):
        return _finite(x.as_tuple())
    if hasattr(x, "value"):
        return math.isfinite(x.value)
    return False


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def build_calls(ff, sets: list[dict]) -> list[Call]:
    fo, osc, cir, sf, ms = (ff.forces, ff.oscillator, ff.circuits, ff.specfun,
                            ff.matsubara)
    calls: list[Call] = []
    for s in sets:
        om, g, t = s["omega0"], s["gamma0"], s["temperature"]
        dom, dg0, dwd = s["d_omega"], s["d_gamma0"], s["d_omega_d"]
        warm = t > 0.0
        smooth = warm and s["damping"] != "critical"
        p = osc.OscillatorParams(om, osc.Ohmic(g), t)
        g_dr = s["drude_gamma0"]
        wd = s["drude_ratio"] * max(om, g_dr)
        p_dr = osc.OscillatorParams(om, osc.Drude(g_dr, wd), t)
        m_oh = _linear_model(ff, om, dom, g)
        m_dr = _linear_model(ff, om, dom, g_dr, abs(dg0), wd, dwd)

        def ohmic_check(res, m=m_oh, t=t, p=p, dom=dom, warm=warm):
            if not warm:
                low = fo.force_ohmic_low_t(p, dom)
                return None if res == low else "T = 0 reroute differs"
            return ohmic_oracle_miss(ff, res.value, m, 1.0, t)[0]

        def drude_check(res, m=m_dr, p=p_dr, t=t, warm=warm):
            if not warm:
                low = fo.force_drude_low_t(p, m, 1.0)
                return None if res == low else "T = 0 reroute differs"
            fd = ms.finite_difference_force(
                lambda x: fo.free_energy_drude_gamma(m.params_at(x, t)), 1.0,
                h=1e-4)
            scale = max(abs(fd.value),
                        sum(abs(v) for v in res.components.values()))
            if abs(res.value - fd.value) > DRUDE_FD_TOL * scale:
                return f"Drude force {res.value!r} vs fd {fd.value!r}"
            return None

        calls.append(Call("force_ohmic_exact", fo.force_ohmic_exact, (p, dom),
                          ohmic_check, 2 if smooth else 0))
        calls.append(Call("force_ohmic_weak_dissipation",
                          fo.force_ohmic_weak_dissipation, (p, dom)))
        calls.append(Call("force_ohmic_low_t", fo.force_ohmic_low_t, (p, dom)))
        calls.append(Call("force_drude_full", fo.force_drude_full,
                          (p_dr, m_dr, 1.0), drude_check, 6 if warm else 0,
                          "force_drude_full"))
        calls.append(Call("force_drude_low_t", fo.force_drude_low_t,
                          (p_dr, m_dr, 1.0)))
        if warm:
            om2 = om * 1.1
            p2 = osc.OscillatorParams(om2, osc.Ohmic(g), t)

            def diff_check(res, p=p, p2=p2):
                ref = ms.free_energy_difference(p, p2,
                                                ms.SumSpec(n_max=100_000))
                tol = max(1e-8, 2.0 * ref.truncation_estimate)
                return None if abs(res - ref.value) <= tol else \
                    f"free energy difference {res!r} vs oracle {ref.value!r}"

            calls.append(Call("force_ohmic_high_t", fo.force_ohmic_high_t,
                              (p, dom)))
            calls.append(Call("force_tilde", fo.force_tilde, (p, dom, dg0)))
            calls.append(Call("force_drude_very_high_t",
                              fo.force_drude_very_high_t, (p_dr, m_dr, 1.0)))
            calls.append(Call("force_drude_high_t", fo.force_drude_high_t,
                              (p_dr, m_dr, 1.0)))
            calls.append(Call("free_energy_drude_gamma",
                              fo.free_energy_drude_gamma, (p_dr,)))
            calls.append(Call("free_energy_difference_gamma",
                              fo.free_energy_difference_gamma, (p, om2),
                              diff_check))

        def quad_check(ev, om=om, g=g):
            worst = max(abs(w * w + 1j * g * w - om * om)
                        for w in ev.as_tuple())
            return None if worst <= 1e-12 * om * om else \
                f"Ohmic root residual {worst:.3e}"

        def cubic_check(ev, om=om, g0=g_dr, wd=wd):
            b = om * om + g0 * wd
            worst = max(abs(w ** 3 + 1j * wd * w ** 2 - b * w
                            - 1j * om * om * wd) for w in ev.as_tuple())
            return None if worst <= 1e-10 * wd ** 3 else \
                f"Drude cubic residual {worst:.3e}"

        def rootsum_check(ev, wd=wd):
            miss = abs(sum(ev.as_tuple()) + 1j * wd)
            return None if miss <= 1e-12 * wd else f"root sum off by {miss:.3e}"

        calls.append(Call("eigenfrequencies_ohmic", osc.eigenfrequencies_ohmic,
                          (p,), quad_check))
        calls.append(Call("eigenfrequencies_drude_exact",
                          osc.eigenfrequencies_drude_exact, (p_dr,),
                          cubic_check))
        calls.append(Call("eigenfrequencies_drude_approx",
                          osc.eigenfrequencies_drude_approx, (p_dr,),
                          rootsum_check))

        # circuits whose mapped oscillator is exactly (om, g) at lambda = 1
        series = cir.SeriesRLC.of(g, 1.0, (1.0 / (om * om), 1.0))
        parallel = cir.ParallelRLC.of(1.0 / g, (1.0 / (om * om), 1.0), 1.0)

        def composition_check(res, loop=series, mapper=cir.map_series, t=t):
            m = mapper(loop)
            ref = fo.force_ohmic_exact(m.params_at(1.0, t), m.d_omega(1.0))
            return None if res == ref else "circuit force is not the mapped " \
                "Ohmic force"

        calls.append(Call("force_series_rlc", cir.force_series_rlc,
                          (series, t, 1.0, "exact", "reduced"),
                          composition_check, 2 if smooth else 0))
        calls.append(Call("force_parallel_rlc", cir.force_parallel_rlc,
                          (parallel, t, 1.0, "exact", "reduced"),
                          lambda res, loop=parallel, chk=composition_check:
                          chk(res, loop, cir.map_parallel),
                          2 if smooth else 0))

        plate = cir.PlanarCapacitor(s["area"], s["gap"])
        sphere = cir.SpherePlate(s["radius"], s["gap"])
        kelvin, regime, ind = s["kelvin"], s["regime"], s["inductance"]
        sphere_loop = cir.SeriesRLC.of(
            0.0, ind, cir.sphere_plate_capacitance_law(s["radius"]))
        plate_loop = cir.SeriesRLC.of(
            0.0, ind, cir.planar_capacitance_law(s["area"]))

        def plate_cap_check(res, d=s["gap"]):
            cap, dcap = res
            return None if _rel(dcap, -cap / d) <= 1e-14 else "dC/dd != -C/d"

        def sphere_cap_check(res, r=s["radius"], d=s["gap"]):
            h = 1e-6 * d
            num = (cir.capacitance_sphere_plate(cir.SpherePlate(r, d + h))[0]
                   - cir.capacitance_sphere_plate(cir.SpherePlate(r, d - h))[0]
                   ) / (2.0 * h)
            return None if _rel(res[1], num) <= 1e-6 else \
                f"dC/dd {res[1]!r} vs difference {num!r}"

        def weight_check(res, geom=sphere, ind=ind, kelvin=kelvin,
                         regime=regime):
            f_circ = cir.sphere_plate_circuit_force(geom, ind, kelvin,
                                                    regime).value
            f_cas = cir.casimir_reference(geom, kelvin, regime).value
            return None if _rel(f_circ / f_cas, res) <= QUOTIENT_TOL else \
                f"r_weight {res!r} vs quotient {f_circ / f_cas!r}"

        def attractive(res):
            return None if res.value < 0.0 else "Casimir reference not attractive"

        calls.append(Call("capacitance_planar", cir.capacitance_planar,
                          (plate,), plate_cap_check))
        calls.append(Call("capacitance_sphere_plate",
                          cir.capacitance_sphere_plate, (sphere,),
                          sphere_cap_check))
        calls.append(Call("sphere_plate_circuit_force",
                          cir.sphere_plate_circuit_force,
                          (sphere, ind, kelvin, regime)))
        calls.append(Call("casimir_reference_planar", cir.casimir_reference,
                          (plate, kelvin, regime), attractive))
        calls.append(Call("casimir_reference_sphere", cir.casimir_reference,
                          (sphere, kelvin, regime), attractive))
        calls.append(Call("relative_weight_planar", cir.relative_weight,
                          (plate, plate_loop, kelvin, regime)))
        calls.append(Call("relative_weight_sphere", cir.relative_weight,
                          (sphere, sphere_loop, kelvin, regime), weight_check))
        calls.append(Call("planar_rlc_low_t_weak", cir.planar_rlc_low_t_weak,
                          (plate, ind, 1.0)))
        calls.append(Call("planar_rlc_low_t_strong",
                          cir.planar_rlc_low_t_strong, (plate, ind, 1.0)))

        z = s["z"]

        def psi_check(res, z=z):
            miss = abs(sf.digamma(z + 1.0) - res - 1.0 / z)
            return None if miss <= 1e-12 * max(1.0, abs(res)) else \
                f"digamma recurrence off by {miss:.3e}"

        def lgamma_check(res, z=z):
            miss = abs((sf.log_gamma(z + 1.0) - res - cmath.log(z)).real)
            return None if miss <= 1e-12 * max(1.0, abs(res)) else \
                f"log_gamma recurrence off by {miss:.3e}"

        def trigamma_check(res, z=z):
            miss = abs(res - sf.trigamma(z + 1.0) - 1.0 / (z * z))
            return None if miss <= 1e-12 * max(1.0, abs(res)) else \
                f"trigamma recurrence off by {miss:.3e}"

        calls.append(Call("digamma", sf.digamma, (z,), psi_check))
        calls.append(Call("log_gamma", sf.log_gamma, (z,), lgamma_check))
        calls.append(Call("trigamma", sf.trigamma, (z,), trigamma_check))
    return calls


def check_calls(calls: list[Call], results: list) -> list[tuple[int, str]]:
    """(index, message) of each call whose result fails its oracle check,
    where one exists, or is not finite."""
    errors = []
    for j, (call, res) in enumerate(zip(calls, results)):
        msg = call.check(res) if call.check is not None else None
        if not _finite(res):
            msg = f"non-finite result {res!r}"
        if msg:
            errors.append((j, f"{call.name}: {msg}"))
    return errors
