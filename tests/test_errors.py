"""The domain rule: errors.finite passes finite numbers and names the
quantity that is not.  The precondition rule: every public form called
with the wrong damping, or at T = 0 where it needs T > 0, raises
PreconditionError naming itself."""

import math

import pytest

from fluctforce import forces as ff
from fluctforce import matsubara as ms
from fluctforce import oscillator as osc
from fluctforce.errors import DomainError, PreconditionError, finite
from fluctforce.oscillator import Drude, Ohmic, OscillatorParams, \
    power_law_model


@pytest.mark.parametrize("x", [0.0, -0.0, 1.5, -2.5e-7, 5e-324,
                               1.7976931348623157e308, -1e308])
def test_finite_returns_its_argument(x):
    assert finite(x, "x") is x


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_finite_raises_for_nan_and_infinities(x):
    with pytest.raises(DomainError, match="^the force is not a finite "
                                          "number for these inputs$"):
        finite(x, "the force")


_OHMIC = OscillatorParams(1.0, Ohmic(0.5), 0.5)
_DRUDE = OscillatorParams(1.0, Drude(0.5, 30.0), 0.5)
_COLD_OHMIC = OscillatorParams(1.0, Ohmic(0.5), 0.0)
_COLD_DRUDE = OscillatorParams(1.0, Drude(0.5, 30.0), 0.0)
_OHMIC_MODEL = power_law_model((1.0, 0.5))
_DRUDE_MODEL = power_law_model((1.0, 0.5), (0.5, 1.0), (30.0, 0.5))

#: (public form, arguments outside its preconditions, what it requires);
#: test_circuits.test_geometry_forms_take_zero_temperature has the
#: geometry forms
_VIOLATIONS = [
    (ff.force_ohmic_exact, (_DRUDE, 1.0), "Ohmic damping"),
    (ff.force_ohmic_weak_dissipation, (_DRUDE, 1.0), "Ohmic damping"),
    (ff.force_ohmic_high_t, (_DRUDE, 1.0), "Ohmic damping"),
    (ff.force_ohmic_low_t, (_DRUDE, 1.0), "Ohmic damping"),
    (ff.force_tilde, (_DRUDE, 1.0, 0.5), "Ohmic damping"),
    (ff.free_energy_difference_gamma, (_DRUDE, 2.0), "Ohmic damping"),
    (ff.force_drude_full, (_OHMIC, _DRUDE_MODEL, 1.0), "Drude damping"),
    (ff.force_drude_very_high_t, (_OHMIC, _DRUDE_MODEL, 1.0),
     "Drude damping"),
    (ff.force_drude_high_t, (_OHMIC, _DRUDE_MODEL, 1.0), "Drude damping"),
    (ff.force_drude_low_t, (_OHMIC, _DRUDE_MODEL, 1.0), "Drude damping"),
    (ff.free_energy_drude_gamma, (_OHMIC,), "Drude damping"),
    (ms.free_energy_drude, (_OHMIC,), "Drude damping"),
    (ms.per_parameter_sums_drude, (_OHMIC, _DRUDE_MODEL, 1.0),
     "Drude damping"),
    (osc.eigenfrequencies_ohmic, (_DRUDE,), "Ohmic damping"),
    (osc.eigenfrequencies_drude_exact, (_OHMIC,), "Drude damping"),
    (osc.eigenfrequencies_drude_approx, (_OHMIC,), "Drude damping"),
    (ff.force_ohmic_high_t, (_COLD_OHMIC, 1.0), "temperature > 0"),
    (ff.force_tilde, (_COLD_OHMIC, 1.0, 0.5), "temperature > 0"),
    (ff.free_energy_difference_gamma, (_COLD_OHMIC, 2.0), "temperature > 0"),
    (ff.force_drude_very_high_t, (_COLD_DRUDE, _DRUDE_MODEL, 1.0),
     "temperature > 0"),
    (ff.force_drude_high_t, (_COLD_DRUDE, _DRUDE_MODEL, 1.0),
     "temperature > 0"),
    (ff.free_energy_drude_gamma, (_COLD_DRUDE,), "temperature > 0"),
    (ms.force_sum_exact, (_COLD_OHMIC, _OHMIC_MODEL, 1.0), "temperature > 0"),
    (ms.force_sum_exact, (_COLD_DRUDE, _DRUDE_MODEL, 1.0), "temperature > 0"),
    (ms.free_energy_difference,
     (_COLD_OHMIC, OscillatorParams(2.0, Ohmic(0.5), 0.0)), "temperature > 0"),
    (ms.free_energy_drude, (_COLD_DRUDE,), "temperature > 0"),
    (ms.per_parameter_sums_drude, (_COLD_DRUDE, _DRUDE_MODEL, 1.0),
     "temperature > 0"),
]


@pytest.mark.parametrize(
    "form, args, needs", _VIOLATIONS,
    ids=[f"{form.__name__}-{needs.split()[0]}"
         for form, _, needs in _VIOLATIONS])
def test_precondition_names_the_form(form, args, needs):
    with pytest.raises(PreconditionError) as exc:
        form(*args)
    assert str(exc.value) == f"{form.__name__} requires {needs}"
