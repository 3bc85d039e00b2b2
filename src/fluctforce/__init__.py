"""Fluctuation-induced Casimir-like forces of quantum damped oscillators
and the RLC circuits that map onto them.

All closed forms are cross-validated against independent Matsubara-sum
and finite-difference oracles; see the validation module and the
command-line `fluctforce validate`.
"""

from .errors import DivergentSumError, DomainError, PreconditionError
from .forces import (ForceResult, force_drude_full, force_drude_high_t,
                     force_drude_low_t, force_drude_very_high_t,
                     force_ohmic_exact, force_ohmic_high_t,
                     force_ohmic_low_t, force_ohmic_weak_dissipation,
                     force_tilde, free_energy_drude_gamma)
from .oscillator import (DampingModel, Drude, Eigenfrequencies, Ohmic,
                         OscillatorParams, ParametricModel,
                         damping_at_matsubara, eigenfrequencies_drude_approx,
                         eigenfrequencies_drude_exact, eigenfrequencies_ohmic,
                         power_law_model)
from .specfun import digamma, log_gamma, trigamma

__version__ = "0.1.0"

__all__ = [
    "DampingModel", "DivergentSumError", "DomainError", "Drude",
    "Eigenfrequencies", "ForceResult", "Ohmic", "OracleResult",
    "OscillatorParams", "ParametricModel", "PreconditionError", "SumSpec",
    "damping_at_matsubara", "digamma", "eigenfrequencies_drude_approx",
    "eigenfrequencies_drude_exact", "eigenfrequencies_ohmic",
    "finite_difference_force", "force_drude_full", "force_drude_high_t",
    "force_drude_low_t", "force_drude_very_high_t", "force_ohmic_exact",
    "force_ohmic_high_t", "force_ohmic_low_t",
    "force_ohmic_weak_dissipation", "force_sum_exact", "force_tilde",
    "free_energy_difference", "free_energy_drude", "free_energy_drude_gamma",
    "log_gamma", "per_parameter_sums_drude", "power_law_model", "trigamma",
    "__version__",
]

# The Matsubara oracles load on first use (PEP 562), so that importing
# the package, and running the closed forms, does not build them; they
# import no numpy, which only validate and log spacing load.
_MATSUBARA = frozenset({
    "OracleResult", "SumSpec", "finite_difference_force", "force_sum_exact",
    "free_energy_difference", "free_energy_drude", "per_parameter_sums_drude",
})


def __getattr__(name):
    if name in _MATSUBARA:
        from . import matsubara
        return getattr(matsubara, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MATSUBARA)
