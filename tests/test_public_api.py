"""The public surface of the computing modules, pinned: a function or
class added to or removed from one of them is an edit to this list."""

import inspect

import pytest

from fluctforce import circuits, forces, matsubara, oscillator

PUBLIC = {
    circuits: [
        "ElementLaw", "ParallelRLC", "PlanarCapacitor", "SeriesRLC",
        "SpherePlate", "capacitance_planar", "capacitance_sphere_plate",
        "casimir_reference", "force_parallel_rlc", "force_series_rlc",
        "map_parallel", "map_series", "planar_capacitance_law",
        "planar_rlc_low_t_strong", "planar_rlc_low_t_weak", "point_force",
        "relative_weight", "scale_result", "sphere_plate_capacitance_law",
        "sphere_plate_circuit_force", "units_factors",
    ],
    forces: [
        "ForceResult", "force_drude_full", "force_drude_high_t",
        "force_drude_low_t", "force_drude_very_high_t", "force_ohmic_exact",
        "force_ohmic_high_t", "force_ohmic_low_t",
        "force_ohmic_weak_dissipation", "force_tilde",
        "free_energy_difference_gamma", "free_energy_drude_gamma",
    ],
    matsubara: [
        "OracleResult", "PerParameterSums", "SumSpec",
        "finite_difference_force", "force_sum_exact",
        "free_energy_difference", "free_energy_drude",
        "per_parameter_sums_drude",
    ],
    oscillator: [
        "Drude", "Eigenfrequencies", "Ohmic", "OscillatorParams",
        "ParametricModel", "damping_at_matsubara",
        "eigenfrequencies_drude_approx", "eigenfrequencies_drude_exact",
        "eigenfrequencies_ohmic", "power_law", "power_law_model",
        "solve_cubic",
    ],
}


@pytest.mark.parametrize("module", PUBLIC, ids=lambda m: m.__name__)
def test_public_functions_and_classes_are_the_listed_ones(module):
    defined = sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__)
    assert defined == PUBLIC[module]
