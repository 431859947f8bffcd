"""Two-spin NMR interferometry toolkit for mixed-state geometric phases.

The package simulates a heteronuclear spin pair at the pulse-program level:
state preparation through pulses and crusher gradients, a conditional cycle
that carries one spin around a closed two-geodesic loop on the Bloch sphere,
and interferometric readout of the resulting mixed-state phase, together
with the spherical geometry and closed-form phase theory needed to check
every step.

``import lunephase`` loads no submodule. Each public name below is read
from its defining module, which is imported the first time one of its
names is read (PEP 562), so a pulse-level caller never loads the
experiment, geometry or parser layers.
"""
import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "conventions": ("DEFAULT_CONVENTIONS", "Conventions"),
    "errors": ("ConventionError", "DomainError", "SequenceSyntaxError"),
    "experiment": (
        "DEFAULT_THETAS", "MODELS", "ExperimentConfig", "RunRecord", "cycle_program",
        "idealized_eigenvector_path", "lune_holonomy", "mixing_program",
        "prepare_effective_pure", "prepare_mixed", "prepare_pure_program", "readout_phase",
        "records_to_csv", "records_to_json", "run_single", "run_sweep", "spin_a_coherence",
        "sweep_summary", "thermal_state",
    ),
    "geometry": (
        "BlochPath", "LuneSpec", "StatePath", "check_geodesic", "dynamical_phase",
        "lune_path", "pancharatnam_phase", "solid_angle",
    ),
    "phases": ("PhaseResult", "qubit_mixed_phase", "sjoqvist_average"),
    "policy": ("POLICY", "NumericPolicy"),
    "pulse": (
        "Delay", "FrameOffset", "Gradient", "Rotation", "SequenceProgram", "SpinSystemParams",
        "Trajectory", "apply_t2_relaxation", "branch_propagators", "gradient_crusher",
        "make_program", "run_sequence",
    ),
    "pulseprog": ("parse_sequence", "render_sequence"),
    "qcore": (
        "DensityOperator", "partial_trace", "principal_angle", "rotation_unitary", "tensor",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    # nothing is bound here, so a name always reads its module's current value
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
