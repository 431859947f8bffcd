"""Two-spin NMR interferometry toolkit for mixed-state geometric phases.

The package simulates a heteronuclear spin pair at the pulse-program level:
state preparation through pulses and crusher gradients, a conditional cycle
that carries one spin around a closed two-geodesic loop on the Bloch sphere,
and interferometric readout of the resulting mixed-state phase, together
with the spherical geometry and closed-form phase theory needed to check
every step.
"""
from types import ModuleType as _ModuleType

from .conventions import DEFAULT_CONVENTIONS, Conventions
from .errors import ConventionError, DomainError, SequenceSyntaxError
from .experiment import (
    DEFAULT_THETAS,
    MODELS,
    ExperimentConfig,
    RunRecord,
    cycle_program,
    idealized_eigenvector_path,
    lune_holonomy,
    mixing_program,
    prepare_effective_pure,
    prepare_mixed,
    prepare_pure_program,
    readout_phase,
    records_to_csv,
    records_to_json,
    run_single,
    run_sweep,
    spin_a_coherence,
    sweep_summary,
    thermal_state,
)
from .geometry import (
    BlochPath,
    LuneSpec,
    StatePath,
    check_geodesic,
    dynamical_phase,
    lune_path,
    pancharatnam_phase,
    solid_angle,
)
from .phases import (
    PhaseResult,
    TheoryRow,
    qubit_mixed_phase,
    sjoqvist_average,
    theory_curve,
)
from .policy import POLICY, NumericPolicy
from .pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SequenceProgram,
    SpinSystemParams,
    Trajectory,
    apply_t2_relaxation,
    branch_propagators,
    gradient_crusher,
    make_program,
    run_sequence,
)
from .pulseprog import parse_sequence, render_sequence
from .qcore import (
    DensityOperator,
    partial_trace,
    principal_angle,
    rotation_unitary,
    tensor,
)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
