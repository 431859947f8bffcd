"""Two-spin interferometry pipeline: preparation, conditional cycle, readout.

A thermal deviation state is reshaped into an effective pure state by a
bundled pulse-and-crusher program, mixed down to a chosen spin-b purity,
carried through a conditional cycle whose active branch drives spin b around
a closed two-geodesic loop, and read out through the spin-a coherence
relative to its pre-cycle value.  Two interchangeable cycle models are
provided: the literal pulse sequence and an idealized branch-controlled
holonomy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import groupby

import numpy as np

from .conventions import DEFAULT_CONVENTIONS, Conventions
from .errors import ConventionError, DomainError
from .geometry import StatePath, _half_turns, _loop_axes, check_inclination
from .phases import (
    PURITY_STEPS,
    PhaseResult,
    _from_complex,
    check_purity_index,
    ladder_purity,
    qubit_mixed_phase,
)
from .policy import POLICY
from .pulse import (
    DEFAULT_J,
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SequenceProgram,
    Trajectory,
    apply_t2_relaxation,
    check_t2_times,
    make_program,
    run_sequence,
)
from .pulseprog import parse_sequence
from .qcore import (
    DensityOperator,
    _blocks,
    _check_count,
    _check_real,
    _check_sign,
    _check_two_spin,
    _conjugate,
    _embed,
    identity2,
    is_unitary,
    pauli_x,
    pauli_z,
    principal_angle,
    rotation_unitary,
    sigma_dot,
    tensor,
)

MODELS = ("literal-sequence", "idealized-controlled-U")

DEFAULT_THETAS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid point of the interferometry experiment.

    theta sets the loop inclination (the traced lune spans solid angle
    4*theta), n indexes the purity ladder r = cos(n*pi/12), model selects the
    cycle implementation, relaxation optionally supplies transverse decay
    times (t2a, t2b) applied over the cycle duration, and conventions records
    the sign choices the pulse labels are interpreted under.
    """

    theta: float
    n: int
    model: str = "literal-sequence"
    relaxation: tuple[float, float] | None = None
    conventions: Conventions = DEFAULT_CONVENTIONS

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_inclination(self.theta))
        object.__setattr__(self, "n", check_purity_index(self.n))
        if self.model not in MODELS:
            raise DomainError(f"unknown cycle model {self.model!r}")
        if self.relaxation is not None:
            object.__setattr__(self, "relaxation", check_t2_times(self.relaxation))
        if not isinstance(self.conventions, Conventions):
            raise DomainError("ExperimentConfig.conventions must be a Conventions")

    @property
    def omega(self) -> float:
        """Solid angle magnitude of the cycle loop."""
        return 4.0 * self.theta

    @property
    def purity(self) -> float:
        """Signed spin-b Bloch length cos(n*pi/12) after mixing."""
        return ladder_purity(self.n)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one grid point: the measured readout and the closed-form
    prediction it is compared with.

    defined and residual are derived from the two results: a row is defined
    when both phases are, and its residual is the wrapped difference
    measured.gamma - theory.gamma, nan on an undefined row (which signals
    vanishing interference contrast, not an error). Under relaxation, the
    measured result is read after the T2 decay, but the snapshots end at the
    cycle's output before it: the last snapshot's visibility is the
    undecayed one.
    """

    config: ExperimentConfig
    measured: PhaseResult
    theory: PhaseResult
    snapshots: Trajectory | None = None

    @property
    def defined(self) -> bool:
        return self.measured.defined and self.theory.defined

    @property
    def residual(self) -> float:
        gap = self.measured.gamma - self.theory.gamma
        return principal_angle(gap) if self.defined else math.nan


def thermal_state() -> DensityOperator:
    """High-temperature deviation of the two-spin system.

    Diagonal (2.5, -1.5, 1.5, -2.5): spin b enters with four times the
    z-polarization of spin a, reflecting their gyromagnetic ratio imbalance.
    The operator is traceless and flagged unnormalized.
    """
    dev = 0.5 * tensor(pauli_z, identity2) + 2.0 * tensor(identity2, pauli_z)
    return DensityOperator(dev, normalized=False)


def prepare_pure_program() -> SequenceProgram:
    """Bundled pulse program reshaping the thermal deviation to effective purity.

    Runs on resonance; no frame directives.
    """
    text = (
        resources.files("lunephase")
        .joinpath("data", "prepare_pure.seq")
        .read_text(encoding="utf-8")
    )
    return parse_sequence(text)


def mixing_program(n: int) -> SequenceProgram:
    """Purity-setting stage after the pure preparation.

    A partial spin-b rotation followed by a crusher shrinks its longitudinal
    polarization to cos(n*pi/12); the two final pulses turn both spins into
    the transverse plane where the interferometer operates.
    """
    events = (
        Rotation("b", "x", Fraction(check_purity_index(n), PURITY_STEPS)),
        Gradient(),
        Rotation("a", "-y", Fraction(1, 2)),
        Rotation("b", "-y", Fraction(1, 2)),
    )
    return make_program(events)


def cycle_program(theta: float) -> SequenceProgram:
    """Conditional-cycle pulse program at inclination theta.

    Two spin-b pulses about -x (flips theta and pi - 2*theta) bracket
    two 1/(2J) delays.  The spin-b frame is shifted by -piJ so the branch
    Hamiltonians become 0 and 2*pi*J*Iz: the passive branch idles while the
    active one precesses a half turn per delay.
    """
    theta = check_inclination(theta)
    events = (
        Rotation("b", "-x", theta),
        Delay(per_j=Fraction(1, 2)),
        Rotation("b", "-x", math.pi - 2.0 * theta),
        Delay(per_j=Fraction(1, 2)),
    )
    return make_program(events, frames=(FrameOffset("b", Fraction(-1, 2), "piJ"),))


def _traceless_product(sigma_a: np.ndarray, sigma_b: np.ndarray) -> np.ndarray:
    """Traceless part of (1 + sigma_a)/2 tensor (1 + sigma_b)/2."""
    full = tensor(0.5 * (identity2 + sigma_a), 0.5 * (identity2 + sigma_b))
    return full - np.trace(full).real / 4.0 * np.eye(4)


def _run_stage(
    rho: DensityOperator,
    prog: SequenceProgram,
    conventions: Conventions,
    target: np.ndarray,
    stage: str,
) -> DensityOperator:
    """Run a preparation program and require its output deviation to be
    positively proportional to target (directions, not lines)."""
    out, _ = run_sequence(
        rho, prog, pulse_sense=conventions.pulse_sense, iz_sign=conventions.iz_sign
    )
    got = out.matrix.reshape(-1)
    norm = float(np.linalg.norm(got))
    if not norm >= 1e-12:
        raise DomainError("deviation vanishes; no direction to compare")
    want = target.reshape(-1) / np.linalg.norm(target)
    if not float(np.linalg.norm(got / norm - want)) <= POLICY.direction_tol:
        raise ConventionError(
            f"{stage} missed its target state: the configured rotation sense "
            "or branch assignment is inconsistent with the pulse labels (see "
            "the sign-conventions section of the package documentation)"
        )
    return out


def prepare_effective_pure(
    rho_thermal: DensityOperator, conventions: Conventions = DEFAULT_CONVENTIONS
) -> DensityOperator:
    """Run the bundled preparation program on the thermal deviation.

    Postcondition: the output deviation is positively proportional to the
    traceless part of the both-spins-up projector; a mismatch raises
    ConventionError since it can only come from inconsistent sign choices.
    """
    target = _traceless_product(pauli_z, pauli_z)
    return _run_stage(
        rho_thermal, prepare_pure_program(), conventions, target,
        "effective-pure preparation",
    )


def prepare_mixed(
    rho_pure: DensityOperator,
    n: int,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> DensityOperator:
    """Mix the effective pure state down to spin-b purity cos(n*pi/12).

    Postcondition: the output deviation points along the traceless part of
    (1 + sx_a)/2 tensor (1 + r*sx_b)/2 with r = cos(n*pi/12); both spins end
    along +x, spin b with shortened Bloch vector.
    """
    prog = mixing_program(n)
    target = _traceless_product(pauli_x, ladder_purity(n) * pauli_x)
    return _run_stage(rho_pure, prog, conventions, target, "purity preparation")


def lune_holonomy(theta: float, sense: int) -> np.ndarray:
    """Net spin-b unitary of the two-geodesic loop: exp(i*sense*2*theta*sx).

    Both traversal orders compose without any extra global phase.
    """
    first, second = _loop_axes(theta, sense)
    return rotation_unitary(second, math.pi) @ rotation_unitary(first, math.pi)


def _controlled_cycle(theta: float, conventions: Conventions) -> np.ndarray:
    """Two-spin unitary of the branch-controlled cycle: identity on the
    passive spin-a branch, the lune holonomy on the active one.

    The loop traversal sense equals the pulse rotation sense; the branch
    assignment then fixes which interferometer arm carries it, so the
    observable phase matches the literal sequence under any convention set.
    """
    u_loop = lune_holonomy(theta, conventions.pulse_sense)
    up, down = (u_loop, identity2) if conventions.active_branch_up else (identity2, u_loop)
    return _embed("b", up, down)


def idealized_eigenvector_path(
    theta: float,
    eigen_sign: int = 1,
    conventions: Conventions = DEFAULT_CONVENTIONS,
    samples_per_segment: int = 2000,
    perturb: float = 0.0,
) -> StatePath:
    """Active-branch spinor trajectory through the idealized loop.

    Starts from the +x (eigen_sign +1) or -x (eigen_sign -1) eigenvector and
    follows the two half turns at the physical rate (each lasting 1/(2J)),
    recording the instantaneous rotation generator at every sample.  perturb
    tilts each segment axis toward the loop vertex by that amount, a
    verification hook that breaks both the geodesic and parallel-transport
    properties.

    The loop follows conventions.pulse_sense only; the I_z sign is not read.
    Under active_branch_up=False the pulses drive this loop turned by pi
    about x, W|+-x> with W = U_passive^dagger U_active: other points, with
    the same area and Pancharatnam phase.
    """
    _check_sign(eigen_sign, "eigenvector label")
    m = _check_count(samples_per_segment, "samples_per_segment", 2)
    axes = _loop_axes(theta, conventions.pulse_sense)
    perturb = _check_real(perturb, "perturb")
    if not abs(perturb) < math.inf:
        raise DomainError("perturb must be finite")
    if perturb != 0.0:
        tilted = [axis + perturb * np.array([1.0, 0.0, 0.0]) for axis in axes]
        with np.errstate(over="ignore"):
            norms = [np.linalg.norm(v) for v in tilted]
        if not all(0 < norm < math.inf for norm in norms):
            raise DomainError("perturb tilts a loop axis past normalization")
        axes = tuple(v / norm for v, norm in zip(tilted, norms))

    k = np.arange(m + 1)
    seg_time = 1.0 / (2.0 * DEFAULT_J)
    rate = 2.0 * math.pi * DEFAULT_J  # half turn per segment at angle pi
    times = np.concatenate([seg_time * k / m, seg_time + seg_time * k[1:] / m])
    generators = np.concatenate([
        np.broadcast_to(0.5 * rate * sigma_dot(axes[0]), (m + 1, 2, 2)),
        np.broadcast_to(0.5 * rate * sigma_dot(axes[1]), (m, 2, 2)),
    ])
    return StatePath(times, _half_turns(axes, m, eigen_sign), generators)


def spin_a_coherence(rho: DensityOperator) -> complex:
    """Complex up-down coherence of the spin-a reduced state: the up-down
    entries of spin a's two blocks (see qcore._blocks), which
    qcore.partial_trace sums for it, read off the checked two-spin matrix
    with no reduced state built."""
    _check_two_spin(rho, "spin-a coherence is defined for the two-spin system")
    up, down = _blocks(rho.matrix, "a")
    return complex(up[0, 1] + down[0, 1])


def readout_phase(rho_ab: DensityOperator, reference: complex) -> PhaseResult:
    """Interference readout relative to the pre-cycle coherence.

    The phase is the argument and the visibility the magnitude of the spin-a
    coherence ratioed against its reference value; a vanishing ratio yields
    an undefined result, a vanishing reference is a usage error.
    """
    ref = complex(reference)
    if not abs(ref) >= POLICY.visibility_floor:
        raise DomainError("reference coherence is zero; prepare the state first")
    c = spin_a_coherence(rho_ab)
    return _from_complex(c / ref, abs(c) / abs(ref))


def _run_grid(
    configs: list[ExperimentConfig], record_snapshots: bool = False
) -> list[RunRecord]:
    """Run grid points that share one convention set, in order.

    The thermal deviation and effective-pure preparation run once per
    call, the purity mixing and reference coherence once per distinct n.
    Each run of consecutive points with equal theta and model (a
    theta-major sweep is one run per theta) builds its cycle program, its
    duration and, under the idealized model, its controlled unitary once,
    checked for unitarity once for all the run's points.
    Each point then runs its cycle, the optional transverse relaxation over
    the cycle duration and the phase readout against the closed form.
    """
    conv = configs[0].conventions
    pure = prepare_effective_pure(thermal_state(), conv)
    mixed: dict[int, tuple[DensityOperator, complex]] = {}
    records = []
    for (theta, model), group in groupby(configs, key=lambda c: (c.theta, c.model)):
        prog = cycle_program(theta)
        duration = prog.total_duration
        u_cycle = None if model == "literal-sequence" else _controlled_cycle(theta, conv)
        if u_cycle is not None and not is_unitary(u_cycle):
            raise DomainError("propagator is not unitary within tolerance")
        for config in group:
            if config.n not in mixed:
                rho = prepare_mixed(pure, config.n, conv)
                mixed[config.n] = (rho, spin_a_coherence(rho))
            rho, reference = mixed[config.n]

            if u_cycle is None:
                out, trajectory = run_sequence(
                    rho, prog, record=record_snapshots,
                    pulse_sense=conv.pulse_sense, iz_sign=conv.iz_sign,
                )
            else:
                out = DensityOperator._wrap(_conjugate(rho, u_cycle), rho.normalized)
                trajectory = Trajectory((0.0, duration), (rho.matrix, out.matrix), rho.normalized)

            if config.relaxation is not None:
                t2a, t2b = config.relaxation
                out = apply_t2_relaxation(out, duration, t2a, t2b)

            records.append(RunRecord(
                config,
                readout_phase(out, reference),
                qubit_mixed_phase(config.purity, config.omega, conv.orientation),
                trajectory if record_snapshots else None,
            ))
    return records


def run_single(
    config: ExperimentConfig, record_snapshots: bool = False
) -> RunRecord:
    """Execute one grid point end to end and compare against closed form.

    The recorded snapshots are the cycle's; relaxation, when configured,
    decays the cycle's output after the last of them (see RunRecord)."""
    return _run_grid([config], record_snapshots)[0]


def run_sweep(
    thetas=DEFAULT_THETAS,
    n_values=range(PURITY_STEPS),
    model: str = "literal-sequence",
    relaxation: tuple[float, float] | None = None,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> list[RunRecord]:
    """Run the full grid, theta-major and purity-minor, building each
    angle's cycle once for all its purities.

    Undefined-contrast rows are flagged in their records rather than raised;
    configuration problems surface before any simulation starts.
    """
    # each ExperimentConfig checks its theta and n; a generator is read once
    thetas, ns = tuple(thetas), tuple(n_values)
    if not thetas:
        raise DomainError("at least one inclination angle is required")
    if not ns:
        raise DomainError("at least one purity index is required")
    return _run_grid([
        ExperimentConfig(theta, n, model, relaxation, conventions)
        for theta in thetas
        for n in ns
    ])


def sweep_summary(records: list[RunRecord]) -> dict:
    """Aggregate residual statistics over the defined rows of a sweep."""
    residuals = [abs(r.residual) for r in records if r.defined]
    rms = math.sqrt(sum(x * x for x in residuals) / len(residuals)) if residuals else 0.0
    return {
        "rows": len(records),
        "defined_rows": len(residuals),
        "max_abs_residual_rad": max(residuals) if residuals else 0.0,
        "rms_residual_rad": rms,
    }


def record_values(record: RunRecord) -> dict:
    """Flatten one record into the sweep schema; phase fields of undefined
    rows become None."""
    cfg = record.config
    defined = record.defined
    return {
        "omega_rad": cfg.omega,
        "theta_rad": cfg.theta,
        "n": cfg.n,
        "r": cfg.purity,
        "gamma_sim_rad": record.measured.gamma if defined else None,
        "gamma_theory_rad": record.theory.gamma if defined else None,
        "visibility_sim": record.measured.visibility,
        "visibility_theory": record.theory.visibility,
        "residual_rad": record.residual if defined else None,
        "defined": defined,
    }


def _cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_table(fmt: str, rows: list[dict], footer: dict, payload) -> str:
    """The one table format of every command.

    CSV ("csv"): a header naming the first row's keys, one line per row dict,
    then one '# key = value' line per footer entry; None (an undefined phase)
    prints as nan, bools as true/false, floats as their round-trip repr.
    JSON ("json"): payload at indent 2, None as null; rows and footer unused.
    A NaN or infinite float raises ValueError, since JSON has no such value.
    Either ends with a newline.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    lines = [",".join(rows[0])] if rows else []
    lines += [",".join(map(_cell, row.values())) for row in rows]
    lines += [f"# {key} = {_cell(value)}" for key, value in footer.items()]
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[RunRecord]) -> str:
    """Render sweep records as deterministic CSV with a '#' summary footer."""
    summary = sweep_summary(records)
    footer = {k: summary[k] for k in ("max_abs_residual_rad", "rms_residual_rad")}
    return render_table("csv", [record_values(r) for r in records], footer, None)


def records_to_json(records: list[RunRecord]) -> str:
    """Render sweep records as deterministic JSON with a summary object."""
    payload = {
        "rows": [record_values(r) for r in records],
        "summary": sweep_summary(records),
    }
    return render_table("json", [], {}, payload)
