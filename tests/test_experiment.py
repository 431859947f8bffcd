import cmath
import dataclasses
import json
import math
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_brute as oracle
from lunephase.conventions import DEFAULT_CONVENTIONS, Conventions
from lunephase.errors import ConventionError, DomainError
import lunephase.experiment as experiment
from lunephase import pulse, qcore
from lunephase.experiment import (
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
    record_values,
    records_to_csv,
    records_to_json,
    run_single,
    run_sweep,
    spin_a_coherence,
    sweep_summary,
    thermal_state,
)
from lunephase.geometry import (
    BlochPath,
    LuneSpec,
    StatePath,
    _loop_axes,
    check_geodesic,
    check_inclination,
    dynamical_phase,
    lune_path,
    pancharatnam_phase,
    solid_angle,
)
from lunephase.phases import PhaseResult, qubit_mixed_phase, sjoqvist_average
from lunephase.pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SequenceProgram,
    SpinSystemParams,
    Trajectory,
    apply_t2_relaxation,
    branch_propagators,
    free_evolution_unitary,
    gradient_crusher,
    make_program,
    run_sequence,
)
from lunephase.pulseprog import render_sequence
from lunephase.qcore import (
    DensityOperator,
    identity2,
    partial_trace,
    pauli_x,
    pauli_z,
    principal_angle,
    rotation_unitary,
    tensor,
)

J = 214.5
PLUS_X = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def deviation_direction(matrix):
    m = np.asarray(matrix, dtype=complex)
    m = m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])
    return m / np.linalg.norm(m)


def reduced_bloch_length(rho, spin):
    dev = partial_trace(rho, spin).matrix
    dev = dev - np.trace(dev) / 2.0 * identity2
    # Herm traceless qubit operator: norm = |bloch| * coeff * sqrt(2)
    return float(np.linalg.norm(dev)) / math.sqrt(2.0)


def prepared_state(n, conventions=DEFAULT_CONVENTIONS):
    rho = prepare_effective_pure(thermal_state(), conventions)
    return prepare_mixed(rho, n, conventions)


class TestThermalState:
    def test_diagonal_values(self):
        rho = thermal_state()
        assert np.allclose(np.diag(rho.matrix), [2.5, -1.5, 1.5, -2.5], atol=1e-15)
        assert np.allclose(rho.matrix, np.diag(np.diag(rho.matrix)))

    def test_traceless_and_unnormalized(self):
        rho = thermal_state()
        assert abs(np.trace(rho.matrix)) < 1e-15
        assert rho.normalized is False

    def test_crusher_invariant(self):
        rho = thermal_state()
        crushed = gradient_crusher(rho)
        assert np.allclose(crushed.matrix, rho.matrix, atol=0)

    def test_matches_oracle_direction(self):
        got = deviation_direction(thermal_state().matrix)
        want = oracle.direction(oracle.thermal_deviation())
        assert np.linalg.norm(got - want) < 1e-15


class TestPreparation:
    def test_pure_prep_reaches_both_up_target(self):
        out = prepare_effective_pure(thermal_state())
        up = 0.5 * (identity2 + pauli_z)
        target = tensor(up, up)
        got = deviation_direction(out.matrix)
        want = deviation_direction(target)
        assert np.linalg.norm(got - want) < 1e-12

    def test_pure_prep_matches_oracle(self):
        out = prepare_effective_pure(thermal_state())
        ref = oracle.preparation_sequence(oracle.thermal_deviation(), sense=-1)
        assert np.linalg.norm(
            deviation_direction(out.matrix) - oracle.direction(ref)
        ) < 1e-12

    def test_pure_prep_is_linear(self):
        base = prepare_effective_pure(thermal_state())
        scaled_in = DensityOperator(2.5 * thermal_state().matrix, normalized=False)
        scaled_out = prepare_effective_pure(scaled_in)
        assert np.allclose(scaled_out.matrix, 2.5 * base.matrix, atol=1e-12)

    def test_pure_prep_sense_independent(self):
        # The crushers discard every term whose sign depends on the pulse
        # sense, so both rotation conventions land on the same state.
        flipped = Conventions(pulse_sense=1, active_branch_up=True)
        out = prepare_effective_pure(thermal_state(), flipped)
        ref = prepare_effective_pure(thermal_state())
        assert np.allclose(out.matrix, ref.matrix, atol=1e-12)

    def test_mixed_prep_directions_across_ladder(self):
        pure = prepare_effective_pure(thermal_state())
        for n in range(12):
            out = prepare_mixed(pure, n)
            r = math.cos(n * math.pi / 12)
            target = tensor(
                0.5 * (identity2 + pauli_x), 0.5 * (identity2 + r * pauli_x)
            )
            got = deviation_direction(out.matrix)
            want = deviation_direction(target)
            assert np.linalg.norm(got - want) < 1e-12, n

    def test_mixed_prep_matches_oracle(self):
        pure = prepare_effective_pure(thermal_state())
        for n in (0, 3, 6, 9, 11):
            out = prepare_mixed(pure, n)
            ref = oracle.mixing_sequence(
                oracle.preparation_sequence(oracle.thermal_deviation(), sense=-1),
                n,
                sense=-1,
            )
            assert np.linalg.norm(
                deviation_direction(out.matrix) - oracle.direction(ref)
            ) < 1e-12, n

    def test_mixed_prep_purity_ratio(self):
        out = prepared_state(3)
        ratio = reduced_bloch_length(out, "b") / reduced_bloch_length(out, "a")
        assert ratio == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_mixed_prep_wrong_sense_raises(self):
        flipped = Conventions(pulse_sense=1, active_branch_up=True)
        pure = prepare_effective_pure(thermal_state(), flipped)
        with pytest.raises(ConventionError, match="sign-conventions"):
            prepare_mixed(pure, 3, flipped)

    def test_mixing_program_rejects_bad_index(self):
        with pytest.raises(DomainError):
            mixing_program(12)
        with pytest.raises(DomainError):
            mixing_program(-1)

    def test_bundled_program_shape(self):
        prog = prepare_pure_program()
        assert len(prog.events) == 6
        assert float(prog.total_duration) == 1.0 / (2.0 * J)


class TestCycleProgram:
    def test_duration_is_one_over_j(self):
        prog = cycle_program(0.3)
        assert float(prog.total_duration) == 1.0 / J

    def test_frame_shift_gives_positive_pi_j_offset(self):
        prog = cycle_program(0.3)
        assert prog.params.omega_b == pytest.approx(math.pi * J, abs=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cycle_program(-0.1)
        with pytest.raises(DomainError):
            cycle_program(math.pi / 2 + 0.1)


class TestControlledCycle:
    def test_degenerate_lune_leaves_phase_unchanged(self):
        rho = prepared_state(0)
        ref = spin_a_coherence(rho)
        out, _ = run_sequence(rho, cycle_program(0.0), pulse_sense=-1)
        result = readout_phase(out, ref)
        assert result.defined
        assert result.gamma == pytest.approx(0.0, abs=1e-12)
        assert result.visibility == pytest.approx(1.0, abs=1e-12)

    def test_pure_quarter_turn_phase_magnitude(self):
        rho = prepared_state(0)
        ref = spin_a_coherence(rho)
        out, _ = run_sequence(rho, cycle_program(math.pi / 4), pulse_sense=-1)
        result = readout_phase(out, ref)
        assert abs(result.gamma) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_matches_oracle_interferometric_phase(self):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            n = int(rng.integers(0, 12))
            rho = prepared_state(n)
            ref = spin_a_coherence(rho)
            out, _ = run_sequence(rho, cycle_program(theta), pulse_sense=-1)
            got = spin_a_coherence(out) / ref
            r = math.cos(n * math.pi / 12)
            want = oracle.interferometric_phase(theta, r, sense=-1)
            assert abs(got - want) < 1e-12


class TestIdealizedCycle:
    def test_holonomy_closed_form(self):
        for theta in (0.0, 0.2, math.pi / 8, 0.9, math.pi / 2):
            for sense in (-1, 1):
                u = lune_holonomy(theta, sense)
                want = math.cos(2 * theta) * identity2 + 1j * sense * math.sin(
                    2 * theta
                ) * pauli_x
                assert np.max(np.abs(u - want)) < 1e-14

    def test_holonomy_rejects_bad_sense(self):
        with pytest.raises(DomainError):
            lune_holonomy(0.3, 0)

    def test_degenerate_lune_is_identity(self):
        rho = prepared_state(0)
        for active_branch_up in (True, False):
            w = experiment._controlled_cycle(0.0, Conventions(-1, active_branch_up))
            assert np.allclose(w, np.eye(4), rtol=0.0, atol=1e-12)
            out = DensityOperator(oracle.conj(rho.matrix, w), rho.normalized)
            assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_model_equivalence_default_conventions(self):
        # Same observable phase and visibility from the literal pulses and
        # the branch-controlled holonomy; spinor bookkeeping adds no offset.
        rng = np.random.default_rng(8271)
        for _ in range(20):
            theta = float(rng.uniform(0.0, math.pi / 2))
            n = int(rng.integers(0, 12))
            lit = run_single(ExperimentConfig(theta, n, "literal-sequence"))
            ide = run_single(ExperimentConfig(theta, n, "idealized-controlled-U"))
            assert lit.defined == ide.defined
            assert lit.measured.visibility == pytest.approx(
                ide.measured.visibility, abs=1e-12
            )
            if lit.defined:
                offset = principal_angle(lit.measured.gamma - ide.measured.gamma)
                assert abs(offset) < 1e-12

    def test_model_equivalence_alternate_branch_assignment(self):
        alt = Conventions(pulse_sense=-1, active_branch_up=False)
        for theta in (math.pi / 8, 0.4, math.pi / 3):
            lit = run_single(ExperimentConfig(theta, 2, conventions=alt))
            ide = run_single(
                ExperimentConfig(
                    theta, 2, "idealized-controlled-U", conventions=alt
                )
            )
            assert abs(principal_angle(lit.measured.gamma - ide.measured.gamma)) < 1e-12


class TestReadout:
    def test_self_reference(self):
        rho = prepared_state(2)
        result = readout_phase(rho, spin_a_coherence(rho))
        assert result.gamma == 0.0
        assert result.visibility == pytest.approx(1.0, abs=1e-12)

    def test_branch_phases_reproduce_mixture_average(self):
        # Writing e^{+i omega/2} on the plus branch of an r-mixture and
        # e^{-i omega/2} on the minus branch must average to the closed form.
        rng = np.random.default_rng(515151)
        for _ in range(50):
            r = float(rng.uniform(0.0, 1.0))
            omega = float(rng.uniform(-2 * math.pi + 0.2, 2 * math.pi - 0.2))
            rho_b = 0.5 * (identity2 + r * pauli_x)
            rho = DensityOperator(
                np.kron(0.5 * (identity2 + pauli_x), rho_b)
            )
            u_b = (
                math.cos(omega / 2.0) * identity2
                + 1j * math.sin(omega / 2.0) * pauli_x
            )
            w = np.zeros((4, 4), dtype=complex)
            w[:2, :2] = u_b
            w[2:, 2:] = identity2
            out = DensityOperator(oracle.conj(rho.matrix, w))
            got = readout_phase(out, spin_a_coherence(rho))
            want = qubit_mixed_phase(r, omega, sign=1)
            if not want.defined:
                assert not got.defined
                continue
            assert got.gamma == pytest.approx(want.gamma, abs=1e-12)
            assert got.visibility == pytest.approx(want.visibility, abs=1e-12)

    def test_equal_mixture_half_turn_is_undefined(self):
        rho = DensityOperator(np.kron(0.5 * (identity2 + pauli_x), 0.5 * identity2))
        ref = spin_a_coherence(rho)
        u_b = 1j * pauli_x  # omega = pi around the equator
        w = np.zeros((4, 4), dtype=complex)
        w[:2, :2] = u_b
        w[2:, 2:] = identity2
        result = readout_phase(DensityOperator(oracle.conj(rho.matrix, w)), ref)
        assert not result.defined
        assert result.visibility < 1e-9

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError, match="reference"):
            readout_phase(thermal_state(), 0.0)


class TestRunSingle:
    def test_pinned_pure_example(self):
        rec = run_single(ExperimentConfig(math.pi / 8, 0))
        assert rec.defined
        assert rec.measured.gamma == pytest.approx(-math.pi / 4, abs=1e-12)
        assert rec.measured.visibility == pytest.approx(1.0, abs=1e-12)
        assert rec.theory.gamma == pytest.approx(-math.pi / 4, abs=1e-15)
        assert abs(rec.residual) < 1e-12

    def test_pinned_undefined_example(self):
        rec = run_single(ExperimentConfig(math.pi / 4, 6))
        assert not rec.defined
        assert math.isnan(rec.residual)
        assert rec.measured.visibility < 1e-9
        assert rec.theory.visibility < 1e-9

    def test_relaxation_scales_visibility_not_phase(self):
        base = run_single(ExperimentConfig(math.pi / 8, 3))
        relaxed = run_single(ExperimentConfig(math.pi / 8, 3, relaxation=(0.3, 0.4)))
        ratio = relaxed.measured.visibility / base.measured.visibility
        assert ratio == pytest.approx(math.exp(-(1.0 / J) / 0.3), abs=1e-12)
        assert abs(relaxed.measured.gamma - base.measured.gamma) < 1e-12
        assert 1.0 - ratio < 0.016

    def test_relaxation_applies_to_idealized_model_too(self):
        base = run_single(ExperimentConfig(math.pi / 8, 3, "idealized-controlled-U"))
        relaxed = run_single(
            ExperimentConfig(
                math.pi / 8, 3, "idealized-controlled-U", relaxation=(0.3, 0.4)
            )
        )
        ratio = relaxed.measured.visibility / base.measured.visibility
        assert ratio == pytest.approx(math.exp(-(1.0 / J) / 0.3), abs=1e-12)

    def test_snapshots_cover_cycle(self):
        rec = run_single(ExperimentConfig(math.pi / 8, 0), record_snapshots=True)
        assert rec.snapshots is not None
        times = [t for t, _ in rec.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0 / J, abs=1e-15)
        assert all(isinstance(state, DensityOperator) for _, state in rec.snapshots)

    @pytest.mark.parametrize("model", MODELS)
    def test_snapshots_are_the_runs_trajectory(self, model):
        rec = run_single(ExperimentConfig(math.pi / 8, 3, model), record_snapshots=True)
        snaps = rec.snapshots
        assert type(snaps) is Trajectory
        assert snaps[0][0] == 0.0 and snaps[-1][0] == cycle_program(math.pi / 8).total_duration
        assert len(snaps) == (2 if model == "idealized-controlled-U" else 1 + 4 + 2 * 63)
        for _, state in snaps:
            assert state.normalized is snaps.normalized and not state.matrix.flags.writeable

    def test_snapshots_off_by_default(self):
        assert run_single(ExperimentConfig(math.pi / 8, 0)).snapshots is None

    def test_snapshots_end_before_the_relaxation(self):
        # T2 decay acts on the cycle's output, after its last snapshot: the
        # snapshots are those of the undecayed run, and the last one reads
        # the undecayed visibility, which the decay of spin a then scales
        relaxed = run_single(
            ExperimentConfig(math.pi / 4, 3, relaxation=(0.3, 0.4)), record_snapshots=True
        )
        plain = run_single(ExperimentConfig(math.pi / 4, 3), record_snapshots=True)
        snaps = relaxed.snapshots
        assert snaps.times.tobytes() == plain.snapshots.times.tobytes()
        assert snaps.matrices.tobytes() == plain.snapshots.matrices.tobytes()
        last = readout_phase(snaps[-1][1], spin_a_coherence(snaps[0][1]))
        assert last.visibility == pytest.approx(0.70711, abs=5e-6)
        assert relaxed.measured.visibility == pytest.approx(0.69620, abs=5e-6)
        decay = math.exp(-snaps.times[-1] / 0.3)
        assert relaxed.measured.visibility == pytest.approx(last.visibility * decay, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(-0.1, 0)
        with pytest.raises(DomainError):
            ExperimentConfig(0.3, 12)
        with pytest.raises(DomainError):
            ExperimentConfig(0.3, 0, "other-model")
        with pytest.raises(DomainError):
            ExperimentConfig(0.3, 0, relaxation=(0.0, 0.4))

    def test_record_derives_defined_and_residual(self):
        # A record stores only the two results it compares; whether the row
        # is defined and its residual follow from them.
        cfg = ExperimentConfig(0.3, 0)
        assert [f.name for f in dataclasses.fields(RunRecord)] == [
            "config", "measured", "theory", "snapshots",
        ]
        for gm, gt, want in [
            (3.0, -3.0, 6.0 - 2.0 * math.pi),
            (-3.0, 3.0, 2.0 * math.pi - 6.0),
            (math.pi, 0.0, math.pi),
            (0.0, math.pi, math.pi),
            (-2.5, 2.5, 2.0 * math.pi - 5.0),
        ]:
            rec = RunRecord(cfg, PhaseResult(gm, 0.5, True), PhaseResult(gt, 0.5, True))
            assert rec.defined is True
            assert -math.pi < rec.residual <= math.pi
            assert rec.residual == principal_angle(gm - gt)
            assert rec.residual == pytest.approx(want, abs=1e-15)
        defined, undefined = PhaseResult(0.4, 0.5, True), PhaseResult(0.0, 0.0, False)
        for pair in [(undefined, defined), (defined, undefined), (undefined, undefined)]:
            rec = RunRecord(cfg, *pair)
            assert rec.defined is False
            assert math.isnan(rec.residual)


class TestEndToEnd:
    def test_measured_phase_matches_closed_form(self):
        rng = np.random.default_rng(90210)
        for _ in range(40):
            theta = float(rng.uniform(0.0, math.pi / 2))
            n = int(rng.integers(0, 12))
            model = MODELS[int(rng.integers(0, 2))]
            rec = run_single(ExperimentConfig(theta, n, model))
            assert rec.measured.visibility == pytest.approx(
                rec.theory.visibility, abs=1e-9
            )
            if rec.defined:
                assert abs(rec.residual) < 1e-9

    def test_readout_equals_branch_eigenphase_average(self):
        # The interferometer output is the purity-weighted average of the
        # two transported-eigenvector phase factors.
        rng = np.random.default_rng(311)
        for _ in range(20):
            theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            n = int(rng.integers(0, 7))  # nonnegative r keeps branches labeled
            r = math.cos(n * math.pi / 12)
            up, down = branch_propagators(cycle_program(theta), pulse_sense=-1)
            m = down.conj().T @ up
            minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
            phases = [
                float(np.angle(PLUS_X.conj() @ m @ PLUS_X)),
                float(np.angle(minus.conj() @ m @ minus)),
            ]
            probs = [0.5 * (1 + r), 0.5 * (1 - r)]
            want = sjoqvist_average(probs, phases)
            rec = run_single(ExperimentConfig(theta, n))
            if not want.defined:
                assert not rec.defined
                continue
            assert rec.measured.gamma == pytest.approx(want.gamma, abs=1e-12)
            assert rec.measured.visibility == pytest.approx(want.visibility, abs=1e-12)

    def test_branch_purity_preserved(self):
        rho = prepared_state(4)
        out, _ = run_sequence(rho, cycle_program(0.7), pulse_sense=-1)
        for spin_cut in ("b",):
            before = reduced_bloch_length(rho, spin_cut)
            after = reduced_bloch_length(out, spin_cut)
            assert after == pytest.approx(before, abs=1e-10)


class TestIdealizedPath:
    def test_starts_on_vertex(self):
        path = idealized_eigenvector_path(math.pi / 8, 1, samples_per_segment=16)
        assert np.allclose(path.bloch_points()[0], [1.0, 0.0, 0.0], atol=1e-12)
        minus = idealized_eigenvector_path(math.pi / 8, -1, samples_per_segment=16)
        assert np.allclose(minus.bloch_points()[0], [-1.0, 0.0, 0.0], atol=1e-12)

    def test_times_span_cycle_duration(self):
        path = idealized_eigenvector_path(0.5, 1, samples_per_segment=10)
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(1.0 / J, abs=1e-15)

    def test_signed_area_is_four_theta(self):
        for theta in (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            path = idealized_eigenvector_path(theta, 1, samples_per_segment=600)
            area = solid_angle(path.to_bloch_path())
            assert area == pytest.approx(4 * theta, abs=1e-9), theta

    def test_minus_branch_is_exact_mirror(self):
        plus = idealized_eigenvector_path(0.4, 1, samples_per_segment=200)
        minus = idealized_eigenvector_path(0.4, -1, samples_per_segment=200)
        assert np.allclose(
            minus.bloch_points(), -plus.bloch_points(), atol=1e-12
        )
        assert solid_angle(minus.to_bloch_path()) == pytest.approx(
            -solid_angle(plus.to_bloch_path()), abs=1e-12
        )

    def test_mirrored_traversal_under_opposite_sense(self):
        fwd = idealized_eigenvector_path(0.4, 1, samples_per_segment=100)
        conv = Conventions(pulse_sense=1, active_branch_up=True)
        rev = idealized_eigenvector_path(
            0.4, 1, conventions=conv, samples_per_segment=100
        )
        assert solid_angle(rev.to_bloch_path()) == pytest.approx(
            -solid_angle(fwd.to_bloch_path()), abs=1e-12
        )

    def test_segments_are_geodesic_with_zero_dynamical_phase(self):
        m = 400
        path = idealized_eigenvector_path(math.pi / 8, 1, samples_per_segment=m)
        for lo, hi in ((0, m + 1), (m, 2 * m + 1)):
            seg = StatePath(
                path.times[lo:hi], path.states[lo:hi], path.generators[lo:hi]
            )
            assert abs(dynamical_phase(seg)) < 1e-12
            assert check_geodesic(BlochPath(seg.times, seg.bloch_points())) < 1e-9

    def test_holonomy_identity(self):
        theta = math.pi / 8
        path = idealized_eigenvector_path(theta, 1, samples_per_segment=3000)
        gamma = pancharatnam_phase(path)
        area = solid_angle(path.to_bloch_path())
        assert abs(principal_angle(gamma + 0.5 * area)) < 1e-5
        assert gamma == pytest.approx(-2 * theta, abs=1e-5)

    def test_perturbation_breaks_transport(self):
        m = 400
        path = idealized_eigenvector_path(
            math.pi / 4, 1, samples_per_segment=m, perturb=0.01
        )
        seg = StatePath(
            path.times[: m + 1], path.states[: m + 1], path.generators[: m + 1]
        )
        assert abs(dynamical_phase(seg)) > 1e-3
        assert check_geodesic(BlochPath(seg.times, seg.bloch_points())) > 1e-4

    def test_validation(self):
        with pytest.raises(DomainError):
            idealized_eigenvector_path(0.3, 2)
        with pytest.raises(DomainError):
            idealized_eigenvector_path(0.3, 1, samples_per_segment=1)
        with pytest.raises(DomainError):
            _loop_axes(2.0, 1)


class TestSweep:
    def test_default_grid_shape_and_order(self):
        records = run_sweep()
        assert len(records) == 36
        thetas = [rec.config.theta for rec in records]
        assert thetas == sorted(thetas)
        assert [rec.config.n for rec in records[:12]] == list(range(12))
        assert records[0].config.theta == pytest.approx(DEFAULT_THETAS[0])

    def test_degenerate_theta_sweep(self):
        records = run_sweep(thetas=(0.0,))
        for rec in records:
            assert rec.defined
            assert rec.measured.visibility == pytest.approx(1.0, abs=1e-12)
            wrapped = abs(principal_angle(rec.measured.gamma))
            assert wrapped < 1e-12 or abs(wrapped - math.pi) < 1e-12

    def test_purity_index_of_any_integer_type_is_stored_as_an_int(self):
        config = ExperimentConfig(0.3, np.int64(2))
        assert type(config.n) is int and config == ExperimentConfig(0.3, 2)
        (numpy_row,) = run_sweep(thetas=[0.3], n_values=[np.int64(2)])
        (int_row,) = run_sweep(thetas=[0.3], n_values=[2])
        assert type(numpy_row.config.n) is int
        assert records_to_csv([numpy_row]) == records_to_csv([int_row])

    def test_generator_grids_are_read_once(self):
        # run_sweep reads each input once: a generator of purity indices
        # serves every theta, as a list does
        listed = run_sweep(thetas=(0.3, 0.9), n_values=[0, 4, 7])
        generated = run_sweep(thetas=(0.3, 0.9), n_values=(n for n in (0, 4, 7)))
        assert len(generated) == 6
        assert records_to_json(generated) == records_to_json(listed)

    def test_empty_grids_rejected(self):
        with pytest.raises(DomainError):
            run_sweep(thetas=())
        with pytest.raises(DomainError):
            run_sweep(n_values=())

    def test_summary_statistics(self):
        records = run_sweep(thetas=(math.pi / 8,))
        summary = sweep_summary(records)
        assert summary["rows"] == 12
        assert summary["defined_rows"] == 12
        assert summary["max_abs_residual_rad"] < 1e-9
        assert summary["rms_residual_rad"] <= summary["max_abs_residual_rad"]


CALIBRATED = (Conventions(-1, True), Conventions(-1, False))

grids = st.fixed_dictionaries({
    "thetas": st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=3),
    "n_values": st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True),
    "model": st.sampled_from(MODELS),
    "relaxation": st.sampled_from((None, (0.3, 0.4))),
    "conventions": st.sampled_from(CALIBRATED),
})


def same_value(a, b):
    return a == b or (a != a and b != b)  # nan residuals of undefined rows


class TestGridPipeline:
    def test_sweep_prepares_once_and_mixes_once_per_n(self, monkeypatch):
        calls = {"pure": 0, "mixed": []}
        real_pure, real_mixed = prepare_effective_pure, prepare_mixed

        def counting_pure(*args, **kwargs):
            calls["pure"] += 1
            return real_pure(*args, **kwargs)

        def counting_mixed(rho, n, *args, **kwargs):
            calls["mixed"].append(n)
            return real_mixed(rho, n, *args, **kwargs)

        monkeypatch.setattr(experiment, "prepare_effective_pure", counting_pure)
        monkeypatch.setattr(experiment, "prepare_mixed", counting_mixed)
        records = run_sweep(thetas=(0.1, 0.4, 0.9, 1.3), n_values=(0, 5, 9))
        assert len(records) == 12
        assert calls == {"pure": 1, "mixed": [0, 5, 9]}

    @pytest.mark.parametrize("model", MODELS)
    def test_sweep_builds_each_cycle_once_per_theta(self, model, monkeypatch):
        built = {"program": [], "unitary": []}
        real_program, real_unitary = cycle_program, experiment._controlled_cycle

        def counting_program(theta):
            built["program"].append(theta)
            return real_program(theta)

        def counting_unitary(theta, conventions):
            built["unitary"].append(theta)
            return real_unitary(theta, conventions)

        monkeypatch.setattr(experiment, "cycle_program", counting_program)
        monkeypatch.setattr(experiment, "_controlled_cycle", counting_unitary)
        thetas = (0.1, 0.4, 0.9, 1.3)
        records = run_sweep(thetas=thetas, n_values=(0, 5, 9), model=model)
        assert len(records) == 12
        assert built["program"] == list(thetas)
        assert built["unitary"] == ([] if model == "literal-sequence" else list(thetas))

    def test_idealized_cycle_is_checked_once_per_theta(self, monkeypatch):
        checked = []
        real_check = experiment.is_unitary

        def counting_check(u):
            checked.append(u)
            return real_check(u)

        monkeypatch.setattr(experiment, "is_unitary", counting_check)
        thetas = (0.1, 0.4, 0.9, 1.3)
        records = run_sweep(thetas=thetas, n_values=(0, 5, 9), model="idealized-controlled-U")
        assert len(records) == 12 and len(checked) == len(thetas)
        real_unitary = experiment._controlled_cycle
        monkeypatch.setattr(
            experiment, "_controlled_cycle", lambda *args: real_unitary(*args) * (1 + 1e-6)
        )
        with pytest.raises(DomainError, match="^propagator is not unitary within tolerance$"):
            run_sweep(thetas=thetas, n_values=(0,), model="idealized-controlled-U")

    def test_sweep_compiles_each_distinct_program_once(self):
        # the compile cache starts empty in every test (conftest.py)
        records = run_sweep(thetas=(0.1, 0.4, 0.9, 1.3), n_values=(0, 5, 9))
        # one preparation, three mixings and one cycle per theta
        assert pulse._compile.cache_info().misses == 1 + 3 + 4
        for rec in records:
            single = run_single(rec.config)
            for field in dataclasses.fields(RunRecord):
                assert same_value(getattr(rec, field.name), getattr(single, field.name))

    def test_single_record_keeps_its_config(self):
        config = ExperimentConfig(0.3, 4, "idealized-controlled-U")
        assert run_single(config).config is config

    @settings(max_examples=25, deadline=None)
    @given(grid=grids)
    @example(grid={"thetas": [math.pi / 4, 0.0, math.pi / 2], "n_values": [6, 0],
                   "model": "literal-sequence", "relaxation": (0.3, 0.4),
                   "conventions": CALIBRATED[1]})
    @example(grid={"thetas": [0.3, 1.1, 0.3, 0.0, -0.0], "n_values": [3, 0],
                   "model": "idealized-controlled-U", "relaxation": None,
                   "conventions": CALIBRATED[0]})
    def test_sweep_properties(self, grid):
        records = run_sweep(**grid)
        other_model = next(m for m in MODELS if m != grid["model"])
        others = run_sweep(**{**grid, "model": other_model})
        conv = grid["conventions"]
        flipped = run_sweep(
            **{**grid, "conventions": Conventions(-1, not conv.active_branch_up)}
        )
        for rec, other, mirror in zip(records, others, flipped):
            single = run_single(rec.config)
            for field in dataclasses.fields(RunRecord):
                assert same_value(getattr(rec, field.name), getattr(single, field.name))
            cfg = rec.config
            theory = qubit_mixed_phase(cfg.purity, cfg.omega, conv.orientation)
            assert rec.defined == theory.defined
            # a ratio of two computed magnitudes: 1 up to roundoff at r = 1
            assert 0.0 <= rec.measured.visibility <= 1.0 + 1e-12
            assert other.measured.visibility == pytest.approx(
                rec.measured.visibility, abs=1e-12
            )
            assert other.defined == mirror.defined == rec.defined
            if rec.defined:
                assert abs(principal_angle(other.measured.gamma - rec.measured.gamma)) < 1e-12
                assert abs(principal_angle(mirror.measured.gamma + rec.measured.gamma)) < 1e-12


class TestReadoutIdentity:
    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.0, math.pi / 2), n=st.integers(0, 11),
           conv=st.sampled_from(CALIBRATED))
    @example(theta=math.pi / 4, n=6, conv=CALIBRATED[0])  # vanishing contrast
    @example(theta=math.pi / 2, n=0, conv=CALIBRATED[1])
    def test_branch_propagators_predict_the_readout(self, theta, n, conv):
        # v e^{i gamma} = tr(U_down^dagger U_up rho_b) for any cycle that keeps
        # the spin-a branches apart, with rho_b the mixed spin-b state
        rec = run_single(ExperimentConfig(theta, n, conventions=conv))
        up, down = branch_propagators(
            cycle_program(theta), pulse_sense=conv.pulse_sense, iz_sign=conv.iz_sign
        )
        rho_b = 0.5 * (identity2 + rec.config.purity * pauli_x)
        z = complex(np.trace(down.conj().T @ up @ rho_b))
        assert abs(abs(z) - rec.measured.visibility) <= 1e-12
        if rec.defined:
            measured = rec.measured.visibility * cmath.exp(1j * rec.measured.gamma)
            assert abs(z - measured) <= 1e-12
        else:
            assert abs(z) < 1e-9


@st.composite
def checked_states(draw):
    """A 4x4 state that passed the constructor's check: a normalized state
    (full rank, pure of rank one, or diagonal with zero populations) or a
    deviation operator (full or diagonal), given exactly or Hermitian only
    within 1e-13."""
    kind = draw(st.sampled_from(("mixed", "pure", "diagonal", "deviation", "diagonal deviation")))
    noisy = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if kind == "mixed":
        m = a @ a.conj().T
        m /= np.trace(m).real
    elif kind == "pure":
        m = np.outer(a[0], a[0].conj()) / np.vdot(a[0], a[0]).real
    elif kind == "diagonal":
        w = rng.uniform(0.0, 1.0, size=4) * rng.integers(0, 2, size=4)
        w[rng.integers(4)] += 0.5
        m = np.diag(w / w.sum()).astype(complex)
    elif kind == "deviation":
        m = a + a.conj().T
        m -= np.trace(m) / 4 * np.eye(4)
    else:
        m = np.diag(rng.normal(size=4)).astype(complex)
    noise = rng.uniform(-1e-13, 1e-13, size=(2, 4, 4)) * noisy
    return DensityOperator(m + noise[0] + 1j * noise[1], normalized="deviation" not in kind)


def packed(c: complex) -> bytes:
    """The bits of a complex number's two doubles, so that signed zeros count."""
    return struct.pack("<dd", c.real, c.imag)


class TestEachStateCheckedOnce:
    @settings(max_examples=300, deadline=None)
    @given(rho=checked_states())
    def test_crusher_keeps_the_bits_of_a_second_check(self, rho):
        # the crusher no longer checks its diagonal copy; the check it
        # dropped would have returned these very bits
        zeros = np.zeros((4, 4), dtype=complex)
        zeros.ravel()[::5] = rho.matrix.diagonal()
        out = gradient_crusher(rho)
        assert not out.matrix.flags.writeable
        assert out.normalized is rho.normalized
        assert out.matrix.tobytes() == qcore._validated(zeros, rho.normalized).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(rho=checked_states())
    def test_coherence_is_the_reduced_state_entry(self, rho):
        want = complex(partial_trace(rho, "a").matrix[0, 1])
        assert packed(spin_a_coherence(rho)) == packed(want)

    def test_check_counts_along_a_grid_point(self, monkeypatch):
        thermal = thermal_state()
        calls = []

        def counting(m, normalized, **certificate):
            calls.append(m.shape)
            return checked(m, normalized, **certificate)

        checked = qcore._validated
        monkeypatch.setattr(qcore, "_validated", counting)
        monkeypatch.setattr(pulse, "_validated", counting)
        counts = []
        pure = prepare_effective_pure(thermal)
        counts.append(len(calls))
        mixed = prepare_mixed(pure, 3)
        counts.append(len(calls))
        out, _ = run_sequence(mixed, cycle_program(0.3), pulse_sense=-1)
        counts.append(len(calls))
        readout_phase(out, spin_a_coherence(mixed))
        counts.append(len(calls))
        # one check per stretch; crushers and the readout check nothing
        assert np.diff([0, *counts]).tolist() == [2, 2, 1, 0]


SWEEP_COLUMNS = (
    "omega_rad",
    "theta_rad",
    "n",
    "r",
    "gamma_sim_rad",
    "gamma_theory_rad",
    "visibility_sim",
    "visibility_theory",
    "residual_rad",
    "defined",
)


class TestSerializers:
    def test_csv_schema_and_undefined_row(self):
        records = run_sweep(thetas=(math.pi / 4,), n_values=(0, 6))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        defined_row = lines[1].split(",")
        assert defined_row[2] == "0"
        assert defined_row[-1] == "true"
        undefined_row = lines[2].split(",")
        assert undefined_row[4] == "nan"
        assert undefined_row[8] == "nan"
        assert undefined_row[-1] == "false"
        assert lines[-2].startswith("# max_abs_residual_rad = ")
        assert lines[-1].startswith("# rms_residual_rad = ")

    def test_csv_floats_round_trip(self):
        records = run_sweep(thetas=(math.pi / 8,), n_values=(1,))
        row = records_to_csv(records).strip().split("\n")[1].split(",")
        assert float(row[0]) == records[0].config.omega
        assert float(row[4]) == records[0].measured.gamma

    def test_json_payload(self):
        records = run_sweep(thetas=(math.pi / 4,), n_values=(0, 6))
        payload = json.loads(records_to_json(records))
        assert set(payload) == {"rows", "summary"}
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["gamma_sim_rad"] == records[0].measured.gamma
        assert payload["rows"][1]["gamma_sim_rad"] is None
        assert payload["rows"][1]["defined"] is False
        assert payload["summary"]["defined_rows"] == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_has_no_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            experiment.render_table("json", [], {}, {"x": value})

    def test_serialization_is_deterministic(self):
        records = run_sweep(thetas=(math.pi / 8,), n_values=(0, 3))
        again = run_sweep(thetas=(math.pi / 8,), n_values=(0, 3))
        assert records_to_csv(records) == records_to_csv(again)
        assert records_to_json(records) == records_to_json(again)

    def test_record_values_keys(self):
        rec = run_single(ExperimentConfig(math.pi / 8, 0))
        assert tuple(record_values(rec)) == SWEEP_COLUMNS


# A guard `if deviation > tol: raise` passes NaN, since every comparison with
# NaN is false; each guard below must fail on it with its own message.
NAN_GUARDS = {
    "density-hermitian": (
        lambda: DensityOperator(np.full((2, 2), math.nan), normalized=False),
        "density matrix entries must be finite",
    ),
    "normalized-density-hermitian": (
        lambda: DensityOperator(np.full((4, 4), math.nan)),
        "density matrix entries must be finite",
    ),
    "rotation-axis": (
        lambda: rotation_unitary([math.nan, 0.0, 0.0], 1.0),
        "rotation axis must be a unit vector",
    ),
    "bloch-path-times": (
        lambda: BlochPath([0.0, math.nan], [[0, 0, 1], [0, 0, 1]]),
        "sample times must be nondecreasing",
    ),
    # one sample has no successor to compare its time with
    "bloch-path-single-time": (
        lambda: BlochPath([math.nan], [[0, 0, 1]]),
        "sample times must be nondecreasing",
    ),
    "bloch-path-points": (
        lambda: BlochPath([0.0, 1.0], [[0, 0, math.nan], [0, 0, 1]]),
        "path points must be unit vectors",
    ),
    "state-path-times": (
        lambda: StatePath([0.0, math.nan], [[1, 0], [1, 0]]),
        "sample times must be nondecreasing",
    ),
    "state-path-single-time": (
        lambda: StatePath([math.nan], [[1, 0]]),
        "sample times must be nondecreasing",
    ),
    "state-path-states": (
        lambda: StatePath([0.0, 1.0], [[math.nan, 0], [1, 0]]),
        "states must be normalized",
    ),
    # a StatePath cannot hold NaN, but the phase reads only .states
    "pancharatnam-closure": (
        lambda: pancharatnam_phase(
            SimpleNamespace(states=np.array([[math.nan, 0], [1, 0]]))
        ),
        "path is not closed up to phase",
    ),
    "stage-direction": (
        lambda: experiment._run_stage(
            DensityOperator(np.diag([1.0, -1.0, 0.0, 0.0]), normalized=False),
            make_program([]), DEFAULT_CONVENTIONS, np.full((4, 4), math.nan), "stage",
        ),
        "stage missed its target state",
    ),
    "readout-reference": (
        lambda: readout_phase(thermal_state(), math.nan),
        "reference coherence is zero; prepare the state first",
    ),
    "weights-sign": (
        lambda: sjoqvist_average([0.5, math.nan], [0.0, 1.0]),
        "weights must be nonnegative",
    ),
    "weighted-phases": (
        lambda: sjoqvist_average([1.0], [math.nan]),
        "phases must be finite",
    ),
    "mixed-phase-omega": (
        lambda: qubit_mixed_phase(0.5, math.nan),
        "solid angle omega must be finite",
    ),
    "free-evolution-time": (
        lambda: free_evolution_unitary(SpinSystemParams(), math.nan),
        "evolution time must be finite and nonnegative",
    ),
    "relaxation-time": (
        lambda: apply_t2_relaxation(thermal_state(), math.nan, 0.3, 0.4),
        "relaxation time must be finite and nonnegative",
    ),
    "path-perturb": (
        lambda: idealized_eigenvector_path(0.3, perturb=math.nan), "perturb must be finite",
    ),
}


@pytest.mark.parametrize("guard", sorted(NAN_GUARDS))
def test_nan_fails_the_guard(guard):
    build, message = NAN_GUARDS[guard]
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value).startswith(message)


QUBIT = DensityOperator(np.eye(2) / 2)
NO_DEVIATION = DensityOperator(np.zeros((4, 4)), normalized=False)
FRAME_B = FrameOffset("b", Fraction(-1, 2), "piJ")

# Input guards of the API, one case each: the call and the start of the
# message it must raise.
REJECTIONS = {
    "convention-sense": (
        lambda: Conventions(pulse_sense=2), "pulse_sense must be +1 or -1",
    ),
    "convention-sense-bool": (
        lambda: Conventions(pulse_sense=True), "pulse_sense must be +1 or -1 as an int",
    ),
    "convention-sense-float": (
        lambda: Conventions(pulse_sense=-1.0), "pulse_sense must be +1 or -1 as an int",
    ),
    "convention-active-str": (
        lambda: Conventions(active_branch_up="no"), "active_branch_up must be a bool",
    ),
    "convention-active-int": (
        lambda: Conventions(active_branch_up=1), "active_branch_up must be a bool",
    ),
    "config-conventions-tuple": (
        lambda: run_sweep(thetas=(0.3,), n_values=(0,), conventions=(-1, True)),
        "ExperimentConfig.conventions must be a Conventions",
    ),
    "config-conventions-str": (
        lambda: run_single(ExperimentConfig(0.3, 0, conventions="sense=-1")),
        "ExperimentConfig.conventions must be a Conventions",
    ),
    "density-shape": (
        lambda: DensityOperator(np.zeros((3, 3))), "expected a 2x2 or 4x4 matrix",
    ),
    "partial-trace-qubit": (
        lambda: partial_trace(QUBIT, "a"), "partial_trace expects a two-spin state",
    ),
    "crusher-qubit": (
        lambda: gradient_crusher(QUBIT), "crusher model is defined for the two-spin system",
    ),
    "relaxation-qubit": (
        lambda: apply_t2_relaxation(QUBIT, 0.1, 0.3, 0.4),
        "relaxation model is defined for the two-spin system",
    ),
    "sequence-qubit": (
        lambda: run_sequence(QUBIT, make_program([])), "sequences act on the two-spin system",
    ),
    "coherence-qubit": (
        lambda: spin_a_coherence(QUBIT), "spin-a coherence is defined for the two-spin system",
    ),
    "relaxation-time-negative": (
        lambda: apply_t2_relaxation(thermal_state(), -1.0, 0.3, 0.4),
        "relaxation time must be finite and nonnegative",
    ),
    "relaxation-time-infinite": (
        lambda: apply_t2_relaxation(thermal_state(), math.inf, 0.3, 0.4),
        "relaxation time must be finite and nonnegative",
    ),
    "evolution-time-infinite": (
        lambda: free_evolution_unitary(SpinSystemParams(), math.inf),
        "evolution time must be finite and nonnegative",
    ),
    "samples-per-delay": (
        lambda: run_sequence(thermal_state(), cycle_program(0.3), record=True,
                             samples_per_delay=0),
        "samples_per_delay must be an integer of at least 1",
    ),
    "samples-per-delay-bool": (
        lambda: run_sequence(thermal_state(), cycle_program(0.3), record=True,
                             samples_per_delay=True),
        "samples_per_delay must be an integer of at least 1",
    ),
    "samples-per-delay-float": (
        lambda: run_sequence(thermal_state(), cycle_program(0.3), record=True,
                             samples_per_delay=2.0),
        "samples_per_delay must be an integer of at least 1",
    ),
    # a sign is an int: a bool, float or numpy scalar equal to +-1 is refused
    "sequence-pulse-sense-bool": (
        lambda: run_sequence(thermal_state(), cycle_program(0.3), pulse_sense=True),
        "pulse sense must be +1 or -1",
    ),
    "sequence-iz-sign-numpy": (
        lambda: run_sequence(thermal_state(), cycle_program(0.3), iz_sign=np.float64(-1.0)),
        "iz_sign must be +1 or -1",
    ),
    "branch-pulse-sense-float": (
        lambda: branch_propagators(cycle_program(0.3), pulse_sense=1.0),
        "pulse sense must be +1 or -1",
    ),
    "branch-iz-sign-bool": (
        lambda: branch_propagators(cycle_program(0.3), iz_sign=True),
        "iz_sign must be +1 or -1",
    ),
    "eigenvector-label-float": (
        lambda: idealized_eigenvector_path(0.3, eigen_sign=-1.0),
        "eigenvector label must be +1 or -1",
    ),
    "traversal-sense-bool": (
        lambda: lune_holonomy(0.3, True), "traversal sense must be +1 or -1",
    ),
    "orientation-sign-numpy": (
        lambda: qubit_mixed_phase(0.5, 1.0, sign=np.int64(1)),
        "orientation sign must be +1 or -1",
    ),
    "samples-per-segment-fraction": (
        lambda: idealized_eigenvector_path(0.3, samples_per_segment=2.5),
        "samples_per_segment must be an integer of at least 2",
    ),
    "samples-per-segment-float": (
        lambda: idealized_eigenvector_path(0.3, samples_per_segment=3.0),
        "samples_per_segment must be an integer of at least 2",
    ),
    "samples-per-segment-str": (
        lambda: idealized_eigenvector_path(0.3, samples_per_segment="3"),
        "samples_per_segment must be an integer of at least 2",
    ),
    "lune-samples-fraction": (
        lambda: lune_path(LuneSpec(0.3), 9.5), "n_samples must be an integer of at least 8",
    ),
    "lune-samples-float": (
        lambda: lune_path(LuneSpec(0.3), 10.0), "n_samples must be an integer of at least 8",
    ),
    "lune-samples-few": (
        lambda: lune_path(LuneSpec(0.3), 7), "n_samples must be an integer of at least 8",
    ),
    "theta-str": (
        lambda: cycle_program("0.5"), "inclination angle must be a real number",
    ),
    "theta-bytes": (
        lambda: check_inclination(b"0.5"), "inclination angle must be a real number",
    ),
    "theta-complex": (
        lambda: check_inclination(0.5 + 0j), "inclination angle must be a real number",
    ),
    "theta-numpy-complex": (
        lambda: ExperimentConfig(np.complex128(0.5), 1), "inclination angle must be a real number",
    ),
    "compile-event-type": (
        lambda: pulse._stretches(make_program(["bogus"]), 1, 1), "unknown event type str",
    ),
    # an argument of the wrong type is named, with the type it got
    "sequence-state-array": (
        lambda: run_sequence(np.eye(4) / 4, make_program([])),
        "rho0 must be a DensityOperator, not ndarray",
    ),
    "partial-trace-array": (
        lambda: partial_trace(np.eye(4) / 4, "a"), "rho must be a DensityOperator, not ndarray",
    ),
    "crusher-array": (
        lambda: gradient_crusher(np.eye(4) / 4), "rho must be a DensityOperator, not ndarray",
    ),
    "relaxation-array": (
        lambda: apply_t2_relaxation(np.eye(4) / 4, 0.1, 0.3, 0.4),
        "rho must be a DensityOperator, not ndarray",
    ),
    "coherence-array": (
        lambda: spin_a_coherence(np.eye(4) / 4), "rho must be a DensityOperator, not ndarray",
    ),
    "sequence-program-list": (
        lambda: run_sequence(thermal_state(), [Gradient()]),
        "prog must be a SequenceProgram, not list",
    ),
    "branch-program-list": (
        lambda: branch_propagators([Gradient()]), "prog must be a SequenceProgram, not list",
    ),
    "free-evolution-params-none": (
        lambda: free_evolution_unitary(None, 1.0),
        "params must be a SpinSystemParams, not NoneType",
    ),
    "render-event-type": (
        # refused when the program is built, before render_sequence sees it
        lambda: render_sequence(make_program([[1]])), "unknown event type list",
    ),
    "rotation-spin": (lambda: Rotation("c", "x", 1.0), "unknown spin label 'c'"),
    "rotation-axis-label": (lambda: Rotation("a", "z", 1.0), "unknown axis label 'z'"),
    "frame-spin": (lambda: FrameOffset("c", 1.0, "Hz"), "unknown spin label 'c'"),
    "rotation-flip-str": (
        lambda: Rotation("a", "x", "1"), "Rotation.flip must be a real number",
    ),
    "rotation-axis-none": (
        lambda: Rotation("a", None, 1.0), "Rotation.axis must be a real number",
    ),
    "frame-value-str": (
        lambda: FrameOffset("b", "1", "Hz"), "FrameOffset.value must be a real number",
    ),
    "delay-seconds-str": (lambda: Delay(seconds="1"), "Delay.seconds must be a real number"),
    "rotation-flip-overflow": (
        lambda: Rotation("b", "x", Fraction(10**400)), "Rotation.flip must fit a float",
    ),
    "frame-value-overflow": (
        lambda: make_program([], frames=(FrameOffset("b", Fraction(10**400), "Hz"),)),
        "FrameOffset.value must fit a float",
    ),
    "delay-per-j-overflow": (
        lambda: Delay(per_j=Fraction(10**400)), "Delay.per_j must fit a float",
    ),
    "delay-seconds-overflow": (
        lambda: Delay(seconds=10**400), "Delay.seconds must fit a float",
    ),
    "params-omega-str": (
        lambda: SpinSystemParams(omega_a="1"), "SpinSystemParams.omega_a must be a real number",
    ),
    "params-omega-list": (
        lambda: SpinSystemParams(omega_a=[1]), "SpinSystemParams.omega_a must be a real number",
    ),
    "rotation-flip-list": (
        lambda: Rotation("b", "x", [1]), "Rotation.flip must be a real number",
    ),
    "rotation-flip-numpy-complex": (
        lambda: Rotation("b", "x", np.complex128(0.5)), "Rotation.flip must be a real number",
    ),
    "delay-seconds-complex": (
        lambda: Delay(seconds=1 + 2j), "Delay.seconds must be a real number",
    ),
    "delay-seconds-bytes": (lambda: Delay(seconds=b"1"), "Delay.seconds must be a real number"),
    "frame-value-dict": (
        lambda: FrameOffset("b", {}, "Hz"), "FrameOffset.value must be a real number",
    ),
    "rotation-axis-overflow": (
        lambda: Rotation("b", 10**400, 0.5), "Rotation.axis must fit a float",
    ),
    "frame-value-overflow-built": (
        lambda: FrameOffset("b", Fraction(10**400), "Hz"), "FrameOffset.value must fit a float",
    ),
    "purity-index-bool": (
        lambda: ExperimentConfig(0.3, True), "purity index must be an integer in [0, 11]",
    ),
    "sweep-purity-index-float": (
        lambda: run_sweep(thetas=[0.3], n_values=[1.5]),
        "purity index must be an integer in [0, 11]",
    ),
    "sweep-theta-str": (
        lambda: run_sweep(thetas=["0.5"], n_values=[1]), "inclination angle must be a real number",
    ),
    "frame-unit": (
        lambda: FrameOffset("a", 1.0, "kHz"), "unknown frame offset unit 'kHz'",
    ),
    "program-frame-twice": (
        lambda: SequenceProgram((), SpinSystemParams(), (FRAME_B, FRAME_B)),
        "spin b has more than one frame directive",
    ),
    "program-frame-type": (
        lambda: make_program([], frames=("x",)),
        "SequenceProgram.frames must hold FrameOffsets, not str",
    ),
    "program-params-type": (
        lambda: make_program([], params="p"), "SequenceProgram.params must be a SpinSystemParams",
    ),
    "relaxation-complex": (
        lambda: ExperimentConfig(0.3, 1, relaxation=(1j, 1)), "relaxation must be a pair",
    ),
    "relaxation-one-time": (
        lambda: ExperimentConfig(0.3, 1, relaxation=[1]), "relaxation must be a pair",
    ),
    "relaxation-three-times": (
        lambda: ExperimentConfig(0.3, 1, relaxation=(1, 2, 3)), "relaxation must be a pair",
    ),
    "relaxation-str": (
        lambda: ExperimentConfig(0.3, 1, relaxation=("a", 1)), "relaxation must be a pair",
    ),
    "program-frame-bound": (
        lambda: SequenceProgram((), SpinSystemParams(), (FrameOffset("a", 50, "piJ"),)),
        "frame offset exceeds the 10*2piJ sanity bound",
    ),
    # a frame whose rad/s offset overflows a float is past the bound too
    "program-frame-bound-past-max-float-piJ": (
        lambda: SequenceProgram((), SpinSystemParams(), (FrameOffset("a", 1e306, "piJ"),)),
        "frame offset exceeds the 10*2piJ sanity bound",
    ),
    "program-frame-bound-past-max-float-Hz": (
        lambda: SequenceProgram((), SpinSystemParams(), (FrameOffset("b", -1e308, "Hz"),)),
        "frame offset exceeds the 10*2piJ sanity bound",
    ),
    # the bound is checked once, when the program's params are built
    "program-frame-twice-first-out-of-bound": (
        lambda: SequenceProgram(
            (), SpinSystemParams(), (FrameOffset("b", 50, "piJ"), FRAME_B)
        ),
        "spin b has more than one frame directive",
    ),
    "path-perturb-overflow": (
        lambda: idealized_eigenvector_path(math.pi / 4, perturb=1e308),
        "perturb tilts a loop axis past normalization",
    ),
    "prepare-zero-deviation": (
        lambda: prepare_effective_pure(NO_DEVIATION),
        "deviation vanishes; no direction to compare",
    ),
    "bloch-path-shape": (
        lambda: BlochPath([0.0], [[0, 0, 1], [0, 0, 1]]),
        "path needs matching (N,) times and (N,3) points",
    ),
    "bloch-path-width": (
        lambda: BlochPath([0.0], [[0, 1]]), "path needs matching (N,) times and (N,3) points",
    ),
    "bloch-path-empty": (
        lambda: BlochPath([], np.zeros((0, 3))), "path must contain at least one sample",
    ),
    "state-path-shape": (
        lambda: StatePath([0.0, 1.0], [[1, 0]]),
        "state path needs matching (N,) times and (N,2) states",
    ),
    "state-path-width": (
        lambda: StatePath([0.0], [[1, 0, 0]]),
        "state path needs matching (N,) times and (N,2) states",
    ),
    "state-path-empty": (
        lambda: StatePath([], np.zeros((0, 2))), "state path must contain at least one sample",
    ),
    "state-path-generators": (
        lambda: StatePath([0.0, 1.0], [[1, 0], [1, 0]], np.zeros((1, 2, 2))),
        "generators must be one 2x2 operator per sample",
    ),
    "state-path-generator-shape": (
        lambda: StatePath([0.0, 1.0], [[1, 0], [1, 0]], np.zeros((2, 3, 3))),
        "generators must be one 2x2 operator per sample",
    ),
    # every real scalar passes qcore._check_real, each caller its own range
    "evolution-time-str": (
        lambda: free_evolution_unitary(SpinSystemParams(), "1"),
        "evolution time must be a real number",
    ),
    "evolution-time-complex": (
        lambda: free_evolution_unitary(SpinSystemParams(), 1j),
        "evolution time must be a real number",
    ),
    "evolution-time-overflow": (
        lambda: free_evolution_unitary(SpinSystemParams(), 10**400),
        "evolution time must fit a float",
    ),
    "relaxation-time-str": (
        lambda: apply_t2_relaxation(thermal_state(), "1", 0.3, 0.4),
        "relaxation time must be a real number",
    ),
    "relaxation-time-complex": (
        lambda: apply_t2_relaxation(thermal_state(), 1j, 0.3, 0.4),
        "relaxation time must be a real number",
    ),
    "relaxation-time-overflow": (
        lambda: apply_t2_relaxation(thermal_state(), 10**400, 0.3, 0.4),
        "relaxation time must fit a float",
    ),
    "mixed-phase-purity-str": (
        lambda: qubit_mixed_phase("0.5", 1.0), "purity must be a real number",
    ),
    "mixed-phase-omega-overflow": (
        lambda: qubit_mixed_phase(0.5, 10**400), "solid angle omega must fit a float",
    ),
    "path-perturb-str": (
        lambda: idealized_eigenvector_path(0.3, perturb="0.1"), "perturb must be a real number",
    ),
    "path-perturb-complex": (
        lambda: idealized_eigenvector_path(0.3, perturb=1j), "perturb must be a real number",
    ),
    "path-perturb-past-floats": (
        lambda: idealized_eigenvector_path(0.3, perturb=10**400), "perturb must fit a float",
    ),
    # refused before any arithmetic, so numpy does not warn (an error here)
    "path-perturb-inf": (
        lambda: idealized_eigenvector_path(0.3, perturb=math.inf), "perturb must be finite",
    ),
    "path-perturb-minus-inf": (
        lambda: idealized_eigenvector_path(0.3, perturb=-math.inf), "perturb must be finite",
    ),
    "rotation-angle-nan": (
        lambda: rotation_unitary([1.0, 0.0, 0.0], math.nan), "rotation angle must be finite",
    ),
    "rotation-angle-inf": (
        lambda: rotation_unitary([1.0, 0.0, 0.0], math.inf), "rotation angle must be finite",
    ),
    # text was read character by character, a complex entry lost its
    # imaginary part, and the wrong shapes raised bare errors
    "rotation-axis-text": (
        lambda: rotation_unitary("100", 0.5), "rotation axis entry must be a real number",
    ),
    "rotation-axis-complex": (
        lambda: rotation_unitary(np.array([1 + 1j, 0, 0]), 0.5),
        "rotation axis entry must be a real number",
    ),
    "rotation-axis-python-complex": (
        lambda: rotation_unitary([1j, 0.0, 0.0], 0.5), "rotation axis entry must be a real number",
    ),
    "rotation-axis-past-floats": (
        lambda: rotation_unitary([10**400, 0, 0], 0.5), "rotation axis entry must fit a float",
    ),
    "rotation-axis-two-entries": (
        lambda: rotation_unitary((1, 0), 0.5), "rotation axis must be a 3-vector of real numbers",
    ),
    "rotation-axis-four-entries": (
        lambda: rotation_unitary((1, 0, 0, 0), 0.5),
        "rotation axis must be a 3-vector of real numbers",
    ),
    "rotation-axis-missing": (
        lambda: rotation_unitary(None, 0.5), "rotation axis must be a 3-vector of real numbers",
    ),
    "theta-overflow": (
        lambda: check_inclination(10**400), "inclination angle must fit a float",
    ),
    # a truthy string would otherwise check the matrix as a state
    "density-normalized-str": (
        lambda: DensityOperator(np.eye(4) / 4, normalized="no"), "normalized must be a bool",
    ),
    "density-normalized-none": (
        lambda: DensityOperator(np.eye(4) / 4, normalized=None), "normalized must be a bool",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_input_guard_rejects(case):
    build, message = REJECTIONS[case]
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value).startswith(message)


# Each count, built from a Python int and from a numpy integer: the two
# give the same bits.
COUNTS = {
    "samples_per_delay": lambda k: run_sequence(
        thermal_state(), cycle_program(0.3), record=True, samples_per_delay=k
    )[1].matrices,
    "samples_per_segment": lambda k: idealized_eigenvector_path(
        0.3, samples_per_segment=k
    ).states,
    "n_samples": lambda k: lune_path(LuneSpec(0.3), k).points,
    "purity index": lambda k: run_single(ExperimentConfig(0.3, k), True).snapshots.matrices,
}


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_numpy_integer_counts_give_the_bits_of_an_int(case):
    build = COUNTS[case]
    want = build(9)
    got = build(np.int64(9))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
