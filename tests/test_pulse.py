import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lunephase import pulse, qcore
from lunephase.errors import DomainError
from lunephase.experiment import cycle_program, mixing_program, prepare_pure_program
from lunephase.pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SpinSystemParams,
    apply_t2_relaxation,
    branch_propagators,
    free_evolution_unitary,
    gradient_crusher,
    make_program,
    pulse_unitary,
    run_sequence,
)
from lunephase.qcore import (
    DensityOperator,
    evolve,
    identity2 as I2,
    is_unitary,
    partial_trace,
    pauli_x as X,
    pauli_y as Y,
    pauli_z as Z,
    rotation_unitary,
    tensor,
)

J = 214.5
HALF_J_DELAY = 1 / (2 * J)


def random_two_spin_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m))


OFFSET_BOUND = 10 * 2 * math.pi * J

pulse_events = st.builds(
    Rotation,
    st.sampled_from("ab"),
    st.one_of(st.sampled_from(["x", "-x", "y", "-y"]), st.floats(0.0, 2 * math.pi)),
    st.one_of(
        st.integers(-23, 24).map(lambda k: Fraction(k, 12)),
        st.floats(-6.28, 6.28),
    ),
)
delay_events = st.one_of(
    st.builds(lambda k, d: Delay(per_j=Fraction(k, d)), st.integers(0, 4), st.integers(1, 4)),
    st.floats(0.0, 0.01).map(lambda sec: Delay(seconds=sec)),
)
program_events = st.lists(
    st.one_of(pulse_events, delay_events, st.just(Gradient())), max_size=8
)


def delay_reference(params, start, t, iz_sign):
    """exp(-iHt) start exp(iHt) for the diagonal rotating-frame Hamiltonian
    H = omega_a I_z^a + omega_b I_z^b + 2piJ I_z^a I_z^b."""
    iza = iz_sign * np.kron(np.diag([0.5, -0.5]), np.eye(2))
    izb = iz_sign * np.kron(np.eye(2), np.diag([0.5, -0.5]))
    h = np.diag(
        params.omega_a * iza + params.omega_b * izb
        + 2 * math.pi * J * iza @ izb
    )
    u = np.exp(-1j * h * t)
    return u[:, None] * start * u.conj()[None, :]


class TestSpinSystemParams:
    def test_default_offsets_vanish(self):
        p = SpinSystemParams()
        assert p.omega_a == 0.0 and p.omega_b == 0.0
        assert pulse.DEFAULT_J == J

    def test_rejects_oversized_offset(self):
        with pytest.raises(DomainError):
            SpinSystemParams(omega_a=11 * 2 * math.pi * J)

    def test_frame_shift_sets_offset(self):
        frame = FrameOffset("b", Fraction(-1, 2), "piJ")
        p = make_program([], SpinSystemParams(omega_b=0.3), (frame,)).params
        assert p.omega_b == math.pi * J
        assert p.omega_a == 0.0

    def test_rejects_second_frame_directive_for_one_spin(self):
        frames = (FrameOffset("b", Fraction(-1, 2), "piJ"), FrameOffset("a", 100.0, "Hz"))
        make_program([], frames=frames)
        with pytest.raises(DomainError, match="more than one frame directive"):
            make_program([], frames=frames + frames[:1])


class TestEvents:
    def test_rotation_rejects_out_of_range_flip(self):
        with pytest.raises(DomainError):
            Rotation("b", "x", Fraction(5, 2))  # 2.5pi
        with pytest.raises(DomainError):
            Rotation("b", "x", -2 * math.pi)

    def test_rotation_accepts_full_turn(self):
        assert Rotation("b", "x", Fraction(2)).flip_radians == pytest.approx(2 * math.pi)

    def test_axis_vector_from_phase(self):
        v = Rotation("b", math.pi / 3, Fraction(1, 2)).axis_vector()
        assert np.allclose(v, [0.5, math.sqrt(3) / 2, 0.0])

    def test_delay_needs_exactly_one_duration(self):
        with pytest.raises(DomainError):
            Delay()
        with pytest.raises(DomainError):
            Delay(seconds=0.1, per_j=Fraction(1))
        with pytest.raises(DomainError):
            Delay(seconds=-0.1)
        with pytest.raises(DomainError, match="nonnegative"):
            Delay(per_j=Fraction(-1, 2))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: SpinSystemParams(omega_a=math.nan), "SpinSystemParams.omega_a"),
            (lambda: SpinSystemParams(omega_b=np.float64(math.nan)), "SpinSystemParams.omega_b"),
            (lambda: Delay(seconds=math.nan), "Delay.seconds"),
            (lambda: Delay(seconds=math.inf), "Delay.seconds"),
            (lambda: FrameOffset("b", math.nan, "Hz"), "FrameOffset.value"),
            (lambda: Rotation("b", math.nan, 1.0), "Rotation.axis"),
            (lambda: Rotation("b", math.inf, 1.0), "Rotation.axis"),
            (lambda: Rotation("b", "x", math.nan), "Rotation.flip"),
        ],
        ids=["nan-omega", "nan-numpy-omega", "nan-delay", "inf-delay", "nan-hz-frame",
             "nan-axis", "inf-axis", "nan-flip"],
    )
    def test_non_finite_value_fails_on_construction(self, build, field):
        with pytest.raises(DomainError, match=rf"^{field} must be finite$"):
            build()

    def test_total_duration_exact_for_j_multiples(self):
        prog = make_program([Delay(per_j=Fraction(1, 2)), Delay(per_j=Fraction(1, 2))])
        assert prog.total_duration == 1 / J

    @pytest.mark.parametrize(
        "delay",
        [Delay(per_j=Fraction(17 * 10**307)), Delay(seconds=1.7e308)],
        ids=["per-j", "seconds"],
    )
    def test_total_duration_beyond_a_float_raises(self, delay):
        # each delay alone fits a float, the sum of two does not, so the
        # program's clock refuses it, and with it every run of the program
        prog = make_program([delay, delay])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for attempt in (lambda: prog.total_duration, lambda: run_sequence(rho, prog),
                        lambda: branch_propagators(prog)):
            with pytest.raises(DomainError, match="^total duration is too large for a float$"):
                attempt()


# one builder per value field of the four value classes
VALUE_FIELDS = {
    "SpinSystemParams.omega_a": lambda x: SpinSystemParams(omega_a=x),
    "SpinSystemParams.omega_b": lambda x: SpinSystemParams(omega_b=x),
    "Rotation.axis": lambda x: Rotation("a", x, Fraction(1, 2)),
    "Rotation.flip": lambda x: Rotation("b", "y", x),
    "Delay.seconds": lambda x: Delay(seconds=x),
    "Delay.per_j": lambda x: Delay(per_j=x),
    "FrameOffset.value": lambda x: FrameOffset("b", x, "piJ"),
}
field_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(0.0, 1.0),
    st.integers(0, 16).map(lambda k: Fraction(k, 16)),  # each exact as a float
)


def twins(x):
    """Values equal to x in another form: the other signed zero, a float's
    exact Fraction, a Fraction's float."""
    if isinstance(x, Fraction):
        return [float(x)]
    return [Fraction(x)] + ([-x] if x == 0 else [])


class TestValueIdentity:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(VALUE_FIELDS)), x=field_values)
    @example(name="Rotation.flip", x=Fraction(1))  # pi, not 1 rad
    def test_equal_only_in_the_same_form(self, name, x):
        build = VALUE_FIELDS[name]
        one, again = build(x), build(x)
        assert one == again and hash(one) == hash(again)
        for twin in twins(x):
            assert twin == x
            assert build(twin) != one, (name, x, twin)


class TestFreeEvolution:
    def test_zero_time_is_identity(self):
        assert np.array_equal(free_evolution_unitary(SpinSystemParams(), 0.0), np.eye(4))

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            free_evolution_unitary(SpinSystemParams(), -1e-6)

    def test_on_resonance_half_j_delay(self):
        u = free_evolution_unitary(SpinSystemParams(), HALF_J_DELAY)
        q = np.exp(-1j * math.pi / 4)
        assert np.allclose(np.diag(u), [q, q.conjugate(), q.conjugate(), q], atol=1e-12)

    def test_offset_frame_branch_split(self):
        # omega_b = +piJ, half-J delay: one spin-a branch sees a pi z-rotation
        # on spin b, the other an exact identity
        u = free_evolution_unitary(SpinSystemParams(omega_b=math.pi * J), HALF_J_DELAY)
        up_block, down_block = u[:2, :2], u[2:, 2:]
        assert np.allclose(up_block, rotation_unitary([0, 0, 1], math.pi), atol=1e-12)
        assert np.allclose(down_block, I2, atol=1e-12)

    def test_iz_sign_swaps_branches(self):
        # flipping I_z moves the nontrivial block to the other branch; the
        # block itself conjugates, i.e. becomes the -pi z-rotation
        u = free_evolution_unitary(SpinSystemParams(omega_b=math.pi * J), HALF_J_DELAY, iz_sign=-1)
        assert np.allclose(u[:2, :2], I2, atol=1e-12)
        assert np.allclose(u[2:, 2:], rotation_unitary([0, 0, 1], -math.pi), atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(41)
        p = SpinSystemParams(omega_a=0.3 * J, omega_b=-1.2 * J)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 0.02, size=2)
            left = free_evolution_unitary(p, t1 + t2)
            right = free_evolution_unitary(p, t1) @ free_evolution_unitary(p, t2)
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            p = SpinSystemParams(omega_a=rng.uniform(-5, 5) * J, omega_b=rng.uniform(-5, 5) * J)
            u = free_evolution_unitary(p, rng.uniform(0, 0.05))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


class TestPulseUnitary:
    def test_zero_flip_is_identity(self):
        u = pulse_unitary(Rotation("b", "x", 0.0))
        assert np.allclose(u, np.eye(4))

    def test_matches_rotation_unitary_tensor(self):
        u = pulse_unitary(Rotation("a", "-y", Fraction(1, 2)))
        assert np.allclose(u, tensor(rotation_unitary([0, -1, 0], math.pi / 2), I2), atol=1e-15)

    def test_sense_flips_rotation_direction(self):
        ev = Rotation("b", "x", Fraction(1, 3))
        rho0 = DensityOperator(tensor(np.diag([1, 0]), np.diag([1, 0])))
        for sense in (1, -1):
            u = pulse_unitary(ev, sense=sense)
            out = partial_trace(DensityOperator(u @ rho0.matrix @ u.conj().T), "b")
            r = [np.real(np.trace(out.matrix @ s)) for s in (X, Y, Z)]
            assert np.allclose(
                r, [0.0, -sense * math.sin(math.pi / 3), math.cos(math.pi / 3)], atol=1e-12
            )

    def test_unitarity_random(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            ev = Rotation(
                rng.choice(["a", "b"]),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            )
            u = pulse_unitary(ev, sense=int(rng.choice([1, -1])))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(ev=pulse_events, sense=st.sampled_from((1, -1)))
    def test_embedding_equals_tensor(self, ev, sense):
        u = rotation_unitary(ev.axis_vector(), sense * ev.flip_radians)
        want = tensor(u, I2) if ev.spin == "a" else tensor(I2, u)
        assert np.array_equal(pulse_unitary(ev, sense=sense), want)


class TestGradientCrusher:
    def test_diagonal_state_unchanged(self):
        rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.array_equal(gradient_crusher(rho).matrix, rho.matrix)

    def test_kills_transverse_keeps_longitudinal(self):
        rho = DensityOperator(tensor(0.5 * (I2 + X), 0.5 * (I2 + Z)))
        out = gradient_crusher(rho)
        assert np.allclose(out.matrix, tensor(0.5 * I2, 0.5 * (I2 + Z)), atol=1e-15)

    def test_deviation_operator(self):
        dev = DensityOperator(tensor(X, I2) + tensor(I2, Z), normalized=False)
        out = gradient_crusher(dev)
        assert np.allclose(out.matrix, tensor(I2, Z), atol=1e-15)

    def test_idempotent_and_positivity_preserving(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = random_two_spin_state(rng)
            once = gradient_crusher(rho)
            assert np.array_equal(gradient_crusher(once).matrix, once.matrix)
            assert np.linalg.eigvalsh(once.matrix).min() >= -1e-10
            assert np.trace(once.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_commutes_with_free_evolution(self):
        rng = np.random.default_rng(59)
        p = SpinSystemParams(omega_a=0.7 * J, omega_b=-0.2 * J)
        for _ in range(50):
            rho = random_two_spin_state(rng)
            u = free_evolution_unitary(p, rng.uniform(0, 0.01))
            a = gradient_crusher(DensityOperator(u @ rho.matrix @ u.conj().T))
            inner = gradient_crusher(rho).matrix
            b = u @ inner @ u.conj().T
            assert np.allclose(a.matrix, b, atol=1e-12)


class TestRelaxation:
    def test_zero_time_unchanged(self):
        rng = np.random.default_rng(61)
        rho = random_two_spin_state(rng)
        assert np.allclose(apply_t2_relaxation(rho, 0.0, 0.3, 0.4).matrix, rho.matrix)

    def test_infinite_t2_unchanged(self):
        rng = np.random.default_rng(67)
        rho = random_two_spin_state(rng)
        out = applied = apply_t2_relaxation(rho, 0.05, math.inf, math.inf)
        assert np.allclose(applied.matrix, rho.matrix)
        assert np.allclose(out.matrix, rho.matrix)

    def test_subnormal_t2_dephases_fully(self):
        # t/T2 overflows to inf: the factor is exp(-inf) = 0 on every spin-a
        # coherence, and populations keep exp(-0.0) = 1, never 0*inf = nan
        rng = np.random.default_rng(73)
        rho = random_two_spin_state(rng)
        out = apply_t2_relaxation(rho, 0.05, 1e-320, math.inf).matrix
        assert np.array_equal(np.diag(out), np.diag(rho.matrix))
        assert not out[0, 2] and not out[1, 3] and not out[0, 3]
        assert out[0, 1] == rho.matrix[0, 1]

    def test_rejects_nonpositive_t2(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DomainError):
            apply_t2_relaxation(rho, 0.1, 0.0, 0.4)

    def test_single_quantum_halves_at_ln2(self):
        rho = DensityOperator(tensor(0.5 * (I2 + X), np.diag([1, 0])))
        t2a = 0.3
        out = apply_t2_relaxation(rho, t2a * math.log(2), t2a, 0.4)
        # spin-a single-quantum coherence sits at (0,2) for b = up
        assert abs(out.matrix[0, 2]) == pytest.approx(0.5 * abs(rho.matrix[0, 2]), abs=1e-12)
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix))

    def test_double_quantum_decays_with_both_rates(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = m[3, 0] = 0.25
        np.fill_diagonal(m, 0.25)
        rho = DensityOperator(m)
        t = 0.05
        out = apply_t2_relaxation(rho, t, 0.3, 0.4)
        assert abs(out.matrix[0, 3]) == pytest.approx(
            0.25 * math.exp(-t / 0.3 - t / 0.4), abs=1e-14
        )

    def test_positivity_preserved(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            rho = random_two_spin_state(rng)
            out = apply_t2_relaxation(rho, rng.uniform(0, 0.2), 0.3, 0.4)
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10


class TestRunSequence:
    def test_empty_program(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        final, traj = run_sequence(rho, make_program([]))
        assert final is rho
        assert [t for t, _ in traj] == [0.0, 0.0]
        assert all(state is rho for _, state in traj)
        _, recorded = run_sequence(rho, make_program([]), record=True)
        assert len(recorded) == 1 and recorded[0][0] == 0.0 and recorded[0][1] is rho

    def test_sign_conventions_checked_when_no_event_reads_them(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        crusher_only = make_program([Gradient()])
        pulses_only = make_program([Rotation("b", "x", Fraction(1, 2))])
        with pytest.raises(DomainError, match="pulse sense must be"):
            run_sequence(rho, crusher_only, pulse_sense=0)
        with pytest.raises(DomainError, match="iz_sign must be"):
            run_sequence(rho, crusher_only, iz_sign=7)
        with pytest.raises(DomainError, match="iz_sign must be"):
            run_sequence(rho, pulses_only, iz_sign=7)
        for prog in (crusher_only, make_program([])):
            with pytest.raises(DomainError, match="must be \\+1 or -1"):
                run_sequence(rho, prog, record=True, pulse_sense=5, iz_sign=7)
        with pytest.raises(DomainError, match="must be \\+1 or -1"):
            branch_propagators(make_program([]), pulse_sense=5, iz_sign=7)

    def test_pi_pulse_flips_spin_b(self):
        rho = DensityOperator(tensor(np.diag([1, 0]), np.diag([1, 0])))
        final, _ = run_sequence(rho, make_program([Rotation("b", "x", Fraction(1))]))
        assert np.allclose(final.matrix, tensor(np.diag([1, 0]), np.diag([0, 1])), atol=1e-12)

    def test_trajectory_records_delay_samples(self):
        prog = make_program([Delay(per_j=Fraction(1, 2))])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        final, traj = run_sequence(rho, prog, record=True, samples_per_delay=64)
        assert len(traj) == 65
        assert traj[-1][0] == pytest.approx(HALF_J_DELAY, abs=1e-15)
        assert np.allclose(traj[-1][1].matrix, final.matrix, atol=1e-12)

    def test_final_state_independent_of_sampling(self):
        rng = np.random.default_rng(73)
        prog = make_program(
            [Rotation("b", "x", Fraction(1, 3)), Delay(per_j=Fraction(1, 2)),
             Rotation("b", "-y", Fraction(1, 2)), Delay(per_j=Fraction(1, 4))],
            SpinSystemParams(omega_b=math.pi * J),
        )
        rho = random_two_spin_state(rng)
        coarse, _ = run_sequence(rho, prog, record=True, samples_per_delay=3)
        fine, _ = run_sequence(rho, prog, record=True, samples_per_delay=200)
        plain, _ = run_sequence(rho, prog)
        assert np.array_equal(coarse.matrix, plain.matrix)
        assert np.array_equal(fine.matrix, plain.matrix)

    @settings(max_examples=60, deadline=None)
    @given(
        events=program_events,
        offsets=st.tuples(
            st.floats(-OFFSET_BOUND, OFFSET_BOUND), st.floats(-OFFSET_BOUND, OFFSET_BOUND)
        ),
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        samples=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recording_only_adds_delay_samples(
        self, events, offsets, pulse_sense, iz_sign, samples, seed
    ):
        prog = make_program(events, SpinSystemParams(*offsets))
        rho = random_two_spin_state(np.random.default_rng(seed))
        conv = {"pulse_sense": pulse_sense, "iz_sign": iz_sign}
        plain, ends = run_sequence(rho, prog, **conv)
        final, traj = run_sequence(
            rho, prog, record=True, samples_per_delay=samples, **conv
        )
        assert np.array_equal(final.matrix, plain.matrix)
        delays = sum(isinstance(ev, Delay) for ev in events)
        assert len(traj) == 1 + len(events) + (samples - 1) * delays
        assert traj[0][0] == 0.0 and traj[0][1] is rho
        assert len(ends) == 2 and ends[0][0] == 0.0 and ends[0][1] is rho
        assert ends[1][0] == traj[-1][0] and ends[1][1] is plain
        # independent per-event reference: each event applied on its own,
        # timed by a clock that sums k/J delays exactly and rounds each time
        # once, so a delay's samples sit at its start plus dt*i/samples
        per_j, seconds, t, want, k = Fraction(0), 0.0, 0.0, rho.matrix, 1
        for ev in events:
            if isinstance(ev, Delay):
                dt = ev.duration()
                for i in range(1, samples):
                    time, state = traj[k]
                    assert time == t + dt * i / samples
                    step = delay_reference(prog.params, want, dt * i / samples, iz_sign)
                    assert np.max(np.abs(state.matrix - step)) <= 1e-12
                    k += 1
                want = delay_reference(prog.params, want, dt, iz_sign)
                if ev.per_j is not None:
                    per_j += ev.per_j
                else:
                    seconds += ev.seconds
                t = float(per_j) / J + seconds
            elif isinstance(ev, Rotation):
                u = rotation_unitary(ev.axis_vector(), pulse_sense * ev.flip_radians)
                u = tensor(u, I2) if ev.spin == "a" else tensor(I2, u)
                want = u @ want @ u.conj().T
            else:
                want = np.diag(np.diag(want))
            assert traj[k][0] == t
            assert np.max(np.abs(traj[k][1].matrix - want)) <= 1e-12
            k += 1

    @staticmethod
    def assert_runs_close_at_total_duration(prog, samples, **conv):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        total = prog.total_duration.hex()
        _, plain = run_sequence(rho, prog, **conv)
        _, recorded = run_sequence(rho, prog, record=True, samples_per_delay=samples, **conv)
        assert plain[-1][0].hex() == total
        assert recorded[-1][0].hex() == total

    @settings(max_examples=60, deadline=None)
    @given(
        events=program_events,
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        samples=st.integers(1, 8),
    )
    def test_runs_close_at_total_duration(self, events, pulse_sense, iz_sign, samples):
        self.assert_runs_close_at_total_duration(
            make_program(events), samples, pulse_sense=pulse_sense, iz_sign=iz_sign
        )

    @pytest.mark.parametrize("k", range(2, 40))
    def test_k_delays_of_one_kth_close_at_one_over_j(self, k):
        # a float running sum of these delays lands an ulp off for 17 of them
        prog = make_program([Delay(per_j=Fraction(1, k))] * k)
        assert prog.total_duration == 1 / J
        self.assert_runs_close_at_total_duration(prog, 3)

    def test_every_pulse_factor_is_checked(self, monkeypatch):
        # A and its inverse multiply to the identity, so only a check of
        # each factor, not of the stretch product, can refuse them
        a = np.diag([2.0, 0.5, 2.0, 0.5]).astype(complex)
        factors = iter([a, np.linalg.inv(a)])
        monkeypatch.setattr(pulse, "pulse_unitary", lambda *args, **kw: next(factors))
        quarter = Rotation("b", "x", Fraction(1, 2))
        prog = make_program([quarter, quarter])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DomainError, match="not unitary"):
            run_sequence(rho, prog)

    def test_every_sample_propagator_is_checked(self, monkeypatch):
        # only the stacked sample propagators go wrong: every event
        # propagator, and so every running product, stays unitary
        phases = pulse._free_phases

        def one_bad_sample(params, t, iz_sign):
            out = phases(params, t, iz_sign)
            if np.ndim(t) == 1 and len(t) > 2:
                out[2, 1] *= 1 + 1e-6
            return out

        monkeypatch.setattr(pulse, "_free_phases", one_bad_sample)
        prog = make_program([Rotation("b", "x", Fraction(1, 3)), Delay(per_j=Fraction(1, 2))])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        run_sequence(rho, prog)
        run_sequence(rho, prog, record=True, samples_per_delay=3)
        with pytest.raises(DomainError, match="not unitary"):
            run_sequence(rho, prog, record=True, samples_per_delay=4)

    def test_stretch_product_is_checked_at_compile(self, monkeypatch):
        # each factor's Gram matrix is off by about 8e-11, inside the
        # tolerance, and the product of three by about 2.4e-10, outside it
        exact = pulse.pulse_unitary
        monkeypatch.setattr(
            pulse, "pulse_unitary", lambda ev, sense=1: exact(ev, sense) * (1 + 4e-11)
        )
        quarter = Rotation("b", "x", Fraction(1, 2))
        factor = pulse.pulse_unitary(quarter)
        assert is_unitary(factor) and not is_unitary(factor @ factor @ factor)
        prog = make_program([quarter, quarter, quarter])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        message = "^event propagator is not unitary within tolerance$"
        for record in (False, True):
            with pytest.raises(DomainError, match=message):
                run_sequence(rho, prog, record=record)
        with pytest.raises(DomainError, match=message):
            branch_propagators(prog)

    def test_one_conjugation_per_crusher_free_stretch(self, monkeypatch):
        calls = []
        kernel = qcore._conjugate

        def counting(rho, u, u_adjoint):
            calls.append(u)
            return kernel(rho, u, u_adjoint)

        # unrecorded stretches conjugate directly, recorded ones through evolve
        monkeypatch.setattr(pulse, "_conjugate", counting)
        monkeypatch.setattr(qcore, "_conjugate", counting)
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for record, ndim in ((False, 2), (True, 3)):
            counts = []
            for prog in (prepare_pure_program(), mixing_program(5), cycle_program(0.4)):
                calls.clear()
                run_sequence(rho, prog, record=record, pulse_sense=-1)
                counts.append(len(calls))
                assert all(np.ndim(u) == ndim for u in calls)
            assert counts == [2, 2, 1]

    @pytest.mark.parametrize("normalized", [True, False])
    def test_recorded_states_keep_the_state_invariants(self, normalized):
        rng = np.random.default_rng(89)
        start = random_two_spin_state(rng).matrix
        if not normalized:
            start = start - np.eye(4) / 4
        rho = DensityOperator(start, normalized=normalized)
        prog = make_program(
            [Rotation("b", "x", Fraction(1, 4)), Delay(per_j=Fraction(1, 2)), Gradient(),
             Rotation("a", "y", 0.3), Delay(seconds=1e-3), Rotation("b", "-x", 1.1)],
            SpinSystemParams(omega_a=0.4 * J, omega_b=math.pi * J),
        )
        _, traj = run_sequence(rho, prog, record=True, samples_per_delay=16)
        assert len(traj) == 1 + 6 + 2 * 15
        for _, state in traj:
            assert not state.matrix.flags.writeable
            assert np.array_equal(state.matrix, state.matrix.conj().T)
            assert state.normalized is normalized

    @settings(max_examples=60, deadline=None)
    @given(
        events=program_events,
        offsets=st.tuples(
            st.floats(-OFFSET_BOUND, OFFSET_BOUND), st.floats(-OFFSET_BOUND, OFFSET_BOUND)
        ),
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        normalized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_run_is_evolve_over_the_compiled_stretches(
        self, events, offsets, pulse_sense, iz_sign, normalized, seed
    ):
        prog = make_program(events, SpinSystemParams(*offsets))
        start = random_two_spin_state(np.random.default_rng(seed)).matrix
        if not normalized:
            start = start - np.eye(4) / 4
        rho = DensityOperator(start, normalized=normalized)
        off_diagonal = ~np.eye(4, dtype=bool)
        want = rho
        for stretch in pulse._compile(prog, pulse_sense, iz_sign):
            if isinstance(stretch, Gradient):
                crushed = gradient_crusher(want)
                assert crushed.matrix.tobytes() == np.diag(np.diag(want.matrix)).tobytes()
                # no -0.0 off the diagonal, as a mask product would leave
                assert not np.signbit(crushed.matrix[off_diagonal].view(float)).any()
                want = crushed
                continue
            for step in stretch:
                assert step.adjoint.tobytes() == step.product.conj().T.tobytes()
                assert not step.adjoint.flags.writeable
            want = evolve(want, stretch[-1].product)
        got, _ = run_sequence(rho, prog, pulse_sense=pulse_sense, iz_sign=iz_sign)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.normalized is normalized

    def test_samples_per_delay_must_be_an_integer(self):
        prog = make_program([Delay(per_j=Fraction(1, 2))])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DomainError, match="samples_per_delay"):
            run_sequence(rho, prog, record=True, samples_per_delay=2.5)
        _, traj = run_sequence(rho, prog, record=True, samples_per_delay=np.int64(3))
        assert [t for t, _ in traj] == [0.0, HALF_J_DELAY / 3, 2 * HALF_J_DELAY / 3, HALF_J_DELAY]

    def test_samples_do_not_drift_with_their_count(self):
        # each sample comes from the delay's start state under its own
        # propagator, so the 4000th is as close to the closed form as the first
        samples = 4000
        u = tensor(I2, rotation_unitary([1, 0, 0], 0.7))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = SpinSystemParams(*rng.uniform(-OFFSET_BOUND, OFFSET_BOUND, size=2))
            rho = random_two_spin_state(rng)
            prog = make_program([Rotation("b", "x", 0.7), Delay(per_j=Fraction(1, 2))], params)
            _, traj = run_sequence(rho, prog, record=True, samples_per_delay=samples)
            start = u @ rho.matrix @ u.conj().T
            assert len(traj) == 2 + samples
            for i, (_, state) in enumerate(traj[2:], start=1):
                want = delay_reference(params, start, HALF_J_DELAY * i / samples, 1)
                assert np.max(np.abs(state.matrix - want)) <= 1e-14

    def test_trace_and_hermiticity_at_every_sample(self):
        rng = np.random.default_rng(79)
        prog = make_program(
            [Rotation("b", "x", Fraction(1, 4)), Delay(per_j=Fraction(1, 2)), Gradient()],
            SpinSystemParams(omega_b=math.pi * J),
        )
        rho = random_two_spin_state(rng)
        _, traj = run_sequence(rho, prog, record=True)
        for _, state in traj:
            assert abs(np.trace(state.matrix) - 1) <= 1e-10
            assert np.max(np.abs(state.matrix - state.matrix.conj().T)) <= 1e-10


class TestBranchPropagators:
    def test_rejects_a_pulses_and_gradients(self):
        with pytest.raises(DomainError):
            branch_propagators(make_program([Rotation("a", "x", Fraction(1, 2))]))
        with pytest.raises(DomainError):
            branch_propagators(make_program([Gradient()]))

    def test_delay_splits_into_stated_branches(self):
        prog = make_program([Delay(per_j=Fraction(1, 2))], SpinSystemParams(omega_b=math.pi * J))
        up, down = branch_propagators(prog)
        assert np.allclose(up, rotation_unitary([0, 0, 1], math.pi), atol=1e-12)
        assert np.allclose(down, I2, atol=1e-12)

    def test_composition_matches_full_propagator(self):
        rng = np.random.default_rng(83)
        prog = make_program(
            [Rotation("b", "-x", Fraction(1, 4)), Delay(per_j=Fraction(1, 2)),
             Rotation("b", "-x", Fraction(3, 4)), Delay(per_j=Fraction(1, 2))],
            SpinSystemParams(omega_b=math.pi * J),
        )
        up, down = branch_propagators(prog, pulse_sense=-1)
        rho = random_two_spin_state(rng)
        final, _ = run_sequence(rho, prog, pulse_sense=-1)
        full = np.block([[up, np.zeros((2, 2))], [np.zeros((2, 2)), down]])
        assert np.allclose(full @ rho.matrix @ full.conj().T, final.matrix, atol=1e-12)


signed_zeros = st.sampled_from([0.0, -0.0])
signed_zero_events = st.one_of(
    st.builds(
        Rotation,
        st.sampled_from("ab"),
        st.one_of(st.just("y"), signed_zeros),
        st.one_of(st.just(Fraction(1, 2)), signed_zeros),
    ),
    signed_zeros.map(lambda sec: Delay(seconds=sec)),
)
cache_offsets = st.one_of(signed_zeros, st.floats(-OFFSET_BOUND, OFFSET_BOUND))
cache_programs = st.builds(
    make_program,
    st.lists(
        st.one_of(pulse_events, delay_events, st.just(Gradient()), signed_zero_events),
        max_size=8,
    ),
    st.builds(SpinSystemParams, cache_offsets, cache_offsets),
)


def remade(prog, value):
    """prog rebuilt with value() applied to every numeric field."""
    events = []
    for ev in prog.events:
        if isinstance(ev, Rotation):
            axis = ev.axis if isinstance(ev.axis, str) else value(ev.axis)
            ev = Rotation(ev.spin, axis, value(ev.flip))
        elif isinstance(ev, Delay):
            ev = (Delay(per_j=value(ev.per_j)) if ev.seconds is None
                  else Delay(seconds=value(ev.seconds)))
        events.append(ev)
    params = SpinSystemParams(value(prog.params.omega_a), value(prog.params.omega_b))
    return make_program(events, params)


def negated_zero(x):
    return -x if isinstance(x, float) and x == 0 else x


def in_radians(x):
    return float(x) if isinstance(x, Fraction) else x


def compiled_bits(compiled):
    return tuple(
        None if isinstance(stretch, Gradient)
        else tuple(
            (step.end.hex(), step.product.tobytes(), step.adjoint.tobytes())
            for step in stretch
        )
        for stretch in compiled
    )


class TestCompileCache:
    @settings(max_examples=60, deadline=None)
    @given(prog=cache_programs, sense=st.sampled_from((1, -1)), iz_sign=st.sampled_from((1, -1)))
    def test_hits_are_bit_identical_to_a_fresh_compile(self, prog, sense, iz_sign):
        # twins compare equal event by event, but a signed zero or a flip
        # in radians instead of half turns changes the propagators' bits
        for twin in (remade(prog, negated_zero), remade(prog, in_radians)):
            for first, second in ((prog, twin), (twin, prog)):
                pulse._compile.cache_clear()
                for p in (first, second, first, second):
                    fresh = pulse._compile.__wrapped__(p, sense, iz_sign)
                    got = pulse._compile(p, sense, iz_sign)
                    assert compiled_bits(got) == compiled_bits(fresh)
                assert pulse._compile.cache_info().hits >= 2

    def test_cached_products_are_read_only(self):
        prog = make_program([Rotation("b", "x", Fraction(1, 2)), Delay(per_j=Fraction(1, 2))])
        for compiled in (pulse._compile(prog), pulse._compile(prog)):
            for step in compiled[0]:
                with pytest.raises(ValueError):
                    step.product[0, 0] = 0
        assert pulse._compile.cache_info().hits == 1

    def test_a_failing_program_raises_on_every_call(self, monkeypatch):
        built = []

        def doubled(ev, sense=1):
            built.append(ev)
            return 2 * np.eye(4, dtype=complex)

        monkeypatch.setattr(pulse, "pulse_unitary", doubled)
        prog = make_program([Rotation("b", "x", Fraction(1, 2))])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for calls in (1, 2, 3):
            with pytest.raises(DomainError, match="not unitary"):
                run_sequence(rho, prog)
            assert len(built) == calls
        assert pulse._compile.cache_info().currsize == 0

    def test_numpy_fields_compile_as_their_floats(self):
        rho = random_two_spin_state(np.random.default_rng(29))
        numpy_prog = make_program(
            [Rotation("b", np.array(0.3), np.float64(1.0)), Delay(seconds=np.array(1e-3)),
             Rotation("a", "x", np.array(0.5)), Delay(per_j=Fraction(1, 2))],
            SpinSystemParams(omega_a=np.array(5.0)),
            (FrameOffset("b", np.float64(-0.25), "piJ"),),
        )
        float_prog = make_program(
            [Rotation("b", 0.3, 1.0), Delay(seconds=1e-3),
             Rotation("a", "x", 0.5), Delay(per_j=Fraction(1, 2))],
            SpinSystemParams(omega_a=5.0),
            (FrameOffset("b", -0.25, "piJ"),),
        )
        assert numpy_prog == float_prog and hash(numpy_prog) == hash(float_prog)
        assert type(numpy_prog.events[0].axis) is float
        assert type(numpy_prog.params.omega_a) is float
        runs = []
        for prog in (numpy_prog, float_prog):
            pulse._compile.cache_clear()
            final, path = run_sequence(rho, prog, record=True, samples_per_delay=4)
            runs.append([final.matrix.tobytes()] + [s.matrix.tobytes() for _, s in path])
        assert runs[0] == runs[1]
