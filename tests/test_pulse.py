import dataclasses
import itertools
import math
import numbers
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle_brute as oracle
from lunephase import pulse, qcore
from lunephase.errors import DomainError
from lunephase.experiment import cycle_program, mixing_program, prepare_pure_program
from lunephase.policy import POLICY
from lunephase.pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SpinSystemParams,
    apply_t2_relaxation,
    branch_propagators,
    check_t2_times,
    free_evolution_unitary,
    gradient_crusher,
    make_program,
    pulse_unitary,
    run_sequence,
)
from lunephase.pulseprog import render_sequence
from lunephase.qcore import (
    DensityOperator,
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


def same_state(got, want):
    """Whether two states hold the same matrix bytes and normalized flag."""
    return got.matrix.tobytes() == want.matrix.tobytes() and got.normalized is want.normalized


def fraction_clock(events):
    """Each event's end in seconds, the k/J delays summed as a Fraction and
    converted once, plus the float sum of the delays in seconds; a time too
    large for a float is a DomainError."""
    per_j, seconds, end, ends = Fraction(0), 0.0, 0.0, []
    for ev in events:
        if isinstance(ev, Delay):
            if ev.per_j is not None:
                per_j += ev.per_j
            else:
                seconds += ev.seconds
            try:
                end = float(per_j) / J + seconds
            except OverflowError:
                end = math.inf
            if end == math.inf:
                raise DomainError("total duration is too large for a float")
        ends.append(end)
    return ends


# k/J delays with numerators up to 10**308 and delays in seconds up to the
# largest float, between pulses and crushers
clock_events = st.lists(
    st.one_of(
        st.builds(lambda k, d: Delay(per_j=Fraction(k, d)),
                  st.integers(0, 10**308), st.integers(1, 10**6)),
        st.floats(0.0, 1.7e308).map(lambda sec: Delay(seconds=sec)),
        pulse_events,
        st.just(Gradient()),
    ),
    max_size=8,
)


class TestSpinSystemParams:
    def test_default_offsets_vanish(self):
        p = SpinSystemParams()
        assert p.omega_a == 0.0 and p.omega_b == 0.0
        assert pulse.DEFAULT_J == J

    def test_rejects_oversized_offset(self):
        with pytest.raises(DomainError):
            SpinSystemParams(omega_a=11 * 2 * math.pi * J)

    def test_offset_bound_is_inclusive(self):
        bound = 10 * 2 * math.pi * J
        for offset in (bound, -bound):
            assert SpinSystemParams(omega_a=offset, omega_b=offset).omega_b == offset
            beyond = math.nextafter(offset, math.copysign(math.inf, offset))
            for name in ("omega_a", "omega_b"):
                with pytest.raises(DomainError, match="^frame offset exceeds the 10"):
                    SpinSystemParams(**{name: beyond})

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

    @settings(max_examples=200, deadline=None)
    @given(events=clock_events)
    def test_clock_ends_are_the_fraction_sum(self, events):
        try:
            want = fraction_clock(events)
        except DomainError as error:
            with pytest.raises(DomainError, match=f"^{error}$"):
                list(pulse._clock(events))
            return
        assert [end.hex() for end in pulse._clock(events)] == [end.hex() for end in want]

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

    def test_delay_whose_phase_overflows_raises(self):
        # the delay fits a float, but energy*time does not: a DomainError
        # that names the delay, and no numpy warning (tier-1 makes it an error)
        prog = make_program([Delay(per_j=Fraction(17 * 10**307))])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        message = r"^delay of 7\.9\d*e\+305 s is too long: energy\*time must fit a float$"
        for attempt in (lambda: run_sequence(rho, prog), lambda: branch_propagators(prog),
                        lambda: free_evolution_unitary(prog.params, 7.9e305)):
            with pytest.raises(DomainError, match=message):
                attempt()
        # a time beyond the floats is refused by the probe of every real input
        message = r"^evolution time must fit a float$"
        for t in (10**400, Fraction(10**400)):
            with pytest.raises(DomainError, match=message):
                free_evolution_unitary(prog.params, t)

    def test_recorded_delay_whose_sample_times_overflow_raises(self):
        # the delay compiles and runs unrecorded, but duration*samples does
        # not fit a float: a DomainError that names the delay, and no numpy
        # warning (tier-1 makes it an error)
        prog = make_program([Delay(seconds=1e305)])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        plain, _ = run_sequence(rho, prog)
        message = r"^delay of 1e\+305 s is too long to record: duration\*samples_per_delay must fit"
        with pytest.raises(DomainError, match=message):
            run_sequence(rho, prog, record=True, samples_per_delay=10000)
        # where the product fits, the sample times are the product over samples
        final, traj = run_sequence(rho, prog, record=True, samples_per_delay=1000)
        assert [t for t, _ in traj[1:-1]] == (1e305 * np.arange(1, 1000) / 1000).tolist()
        assert np.array_equal(final.matrix, plain.matrix)


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
            # a k/J delay or a piJ offset is stored as its Fraction, so equal
            # values compare equal; an offset, a numeric axis or a time is
            # stored as its float, so only the other signed zero differs; a
            # flip keeps its two forms, half turns and radians
            if name in ("Delay.per_j", "FrameOffset.value"):
                same = True
            else:
                same = name != "Rotation.flip" and (
                    math.copysign(1.0, twin) == math.copysign(1.0, x)
                )
            assert (build(twin) == one) is same, (name, x, twin)
            assert not same or hash(build(twin)) == hash(one)

    def test_a_fraction_subclass_flip_is_its_fraction(self):
        # a flip in half turns is stored as a plain Fraction, as a k/J delay
        # is, so a subclass's flip equals the same Fraction's, whose bits it
        # compiles to
        class HalfTurns(Fraction):
            pass

        sub, plain = Rotation("b", "x", HalfTurns(1, 3)), Rotation("b", "x", Fraction(1, 3))
        assert type(sub.flip) is Fraction and sub.flip_radians == plain.flip_radians
        assert sub == plain and hash(sub) == hash(plain)
        for sense in (1, -1):
            assert pulse_unitary(sub, sense).tobytes() == pulse_unitary(plain, sense).tobytes()

    @pytest.mark.parametrize(
        "zero", [-0.0, 0.0, Fraction(0), 0, np.float64(-0.0)],
        ids=["minus-zero", "zero", "fraction", "int", "numpy-minus-zero"],
    )
    def test_a_zero_k_over_j_or_pij_value_compiles_as_zero(self, zero):
        delay, frame = Delay(per_j=zero), FrameOffset("b", zero, "piJ")
        exact = Delay(per_j=Fraction(0)), FrameOffset("b", Fraction(0), "piJ")
        assert type(delay.per_j) is Fraction and type(frame.value) is Fraction
        assert (delay, frame) == exact
        rho = random_two_spin_state(np.random.default_rng(5))
        runs = []
        for d, fr in ((delay, frame), exact):
            prog = make_program(
                [Rotation("b", "x", Fraction(1, 3)), d, Rotation("a", "y", 0.7)], frames=(fr,)
            )
            pulse._compile.cache_clear()
            final, traj = run_sequence(rho, prog, record=True, samples_per_delay=3)
            runs.append((final.matrix.tobytes(), traj.times.tobytes(), traj.matrices.tobytes()))
        assert runs[0] == runs[1]


# values that meet in every form: each signed zero, ints, Fractions, numpy
# scalars and the floats of the Fractions, so that equal and unequal pairs
# of all kinds turn up
key_values = st.sampled_from([
    0.0, -0.0, 0, Fraction(0), np.float64(-0.0), 0.5, Fraction(1, 2), np.float64(0.5),
    1, 1.0, Fraction(1), np.int64(1), True, Fraction(1, 3), 1 / 3, 0.25, Fraction(-1, 4),
])


def old_forms(obj):
    """The forms that an object's equality read before it had a key: each
    init field's sign for a float, and its type for anything else."""
    return tuple(math.copysign(1.0, v) if type(v) is float else type(v)
                 for v in (getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init))


def same_by_fields(one, two):
    """The value objects' equality as an oracle: the same class, equal
    init fields and equal forms."""
    names = [f.name for f in dataclasses.fields(one) if f.init]
    return (type(one) is type(two) and old_forms(one) == old_forms(two)
            and all(getattr(one, n) == getattr(two, n) for n in names))


def value_objects(x):
    """Every value object that x may build, one per value field, or none."""
    built = []
    for make in VALUE_FIELDS.values():
        try:
            built.append(make(x))
        except DomainError:
            pass
    return built


def float_bits(x):
    return struct.pack("<d", x)


class TestValueKey:
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(key_values, min_size=2, max_size=6))
    def test_equality_and_hash_follow_the_fields_and_their_forms(self, xs):
        objs = [obj for x in xs for obj in value_objects(x)]
        for one, two in itertools.product(objs, repeat=2):
            assert (one == two) is same_by_fields(one, two), (one, two)
            assert one != two or hash(one) == hash(two)

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(key_values, st.floats(-6.0, 6.0), st.fractions(-2, 2, max_denominator=24)))
    def test_stored_floats_have_the_bits_of_their_formulas(self, x):
        for obj in value_objects(x):
            if isinstance(obj, Rotation):
                flip = obj.flip
                want = float(flip) * math.pi if isinstance(flip, Fraction) else float(flip)
                assert float_bits(obj.flip_radians) == float_bits(want)
            elif isinstance(obj, Delay):
                want = (float(obj.per_j) / J if obj.per_j is not None else float(obj.seconds))
                assert float_bits(obj.duration()) == float_bits(want)
            elif isinstance(obj, FrameOffset):
                for frame in (obj, FrameOffset("a", float(x), "Hz")):
                    value = float(frame.value)
                    want = value * 2 * math.pi * J if frame.unit == "piJ" else 2 * math.pi * value
                    assert float_bits(frame.angular()) == float_bits(want)

    def test_a_cache_hit_reads_no_fraction(self, monkeypatch):
        # one grid point's programs, built as experiment builds them
        def point():
            prepare = make_program([
                Rotation("b", "x", Fraction(1, 3)), Gradient(), Rotation("b", "x", Fraction(1, 4)),
                Delay(per_j=Fraction(1, 2)), Rotation("b", "-y", Fraction(1, 4)), Gradient(),
            ], SpinSystemParams(12.5, -40.0))
            return prepare, mixing_program(5), cycle_program(0.4)

        for prog in point():
            pulse._stretches(prog, -1, 1)
        calls = {"__hash__": 0, "__eq__": 0, "__float__": 0}
        for name in calls:
            def counted(self, *args, name=name, original=getattr(Fraction, name)):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(Fraction, name, counted)
        programs = point()
        # ten Fraction fields, each converted once, by the probe
        assert calls == {"__hash__": 0, "__eq__": 0, "__float__": 10}
        hits = pulse._compile.cache_info().hits
        for prog in programs:
            pulse._stretches(prog, -1, 1)
        assert pulse._compile.cache_info().hits == hits + 3
        assert calls == {"__hash__": 0, "__eq__": 0, "__float__": 10}


# what a caller may pass for a number: no number at all, numbers beyond the
# floats, non-finite floats, numpy scalars and 0-d arrays, and valid values
any_number = st.one_of(
    st.sampled_from([None, "1", b"1", [1], 1 + 2j, 10**400, -(10**400), Fraction(10**400),
                     np.float64(math.nan), np.float64(-math.inf)]),
    st.floats(),
    st.floats(-7.0, 7.0),
    st.integers(-7, 7),
    st.fractions(-4, 4, max_denominator=12),
    st.builds(lambda x, kind: kind(x), st.floats(-7.0, 7.0),
              st.sampled_from([np.float64, np.float32, np.complex128, np.complex64])),
    st.integers(-7, 7).map(np.int64),
    st.builds(np.array, st.one_of(st.floats(), st.integers(-7, 7),
                                  st.complex_numbers(max_magnitude=7.0))),
)
EVENT_FIELDS = sorted(name for name in VALUE_FIELDS if name.startswith(("Rotation.", "Delay.")))
REFUSED = object()


def built_or_refused(make, *args):
    try:
        return make(*args)
    except DomainError:
        return REFUSED


class TestNumericInput:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(VALUE_FIELDS)), x=any_number)
    def test_a_field_gives_a_valid_object_or_a_domain_error(self, name, x):
        obj = built_or_refused(VALUE_FIELDS[name], x)
        if obj is REFUSED:
            return
        value = getattr(obj, name.split(".")[1])
        assert type(value) is float or isinstance(value, numbers.Rational)
        assert math.isfinite(value)
        again = VALUE_FIELDS[name](x)
        assert obj == again and hash(obj) == hash(again)

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(EVENT_FIELDS), any_number).map(
                    lambda nx: built_or_refused(VALUE_FIELDS[nx[0]], nx[1])),
                st.just(Gradient()),
                st.sampled_from(["bogus", [1], 1.0, None, FrameOffset("b", 0.0, "Hz")]),
            ),
            max_size=6,
        ),
        omega=any_number,
        frame=any_number,
        record=st.booleans(),
    )
    def test_a_program_runs_and_renders_or_raises_a_domain_error(
        self, items, omega, frame, record
    ):
        params = built_or_refused(SpinSystemParams, omega)
        offset = built_or_refused(FrameOffset, "b", frame, "Hz")
        try:
            prog = make_program(
                [ev for ev in items if ev is not REFUSED],
                None if params is REFUSED else params,
                () if offset is REFUSED else (offset,),
            )
        except DomainError:
            return
        rho = random_two_spin_state(np.random.default_rng(0))
        for attempt in (lambda: run_sequence(rho, prog, record=record, samples_per_delay=3),
                        lambda: render_sequence(prog)):
            try:
                attempt()
            except DomainError:
                pass


class TestFreeEvolution:
    def test_rational_offsets_compile_as_their_floats(self):
        rho = random_two_spin_state(np.random.default_rng(3))
        events = [Rotation("b", "x", Fraction(1, 3)), Delay(per_j=Fraction(1, 2))]
        for value in (Fraction(2, 7), 1, -3, Fraction(-429, 2)):
            exact = SpinSystemParams(omega_b=value)
            rounded = SpinSystemParams(omega_b=float(value))
            assert exact == rounded and hash(exact) == hash(rounded)
            assert type(exact.omega_b) is float
            want = free_evolution_unitary(rounded, 1e-3).tobytes()
            assert free_evolution_unitary(exact, 1e-3).tobytes() == want
            assert free_evolution_unitary(exact, Fraction(1, 1000)).tobytes() == want
            runs = []
            for params in (exact, rounded):
                pulse._compile.cache_clear()
                runs.append(run_sequence(rho, make_program(events, params))[0].matrix.tobytes())
            assert runs[0] == runs[1]

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

    @settings(max_examples=300, deadline=None)
    @given(
        offsets=st.tuples(
            st.floats(-OFFSET_BOUND, OFFSET_BOUND), st.floats(-OFFSET_BOUND, OFFSET_BOUND)
        ),
        iz_sign=st.sampled_from((1, -1)),
        t=st.floats(0.0, 1e308),
        edge=st.none() | st.integers(-3, 3),
    )
    def test_a_delay_is_refused_exactly_when_a_phase_is_not_finite(
        self, offsets, iz_sign, t, edge
    ):
        params = SpinSystemParams(*offsets)
        if edge is not None:
            # edge ulps away from where the largest energy*time leaves the floats
            ma, mb = iz_sign * pulse._MA, iz_sign * pulse._MB
            energies = params.omega_a * ma + params.omega_b * mb + 2 * math.pi * J * ma * mb
            t = np.finfo(float).max / np.abs(energies).max()
            for _ in range(abs(edge)):
                t = np.nextafter(t, math.copysign(math.inf, edge))
            t = float(t)
        with np.errstate(over="ignore", invalid="ignore"):
            phases = pulse._free_phases(pulse._energies(params, iz_sign), t)
        if np.isfinite(phases).all():
            u = free_evolution_unitary(params, t, iz_sign)
            assert u.tobytes() == np.diag(phases).tobytes()
        else:
            message = r"s is too long: energy\*time must fit a float$"
            with pytest.raises(DomainError, match=message):
                free_evolution_unitary(params, t, iz_sign)

    @pytest.mark.parametrize("iz_sign", [1, -1])
    def test_phases_have_the_bits_of_the_per_pair_energies(self, iz_sign):
        # each energy from the scalar formula, one Zeeman state at a time
        rho = random_two_spin_state(np.random.default_rng(11))
        samples = 8
        for offsets in ((0.0, 0.0), (-0.0, 0.0), (137.25, -911.5), (Fraction(2, 7), -3),
                        (0.3 * J, -1.2 * J), (OFFSET_BOUND, -OFFSET_BOUND)):
            params = SpinSystemParams(*offsets)
            energies = []
            for ma, mb in ((0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)):
                ma, mb = iz_sign * ma, iz_sign * mb
                energies.append(
                    params.omega_a * ma + params.omega_b * mb + 2 * math.pi * J * ma * mb
                )
            energies = np.array(energies)
            delay = Delay(per_j=Fraction(1, 2))
            dt = delay.duration()
            u = free_evolution_unitary(params, dt, iz_sign)
            assert u.tobytes() == np.diag(np.exp(1j * (dt * -energies))).tobytes()
            # the samples of a delay that opens its stretch: diag(phases) * 1
            _, traj = run_sequence(rho, make_program([delay], params), record=True,
                                   samples_per_delay=samples, iz_sign=iz_sign)
            elapsed = dt * np.arange(1, samples) / samples
            phases = np.exp(1j * np.multiply.outer(elapsed, -energies))
            for (_, got), d in zip(traj[1:-1], phases):
                want = oracle.conj(rho.matrix, d[:, None] * np.eye(4, dtype=complex))
                assert got.matrix.tobytes() == DensityOperator(want).matrix.tobytes()
            assert traj[-1][1].matrix.tobytes() == DensityOperator(
                oracle.conj(rho.matrix, u)).matrix.tobytes()


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

    def test_t2_times_of_any_real_type_keep_their_verdict(self):
        for times in ((0.3, 0.4), (1, Fraction(2, 5)), (np.float64(0.3), np.int64(2)),
                      [math.inf, 0.4], np.array([0.3, math.inf]), (True, 0.4)):
            assert check_t2_times(times) == tuple(map(float, times))
            assert all(type(t) is float for t in check_t2_times(times))
        for times in ((math.nan, 0.4), (0.3, 0.0), (-1, 0.4), (0.3, -math.inf)):
            with pytest.raises(DomainError, match="^relaxation times must be positive$"):
                check_t2_times(times)

    @pytest.mark.parametrize(
        "times", [(1j, 1), [1], (1, 2, 3), ("a", 1), ("0.3", "0.4"), (b"1", 1), 0.3, None,
                  (np.complex128(0.3), 1), (10**400, 1)],
        ids=["complex", "one", "three", "str", "text-pair", "bytes", "scalar", "none",
             "numpy-complex", "huge"],
    )
    def test_t2_times_that_are_no_real_pair_are_refused(self, times):
        message = r"^relaxation must be a pair \(t2a, t2b\) of real numbers that fit a float$"
        with pytest.raises(DomainError, match=message):
            check_t2_times(times)

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


def unshared_steps(prog, pulse_sense, iz_sign):
    """prog's stretches as lists of (event, end, running product), with every
    event's propagator built on its own, as if no two events were equal."""
    stretches = []
    for ev, end in zip(prog.events, pulse._clock(prog.events)):
        if isinstance(ev, Gradient):
            stretches.append(ev)
            continue
        if isinstance(ev, Rotation):
            u = pulse_unitary(ev, sense=pulse_sense)
        else:
            u = free_evolution_unitary(prog.params, ev.duration(), iz_sign)
        if stretches and isinstance(stretches[-1], list):
            u = u @ stretches[-1][-1][2]
        else:
            stretches.append([])
        stretches[-1].append((ev, end, u))
    return stretches


def sample_stack_oracle(rho, prog, samples, pulse_sense, iz_sign):
    """The times and states of a recorded run, each stretch's stack built
    here from its unshared steps: the phases of each delay sample, computed
    for that delay alone, times the product the delay starts from, and the
    running product after each event. Each slice is conjugated on its own
    by oracle_brute."""
    times, want, t = [0.0], [rho], 0.0
    energies = pulse._energies(prog.params, iz_sign)
    for stretch in unshared_steps(prog, pulse_sense, iz_sign):
        if isinstance(stretch, Gradient):
            times.append(t)
            want.append(gradient_crusher(want[-1]))
            continue
        stack, before = [], np.eye(4, dtype=complex)
        for ev, end, product in stretch:
            if isinstance(ev, Delay) and samples > 1:
                elapsed = ev.duration() * np.arange(1, samples) / samples
                times += list(t + elapsed)
                stack += list(pulse._free_phases(energies, elapsed)[:, :, None] * before)
            times.append(end)
            stack.append(product)
            t, before = end, product
        want += [DensityOperator(oracle.conj(want[-1].matrix, u), rho.normalized) for u in stack]
    return times, want


class TestRunSequence:
    def test_empty_program(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        final, traj = run_sequence(rho, make_program([]))
        assert final is rho
        assert [t for t, _ in traj] == [0.0, 0.0]
        assert all(same_state(state, rho) for _, state in traj)
        _, recorded = run_sequence(rho, make_program([]), record=True)
        assert len(recorded) == 1 and recorded[0][0] == 0.0 and same_state(recorded[0][1], rho)

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
        assert traj[0][0] == 0.0 and same_state(traj[0][1], rho)
        assert len(ends) == 2 and ends[0][0] == 0.0 and same_state(ends[0][1], rho)
        assert ends[1][0] == traj[-1][0] and same_state(ends[1][1], plain)
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
        # each factor, not of the stretch product, can refuse them; the two
        # pulses differ, so that each draws its own factor
        a = np.diag([2.0, 0.5, 2.0, 0.5]).astype(complex)
        factors = iter([a, np.linalg.inv(a)])
        monkeypatch.setattr(pulse, "pulse_unitary", lambda *args, **kw: next(factors))
        prog = make_program([Rotation("b", "x", Fraction(k, 6)) for k in (2, 3)])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DomainError, match="not unitary"):
            run_sequence(rho, prog)

    def test_every_sample_propagator_is_checked(self, monkeypatch):
        # only the stacked sample propagators go wrong: every event
        # propagator, and so every running product, stays unitary
        phases = pulse._free_phases

        def one_bad_sample(energies, t):
            out = phases(energies, t)
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

        def counting(rho, u):
            calls.append(u)
            return kernel(rho, u)

        # unrecorded stretches conjugate by one product, recorded ones by a stack
        monkeypatch.setattr(pulse, "_conjugate", counting)
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for record, ndim in ((False, 2), (True, 3)):
            counts = []
            for prog in (prepare_pure_program(), mixing_program(5), cycle_program(0.4)):
                calls.clear()
                run_sequence(rho, prog, record=record, pulse_sense=-1)
                counts.append(len(calls))
                assert all(np.ndim(u) == ndim for u in calls)
            assert counts == [2, 2, 1]

    @settings(max_examples=60, deadline=None)
    @given(
        events=program_events,
        offsets=st.tuples(
            st.floats(-OFFSET_BOUND, OFFSET_BOUND), st.floats(-OFFSET_BOUND, OFFSET_BOUND)
        ),
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        normalized=st.booleans(),
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recorded_states_are_evolve_over_the_sample_stack(
        self, events, offsets, pulse_sense, iz_sign, normalized, samples, seed
    ):
        prog = make_program(events, SpinSystemParams(*offsets))
        start = random_two_spin_state(np.random.default_rng(seed)).matrix
        if not normalized:
            start = start - np.eye(4) / 4
        rho = DensityOperator(start, normalized=normalized)
        times, want = sample_stack_oracle(rho, prog, samples, pulse_sense, iz_sign)
        final, traj = run_sequence(
            rho, prog, record=True, samples_per_delay=samples,
            pulse_sense=pulse_sense, iz_sign=iz_sign,
        )
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert len(traj) == len(want)
        for (_, got), ref in zip(traj, want):
            assert got.matrix.tobytes() == ref.matrix.tobytes()
            assert got.normalized is normalized
        assert same_state(final, traj[-1][1])

    @settings(max_examples=60, deadline=None)
    @given(
        events=program_events,
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        samples=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        bounds=st.tuples(*[st.none() | st.integers(-80, 80)] * 2),
        step=st.none() | st.integers(-5, 5).filter(bool),
    )
    def test_a_recorded_trajectory_reads_as_its_arrays(
        self, events, pulse_sense, iz_sign, samples, seed, bounds, step
    ):
        prog = make_program(events, SpinSystemParams(omega_b=math.pi * J))
        rho = random_two_spin_state(np.random.default_rng(seed))
        _, want = sample_stack_oracle(rho, prog, samples, pulse_sense, iz_sign)
        final, traj = run_sequence(
            rho, prog, record=True, samples_per_delay=samples,
            pulse_sense=pulse_sense, iz_sign=iz_sign,
        )
        times, matrices = traj.times, traj.matrices
        k = len(want)
        assert len(traj) == k and times.shape == (k,) and matrices.shape == (k, 4, 4)
        assert not times.flags.writeable and not matrices.flags.writeable
        pairs = list(traj)
        assert len(pairs) == k
        for i, ref in enumerate(want):
            for t, state in (traj[i], traj[i - k], pairs[i]):
                assert type(t) is float and t == times[i]
                assert state.matrix.tobytes() == matrices[i].tobytes() == ref.matrix.tobytes()
                assert state.normalized is True and not state.matrix.flags.writeable
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                traj[i]
        assert same_state(final, traj[-1][1])
        part = traj[slice(*bounds, step)]
        assert type(part) is pulse.Trajectory and part.normalized is True
        assert part.times.tobytes() == times[slice(*bounds, step)].tobytes()
        assert part.matrices.tobytes() == matrices[slice(*bounds, step)].tobytes()
        assert not part.times.flags.writeable and not part.matrices.flags.writeable
        got = list(part)
        assert len(got) == len(part) == len(pairs[slice(*bounds, step)])
        for (t, state), (u, ref) in zip(got, pairs[slice(*bounds, step)]):
            assert t == u and same_state(state, ref)

    def test_a_recorded_run_wraps_once_per_stretch_and_crusher(self, monkeypatch):
        wrapped = []
        wrap = DensityOperator._wrap.__func__

        def counting(cls, matrix, normalized):
            wrapped.append(matrix.shape)
            return wrap(cls, matrix, normalized)

        monkeypatch.setattr(DensityOperator, "_wrap", classmethod(counting))
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        # the preparation is two stretches, each followed by a crusher; the
        # cycle is one stretch of two pulses and two delays
        for prog, wraps in ((prepare_pure_program(), 4), (cycle_program(0.4), 1)):
            for record in (True, False):
                wrapped.clear()
                run_sequence(rho, prog, record=record, samples_per_delay=64)
                assert wrapped == [(4, 4)] * wraps
        _, traj = run_sequence(rho, cycle_program(0.4), record=True, samples_per_delay=64)
        assert len(traj) == 1 + 4 + 2 * 63
        # a state is built for each entry that is read
        wrapped.clear()
        list(traj)
        assert len(wrapped) == len(traj)

    @settings(max_examples=200, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 4),
        excess=st.one_of(
            # a few ulps of |d|^2 around either edge of the tolerance
            st.tuples(st.sampled_from((1, -1)), st.integers(-64, 64)).map(
                lambda s: s[0] * POLICY.unitarity_tol + s[1] * 2.0**-52
            ),
            st.floats(-1e-9, 1e-9).map(lambda x: POLICY.unitarity_tol + x),
        ),
    )
    # an edge where a fused multiply-add in |d|^2 would flip the verdict
    @example(
        angles=(-2.254518793243092, 0.3560453300415851, 2.453131258360899, 2.2630282370869317),
        excess=POLICY.unitarity_tol - 2.0**-52,
    )
    def test_sample_phase_check_gives_the_gram_verdict(self, angles, excess):
        # the last sample of the delay gets phases of modulus near the edge
        d = np.exp(1j * np.array(angles)) * math.sqrt(1 + excess)
        phases = pulse._free_phases

        def edge_sample(energies, t):
            out = phases(energies, t)
            if np.ndim(t) == 1:
                out[-1] = d
            return out

        prog = make_program([Rotation("b", "x", Fraction(1, 3)), Delay(per_j=Fraction(1, 2))])
        # a deviation operator: only the phase check can refuse the stack
        rho = DensityOperator(np.diag([0.3, -0.1, 0.2, -0.4]).astype(complex), normalized=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pulse, "_free_phases", edge_sample)
            if is_unitary(np.diag(d)):
                run_sequence(rho, prog, record=True, samples_per_delay=4)
            else:
                with pytest.raises(DomainError, match="^sample propagator is not unitary"):
                    run_sequence(rho, prog, record=True, samples_per_delay=4)

    def test_bad_phase_after_a_crusher_is_refused(self, monkeypatch):
        # the delay opens the stretch that follows the crusher, so its
        # samples start from the identity, not from a compiled product
        phases = pulse._free_phases

        def bad_samples(energies, t):
            out = phases(energies, t)
            if np.ndim(t) == 1:
                out[0, 3] *= 1 + 1e-6
            return out

        monkeypatch.setattr(pulse, "_free_phases", bad_samples)
        prog = make_program(
            [Rotation("b", "x", Fraction(1, 3)), Gradient(), Delay(per_j=Fraction(1, 2)),
             Rotation("a", "y", Fraction(1, 2))]
        )
        assert isinstance(pulse._stretches(prog, 1, 1)[1], Gradient)
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        run_sequence(rho, prog)
        message = "^sample propagator is not unitary within tolerance$"
        with pytest.raises(DomainError, match=message):
            run_sequence(rho, prog, record=True, samples_per_delay=2)

    def test_every_running_product_is_checked_at_compile(self, monkeypatch):
        # Checks of each factor and of the stretch's whole product alone
        # would let this program run unrecorded. A's Gram matrix is off by
        # about 8e-11, inside the tolerance, A^2's by about 1.6e-10 and A^3's
        # by about 2.4e-10, outside it, and A^3 A^-3 is the identity again.
        # The six pulses differ, so that each draws its own factor: equal
        # ones would share one, and A^6 would fail the whole-product check.
        s = 1 + 4e-11
        a = np.diag([s, 1 / s, s, 1 / s]).astype(complex)
        inverse = np.diag([1 / s, s, 1 / s, s]).astype(complex)
        factors = [a] * 3 + [inverse] * 3
        assert all(is_unitary(f) for f in factors)
        assert not is_unitary(a @ a @ a)
        assert is_unitary(np.linalg.multi_dot(factors))
        supply = itertools.cycle(factors)
        monkeypatch.setattr(pulse, "pulse_unitary", lambda *args, **kw: next(supply))
        prog = make_program([Rotation("b", "x", Fraction(k, 12)) for k in range(1, 7)])
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        message = "^event propagator is not unitary within tolerance$"
        for record in (False, True):
            with pytest.raises(DomainError, match=message):
                run_sequence(rho, prog, record=record)
        with pytest.raises(DomainError, match=message):
            branch_propagators(prog)

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
        for stretch in pulse._stretches(prog, pulse_sense, iz_sign):
            if isinstance(stretch, Gradient):
                crushed = gradient_crusher(want)
                assert crushed.matrix.tobytes() == np.diag(np.diag(want.matrix)).tobytes()
                # no -0.0 off the diagonal, as a mask product would leave
                assert not np.signbit(crushed.matrix[off_diagonal].view(float)).any()
                want = crushed
                continue
            want = DensityOperator(oracle.conj(want.matrix, stretch[-1].product), normalized)
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


FLOOR = POLICY.eigenvalue_floor


def state_with_lowest(lowest, rng):
    """A unit-trace two-spin state with lowest as its smallest eigenvalue,
    in a random eigenbasis."""
    rest = rng.uniform(0.01, 1.0, size=3)
    w = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v, _ = np.linalg.qr(a)
    return (v * w) @ v.conj().T


def every_state_factored(rho, prog, samples, pulse_sense, iz_sign):
    """A recorded run as every recorded state minus FLOOR * 1 factored:
    sample_stack_oracle's states, each conjugated on its own and built
    through the constructor, whose state check factors it. The recorded
    matrices, or the message of the first state that is refused."""
    try:
        _, states = sample_stack_oracle(rho, prog, samples, pulse_sense, iz_sign)
    except DomainError as error:
        return str(error)
    return [state.matrix for state in states]


# smallest eigenvalues across [FLOOR, 1/4], and within 1e-13 of FLOOR and of
# FLOOR / 2, where the certificate's verdict turns
lowest_eigenvalues = st.one_of(
    st.floats(FLOOR, 0.25),
    st.floats(0.0, 1e-13).map(lambda d: FLOOR + d),
    st.floats(-1e-13, 1e-13).map(lambda d: FLOOR / 2 + d),
)


class TestPositivityCertificate:
    @settings(max_examples=100, deadline=None)
    @given(
        lowest=lowest_eigenvalues,
        events=program_events,
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # a start state at the floor whose recorded states round below it: refused
    @example(
        lowest=FLOOR,
        events=[Rotation("a", "x", Fraction(1, 3)), Delay(per_j=Fraction(1, 2)),
                Rotation("b", "y", Fraction(1, 2))],
        pulse_sense=1, iz_sign=1, samples=8, seed=2,
    )
    def test_a_recorded_run_refuses_as_factoring_every_state(
        self, lowest, events, pulse_sense, iz_sign, samples, seed
    ):
        try:
            rho = DensityOperator(state_with_lowest(lowest, np.random.default_rng(seed)))
        except DomainError:
            # rounding put a start state at the floor just below it
            assume(False)
        prog = make_program(events)
        want = every_state_factored(rho, prog, samples, pulse_sense, iz_sign)
        try:
            _, traj = run_sequence(
                rho, prog, record=True, samples_per_delay=samples,
                pulse_sense=pulse_sense, iz_sign=iz_sign,
            )
        except DomainError as error:
            assert str(error) == want
            return
        assert not isinstance(want, str)
        assert [m.tobytes() for m in traj.matrices] == [m.tobytes() for m in want]
        np.linalg.cholesky(traj.matrices - FLOOR * np.eye(4))

    def test_a_start_state_is_factored_once_per_recorded_stretch(self, monkeypatch):
        shapes = []
        factors = qcore._factors

        def counting(m, shift):
            shapes.append(m.shape)
            return factors(m, shift)

        clear = DensityOperator(np.eye(4, dtype=complex) / 4)
        # its smallest eigenvalue between the floor and half of it
        between = DensityOperator(np.diag([0.75 * FLOOR, 0.5, 0.25, 0.25 - 0.75 * FLOOR]))
        monkeypatch.setattr(qcore, "_factors", counting)
        for prog, stretches in ((prepare_pure_program(), 2), (mixing_program(5), 2),
                                (cycle_program(0.4), 1)):
            shapes.clear()
            run_sequence(clear, prog, record=True, pulse_sense=-1)
            assert shapes == [(4, 4)] * stretches
        shapes.clear()
        _, traj = run_sequence(between, cycle_program(0.4), record=True, pulse_sense=-1)
        # the start state fails the certificate, and the stack is factored
        assert shapes == [(4, 4), (len(traj) - 1, 4, 4)]


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
cache_params = st.builds(SpinSystemParams, cache_offsets, cache_offsets)
# at most one directive per spin, each within the 10*2piJ offset bound
frame_directives = st.lists(
    st.builds(
        FrameOffset,
        st.sampled_from("ab"),
        st.one_of(signed_zeros, st.floats(-10.0, 10.0),
                  st.integers(-20, 20).map(lambda k: Fraction(k, 2))),
        st.just("piJ"),
    ),
    max_size=2,
    unique_by=lambda fr: fr.spin,
).map(tuple)
cache_programs = st.builds(
    make_program,
    st.lists(
        st.one_of(pulse_events, delay_events, st.just(Gradient()), signed_zero_events),
        max_size=8,
    ),
    cache_params,
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
            (step.end.hex(), step.product.tobytes()) for step in stretch
        )
        for stretch in compiled
    )


class TestCompileCache:
    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.one_of(pulse_events, st.just(Gradient()),
                      signed_zero_events.filter(lambda ev: isinstance(ev, Rotation))),
            max_size=8,
        ),
        frames=st.lists(
            st.tuples(cache_params, frame_directives, st.sampled_from((1, -1))),
            min_size=1, max_size=4,
        ),
        sense=st.sampled_from((1, -1)),
    )
    def test_a_delay_free_program_compiles_once_in_any_frame(self, events, frames, sense):
        # no event reads the offsets or the I_z sign, so neither is in the key
        pulse._compile.cache_clear()
        for params, directives, iz_sign in frames:
            prog = make_program(events, params, directives)
            fresh = pulse._compile.__wrapped__(prog.events, sense, prog.params, iz_sign)
            assert compiled_bits(pulse._stretches(prog, sense, iz_sign)) == compiled_bits(fresh)
        info = pulse._compile.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_a_program_with_a_delay_compiles_per_frame(self):
        events = [Rotation("b", "x", Fraction(1, 2)), Delay(per_j=Fraction(1, 2))]
        offsets = (
            SpinSystemParams(), SpinSystemParams(-0.0, 0.0),
            SpinSystemParams(omega_b=math.pi * J), SpinSystemParams(omega_a=0.3 * J),
        )
        keys = [(params, iz_sign) for params in offsets for iz_sign in (1, -1)]
        for repeat in (1, 2):
            for params, iz_sign in keys:
                prog = make_program(events, params)
                fresh = pulse._compile.__wrapped__(prog.events, 1, params, iz_sign)
                assert compiled_bits(pulse._stretches(prog, 1, iz_sign)) == compiled_bits(fresh)
            info = pulse._compile.cache_info()
            assert (info.misses, info.hits) == (len(keys), (repeat - 1) * len(keys))
        # a frame directive that sets the same offsets compiles the same bits
        framed = make_program(events, frames=(FrameOffset("b", Fraction(-1, 2), "piJ"),))
        assert framed.params == offsets[2]
        pulse._stretches(framed, 1, -1)
        assert pulse._compile.cache_info().misses == len(keys)

    def test_the_purity_ladder_compiles_once_per_pulse_sense(self):
        offsets = (SpinSystemParams(), SpinSystemParams(omega_a=0.3 * J, omega_b=-1.1 * J))
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for _ in range(2):
            for params, sense, iz_sign, n in itertools.product(
                offsets, (1, -1), (1, -1), range(12)
            ):
                prog = make_program(mixing_program(n).events, params)
                run_sequence(rho, prog, pulse_sense=sense, iz_sign=iz_sign)
            # 24 misses on the first pass, none on the second
            assert pulse._compile.cache_info().misses == 2 * 12

    @settings(max_examples=60, deadline=None)
    @given(prog=cache_programs, sense=st.sampled_from((1, -1)), iz_sign=st.sampled_from((1, -1)))
    def test_hits_are_bit_identical_to_a_fresh_compile(self, prog, sense, iz_sign):
        # twins compare equal event by event, but a signed zero or a flip
        # in radians instead of half turns changes the propagators' bits
        for twin in (remade(prog, negated_zero), remade(prog, in_radians)):
            for first, second in ((prog, twin), (twin, prog)):
                pulse._compile.cache_clear()
                for p in (first, second, first, second):
                    fresh = pulse._compile.__wrapped__(p.events, sense, p.params, iz_sign)
                    got = pulse._stretches(p, sense, iz_sign)
                    assert compiled_bits(got) == compiled_bits(fresh)
                assert pulse._compile.cache_info().hits >= 2

    def test_cached_products_are_read_only(self):
        prog = make_program([Rotation("b", "x", Fraction(1, 2)), Delay(per_j=Fraction(1, 2))])
        for compiled in (pulse._stretches(prog, 1, 1), pulse._stretches(prog, 1, 1)):
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


# programs whose equal events share one propagator, and whose delays of
# equal duration share one sample set
REPEATED_EVENT_PROGRAMS = {
    "literal-cycle": cycle_program(0.3),
    "seconds-beside-per-j": make_program(
        [Rotation("b", "x", Fraction(1, 3)), Delay(seconds=HALF_J_DELAY),
         Rotation("b", "-x", 0.7), Delay(per_j=Fraction(1, 2))],
        SpinSystemParams(omega_a=0.4 * J, omega_b=-1.3 * J),
    ),
    "repeated-rotation": make_program(
        [Rotation("b", "x", Fraction(1, 2)), Delay(per_j=Fraction(1, 4)),
         Rotation("b", "x", Fraction(1, 2)), Gradient(), Rotation("b", "x", Fraction(1, 2)),
         Rotation("a", "y", 0.9), Delay(per_j=Fraction(1, 4)), Rotation("a", "y", 0.9)],
        SpinSystemParams(omega_b=math.pi * J),
    ),
    "unequal-delays": make_program(
        [Rotation("b", "-x", 0.4), Delay(per_j=Fraction(1, 2)), Rotation("b", "-x", 2.3),
         Delay(per_j=Fraction(1, 3)), Delay(seconds=1e-3)],
        SpinSystemParams(omega_a=-0.2 * J, omega_b=0.6 * J),
    ),
    "signed-zero-delays": make_program(
        [Delay(seconds=0.0), Rotation("b", "x", 0.5), Delay(seconds=-0.0),
         Delay(seconds=0.0), Delay(seconds=-0.0)],
        SpinSystemParams(omega_a=0.1 * J, omega_b=0.3 * J),
    ),
}


class TestSharedWork:
    def test_a_seconds_delay_shares_samples_but_not_its_key(self):
        seconds, per_j = Delay(seconds=HALF_J_DELAY), Delay(per_j=Fraction(1, 2))
        assert seconds != per_j and seconds.duration() == per_j.duration()

    @pytest.mark.parametrize("name", REPEATED_EVENT_PROGRAMS)
    @pytest.mark.parametrize("pulse_sense, iz_sign", itertools.product((1, -1), (1, -1)))
    def test_shared_work_gives_the_unshared_bits(self, name, pulse_sense, iz_sign):
        prog = REPEATED_EVENT_PROGRAMS[name]
        rho = random_two_spin_state(np.random.default_rng(97))
        steps = unshared_steps(prog, pulse_sense, iz_sign)
        compiled = pulse._stretches(prog, pulse_sense, iz_sign)
        assert compiled_bits(compiled) == compiled_bits(
            [s if isinstance(s, Gradient) else [pulse._Step(*step) for step in s] for s in steps]
        )
        want = rho
        for stretch in steps:
            want = (gradient_crusher(want) if isinstance(stretch, Gradient)
                    else DensityOperator(oracle.conj(want.matrix, stretch[-1][2])))
        final, _ = run_sequence(rho, prog, pulse_sense=pulse_sense, iz_sign=iz_sign)
        assert same_state(final, want)
        for samples in (1, 2, 16):
            times, states = sample_stack_oracle(rho, prog, samples, pulse_sense, iz_sign)
            final, traj = run_sequence(rho, prog, record=True, samples_per_delay=samples,
                                       pulse_sense=pulse_sense, iz_sign=iz_sign)
            assert traj.times.tobytes() == np.array(times).tobytes()
            assert len(traj) == len(states)
            assert all(same_state(got, ref) for (_, got), ref in zip(traj, states))
            assert same_state(final, states[-1])

    @pytest.mark.parametrize("name", REPEATED_EVENT_PROGRAMS)
    def test_each_distinct_event_and_duration_is_built_once(self, name, monkeypatch):
        prog = REPEATED_EVENT_PROGRAMS[name]
        calls = {"pulse_unitary": [], "free_evolution_unitary": [], "_free_phases": []}
        for builder, seen in calls.items():
            def count(*args, _seen=seen, _original=getattr(pulse, builder), **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pulse, builder, count)
        # each distinct value once, in program order
        rotations = list(dict.fromkeys(ev for ev in prog.events if isinstance(ev, Rotation)))
        delays = list(dict.fromkeys(ev for ev in prog.events if isinstance(ev, Delay)))
        durations = list(dict.fromkeys(ev.duration() for ev in delays))
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        for iz_sign in (1, -1):
            for seen in calls.values():
                seen.clear()
            pulse._compile.cache_clear()
            pulse._stretches(prog, 1, iz_sign)
            assert [args[0] for args in calls["pulse_unitary"]] == rotations
            assert [args[1] for args in calls["free_evolution_unitary"]] == durations
            for samples in (1, 2, 16):
                for _ in range(2):
                    calls["_free_phases"].clear()
                    run_sequence(rho, prog, record=True, samples_per_delay=samples,
                                 iz_sign=iz_sign)
                    # the run compiled nothing: one sample set per distinct
                    # duration, in program order, and none at one sample
                    elapsed = [args[1].tobytes() for args in calls["_free_phases"]]
                    assert elapsed == [
                        (dt * np.arange(1, samples) / samples).tobytes() for dt in durations
                    ] * (samples > 1)
