"""Propagators for hard pulses, scalar-coupled free evolution, and crushers.

Everything is computed in the doubly rotating frame: only each spin's offset
from its frame enters the free-evolution phases, never the Larmor frequencies
themselves. Pulses are instantaneous (no J evolution during a pulse); delays
are diagonal in the Zeeman product basis.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError
from .policy import POLICY
from .qcore import (
    DensityOperator, _DMA, _DMB, _MA, _MB, _SPINS, _blocks, _check_count, _check_real,
    _check_sign, _check_two_spin, _conjugate, _embed, _validated, identity4, is_unitary,
    rotation_unitary,
)

# Scalar coupling J of the heteronuclear pair in Hz, fixed for every program
DEFAULT_J = 214.5

AXIS_LABELS = {
    "x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
}
# the units of a frame directive's value, each stated once, here
_FRAME_UNITS = ("Hz", "piJ")


def _real_field(obj, name: str, value, rational: bool = False) -> tuple:
    """The one check of the value passed for a numeric field of obj:
    qcore._check_real decides that it is a real number that fits a float (a
    plain float is one, and skips the probe), and this that it is finite,
    or a DomainError names the field as "{class}.{field}". A rational field,
    a k/J delay, a piJ offset or a flip given as a Fraction (in half turns),
    is stored as a Fraction: a float converts exactly, and -0.0 becomes 0.
    Any other number is stored as its float (radians, seconds or Hz), so
    that numpy scalars and 0-d arrays hash, as the compile cache needs.
    Each value is thus stored in the one form that the parser gives back
    for its rendering.

    Returns (stored form, its float, its part of obj._key). The float is the
    one the probe made (the stored Fraction's, where a rational field was
    converted), so that no field is converted twice. obj._key, which == and
    hash compare in place of the value fields, holds each field's part in
    field order, flat: a float and its sign (0.0 against -0.0), or a
    Fraction's numerator, denominator and type (a Fraction flip, in half
    turns, against as many radians). Equal value objects therefore compile
    to the same bits, and no comparison or hash of one reads a Fraction."""
    number = value if type(value) is float else _check_real(value, name, obj)
    if not math.isfinite(number):
        raise DomainError(f"{type(obj).__name__}.{name} must be finite")
    if not rational:
        return number, number, (number, math.copysign(1.0, number))
    # an ABC check is slow: Fractions, most rational values, skip it
    if type(value) is not Fraction:
        # int(): a numpy integer's numerator is a fixed-width numpy integer
        value = (Fraction(int(value.numerator), int(value.denominator))
                 if isinstance(value, numbers.Rational) else Fraction(number))
        number = float(value)
    return value, number, (value.numerator, value.denominator, Fraction)


@dataclass(frozen=True, init=False)
class SpinSystemParams:
    """Two-spin rotating-frame offsets in rad/s; the coupling is DEFAULT_J.

    omega_a and omega_b are each spin's offset from its rotating frame (the
    defaults put both spins on resonance). Absolute Larmor values never
    enter a rotating-frame propagator, and carrying them around at 1e8 rad/s
    scale would only round the offsets they are subtracted into. Offsets
    are stored as floats: an int or Fraction offset compiles to the same
    bits as its float and compares equal to it. This is the one check of
    the 10*2piJ sanity bound on an offset, a frame directive's included.
    """

    omega_a: float = field(default=0.0, compare=False)
    omega_b: float = field(default=0.0, compare=False)
    _key: tuple = field(init=False, repr=False)

    def __init__(self, omega_a: float = 0.0, omega_b: float = 0.0) -> None:
        omega_a, _, key_a = _real_field(self, "omega_a", omega_a)
        omega_b, _, key_b = _real_field(self, "omega_b", omega_b)
        if max(abs(omega_a), abs(omega_b)) > 10 * 2 * math.pi * DEFAULT_J:
            raise DomainError("frame offset exceeds the 10*2piJ sanity bound")
        self.__dict__.update(omega_a=omega_a, omega_b=omega_b, _key=key_a + key_b)


def _check_spin(spin: str) -> None:
    if spin not in _SPINS:
        raise DomainError(f"unknown spin label {spin!r}")


@dataclass(frozen=True, init=False)
class Rotation:
    """Hard pulse on one spin about a transverse axis.

    axis is one of the labels 'x', '-x', 'y', '-y' or a transverse phase angle
    in radians, stored as a float. flip is the nominal rotation angle: a
    Fraction means an exact multiple of pi (kept exact, as a plain
    Fraction, for bit-stable rendering), any other number is radians.
    flip_radians, the flip in radians, is computed once, here. The axis, a
    label or a float, compares as itself; the flip, which may be a
    Fraction, only through the key (see _real_field).
    """

    spin: str
    axis: str | float
    flip: Fraction | float = field(compare=False)
    flip_radians: float = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False)

    def __init__(self, spin: str, axis: str | float, flip: Fraction | float) -> None:
        _check_spin(spin)
        if isinstance(axis, str):
            if axis not in AXIS_LABELS:
                raise DomainError(f"unknown axis label {axis!r}")
            key = ()
        else:
            axis, _, key = _real_field(self, "axis", axis)
        half_turns = isinstance(flip, Fraction)
        flip, radians, flip_key = _real_field(self, "flip", flip, half_turns)
        if half_turns:
            radians *= math.pi
        if not -2 * math.pi < radians <= 2 * math.pi:
            raise DomainError("flip angle must lie in (-2pi, 2pi]")
        self.__dict__.update(spin=spin, axis=axis, flip=flip, _key=key + flip_key,
                             flip_radians=radians)

    def axis_vector(self) -> tuple[float, float, float]:
        if isinstance(self.axis, str):
            return AXIS_LABELS[self.axis]
        return (math.cos(self.axis), math.sin(self.axis), 0.0)


@dataclass(frozen=True, init=False)
class Delay:
    """Free-evolution interval; exactly one of seconds / per_j is set.

    per_j keeps durations given as k/J as exact rationals so programs built
    from 1/(2J) blocks sum to exact multiples of 1/J. The duration in
    seconds is computed once, here.
    """

    seconds: float | None = field(default=None, compare=False)
    per_j: Fraction | None = field(default=None, compare=False)
    _key: tuple = field(init=False, repr=False)
    _duration: float = field(init=False, repr=False, compare=False)

    def __init__(self, seconds: float | None = None, per_j: Fraction | None = None) -> None:
        if (seconds is None) == (per_j is None):
            raise DomainError("delay needs exactly one of seconds or per_j")
        if per_j is None:
            seconds, duration, key = _real_field(self, "seconds", seconds)
        else:
            per_j, duration, key = _real_field(self, "per_j", per_j, True)
            duration /= DEFAULT_J
        # the key opens with the float, or with the Fraction's numerator: the
        # sign of the duration either way, and no Fraction comparison
        if key[0] < 0:
            raise DomainError("delay duration must be nonnegative")
        self.__dict__.update(seconds=seconds, per_j=per_j, _key=key, _duration=duration)

    def duration(self) -> float:
        return self._duration


@dataclass(frozen=True)
class Gradient:
    """Crusher gradient along z, the only axis modeled."""


PulseEvent = Rotation | Delay | Gradient


@dataclass(frozen=True, init=False)
class FrameOffset:
    """Frame directive: place one spin's frame at the spin's resonance plus
    value in the given unit ('piJ' = multiples of 2piJ rad/s, so -0.5piJ
    places it piJ rad/s below; 'Hz'). The spin's offset from its frame is
    then minus that value, and the frame's angular value is computed once,
    here."""

    spin: str
    value: Fraction | float = field(compare=False)
    unit: str
    _key: tuple = field(init=False, repr=False)
    _angular: float = field(init=False, repr=False, compare=False)

    def __init__(self, spin: str, value: Fraction | float, unit: str) -> None:
        _check_spin(spin)
        if unit not in _FRAME_UNITS:
            raise DomainError(f"unknown frame offset unit {unit!r}")
        in_pij = unit == "piJ"
        value, number, key = _real_field(self, "value", value, in_pij)
        angular = number * 2 * math.pi * DEFAULT_J if in_pij else 2 * math.pi * number
        self.__dict__.update(spin=spin, value=value, unit=unit, _key=key, _angular=angular)

    def angular(self) -> float:
        return self._angular


@dataclass(frozen=True)
class SequenceProgram:
    """Ordered pulse-program events plus the frame they execute in.

    params must be a SpinSystemParams and each frame a FrameOffset. Each
    frame directive sets its spin's offset in params (one per spin; the
    params check the sanity bound), so a program compiles in the frame it
    renders.
    Two programs compare equal only when they compile to the same bits,
    since their events, parameters and frames do (see _real_field). The
    pass that refuses any event but a PulseEvent, so that compiling and
    rendering need no check of their own, also sets _has_delay: whether a
    compile reads params and the I_z sign at all (see _stretches).
    """

    events: tuple[PulseEvent, ...]
    params: SpinSystemParams
    frames: tuple[FrameOffset, ...] = ()
    _has_delay: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # tuples, so that a program hashes and cannot change under the cache
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "frames", tuple(self.frames))
        if not isinstance(self.params, SpinSystemParams):
            raise DomainError("SequenceProgram.params must be a SpinSystemParams")
        offsets = {}
        for fr in self.frames:
            if not isinstance(fr, FrameOffset):
                raise DomainError(
                    f"SequenceProgram.frames must hold FrameOffsets, not {type(fr).__name__}"
                )
            if fr.spin in offsets:
                raise DomainError(f"spin {fr.spin} has more than one frame directive")
            # an offset past max float is past the bound too, and is refused
            # there rather than as an infinite offset
            offsets[fr.spin] = max(-sys.float_info.max, min(-fr.angular(), sys.float_info.max))
        if offsets:
            p = self.params
            params = SpinSystemParams(offsets.get("a", p.omega_a), offsets.get("b", p.omega_b))
            object.__setattr__(self, "params", params)
        has_delay = False
        for ev in self.events:
            if not isinstance(ev, (Rotation, Delay, Gradient)):
                raise DomainError(f"unknown event type {type(ev).__name__}")
            has_delay = has_delay or isinstance(ev, Delay)
        object.__setattr__(self, "_has_delay", has_delay)

    @property
    def total_duration(self) -> float:
        """Sum of delay durations in seconds: the clock's last time."""
        return (0.0, *_clock(self.events))[-1]


def _clock(events) -> Iterator[float]:
    """The program's one clock: when each event ends, in seconds, rounded
    once from the exact sum of k/J delays plus the float sum of delays in
    seconds. The exact sum is an integer numerator over the lcm of the
    denominators so far, with no Fraction arithmetic: Python's int division
    rounds it correctly, to the float of the Fraction sum. A time too large
    for a float is a DomainError."""
    num, den, seconds, end = 0, 1, 0.0, 0.0
    for ev in events:
        if isinstance(ev, Delay):
            if ev.per_j is not None:
                p, q = ev.per_j.numerator, ev.per_j.denominator
                lcm = math.lcm(den, q)
                num, den = num * (lcm // den) + p * (lcm // q), lcm
            else:
                seconds += ev.seconds
            try:
                end = num / den / DEFAULT_J + seconds
            except OverflowError:
                end = math.inf
            if end == math.inf:
                raise DomainError("total duration is too large for a float")
        yield end


def make_program(
    events, params: SpinSystemParams | None = None, frames: tuple[FrameOffset, ...] = ()
) -> SequenceProgram:
    """Assemble a program on params, or on the default parameters."""
    return SequenceProgram(events, params if params is not None else SpinSystemParams(), frames)


def free_evolution_unitary(
    params: SpinSystemParams, t: float, iz_sign: int = 1
) -> np.ndarray:
    """Diagonal propagator exp(-i H t) of the rotating-frame Hamiltonian
    H = omega_a I_z^a + omega_b I_z^b + 2piJ I_z^a I_z^b.

    iz_sign = +-1 selects which Zeeman label carries m = +1/2; the J term is
    invariant under the flip, the offset terms change sign with it. The
    four energies are built once (see _energies); their largest magnitude
    bounds energy*time, and their phases fill the diagonal.
    """
    if not isinstance(params, SpinSystemParams):
        raise DomainError(f"params must be a SpinSystemParams, not {type(params).__name__}")
    t = _check_real(t, "evolution time")
    if not 0 <= t < math.inf:
        raise DomainError("evolution time must be finite and nonnegative")
    _check_sign(iz_sign, "iz_sign")
    energies = _energies(params, iz_sign)
    # A phase is finite exactly when its t*E_j is (0*inf makes a nan
    # otherwise), and a float product rounds monotonically, so the largest
    # |E_j| decides for all four without computing a phase.
    top = float(abs(energies).max())
    if t * top == math.inf:
        raise DomainError(f"delay of {t!r} s is too long: energy*time must fit a float")
    return np.diag(_free_phases(energies, t))


def _energies(params: SpinSystemParams, iz_sign: int) -> np.ndarray:
    """The eigenvalues of H in basis order |uu>, |ud>, |du>, |dd>, each
    omega_a*ma + omega_b*mb + 2piJ*ma*mb of its spins' signed m_z values,
    computed as that scalar formula in Python floats, one entry at a time."""
    a, b, coupling = params.omega_a, params.omega_b, 2 * math.pi * DEFAULT_J
    # the J term takes no sign: rounding is odd, so flipping both m keeps its bits
    return np.array([a * (iz_sign * ma) + b * (iz_sign * mb) + coupling * ma * mb
                     for ma, mb in zip(_MA.tolist(), _MB.tolist())])


def _free_phases(energies: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Diagonal of exp(-iHt) for the eigenvalues energies of H (see
    _energies): shape (4,) for one time t, (k, 4) for an array of k times."""
    return np.exp(1j * np.multiply.outer(t, -energies))


def _delay_samples(
    energies: np.ndarray, dt: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """The samples_per_delay - 1 elapsed times dt*i/samples of a recorded
    delay of duration dt after its start, and the diagonals of exp(-iHt) at
    them, each phase checked for unit modulus (see run_sequence). They
    depend only on the energies, dt and samples, so a run computes them
    once per distinct duration."""
    # dt * np.arange(1, samples) overflows exactly when its last entry does
    if dt * (samples - 1) == math.inf:
        raise DomainError(
            f"delay of {dt!r} s is too long to record:"
            " duration*samples_per_delay must fit a float"
        )
    elapsed = dt * np.arange(1, samples) / samples
    phases = _free_phases(energies, elapsed)
    # not (phases * phases.conj()).real: numpy's complex product
    # may fuse a multiply-add, and then rounds unlike the Gram
    if not abs(phases.real ** 2 + phases.imag ** 2 - 1).max() <= POLICY.unitarity_tol:
        raise DomainError("sample propagator is not unitary within tolerance")
    return elapsed, phases


def pulse_unitary(ev: Rotation, sense: int = 1) -> np.ndarray:
    """Two-spin propagator of a hard pulse.

    sense = +-1 fixes how a pulse label (axis, flip) maps onto a physical
    rotation: the realized unitary is exp(-i sense*flip axis.sigma/2) on the
    target spin. sense=+1 reproduces rotation_unitary verbatim. The 4x4 is
    u on the target spin's blocks, filled in place (see qcore._embed): it
    equals tensor(u, 1) or tensor(1, u) under ==, and its other entries are
    +0.0, where the Kronecker product has -0.0 imaginary parts.
    """
    _check_sign(sense, "pulse sense")
    u = rotation_unitary(ev.axis_vector(), sense * ev.flip_radians)
    return _embed(ev.spin, u, u)


def gradient_crusher(rho: DensityOperator) -> DensityOperator:
    """Project onto the Zeeman-diagonal part (ideal z-crusher on a
    heteronuclear pair: every nonzero coherence order dephases).

    The copy is not checked again, and _validated would return its bits:
    rho's symmetrized diagonal is real with +0.0 imaginary parts, sums to
    rho's trace in the same order, and lies above the eigenvalue floor,
    since rho's own positivity check factored it."""
    _check_two_spin(rho, "crusher model is defined for the two-spin system")
    m = np.diag(rho.matrix.diagonal())
    m.setflags(write=False)
    return DensityOperator._wrap(m, rho.normalized)


def check_t2_times(times) -> tuple[float, float]:
    """The transverse decay times (t2a, t2b) as floats, checked positive (an
    infinite time is no decay). times must be a pair of real numbers, each
    through qcore._check_real, so text is refused too; anything else is a
    DomainError that names relaxation."""
    try:
        t2a, t2b = (_check_real(t, "relaxation") for t in times)
    except (TypeError, ValueError):
        raise DomainError(
            "relaxation must be a pair (t2a, t2b) of real numbers that fit a float"
        ) from None
    if not (t2a > 0 and t2b > 0):
        raise DomainError("relaxation times must be positive")
    return t2a, t2b


def apply_t2_relaxation(
    rho: DensityOperator, t: float, t2a: float, t2b: float
) -> DensityOperator:
    """Phenomenological transverse dephasing: coherence between basis states
    decays as exp(-|dm_a| t/T2a) exp(-|dm_b| t/T2b); populations untouched."""
    _check_two_spin(rho, "relaxation model is defined for the two-spin system")
    t = _check_real(t, "relaxation time")
    if not 0 <= t < math.inf:
        raise DomainError("relaxation time must be finite and nonnegative")
    t2a, t2b = check_t2_times((t2a, t2b))
    # t/T2 may overflow (subnormal T2): dm*t first, so 0*inf never makes a nan
    with np.errstate(over="ignore"):
        factors = np.exp(-(_DMA * t) / t2a) * np.exp(-(_DMB * t) / t2b)
    return DensityOperator._wrap(_validated(rho.matrix * factors, rho.normalized), rho.normalized)


class _Step(NamedTuple):
    """One unitary event of a stretch, its end on the program's clock and
    the stretch's read-only running propagator up to and including it
    (latest factor leftmost)."""

    event: Rotation | Delay
    end: float
    product: np.ndarray


# A compile reads the events and the pulse sense, and reads the offsets and
# the I_z sign only to build a Delay's propagator, so only a program with a
# Delay carries them in its key (see _stretches): a delay-free program, such
# as each purity mixing, compiles once per pulse sense in any frame. Entries:
# the twelve mixing programs under both pulse senses (24), plus the
# preparation and the cycle each grid point brings; at 16 the two senses'
# mixings would evict each other.
@functools.lru_cache(maxsize=32)
def _compile(
    events: tuple[PulseEvent, ...],
    pulse_sense: int,
    params: SpinSystemParams | None,
    iz_sign: int | None,
) -> tuple[Gradient | tuple[_Step, ...], ...]:
    """Split a program's events at its crushers into stretches of unitary
    events.

    Crushers stay in the tuple as themselves; each step carries the
    stretch's running propagator up to it, so the last step's is the whole
    stretch's, which qcore._conjugate takes as it is.
    Each distinct rotation's propagator is built once, looked up by the
    event itself, since equal events compile to the same bits (see
    _real_field); each delay's is looked up by its duration, the only thing
    of the delay it depends on: the cycle's second 1/(2J) delay reuses the
    first's, and a delay in seconds shares the propagator of an equal one
    given per J. Every distinct propagator and every running propagator
    pass one stacked unitarity check, so a run, recorded or not, conjugates
    by the cached products without checking them again. The program's whole clock is
    checked up front.

    The arguments are the cache key, and hold only what a compile reads:
    the events and the pulse sense always, the program's params and the
    I_z sign only when it has a Delay (None otherwise, as no other event
    reads them). Callers go through _stretches, which checks both signs on
    every call. The result is kept in a least-recently-used cache of 32
    entries (see above), immutable (tuples, read-only products) so that
    every caller can share it. A program that fails a check raises on every
    call, since an exception is never cached.
    """
    compiled: list[Gradient | list[_Step]] = []
    factors: dict[Rotation | float, np.ndarray] = {}
    products: list[np.ndarray] = []
    for ev, end in zip(events, tuple(_clock(events))):
        if isinstance(ev, Gradient):
            compiled.append(ev)
            continue
        rotation = isinstance(ev, Rotation)
        key = ev if rotation else ev.duration()
        u = factors.get(key)
        if u is None:
            u = factors[key] = (pulse_unitary(ev, sense=pulse_sense) if rotation
                                else free_evolution_unitary(params, key, iz_sign))
        if compiled and isinstance(compiled[-1], list):
            product = u @ compiled[-1][-1].product
            products.append(product)
        else:
            # a stretch's first running propagator is its first factor
            product = u
            compiled.append([])
        product.setflags(write=False)
        compiled[-1].append(_Step(ev, end, product))
    if factors and not is_unitary(np.array([*factors.values(), *products])):
        raise DomainError("event propagator is not unitary within tolerance")
    return tuple([s if isinstance(s, Gradient) else tuple(s) for s in compiled])


def _check_program(prog: SequenceProgram) -> None:
    if not isinstance(prog, SequenceProgram):
        raise DomainError(f"prog must be a SequenceProgram, not {type(prog).__name__}")


def _stretches(
    prog: SequenceProgram, pulse_sense: int, iz_sign: int
) -> tuple[Gradient | tuple[_Step, ...], ...]:
    """prog compiled under the two sign conventions (see _compile), both
    checked first, whether or not an event reads them."""
    _check_program(prog)
    _check_sign(pulse_sense, "pulse sense")
    _check_sign(iz_sign, "iz_sign")
    if prog._has_delay:
        return _compile(prog.events, pulse_sense, prog.params, iz_sign)
    return _compile(prog.events, pulse_sense, None, None)


@dataclass(frozen=True, slots=True, eq=False)
class Trajectory:
    """A run's times (k,) in seconds, matrices (k, n, n) and their one
    normalized flag. len, an int index and iteration give (time,
    DensityOperator) pairs, built when read; a slice gives a Trajectory."""

    times: np.ndarray | tuple[float, ...]
    matrices: np.ndarray | tuple[np.ndarray, ...]
    normalized: bool

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.times[index], self.matrices[index], self.normalized)
        i = operator.index(index)
        return float(self.times[i]), DensityOperator._wrap(self.matrices[i], self.normalized)


def run_sequence(
    rho0: DensityOperator,
    prog: SequenceProgram,
    record: bool = False,
    samples_per_delay: int = 64,
    pulse_sense: int = 1,
    iz_sign: int = 1,
) -> tuple[DensityOperator, Trajectory]:
    """Execute a program left to right.

    Crushers split the program into stretches of pulses and delays; the
    propagator of each stretch is the product of its events' closed-form
    propagators, each of which is checked for unitarity. The program
    compiles once per distinct (events, pulse_sense) when it has no delay,
    and once per distinct (events, pulse_sense, params, iz_sign) when it
    has one, in a bounded cache shared with branch_propagators (see
    _compile), which also checks each stretch's running propagator after
    every event for unitarity. Unrecorded, a stretch then costs one
    conjugation of the state it starts in by the cached product (see
    qcore._conjugate) and one state check of the result; the run does not
    check the cached product again.

    Returns the final state and the run's Trajectory, which opens with
    (0, rho0), its times read off the program's clock (see _clock).
    Unrecorded, it closes with (total_duration, final state). Recorded, it
    holds one entry at the end of each event, and each delay of duration dt
    first adds samples_per_delay - 1 samples at dt*i/samples_per_delay
    after its start. A recorded stretch stacks one propagator per entry: the
    running product after each event, and before the sample i of a delay
    exp(-iH dt*i/samples_per_delay) times the running product the delay
    starts from. Every sample therefore comes from the delay's start state
    under its own propagator, so rounding does not grow with the sample
    count. The running products were checked at compile, so a recorded run
    checks only the delays' sample phases: every phase d must have
    |Re(d)^2 + Im(d)^2 - 1| within the unitarity tolerance, the very
    deviation that the Gram check of is_unitary finds on diag(d). The
    phases depend only on the energies, the duration and
    samples_per_delay, so the run samples and checks each distinct delay
    duration once (see _delay_samples), before any state uses them, and
    each delay multiplies them into its own start product. The
    stretch's start state is then conjugated by the whole stack at once,
    through the same kernel as an unrecorded stretch: one batched product
    and one state check, no second unitarity check. That check factors no
    recorded state of a normalized run when the stretch's start state
    minus half the eigenvalue floor factors: every propagator of the stack
    is unitary within 6 times the unitarity tolerance, so every state
    clears the floor by more than 4.9e-11 (see qcore._conjugate). A start
    state that does not clear half the floor leaves the stack to one
    stacked factorization, as before; either way the verdict is the same,
    and Hermiticity and trace are checked on every state.
    The stack closes on the very product an unrecorded run conjugates by,
    so the final state is bit-identical with or without record. The
    stacks are joined once into the Trajectory's read-only arrays.
    """
    _check_two_spin(rho0, "sequences act on the two-spin system", "rho0")
    if record:
        samples = _check_count(samples_per_delay, "samples_per_delay", 1)
        times, matrices = [(0.0,)], [rho0.matrix[None]]
    t = 0.0
    rho = rho0
    stretches = _stretches(prog, pulse_sense, iz_sign)
    # every delay of a run samples the same four energies, after the sign checks
    energies = _energies(prog.params, iz_sign) if record and prog._has_delay else None
    # each distinct delay duration's (elapsed times, checked sample phases)
    sampled: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for stretch in stretches:
        if isinstance(stretch, Gradient):
            rho = gradient_crusher(rho)
            if record:
                times.append((t,))
                matrices.append(rho.matrix[None])
            continue
        if not record:
            t = stretch[-1].end
            rho = DensityOperator._wrap(_conjugate(rho, stretch[-1].product), rho.normalized)
            continue
        stack, before = [], identity4
        for ev, end, product in stretch:
            if isinstance(ev, Delay) and samples > 1:
                dt = ev.duration()
                if dt not in sampled:
                    sampled[dt] = _delay_samples(energies, dt, samples)
                elapsed, phases = sampled[dt]
                times.append(t + elapsed)
                stack.append(phases[:, :, None] * before)
            times.append((end,))
            stack.append(product[None])
            t, before = end, product
        matrices.append(_conjugate(rho, np.concatenate(stack)))
        rho = DensityOperator._wrap(matrices[-1][-1], rho.normalized)
    if not record:
        return rho, Trajectory((0.0, t), (rho0.matrix, rho.matrix), rho0.normalized)
    times, matrices = np.concatenate(times), np.concatenate(matrices)
    times.setflags(write=False)
    matrices.setflags(write=False)
    return rho, Trajectory(times, matrices, rho0.normalized)


def branch_propagators(
    prog: SequenceProgram, pulse_sense: int = 1, iz_sign: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-b propagators conditioned on the spin-a Zeeman state.

    Valid only for programs containing b-spin pulses and delays (anything
    else is rejected); their propagators are block diagonal with exact zeros
    off the blocks. Returns (U when a is up, U when a is down) as 2x2 blocks
    of the full propagator.
    """
    _check_program(prog)
    for ev in prog.events:
        if isinstance(ev, Gradient):
            raise DomainError("branch propagators are unitary; crushers not allowed")
        if isinstance(ev, Rotation) and ev.spin != "b":
            raise DomainError("branch propagators require b-spin pulses only")
    stretches = _stretches(prog, pulse_sense, iz_sign)
    u = stretches[0][-1].product if stretches else identity4
    up, down = _blocks(u, "b")
    return up.copy(), down.copy()
