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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError
from .qcore import (
    DensityOperator, _check_sign, _conjugate, _validated, evolve, identity4, is_unitary,
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

# m_z eigenvalue pattern (in units of the +-1/2 quantum numbers, before the
# I_z sign convention is applied) for basis order |uu>, |ud>, |du>, |dd>
_MA = np.array([0.5, 0.5, -0.5, -0.5])
_MB = np.array([0.5, -0.5, 0.5, -0.5])


def _check_offset(omega: float) -> float:
    """A frame offset in rad/s, checked to lie within the 10*2piJ sanity
    bound."""
    if abs(omega) > 10 * 2 * math.pi * DEFAULT_J:
        raise DomainError("frame offset exceeds the 10*2piJ sanity bound")
    return omega


def _store_reals(obj, *names: str, labels: tuple[str, ...] = ()) -> None:
    """Store each named value field of obj as a float, unless it already is
    one or is rational (a Fraction flip counts half turns). The conversion is
    exact and makes numpy scalars and 0-d arrays hashable, as the compile
    cache needs. A float must be finite, and a str or None is no number,
    except that a field named in labels may hold a str label, which the
    class checks itself.

    obj._forms, which == and hash compare too, gets each field's form: the
    sign of a float (0.0 against -0.0) and the type of anything else (a
    Fraction flip, in half turns, against as many radians). Equal value
    objects therefore compile to the same bits."""
    forms = []
    for name in names:
        value = getattr(obj, name)
        if value is None or (isinstance(value, str) and name not in labels):
            raise DomainError(f"{type(obj).__name__}.{name} must be a real number")
        if type(value) not in (float, Fraction, str) and not isinstance(value, numbers.Rational):
            value = float(value)
            object.__setattr__(obj, name, value)
        if type(value) is float and not math.isfinite(value):
            raise DomainError(f"{type(obj).__name__}.{name} must be finite")
        forms.append(math.copysign(1.0, value) if type(value) is float else type(value))
    object.__setattr__(obj, "_forms", tuple(forms))


@dataclass(frozen=True)
class SpinSystemParams:
    """Two-spin rotating-frame offsets in rad/s; the coupling is DEFAULT_J.

    omega_a and omega_b are each spin's offset from its rotating frame (the
    defaults put both spins on resonance). Absolute Larmor values never
    enter a rotating-frame propagator, and carrying them around at 1e8 rad/s
    scale would only round the offsets they are subtracted into.
    """

    omega_a: float = 0.0
    omega_b: float = 0.0
    _forms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _store_reals(self, "omega_a", "omega_b")
        _check_offset(self.omega_a)
        _check_offset(self.omega_b)


def _check_spin(spin: str) -> None:
    if spin not in ("a", "b"):
        raise DomainError(f"unknown spin label {spin!r}")


@dataclass(frozen=True)
class Rotation:
    """Hard pulse on one spin about a transverse axis.

    axis is one of the labels 'x', '-x', 'y', '-y' or a transverse phase angle
    in radians. flip is the nominal rotation angle: a Fraction means an exact
    multiple of pi (kept exact for bit-stable rendering), a float is radians.
    """

    spin: str
    axis: str | float
    flip: Fraction | float
    _forms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_spin(self.spin)
        if isinstance(self.axis, str) and self.axis not in AXIS_LABELS:
            raise DomainError(f"unknown axis label {self.axis!r}")
        _store_reals(self, "axis", "flip", labels=("axis",))
        angle = self.flip_radians
        if not -2 * math.pi < angle <= 2 * math.pi:
            raise DomainError("flip angle must lie in (-2pi, 2pi]")

    @property
    def flip_radians(self) -> float:
        flip = self.flip
        return float(flip) * math.pi if isinstance(flip, Fraction) else float(flip)

    def axis_vector(self) -> np.ndarray:
        if isinstance(self.axis, str):
            return np.array(AXIS_LABELS[self.axis])
        phi = float(self.axis)
        return np.array([math.cos(phi), math.sin(phi), 0.0])


@dataclass(frozen=True)
class Delay:
    """Free-evolution interval; exactly one of seconds / per_j is set.

    per_j keeps durations given as k/J as exact rationals so programs built
    from 1/(2J) blocks sum to exact multiples of 1/J.
    """

    seconds: float | None = None
    per_j: Fraction | None = None
    _forms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.seconds is None) == (self.per_j is None):
            raise DomainError("delay needs exactly one of seconds or per_j")
        name = "per_j" if self.seconds is None else "seconds"
        _store_reals(self, name)
        if getattr(self, name) < 0:
            raise DomainError("delay duration must be nonnegative")
        try:
            self.duration()
        except OverflowError:
            raise DomainError(f"Delay.{name} must fit a float") from None

    def duration(self) -> float:
        if self.per_j is not None:
            return float(self.per_j) / DEFAULT_J
        return float(self.seconds)


@dataclass(frozen=True)
class Gradient:
    """Crusher gradient along z, the only axis modeled."""


PulseEvent = Rotation | Delay | Gradient


@dataclass(frozen=True)
class FrameOffset:
    """Frame directive: place one spin's frame at the spin's resonance plus
    value in the given unit ('piJ' = multiples of 2piJ rad/s, so -0.5piJ
    places it piJ rad/s below; 'Hz'). The spin's offset from its frame is
    then minus that value."""

    spin: str
    value: Fraction | float
    unit: str
    _forms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_spin(self.spin)
        if self.unit not in ("piJ", "Hz"):
            raise DomainError(f"unknown frame offset unit {self.unit!r}")
        _store_reals(self, "value")

    def angular(self) -> float:
        if self.unit == "piJ":
            return float(self.value) * 2 * math.pi * DEFAULT_J
        return 2 * math.pi * float(self.value)


@dataclass(frozen=True)
class SequenceProgram:
    """Ordered pulse-program events plus the frame they execute in.

    Each frame directive sets its spin's offset in params (one per spin,
    within the sanity bound), so a program compiles in the frame it renders.
    Two programs compare equal only when they compile to the same bits,
    since their events, parameters and frames do (see _store_reals).
    """

    events: tuple[PulseEvent, ...]
    params: SpinSystemParams
    frames: tuple[FrameOffset, ...] = ()

    def __post_init__(self) -> None:
        # tuples, so that a program hashes and cannot change under the cache
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "frames", tuple(self.frames))
        offsets = {}
        for fr in self.frames:
            name = f"omega_{fr.spin}"
            if name in offsets:
                raise DomainError(f"spin {fr.spin} has more than one frame directive")
            offsets[name] = _check_offset(-fr.angular())
        if offsets:
            object.__setattr__(self, "params", replace(self.params, **offsets))

    @property
    def total_duration(self) -> float:
        """Sum of delay durations in seconds: the clock's last time."""
        return (0.0, *_clock(self.events))[-1]


def _clock(events) -> Iterator[float]:
    """The program's one clock: when each event ends, in seconds, rounded
    once from the exact sum of k/J delays plus the float sum of delays in
    seconds. A time too large for a float is a DomainError."""
    per_j, seconds, end = Fraction(0), 0.0, 0.0
    for ev in events:
        if isinstance(ev, Delay):
            if ev.per_j is not None:
                per_j += ev.per_j
            else:
                seconds += ev.seconds
            try:
                end = float(per_j) / DEFAULT_J + seconds
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
    invariant under the flip, the offset terms change sign with it.
    """
    if not 0 <= t < math.inf:
        raise DomainError("evolution time must be finite and nonnegative")
    _check_sign(iz_sign, "iz_sign")
    return np.diag(_free_phases(params, t, iz_sign))


def _free_phases(
    params: SpinSystemParams, t: float | np.ndarray, iz_sign: int
) -> np.ndarray:
    """Diagonal of free_evolution_unitary(params, t, iz_sign): shape (4,)
    for one time t, (k, 4) for an array of k times."""
    ma, mb = iz_sign * _MA, iz_sign * _MB
    energies = (
        params.omega_a * ma + params.omega_b * mb
        + 2 * math.pi * DEFAULT_J * ma * mb
    )
    return np.exp(1j * np.multiply.outer(t, -energies))


def pulse_unitary(ev: Rotation, sense: int = 1) -> np.ndarray:
    """Two-spin propagator of a hard pulse.

    sense = +-1 fixes how a pulse label (axis, flip) maps onto a physical
    rotation: the realized unitary is exp(-i sense*flip axis.sigma/2) on the
    target spin. sense=+1 reproduces rotation_unitary verbatim. The 4x4 is
    filled in place, entry for entry equal to tensor(u, 1) or tensor(1, u).
    """
    _check_sign(sense, "pulse sense")
    u = rotation_unitary(ev.axis_vector(), sense * ev.flip_radians)
    full = np.zeros((4, 4), dtype=complex)
    if ev.spin == "a":
        # u acts on the leftmost label: one copy per spin-b state, interleaved
        full[0::2, 0::2] = u
        full[1::2, 1::2] = u
    else:
        # one copy per spin-a branch, block diagonal
        full[:2, :2] = u
        full[2:, 2:] = u
    return full


def gradient_crusher(rho: DensityOperator) -> DensityOperator:
    """Project onto the Zeeman-diagonal part (ideal z-crusher on a
    heteronuclear pair: every nonzero coherence order dephases)."""
    if rho.dim != 4:
        raise DomainError("crusher model is defined for the two-spin system")
    # the diagonal into zeros, so every off-diagonal entry is +0.0
    m = np.zeros((4, 4), dtype=complex)
    m.ravel()[::5] = rho.matrix.diagonal()
    return DensityOperator._wrap(_validated(m, rho.normalized), rho.normalized)


def check_t2_times(times) -> tuple[float, float]:
    """The transverse decay times (t2a, t2b) as floats, checked positive."""
    t2a, t2b = map(float, times)
    if not (t2a > 0 and t2b > 0):
        raise DomainError("relaxation times must be positive")
    return t2a, t2b


def apply_t2_relaxation(
    rho: DensityOperator, t: float, t2a: float, t2b: float
) -> DensityOperator:
    """Phenomenological transverse dephasing: coherence between basis states
    decays as exp(-|dm_a| t/T2a) exp(-|dm_b| t/T2b); populations untouched."""
    if rho.dim != 4:
        raise DomainError("relaxation model is defined for the two-spin system")
    if not 0 <= t < math.inf:
        raise DomainError("relaxation time must be finite and nonnegative")
    t2a, t2b = check_t2_times((t2a, t2b))
    dma = np.abs(_MA[:, None] - _MA[None, :])
    dmb = np.abs(_MB[:, None] - _MB[None, :])
    # t/T2 may overflow (subnormal T2): dm*t first, so 0*inf never makes a nan
    with np.errstate(over="ignore"):
        factors = np.exp(-(dma * t) / t2a) * np.exp(-(dmb * t) / t2b)
    return DensityOperator(rho.matrix * factors, normalized=rho.normalized)


class _Step(NamedTuple):
    """One unitary event of a stretch, its end on the program's clock, the
    stretch's running propagator up to and including it (latest factor
    leftmost) and that propagator's conjugate transpose, both read-only."""

    event: Rotation | Delay
    end: float
    product: np.ndarray
    adjoint: np.ndarray


# A grid point keeps three entries live (preparation, latest mixing, cycle);
# a sweep runs theta in its outer loop, so one cycle entry per theta suffices.
@functools.lru_cache(maxsize=16)
def _compile(
    prog: SequenceProgram, pulse_sense: int = 1, iz_sign: int = 1
) -> tuple[Gradient | tuple[_Step, ...], ...]:
    """Split a program at its crushers into stretches of unitary events.

    Crushers stay in the tuple as themselves; a stretch's last step carries
    its whole propagator and its adjoint, ready to conjugate a state. Every
    event propagator and every stretch's whole propagator pass one stacked
    unitarity check, so a run conjugates by the cached product without
    checking it again. Both sign conventions are checked up front, whether
    or not an event reads them, and so is the program's whole clock.

    A program compiles once per distinct (program, pulse_sense, iz_sign):
    the result is kept in a small least-recently-used cache, immutable
    (tuples, read-only products) so that every caller can share it. A
    program that fails a check raises on every call, since an exception is
    never cached.
    """
    _check_sign(pulse_sense, "pulse sense")
    _check_sign(iz_sign, "iz_sign")
    compiled: list[Gradient | list[_Step]] = []
    factors = []
    for ev, end in zip(prog.events, tuple(_clock(prog.events))):
        if isinstance(ev, Gradient):
            compiled.append(ev)
            continue
        if isinstance(ev, Rotation):
            u = pulse_unitary(ev, sense=pulse_sense)
        elif isinstance(ev, Delay):
            u = free_evolution_unitary(prog.params, ev.duration(), iz_sign)
        else:
            raise DomainError(f"unknown event type {type(ev).__name__}")
        factors.append(u)
        if compiled and isinstance(compiled[-1], list):
            product = u @ compiled[-1][-1].product
        else:
            product = u
            compiled.append([])
        product.setflags(write=False)
        adjoint = product.conj().T
        adjoint.setflags(write=False)
        compiled[-1].append(_Step(ev, end, product, adjoint))
    products = [s[-1].product for s in compiled if isinstance(s, list)]
    if factors and not is_unitary(np.array(factors + products)):
        raise DomainError("event propagator is not unitary within tolerance")
    return tuple([s if isinstance(s, Gradient) else tuple(s) for s in compiled])


def run_sequence(
    rho0: DensityOperator,
    prog: SequenceProgram,
    record: bool = False,
    samples_per_delay: int = 64,
    pulse_sense: int = 1,
    iz_sign: int = 1,
) -> tuple[DensityOperator, list[tuple[float, DensityOperator]]]:
    """Execute a program left to right.

    Crushers split the program into stretches of pulses and delays; the
    propagator of each stretch is the product of its events' closed-form
    propagators, each of which is checked for unitarity. The program
    compiles once per distinct (program, pulse_sense, iz_sign), in a
    bounded cache shared with branch_propagators (see _compile), which
    also checks each stretch's whole propagator for unitarity. Unrecorded,
    a stretch then costs one conjugation of the state it starts in by the
    cached product and its adjoint, and one state check of the result; the
    run does not check the cached product again.

    Returns the final state and a (time, state) trajectory that opens with
    (0, rho0), its times read off the program's clock (see _clock).
    Unrecorded, it closes with (total_duration, final state). Recorded, it
    holds one entry at the end of each event, and each delay of duration dt
    first adds samples_per_delay - 1 samples at dt*i/samples_per_delay
    after its start. A recorded stretch stacks one propagator per entry: the
    running product after each event, and before the sample i of a delay
    exp(-iH dt*i/samples_per_delay) times the running product the delay
    starts from. Every sample therefore comes from the delay's start state
    under its own propagator, so rounding does not grow with the sample
    count. The stretch's start state is conjugated by the whole stack in
    one evolve call: one stacked unitarity check, one batched product and
    one state check. The stack closes on the very product an unrecorded run
    conjugates by, so the final state is bit-identical with or without
    record.
    """
    if rho0.dim != 4:
        raise DomainError("sequences act on the two-spin system")
    if record:
        try:
            samples = operator.index(samples_per_delay)
        except TypeError:
            raise DomainError("samples_per_delay must be an integer") from None
        if samples < 1:
            raise DomainError("samples_per_delay must be at least 1")
    t = 0.0
    rho = rho0
    trajectory: list[tuple[float, DensityOperator]] = [(0.0, rho0)]
    for stretch in _compile(prog, pulse_sense, iz_sign):
        if isinstance(stretch, Gradient):
            rho = gradient_crusher(rho)
            if record:
                trajectory.append((t, rho))
            continue
        if not record:
            t = stretch[-1].end
            rho = _conjugate(rho, stretch[-1].product, stretch[-1].adjoint)
            continue
        times, stack, before = [], [], identity4
        for ev, end, product, _ in stretch:
            if isinstance(ev, Delay):
                elapsed = ev.duration() * np.arange(1, samples) / samples
                times += (t + elapsed).tolist()
                phases = _free_phases(prog.params, elapsed, iz_sign)
                stack.append(phases[:, :, None] * before)
            times.append(end)
            stack.append(product[None])
            t, before = end, product
        states = evolve(rho, np.concatenate(stack))
        trajectory += zip(times, states)
        rho = states[-1]
    if not record:
        trajectory.append((t, rho))
    return rho, trajectory


def branch_propagators(
    prog: SequenceProgram, pulse_sense: int = 1, iz_sign: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-b propagators conditioned on the spin-a Zeeman state.

    Valid only for programs containing b-spin pulses and delays (anything
    else is rejected); their propagators are block diagonal with exact zeros
    off the blocks. Returns (U when a is up, U when a is down) as 2x2 blocks
    of the full propagator.
    """
    for ev in prog.events:
        if isinstance(ev, Gradient):
            raise DomainError("branch propagators are unitary; crushers not allowed")
        if isinstance(ev, Rotation) and ev.spin != "b":
            raise DomainError("branch propagators require b-spin pulses only")
    stretches = _compile(prog, pulse_sense, iz_sign)
    u = stretches[0][-1].product if stretches else identity4
    return u[:2, :2].copy(), u[2:, 2:].copy()
