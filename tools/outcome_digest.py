"""Digests of what the package computes, to tell whether a change kept every
bit of it.

    python3 tools/outcome_digest.py [CHECKOUT]

CHECKOUT is the root of a checkout that holds ``src/lunephase`` and
``perfbench`` (default: the one this script lives in). The script runs
seeded ``chain`` (100 requests) and ``trajectory`` (60 requests) streams of
``perfbench/workloads.py`` at seeds 1, 2 and 741 in process, a stream of 200
seeded random normalized and deviation states at seeds 1 and 2, each run
through a crusher, the spin-a readout, both partial traces and transverse
relaxation, a stream of runs of four programs with repeated equal events
at seeds 1 and 2 (25 seeded start states each; every program unrecorded
and recorded at 1, 2 and 16 samples per delay, under each of the four
pairs of pulse sense and I_z sign), 200 blocks of 8 seeded pulse-program
value objects (params, rotations, delays, frames) and the programs built
from them, the exception type and message of each of a fixed list of bad
constructor calls of those objects and of a program (see REFUSALS), and 39
command lines of the CLI in subprocesses: 28 from the checkout's root, and
``parse`` of eleven small programs, written to a temporary directory and
parsed from there by relative file name, so that no path enters their
bytes. It prints one sha256 per stream and per command line, then one for
the package namespace: 52 lines. Each outcome
digest covers every matrix (dtype, shape, bytes, whether it is writeable),
every flag, every time and every complex number; each command digest covers
stdout, stderr and the exit code. The value digest covers each object's
stored fields, the bits of the floats computed from them, which objects of
a block compare equal and whether equal objects hash equal (never a hash
value, which differs between processes), and each program's rendering and
total duration. The namespace digest covers ``lunephase.__all__`` in order
and, for each name, the module and qualified name of what it resolves to,
or the repr of a constant. Run it on two checkouts and compare the output
line by line: equal lines mean equal bits.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import random
import struct
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 741)
STREAMS = (("chain", 100), ("trajectory", 60))
STATE_SEEDS, STATE_COUNT = (1, 2), 200
REPEAT_SEEDS, REPEAT_STATES, REPEAT_SAMPLES = (1, 2), 25, (1, 2, 16)
VALUE_SEED, VALUE_BLOCKS, VALUE_BLOCK = 31, 200, 8
VALUE_KINDS = ("params", "rotation", "delay", "frame")
MODEL = ("--model", "idealized-controlled-U")
RELAXED = ("--relaxation", "0.3,0.4")
SIMULATE = ("simulate", "--theta", "pi/8", "--n", "5", "--format", "json")
SEQ_FILE = "src/lunephase/data/prepare_pure.seq"
COMMANDS = (
    SIMULATE,
    SIMULATE + MODEL,
    SIMULATE + RELAXED,
    ("simulate", "--theta", "pi/4", "--n", "3", "--format", "json"),
    SIMULATE + ("--convention", "sense=-1,active=down"),
    ("simulate", "--theta", "2", "--n", "5"),
    ("sweep",),
    ("sweep",) + MODEL,
    ("sweep", "--format", "json"),
    ("sweep", "--format", "json") + MODEL,
    ("sweep", "--convention", "active=down") + RELAXED,
    ("sweep", "--format", "json", "--convention", "active=down") + RELAXED,
    ("trace-path", "--theta", "pi/8", "--samples", "2000"),
    ("trace-path", "--theta", "3pi/8", "--branch", "minus", "--samples", "10000"),
    ("check-transport", "--theta", "pi/8"),
    ("check-transport", "--theta", "pi/8", "--perturb", "0.01"),
    # the idealized loop ignores the I_z sign (see idealized_eigenvector_path)
    ("trace-path", "--theta", "pi/8", "--samples", "2000", "--convention", "active=down"),
    ("check-transport", "--theta", "pi/8", "--convention", "active=down"),
    # |Omega| = 2pi, the end of the solid angle's wrap into (-2pi, 2pi]
    ("trace-path", "--theta", "pi/2", "--samples", "2000"),
    ("trace-path", "--theta", "pi/2", "--branch", "minus", "--samples", "2000"),
    ("parse", SEQ_FILE),
    ("parse", SEQ_FILE, "--format", "json"),
    ("theory", "--omega", "pi/2"),
    # the undefined row n = 6 and the flipped rows n >= 7
    ("theory", "--omega", "pi", "--format", "json"),
    ("theory", "--omega", "2.1", "--format", "json", "--convention", "sense=1,active=down"),
    # the CSV of one defined and one undefined record, and a sweep that only
    # its own visibility gate lets pass (exit 1 without it)
    SIMULATE[:5],
    ("simulate", "--theta", "pi/4", "--n", "6") + MODEL,
    ("sweep",) + RELAXED + ("--tolerance-visibility", "0.02"),
)

# programs for parse that refuse, or print, an edge case of the format
PROGRAMS = {
    "empty.seq": "",
    "spin_c.seq": "pulse c x 90deg\n",
    "frame_shift.seq": "frame b shift 1Hz\n",
    "grad_trailing.seq": "grad x now\n",
    "frame_only.seq": "frame b offset -1/2piJ\n",
    # each delay fits a float, their sum does not
    "clock_overflow.seq": "delay 1e308s\ndelay 1e308s\n",
    # one numeral rule and one unit rule for every number
    "phase_rational.seq": "pulse b phase:1/4 90deg\n",
    "phase_nan.seq": "pulse b phase:nan 90deg\n",
    "delay_no_unit.seq": "delay 5\n",
    "offset_no_unit.seq": "frame b offset 5\n",
    "angle_past_float.seq": "pulse b x 1e400deg\n",
}

# bad constructor calls of the value objects and of a program, each on the
# pulse module p: one per refusal, then calls with several faults, whose
# first check decides
REFUSALS = (
    lambda p: p.SpinSystemParams("1"),
    lambda p: p.SpinSystemParams(omega_b=10**400),
    lambda p: p.SpinSystemParams(math.nan),
    lambda p: p.SpinSystemParams(0.0, np.float64(-math.inf)),
    lambda p: p.SpinSystemParams(1e5),
    lambda p: p.SpinSystemParams(omega_c=1.0),
    lambda p: p.Rotation("c", "x", 1.0),
    lambda p: p.Rotation("a", "z", 1.0),
    lambda p: p.Rotation("a", 1j, 1.0),
    lambda p: p.Rotation("a", math.inf, Fraction(1, 2)),
    lambda p: p.Rotation("a", "x", "1"),
    lambda p: p.Rotation("a", "x", Fraction(10**400)),
    lambda p: p.Rotation("a", "x", math.nan),
    lambda p: p.Rotation("a", "x", 7.0),
    lambda p: p.Rotation("a", "x", Fraction(3)),
    lambda p: p.Rotation("a", "x"),
    lambda p: p.Rotation("a", "x", 1.0, 2.0),
    lambda p: p.Rotation("a", "x", 1.0, flip_radians=1.0),
    lambda p: p.Delay(),
    lambda p: p.Delay(1.0, Fraction(1)),
    lambda p: p.Delay(-1.0),
    lambda p: p.Delay(per_j=Fraction(-1, 2)),
    lambda p: p.Delay(per_j="1/2"),
    lambda p: p.Delay(10**400),
    lambda p: p.Delay(math.nan),
    lambda p: p.Delay(per_j=np.float64(math.inf)),
    lambda p: p.FrameOffset("c", 1.0, "Hz"),
    lambda p: p.FrameOffset("a", 1.0, "rad"),
    lambda p: p.FrameOffset("a", np.complex128(1.0), "piJ"),
    lambda p: p.FrameOffset("a", -math.inf, "Hz"),
    lambda p: p.FrameOffset("a", 1.0),
    lambda p: p.make_program(["pulse"]),
    lambda p: p.make_program([], "params"),
    lambda p: p.make_program([], None, (("b", 0.5, "Hz"),)),
    lambda p: p.make_program([], None, (p.FrameOffset("b", 0.5, "Hz"),) * 2),
    lambda p: p.SpinSystemParams("1", math.nan),
    lambda p: p.Rotation("c", "z", "1"),
    lambda p: p.Rotation("a", math.nan, "1"),
    lambda p: p.Rotation("a", 1.0, math.nan),
    lambda p: p.Delay("x", per_j=None),
    lambda p: p.FrameOffset("c", "1", "rad"),
    lambda p: p.FrameOffset("a", "1", "rad"),
)


def refusal_outcomes(pulse):
    """The exception type and message of each call of REFUSALS on pulse, or
    the repr of what it returned."""
    for call in REFUSALS:
        try:
            yield repr(call(pulse))
        except Exception as error:
            yield type(error).__name__, str(error)


def feed(h, value) -> None:
    """Hash value's structure and bits: arrays with their dtype, shape and
    writeable flag, states with their normalized flag, floats as their bit
    patterns, complex numbers as the bit patterns of their two floats, and a
    run's trajectory as the list of (time, state) pairs it yields."""
    if hasattr(value, "times") and hasattr(value, "matrices"):
        feed(h, list(value))
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape} {value.flags.writeable}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif hasattr(value, "matrix") and hasattr(value, "normalized"):
        h.update(f"state {value.normalized}".encode())
        feed(h, value.matrix)
    elif isinstance(value, float):
        h.update(b"float" + struct.pack("<d", value))
    elif isinstance(value, complex):
        h.update(b"complex" + struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, dict):
        h.update(f"dict {len(value)}".encode())
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, (bool, int, str, bytes, type(None))):
        h.update(f"{type(value).__name__} {value!r}".encode())
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def random_states(seed: int, count: int):
    """count seeded 4x4 states, alternately normalized (a @ a^dagger over
    its trace) and deviation (the traceless part of a + a^dagger), each
    given Hermitian only within 1e-13, as plain matrices and flags."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = rng.uniform(-1e-13, 1e-13, size=(2, 4, 4))
        if i % 2 == 0:
            m = a @ a.conj().T
            yield m / np.trace(m).real + noise[0] + 1j * noise[1], True
        else:
            m = a + a.conj().T
            yield m - np.trace(m) / 4 * np.eye(4) + noise[0] + 1j * noise[1], False


def state_outcome(pulse, qcore, experiment, matrix, normalized) -> dict:
    """One state through each state operation that copies, reads or reduces
    it: a crusher, the spin-a coherence, both partial traces and transverse
    relaxation over 1 ms at T2 times of 0.3 s and 0.4 s."""
    rho = qcore.DensityOperator(matrix, normalized=normalized)
    return {
        "crushed": pulse.gradient_crusher(rho),
        "coherence": experiment.spin_a_coherence(rho),
        "reduced": [qcore.partial_trace(rho, keep) for keep in "ab"],
        "relaxed": pulse.apply_t2_relaxation(rho, 1e-3, 0.3, 0.4),
    }


def repeated_event_programs(pulse, rng: random.Random) -> tuple:
    """Four programs with repeated equal events, on seeded offsets of up to
    piJ rad/s and a seeded angle theta: the literal cycle at inclination
    theta in its frame (two equal 1/(2J) delays), a 1/(2J) delay in seconds
    beside one of 1/2 per J, a quarter turn repeated within and across a
    crusher, and two unequal delays."""
    bound = math.pi * pulse.DEFAULT_J
    params = pulse.SpinSystemParams(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
    theta = rng.uniform(0.0, math.pi / 2)
    half, quarter = pulse.Delay(per_j=Fraction(1, 2)), pulse.Rotation("b", "x", Fraction(1, 2))
    cycle = [pulse.Rotation("b", "-x", theta), half,
             pulse.Rotation("b", "-x", math.pi - 2.0 * theta), pulse.Delay(per_j=Fraction(1, 2))]
    return (
        pulse.make_program(cycle, params, (pulse.FrameOffset("b", Fraction(-1, 2), "piJ"),)),
        pulse.make_program([quarter, pulse.Delay(seconds=1 / (2 * pulse.DEFAULT_J)),
                            pulse.Rotation("b", "-x", theta), half], params),
        pulse.make_program([quarter, pulse.Delay(per_j=Fraction(1, 4)), quarter,
                            pulse.Gradient(), quarter, quarter], params),
        pulse.make_program([quarter, half, pulse.Rotation("a", "y", theta),
                            pulse.Delay(per_j=Fraction(1, 3))], params),
    )


def repeated_event_runs(pulse, qcore, seed: int, conventions):
    """The final state and trajectory of each run of the repeated-event
    programs (see repeated_event_programs), drawn anew for each of
    REPEAT_STATES seeded start states of random_states: unrecorded, then
    recorded at each of REPEAT_SAMPLES, under each (pulse sense, I_z sign)
    pair of conventions."""
    rng = random.Random(seed)
    for matrix, normalized in random_states(seed, REPEAT_STATES):
        rho = qcore.DensityOperator(matrix, normalized=normalized)
        for prog, (sense, iz_sign) in itertools.product(
            repeated_event_programs(pulse, rng), conventions
        ):
            yield pulse.run_sequence(rho, prog, pulse_sense=sense, iz_sign=iz_sign)
            for samples in REPEAT_SAMPLES:
                yield pulse.run_sequence(rho, prog, record=True, samples_per_delay=samples,
                                         pulse_sense=sense, iz_sign=iz_sign)


def value_number(rng: random.Random, nonnegative: bool = False):
    """A seeded multiple of 1/4 in [-1, 1] in one of the forms a caller may
    pass: a Fraction, a float, an int, a numpy float or integer, or a signed
    zero. Few values in many forms, so that a block holds equal objects
    built from different inputs."""
    k = rng.randint(0 if nonnegative else -4, 4)
    zero = rng.choice((0.0, -0.0, np.float64(-0.0)))
    return rng.choice((Fraction(k, 4), k / 4, k // 4, np.float64(k / 4), np.int64(k // 4), zero))


def value_object(pulse, kind: str, rng: random.Random):
    """One seeded value object of the given kind (see VALUE_KINDS)."""
    if kind == "params":
        return pulse.SpinSystemParams(value_number(rng), value_number(rng))
    if kind == "rotation":
        axis = rng.choice(("x", "-x", "y", "-y", value_number(rng)))
        return pulse.Rotation(rng.choice("ab"), axis, value_number(rng))
    if kind == "delay":
        return pulse.Delay(**{rng.choice(("seconds", "per_j")): value_number(rng, True)})
    return pulse.FrameOffset(rng.choice("ab"), value_number(rng), rng.choice(("piJ", "Hz")))


def value_outcome(pulse, obj) -> dict:
    """An object's stored init fields (a Fraction as its numerator and
    denominator) and the float computed from them: a rotation's flip in
    radians, a delay's duration, a frame's angular offset."""
    outcome = {}
    for f in dataclasses.fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            fraction = isinstance(value, Fraction)
            outcome[f.name] = ("Fraction", value.numerator, value.denominator) if fraction else value
    if isinstance(obj, pulse.Rotation):
        outcome["flip_radians"] = obj.flip_radians
    elif isinstance(obj, pulse.Delay):
        outcome["duration"] = obj.duration()
    elif isinstance(obj, pulse.FrameOffset):
        outcome["angular"] = obj.angular()
    return outcome


def value_blocks(pulse, pulseprog, rng: random.Random):
    """The outcome of each block of VALUE_BLOCK objects of one kind: each
    object's outcome, the index of the first object of the block that
    compares equal to it, and whether equal objects hash equal. Each run of
    the four kinds also builds a program: the rotations and delays
    alternating around a crusher, on the params block's first params, with
    the frame block's last frame of each spin; its rendering and total
    duration are the run's outcome."""
    for _ in range(VALUE_BLOCKS // len(VALUE_KINDS)):
        blocks = {}
        for kind in VALUE_KINDS:
            objs = blocks[kind] = [value_object(pulse, kind, rng) for _ in range(VALUE_BLOCK)]
            yield {
                "objects": [value_outcome(pulse, obj) for obj in objs],
                "first_equal": [next(j for j, b in enumerate(objs) if b == a) for a in objs],
                "equal_hash_equal": all(hash(a) == hash(b) for a in objs for b in objs if a == b),
            }
        events = [ev for pair in zip(blocks["rotation"], blocks["delay"]) for ev in pair]
        events.insert(VALUE_BLOCK, pulse.Gradient())
        frames = tuple({fr.spin: fr for fr in blocks["frame"]}.values())
        prog = pulse.make_program(events, blocks["params"][0], frames)
        yield {"rendered": pulseprog.render_sequence(prog), "total": prog.total_duration}


def namespace_outcome(package) -> list:
    """Each public name of package, in __all__ order, with the module and
    qualified name of what it resolves to, or the repr of a constant (an
    object with no qualified name)."""
    outcome = []
    for name in package.__all__:
        value = getattr(package, name)
        if hasattr(value, "__qualname__"):
            outcome.append((name, value.__module__, value.__qualname__))
        else:
            outcome.append((name, repr(value)))
    return outcome


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    import lunephase
    from lunephase import experiment, pulse, pulseprog, qcore

    for (name, count), seed in itertools.product(STREAMS, SEEDS):
        make, run = getattr(workloads, f"{name}_requests"), getattr(workloads, f"run_{name}")
        h = hashlib.sha256()
        for request in itertools.islice(make(random.Random(seed)), count):
            run(pulse, qcore, request)
            feed(h, request.outcome)
        print(f"{name} seed {seed} ({count} requests): {h.hexdigest()}")

    for seed in STATE_SEEDS:
        h = hashlib.sha256()
        for matrix, normalized in random_states(seed, STATE_COUNT):
            feed(h, state_outcome(pulse, qcore, experiment, matrix, normalized))
        print(f"states seed {seed} ({STATE_COUNT} states): {h.hexdigest()}")

    for seed in REPEAT_SEEDS:
        h = hashlib.sha256()
        for outcome in repeated_event_runs(pulse, qcore, seed, workloads.CONVENTION_PAIRS):
            feed(h, outcome)
        print(f"repeated events seed {seed} ({REPEAT_STATES} states): {h.hexdigest()}")

    h = hashlib.sha256()
    for outcome in value_blocks(pulse, pulseprog, random.Random(VALUE_SEED)):
        feed(h, outcome)
    print(f"values seed {VALUE_SEED} ({VALUE_BLOCKS} blocks of {VALUE_BLOCK}): {h.hexdigest()}")

    h = hashlib.sha256()
    feed(h, list(refusal_outcomes(pulse)))
    print(f"refusals ({len(REFUSALS)} calls): {h.hexdigest()}")

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as programs:
        for name, text in PROGRAMS.items():
            Path(programs, name).write_text(text, encoding="utf-8")
        runs = [(str(root), argv_) for argv_ in COMMANDS]
        runs += [(programs, ("parse", name)) for name in PROGRAMS]
        for cwd, argv_ in runs:
            request = workloads.Request({"argv": argv_}, 1)
            workloads.run_cli_subprocess(env, cwd, request)
            h = hashlib.sha256()
            feed(h, request.outcome)
            code = request.outcome["code"]
            print(f"lunephase {' '.join(argv_)} (exit {code}): {h.hexdigest()}")

    h = hashlib.sha256()
    feed(h, namespace_outcome(lunephase))
    print(f"namespace ({len(lunephase.__all__)} names): {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
