"""Acceptance gate: one test per published criterion, each recording a
single pass/fail line with the measured margins."""
import io
import contextlib
import math
import time
from fractions import Fraction

import numpy as np

import oracle_brute as oracle
from lunephase.cli import main as cli_main
from lunephase.experiment import (
    ExperimentConfig,
    cycle_program,
    idealized_eigenvector_path,
    prepare_effective_pure,
    prepare_mixed,
    readout_phase,
    run_single,
    spin_a_coherence,
    thermal_state,
)
from lunephase.geometry import (
    BlochPath,
    StatePath,
    check_geodesic,
    dynamical_phase,
    pancharatnam_phase,
    solid_angle,
)
from lunephase.phases import sjoqvist_average
from lunephase.pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    branch_propagators,
    gradient_crusher,
    make_program,
    run_sequence,
)
from lunephase.pulseprog import parse_sequence, render_sequence
from lunephase.qcore import (
    DensityOperator,
    identity2,
    pauli_x,
    principal_angle,
    rotation_unitary,
)

J = 214.5
GRID_THETAS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
PATH_THETAS = (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8)


def loop_segments(path: StatePath, per_segment: int):
    for lo, hi in ((0, per_segment + 1), (per_segment, 2 * per_segment + 1)):
        yield StatePath(path.times[lo:hi], path.states[lo:hi], path.generators[lo:hi])


def test_ac1_arctan_law(acceptance):
    start = time.perf_counter()
    worst_gamma = 0.0
    worst_vis = 0.0
    checked = 0
    for theta in GRID_THETAS:
        omega = 4.0 * theta
        for n in range(12):
            r = abs(math.cos(n * math.pi / 12))
            v_formula = math.sqrt(
                math.cos(omega / 2) ** 2 + r * r * math.sin(omega / 2) ** 2
            )
            if v_formula < 1e-6:
                continue
            rec = run_single(ExperimentConfig(theta, n, "literal-sequence"))
            gamma_formula = abs(
                math.atan2(r * math.sin(omega / 2), math.cos(omega / 2))
            )
            worst_gamma = max(worst_gamma, abs(abs(rec.measured.gamma) - gamma_formula))
            worst_vis = max(worst_vis, abs(rec.measured.visibility - v_formula))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_gamma <= 1e-9 and worst_vis <= 1e-9 and elapsed < 1.0
    acceptance(
        "AC1 arctan law",
        ok,
        f"{checked} rows, max |gamma| err {worst_gamma:.3e}, "
        f"max visibility err {worst_vis:.3e}, runtime {elapsed:.2f}s",
    )


def test_ac2_pure_and_mixed_limits(acceptance):
    worst = 0.0
    notes = []
    for theta in GRID_THETAS:
        omega = 4.0 * theta
        pure = run_single(ExperimentConfig(theta, 0))
        worst = max(worst, abs(abs(pure.measured.gamma) - omega / 2))
        worst = max(worst, abs(pure.measured.visibility - 1.0))
        mixed = run_single(ExperimentConfig(theta, 6))
        worst = max(worst, abs(mixed.measured.visibility - abs(math.cos(omega / 2))))
        if mixed.defined:
            if math.cos(omega / 2) > 0:
                worst = max(worst, abs(mixed.measured.gamma))
            else:
                # obtuse half-angle: the r=0 phase is the argument of
                # cos(omega/2), i.e. pi rather than 0
                worst = max(
                    worst, abs(principal_angle(mixed.measured.gamma - math.pi))
                )
                notes.append(f"theta={theta:.3f} carries gamma=pi")
    ok = worst <= 1e-9
    note = f"; {notes[0]}" if notes else ""
    acceptance("AC2 pure and mixed limits", ok, f"max deviation {worst:.3e}{note}")


def test_ac3_solid_angle_relation(acceptance):
    worst = 0.0
    floor_ok = True
    ratios = []
    for theta in PATH_THETAS:
        errs = []
        for per_segment in (2500, 5000):
            path = idealized_eigenvector_path(
                theta, 1, samples_per_segment=per_segment
            )
            area = solid_angle(path.to_bloch_path())
            errs.append(abs(area - 4.0 * theta))
        worst = max(worst, errs[-1])
        if max(errs) > 1e-12:
            floor_ok = False
            ratios.append(errs[0] / errs[1] if errs[1] > 0 else math.inf)
    converged = floor_ok or all(r >= 3.9 for r in ratios)
    ok = worst <= 1e-5 and converged
    convergence_note = (
        "errors at machine floor at every sample count (the triangulation is "
        "exact on geodesic loops; order >= 2 holds a fortiori)"
        if floor_ok
        else f"doubling ratios {ratios}"
    )
    acceptance(
        "AC3 solid angle of traced loop",
        ok,
        f"max |area - 4*theta| {worst:.3e} at 10^4 samples; {convergence_note}",
    )


def test_ac4_parallel_transport(acceptance):
    worst_dyn = 0.0
    worst_geo = 0.0
    worst_holonomy = 0.0
    for theta in PATH_THETAS:
        path = idealized_eigenvector_path(theta, 1, samples_per_segment=5000)
        for seg in loop_segments(path, 5000):
            worst_dyn = max(worst_dyn, abs(dynamical_phase(seg)))
            worst_geo = max(
                worst_geo, check_geodesic(BlochPath(seg.times, seg.bloch_points()))
            )
        gamma = pancharatnam_phase(path)
        area = solid_angle(path.to_bloch_path())
        worst_holonomy = max(worst_holonomy, abs(principal_angle(gamma + 0.5 * area)))
    ok = worst_dyn <= 1e-9 and worst_geo <= 1e-6 and worst_holonomy <= 1e-5
    acceptance(
        "AC4 parallel transport",
        ok,
        f"max dynamical {worst_dyn:.3e}, max coplanarity {worst_geo:.3e}, "
        f"max |pancharatnam + area/2| {worst_holonomy:.3e}",
    )


def test_ac5_average_equivalence(acceptance):
    rng = np.random.default_rng(20260814)
    worst_gamma = 0.0
    worst_vis = 0.0
    undefined = 0
    for _ in range(1000):
        r = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2))
        rho_b = 0.5 * (identity2 + r * pauli_x)
        rho = DensityOperator(np.kron(0.5 * (identity2 + pauli_x), rho_b))
        reference = spin_a_coherence(rho)
        out, _ = run_sequence(rho, cycle_program(theta), pulse_sense=-1)
        got = readout_phase(out, reference)

        up, down = branch_propagators(cycle_program(theta), pulse_sense=-1)
        m = down.conj().T @ up
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
        weights = [0.5 * (1 + r), 0.5 * (1 - r)]
        phases = [
            float(np.angle(plus.conj() @ m @ plus)),
            float(np.angle(minus.conj() @ m @ minus)),
        ]
        want = sjoqvist_average(weights, phases)
        if not (got.defined and want.defined):
            undefined += got.defined != want.defined
            continue
        worst_gamma = max(
            worst_gamma, abs(principal_angle(got.gamma - want.gamma))
        )
        worst_vis = max(worst_vis, abs(got.visibility - want.visibility))
    ok = worst_gamma <= 1e-12 and worst_vis <= 1e-12 and undefined == 0
    acceptance(
        "AC5 readout equals eigenvalue-weighted average",
        ok,
        f"1000 random (r, theta): max gamma err {worst_gamma:.3e}, "
        f"max visibility err {worst_vis:.3e}, defined-flag mismatches {undefined}",
    )


def test_ac6_preparation_oracle(acceptance):
    def direction(matrix):
        m = np.asarray(matrix, dtype=complex)
        m = m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])
        return (m / np.linalg.norm(m)).reshape(-1)

    worst = 0.0
    pure = prepare_effective_pure(thermal_state())
    oracle_pure = oracle.preparation_sequence(oracle.thermal_deviation(), sense=-1)
    cosine = float(
        np.real(np.vdot(direction(pure.matrix), direction(oracle_pure)))
    )
    worst = max(worst, 1.0 - cosine)
    for n in range(12):
        mixed = prepare_mixed(pure, n)
        oracle_mixed = oracle.mixing_sequence(oracle_pure, n, sense=-1)
        cosine = float(
            np.real(np.vdot(direction(mixed.matrix), direction(oracle_mixed)))
        )
        worst = max(worst, 1.0 - cosine)
    ok = worst <= 1e-9
    acceptance(
        "AC6 preparation oracle",
        ok,
        f"13 prepared deviations, max direction-cosine error {worst:.3e}",
    )


def test_ac7_timing_and_decoherence(acceptance):
    duration = float(cycle_program(math.pi / 8).total_duration)
    duration_err = abs(duration - 1.0 / J)
    worst_loss = 0.0
    worst_shift = 0.0
    for theta in GRID_THETAS:
        for n in range(12):
            base = run_single(ExperimentConfig(theta, n))
            relaxed = run_single(ExperimentConfig(theta, n, relaxation=(0.3, 0.4)))
            if base.measured.visibility > 1e-9:
                loss = 1.0 - relaxed.measured.visibility / base.measured.visibility
                worst_loss = max(worst_loss, loss)
            if base.defined and relaxed.defined:
                worst_shift = max(
                    worst_shift,
                    abs(principal_angle(relaxed.measured.gamma - base.measured.gamma)),
                )
    ok = duration_err <= 1e-12 and worst_loss <= 0.016 and worst_shift <= 1e-6
    acceptance(
        "AC7 timing and decoherence",
        ok,
        f"cycle duration {duration * 1e3:.4f} ms (err {duration_err:.1e} s), "
        f"max visibility loss {worst_loss * 100:.3f}%, "
        f"max gamma shift {worst_shift:.3e} rad",
    )


def _random_program(rng):
    events = []
    for _ in range(int(rng.integers(1, 8))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            spin = "ab"[int(rng.integers(0, 2))]
            if rng.random() < 0.7:
                axis = ("x", "-x", "y", "-y")[int(rng.integers(0, 4))]
            else:
                axis = float(rng.uniform(-math.pi, math.pi))
            if rng.random() < 0.5:
                flip = Fraction(int(rng.integers(-359, 361)), 180)
            else:
                flip = float(rng.uniform(-2 * math.pi + 1e-6, 2 * math.pi))
            events.append(Rotation(spin, axis, flip))
        elif kind == 1:
            if rng.random() < 0.5:
                events.append(Delay(seconds=float(rng.uniform(1e-6, 1e-2))))
            else:
                events.append(
                    Delay(per_j=Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
                )
        else:
            events.append(Gradient())
    frames = []
    if rng.random() < 0.5:
        spin = "ab"[int(rng.integers(0, 2))]
        if rng.random() < 0.5:
            frames.append(FrameOffset(spin, Fraction(int(rng.integers(-4, 5)), 2), "piJ"))
        else:
            frames.append(FrameOffset(spin, float(rng.uniform(-400.0, 400.0)), "Hz"))
    return make_program(tuple(events), None, tuple(frames))


def test_ac8_structural_invariants(acceptance):
    rng = np.random.default_rng(424242)
    failures = []

    # unitarity: branch propagators and raw axis rotations
    worst_unitarity = 0.0
    for _ in range(500):
        theta = float(rng.uniform(0.0, math.pi / 2))
        sense = (-1, 1)[int(rng.integers(0, 2))]
        for u in branch_propagators(cycle_program(theta), pulse_sense=sense):
            worst_unitarity = max(
                worst_unitarity,
                float(np.max(np.abs(u.conj().T @ u - identity2))),
            )
    for _ in range(500):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(-2 * math.pi + 1e-9, 2 * math.pi))
        u = rotation_unitary(axis, angle)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - identity2)))
        )
    if worst_unitarity > 1e-12:
        failures.append(f"unitarity {worst_unitarity:.3e}")

    # state validity along recorded trajectories
    samples = 0
    worst_state = 0.0
    for _ in range(12):
        r = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi / 2))
        rho = DensityOperator(
            np.kron(0.5 * (identity2 + pauli_x), 0.5 * (identity2 + r * pauli_x))
        )
        _, trajectory = run_sequence(
            rho, cycle_program(theta), record=True, pulse_sense=-1
        )
        for _, state in trajectory:
            m = state.matrix
            herm = float(np.max(np.abs(m - m.conj().T)))
            trace = abs(float(np.trace(m).real) - 1.0)
            lowest = float(np.min(np.linalg.eigvalsh(m)))
            worst_state = max(worst_state, herm, trace, max(0.0, -lowest - 1e-10))
            samples += 1
    if worst_state > 1e-12:
        failures.append(f"trajectory state validity {worst_state:.3e}")

    # crusher idempotence on random Hermitian deviations
    for _ in range(1000):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dev = DensityOperator(raw + raw.conj().T, normalized=False)
        once = gradient_crusher(dev)
        twice = gradient_crusher(once)
        if not np.array_equal(once.matrix, twice.matrix):
            failures.append("crusher not idempotent")
            break

    # parser round-trip identity on random programs
    roundtrips = 0
    for _ in range(1000):
        prog = _random_program(rng)
        text = render_sequence(prog)
        if render_sequence(parse_sequence(text)) != text:
            failures.append(f"parser round-trip broke on:\n{text}")
            break
        roundtrips += 1

    # CLI determinism and exit-code contract
    def invoke(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        return code, out.getvalue()

    first = invoke(["theory", "--omega", "3pi/8"])
    second = invoke(["theory", "--omega", "3pi/8"])
    contract = [
        first == second and first[0] == 0,
        invoke(["sweep", "--theta", "pi/8"])[0] == 0,
        invoke(["check-transport", "--theta", "pi/8", "--perturb", "0.01"])[0] == 1,
        invoke(["theory", "--omega", "bogus"])[0] == 2,
        invoke(["sweep", "--theta"])[0] == 2,
    ]
    if not all(contract):
        failures.append(f"CLI contract {contract}")

    ok = not failures
    acceptance(
        "AC8 structural invariants",
        ok,
        failures[0]
        if failures
        else (
            f"unitarity <= {worst_unitarity:.3e} over 2000 propagators, "
            f"{samples} trajectory samples valid, crusher idempotent x1000, "
            f"{roundtrips} parser round-trips, CLI contract 5/5"
        ),
    )
