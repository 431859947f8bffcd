"""Seeded request streams for the workloads, and how each request is run
through the package's public entry points and checked.

Request sizes are fixed (chain, trajectory) or stratified (grid, loop):
every block of requests covers the same size strata in a seeded order with
seeded values inside each stratum. Either way two seeds give different
inputs with the same size mix, which keeps medians and tails comparable from
seed to seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks
import reference

MODELS = ("literal-sequence", "idealized-controlled-U")
# (pulse_sense, active_branch_up). The package documents the first pair as
# the calibration under which preparation reaches its targets; a positive
# pulse sense makes preparation miss them, and the sweep must refuse.
CALIBRATED = ((-1, True), (-1, False))
MISCALIBRATED = ((1, True), (1, False))
LUNE_SAMPLES = 10_000
SEQ_FILE = "src/lunephase/data/prepare_pure.seq"
TRAJECTORY_SAMPLES = (16, 32, 64, 128)
# Same entry point as the installed ``lunephase`` console script.
CLI_ENTRY = "import sys; from lunephase.cli import main; sys.exit(main())"


@dataclass
class Request:
    """One closed-loop request: what to run, and how many work units it
    carries (grid points, recorded trajectory entries, loops or commands)."""

    args: dict
    units: int
    outcome: dict = field(default_factory=dict)


def _balanced(rng: random.Random, values, count: int) -> list:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- chain

def _pulse_level_args(rng: random.Random, conv: tuple[int, int]) -> dict:
    """Seeded inclination, conventions and rotating-frame offsets of up to
    piJ rad/s on each spin (the package accepts up to 20piJ)."""
    bound = math.pi * reference.J
    return {
        "theta": rng.uniform(0.0, math.pi / 2),
        "sense": conv[0],
        "iz_sign": conv[1],
        "offsets": (rng.uniform(-bound, bound), rng.uniform(-bound, bound)),
    }


CONVENTION_PAIRS = ((-1, 1), (-1, -1), (1, 1), (1, -1))


def chain_requests(rng: random.Random):
    """The 12-step purity ladder at one seeded inclination per request, each
    point run through the pulse-level chain as the package runs a grid
    point: thermal deviation (seeded polarizations near the package's 1/2
    and 2), preparation, purity mixing, conditional cycle, transverse
    relaxation (on one request in four), reduction to spin a, and the
    cycle's branch propagators. Blocks of four requests cover the four
    pulse-sense and I_z-sign pairs. Every request has the same size, so its
    latency does not depend on a size draw."""
    while True:
        conventions = _balanced(rng, CONVENTION_PAIRS, len(CONVENTION_PAIRS))
        relaxed = _balanced(rng, (True, False, False, False), len(CONVENTION_PAIRS))
        for conv, relax in zip(conventions, relaxed):
            ladder = _pulse_level_args(rng, conv)
            ka, kb = rng.uniform(0.4, 0.6), rng.uniform(1.8, 2.2)
            ladder.update(relaxed=relax, rho=np.diag(
                [ka + kb, ka - kb, kb - ka, -ka - kb]).astype(complex))
            ns = list(range(checks.PURITY_STEPS))
            rng.shuffle(ns)
            yield Request({"points": [dict(ladder, n=n) for n in ns]}, len(ns))


def _program(pulse, events, params, frames=()):
    """Package program of a tuple-form event list."""
    built = []
    for event in events:
        if event[0] == "pulse":
            built.append(pulse.Rotation(*event[1:]))
        elif event[0] == "delay":
            built.append(pulse.Delay(per_j=event[1]))
        else:
            built.append(pulse.Gradient())
    return pulse.make_program(built, params, tuple(pulse.FrameOffset(*f) for f in frames))


def run_chain(pulse, qcore, request: Request) -> None:
    request.outcome["points"] = [_chain_point(pulse, qcore, a) for a in request.args["points"]]


def _chain_point(pulse, qcore, a: dict) -> dict:
    conv = {"pulse_sense": a["sense"], "iz_sign": a["iz_sign"]}
    params = pulse.SpinSystemParams(omega_a=a["offsets"][0], omega_b=a["offsets"][1])
    rho = qcore.DensityOperator(a["rho"], normalized=False)
    prepared, _ = pulse.run_sequence(rho, _program(pulse, reference.PREPARE_PURE, params), **conv)
    mixed, _ = pulse.run_sequence(
        prepared, _program(pulse, reference.mixing_events(a["n"]), params), **conv)
    cycle = _program(pulse, reference.cycle_events(a["theta"]), params, (reference.CYCLE_FRAME,))
    cycled, _ = pulse.run_sequence(mixed, cycle, **conv)
    if a["relaxed"]:
        cycled = pulse.apply_t2_relaxation(cycled, cycle.total_duration, *checks.RELAXATION)
    return {
        "prepared": prepared.matrix,
        "mixed": mixed.matrix,
        "cycled": cycled.matrix,
        "reduced": qcore.partial_trace(cycled, "a").matrix,
        "branches": pulse.branch_propagators(cycle, **conv),
    }


def check_chain(request: Request, error: BaseException | None) -> list[str]:
    if error is not None:
        return [_describe(error)]
    failures = []
    for args, outcome in zip(request.args["points"], request.outcome["points"]):
        failures += checks.check_chain(args, outcome)
    return failures


# ---------------------------------------------------------------- trajectory

def trajectory_requests(rng: random.Random):
    """Requests of four recorded conditional cycles, one at each of 16,
    32, 64 and 128 samples per delay, as for path tracing. Every request
    has the same size, so its latency does not depend on a size draw; each
    cycle has its own seeded inclination, conventions and offsets and starts
    from a normalized product state of two seeded Bloch vectors."""
    while True:
        conventions = _balanced(rng, CONVENTION_PAIRS, len(TRAJECTORY_SAMPLES))
        cycles = []
        for samples, conv in zip(TRAJECTORY_SAMPLES, conventions):
            args = _pulse_level_args(rng, conv)
            spins = []
            for _ in range(2):
                z, phi = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
                length = rng.random()
                s = length * math.sqrt(1.0 - z * z)
                r = (s * math.cos(phi), s * math.sin(phi), length * z)
                spins.append(0.5 * (reference.I2 + r[0] * reference.SX
                                    + r[1] * reference.SY + r[2] * reference.SZ))
            args.update(samples=samples, rho=np.kron(*spins))
            cycles.append(args)
        # per cycle: the start, two pulses, and the samples of two delays
        yield Request({"cycles": cycles}, sum(3 + 2 * c["samples"] for c in cycles))


def run_trajectory(pulse, qcore, request: Request) -> None:
    recorded = []
    for a in request.args["cycles"]:
        params = pulse.SpinSystemParams(omega_a=a["offsets"][0], omega_b=a["offsets"][1])
        program = _program(pulse, reference.cycle_events(a["theta"]), params,
                           (reference.CYCLE_FRAME,))
        recorded.append(pulse.run_sequence(
            qcore.DensityOperator(a["rho"]), program, record=True,
            samples_per_delay=a["samples"], pulse_sense=a["sense"], iz_sign=a["iz_sign"]))
    request.outcome["recorded"] = recorded


def check_trajectory(request: Request, error: BaseException | None) -> list[str]:
    if error is not None:
        return [_describe(error)]
    failures = []
    for args, (final, path) in zip(request.args["cycles"], request.outcome["recorded"]):
        failures += checks.check_trajectory(
            args, final.matrix, [t for t, _ in path], [state.matrix for _, state in path])
    return failures


# ---------------------------------------------------------------- grid

def grid_requests(rng: random.Random):
    """Blocks of 18: a 4x4 factorial over theta-count strata (1-6 .. 19-24)
    and purity-count strata (1-3 .. 10-12) under the two calibrated
    convention sets, plus one sweep under each miscalibrated set."""
    while True:
        block = []
        sizes = [(tq, pq) for tq in range(4) for pq in range(4)]
        models = _balanced(rng, MODELS, len(sizes))
        formats = _balanced(rng, ("csv", "json"), len(sizes))
        conventions = _balanced(rng, CALIBRATED, len(sizes))
        relaxed = _balanced(rng, (True, False, False, False), len(sizes))
        for i, (tq, pq) in enumerate(sizes):
            k_theta = rng.randint(6 * tq + 1, 6 * tq + 6)
            k_n = rng.randint(3 * pq + 1, 3 * pq + 3)
            block.append(_grid_request(rng, k_theta, k_n, models[i], formats[i],
                                       conventions[i], relaxed[i]))
        for conv in MISCALIBRATED:
            block.append(_grid_request(rng, rng.randint(1, 24), rng.randint(1, 12),
                                       rng.choice(MODELS), rng.choice(("csv", "json")),
                                       conv, False))
        rng.shuffle(block)
        yield from block


def _grid_request(rng, k_theta, k_n, model, fmt, conv, relaxed) -> Request:
    thetas = [rng.uniform(0.0, math.pi / 2) for _ in range(k_theta - 1)]
    # pi/4 is always swept, so n = 6 lands on the undefined point Omega = pi
    thetas.insert(rng.randint(0, len(thetas)), math.pi / 4)
    ns = rng.sample(range(checks.PURITY_STEPS), k_n)
    sense, active_up = conv
    args = {
        "thetas": thetas,
        "ns": ns,
        "model": model,
        "fmt": fmt,
        "pulse_sense": sense,
        "active_branch_up": active_up,
        "orientation": sense * (1 if active_up else -1),
        "relaxed": relaxed,
        "refused": conv in MISCALIBRATED,
    }
    return Request(args, 0 if args["refused"] else k_theta * k_n)


def run_grid(lp, request: Request) -> None:
    a = request.args
    records = lp.run_sweep(
        a["thetas"],
        a["ns"],
        model=a["model"],
        relaxation=checks.RELAXATION if a["relaxed"] else None,
        conventions=lp.Conventions(a["pulse_sense"], a["active_branch_up"]),
    )
    render = lp.records_to_csv if a["fmt"] == "csv" else lp.records_to_json
    request.outcome["text"] = render(records)


def check_grid(request: Request, error: BaseException | None) -> list[str]:
    if request.args["refused"]:
        if error is None:
            return checks.check_refusal(None, "sweep ran to completion")
        return checks.check_refusal(type(error).__name__, str(error))
    if error is not None:
        return [_describe(error)]
    return checks.check_sweep(request.args, request.outcome["text"])


# ---------------------------------------------------------------- loop

def loop_requests(rng: random.Random):
    """Blocks of 5 with samples per segment near 1000, 2000, 3000 and 4000
    (jittered by up to 50) and at 5000, so every seed gets the same size mix
    and every run makes the largest geodesic check; theta uniform on
    (0, pi/2), eigenvector sign +-1."""
    strata = ((1000, 1050), (1975, 2025), (2975, 3025), (3975, 4025), (5000, 5000))
    while True:
        block = []
        for lo, hi in strata:
            args = {
                "theta": rng.uniform(0.0, math.pi / 2),
                "sign": rng.choice((1, -1)),
                "samples": rng.randint(lo, hi),
            }
            block.append(Request(args, 1))
        rng.shuffle(block)
        yield from block


def run_loop(lp, request: Request) -> None:
    a = request.args
    m = a["samples"]
    path = lp.idealized_eigenvector_path(a["theta"], a["sign"], samples_per_segment=m)
    area = lp.solid_angle(path.to_bloch_path())
    deviations = []
    for lo, hi in ((0, m + 1), (m, 2 * m + 1)):
        seg = lp.StatePath(path.times[lo:hi], path.states[lo:hi], path.generators[lo:hi])
        deviations.append(lp.check_geodesic(lp.BlochPath(seg.times, seg.bloch_points())))
    lune = lp.lune_path(lp.LuneSpec(a["theta"]), LUNE_SAMPLES)
    request.outcome.update(
        area=area,
        dynamical=lp.dynamical_phase(path),
        pancharatnam=lp.pancharatnam_phase(path),
        deviations=deviations,
        lune_area=lp.solid_angle(lune),
    )


def check_loop(request: Request, error: BaseException | None) -> list[str]:
    if error is not None:
        return [_describe(error)]
    a, o = request.args, request.outcome
    return checks.check_loop(a["theta"], a["sign"], o["area"], o["dynamical"],
                             o["deviations"], o["pancharatnam"], o["lune_area"])


# ---------------------------------------------------------------- cli

def cli_requests(rng: random.Random):
    """Rounds of twelve commands in a seeded order. The command lines are
    drawn once per seed, so every round after the first repeats each one
    and its stdout is compared byte for byte."""
    theta = lambda: repr(round(rng.uniform(0.05, 1.5), 6))  # noqa: E731
    theta_list = lambda: ",".join(theta() for _ in range(4))  # noqa: E731
    models = list(MODELS)
    rng.shuffle(models)
    commands = [
        ("sweep", ("sweep",), 0),
        ("sweep json idealized", ("sweep", "--format", "json", "--model", MODELS[1]), 0),
        ("sweep 4 thetas", ("sweep", "--theta", theta_list(), "--model", models[0]), 0),
        ("sweep 4 thetas json", ("sweep", "--theta", theta_list(), "--model", models[1],
                                 "--format", "json"), 0),
        ("theory", ("theory", "--omega", theta()), 0),
        ("simulate json", ("simulate", "--theta", theta(), "--n", str(rng.randrange(12)),
                           "--format", "json"), 0),
        ("trace-path 2000", ("trace-path", "--theta", theta(), "--samples", "2000"), 0),
        ("trace-path 10000", ("trace-path", "--theta", theta(), "--samples", "10000"), 0),
        ("check-transport", ("check-transport", "--theta", theta()), 0),
        ("check-transport perturbed", ("check-transport", "--theta", theta(),
                                       "--perturb", "0.01"), 1),
        ("parse", ("parse", SEQ_FILE), 0),
        ("parse json", ("parse", SEQ_FILE, "--format", "json"), 0),
    ]
    while True:
        rng.shuffle(commands)
        for label, argv, code in commands:
            yield Request({"label": label, "argv": argv, "expected_code": code}, 1)


def run_cli_subprocess(env: dict, cwd: str, request: Request) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *request.args["argv"]],
        cwd=cwd, env=env, capture_output=True, timeout=120, check=False,
    )
    request.outcome.update(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)


def run_cli_inprocess(lp, request: Request) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lp.cli.main(list(request.args["argv"]))
    request.outcome.update(code=code, stdout=out.getvalue().encode(),
                           stderr=err.getvalue().encode())


def make_cli_check():
    ledger = checks.StdoutLedger()

    def check_cli(request: Request, error: BaseException | None) -> list[str]:
        if error is not None:
            return [_describe(error)]
        o = request.outcome
        failures = checks.check_command(request.args["argv"], request.args["expected_code"],
                                        o["code"], o["stdout"], ledger)
        if failures and o["stderr"]:
            tail = o["stderr"].decode(errors="replace").strip().splitlines()[-1]
            failures.append(f"stderr: {tail}")
        return failures
    return check_cli


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"
