"""Result checks for the benchmark's workloads.

Every check returns a list of failure messages; an empty list means the
result passed. The checks never call the package: sweeps, loops and
commands are held to an independent closed form, and pulse-level results to
the independent model in reference.py, so the checks run (and are tested)
even when the package itself cannot be imported.

Tolerances are the package's published acceptance criteria:

* AC1: unrelaxed rows match v e^{i gamma} = cos(Omega/2) + i s r sin(Omega/2)
  to 1e-9 in both gamma and v, and the ``defined`` flag matches whether the
  closed-form visibility clears the 1e-9 floor.
* AC7: with relaxation (0.3 s, 0.4 s) the phase moves by at most 1e-6 and the
  visibility drops by at most 1.6 % against the unrelaxed value.
* Pulse level: every state and propagator matches the reference model to
  1e-9 in each matrix element, and a recorded path has the reference's
  length and sample times.
* AC3/AC4: a traced loop encloses 4*theta to 1e-5, its segments are geodesic
  to 1e-6, it picks up no dynamical phase (1e-9), and its Pancharatnam phase
  is -area/2 to 1e-5.
"""
from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np

import reference

PURITY_STEPS = 12
VISIBILITY_FLOOR = 1e-9
PHASE_TOL = 1e-9
VISIBILITY_TOL = 1e-9
RELAXED_PHASE_SHIFT_TOL = 1e-6
RELAXED_VISIBILITY_LOSS_MAX = 0.016
AREA_TOL = 1e-5
DYNAMICAL_TOL = 1e-9
GEODESIC_TOL = 1e-6
HOLONOMY_TOL = 1e-5
STATE_TOL = 1e-9
TIME_TOL = 1e-12
RELAXATION = (0.3, 0.4)


def principal(x: float) -> float:
    """Angle wrapped into (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def closed_form(theta: float, n: int, orientation: int) -> tuple[float, float, bool]:
    """(gamma, visibility, defined) of the purity-ladder point (theta, n).

    r = cos(n*pi/12) keeps its sign, which covers the weight swap of the
    negative half of the ladder.
    """
    half = 2.0 * theta  # Omega/2 with Omega = 4*theta
    r = math.cos(n * math.pi / PURITY_STEPS)
    z = complex(math.cos(half), orientation * r * math.sin(half))
    visibility = abs(z)
    if visibility < VISIBILITY_FLOOR:
        return 0.0, visibility, False
    return principal(cmath.phase(z)), visibility, True


def _cell(text: str):
    if text == "nan":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse_sweep(text: str, fmt: str) -> list[dict]:
    """Rows of a rendered sweep table (CSV or JSON) as dicts keyed by column."""
    if fmt == "json":
        return list(json.loads(text)["rows"])
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return [
        {key: _cell(value) for key, value in row.items()}
        for row in csv.DictReader(io.StringIO("\n".join(body)))
    ]


def check_sweep(request: dict, text: str) -> list[str]:
    """Check one rendered sweep against the request that produced it.

    request holds thetas, ns, orientation (pulse_sense * iz_sign), relaxed
    and fmt. Rows must come theta-major and purity-minor.
    """
    try:
        rows = parse_sweep(text, request["fmt"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {request['fmt']} output: {exc}"]
    expected = [(t, n) for t in request["thetas"] for n in request["ns"]]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    failures = []
    for row, (theta, n) in zip(rows, expected):
        failures.extend(_check_row(row, theta, n, request))
    return failures


def _check_row(row: dict, theta: float, n: int, request: dict) -> list[str]:
    where = f"theta={theta!r} n={n}"
    if row["theta_rad"] != theta or row["n"] != n:
        return [f"{where}: row carries theta={row['theta_rad']!r} n={row['n']!r}"]
    gamma, visibility, defined = closed_form(theta, n, request["orientation"])
    failures = []
    if row["defined"] is not defined:
        failures.append(f"{where}: defined={row['defined']} but closed form says {defined}")
    if abs(row["visibility_theory"] - visibility) > VISIBILITY_TOL:
        failures.append(f"{where}: visibility_theory {row['visibility_theory']!r} != {visibility!r}")
    v_sim = row["visibility_sim"]
    if request["relaxed"]:
        if visibility > VISIBILITY_FLOOR:
            loss = 1.0 - v_sim / visibility
            if not -VISIBILITY_TOL <= loss <= RELAXED_VISIBILITY_LOSS_MAX:
                failures.append(f"{where}: relaxed visibility loss {loss!r}")
        if defined and row["defined"]:
            shift = abs(principal(row["gamma_sim_rad"] - gamma))
            if shift > RELAXED_PHASE_SHIFT_TOL:
                failures.append(f"{where}: relaxed phase shift {shift!r}")
        return failures
    if abs(v_sim - visibility) > VISIBILITY_TOL:
        failures.append(f"{where}: visibility {v_sim!r} vs closed form {visibility!r}")
    if defined and row["defined"]:
        if abs(principal(row["gamma_sim_rad"] - gamma)) > PHASE_TOL:
            failures.append(f"{where}: gamma {row['gamma_sim_rad']!r} vs closed form {gamma!r}")
        if abs(principal(row["gamma_theory_rad"] - gamma)) > PHASE_TOL:
            failures.append(f"{where}: gamma_theory {row['gamma_theory_rad']!r} vs {gamma!r}")
        if abs(row["residual_rad"]) > PHASE_TOL:
            failures.append(f"{where}: residual {row['residual_rad']!r}")
    return failures


def check_refusal(error_type: str | None, message: str) -> list[str]:
    """A sweep under a miscalibrated convention set must be refused with a
    ConventionError that points at the sign-conventions documentation."""
    if error_type != "ConventionError" or "sign-conventions" not in message:
        return [f"expected a ConventionError refusal, got {error_type}: {message}"]
    return []


def check_loop(
    theta: float,
    eigen_sign: int,
    area: float,
    dynamical: float,
    deviations: list[float],
    pancharatnam: float,
    lune_area: float,
) -> list[str]:
    """AC3/AC4 on one traced eigenvector loop plus the reference lune.

    Under the default conventions the +x eigenvector encloses +4*theta and
    the -x one -4*theta; lune_path samples its loop in the order that
    bounds -4*theta. Areas compare modulo 4*pi.
    """
    where = f"theta={theta!r} sign={eigen_sign}"
    failures = []
    expected = eigen_sign * 4.0 * theta
    if abs(math.remainder(area - expected, 4.0 * math.pi)) > AREA_TOL:
        failures.append(f"{where}: loop area {area!r}, expected {expected!r}")
    if abs(math.remainder(lune_area + 4.0 * theta, 4.0 * math.pi)) > AREA_TOL:
        failures.append(f"{where}: lune area {lune_area!r}, expected {-4.0 * theta!r}")
    if abs(dynamical) > DYNAMICAL_TOL:
        failures.append(f"{where}: dynamical phase {dynamical!r}")
    if len(deviations) != 2:
        failures.append(f"{where}: {len(deviations)} segments checked, expected 2")
    for k, deviation in enumerate(deviations, start=1):
        if not deviation <= GEODESIC_TOL:
            failures.append(f"{where}: segment {k} geodesic deviation {deviation!r}")
    if abs(principal(pancharatnam + 0.5 * area)) > HOLONOMY_TOL:
        failures.append(f"{where}: pancharatnam {pancharatnam!r} vs -area/2 {-0.5 * area!r}")
    return failures


class StdoutLedger:
    """First stdout seen for each command line; repeats must match it byte
    for byte."""

    def __init__(self) -> None:
        self._first: dict[tuple[str, ...], bytes] = {}

    def check(self, argv: tuple[str, ...], stdout: bytes) -> list[str]:
        first = self._first.setdefault(argv, stdout)
        if first != stdout:
            return [f"{' '.join(argv)}: stdout differs from an earlier identical run"]
        return []


def check_command(
    argv: tuple[str, ...],
    expected_code: int,
    code: int,
    stdout: bytes,
    ledger: StdoutLedger,
) -> list[str]:
    """Exit code as expected, some stdout (every command in the mix prints
    its table or report, even when it exits 1), and stdout identical to
    earlier runs of argv."""
    failures = []
    if code != expected_code:
        failures.append(f"{' '.join(argv)}: exit {code}, expected {expected_code}")
    if not stdout:
        failures.append(f"{' '.join(argv)}: no output")
    failures.extend(ledger.check(argv, stdout))
    return failures


def _mismatch(name: str, got, want) -> list[str]:
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    error = float(np.max(np.abs(got - want)))
    return [] if error <= STATE_TOL else [f"{name}: off the reference by {error!r}"]


def _frames(args: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    """Rotating-frame offsets (delta_a, delta_b) of the stages that run on
    the base frame, and of the cycle, whose spin-b frame sits piJ below
    spin b's frequency."""
    base = tuple(args["offsets"])
    return base, (base[0], math.pi * reference.J)


def check_chain(args: dict, outcome: dict) -> list[str]:
    """Each stage of one pulse-level grid point against the reference model."""
    where = f"theta={args['theta']!r} n={args['n']} sense={args['sense']} iz={args['iz_sign']}"
    conv = (reference.J, args["sense"], args["iz_sign"])
    base, cycle_frame = _frames(args)
    prepared = reference.run(reference.PREPARE_PURE, args["rho"], base, *conv)
    mixed = reference.run(reference.mixing_events(args["n"]), prepared, base, *conv)
    cycle = reference.cycle_events(args["theta"])
    cycled = reference.run(cycle, mixed, cycle_frame, *conv)
    if args["relaxed"]:
        cycled = reference.relax(cycled, 1.0 / reference.J, *RELAXATION)
    up, down = reference.branches(cycle, cycle_frame, *conv)
    failures = []
    for name, want in (("prepared", prepared), ("mixed", mixed), ("cycled", cycled),
                       ("reduced", reference.reduce_to_a(cycled))):
        failures += _mismatch(f"{where}: {name}", outcome[name], want)
    got_up, got_down = outcome["branches"]
    failures += _mismatch(f"{where}: branch up", got_up, up)
    failures += _mismatch(f"{where}: branch down", got_down, down)
    return failures


def check_trajectory(args: dict, final, times: list[float], states: list) -> list[str]:
    """A recorded cycle against the reference path, sample by sample."""
    where = f"theta={args['theta']!r} samples={args['samples']}"
    conv = (reference.J, args["sense"], args["iz_sign"])
    _, frame = _frames(args)
    cycle = reference.cycle_events(args["theta"])
    want_times, want_states = reference.trajectory(
        cycle, args["rho"], frame, *conv, args["samples"])
    if len(times) != len(want_times):
        return [f"{where}: {len(times)} recorded samples, expected {len(want_times)}"]
    failures = []
    lag = float(np.max(np.abs(np.asarray(times) - want_times)))
    if lag > TIME_TOL:
        failures.append(f"{where}: sample times off by {lag!r} s")
    failures += _mismatch(f"{where}: path", np.array(states), want_states)
    failures += _mismatch(f"{where}: final", final, reference.run(cycle, args["rho"], frame, *conv))
    return failures
