"""Tests of the benchmark's result checks: good results pass, and each kind
of wrong result counts as a failure. The pulse-level reference model is
itself held to the package's documented preparation targets.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import importlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

COLUMNS = ("omega_rad", "theta_rad", "n", "r", "gamma_sim_rad", "gamma_theory_rad",
           "visibility_sim", "visibility_theory", "residual_rad", "defined")
THETAS = [0.3, math.pi / 4, 1.2]
NS = [0, 3, 6, 11]
ORIENTATION = -1


def make_request(fmt: str = "csv", relaxed: bool = False) -> dict:
    return {"thetas": THETAS, "ns": NS, "orientation": ORIENTATION,
            "relaxed": relaxed, "fmt": fmt}


def make_rows(visibility_factor: float = 1.0) -> list[dict]:
    rows = []
    for theta in THETAS:
        for n in NS:
            gamma, visibility, defined = checks.closed_form(theta, n, ORIENTATION)
            rows.append({
                "omega_rad": 4 * theta,
                "theta_rad": theta,
                "n": n,
                "r": math.cos(n * math.pi / 12),
                "gamma_sim_rad": gamma if defined else None,
                "gamma_theory_rad": gamma if defined else None,
                "visibility_sim": visibility * visibility_factor,
                "visibility_theory": visibility,
                "residual_rad": 0.0 if defined else None,
                "defined": defined,
            })
    return rows


def render(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows, "summary": {}}, indent=2) + "\n"

    def cell(value):
        if value is None:
            return "nan"
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value)

    lines = [",".join(COLUMNS)]
    lines += [",".join(cell(row[c]) for c in COLUMNS) for row in rows]
    lines += ["# max_abs_residual_rad = 0.0", "# rms_residual_rad = 0.0"]
    return "\n".join(lines) + "\n"


def first_defined(rows: list[dict]) -> dict:
    return next(row for row in rows if row["defined"] and abs(row["gamma_sim_rad"]) > 0.1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_correct_sweep_passes(fmt):
    assert checks.check_sweep(make_request(fmt), render(make_rows(), fmt)) == []


def test_grid_includes_the_undefined_point():
    rows = make_rows()
    undefined = [(r["theta_rad"], r["n"]) for r in rows if not r["defined"]]
    assert undefined == [(math.pi / 4, 6)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sign_flipped_gamma_fails(fmt):
    rows = make_rows()
    row = first_defined(rows)
    row["gamma_sim_rad"] = -row["gamma_sim_rad"]
    assert checks.check_sweep(make_request(fmt), render(rows, fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_visibility_off_by_1e6_fails(fmt):
    rows = make_rows()
    rows[0]["visibility_sim"] += 1e-6
    assert checks.check_sweep(make_request(fmt), render(rows, fmt))


def test_defined_flag_must_match_closed_form():
    rows = make_rows()
    undefined = next(row for row in rows if not row["defined"])
    undefined.update(defined=True, gamma_sim_rad=0.0, gamma_theory_rad=0.0, residual_rad=0.0)
    assert checks.check_sweep(make_request(), render(rows, "csv"))


def test_missing_row_fails():
    rows = make_rows()[:-1]
    assert checks.check_sweep(make_request(), render(rows, "csv"))


def test_relaxed_rows_allow_the_ac7_loss_only():
    relaxed = make_request(relaxed=True)
    assert checks.check_sweep(relaxed, render(make_rows(0.985), "csv")) == []
    assert checks.check_sweep(relaxed, render(make_rows(0.98), "csv"))
    assert checks.check_sweep(relaxed, render(make_rows(1.01), "csv"))


def test_relaxed_phase_shift_fails():
    rows = make_rows(0.985)
    first_defined(rows)["gamma_sim_rad"] += 1e-5
    assert checks.check_sweep(make_request(relaxed=True), render(rows, "csv"))


def test_refusal_must_be_a_convention_error():
    message = "purity preparation missed its target state (see the sign-conventions section)"
    assert checks.check_refusal("ConventionError", message) == []
    assert checks.check_refusal("ValueError", "mutable default")
    assert checks.check_refusal(None, "sweep ran to completion")


def good_loop(theta: float = 0.4, sign: int = 1) -> dict:
    area = sign * 4 * theta
    return {"theta": theta, "eigen_sign": sign, "area": area, "dynamical": 1e-13,
            "deviations": [5e-16, 6e-16], "pancharatnam": -area / 2,
            "lune_area": -4 * theta}


@pytest.mark.parametrize("theta,sign", [(0.4, 1), (0.4, -1), (math.pi / 2, -1)])
def test_correct_loop_passes(theta, sign):
    assert checks.check_loop(**good_loop(theta, sign)) == []


@pytest.mark.parametrize("field,value", [
    ("area", 1.6 + 1e-4),
    ("dynamical", 1e-8),
    ("deviations", [5e-16, 1e-5]),
    ("pancharatnam", 0.8),
    ("lune_area", 1.6),
])
def test_broken_loop_fails(field, value):
    loop = good_loop()
    loop[field] = value
    assert checks.check_loop(**loop)


def test_perturbed_transport_reporting_exit_0_fails():
    argv = ("check-transport", "--theta", "0.4", "--perturb", "0.01")
    stdout = b"segment,geodesic_deviation,dynamical_phase_rad,pass\n# transport = pass\n"
    assert checks.check_command(argv, 1, 0, stdout, checks.StdoutLedger())
    assert checks.check_command(argv, 1, 1, stdout, checks.StdoutLedger()) == []


def test_crash_without_output_fails_even_with_the_expected_code():
    argv = ("check-transport", "--theta", "0.4", "--perturb", "0.01")
    assert checks.check_command(argv, 1, 1, b"", checks.StdoutLedger())


def test_different_stdout_from_the_same_command_fails():
    ledger = checks.StdoutLedger()
    argv = ("sweep",)
    assert checks.check_command(argv, 0, 0, b"a,b\n1,2\n", ledger) == []
    assert checks.check_command(argv, 0, 0, b"a,b\n1,2\n", ledger) == []
    assert checks.check_command(argv, 0, 0, b"a,b\n1,3\n", ledger)
    assert checks.check_command(("theory",), 0, 0, b"a,b\n1,3\n", ledger) == []


# ------------------------------------------------------------ pulse level

def traceless_direction(m: np.ndarray) -> np.ndarray:
    m = m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])
    return m / np.linalg.norm(m)


def test_reference_reaches_the_documented_preparation_targets():
    # Default calibration: pulse sense -1, active branch (I_z sign) +1.
    thermal = (0.5 * np.kron(reference.SZ, reference.I2)
               + 2.0 * np.kron(reference.I2, reference.SZ))
    pure = reference.run(reference.PREPARE_PURE, thermal, (0.0, 0.0), reference.J, -1, 1)
    up = np.diag([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(traceless_direction(pure), traceless_direction(up), atol=1e-12)
    for n in (0, 3, 7, 11):
        mixed = reference.run(reference.mixing_events(n), pure, (0.0, 0.0), reference.J, -1, 1)
        r = math.cos(n * math.pi / 12)
        target = np.kron(0.5 * (reference.I2 + reference.SX),
                         0.5 * (reference.I2 + r * reference.SX))
        assert np.allclose(traceless_direction(mixed), traceless_direction(target), atol=1e-12)


def reference_chain_point(a: dict, sense=None) -> dict:
    """Outcome of one chain point as the reference model computes it."""
    conv = (reference.J, a["sense"] if sense is None else sense, a["iz_sign"])
    base = tuple(a["offsets"])
    cycle_frame = (base[0], math.pi * reference.J)
    prepared = reference.run(reference.PREPARE_PURE, a["rho"], base, *conv)
    mixed = reference.run(reference.mixing_events(a["n"]), prepared, base, *conv)
    cycle = reference.cycle_events(a["theta"])
    cycled = reference.run(cycle, mixed, cycle_frame, *conv)
    if a["relaxed"]:
        cycled = reference.relax(cycled, 1.0 / reference.J, *checks.RELAXATION)
    return {"prepared": prepared, "mixed": mixed, "cycled": cycled,
            "reduced": reference.reduce_to_a(cycled),
            "branches": reference.branches(cycle, cycle_frame, *conv)}


def chain_points(count: int = 8) -> list[dict]:
    stream = workloads.chain_requests(random.Random(7))
    points = []
    while len(points) < count:
        points += next(stream).args["points"]
    return points[:count]


def test_reference_chain_point_passes():
    for a in chain_points():
        assert checks.check_chain(a, reference_chain_point(a)) == []


@pytest.mark.parametrize("stage", ["prepared", "mixed", "cycled", "reduced"])
def test_chain_state_off_by_1e6_fails(stage):
    a = chain_points(1)[0]
    outcome = reference_chain_point(a)
    outcome[stage] = outcome[stage] + 1e-6
    assert checks.check_chain(a, outcome)


def test_chain_under_the_other_pulse_sense_fails():
    a = next(p for p in chain_points() if p["n"] not in (0, 6))
    assert checks.check_chain(a, reference_chain_point(a, sense=-a["sense"]))


def test_swapped_branch_propagators_fail():
    a = chain_points(1)[0]
    outcome = reference_chain_point(a)
    outcome["branches"] = outcome["branches"][::-1]
    assert checks.check_chain(a, outcome)


def reference_trajectory(a: dict):
    frame = (a["offsets"][0], math.pi * reference.J)
    conv = (reference.J, a["sense"], a["iz_sign"])
    cycle = reference.cycle_events(a["theta"])
    times, states = reference.trajectory(cycle, a["rho"], frame, *conv, a["samples"])
    return reference.run(cycle, a["rho"], frame, *conv), list(times), list(states)


def trajectory_cycle() -> dict:
    return next(workloads.trajectory_requests(random.Random(7))).args["cycles"][0]


def test_reference_trajectory_passes():
    a = trajectory_cycle()
    assert checks.check_trajectory(a, *reference_trajectory(a)) == []


def test_trajectory_missing_sample_fails():
    a = trajectory_cycle()
    final, times, states = reference_trajectory(a)
    del times[5], states[5]
    assert checks.check_trajectory(a, final, times, states)


def test_trajectory_sample_off_by_1e6_fails():
    a = trajectory_cycle()
    final, times, states = reference_trajectory(a)
    states[len(states) // 2] = states[len(states) // 2] + 1e-6
    assert checks.check_trajectory(a, final, times, states)


def test_trajectory_sample_at_the_wrong_time_fails():
    a = trajectory_cycle()
    final, times, states = reference_trajectory(a)
    times[-2] += 1e-9
    assert checks.check_trajectory(a, final, times, states)


def pulse_layers():
    """The package's pulse and qcore modules, reached as the benchmark
    reaches them, or a skip when they cannot be imported."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    try:
        import lunephase  # noqa: F401
    except Exception:  # the benchmark reports this; the layers may still load
        pass
    try:
        return [importlib.import_module(f"lunephase.{m}") for m in ("pulse", "qcore")]
    except Exception as exc:
        pytest.skip(f"pulse layers do not import: {exc}")


@pytest.mark.parametrize("workload", ["chain", "trajectory"])
def test_the_package_passes_the_checks(workload):
    pulse, qcore = pulse_layers()
    stream = getattr(workloads, f"{workload}_requests")(random.Random(11))
    for _ in range(2):
        request = next(stream)
        getattr(workloads, f"run_{workload}")(pulse, qcore, request)
        assert getattr(workloads, f"check_{workload}")(request, None) == []
