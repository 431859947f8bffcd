"""Command-line front end emitting deterministic CSV/JSON tables.

Subcommands: theory (closed-form phase ladder), sweep (full simulation grid
checked against theory), simulate (one grid point with state snapshots),
trace-path (idealized active-branch Bloch trajectory), check-transport
(geodesic and parallel-transport verification), parse (pulse-program
validation).  Exit codes: 0 success, 1 check or tolerance failure, 2 usage
or parse error.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from .conventions import DEFAULT_CONVENTIONS, Conventions
from .errors import DomainError, SequenceSyntaxError
from .experiment import (
    DEFAULT_THETAS,
    MODELS,
    ExperimentConfig,
    idealized_eigenvector_path,
    record_values,
    records_to_csv,
    records_to_json,
    render_table,
    run_single,
    run_sweep,
)
from .geometry import (
    BlochPath,
    StatePath,
    check_geodesic,
    check_inclination,
    dynamical_phase,
    pancharatnam_phase,
    solid_angle,
)
from .phases import PURITY_STEPS, check_purity_index, ladder_purity, qubit_mixed_phase
from .pulse import check_t2_times
from .pulseprog import parse_sequence, render_sequence
from .qcore import _check_count

DYNAMICAL_TOL = 1e-9
GEODESIC_TOL = 1e-6

_PI_FORM = re.compile(r"^([+-]?)((?:\d+(?:\.\d+)?)?)pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Angle in radians; symbolic pi multiples ('pi/8', '3pi/8', '2pi',
    '-pi') are evaluated in one deterministic form, anything else as a
    decimal radian literal."""
    t = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(t)
    if m is None:
        return _finite(t)
    sign = -1.0 if m.group(1) == "-" else 1.0
    num = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0.0:
        raise ValueError("zero denominator in angle")
    return _finite(sign * num * math.pi / den)


def _finite(text: str | float) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A gate width: finite and nonnegative (a nan gate would pass anything)."""
    value = _finite(text)
    if value < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {text!r}")
    return value


def _usage(convert):
    """convert as an argparse type. argparse shows the message of an
    ArgumentTypeError only, so a ValueError (DomainError included) becomes
    one and its reason reaches the user."""
    def converter(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return converter


def _inclination(text: str) -> float:
    return check_inclination(parse_angle(text))


def _inclination_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of angles")
    return tuple(_inclination(p) for p in parts)


def _literal(text: str, kind: type = int) -> int | float | str:
    """text as a kind (int or float) when it is a literal of that kind;
    other text goes on as it is, for the package's own check
    (qcore._check_count, pulse.check_t2_times) to refuse in its own words."""
    try:
        return kind(text)
    except ValueError:
        return text


def _purity_index(text: str) -> int:
    return check_purity_index(_literal(text))


def _samples(text: str) -> int:
    """Loop sampling N: N//2 steps, at least two, per geodesic half turn."""
    return _check_count(_literal(text), "samples", 4, 1_000_000)


def _relaxation(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected t2a,t2b")
    return check_t2_times([_literal(p, float) for p in parts])


def _convention(text: str) -> Conventions:
    """Parse 'sense=-1,active=up' style overrides (keys: sense|s, active).
    Each field may be set once (s and sense are one key); a field that no
    key sets keeps its Conventions default."""
    given = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip().lower()
        if key in ("sense", "s"):
            if value not in ("+1", "1", "-1"):
                raise ValueError(f"sense must be +1 or -1, got {value!r}")
            field, parsed = "pulse_sense", -1 if value == "-1" else 1
        elif key == "active":
            if value not in ("up", "down"):
                raise ValueError(f"active must be up or down, got {value!r}")
            field, parsed = "active_branch_up", value == "up"
        else:
            raise ValueError(f"unknown convention key {key!r}")
        if field in given:
            raise ValueError(f"convention key {key!r} sets {field} a second time")
        given[field] = parsed
    return Conventions(**given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lunephase",
        description="Two-spin interferometry tables, simulations, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument("--output", default=None, help="write to a file, not stdout")

    def add_model_and_gate(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=MODELS, default="literal-sequence")
        p.add_argument("--relaxation", type=_usage(_relaxation), default=None,
                       help="transverse decay times t2a,t2b in seconds")
        p.add_argument(
            "--tolerance",
            type=_usage(_tolerance),
            default=1e-9,
            help="phase residual gate in rad (default 1e-9)",
        )
        p.add_argument("--tolerance-visibility", type=_usage(_tolerance), default=None,
                       help="visibility gate (defaults to --tolerance)")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_output(p)
        p.add_argument(
            "--convention",
            type=_usage(_convention),
            default=DEFAULT_CONVENTIONS,
            help="sign-convention overrides, e.g. 'sense=-1,active=up'",
        )

    p_theory = sub.add_parser("theory", help="closed-form phase/visibility ladder")
    p_theory.set_defaults(run=cmd_theory)
    p_theory.add_argument("--omega", type=_usage(parse_angle), required=True,
                          help="loop solid angle in rad (symbolic pi forms ok; "
                               "a negative one as --omega=-pi/2)")
    add_common(p_theory)

    p_sweep = sub.add_parser("sweep", help="simulate the grid and gate against theory")
    p_sweep.set_defaults(run=cmd_sweep)
    p_sweep.add_argument("--theta", type=_usage(_inclination_list), default=DEFAULT_THETAS,
                         help="comma-separated inclination angles")
    add_model_and_gate(p_sweep)
    add_common(p_sweep)

    p_sim = sub.add_parser("simulate", help="one grid point with state snapshots")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--theta", type=_usage(_inclination), required=True)
    p_sim.add_argument("--n", type=_usage(_purity_index), required=True,
                       help=f"purity index 0..{PURITY_STEPS - 1}")
    add_model_and_gate(p_sim)
    add_common(p_sim)

    p_trace = sub.add_parser("trace-path", help="idealized active-branch Bloch path")
    p_trace.set_defaults(run=cmd_trace_path)
    p_trace.add_argument("--theta", type=_usage(_inclination), required=True)
    p_trace.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p_trace.add_argument("--samples", type=_usage(_samples), default=4096,
                         help="N >= 4: N//2 steps per half turn, 2*(N//2)+1 samples")
    add_common(p_trace)

    p_check = sub.add_parser("check-transport",
                             help="verify geodesic segments and parallel transport")
    p_check.set_defaults(run=cmd_check_transport)
    p_check.add_argument("--theta", type=_usage(_inclination), required=True)
    p_check.add_argument("--samples", type=_usage(_samples), default=1024,
                         help="N >= 4: N//2 steps per half turn, 2*(N//2)+1 samples")
    p_check.add_argument("--perturb", type=_usage(_finite), default=0.0,
                         help="verification hook: tilt segment axes by this amount")
    add_common(p_check)

    p_parse = sub.add_parser("parse", help="validate and normalize a pulse program")
    p_parse.set_defaults(run=cmd_parse)
    p_parse.add_argument("file", help="pulse-program file")
    add_output(p_parse)

    return parser


def cmd_theory(args) -> tuple[str, int]:
    rows, payload_rows = [], []
    for n in range(PURITY_STEPS):
        c = ladder_purity(n)
        res = qubit_mixed_phase(c, args.omega, args.convention.orientation)
        rows.append({
            "n": n,
            "r": abs(c),
            "gamma_rad": res.gamma if res.defined else None,
            "visibility": res.visibility,
        })
        payload_rows.append(dict(rows[-1], defined=res.defined, flipped=c < 0))
    payload = {"omega_rad": args.omega, "rows": payload_rows}
    return render_table(args.format, rows, {}, payload), 0


def _gate(records, args) -> int:
    """Exit code 1 when any row misses the phase-residual or the visibility
    gate, else 0; undefined rows carry no phase to gate."""
    tol = args.tolerance
    tol_vis = args.tolerance_visibility if args.tolerance_visibility is not None else tol
    failed = any(
        (rec.defined and abs(rec.residual) > tol)
        or abs(rec.measured.visibility - rec.theory.visibility) > tol_vis
        for rec in records
    )
    return 1 if failed else 0


def cmd_sweep(args) -> tuple[str, int]:
    records = run_sweep(
        thetas=args.theta,
        model=args.model,
        relaxation=args.relaxation,
        conventions=args.convention,
    )
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    return text, _gate(records, args)


def _matrix_payload(matrix: np.ndarray) -> dict:
    return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def cmd_simulate(args) -> tuple[str, int]:
    config = ExperimentConfig(
        args.theta, args.n, args.model, args.relaxation, args.convention
    )
    record = run_single(config, record_snapshots=args.format == "json")
    code = _gate([record], args)
    if args.format == "csv":
        return records_to_csv([record]), code
    payload = {
        "config": {
            "theta_rad": config.theta,
            "n": config.n,
            "model": config.model,
            "relaxation": list(config.relaxation) if config.relaxation else None,
            "conventions": dataclasses.asdict(config.conventions),
        },
        "result": record_values(record),
        "snapshots": [
            {"time_s": t, "state": _matrix_payload(m)}
            for t, m in zip(record.snapshots.times, record.snapshots.matrices)
        ],
    }
    return render_table("json", [], {}, payload), code


def _loop_reports(args, eigen_sign: int, perturb: float = 0.0):
    """The idealized loop at --samples // 2 steps per half turn, and for each
    of its two geodesic segments the report check-transport prints."""
    per_segment = args.samples // 2
    path = idealized_eigenvector_path(
        args.theta,
        eigen_sign,
        conventions=args.convention,
        samples_per_segment=per_segment,
        perturb=perturb,
    )
    reports = []
    for k, lo in enumerate((0, per_segment), start=1):
        cut = slice(lo, lo + per_segment + 1)
        seg = StatePath(path.times[cut], path.states[cut], path.generators[cut])
        dev = check_geodesic(BlochPath(seg.times, seg.bloch_points()))
        dyn = dynamical_phase(seg)
        reports.append(
            {
                "segment": k,
                "geodesic_deviation": dev,
                "dynamical_phase_rad": dyn,
                "pass": dev <= GEODESIC_TOL and abs(dyn) <= DYNAMICAL_TOL,
            }
        )
    return path, reports


def cmd_trace_path(args) -> tuple[str, int]:
    path, reports = _loop_reports(args, 1 if args.branch == "plus" else -1)
    bloch = path.to_bloch_path()
    points = [
        {"time_s": t, "x": x, "y": y, "z": z}
        for t, (x, y, z) in zip(path.times.tolist(), bloch.points.tolist())
    ]
    area = solid_angle(bloch)
    pan = pancharatnam_phase(path)
    dyn = dynamical_phase(path)
    deviations = [r["geodesic_deviation"] for r in reports]
    footer = {
        "solid_angle_rad": area,
        **{f"geodesic_deviation_seg{k}": dev for k, dev in enumerate(deviations, 1)},
        "pancharatnam_rad": pan,
        "dynamical_rad": dyn,
    }
    payload = {
        "theta_rad": args.theta,
        "branch": args.branch,
        "points": points,
        "solid_angle_rad": area,
        "geodesic_deviation_rad": deviations,
        "pancharatnam_rad": pan,
        "dynamical_rad": dyn,
    }
    rows = [dict(point, branch=args.branch) for point in points]
    return render_table(args.format, rows, footer, payload), 0


def cmd_check_transport(args) -> tuple[str, int]:
    _, reports = _loop_reports(args, 1, perturb=args.perturb)
    ok = all(r["pass"] for r in reports)
    footer = {"transport": "pass" if ok else "fail"}
    payload = {"segments": reports, "pass": ok}
    return render_table(args.format, reports, footer, payload), 0 if ok else 1


def cmd_parse(args) -> tuple[str, int]:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    try:
        prog = parse_sequence(source)
        duration = prog.total_duration
    except SequenceSyntaxError as exc:
        raise ValueError(f"{args.file}:{exc}") from exc
    except DomainError as exc:
        # the clock's overflow, a fault of the whole program, has no line:column
        raise ValueError(f"{args.file}: {exc}") from exc
    rendered = render_sequence(prog)
    footer = {"events": len(prog.events), "total_duration_s": duration}
    # the rendering holds one line per frame directive, then one per event
    lines = rendered.splitlines()
    payload = {
        "frames": lines[: len(prog.frames)],
        "events": lines[len(prog.frames):],
        "event_count": len(prog.events),
        "total_duration_s": duration,
    }
    text = render_table(args.format, [], footer, payload)
    # the CSV form is the normalized program itself, ahead of the footer
    return (rendered + text if args.format == "csv" else text), 0


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = args.run(args)
        _emit(text, args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
