import contextlib
import io
import json
import math
import re
import shlex
import warnings
from importlib import resources
from pathlib import Path

import pytest

from lunephase.cli import main, parse_angle


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bundled_program_path():
    return resources.files("lunephase").joinpath("data", "prepare_pure.seq")


class TestAngleParsing:
    def test_symbolic_forms(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/2") == math.pi / 2
        assert parse_angle("3pi/8") == 3 * math.pi / 8
        assert parse_angle("2pi") == 2 * math.pi
        assert parse_angle("-pi/4") == -math.pi / 4
        assert parse_angle("0.5pi") == 0.5 * math.pi

    def test_decimal_radians(self):
        assert parse_angle("0.75") == 0.75
        assert parse_angle("-1.5e-3") == -1.5e-3

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("half a turn")
        with pytest.raises(ValueError):
            parse_angle("pi/0")

    def test_rejects_non_finite(self):
        for text in ("inf", "-inf", "nan", "1" + "0" * 400 + "pi"):
            with pytest.raises(ValueError):
                parse_angle(text)


class TestTheoryCommand:
    def test_quarter_turn_table(self):
        code, out, _ = invoke(["theory", "--omega", "pi/2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,r,gamma_rad,visibility"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "0"
        assert abs(float(first[2])) == pytest.approx(math.pi / 4, abs=1e-15)
        assert float(first[3]) == 1.0

    def test_full_turn_all_pi(self):
        code, out, _ = invoke(["theory", "--omega", "2pi"])
        assert code == 0
        gammas = {line.split(",")[2] for line in out.strip().split("\n")[1:]}
        assert gammas == {"3.141592653589793"}

    def test_half_turn_json_marks_undefined(self):
        code, out, _ = invoke(["theory", "--omega", "pi", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 12
        assert rows[6]["defined"] is False
        assert rows[6]["gamma_rad"] is None
        assert rows[0]["defined"] is True
        assert rows[7]["flipped"] is True

    def test_n_max_is_not_an_option(self):
        # the table always spans the 12-step ladder that simulate --n indexes
        code, out, err = invoke(["theory", "--omega", "pi/2", "--n-max", "5"])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --n-max 5" in err

    def test_convention_flips_sign(self):
        _, default_out, _ = invoke(["theory", "--omega", "pi/2"])
        _, flipped_out, _ = invoke(
            ["theory", "--omega", "pi/2", "--convention", "active=down"]
        )
        g0 = float(default_out.strip().split("\n")[1].split(",")[2])
        g1 = float(flipped_out.strip().split("\n")[1].split(",")[2])
        assert g0 == -g1 != 0.0

    def test_sense_convention_flips_sign(self):
        _, default_out, _ = invoke(["theory", "--omega", "pi/2"])
        code, flipped_out, _ = invoke(
            ["theory", "--omega", "pi/2", "--convention", "sense=1"]
        )
        assert code == 0
        g0 = [float(line.split(",")[2]) for line in default_out.strip().split("\n")[1:]]
        g1 = [float(line.split(",")[2]) for line in flipped_out.strip().split("\n")[1:]]
        assert g0 == [-g for g in g1]
        assert g0[0] != 0.0

    def test_empty_convention_item_is_skipped(self):
        plain = invoke(["theory", "--omega", "pi/2", "--convention", "sense=-1"])
        trailing = invoke(["theory", "--omega", "pi/2", "--convention", "sense=-1,"])
        assert trailing == plain and plain[0] == 0

    def test_bad_omega_is_usage_error(self):
        code, _, err = invoke(["theory", "--omega", "sideways"])
        assert code == 2
        assert "omega" in err

    def test_missing_omega_is_usage_error(self):
        code, _, _ = invoke(["theory"])
        assert code == 2


class TestSweepCommand:
    def test_default_grid_passes(self):
        code, out, _ = invoke(["sweep", "--theta", "pi/8,pi/4,3pi/8"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("omega_rad,theta_rad,n,r,")
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 36

    def test_missing_theta_value_is_usage_error(self):
        code, _, _ = invoke(["sweep", "--theta"])
        assert code == 2

    def test_relaxation_needs_wider_visibility_gate(self):
        code, _, _ = invoke(["sweep", "--theta", "pi/4", "--relaxation", "0.3,0.4"])
        assert code == 1
        code, out, _ = invoke(
            [
                "sweep",
                "--theta",
                "pi/4",
                "--relaxation",
                "0.3,0.4",
                "--tolerance-visibility",
                "0.02",
            ]
        )
        assert code == 0
        # every visibility uniformly reduced by the same dephasing factor
        rows = [
            l.split(",")
            for l in out.strip().split("\n")[1:]
            if not l.startswith("#")
        ]
        ratios = {round(float(r[6]) / float(r[7]), 9) for r in rows if float(r[7]) > 1e-9}
        assert len(ratios) == 1

    def test_json_format(self):
        code, out, _ = invoke(
            ["sweep", "--theta", "pi/8", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 12
        assert payload["summary"]["max_abs_residual_rad"] < 1e-9

    def test_impossible_tolerance_fails(self):
        code, _, _ = invoke(["sweep", "--theta", "pi/8", "--tolerance", "1e-20"])
        assert code == 1

    def test_byte_determinism(self):
        argv = ["sweep", "--theta", "pi/8,pi/4"]
        _, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert first == second


class TestSimulateCommand:
    def test_csv_single_row(self):
        code, out, _ = invoke(["simulate", "--theta", "pi/8", "--n", "3"])
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert len(lines) == 2
        gamma = float(lines[1].split(",")[4])
        assert gamma == pytest.approx(-math.atan(math.sqrt(2) / 2), abs=1e-12)

    def test_json_snapshot_dump(self):
        code, out, _ = invoke(
            ["simulate", "--theta", "pi/8", "--n", "0", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n"] == 0
        assert payload["result"]["defined"] is True
        snaps = payload["snapshots"]
        assert snaps[0]["time_s"] == 0.0
        assert snaps[-1]["time_s"] == pytest.approx(1.0 / 214.5, abs=1e-15)
        state = snaps[0]["state"]
        assert len(state["re"]) == 4 and len(state["im"]) == 4

    def test_gate_applies_to_simulate(self):
        code, _, _ = invoke(
            ["simulate", "--theta", "pi/8", "--n", "3", "--tolerance", "1e-20"]
        )
        assert code == 1

    def test_relaxation_needs_wider_visibility_gate(self):
        argv = ["simulate", "--theta", "pi/4", "--n", "3", "--relaxation", "0.3,0.4"]
        code, _, _ = invoke(argv)
        assert code == 1
        code, _, _ = invoke(argv + ["--tolerance-visibility", "0.02"])
        assert code == 0

    def test_bad_purity_index_is_usage_error(self):
        code, _, err = invoke(["simulate", "--theta", "pi/8", "--n", "12"])
        assert code == 2
        assert "purity index" in err


class TestTracePathCommand:
    def test_footer_reports_loop_area(self):
        code, out, _ = invoke(
            ["trace-path", "--theta", "pi/4", "--samples", "10000"]
        )
        assert code == 0
        footer = {
            line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in out.strip().split("\n")
            if line.startswith("#")
        }
        assert footer["# solid_angle_rad"] == pytest.approx(math.pi, abs=1e-5)
        assert footer["# pancharatnam_rad"] == pytest.approx(-math.pi / 2, abs=1e-5)
        assert abs(footer["# dynamical_rad"]) < 1e-9
        assert footer["# geodesic_deviation_seg1"] < 1e-6
        assert footer["# geodesic_deviation_seg2"] < 1e-6

    def test_rows_carry_branch_and_unit_points(self):
        code, out, _ = invoke(["trace-path", "--theta", "pi/8", "--samples", "64"])
        assert code == 0
        rows = [l for l in out.strip().split("\n")[1:] if not l.startswith("#")]
        assert len(rows) == 65
        t, x, y, z, branch = rows[0].split(",")
        assert branch == "plus"
        assert float(t) == 0.0
        assert float(x) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(y)) < 1e-12 and abs(float(z)) < 1e-12

    def test_minus_branch_mirrors_area(self):
        _, plus_out, _ = invoke(["trace-path", "--theta", "pi/8", "--samples", "2000"])
        _, minus_out, _ = invoke(
            ["trace-path", "--theta", "pi/8", "--branch", "minus", "--samples", "2000"]
        )

        def area(text):
            for line in text.strip().split("\n"):
                if line.startswith("# solid_angle_rad"):
                    return float(line.split(" = ")[1])

        assert area(minus_out) == pytest.approx(-area(plus_out), abs=1e-12)
        assert area(plus_out) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_degenerate_lune_has_zero_area(self):
        code, out, _ = invoke(["trace-path", "--theta", "0", "--samples", "512"])
        assert code == 0
        line = [l for l in out.strip().split("\n") if "solid_angle" in l][0]
        assert abs(float(line.split(" = ")[1])) < 1e-9

    def test_too_few_samples_is_usage_error(self):
        for argv in (
            ["trace-path", "--theta", "pi/4", "--samples", "3"],
            ["check-transport", "--theta", "pi/4", "--samples", "-5"],
        ):
            code, out, err = invoke(argv)
            assert code == 2, argv
            assert out == ""
            assert "argument --samples:" in err

    def test_json_payload(self):
        code, out, _ = invoke(
            ["trace-path", "--theta", "pi/4", "--samples", "128", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 129
        assert payload["branch"] == "plus"
        assert len(payload["geodesic_deviation_rad"]) == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "path.csv"
        code, out, _ = invoke(
            ["trace-path", "--theta", "pi/4", "--samples", "64", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("time_s,x,y,z,branch")

    def test_unwritable_output_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = invoke(["theory", "--omega", "pi", "--output", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "missing" in err
        assert not target.parent.exists()


class TestCheckTransportCommand:
    def test_clean_lunes_pass(self):
        for theta in ("pi/8", "pi/3"):
            code, out, _ = invoke(["check-transport", "--theta", theta])
            assert code == 0, theta
            assert "# transport = pass" in out

    def test_perturbed_path_fails_with_dynamical_phase(self):
        code, out, _ = invoke(
            ["check-transport", "--theta", "pi/3", "--perturb", "0.01"]
        )
        assert code == 1
        assert "# transport = fail" in out
        first = out.strip().split("\n")[1].split(",")
        assert abs(float(first[2])) > 1e-6  # dynamical phase is visibly nonzero
        assert first[3] == "false"

    def test_json_report(self):
        code, out, _ = invoke(
            ["check-transport", "--theta", "pi/8", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert [seg["segment"] for seg in payload["segments"]] == [1, 2]


class TestParseCommand:
    def test_bundled_preparation_program(self):
        with resources.as_file(bundled_program_path()) as path:
            code, out, _ = invoke(["parse", str(path)])
        assert code == 0
        assert "# events = 6" in out
        assert f"# total_duration_s = {1.0 / (2 * 214.5)!r}" in out

    def test_unknown_spin_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.seq"
        bad.write_text("pulse c x 90deg\n")
        code, _, err = invoke(["parse", str(bad)])
        assert code == 2
        assert "spin" in err
        assert "1:7" in err

    @pytest.mark.parametrize(
        "line, position",
        [("delay 1e400/J", "1:7"), ("pulse b phase:nan 90deg", "1:1")],
    )
    def test_number_beyond_a_float_is_an_input_error(self, tmp_path, line, position):
        bad = tmp_path / "bad.seq"
        bad.write_text(line + "\n")
        code, _, err = invoke(["parse", str(bad)])
        assert code == 2
        assert f"bad.seq:{position}:" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("line", ["delay 1.7e308/J", "delay 1.7e308s"])
    def test_total_duration_beyond_a_float_is_an_input_error(self, tmp_path, line, fmt):
        # each line alone fits a float, the sum of two does not
        long = tmp_path / "long.seq"
        long.write_text(f"{line}\n{line}\n")
        code, out, err = invoke(["parse", str(long), "--format", fmt])
        assert (code, out) == (2, "")
        assert err == "error: total duration is too large for a float\n"

    def test_round_trip_is_identity(self, tmp_path):
        with resources.as_file(bundled_program_path()) as path:
            _, first, _ = invoke(["parse", str(path)])
        rendered = "\n".join(
            l for l in first.strip().split("\n") if not l.startswith("#")
        )
        again = tmp_path / "again.seq"
        again.write_text(rendered + "\n")
        code, second, _ = invoke(["parse", str(again)])
        assert code == 0
        assert second == first

    def test_missing_file(self, tmp_path):
        code, _, err = invoke(["parse", str(tmp_path / "absent.seq")])
        assert code == 2
        assert "absent" in err

    def test_json_report(self):
        with resources.as_file(bundled_program_path()) as path:
            code, out, _ = invoke(["parse", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["event_count"] == 6
        assert payload["events"][0].startswith("pulse b x")


def csv_table(text):
    """Rows (dicts of cell text keyed by the header) and '#' footer of a CSV
    table."""
    lines = text.rstrip("\n").split("\n")
    body = [line for line in lines if not line.startswith("#")]
    footer = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
    header = body[0].split(",")
    return [dict(zip(header, line.split(","))) for line in body[1:]], footer


def cell_agrees(cell, value):
    """A CSV cell against the JSON value of the same quantity: floats must
    round-trip exactly, an undefined (null) value prints as nan."""
    if value is None:
        return cell == "nan"
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


def _trace_path_json(payload):
    rows = [dict(point, branch=payload["branch"]) for point in payload["points"]]
    footer = {
        key: payload[key]
        for key in ("solid_angle_rad", "pancharatnam_rad", "dynamical_rad")
    }
    for k, dev in enumerate(payload["geodesic_deviation_rad"], start=1):
        footer[f"geodesic_deviation_seg{k}"] = dev
    return rows, footer


def _simulate_json(payload):
    # the one row's residual statistics; JSON carries no summary object
    residual = payload["result"]["residual_rad"]
    stat = 0.0 if residual is None else abs(residual)
    return [payload["result"]], {"max_abs_residual_rad": stat, "rms_residual_rad": stat}


def _sweep_json(payload):
    summary = payload["summary"]
    footer = {k: summary[k] for k in ("max_abs_residual_rad", "rms_residual_rad")}
    return payload["rows"], footer


def _transport_json(payload):
    return payload["segments"], {"transport": "pass" if payload["pass"] else "fail"}


class TestCsvJsonAgreement:
    """Each command's CSV cells and footer equal the JSON values of the same
    invocation; the JSON side is mapped to (rows, footer) per command."""

    @pytest.mark.parametrize(
        "argv, from_json",
        [
            (["theory", "--omega", "pi"], lambda p: (p["rows"], {})),
            (["sweep", "--theta", "pi/4,0.3", "--relaxation", "0.3,0.4"], _sweep_json),
            (["simulate", "--theta", "pi/8", "--n", "3"], _simulate_json),
            (["simulate", "--theta", "pi/4", "--n", "6"], _simulate_json),
            (["trace-path", "--theta", "0.3", "--samples", "64"], _trace_path_json),
            (
                ["trace-path", "--theta", "pi/4", "--samples", "65", "--branch", "minus"],
                _trace_path_json,
            ),
            (["check-transport", "--theta", "pi/8"], _transport_json),
            (["check-transport", "--theta", "pi/8", "--perturb", "0.01"], _transport_json),
        ],
    )
    def test_csv_cells_equal_json_values(self, argv, from_json):
        csv_code, csv_out, _ = invoke(argv)
        json_code, json_out, _ = invoke(argv + ["--format", "json"])
        assert csv_code == json_code
        csv_rows, csv_footer = csv_table(csv_out)
        json_rows, json_footer = from_json(json.loads(json_out))
        assert len(csv_rows) == len(json_rows) > 0
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert set(csv_row) <= set(json_row)
            for key, cell in csv_row.items():
                assert cell_agrees(cell, json_row[key]), (key, cell, json_row[key])
        assert set(csv_footer) == set(json_footer)
        for key, cell in csv_footer.items():
            assert cell_agrees(cell, json_footer[key]), (key, cell, json_footer[key])

    def test_cell_comparison_is_strict(self):
        assert cell_agrees("nan", None) and not cell_agrees("0.0", None)
        assert cell_agrees("false", False) and not cell_agrees("0", False)
        assert cell_agrees("0.1", 0.1) and not cell_agrees("0.1", math.nextafter(0.1, 1.0))


class TestExitCodeContract:
    def test_unknown_subcommand(self):
        code, _, _ = invoke(["spectrometer"])
        assert code == 2

    def test_unknown_flag(self):
        code, _, _ = invoke(["theory", "--omega", "pi", "--plot"])
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = invoke(["--help"])
        assert code == 0

    def test_tolerance_flags_only_on_gating_commands(self):
        for argv in (
            ["theory", "--omega", "pi/2", "--tolerance", "0"],
            ["trace-path", "--theta", "pi/4", "--tolerance", "1e-9"],
            ["check-transport", "--theta", "pi/8", "--tolerance", "1e-30"],
            ["check-transport", "--theta", "pi/8", "--tolerance-visibility", "1"],
            ["parse", str(bundled_program_path()), "--tolerance", "1e-9"],
            ["parse", str(bundled_program_path()), "--convention", "sense=1"],
        ):
            code, out, err = invoke(argv)
            assert code == 2, argv
            assert out == "" and "unrecognized arguments" in err

    def test_bad_convention_string(self):
        code, _, err = invoke(
            ["theory", "--omega", "pi/2", "--convention", "sense=2"]
        )
        assert code == 2


class TestNumericInputRejection:
    """Non-finite or negative numbers are usage errors naming their flag;
    a nan gate would otherwise pass every row (abs(x) > nan is false)."""

    def assert_usage_error(self, argv, flag):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err

    def test_nan_tolerance_on_sweep(self):
        self.assert_usage_error(["sweep", "--tolerance", "nan"], "--tolerance")

    def test_nan_tolerance_on_simulate(self):
        self.assert_usage_error(
            ["simulate", "--theta", "pi/4", "--n", "3", "--tolerance", "nan"],
            "--tolerance",
        )

    def test_negative_tolerance(self):
        self.assert_usage_error(["sweep", "--tolerance=-1e-9"], "--tolerance")

    def test_bad_visibility_tolerance(self):
        for value in ("nan", "inf", "-0.1"):
            self.assert_usage_error(
                ["sweep", f"--tolerance-visibility={value}"], "--tolerance-visibility"
            )

    def test_infinite_omega(self):
        self.assert_usage_error(["theory", "--omega", "inf"], "--omega")

    def test_nan_theta(self):
        self.assert_usage_error(["simulate", "--theta", "nan", "--n", "3"], "--theta")

    def test_theta_outside_lune_range(self):
        for argv in (
            ["sweep", "--theta", "2"],
            ["sweep", "--theta", "pi/8,-0.1"],
            ["simulate", "--theta", "2", "--n", "3"],
            ["trace-path", "--theta", "-pi/8"],
            ["check-transport", "--theta", "3pi/4"],
        ):
            self.assert_usage_error(argv, "--theta")

    def test_purity_index_outside_ladder(self):
        for value in ("12", "-1", "1.5"):
            self.assert_usage_error(["simulate", "--theta", "pi/4", "--n", value], "--n")

    def test_nonpositive_relaxation(self):
        for argv in (
            ["sweep", "--relaxation", "0,0.4"],
            ["sweep", "--relaxation", "nan,0.4"],
            ["simulate", "--theta", "pi/4", "--n", "3", "--relaxation=-1,1"],
        ):
            self.assert_usage_error(argv, "--relaxation")

    def test_nan_perturb(self):
        self.assert_usage_error(
            ["check-transport", "--theta", "pi/8", "--perturb", "nan"], "--perturb"
        )

    @staticmethod
    def invoke_without_warning(argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(argv)
        assert not caught
        return result

    def test_sample_count_above_a_million(self):
        # rejected in argparse, before any array is allocated
        for command in ("trace-path", "check-transport"):
            for value in ("1000001", "2000000000000000"):
                argv = [command, "--theta", "pi/4", "--samples", value]
                code, out, err = self.invoke_without_warning(argv)
                assert (code, out) == (2, "")
                assert f"argument --samples: need at most 1000000 samples, got {value}" in err

    def test_perturb_past_axis_normalization(self):
        for value in ("1e308", "-1e308"):
            argv = ["check-transport", "--theta", "pi/4", f"--perturb={value}"]
            code, out, err = self.invoke_without_warning(argv)
            assert (code, out) == (2, "")
            assert err == "error: perturb tilts a loop axis past normalization\n"

    def test_subnormal_t2_dephases_fully(self):
        # a gated, undefined row at zero visibility: exit 1, not a usage error
        code, out, err = self.invoke_without_warning(
            ["simulate", "--theta", "pi/4", "--n", "3", "--relaxation", "1e-320,0.3"]
        )
        assert (code, err) == (1, "")
        row = out.split("\n")[1].split(",")
        assert row[6] == "0.0" and row[-1] == "false"

    def test_zero_tolerance_stays_legal(self):
        code, _, err = invoke(
            ["simulate", "--theta", "pi/8", "--n", "3", "--tolerance", "0"]
        )
        assert code in (0, 1)
        assert err == ""
        code, _, err = invoke(["sweep", "--theta", "pi/8", "--tolerance", "0"])
        assert code in (0, 1)
        assert err == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--theta", ","], "--theta"),
        (["sweep", "--relaxation", "1,2,3"], "--relaxation"),
        (["theory", "--omega", "pi/2", "--convention", "active=sideways"], "--convention"),
        (["theory", "--omega", "pi/2", "--convention", "bogus=1"], "--convention"),
    ],
    ids=["empty-theta-list", "three-relaxation-times", "active-value", "convention-key"],
)
def test_malformed_list_or_convention_is_usage_error(argv, flag):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err


@pytest.mark.parametrize(
    "argv, flag, reason",
    [
        (["sweep", "--convention", "sense"], "--convention", "sense must be +1 or -1, got ''"),
        (["sweep", "--convention", "bogus=1"], "--convention", "unknown convention key 'bogus'"),
        (["sweep", "--relaxation", "0.3"], "--relaxation", "expected t2a,t2b"),
        (["sweep", "--relaxation", "0,0.4"], "--relaxation", "relaxation times must be positive"),
        (["sweep", "--theta", ","], "--theta", "expected a comma-separated list of angles"),
        (["sweep", "--theta", "pi/8,2"], "--theta", "inclination angle must lie in [0, pi/2]"),
        (["sweep", "--tolerance", "-1"], "--tolerance", "tolerance must be nonnegative, got '-1'"),
        (["theory", "--omega", "pi/0"], "--omega", "zero denominator in angle"),
        (["theory", "--omega", "inf"], "--omega", "expected a finite number, got 'inf'"),
        (["simulate", "--theta", "pi/8", "--n", "12"], "--n",
         "purity index must be an integer in [0, 11]"),
        (["trace-path", "--theta", "pi/8", "--samples", "2"], "--samples",
         "need at least 4 samples, got 2"),
        (["check-transport", "--theta", "pi/8", "--perturb", "nan"], "--perturb",
         "expected a finite number, got 'nan'"),
    ],
    ids=["sense-value", "convention-key", "one-relaxation-time", "zero-relaxation-time",
         "empty-theta-list", "theta-range", "negative-tolerance", "omega-zero-denominator",
         "infinite-omega", "purity-index", "too-few-samples", "nan-perturb"],
)
def test_usage_error_shows_the_converter_reason(argv, flag, reason):
    # argparse prints a converter's private name for a plain ValueError;
    # every converter's reason must reach the user instead
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument {flag}: {reason}\n")
    assert "invalid _" not in err


README = Path(__file__).resolve().parents[1] / "README.md"
_SHELL_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_commands():
    return [
        line.strip()
        for block in _SHELL_BLOCK.findall(README.read_text(encoding="utf-8"))
        for line in block.splitlines()
        if line.strip().startswith("lunephase ")
    ]


class TestReadmeExamples:
    """Every documented command line runs from the repository root and exits
    0, or 1 where the line is marked '# must fail'."""

    def test_examples_are_found(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("line", readme_commands())
    def test_example_runs(self, line, monkeypatch):
        monkeypatch.chdir(README.parent)
        code, _, err = invoke(shlex.split(line, comments=True)[1:])
        assert code == (1 if "# must fail" in line else 0), err
