import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunephase.errors import SequenceSyntaxError
from lunephase.pulse import (
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SequenceProgram,
    SpinSystemParams,
    make_program,
)
from lunephase.pulseprog import parse_sequence, render_sequence

J = 214.5


def events_of(text):
    return parse_sequence(text).events


class TestParseStatements:
    def test_pulse_degrees(self):
        (ev,) = events_of("pulse b x 60deg")
        assert ev == Rotation("b", "x", Fraction(1, 3))
        assert ev.flip_radians == pytest.approx(math.pi / 3)

    def test_pulse_degrees_are_half_turns_not_radians(self):
        (ev,) = events_of("pulse b x 180deg")
        assert ev == Rotation("b", "x", Fraction(1))
        assert ev != Rotation("b", "x", 1.0)

    def test_negative_zero_keeps_its_sign(self):
        prog = parse_sequence("frame a offset -0.0Hz\npulse b x -0rad\ndelay -0.0ms\n")
        assert prog.frames == (FrameOffset("a", -0.0, "Hz"),)
        assert prog.frames != (FrameOffset("a", 0.0, "Hz"),)
        assert prog.events == (Rotation("b", "x", -0.0), Delay(seconds=-0.0))
        assert prog.events[0] != Rotation("b", "x", 0.0)
        assert prog.events[1] != Delay(seconds=0.0)

    def test_pulse_decimal_degrees_exact(self):
        (ev,) = events_of("pulse a -y 22.5deg")
        assert ev.flip == Fraction(1, 8)

    def test_pulse_rational_degrees(self):
        (ev,) = events_of("pulse b -x 45/2deg")
        assert ev.flip == Fraction(1, 8)

    def test_pulse_radians(self):
        (ev,) = events_of("pulse b y 1.5rad")
        assert ev.flip == 1.5

    def test_pulse_phase_axis(self):
        (ev,) = events_of("pulse b phase:0.7853981633974483 90deg")
        assert ev.axis == 0.7853981633974483
        assert ev.flip == Fraction(1, 2)

    def test_delay_units(self):
        assert events_of("delay 1.5ms")[0] == Delay(seconds=0.0015)
        assert events_of("delay 250us")[0] == Delay(seconds=0.00025)
        assert events_of("delay 0.01s")[0] == Delay(seconds=0.01)

    def test_delay_j_multiples(self):
        assert events_of("delay 1/2/J")[0] == Delay(per_j=Fraction(1, 2))
        assert events_of("delay 1/J")[0] == Delay(per_j=Fraction(1))
        assert events_of("delay 3/4/J")[0] == Delay(per_j=Fraction(3, 4))

    def test_grad(self):
        assert events_of("grad z")[0] == Gradient()

    def test_frame_directive_sets_offset(self):
        prog = parse_sequence("frame b offset -0.5piJ\ndelay 1/2/J")
        assert prog.frames == (FrameOffset("b", Fraction(-1, 2), "piJ"),)
        assert prog.params.omega_b == math.pi * J
        assert prog.params.omega_a == 0.0

    def test_frame_hz_offset(self):
        prog = parse_sequence("frame a offset 100Hz")
        assert prog.params.omega_a == pytest.approx(-2 * math.pi * 100.0)

    def test_comments_and_blank_lines(self):
        text = "# full program\n\npulse b x 60deg  # excitation\n   \ngrad z\n"
        evs = events_of(text)
        assert len(evs) == 2
        assert isinstance(evs[0], Rotation) and isinstance(evs[1], Gradient)

    def test_preparation_program_shape(self):
        text = (
            "pulse b x 60deg\n"
            "grad z\n"
            "pulse b x 45deg\n"
            "delay 1/2/J\n"
            "pulse b -y 45deg\n"
            "grad z\n"
        )
        prog = parse_sequence(text)
        assert len(prog.events) == 6
        assert prog.total_duration == pytest.approx(1 / (2 * J), abs=1e-18)
        assert prog.total_duration == pytest.approx(2.331e-3, abs=1e-6)


class TestDiagnostics:
    def assert_fails_at(self, text, line, column, fragment):
        with pytest.raises(SequenceSyntaxError) as err:
            parse_sequence(text)
        assert err.value.line == line
        assert err.value.column == column
        assert fragment in err.value.message

    def test_second_frame_directive_for_one_spin(self):
        text = "frame b offset -1/2piJ\nframe a offset 100Hz\nframe b offset -1/2piJ\n"
        self.assert_fails_at(text, 3, 1, "spin b has more than one frame directive")

    def test_frame_offset_beyond_bound(self):
        text = "delay 1/2/J\n  frame a offset 30piJ\n"
        self.assert_fails_at(text, 2, 3, "exceeds the 10*2piJ sanity bound")

    def test_unknown_statement(self):
        self.assert_fails_at("pulse b x 60deg\nwobble z", 2, 1, "unknown statement")

    def test_bad_spin_label(self):
        self.assert_fails_at("pulse c x 60deg", 1, 7, "spin label")

    def test_bad_axis(self):
        self.assert_fails_at("pulse b q 60deg", 1, 9, "axis")

    def test_missing_angle_unit(self):
        self.assert_fails_at("pulse b x 60", 1, 11, "deg or rad")

    def test_negative_delay(self):
        self.assert_fails_at("delay -1ms", 1, 7, "nonnegative")

    def test_negative_j_delay(self):
        self.assert_fails_at("delay -1/2/J", 1, 7, "nonnegative")

    @pytest.mark.parametrize(
        "text, column, fragment",
        [
            ("pulse b phase:abc 90deg", 9, "invalid phase angle in 'phase:abc'"),
            ("delay 5", 7, "duration '5' is missing a unit"),
            ("frame b offset 5", 16, "offset '5' is missing a Hz or piJ unit"),
            ("grad x", 6, "expected gradient axis 'z', found 'x'"),
            ("frame b shift 1Hz", 9, "expected keyword 'offset', found 'shift'"),
        ],
        ids=["phase-literal", "delay-unit", "offset-unit", "grad-axis", "frame-keyword"],
    )
    def test_malformed_statement(self, text, column, fragment):
        self.assert_fails_at(text, 1, column, fragment)

    def test_missing_token_reports_end_of_line(self):
        self.assert_fails_at("pulse b x", 1, 10, "end of line")

    def test_trailing_token(self):
        self.assert_fails_at("grad z now", 1, 8, "trailing")

    def test_flip_angle_out_of_range(self):
        self.assert_fails_at("pulse b x 540deg", 1, 1, "flip angle")

    def test_column_accounts_for_indentation(self):
        self.assert_fails_at("   pulse q", 1, 10, "spin label")

    @pytest.mark.parametrize(
        "text, line, column, fragment",
        [
            ("pulse\tq", 1, 7, "spin label"),
            ("pulse\xa0b\xa0x\xa060", 1, 11, "deg or rad"),
            ("\u3000pulse b q 60deg", 1, 10, "axis"),
            ("pulse b\t\tx\xa0\u3000q", 1, 13, "deg or rad"),
            ("\tgrad\u3000z\xa0now", 1, 9, "trailing"),
            # \x1c is whitespace to the tokenizer but a line break to splitlines
            ("pulse\x1cb x 60deg", 1, 6, "end of line"),
            ("pulse b x 60deg\x1cwobble z", 2, 1, "unknown statement"),
        ],
        ids=["tab", "nbsp", "ideographic-space", "mixed", "grad-mixed", "x1c-eol", "x1c-line"],
    )
    def test_columns_across_unicode_whitespace(self, text, line, column, fragment):
        self.assert_fails_at(text, line, column, fragment)

    @pytest.mark.parametrize("axis", ["phase:nan", "phase:inf", "phase:-inf", "phase:1e400"])
    def test_phase_angle_must_be_finite(self, axis):
        self.assert_fails_at(f"pulse b {axis} 90deg", 1, 1, "Rotation.axis must be finite")

    @pytest.mark.parametrize(
        "text, column, fragment",
        [
            ("delay 1e400s", 7, "invalid duration value"),
            ("delay 1e400/J", 7, "invalid rational multiple"),
            ("pulse b x 1e400rad", 11, "invalid angle value"),
            ("pulse b x 1e400deg", 11, "invalid angle value"),
            ("frame b offset 1e400Hz", 16, "invalid offset value"),
            ("frame b offset 1e400piJ", 16, "invalid offset value"),
        ],
    )
    def test_number_too_large_for_a_float(self, text, column, fragment):
        self.assert_fails_at(text, 1, column, fragment)

    def test_largest_float_is_accepted(self):
        (ev,) = events_of("delay 1.7e308/J")
        assert ev == Delay(per_j=Fraction(17 * 10**307))


class TestRoundTrip:
    def test_mixed_program(self):
        prog = make_program(
            [
                Rotation("b", "x", Fraction(1, 3)),
                Gradient(),
                Rotation("a", "-y", Fraction(1, 2)),
                Delay(per_j=Fraction(1, 2)),
                Rotation("b", 0.25, 1.0471975511965976),
                Delay(seconds=0.0025),
            ],
            frames=(FrameOffset("b", Fraction(-1, 2), "piJ"),),
        )
        again = parse_sequence(render_sequence(prog))
        assert again.events == prog.events
        assert again.frames == prog.frames
        assert again.params == prog.params

    @staticmethod
    def event_strategy():
        axis = st.one_of(
            st.sampled_from(["x", "-x", "y", "-y"]),
            st.floats(-math.pi, math.pi, allow_nan=False),
        )
        frac_flip = st.fractions(
            min_value=Fraction(-359, 180), max_value=Fraction(2), max_denominator=360
        )
        float_flip = st.floats(-6.28, 2 * math.pi, allow_nan=False, exclude_min=True)
        rotation = st.builds(
            Rotation, st.sampled_from(["a", "b"]), axis, st.one_of(frac_flip, float_flip)
        )
        delay = st.one_of(
            st.builds(lambda s: Delay(seconds=s), st.floats(0, 0.1, allow_nan=False)),
            st.builds(
                lambda f: Delay(per_j=f),
                st.fractions(min_value=0, max_value=4, max_denominator=64),
            ),
        )
        return st.one_of(rotation, delay, st.just(Gradient()))

    @given(st.lists(event_strategy(), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random_programs(self, events):
        prog = make_program(events)
        assert parse_sequence(render_sequence(prog)).events == prog.events

    @staticmethod
    def frame_strategy():
        # within the 10*2piJ bound: 10 piJ exactly, or 2000 Hz < 10*J Hz
        value = st.one_of(
            st.tuples(
                st.fractions(min_value=-10, max_value=10, max_denominator=64), st.just("piJ")
            ),
            st.tuples(st.floats(-2000.0, 2000.0, allow_nan=False), st.just("Hz")),
        )
        return st.builds(lambda spin, vu: FrameOffset(spin, *vu), st.sampled_from("ab"), value)

    @given(
        st.lists(event_strategy(), max_size=8),
        st.lists(frame_strategy(), max_size=2, unique_by=lambda fr: fr.spin),
        st.builds(
            SpinSystemParams,
            st.floats(-1e4, 1e4, allow_nan=False),
            st.floats(-1e4, 1e4, allow_nan=False),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_program_applies_its_own_frames(self, events, frames, params):
        frames = tuple(frames)
        prog = SequenceProgram(events, params, frames)
        assert prog == make_program(events, params, frames)
        for fr in frames:
            assert getattr(prog.params, f"omega_{fr.spin}") == -fr.angular()
        plain = SequenceProgram(events, SpinSystemParams(), frames)
        assert parse_sequence(render_sequence(plain)) == plain
