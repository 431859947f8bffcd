"""Textual pulse-program format: parsing and rendering.

Line-oriented UTF-8 with '#' comments. Statements:

    pulse <a|b> <x|-x|y|-y|phase:<number>> <number><deg|rad>
    delay <number><s|ms|us|/J>
    grad z
    frame <a|b> offset <number><Hz|piJ>

Every <number> is one numeral grammar: a rational literal such as 3, -2.5,
1e-3 or 45/2 whose value fits a float. A phase: axis is in radians, and
delay 1/2/J is half of 1/J. A numeral that is no such literal (nan, inf,
1e400, 1/0) is refused at its token's column. Angles in deg, durations in /J
and frame offsets in piJ are kept as exact rationals, the other numbers as
floats rounded from the exact value (with a literal -0 as -0.0), so that
parse(render(prog)) reproduces the event list bit for bit.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError, SequenceSyntaxError
from .pulse import (
    AXIS_LABELS,
    Delay,
    FrameOffset,
    Gradient,
    Rotation,
    SequenceProgram,
    _FRAME_UNITS,
    make_program,
)
from .qcore import _SPINS

# longest suffix first: "s" also ends the other two
_TIME_SCALES = {"us": Fraction(1, 1000000), "ms": Fraction(1, 1000), "s": Fraction(1)}
_AXES = f"{', '.join(AXIS_LABELS)}, or phase:<radians>"


def _tokenize(line: str) -> list[tuple[int, str]]:
    """(column, token) pairs, columns 1-based, comment stripped."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line.split("#", 1)[0])]


def _float(value: Fraction, text: str) -> float:
    """value as a float with the sign its literal text shows: "-0" gives
    -0.0, which a propagator tells from 0.0 (see pulse._real_field)."""
    return math.copysign(float(value), -1.0 if text.startswith("-") else 1.0)


class _LineParser:
    def __init__(self, lineno: int, tokens: list[tuple[int, str]], line_len: int):
        self.lineno = lineno
        self.tokens = tokens
        self.pos = 0
        self.line_len = line_len

    def fail(self, column: int, message: str):
        raise SequenceSyntaxError(self.lineno, column, message)

    def take(self, expected: str) -> tuple[int, str]:
        if self.pos >= len(self.tokens):
            self.fail(self.line_len + 1, f"expected {expected}, found end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def done(self) -> None:
        if self.pos < len(self.tokens):
            col, tok = self.tokens[self.pos]
            self.fail(col, f"unexpected trailing token {tok!r}")

    def choice(self, noun: str, options: tuple[str, ...]) -> str:
        """The next token, which must be one of options. A refusal names noun
        and quotes each option; its text is built only then."""
        if self.pos < len(self.tokens) and self.tokens[self.pos][1] in options:
            return self.take(noun)[1]
        expected = f"{noun} {' or '.join(map(repr, options))}"
        col, tok = self.take(expected)
        self.fail(col, f"expected {expected}, found {tok!r}")

    def axis(self) -> str | float:
        col, tok = self.take(f"axis ({_AXES})")
        if tok in AXIS_LABELS:
            return tok
        if not tok.startswith("phase:"):
            self.fail(col, f"expected axis {_AXES}, found {tok!r}")
        text = tok[len("phase:"):]
        return _float(self.number(col, "phase angle", text), text)

    def call_at(self, column: int, make, *args, **kwargs):
        """make(*args, **kwargs), its DomainError reported at column."""
        try:
            return make(*args, **kwargs)
        except DomainError as exc:
            self.fail(column, str(exc))

    def number(self, column: int, noun: str, text: str) -> Fraction:
        """The one reading of a numeral: text as an exact rational, when it
        is a rational literal ("3", "-2.5", "45/2", "1e-3") that fits a
        float, or a failure at column."""
        try:
            value = Fraction(text)
            float(value)
            return value
        except (ValueError, ZeroDivisionError, OverflowError):
            self.fail(column, f"invalid {noun} value {text!r}")

    def quantity(self, noun: str, units: tuple[str, ...]) -> tuple[int, str, str, Fraction]:
        """The next token as a number with a unit suffix: (column, unit,
        number text, value). unit is the first of units that ends the token;
        a token that none ends fails, as does a number text that is no
        numeral (see number)."""
        phrase = f"{', '.join(units[:-1])} or {units[-1]}"
        col, tok = self.take(f"{noun} with unit {phrase}")
        unit = next((u for u in units if tok.endswith(u)), None)
        if unit is None:
            self.fail(col, f"{noun} {tok!r} is missing a {phrase} unit")
        body = tok[: -len(unit)]
        return col, unit, body, self.number(col, noun, body)

    def angle(self) -> Fraction | float:
        _, unit, body, value = self.quantity("angle", ("deg", "rad"))
        # degrees become exact multiples of pi; radians stay floating point
        return value / 180 if unit == "deg" else _float(value, body)

    def delay(self) -> Delay:
        col, unit, body, value = self.quantity("duration", (*_TIME_SCALES, "/J"))
        if unit == "/J":
            return self.call_at(col, Delay, per_j=value)
        return self.call_at(col, Delay, seconds=_float(value * _TIME_SCALES[unit], body))

    def frame_offset(self, spin: str) -> FrameOffset:
        _, unit, body, value = self.quantity("offset", _FRAME_UNITS)
        # FrameOffset stores the value in its unit's form; only a zero
        # needs the float that carries its literal's sign
        return FrameOffset(spin, value or _float(value, body), unit)


def parse_sequence(text: str) -> SequenceProgram:
    """Parse pulse-program source into a SequenceProgram on the default
    spin-system constants.

    Frame directives apply to the whole program, at most one per spin.
    """
    events = []
    frames = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line)
        if not tokens:
            continue
        lp = _LineParser(lineno, tokens, len(line))
        col, head = lp.take("statement")
        # the two statements that name a spin name it first
        spin = lp.choice("spin label", _SPINS) if head in ("pulse", "frame") else None
        if head == "pulse":
            axis, flip = lp.axis(), lp.angle()
            lp.done()
            events.append(lp.call_at(col, Rotation, spin, axis, flip))
        elif head == "delay":
            events.append(lp.delay())
            lp.done()
        elif head == "grad":
            lp.choice("gradient axis", ("z",))
            lp.done()
            events.append(Gradient())
        elif head == "frame":
            lp.choice("keyword", ("offset",))
            frames.append(lp.frame_offset(spin))
            lp.done()
            lp.call_at(col, make_program, (), frames=tuple(frames))
        else:
            lp.fail(col, f"unknown statement {head!r}")
    return make_program(events, frames=tuple(frames))


def _render_angle(flip: Fraction | float) -> str:
    if isinstance(flip, Fraction):
        return f"{flip * 180!s}deg"
    return f"{flip!r}rad"


def render_sequence(prog: SequenceProgram) -> str:
    """Render a program to source text, one line per frame and per event,
    each ending in a newline, so that an empty program renders as "";
    parse_sequence inverts this exactly at the event-list level."""
    lines = []
    for fr in prog.frames:
        value = str(fr.value) if isinstance(fr.value, Fraction) else repr(fr.value)
        lines.append(f"frame {fr.spin} offset {value}{fr.unit}")
    for ev in prog.events:
        if isinstance(ev, Rotation):
            axis = ev.axis if isinstance(ev.axis, str) else f"phase:{ev.axis!r}"
            lines.append(f"pulse {ev.spin} {axis} {_render_angle(ev.flip)}")
        elif isinstance(ev, Delay):
            if ev.per_j is not None:
                lines.append(f"delay {ev.per_j!s}/J")
            else:
                lines.append(f"delay {ev.seconds!r}s")
        else:
            lines.append("grad z")
    return "".join(line + "\n" for line in lines)
