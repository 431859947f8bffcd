"""Textual pulse-program format: parsing and rendering.

Line-oriented UTF-8 with '#' comments. Statements:

    pulse <a|b> <x|-x|y|-y|phase:<radians>> <angle><deg|rad>
    delay <number><s|ms|us>
    delay <k>/J            # k a rational literal, e.g. 1/2
    grad z
    frame <a|b> offset <value><Hz|piJ>

Angles in deg and frame offsets in piJ are kept as exact rationals so that
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
    make_program,
)

# longest suffix first: "s" also ends the other two
_TIME_SCALES = {"us": Fraction(1, 1000000), "ms": Fraction(1, 1000), "s": Fraction(1)}


def _tokenize(line: str) -> list[tuple[int, str]]:
    """(column, token) pairs, columns 1-based, comment stripped."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line.split("#", 1)[0])]


def _float(value: Fraction, text: str) -> float:
    """value as a float with the sign its literal text shows: "-0" gives
    -0.0, which a propagator tells from 0.0 (see pulse._store_reals)."""
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

    def spin(self) -> str:
        col, tok = self.take("spin label 'a' or 'b'")
        if tok not in ("a", "b"):
            self.fail(col, f"expected spin label 'a' or 'b', found {tok!r}")
        return tok

    def axis(self) -> str | float:
        col, tok = self.take("axis (x, -x, y, -y, or phase:<radians>)")
        if tok in AXIS_LABELS:
            return tok
        if tok.startswith("phase:"):
            try:
                return float(tok[len("phase:"):])
            except ValueError:
                self.fail(col, f"invalid phase angle in {tok!r}")
        self.fail(col, f"expected axis x, -x, y, -y, or phase:<radians>, found {tok!r}")

    def call_at(self, column: int, make, *args, **kwargs):
        """make(*args, **kwargs), its DomainError reported at column."""
        try:
            return make(*args, **kwargs)
        except DomainError as exc:
            self.fail(column, str(exc))

    def quantity(
        self, expected: str, units: tuple[str, ...]
    ) -> tuple[int, str, str | None, str, Fraction | None]:
        """The next token as a number with a unit suffix: (column, token,
        unit, number text, value). unit is the first of units that ends the
        token, or None. value is the number as an exact rational, or None
        when the text is not a rational literal ("3", "2.5", "45/2") or is
        too large for a float."""
        col, tok = self.take(expected)
        unit = next((u for u in units if tok.endswith(u)), None)
        body = tok[: -len(unit)] if unit else tok
        try:
            value = Fraction(body)
            float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            value = None
        return col, tok, unit, body, value

    def angle(self) -> Fraction | float:
        col, tok, unit, body, value = self.quantity("angle with unit deg or rad", ("deg", "rad"))
        if unit is None:
            self.fail(col, f"angle {tok!r} is missing a deg or rad unit")
        if value is None:
            self.fail(col, f"invalid angle value {body!r}")
        # degrees become exact multiples of pi; radians stay floating point
        return value / 180 if unit == "deg" else _float(value, body)

    def delay(self) -> Delay:
        col, tok, unit, body, value = self.quantity(
            "duration with unit s, ms, us, or k/J", ("/J", *_TIME_SCALES)
        )
        if unit is None:
            self.fail(col, f"duration {tok!r} is missing a unit (s, ms, us, or /J)")
        if value is None and unit == "/J":
            self.fail(col, f"invalid rational multiple in {tok!r}")
        if value is None:
            self.fail(col, f"invalid duration value in {tok!r}")
        if unit == "/J":
            return self.call_at(col, Delay, per_j=value)
        return self.call_at(col, Delay, seconds=_float(value * _TIME_SCALES[unit], body))

    def frame_offset(self, spin: str) -> FrameOffset:
        col, tok, unit, body, value = self.quantity("offset with unit Hz or piJ", ("piJ", "Hz"))
        if unit is None:
            self.fail(col, f"offset {tok!r} is missing a Hz or piJ unit")
        if value is None:
            self.fail(col, f"invalid offset value {body!r}")
        return FrameOffset(spin, value if unit == "piJ" else _float(value, body), unit)


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
        if head == "pulse":
            spin = lp.spin()
            axis = lp.axis()
            flip = lp.angle()
            lp.done()
            events.append(lp.call_at(col, Rotation, spin, axis, flip))
        elif head == "delay":
            events.append(lp.delay())
            lp.done()
        elif head == "grad":
            acol, axis = lp.take("gradient axis 'z'")
            lp.done()
            if axis != "z":
                lp.fail(acol, f"expected gradient axis 'z', found {axis!r}")
            events.append(Gradient())
        elif head == "frame":
            spin = lp.spin()
            kcol, keyword = lp.take("keyword 'offset'")
            if keyword != "offset":
                lp.fail(kcol, f"expected keyword 'offset', found {keyword!r}")
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
    """Render a program to source text; parse_sequence inverts this exactly
    at the event-list level."""
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
        elif isinstance(ev, Gradient):
            lines.append("grad z")
        else:
            raise DomainError(f"cannot render event type {type(ev).__name__}")
    return "\n".join(lines) + "\n"
