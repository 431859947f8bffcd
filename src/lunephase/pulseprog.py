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
    _add_frame,
    make_program,
)

_TIME_SCALES = {"s": Fraction(1), "ms": Fraction(1, 1000), "us": Fraction(1, 1000000)}


def _tokenize(line: str) -> list[tuple[int, str]]:
    """(column, token) pairs, columns 1-based, comment stripped."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line.split("#", 1)[0])]


def _rational(text: str) -> Fraction:
    # Fraction accepts "3", "2.5", "45/2"; anything else is a caller error,
    # and so is a value too large for a float
    value = Fraction(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None
    return value


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

    def angle(self) -> Fraction | float:
        col, tok = self.take("angle with unit deg or rad")
        if tok.endswith("deg"):
            body, exact = tok[:-3], True
        elif tok.endswith("rad"):
            body, exact = tok[:-3], False
        else:
            self.fail(col, f"angle {tok!r} is missing a deg or rad unit")
        try:
            value = _rational(body)
        except (ValueError, ZeroDivisionError):
            self.fail(col, f"invalid angle value {body!r}")
        # degrees become exact multiples of pi; radians stay floating point
        return value / 180 if exact else float(value)

    def delay(self) -> Delay:
        col, tok = self.take("duration with unit s, ms, us, or k/J")
        if tok.endswith("/J"):
            try:
                k = _rational(tok[:-2])
            except (ValueError, ZeroDivisionError):
                self.fail(col, f"invalid rational multiple in {tok!r}")
            if k < 0:
                self.fail(col, "delay duration must be nonnegative")
            return Delay(per_j=k)
        for unit in ("us", "ms", "s"):
            if tok.endswith(unit):
                try:
                    value = _rational(tok[: -len(unit)])
                except (ValueError, ZeroDivisionError):
                    self.fail(col, f"invalid duration value in {tok!r}")
                if value < 0:
                    self.fail(col, "delay duration must be nonnegative")
                return Delay(seconds=float(value * _TIME_SCALES[unit]))
        self.fail(col, f"duration {tok!r} is missing a unit (s, ms, us, or /J)")

    def frame_offset(self, spin: str) -> FrameOffset:
        col, tok = self.take("offset with unit Hz or piJ")
        if tok.endswith("piJ"):
            body, unit = tok[:-3], "piJ"
        elif tok.endswith("Hz"):
            body, unit = tok[:-2], "Hz"
        else:
            self.fail(col, f"offset {tok!r} is missing a Hz or piJ unit")
        try:
            value = _rational(body)
        except (ValueError, ZeroDivisionError):
            self.fail(col, f"invalid offset value {body!r}")
        return FrameOffset(spin, value if unit == "piJ" else float(value), unit)


def parse_sequence(text: str) -> SequenceProgram:
    """Parse pulse-program source into a SequenceProgram on the default
    spin-system constants.

    Frame directives apply to the whole program, at most one per spin.
    """
    events = []
    frames = []
    offsets = {}
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
            try:
                events.append(Rotation(spin, axis, flip))
            except DomainError as exc:
                lp.fail(col, str(exc))
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
            frame = lp.frame_offset(spin)
            lp.done()
            try:
                _add_frame(offsets, frame)
            except DomainError as exc:
                lp.fail(col, str(exc))
            frames.append(frame)
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
