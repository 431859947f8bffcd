"""Sign conventions that relate pulse-program labels to physical rotations.

Two independent binary choices are not fixed by the interferometry scheme
itself and must be calibrated against the hardware:

* pulse_sense: whether a pulse labeled (axis, flip) realizes
  exp(-i flip axis.sigma/2) (+1) or exp(+i flip axis.sigma/2) (-1).
* active_branch_up: which spin-a Zeeman state rides the nontrivial
  spin-b propagator during the coupled delays (equivalently, the sign
  convention of I_z in the free-evolution Hamiltonian).

Their product fixes the traversal orientation of the controlled path on the
Bloch sphere and therefore the sign of every measured phase. The defaults
below are the calibration under which both state-preparation sequences
produce their documented targets; they give orientation -1, so the
pure-state cycle measures gamma = -Omega/2.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConventionError


@dataclass(frozen=True)
class Conventions:
    pulse_sense: int = -1
    active_branch_up: bool = True

    def __post_init__(self) -> None:
        # True == 1 and -1.0 == -1 pass a comparison, and orientation and
        # the records would then carry their type; any truthy value means up
        if type(self.pulse_sense) is not int or self.pulse_sense not in (1, -1):
            raise ConventionError("pulse_sense must be +1 or -1 as an int")
        if type(self.active_branch_up) is not bool:
            raise ConventionError("active_branch_up must be a bool")

    @property
    def iz_sign(self) -> int:
        """I_z sign convention: +1 puts the active branch on spin-a up."""
        return 1 if self.active_branch_up else -1

    @property
    def orientation(self) -> int:
        """Traversal orientation s = pulse_sense * iz_sign of the controlled
        path; the measured phase of the zero-area calibration run is
        s * Omega/2."""
        return self.pulse_sense * self.iz_sign


DEFAULT_CONVENTIONS = Conventions()
