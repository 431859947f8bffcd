"""Closed-form interference phase of transported mixtures.

A mixed qubit state carried around a closed Bloch-sphere loop produces an
interference pattern whose phase shift and contrast are the argument and
modulus of the eigenvalue-weighted average of the eigenvector phase factors.
This module evaluates that average, its closed qubit reduction, and the
standard purity-ladder prediction table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .policy import POLICY
from .qcore import _check_sign, principal_angle

# Purity ladder granularity: r = cos(n*pi/PURITY_STEPS) for n = 0..PURITY_STEPS-1.
PURITY_STEPS = 12


def check_purity_index(n: int) -> int:
    """The purity-ladder index n, checked to be an integer in [0, PURITY_STEPS)."""
    if not isinstance(n, int) or not 0 <= n < PURITY_STEPS:
        raise DomainError(
            f"purity index must be an integer in [0, {PURITY_STEPS - 1}]"
        )
    return n


def ladder_purity(n: int) -> float:
    """Signed spin-b Bloch length r = cos(n*pi/PURITY_STEPS) of ladder step n."""
    return math.cos(n * math.pi / PURITY_STEPS)


@dataclass(frozen=True)
class PhaseResult:
    """Interference phase in (-pi, pi], fringe visibility in [0, 1], and a
    flag marking whether the phase is defined (visibility above the floor
    where the argument of a near-zero complex number loses meaning)."""

    gamma: float
    visibility: float
    defined: bool

    def __post_init__(self) -> None:
        if not -math.pi < self.gamma <= math.pi:
            raise DomainError("gamma must lie in (-pi, pi]")
        if not 0.0 <= self.visibility <= 1.0 + 1e-12:
            raise DomainError("visibility must lie in [0, 1]")


def _from_complex(z: complex, visibility: float) -> PhaseResult:
    """The result v e^{i gamma} = z; callers pass v = |z| computed their own
    way, which fixes its last bit. Below the visibility floor the phase is
    undefined."""
    if visibility < POLICY.visibility_floor:
        return PhaseResult(0.0, visibility, False)
    return PhaseResult(principal_angle(math.atan2(z.imag, z.real)), visibility, True)


def sjoqvist_average(probabilities, phases) -> PhaseResult:
    """Weighted average of unit phase factors: v e^{i gamma} = sum p_n e^{i g_n}.

    The mixture's interference pattern shifts by the argument of the sum and
    its contrast drops to the modulus.
    """
    p = np.asarray(probabilities, dtype=float)
    g = np.asarray(phases, dtype=float)
    if p.ndim != 1 or p.shape != g.shape:
        raise DomainError("weights and phases must be 1-d and of equal length")
    if p.size == 0:
        raise DomainError("need at least one weighted branch")
    if not np.all(p >= 0):
        raise DomainError("weights must be nonnegative")
    if not abs(float(np.sum(p)) - 1.0) <= 1e-9:
        raise DomainError("weights must sum to 1")
    z = complex(np.sum(p * np.exp(1j * g)))
    return _from_complex(z, math.hypot(z.real, z.imag))


def qubit_mixed_phase(r: float, omega: float, sign: int = 1) -> PhaseResult:
    """Closed qubit form v e^{i gamma} = cos(omega/2) + i sign r sin(omega/2).

    r is the signed Bloch-vector length of the mixture along the eigenvector
    whose loop bounds the signed solid angle omega; sign is the global
    orientation convention relating loop sense to phase sign. Equivalent to
    sjoqvist_average with weights (1+-r)/2 on phases +-sign*omega/2: a
    negative r swaps the weights, which flips the phase sign and leaves the
    visibility unchanged. For |omega| < pi the phase reduces to
    sign*arctan(r tan(omega/2)).
    """
    if not -1.0 <= r <= 1.0:
        raise DomainError("purity must lie in [-1, 1]")
    _check_sign(sign, "orientation sign")
    half = 0.5 * omega
    z = complex(math.cos(half), sign * r * math.sin(half))
    return _from_complex(z, math.hypot(z.real, z.imag))


@dataclass(frozen=True)
class TheoryRow:
    """One prediction-table row; flipped marks purities entering as negative
    cosines, reported with r = |cos| and the phase sign inverted."""

    n: int
    r: float
    gamma: float
    visibility: float
    defined: bool
    flipped: bool


def theory_curve(omega: float, sign: int = 1) -> list[TheoryRow]:
    """Prediction table over the purity ladder, n = 0..PURITY_STEPS-1."""
    rows = []
    for n in range(PURITY_STEPS):
        c = ladder_purity(n)
        res = qubit_mixed_phase(c, omega, sign)
        rows.append(
            TheoryRow(n, abs(c), res.gamma, res.visibility, res.defined, c < 0)
        )
    return rows
