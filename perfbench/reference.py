"""Independent model of the package's two-spin pulse-level simulator, used
to check the results of the ``chain`` and ``trajectory`` workloads.

Programs are plain tuples, the same ones the workloads turn into package
objects:

* ``("pulse", spin, axis, flip)``: axis a label ('x', '-x', 'y', '-y') or a
  transverse phase in radians; flip a Fraction (a multiple of pi) or radians.
* ``("delay", per_j)``: a Fraction, the duration in units of 1/J.
* ``("grad",)``: an ideal z crusher.

The model follows the package's documented physics (rotating frame,
R_n(alpha) = exp(-i alpha n.sigma/2), H = delta_a I_z^a + delta_b I_z^b +
2 pi J I_z^a I_z^b with I_z = iz_sign sigma_z / 2, basis |uu>, |ud>, |du>,
|dd>) but by another route: every propagator is the exponential of its
operator, built from Kronecker products and taken through an eigen-
decomposition, and reduced states come from an index contraction.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
AXES = {"x": (1.0, 0.0), "-x": (-1.0, 0.0), "y": (0.0, 1.0), "-y": (0.0, -1.0)}
J = 214.5  # the package's default scalar coupling, Hz

# The programs of one grid point, as the package builds them.
PREPARE_PURE = (  # the bundled prepare_pure.seq
    ("pulse", "b", "x", Fraction(1, 3)),
    ("grad",),
    ("pulse", "b", "x", Fraction(1, 4)),
    ("delay", Fraction(1, 2)),
    ("pulse", "b", "-y", Fraction(1, 4)),
    ("grad",),
)
# Frame directive of the conditional cycle: spin b's frame moves by -piJ.
CYCLE_FRAME = ("b", Fraction(-1, 2), "piJ")


def mixing_events(n: int) -> tuple:
    """The purity stage of point n of the 12-step ladder."""
    return (
        ("pulse", "b", "x", Fraction(n, 12)),
        ("grad",),
        ("pulse", "a", "-y", Fraction(1, 2)),
        ("pulse", "b", "-y", Fraction(1, 2)),
    )


def cycle_events(theta: float) -> tuple:
    """The literal conditional cycle at inclination theta."""
    return (
        ("pulse", "b", "-x", theta),
        ("delay", Fraction(1, 2)),
        ("pulse", "b", "-x", math.pi - 2.0 * theta),
        ("delay", Fraction(1, 2)),
    )


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def flip_radians(flip) -> float:
    return float(flip) * math.pi if isinstance(flip, Fraction) else float(flip)


def pulse(spin: str, axis, flip, sense: int) -> np.ndarray:
    cx, cy = AXES[axis] if isinstance(axis, str) else (math.cos(axis), math.sin(axis))
    u = expm_hermitian(cx * SX + cy * SY, -0.5j * sense * flip_radians(flip))
    return np.kron(u, I2) if spin == "a" else np.kron(I2, u)


def hamiltonian(delta_a: float, delta_b: float, j: float, iz_sign: int) -> np.ndarray:
    iz = 0.5 * iz_sign * SZ
    return (delta_a * np.kron(iz, I2) + delta_b * np.kron(I2, iz)
            + 2.0 * math.pi * j * np.kron(iz, iz))


def crush(rho: np.ndarray) -> np.ndarray:
    return np.diag(np.diag(rho))


def evolve(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def run(program, rho: np.ndarray, frame, j: float, sense: int, iz_sign: int) -> np.ndarray:
    """Final state of program on rho; frame is (delta_a, delta_b) in rad/s."""
    h = hamiltonian(frame[0], frame[1], j, iz_sign)
    for event in program:
        if event[0] == "pulse":
            rho = evolve(rho, pulse(*event[1:], sense))
        elif event[0] == "delay":
            rho = evolve(rho, expm_hermitian(h, -1j * float(event[1]) / j))
        else:
            rho = crush(rho)
    return rho


def trajectory(program, rho: np.ndarray, frame, j: float, sense: int, iz_sign: int,
               samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) of the recorded path: the start, one entry per pulse
    or crusher, and ``samples`` evenly spaced entries across each delay, each
    the delay-start state evolved for its own elapsed time."""
    h = hamiltonian(frame[0], frame[1], j, iz_sign)
    w, v = np.linalg.eigh(h)
    times, states, t = [0.0], [rho], 0.0
    for event in program:
        if event[0] == "delay":
            dt = float(event[1]) / j
            elapsed = dt * np.arange(1, samples + 1) / samples
            phases = np.exp(-1j * elapsed[:, None] * w[None, :])
            props = np.einsum("ik,sk,jk->sij", v, phases, v.conj())
            states.extend(props @ rho @ props.conj().transpose(0, 2, 1))
            times.extend(t + elapsed)
            rho = evolve(rho, expm_hermitian(h, -1j * dt))
            t += dt
        else:
            rho = evolve(rho, pulse(*event[1:], sense)) if event[0] == "pulse" else crush(rho)
            times.append(t)
            states.append(rho)
    return np.array(times), np.array(states)


def relax(rho: np.ndarray, t: float, t2a: float, t2b: float) -> np.ndarray:
    """Each coherence decays by exp(-|dm_a| t/T2a - |dm_b| t/T2b)."""
    ma = np.real(np.diag(np.kron(0.5 * SZ, I2)))
    mb = np.real(np.diag(np.kron(I2, 0.5 * SZ)))
    rate = (np.abs(ma[:, None] - ma[None, :]) / t2a
            + np.abs(mb[:, None] - mb[None, :]) / t2b)
    return rho * np.exp(-rate * t)


def reduce_to_a(rho: np.ndarray) -> np.ndarray:
    return np.einsum("ajbj->ab", rho.reshape(2, 2, 2, 2))


def branches(program, frame, j: float, sense: int, iz_sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-b blocks of the full propagator of a unitary program, for spin a
    up and spin a down."""
    h = hamiltonian(frame[0], frame[1], j, iz_sign)
    u = np.eye(4, dtype=complex)
    for event in program:
        if event[0] == "pulse":
            u = pulse(*event[1:], sense) @ u
        else:
            u = expm_hermitian(h, -1j * float(event[1]) / j) @ u
    return u[:2, :2], u[2:, 2:]
