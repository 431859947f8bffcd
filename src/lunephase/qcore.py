"""Two-spin operator algebra on the Zeeman product basis.

Basis order is |uu>, |ud>, |du>, |dd> with spin a leftmost; "u" is the +1
eigenstate of sigma_z. Rotations follow R_n(alpha) = exp(-i alpha n.sigma/2),
which turns Bloch vectors right-handedly by alpha about n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .policy import POLICY

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)
identity2 = np.eye(2, dtype=complex)
identity4 = np.eye(4, dtype=complex)
for _m in (pauli_x, pauli_y, pauli_z, identity2, identity4):
    _m.setflags(write=False)


def principal_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _check_sign(value: int, name: str) -> None:
    if value not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1")


def _as_square(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DomainError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    return m


def _validated(m: np.ndarray, normalized: bool) -> np.ndarray:
    """Check one (n, n) operator, or every matrix of a (..., n, n) stack,
    and return the read-only symmetrized copy.

    Each matrix must be Hermitian within tolerance; normalized ones must
    also have unit trace and no eigenvalue below the floor. The largest
    deviation over the stack meets each tolerance exactly when every
    matrix's own does.
    """
    adjoint = m.conj().swapaxes(-1, -2)
    if not np.abs(m - adjoint).max() <= POLICY.hermiticity_tol:
        raise DomainError("density matrix is not Hermitian within tolerance")
    m = 0.5 * (m + adjoint)
    if normalized:
        if not abs(m.trace(axis1=-2, axis2=-1) - 1.0).max() <= POLICY.trace_tol:
            raise DomainError("normalized state must have unit trace")
        if not np.linalg.eigvalsh(m).min() >= POLICY.eigenvalue_floor:
            raise DomainError("normalized state has a negative eigenvalue")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian state container; deviation operators use normalized=False.

    Normalized states are validated for unit trace and positivity on
    construction; deviation (traceless difference) operators are only required
    to be Hermitian.
    """

    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated(_as_square(self.matrix), self.normalized))

    @classmethod
    def _wrap(cls, matrix: np.ndarray, normalized: bool) -> "DensityOperator":
        """A state around a matrix that _validated has already returned."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "normalized", normalized)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with spin a leftmost."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DomainError("tensor expects two single-spin (2x2) operators")
    return np.kron(a, b)


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Trace out one spin of a two-spin state; keep is 'a' or 'b'."""
    if rho.dim != 4:
        raise DomainError("partial_trace expects a two-spin state")
    if keep not in ("a", "b"):
        raise DomainError("keep must be 'a' or 'b'")
    blocks = rho.matrix.reshape(2, 2, 2, 2)
    reduced = blocks.trace(axis1=1, axis2=3) if keep == "a" else blocks.trace(axis1=0, axis2=2)
    return DensityOperator(reduced, normalized=rho.normalized)


def sigma_dot(n) -> np.ndarray:
    """n.sigma = n_x sigma_x + n_y sigma_y + n_z sigma_z for a 3-vector n."""
    return n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z


def rotation_unitary(axis: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle axis.sigma / 2) = cos(angle/2) 1 - i sin(angle/2) axis.sigma
    for a unit axis, filled entry by entry."""
    nx, ny, nz = map(float, axis)
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not abs(norm - 1.0) <= POLICY.axis_unit_tol:
        raise DomainError("rotation axis must be a unit vector")
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    return np.array([
        [complex(c, -s * nz), complex(-s * ny, -s * nx)],
        [complex(s * ny, -s * nx), complex(c, s * nz)],
    ])


def is_unitary(u: np.ndarray) -> bool:
    """Whether u, or every matrix of a nonempty stack u of shape (k, n, n),
    is unitary within POLICY.unitarity_tol: the largest deviation over the
    stack meets the tolerance exactly when each matrix's own does."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-1] != u.shape[-2] or u.size == 0:
        return False
    gram = u.conj().swapaxes(-1, -2) @ u
    return bool(abs(gram - np.eye(u.shape[-1])).max() <= POLICY.unitarity_tol)


def evolve(
    rho: DensityOperator, u: np.ndarray
) -> DensityOperator | list[DensityOperator]:
    """Unitary conjugation u rho u^dagger with a unitarity guard.

    u is one (n, n) propagator, giving one state, or a nonempty (k, n, n)
    stack of them, giving the list of the k states u[i] rho u[i]^dagger. A
    stack costs one stacked unitarity check, one batched conjugation and one
    state check of all k results against the same tolerances as a single
    state; each returned state is read-only, symmetrized and carries
    rho.normalized. A stack's slice i is bit-identical to evolve(rho, u[i]).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (rho.dim, rho.dim):
        raise DomainError("propagator dimension does not match the state")
    if u.size == 0:
        raise DomainError("propagator stack is empty")
    if not is_unitary(u):
        raise DomainError("propagator is not unitary within tolerance")
    m = u @ rho.matrix @ u.conj().swapaxes(-1, -2)
    if u.ndim == 2:
        return DensityOperator(m, normalized=rho.normalized)
    return [DensityOperator._wrap(s, rho.normalized) for s in _validated(m, rho.normalized)]
