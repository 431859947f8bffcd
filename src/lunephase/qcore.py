"""Two-spin operator algebra on the Zeeman product basis.

Basis order is |uu>, |ud>, |du>, |dd> with spin a leftmost; "u" is the +1
eigenstate of sigma_z. Rotations follow R_n(alpha) = exp(-i alpha n.sigma/2),
which turns Bloch vectors right-handedly by alpha about n.

This module is the one owner of that layout: it states each spin's m_z per
basis state once (_MA, _MB) and derives from them the |dm| decay masks,
the spin labels (_SPINS) and every index of a pair that another module needs
(_embed, _blocks), so that no other module indexes a 4x4 by the layout or
lists the spins.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .policy import POLICY

pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)
identity2 = np.eye(2, dtype=complex)
identity4 = np.eye(4, dtype=complex)
# the layout, stated once: the m_z quantum number of spin a and of spin b in
# each basis state, in basis order, before the I_z sign convention
_MA = np.array([0.5, 0.5, -0.5, -0.5])
_MB = np.array([0.5, -0.5, 0.5, -0.5])
# |dm_a| and |dm_b| between the basis states of each row and column
_DMA, _DMB = (np.abs(m[:, None] - m[None, :]) for m in (_MA, _MB))
for _m in (pauli_x, pauli_y, pauli_z, identity2, identity4, _MA, _MB, _DMA, _DMB):
    _m.setflags(write=False)

# values that float() accepts but that are no real number: text, which it
# parses, and numpy complex scalars, whose imaginary part it drops; read
# only by _check_real
_NOT_REAL = (str, bytes, np.complexfloating)

# the largest magnitude of a constructed matrix's real and imaginary parts:
# it keeps every sum _validated forms, and a trace of four entries, finite
_ENTRY_BOUND = sys.float_info.max / 8


def principal_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _split(m: np.ndarray) -> tuple[slice, slice]:
    """The two basis states in which a spin is up, then the two in which it
    is down, each as a slice, so that a block of them is a view."""
    (i, j), (k, l) = (np.flatnonzero(m == value).tolist() for value in (0.5, -0.5))
    return slice(i, j + 1, j - i), slice(k, l + 1, l - k)


# each spin's two 2x2 blocks of a 4x4: the basis states in which the other
# spin is up, then down; within each, the spin's own up state comes first
_BLOCKS = {"a": _split(_MB), "b": _split(_MA)}
# the spin labels, in basis order: a tuple, so that testing an unhashable
# label for membership is False, not a TypeError
_SPINS = tuple(_BLOCKS)


def _embed(spin: str, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The 4x4 that acts on spin as the 2x2 up where the other spin is up and
    as the 2x2 down where it is down, filled in place: every other entry is
    +0.0, where a Kronecker product with the identity (tensor) would give
    -0.0 imaginary parts."""
    full = np.zeros((4, 4), dtype=complex)
    first, second = _BLOCKS[spin]
    full[first, first], full[second, second] = up, down
    return full


def _blocks(m: np.ndarray, spin: str) -> tuple[np.ndarray, np.ndarray]:
    """The views of a 4x4 m on spin's blocks, the ones _embed fills: where
    the other spin is up, then where it is down."""
    first, second = _BLOCKS[spin]
    return m[first, first], m[second, second]


def _check_sign(value: int, name: str) -> None:
    # an int only, as Conventions asks: True, 1.0 and numpy scalars compare
    # equal to 1 but would reach compile-cache keys and records as themselves
    if type(value) is not int or value not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1")


def _check_real(value, name: str, owner: object = None) -> float:
    """The one probe of a real input: value as a float, or a DomainError
    that names it, as "{owner class}.{name}" when owner is given. Text,
    bytes and complex values are no real number, though float() would parse
    or truncate them; a value past the floats must fit one. An infinite or
    NaN float passes: each caller states its own range, as a comparison
    that a NaN fails. A bool is a real here (True is 1.0), unlike for
    _check_count. The name is formatted only on a refusal."""
    try:
        return float(None if isinstance(value, _NOT_REAL) else value)
    except (TypeError, ValueError, OverflowError) as error:
        name = name if owner is None else f"{type(owner).__name__}.{name}"
        problem = "fit a float" if isinstance(error, OverflowError) else "be a real number"
        raise DomainError(f"{name} must {problem}") from None


def _check_count(value: int, name: str, low: int, high: int | None = None) -> int:
    """The one check of a count or an index: value as an int (operator.index,
    so no float or text, and no bool either) of at least low, and at most
    high when high is given, or a DomainError that names it."""
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1
    if isinstance(value, bool) or count < low or (high is not None and count > high):
        bound = f"of at least {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {bound}")
    return count


def _as_square(matrix: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DomainError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    # a NaN fails the comparison too
    if not np.abs(m.view(float)).max() <= _ENTRY_BOUND:
        raise DomainError("density matrix entries must be finite, each part within max float/8")
    return m


def _factors(m: np.ndarray, shift: float) -> bool:
    """Whether m - shift * 1, or every matrix of a stack m minus it, has a
    Cholesky factorization: exactly when no eigenvalue of m lies below
    shift, the two verdicts differing only within rounding of shift."""
    identity = identity4 if m.shape[-1] == 4 else identity2
    try:
        np.linalg.cholesky(m - shift * identity)
    except np.linalg.LinAlgError:
        return False
    return True


def _validated(m: np.ndarray, normalized: bool, *, certified: bool = False) -> np.ndarray:
    """Check one (n, n) operator, or every matrix of a (..., n, n) stack,
    and return the read-only symmetrized copy.

    Each matrix must be Hermitian within tolerance, which is relative above
    unit scale: a matrix whose largest |entry| is s > 1 may deviate by s
    times it, since rounding grows with the entries and a deviation operator
    has no natural scale (a state, whose entries are at most 1, gets no
    slack). Normalized ones must also have unit trace and no eigenvalue
    below the floor. The largest deviation over the stack meets each
    absolute tolerance exactly when every matrix's own does, so the
    per-matrix scales are taken only when the stack as a whole fails.

    Positivity is one stacked Cholesky factorization of m - floor * 1 (see
    _factors), which costs far less than the eigenvalues; no eigenvalue is
    computed. A certified stack skips it: _conjugate passes certified only
    for a stack whose every matrix is proven to clear the floor by 4.9e-11,
    since its start state clears half the floor. A NaN entry would
    factor into NaN without an error, so the order of the checks matters:
    any NaN or infinite entry makes m - m^dagger NaN, which the Hermiticity
    check refuses before the factorization runs (an infinite one makes numpy
    warn first). The constructor refuses both earlier, in _as_square, and
    any entry large enough that a sum formed here could overflow.

    The adjoint is formed C-contiguous, so the difference and the sum run
    over contiguous memory, and the sum is halved in place: the values are
    those of 0.5 * (m + m.conj().swapaxes(-1, -2)), bit for bit.
    """
    adjoint = np.conjugate(m.swapaxes(-1, -2), order="C")
    deviation = np.abs(m - adjoint)
    if not deviation.max() <= POLICY.hermiticity_tol:
        # relative to each matrix's largest |entry|, which only a scale
        # above 1 can pass here; a NaN still fails
        scale = np.abs(m).max(axis=(-2, -1))
        if not np.all(deviation.max(axis=(-2, -1)) <= POLICY.hermiticity_tol * scale):
            raise DomainError("density matrix is not Hermitian within tolerance")
    m = m + adjoint
    m *= 0.5
    if normalized:
        if not abs(m.trace(axis1=-2, axis2=-1) - 1.0).max() <= POLICY.trace_tol:
            raise DomainError("normalized state must have unit trace")
        if not certified and not _factors(m, POLICY.eigenvalue_floor):
            raise DomainError("normalized state has a negative eigenvalue")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, slots=True, eq=False)
class DensityOperator:
    """Hermitian state container; deviation operators use normalized=False.

    Every state is Hermitian; normalized ones also have unit trace and no
    eigenvalue below the floor, deviation (traceless difference) operators
    need not. normalized must be a bool, since any truthy value would mean
    a state. Each state is checked once, where its numbers are made: the
    constructor checks outside input, bounded entries first; a computed
    state passes _validated once and is wrapped (see _wrap); copies and
    reads check nothing. States compare by identity, and hash.
    """

    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        if type(self.normalized) is not bool:
            raise DomainError("normalized must be a bool")
        object.__setattr__(self, "matrix", _validated(_as_square(self.matrix), self.normalized))

    def __reduce__(self):
        # unpickled through the constructor: checked again and read-only, and
        # re-symmetrizing an exactly Hermitian matrix keeps its bits
        return type(self), (self.matrix, self.normalized)

    @classmethod
    def _wrap(cls, matrix: np.ndarray, normalized: bool) -> "DensityOperator":
        """The state around a matrix that _validated has already returned,
        stored through each slot's member descriptor, with no second check."""
        rho = object.__new__(cls)
        cls.matrix.__set__(rho, matrix)
        cls.normalized.__set__(rho, normalized)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_two_spin(rho: DensityOperator, message: str, name: str = "rho") -> None:
    """The one test that rho, the caller's argument name, is a two-spin
    state; message names the caller's model."""
    if not isinstance(rho, DensityOperator):
        raise DomainError(f"{name} must be a DensityOperator, not {type(rho).__name__}")
    if rho.dim != 4:
        raise DomainError(message)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with spin a leftmost."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DomainError("tensor expects two single-spin (2x2) operators")
    return np.kron(a, b)


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Trace out one spin of a two-spin state; keep is a label of _SPINS. The
    reduced state is the sum of keep's two blocks (see _blocks)."""
    _check_two_spin(rho, "partial_trace expects a two-spin state")
    if keep not in _SPINS:
        raise DomainError(f"keep must be {' or '.join(map(repr, _SPINS))}")
    # + 0.0, as a trace's sum from 0 gives: a -0.0 in both blocks sums to +0.0
    reduced = np.add(*_blocks(rho.matrix, keep)) + 0.0
    return DensityOperator._wrap(_validated(reduced, rho.normalized), rho.normalized)


def sigma_dot(n) -> np.ndarray:
    """n.sigma = n_x sigma_x + n_y sigma_y + n_z sigma_z for a 3-vector n."""
    return n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z


def rotation_unitary(axis: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle axis.sigma / 2) = cos(angle/2) 1 - i sin(angle/2) axis.sigma
    for a unit axis, filled entry by entry. The axis must be three real
    numbers, each through _check_real, or a DomainError names it."""
    try:
        nx, ny, nz = axis
    except (TypeError, ValueError):
        raise DomainError("rotation axis must be a 3-vector of real numbers") from None
    nx, ny, nz = (_check_real(n, "rotation axis entry") for n in (nx, ny, nz))
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not abs(norm - 1.0) <= POLICY.axis_unit_tol:
        raise DomainError("rotation axis must be a unit vector")
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    half = 0.5 * _check_real(angle, "rotation angle")
    if not abs(half) < math.inf:
        raise DomainError("rotation angle must be finite")
    c, s = math.cos(half), math.sin(half)
    return np.array([
        [complex(c, -s * nz), complex(-s * ny, -s * nx)],
        [complex(s * ny, -s * nx), complex(c, s * nz)],
    ])


def is_unitary(u: np.ndarray) -> bool:
    """Whether u, a 2x2 or 4x4 matrix or a nonempty (k, n, n) stack of
    them, is unitary within POLICY.unitarity_tol: the largest deviation over
    the stack meets the tolerance exactly when each matrix's own does. The
    Gram matrices are compared against the read-only identity2/identity4;
    any other shape, and anything numpy cannot read as a complex array, is
    not unitary."""
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):
        return False
    if u.ndim not in (2, 3) or u.shape[-2:] not in ((2, 2), (4, 4)) or u.size == 0:
        return False
    gram = u.conj().swapaxes(-1, -2) @ u
    identity = identity4 if u.shape[-1] == 4 else identity2
    return bool(abs(gram - identity).max() <= POLICY.unitarity_tol)


def _conjugate(rho: DensityOperator, u: np.ndarray) -> np.ndarray:
    """u rho u^dagger for one propagator u, or the (k, n, n) stack of the
    u[i] rho u[i]^dagger for a stack u: the one place where a state is
    conjugated. The caller has already checked u for unitarity (see
    pulse._compile and experiment._run_grid) and wraps what it needs.
    The left product is one matrix product of the stack's k*n rows by rho,
    not k products of n rows (for a 2-D u the reshape changes nothing).
    Each row of it depends only on its own row of u and on rho, and the
    BLAS forms it the same way in either call, so slice i keeps the bits
    of u[i] @ rho; the tests compare them byte for byte. The adjoint is
    u.conj().swapaxes(-1, -2), for a 2-D u the same strided view as
    u.conj().T, and a stack's slice i is bit-identical to the conjugation
    by u[i]. The result passes one state check against the same tolerances
    as a state flagged rho.normalized; it is read-only and symmetrized.

    A stack of normalized states is certified positive by its start state,
    not factored slice by slice. With f = POLICY.eigenvalue_floor < 0 and
    tau = POLICY.unitarity_tol, every u[i] that a caller checked has
    |u[i]^dagger u[i] - 1| <= 6 tau in the 2-norm (four times the largest
    Gram deviation, plus the sample phases' own deviation). If rho - (f/2) 1
    factors, each u[i] rho u[i]^dagger then has no eigenvalue below
    (f/2)(1 + 6 tau), and the two products and the symmetrization move that
    by less than 1e-13 on a state of unit trace: every slice minus f 1 has
    its smallest eigenvalue above 4.9e-11, and factors. Hermiticity and the
    trace are still checked on every slice. A start state that does not
    factor at f/2 leaves the stack to the stacked factorization, and a
    single u, or a deviation operator, is checked as before."""
    left = (u.reshape(-1, u.shape[-1]) @ rho.matrix).reshape(u.shape)
    certified = (u.ndim == 3 and rho.normalized
                 and _factors(rho.matrix, POLICY.eigenvalue_floor / 2))
    return _validated(left @ u.conj().swapaxes(-1, -2), rho.normalized, certified=certified)
