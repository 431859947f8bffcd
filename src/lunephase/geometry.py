"""Bloch-sphere paths and discrete holonomy analysis.

Sign conventions used throughout: solid angles are positive for loops that
run counterclockwise when viewed from outside the sphere, and the discrete
geometric phase of a closed state path is gamma = -arg of the overlap
product, which tends to -Omega/2 for spin-1/2 as sampling densifies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .policy import POLICY
from .qcore import _check_sign, principal_angle

_X_AXIS = np.array([1.0, 0.0, 0.0])
# pi/2 plus roundoff slack, so that computed quarter turns are accepted
_MAX_INCLINATION = math.pi / 2 + 1e-12


def check_inclination(theta: float) -> float:
    """The lune inclination theta as a float, checked to lie in [0, pi/2]."""
    theta = float(theta)
    if not 0.0 <= theta <= _MAX_INCLINATION:
        raise DomainError("inclination angle must lie in [0, pi/2]")
    return theta


def lune_axes(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotation axes of the two geodesic half turns at inclination theta.

    Both lie in the y-z plane at +-theta from +z; each half turn about one of
    them maps +x to -x (and back) along a great-circle arc.
    """
    theta = check_inclination(theta)
    n1 = np.array([0.0, -math.sin(theta), math.cos(theta)])
    n2 = np.array([0.0, math.sin(theta), math.cos(theta)])
    return n1, n2


def _loop_axes(theta: float, sense: int) -> tuple[np.ndarray, np.ndarray]:
    """Axes of the loop's two half turns in traversal order.

    At sense -1 the first half turn is about n2 (carrying +x through the
    lower vertex) and the second about -n1; at sense +1 the mirrored order.
    """
    n1, n2 = lune_axes(theta)
    _check_sign(sense, "traversal sense")
    return (n2, -n1) if sense == -1 else (n1, -n2)


def rotate(axis: np.ndarray, angle, v: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of v right-handedly by angle about the unit axis.

    angle and v broadcast against each other: an (N,) angle array sweeps one
    vector along an arc, an (N, 3) array of vectors turns as a rigid body.
    """
    k = np.asarray(axis, dtype=float)
    v = np.asarray(v, dtype=float)
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return v * c + np.cross(k, v) * s + k * (v @ k)[..., None] * (1.0 - c)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlochPath:
    """Sampled curve of unit Bloch vectors; times may be any monotone
    parameter (seconds for traced trajectories, arc length for synthetic
    loops)."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or len(times) != len(points):
            raise DomainError("path needs matching (N,) times and (N,3) points")
        if len(points) < 1:
            raise DomainError("path must contain at least one sample")
        if not np.all(np.diff(times) >= 0):
            raise DomainError("sample times must be nondecreasing")
        norms = np.linalg.norm(points, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= POLICY.path_unit_tol:
            raise DomainError("path points must be unit vectors")
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "points", _read_only(points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def closed(self) -> bool:
        """Whether the endpoints coincide within the closure tolerance."""
        gap = np.linalg.norm(self.points[0] - self.points[-1])
        return bool(gap <= POLICY.path_closure_tol)


@dataclass(frozen=True)
class LuneSpec:
    """Lune of inclination theta: vertices on +-x-hat, enclosed area
    4*theta."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_inclination(self.theta))


@dataclass(frozen=True)
class StatePath:
    """Sampled pure-qubit trajectory, optionally with the instantaneous
    Hamiltonian at each sample (needed for the dynamical phase)."""

    times: np.ndarray
    states: np.ndarray
    generators: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or states.shape[1] != 2 or len(times) != len(states):
            raise DomainError("state path needs matching (N,) times and (N,2) states")
        if len(states) < 1:
            raise DomainError("state path must contain at least one sample")
        if not np.all(np.diff(times) >= 0):
            raise DomainError("sample times must be nondecreasing")
        norms = np.linalg.norm(states, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= POLICY.state_norm_tol:
            raise DomainError("states must be normalized")
        overlaps = np.abs(np.sum(states[:-1].conj() * states[1:], axis=1))
        if len(overlaps) and not np.min(overlaps) > POLICY.overlap_floor:
            raise DomainError(
                "consecutive samples nearly antipodal; refine the sampling density"
            )
        generators = self.generators
        if generators is not None:
            generators = np.asarray(generators, dtype=complex)
            if generators.shape != (len(states), 2, 2):
                raise DomainError("generators must be one 2x2 operator per sample")
            generators = _read_only(generators)
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "states", _read_only(states))
        object.__setattr__(self, "generators", generators)

    def __len__(self) -> int:
        return len(self.states)

    def bloch_points(self) -> np.ndarray:
        s = self.states
        x = 2.0 * np.real(s[:, 0].conj() * s[:, 1])
        y = 2.0 * np.imag(s[:, 0].conj() * s[:, 1])
        z = np.abs(s[:, 0]) ** 2 - np.abs(s[:, 1]) ** 2
        return np.column_stack([x, y, z])

    def to_bloch_path(self) -> BlochPath:
        return BlochPath(self.times, self.bloch_points())


def lune_path(spec: LuneSpec, n_samples: int) -> BlochPath:
    """Closed loop A -> B -> C -> D -> A around a lune of inclination theta.

    A = x-hat, C = -A. Segment ABC rotates A by pi about
    n1 = (0, -sin t, cos t) through B = (0, cos t, sin t); segment CDA rotates
    C by pi about -n2, n2 = (0, sin t, cos t), through D = (0, cos t, -sin t).
    Times hold the arc-length parameter, total 2*pi. This sample order has
    signed solid angle -4*theta; its reversal bounds +4*theta.
    """
    if n_samples < 8:
        raise DomainError("lune sampling needs at least 8 points")
    first, second = _loop_axes(spec.theta, 1)
    phis = np.linspace(0.0, math.pi, n_samples // 2 + 1)
    points = np.vstack([rotate(first, phis[:-1], _X_AXIS), rotate(second, phis, -_X_AXIS)])
    points[-1] = points[0]  # closes exactly; roundoff drift is well below tol
    times = np.concatenate([phis[:-1], math.pi + phis])
    return BlochPath(times, points)


_FALLBACK_FAN_POINTS = [
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    (1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0),
]


def _fan_point(points: np.ndarray) -> np.ndarray:
    """The candidate farthest from every sample's antipode, where the
    triangle excess degenerates; the guard is only a floor on that margin."""
    candidates = np.array(_FALLBACK_FAN_POINTS)
    centroid = points.mean(axis=0)
    if np.linalg.norm(centroid) > 1e-12:
        candidates = np.vstack([centroid, candidates])
    candidates /= np.linalg.norm(candidates, axis=1)[:, None]
    # |p + c|^2 = 2 + 2 p.c for unit vectors: the largest margin belongs to
    # the candidate whose most antipodal sample has the largest p.c
    best = candidates[np.argmax(np.min(points @ candidates.T, axis=0))]
    if not np.min(np.linalg.norm(points + best, axis=1)) > POLICY.antipode_guard:
        raise DomainError("could not find a stable fan point for this loop")
    return best


def solid_angle(path: BlochPath) -> float:
    """Signed spherical area enclosed by a closed loop, in (-2pi, 2pi]
    modulo 4pi; counterclockwise seen from outside is positive.

    Triangle fan from an interior direction with the van Oosterom-Strackee
    excess formula per triangle; exact (to roundoff) for piecewise-geodesic
    loops, second-order accurate in sample count for smooth ones.
    """
    if not path.closed:
        raise DomainError("solid angle requires a closed path")
    points = path.points
    if np.max(np.linalg.norm(points - points[0], axis=1)) <= 1e-9:
        return 0.0
    points = points[:-1]
    fan = _fan_point(points)
    p = points
    q = np.roll(points, -1, axis=0)
    numer = np.einsum("i,ji->j", fan, np.cross(p, q))
    denom = 1.0 + p @ fan + np.sum(p * q, axis=1) + q @ fan
    total = 2.0 * float(np.sum(np.arctan2(numer, denom)))
    wrapped = math.remainder(total, 4.0 * math.pi)
    if wrapped <= -2.0 * math.pi:
        wrapped += 4.0 * math.pi
    return wrapped


def pancharatnam_phase(path: StatePath) -> float:
    """Discrete geometric phase -arg prod <psi_k|psi_k+1>, closing overlap
    included; gauge-invariant and defined for projectively closed paths."""
    states = path.states
    closing = np.vdot(states[-1], states[0])
    if not abs(abs(np.vdot(states[0], states[-1])) - 1.0) <= 1e-9:
        raise DomainError("path is not closed up to phase")
    if not abs(closing) > POLICY.overlap_floor:
        raise DomainError("closing overlap too small; refine the sampling density")
    overlaps = np.sum(states[:-1].conj() * states[1:], axis=1)
    # sum of arguments rather than product of overlaps: immune to magnitude
    # underflow on long paths, identical modulo 2pi
    total = float(np.sum(np.angle(overlaps))) + float(np.angle(closing))
    return principal_angle(-total)


def dynamical_phase(path: StatePath) -> float:
    """-integral of <psi|H|psi> dt by trapezoidal quadrature."""
    if path.generators is None:
        raise DomainError("dynamical phase requires generator samples")
    energies = np.real(np.einsum("ki,kij,kj->k", path.states.conj(),
                                 path.generators, path.states))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return -float(trapezoid(energies, path.times))


def check_geodesic(path: BlochPath) -> float:
    """Max distance of samples from the best-fit plane through the origin;
    a segment is geodesic when this is ~0 (<= 1e-6 by convention)."""
    points = path.points
    if len(points) < 3:
        raise DomainError("geodesic check needs at least 3 samples")
    _, _, vt = np.linalg.svd(points, full_matrices=False)
    normal = vt[-1]
    return float(np.max(np.abs(points @ normal)))
