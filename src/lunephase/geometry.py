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
from .qcore import _check_count, _check_real, _check_sign, principal_angle, sigma_dot

# pi/2 plus roundoff slack, so that computed quarter turns are accepted
_MAX_INCLINATION = math.pi / 2 + 1e-12


def check_inclination(theta: float) -> float:
    """The lune inclination theta as a float, checked to be a real number
    (see qcore._check_real) in [0, pi/2]."""
    theta = _check_real(theta, "inclination angle")
    if not 0.0 <= theta <= _MAX_INCLINATION:
        raise DomainError("inclination angle must lie in [0, pi/2]")
    return theta


def _loop_axes(theta: float, sense: int) -> tuple[np.ndarray, np.ndarray]:
    """Axes of the loop's two half turns at inclination theta, in traversal
    order. n1 = (0, -sin t, cos t) and n2 = (0, sin t, cos t) lie at -+theta
    from +z; a half turn about either maps +x to -x along a great circle. At
    sense -1 the first half turn is about n2 (carrying +x through the lower
    vertex) and the second about -n1; at sense +1 the mirrored order."""
    theta = check_inclination(theta)
    _check_sign(sense, "traversal sense")
    n1 = np.array([0.0, -math.sin(theta), math.cos(theta)])
    n2 = np.array([0.0, math.sin(theta), math.cos(theta)])
    return (n2, -n1) if sense == -1 else (n1, -n2)


def _half_turns(axes: tuple[np.ndarray, np.ndarray], m: int, eigen_sign: int) -> np.ndarray:
    """Spinor samples of the +x (eigen_sign +1) or -x (eigen_sign -1)
    eigenvector turned by pi about axes[0], then by pi about axes[1]: m + 1
    samples on the first turn, m more on the second, evenly spaced in angle.
    Sample k of a turn is exp(-i phi n.sigma/2) psi at phi = pi k/m."""
    start = np.array([1.0, eigen_sign], dtype=complex) / math.sqrt(2.0)
    sigma1, sigma2 = (sigma_dot(axis) for axis in axes)
    half = 0.5 * (math.pi * np.arange(m + 1) / m)
    cos, sin = np.cos(half)[:, None], np.sin(half)[:, None]
    seg1 = cos * start - 1j * sin * (sigma1 @ start)
    seg2 = cos[1:] * seg1[-1] - 1j * sin[1:] * (sigma2 @ seg1[-1])
    return np.vstack([seg1, seg2])


def _bloch_points(states: np.ndarray) -> np.ndarray:
    """Bloch vectors of an (N, 2) array of spinors, each divided by its
    |psi|^2: no float spinor squares to exactly 1, and the division puts
    the start of a loop at exactly +-x."""
    up, down = np.abs(states[:, 0]) ** 2, np.abs(states[:, 1]) ** 2
    norm = up + down
    cross = 2.0 * states[:, 0].conj() * states[:, 1]
    return np.column_stack([cross.real / norm, cross.imag / norm, (up - down) / norm])


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _store_samples(path, name: str, field: str, width: int, dtype, unit_tol: float,
                   not_unit: str) -> None:
    """Check path.times and the samples in path.<field>, and store both
    read-only: N >= 1 samples of the given width and dtype, one finite time
    each in nondecreasing order, and unit norms within unit_tol (not_unit is
    the message when they are not). name is the path's name in messages."""
    times = np.asarray(path.times, dtype=float)
    samples = np.asarray(getattr(path, field), dtype=dtype)
    if samples.ndim != 2 or samples.shape[1] != width or len(times) != len(samples):
        raise DomainError(f"{name} needs matching (N,) times and (N,{width}) {field}")
    if len(samples) < 1:
        raise DomainError(f"{name} must contain at least one sample")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0)):
        raise DomainError("sample times must be nondecreasing and finite")
    if not np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) <= unit_tol:
        raise DomainError(not_unit)
    object.__setattr__(path, "times", _read_only(times))
    object.__setattr__(path, field, _read_only(samples))


@dataclass(frozen=True)
class BlochPath:
    """Sampled curve of unit Bloch vectors; times may be any monotone
    parameter (seconds for traced trajectories, arc length for synthetic
    loops)."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        _store_samples(self, "path", "points", 3, float, POLICY.path_unit_tol,
                       "path points must be unit vectors")

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
        _store_samples(self, "state path", "states", 2, complex, POLICY.state_norm_tol,
                       "states must be normalized")
        states = self.states
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
        object.__setattr__(self, "generators", generators)

    def bloch_points(self) -> np.ndarray:
        return _bloch_points(self.states)

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
    m = _check_count(n_samples, "n_samples", 8) // 2
    points = _bloch_points(_half_turns(_loop_axes(spec.theta, 1), m, 1))
    phis = np.linspace(0.0, math.pi, m + 1)
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
    # doubling is exact, so it commutes with the wrap into (-pi, pi]
    return 2.0 * principal_angle(float(np.sum(np.arctan2(numer, denom))))


def pancharatnam_phase(path: StatePath) -> float:
    """Discrete geometric phase -arg prod <psi_k|psi_k+1>, closing overlap
    included; gauge-invariant and defined for projectively closed paths."""
    states = path.states
    closing = np.vdot(states[-1], states[0])
    if not abs(abs(closing) - 1.0) <= 1e-9:
        raise DomainError("path is not closed up to phase")
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
