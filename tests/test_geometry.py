import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from lunephase.errors import DomainError
from lunephase.experiment import ExperimentConfig, cycle_program
from lunephase.geometry import (
    BlochPath,
    LuneSpec,
    StatePath,
    _FALLBACK_FAN_POINTS,
    _bloch_points,
    _fan_point,
    _half_turns,
    _loop_axes,
    check_geodesic,
    dynamical_phase,
    lune_path,
    pancharatnam_phase,
    solid_angle,
)
from lunephase.qcore import (
    pauli_x,
    pauli_y,
    pauli_z,
    principal_angle,
    rotation_unitary,
)


def circle_path(axis_angle, n, start_phi=0.0, span=2 * math.pi):
    """Latitude circle at polar angle axis_angle about +z, CCW from outside."""
    phis = start_phi + np.linspace(0.0, span, n + 1)
    s, c = math.sin(axis_angle), math.cos(axis_angle)
    pts = np.column_stack([s * np.cos(phis), s * np.sin(phis), np.full(n + 1, c)])
    return BlochPath(np.linspace(0, span, n + 1), pts)


def arc_length(path):
    """Sum of great-circle segment lengths (chord form, precise for short
    segments where acos would lose digits)."""
    chords = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    return float(np.sum(2.0 * np.arcsin(np.clip(chords / 2.0, 0.0, 1.0))))


def reversed_path(path):
    """The same samples traversed in the opposite order."""
    return BlochPath(path.times, path.points[::-1])


def geodesic_arc(p, q, n):
    p, q = np.asarray(p, float), np.asarray(q, float)
    angle = math.acos(np.clip(np.dot(p, q), -1, 1))
    ts = np.linspace(0.0, 1.0, n + 1)
    pts = np.array(
        [(math.sin((1 - t) * angle) * p + math.sin(t * angle) * q) / math.sin(angle) for t in ts]
    )
    return pts


def spinor_circle(alpha, n, phase_noise=None):
    """States (cos a/2, sin a/2 e^{i phi}) around a latitude circle at polar
    angle alpha; encloses the north cap of area 2 pi (1 - cos a)."""
    phis = np.linspace(0.0, 2 * math.pi, n + 1)
    states = np.column_stack(
        [np.full(n + 1, math.cos(alpha / 2)), math.sin(alpha / 2) * np.exp(1j * phis)]
    )
    if phase_noise is not None:
        states = states * np.exp(1j * phase_noise)[:, None]
    return StatePath(np.linspace(0, 1, n + 1), states)


PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
NEAR_HALF_PI = 1.5707963267948963  # one ulp below pi/2


def z_tilted_by(eps):
    v = np.array([0.0, eps, 1.0])
    return tuple(v / np.linalg.norm(v))


def turned_lune(theta, vertex, samples):
    """The x-hat lune turned rigidly so that its first vertex lands on the
    unit vector vertex."""
    lune = lune_path(LuneSpec(theta), samples)
    points, vertex = np.array(lune.points), np.array(vertex)
    cross = np.cross([1.0, 0.0, 0.0], vertex)
    s = float(np.linalg.norm(cross))
    if s >= 1e-12:
        points = Rotation.from_rotvec(cross / s * math.atan2(s, vertex[0])).apply(points)
    elif vertex[0] < 0.0:  # antipodal vertex: half turn about z
        points = Rotation.from_rotvec([0.0, 0.0, math.pi]).apply(points)
    return BlochPath(lune.times, points)


unit_vectors = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))
)


class TestBlochPath:
    def test_rejects_non_unit_points(self):
        with pytest.raises(DomainError):
            BlochPath([0.0, 1.0], [[1, 0, 0], [0, 0, 0.5]])

    def test_rejects_decreasing_times(self):
        with pytest.raises(DomainError):
            BlochPath([1.0, 0.0], [[1, 0, 0], [0, 1, 0]])

    def test_arc_length_of_equator(self):
        assert arc_length(circle_path(math.pi / 2, 4096)) == pytest.approx(
            2 * math.pi, abs=1e-5
        )


class TestLunePath:
    def test_midpoints(self):
        t = math.pi / 4
        path = lune_path(LuneSpec(t), 400)
        b_expected = np.array([0, math.cos(t), math.sin(t)])
        d_expected = np.array([0, math.cos(t), -math.sin(t)])
        assert np.min(np.linalg.norm(path.points - b_expected, axis=1)) < 1e-9
        assert np.min(np.linalg.norm(path.points - d_expected, axis=1)) < 1e-9
        assert np.allclose(path.points[0], [1, 0, 0])

    def test_first_segment_coplanar(self):
        t = 0.37
        path = lune_path(LuneSpec(t), 1000)
        half = len(path.points) // 2
        seg = path.points[: half + 1]
        assert np.max(np.abs(-seg[:, 1] * math.sin(t) + seg[:, 2] * math.cos(t))) <= 1e-12

    def test_arc_length_two_pi_all_theta(self):
        for t in (0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            assert arc_length(lune_path(LuneSpec(t), 4000)) == pytest.approx(
                2 * math.pi, abs=1e-9
            )

    def test_degenerate_theta_zero(self):
        path = lune_path(LuneSpec(0.0), 200)
        assert solid_angle(path) == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(path.points[:, 2])) <= 1e-12

    def test_rotated_vertex_axis(self):
        path = turned_lune(math.pi / 8, (0.0, 0.0, 1.0), 500)
        assert np.allclose(path.points[0], [0, 0, 1], atol=1e-12)
        assert abs(solid_angle(path)) == pytest.approx(math.pi / 2, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.0, math.pi / 2), vertex=unit_vectors,
           samples=st.sampled_from((64, 1000)))
    @example(theta=math.pi / 8, vertex=(-1.0, 0.0, 0.0), samples=64)  # antipodal frame change
    @example(theta=3 * math.pi / 8, vertex=(1.0, 0.0, 0.0), samples=64)
    @example(theta=0.0, vertex=(1.0, 0.0, 1e-10), samples=64)  # a turn by 1e-10 rad
    # a sample's antipode lies just past the antipode guard from the x-hat
    # candidate: the fan point must be the best candidate, not the first
    # acceptable one
    @example(theta=NEAR_HALF_PI, vertex=z_tilted_by(1e-6), samples=64)
    @example(theta=NEAR_HALF_PI, vertex=z_tilted_by(1.2e-6), samples=1000)
    @example(theta=NEAR_HALF_PI, vertex=z_tilted_by(2e-6), samples=1000)
    def test_signed_area_for_any_vertex_axis(self, theta, vertex, samples):
        path = turned_lune(theta, vertex, samples)
        assert np.allclose(path.points[0], vertex, atol=1e-12)
        # -4 theta, read modulo 4 pi: the half-sphere lune at pi/2 reports +2 pi
        area = solid_angle(path)
        assert math.remainder(area + 4 * theta, 4 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_specs_compare_and_hash_by_value(self):
        a, b = LuneSpec(0.3), LuneSpec(np.float64(0.3))
        assert a == b
        assert hash(a) == hash(b)
        assert type(b.theta) is float
        assert a != LuneSpec(0.4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            LuneSpec(-0.1)
        with pytest.raises(DomainError):
            LuneSpec(math.pi / 2 + 0.1)
        with pytest.raises(DomainError):
            lune_path(LuneSpec(0.3), 7)


class TestHalfTurns:
    @settings(deadline=None)
    @given(first=unit_vectors, second=unit_vectors, sign=st.sampled_from((1, -1)),
           m=st.integers(1, 64))
    def test_samples_are_rotations_of_the_start(self, first, second, sign, m):
        samples = _half_turns((np.array(first), np.array(second)), m, sign)
        assert samples.shape == (2 * m + 1, 2)
        start = np.array([1.0, sign]) / math.sqrt(2.0)
        turned = rotation_unitary(first, math.pi) @ start
        want = [rotation_unitary(first, math.pi * k / m) @ start for k in range(m + 1)]
        want += [rotation_unitary(second, math.pi * k / m) @ turned for k in range(1, m + 1)]
        assert np.allclose(samples, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("theta", (0.0, 0.3, math.pi / 4, math.pi / 2))
    def test_loops_start_exactly_on_the_vertex(self, theta):
        # |psi|^2 of the start reads 0.9999999999999998, not 1
        for sign in (1, -1):
            start = _bloch_points(_half_turns(_loop_axes(theta, 1), 8, sign))[0]
            assert start.tolist() == [sign, 0.0, 0.0]
        assert lune_path(LuneSpec(theta), 16).points[0].tolist() == [1.0, 0.0, 0.0]


class TestInclinationBound:
    """Every entry point taking a lune inclination shares one bound: pi/2
    plus roundoff slack."""

    ENTRY_POINTS = pytest.mark.parametrize(
        "build",
        (LuneSpec, lambda t: ExperimentConfig(t, 0), cycle_program, lambda t: _loop_axes(t, 1)),
        ids=("LuneSpec", "ExperimentConfig", "cycle_program", "lune_axes"),
    )

    @ENTRY_POINTS
    def test_accepts_roundoff_above_quarter_turn(self, build):
        build(math.pi / 2 + 5e-13)
        build(0.0)

    @ENTRY_POINTS
    @pytest.mark.parametrize("theta", (math.pi / 2 + 1e-9, math.nan, -1e-15))
    def test_rejects_out_of_range(self, build, theta):
        with pytest.raises(DomainError):
            build(theta)


def remainder_wrap(total):
    """Oracle: the wrap of a doubled fan sum into (-2pi, 2pi] that
    solid_angle made with its own math.remainder before it called
    principal_angle."""
    wrapped = math.remainder(total, 4.0 * math.pi)
    if wrapped <= -2.0 * math.pi:
        wrapped += 4.0 * math.pi
    return wrapped


def remainder_solid_angle(path):
    """Oracle: solid_angle's triangle fan, wrapped by remainder_wrap."""
    points = path.points
    if np.max(np.linalg.norm(points - points[0], axis=1)) <= 1e-9:
        return 0.0
    p = points[:-1]
    fan = _fan_point(p)
    q = np.roll(p, -1, axis=0)
    numer = np.einsum("i,ji->j", fan, np.cross(p, q))
    denom = 1.0 + p @ fan + np.sum(p * q, axis=1) + q @ fan
    return remainder_wrap(2.0 * float(np.sum(np.arctan2(numer, denom))))


def packed(x):
    return struct.pack("<d", x)


def geodesic_polygon(vertices, per_side):
    """Closed loop through the unit vertices along great-circle arcs."""
    arcs = [geodesic_arc(a, b, per_side)[:-1]
            for a, b in zip(vertices, vertices[1:] + vertices[:1])]
    pts = np.vstack(arcs + [np.asarray(vertices[:1], float)])
    return BlochPath(np.arange(len(pts), dtype=float), pts)


def _one_ulp_either_side(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


FAN_SUMS = [0.0, -0.0] + [
    y for k in (1, -1, 2, -2, 3, -3) for y in _one_ulp_either_side(k * math.pi)
]


class TestSolidAngle:
    @given(fan_sum=st.floats(-1e3, 1e3))
    @settings(max_examples=500)
    def test_doubled_principal_angle_is_the_remainder_wrap(self, fan_sum):
        # solid_angle returns 2 * principal_angle(fan sum): doubling is exact,
        # so it keeps the bits of the old wrap of the doubled sum
        for s in [fan_sum] + FAN_SUMS:
            assert packed(2.0 * principal_angle(s)) == packed(remainder_wrap(2.0 * s)), s

    @given(theta=st.floats(0.0, math.pi / 2), samples=st.integers(8, 400),
           reverse=st.booleans())
    @example(theta=math.pi / 2, samples=2000, reverse=False)  # |Omega| = 2pi
    @example(theta=math.pi / 2, samples=2000, reverse=True)
    @example(theta=0.0, samples=8, reverse=False)
    @settings(max_examples=150, deadline=None)
    def test_lunes_keep_the_remainder_wrap(self, theta, samples, reverse):
        path = lune_path(LuneSpec(theta), samples)
        if reverse:
            path = reversed_path(path)
        assert packed(solid_angle(path)) == packed(remainder_solid_angle(path))

    @given(vertices=st.lists(unit_vectors, min_size=3, max_size=6), per_side=st.integers(2, 40))
    @settings(max_examples=150, deadline=None)
    def test_geodesic_polygons_keep_the_remainder_wrap(self, vertices, per_side):
        # a side between (nearly) antipodal or coincident vertices has no
        # unique great circle
        sides = zip(vertices, vertices[1:] + vertices[:1])
        assume(all(-0.99 < np.dot(a, b) < 0.99 for a, b in sides))
        path = geodesic_polygon(vertices, per_side)
        try:
            want = remainder_solid_angle(path)
        except DomainError:
            with pytest.raises(DomainError, match="^could not find a stable fan point"):
                solid_angle(path)
            return
        assert packed(solid_angle(path)) == packed(want)

    def test_requires_closed(self):
        with pytest.raises(DomainError):
            solid_angle(circle_path(math.pi / 2, 64, span=math.pi))

    def test_no_stable_fan_point_raises(self):
        # the antipodes of the fallback candidates sum to zero, so the
        # centroid drops out and every candidate meets its own antipode
        antipodes = -np.array(_FALLBACK_FAN_POINTS)
        antipodes /= np.linalg.norm(antipodes, axis=1)[:, None]
        pts = np.vstack([antipodes, antipodes[:1]])
        with pytest.raises(DomainError, match="^could not find a stable fan point"):
            solid_angle(BlochPath(np.arange(len(pts)), pts))

    def test_degenerate_loop_is_zero(self):
        pts = np.tile([0.0, 0.0, 1.0], (10, 1))
        assert solid_angle(BlochPath(np.linspace(0, 1, 10), pts)) == 0.0

    def test_equator_gives_hemisphere(self):
        assert solid_angle(circle_path(math.pi / 2, 2048)) == pytest.approx(
            2 * math.pi, abs=1e-9
        )

    def test_octant_triangle(self):
        x, y, z = np.eye(3)
        pts = np.vstack(
            [geodesic_arc(x, y, 200)[:-1], geodesic_arc(y, z, 200)[:-1], geodesic_arc(z, x, 200)]
        )
        path = BlochPath(np.linspace(0, 1, len(pts)), pts)
        assert solid_angle(path) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_lune_signed_areas(self):
        # triangulation is exact on piecewise-geodesic loops: tolerance far
        # below the 1e-6 documented bound
        for t in (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            path = lune_path(LuneSpec(t), 10_000)
            assert solid_angle(path) == pytest.approx(-4 * t, abs=1e-9)
            assert solid_angle(reversed_path(path)) == pytest.approx(4 * t, abs=1e-9)
            assert abs(solid_angle(path)) == pytest.approx(4 * t, abs=1e-6)

    def test_reversal_antisymmetry_random_loops(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            alpha = rng.uniform(0.3, math.pi - 0.3)
            path = circle_path(alpha, 512, start_phi=rng.uniform(0, 2 * math.pi))
            assert solid_angle(reversed_path(path)) == pytest.approx(
                -solid_angle(path), abs=1e-9
            )

    def test_north_cap_area_and_convergence_order(self):
        alpha = 1.0
        exact = 2 * math.pi * (1 - math.cos(alpha))
        errs = [abs(solid_angle(circle_path(alpha, n)) - exact) for n in (256, 512, 1024)]
        assert errs[0] / errs[1] >= 3.9
        assert errs[1] / errs[2] >= 3.9

    def test_result_in_principal_window(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            path = circle_path(rng.uniform(0.1, math.pi - 0.1), 256)
            om = solid_angle(path)
            assert -2 * math.pi < om <= 2 * math.pi


class TestPancharatnam:
    def test_constant_path(self):
        states = np.tile(PLUS, (50, 1))
        path = StatePath(np.linspace(0, 1, 50), states)
        assert pancharatnam_phase(path) == pytest.approx(0.0, abs=1e-15)

    def test_latitude_circle_berry_phase(self):
        alpha = 2 * math.pi / 5
        omega = 2 * math.pi * (1 - math.cos(alpha))
        got = pancharatnam_phase(spinor_circle(alpha, 10_000))
        assert got == pytest.approx(-omega / 2, abs=1e-6)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(103)
        alpha = 0.9
        base = spinor_circle(alpha, 400)
        noisy = spinor_circle(alpha, 400, phase_noise=rng.uniform(-math.pi, math.pi, 401))
        assert pancharatnam_phase(noisy) == pytest.approx(
            pancharatnam_phase(base), abs=1e-12
        )

    def test_reparameterization_invariance(self):
        alpha = 1.1
        a = pancharatnam_phase(spinor_circle(alpha, 5_000))
        b = pancharatnam_phase(spinor_circle(alpha, 12_345))
        assert a == pytest.approx(b, abs=1e-6)

    def test_holonomy_identity_on_latitude_circles(self):
        # for transport with no dynamical phase the discrete phase equals
        # -half the enclosed area, modulo 2pi (spinor sign)
        from lunephase.qcore import principal_angle

        for alpha, n in ((0.7, 10_000), (2.2, 10_000)):
            gamma = pancharatnam_phase(spinor_circle(alpha, n))
            omega = solid_angle(circle_path(alpha, n))
            assert principal_angle(gamma + 0.5 * omega) == pytest.approx(0.0, abs=1e-5)

    def test_holonomy_identity_on_lune(self):
        from lunephase.qcore import principal_angle

        t = math.pi / 8
        n1 = np.array([0.0, -math.sin(t), math.cos(t)])
        n2 = np.array([0.0, math.sin(t), math.cos(t)])
        half = 5_000
        phis = np.linspace(0.0, math.pi, half + 1)
        seg1 = [rotation_unitary(n1, phi) @ PLUS for phi in phis]
        at_c = seg1[-1]
        seg2 = [rotation_unitary(-n2, phi) @ at_c for phi in phis[1:]]
        states = np.array(seg1 + seg2)
        path = StatePath(np.linspace(0, 1, len(states)), states)
        gamma = pancharatnam_phase(path)
        omega = solid_angle(path.to_bloch_path())
        assert omega == pytest.approx(-4 * t, abs=1e-9)
        assert principal_angle(gamma + 0.5 * omega) == pytest.approx(0.0, abs=1e-5)

    def test_rejects_open_path(self):
        phis = np.linspace(0, math.pi, 100)
        states = np.column_stack([np.cos(phis / 2), np.sin(phis / 2)]).astype(complex)
        with pytest.raises(DomainError):
            pancharatnam_phase(StatePath(np.linspace(0, 1, 100), states))

    def test_antipodal_samples_rejected_at_construction(self):
        states = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
        with pytest.raises(DomainError):
            StatePath([0.0, 0.5, 1.0], states)


class TestDynamicalPhase:
    def test_zero_hamiltonian(self):
        path = spinor_circle(0.8, 200)
        gens = np.zeros((len(path.states), 2, 2), dtype=complex)
        withgens = StatePath(path.times, path.states, gens)
        assert dynamical_phase(withgens) == 0.0

    def test_requires_generators(self):
        with pytest.raises(DomainError):
            dynamical_phase(spinor_circle(0.8, 100))

    def test_stationary_state_constant_energy(self):
        e, duration = 0.7, 3.0
        n = 100
        times = np.linspace(0, duration, n)
        states = np.tile([1.0 + 0j, 0.0], (n, 1))
        gens = np.tile(np.diag([e, 0.0]).astype(complex), (n, 1, 1))
        assert dynamical_phase(StatePath(times, states, gens)) == pytest.approx(
            -e * duration, abs=1e-12
        )

    def test_great_circle_transport_has_no_dynamical_phase(self):
        # rotate |+x> about the tilted axis n1: the state stays on the great
        # circle normal to n1, so <n1.sigma> = 0 throughout
        t = math.pi / 8
        n1 = np.array([0.0, -math.sin(t), math.cos(t)])
        omega = 4.0
        h = 0.5 * omega * (n1[0] * pauli_x + n1[1] * pauli_y + n1[2] * pauli_z)
        times = np.linspace(0, math.pi / omega, 600)
        states = np.array([rotation_unitary(n1, omega * tt) @ PLUS for tt in times])
        gens = np.tile(h, (len(times), 1, 1))
        assert abs(dynamical_phase(StatePath(times, states, gens))) <= 1e-9


class TestCheckGeodesic:
    def test_great_circle_arc(self):
        pts = geodesic_arc([1, 0, 0], [0, 1 / math.sqrt(2), 1 / math.sqrt(2)], 100)
        path = BlochPath(np.linspace(0, 1, len(pts)), pts)
        assert check_geodesic(path) <= 1e-12

    def test_latitude_circle_offset(self):
        # distinct equally spaced samples: the duplicate closing point of a
        # closed path would bias the least-squares plane
        phis = np.linspace(0.0, 2 * math.pi, 129)[:-1]
        s = math.sin(math.pi / 3)
        pts = np.column_stack([s * np.cos(phis), s * np.sin(phis), np.full(128, 0.5)])
        path = BlochPath(np.linspace(0, 1, 128), pts)
        assert check_geodesic(path) == pytest.approx(0.5, abs=1e-9)

    def test_lune_segments(self):
        path = lune_path(LuneSpec(0.4), 2000)
        half = len(path.points) // 2
        for seg in (path.points[: half + 1], path.points[half:]):
            segpath = BlochPath(np.linspace(0, 1, len(seg)), seg)
            assert check_geodesic(segpath) <= 1e-9

    def test_needs_three_samples(self):
        with pytest.raises(DomainError):
            check_geodesic(BlochPath([0, 1], [[1, 0, 0], [0, 1, 0]]))

    def test_memory_stays_linear_in_the_sample_count(self):
        # one loop segment at 5000 samples; an (N, N) SVD factor of it would
        # take about 191 MiB
        pts = geodesic_arc([1, 0, 0], [0, 1, 0], 5000)  # 5001 points
        path = BlochPath(np.linspace(0, 1, len(pts)), pts)
        tracemalloc.start()
        try:
            check_geodesic(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20
