import math

import numpy as np
import pytest

from lunephase.errors import DomainError
from lunephase.phases import PhaseResult, qubit_mixed_phase, sjoqvist_average
from lunephase.qcore import principal_angle


class TestPhaseResult:
    def test_rejects_gamma_outside_principal_window(self):
        with pytest.raises(DomainError):
            PhaseResult(-math.pi, 0.5, True)
        with pytest.raises(DomainError):
            PhaseResult(3.5, 0.5, True)

    def test_rejects_bad_visibility(self):
        with pytest.raises(DomainError):
            PhaseResult(0.0, -0.1, True)
        with pytest.raises(DomainError):
            PhaseResult(0.0, 1.1, True)


class TestSjoqvistAverage:
    def test_single_branch(self):
        res = sjoqvist_average([1.0], [0.7])
        assert res.defined
        assert res.gamma == pytest.approx(0.7, abs=1e-15)
        assert res.visibility == pytest.approx(1.0, abs=1e-15)

    def test_equal_weights_cancel(self):
        res = sjoqvist_average([0.5, 0.5], [math.pi / 2, -math.pi / 2])
        assert not res.defined
        assert res.gamma == 0.0
        assert res.visibility == pytest.approx(0.0, abs=1e-9)

    def test_matches_qubit_form(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r = rng.uniform(0.0, 1.0)
            omega = rng.uniform(-2 * math.pi, 2 * math.pi)
            avg = sjoqvist_average(
                [0.5 * (1 + r), 0.5 * (1 - r)], [0.5 * omega, -0.5 * omega]
            )
            direct = qubit_mixed_phase(r, omega)
            assert avg.defined == direct.defined
            assert avg.visibility == pytest.approx(direct.visibility, abs=1e-14)
            if direct.defined:
                assert principal_angle(avg.gamma - direct.gamma) == pytest.approx(
                    0.0, abs=1e-13
                )

    def test_swapped_pairing_is_opposite_orientation(self):
        # heavy weight on -omega/2 is the same mixture seen with the loop
        # orientation reversed
        r, omega = 0.6, 1.9
        avg = sjoqvist_average(
            [0.5 * (1 + r), 0.5 * (1 - r)], [-0.5 * omega, 0.5 * omega]
        )
        direct = qubit_mixed_phase(r, omega, sign=-1)
        assert avg.gamma == pytest.approx(direct.gamma, abs=1e-14)

    def test_visibility_never_exceeds_one(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            k = rng.integers(1, 6)
            p = rng.dirichlet(np.ones(k))
            g = rng.uniform(-math.pi, math.pi, k)
            assert sjoqvist_average(p, g).visibility <= 1.0 + 1e-12

    def test_visibility_one_iff_phases_align(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            base = rng.uniform(-math.pi, math.pi)
            aligned = base + 2 * math.pi * rng.integers(-3, 4, k)
            assert sjoqvist_average(p, aligned).visibility > 1.0 - 1e-12
            # two branches pulled apart by at least 0.1 rad with weight >= 0.1
            p2 = np.full(2, 0.5)
            split = np.array([base, base + rng.uniform(0.1, math.pi)])
            assert sjoqvist_average(p2, split).visibility < 1.0 - 1e-5

    def test_input_validation(self):
        with pytest.raises(DomainError):
            sjoqvist_average([0.5, 0.5], [0.0])
        with pytest.raises(DomainError):
            sjoqvist_average([], [])
        with pytest.raises(DomainError):
            sjoqvist_average([-0.1, 1.1], [0.0, 0.0])
        with pytest.raises(DomainError):
            sjoqvist_average([0.6, 0.6], [0.0, 0.0])


class TestQubitMixedPhase:
    def test_pure_state_gives_half_solid_angle(self):
        for omega in (0.4, math.pi / 2, 3.0, 5.0, -2.2):
            for sign in (1, -1):
                res = qubit_mixed_phase(1.0, omega, sign)
                assert res.visibility == pytest.approx(1.0, abs=1e-15)
                assert res.gamma == pytest.approx(
                    principal_angle(sign * omega / 2), abs=1e-12
                )

    def test_fully_mixed(self):
        for omega in (0.3, 1.0, 2.0):
            res = qubit_mixed_phase(0.0, omega)
            assert res.gamma == 0.0
            assert res.visibility == pytest.approx(abs(math.cos(omega / 2)), abs=1e-15)

    def test_fully_mixed_undefined_at_pi(self):
        res = qubit_mixed_phase(0.0, math.pi)
        assert not res.defined
        assert res.visibility == pytest.approx(0.0, abs=1e-9)

    def test_half_mixed_at_pi(self):
        res = qubit_mixed_phase(0.5, math.pi)
        assert abs(res.gamma) == pytest.approx(math.pi / 2, abs=1e-12)
        assert res.visibility == pytest.approx(0.5, abs=1e-12)

    def test_full_loop_gives_pi(self):
        for r in (0.0, 0.3, 1.0):
            res = qubit_mixed_phase(r, 2 * math.pi)
            assert res.gamma == pytest.approx(math.pi, abs=1e-12)
            assert res.visibility == pytest.approx(1.0, abs=1e-12)
        flipped = qubit_mixed_phase(0.3, 2 * math.pi, sign=-1)
        assert principal_angle(flipped.gamma - math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            r = rng.uniform(0, 1)
            omega = rng.uniform(-2 * math.pi, 2 * math.pi)
            res = qubit_mixed_phase(r, omega)
            expected = math.sqrt(
                math.cos(omega / 2) ** 2 + r**2 * math.sin(omega / 2) ** 2
            )
            assert res.visibility == pytest.approx(expected, abs=1e-14)

    def test_magnitude_monotone_in_purity(self):
        for omega in (0.3, math.pi / 2, 2.5):
            grid = np.linspace(0.0, 1.0, 201)
            gammas = [abs(qubit_mixed_phase(r, omega).gamma) for r in grid]
            assert np.all(np.diff(gammas) >= -1e-15)

    def test_orientation_covariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            r = rng.uniform(0.01, 1.0)
            omega = rng.uniform(0.01, 2 * math.pi - 0.01)
            plus = qubit_mixed_phase(r, omega)
            minus = qubit_mixed_phase(r, -omega)
            if plus.defined:
                assert minus.gamma == -plus.gamma

    def test_domain_errors(self):
        # a negative r is the mixture with its weights swapped: the phase
        # sign flips, bit for bit
        assert qubit_mixed_phase(-0.1, 1.0) == qubit_mixed_phase(0.1, 1.0, sign=-1)
        with pytest.raises(DomainError):
            qubit_mixed_phase(1.1, 1.0)
        with pytest.raises(DomainError):
            qubit_mixed_phase(0.5, 1.0, sign=2)


class TestSignedMixedPhase:
    def test_negative_purity_flips_phase(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            r = rng.uniform(0.05, 1.0)
            omega = rng.uniform(0.1, 2 * math.pi - 0.1)
            neg = qubit_mixed_phase(-r, omega)
            pos = qubit_mixed_phase(r, omega)
            assert neg.visibility == pos.visibility
            assert principal_angle(neg.gamma + pos.gamma) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_mixed_phase(-1.2, 1.0)

