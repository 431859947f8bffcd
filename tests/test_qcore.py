import dataclasses
import itertools
import math
import pickle
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_brute as oracle
from lunephase import qcore
from lunephase.errors import DomainError
from lunephase.experiment import prepare_pure_program, thermal_state
from lunephase.policy import POLICY
from lunephase.pulse import run_sequence
from lunephase.qcore import (
    DensityOperator,
    _conjugate,
    is_unitary,
    partial_trace,
    principal_angle,
    rotation_unitary,
    tensor,
)

X, Y, Z, I2 = qcore.pauli_x, qcore.pauli_y, qcore.pauli_z, qcore.identity2


def bloch_state(v):
    """Single-spin state (1 + v.sigma)/2 of a Bloch vector v."""
    return DensityOperator(0.5 * (I2 + qcore.sigma_dot(v)))


def bloch_vector(rho):
    """Bloch components tr(rho sigma_k) of a single-spin state."""
    return np.array([np.trace(rho.matrix @ s).real for s in (X, Y, Z)])


def random_qubit_state(rng):
    v = rng.normal(size=3)
    v *= rng.uniform(0, 1) / np.linalg.norm(v)
    return bloch_state(v)


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


unit_axes = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: tuple(np.asarray(v) / np.linalg.norm(v))),
)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityOperator(np.diag([1.2, -0.2]).astype(complex))

    def test_deviation_operator_skips_state_checks(self):
        dev = DensityOperator(np.diag([5.0, -3.0, 3.0, -5.0]).astype(complex), normalized=False)
        assert dev.dim == 4

    def test_matrix_is_read_only(self):
        rho = bloch_state([0, 0, 1])
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_states_are_slotted_and_frozen(self):
        rho = DensityOperator(random_state(np.random.default_rng(5)))
        assert not hasattr(rho, "__dict__")
        for name, value in (("matrix", np.eye(4) / 4), ("normalized", False)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rho, name, value)
        # no slot, no store; the error type depends on the Python version
        # (a frozen slotted dataclass raises TypeError on 3.11)
        with pytest.raises((AttributeError, TypeError)):
            rho.extra = 1
        assert not hasattr(rho, "extra")

    @pytest.mark.parametrize("normalized", [True, False])
    def test_wrapped_states_equal_constructed_ones(self, normalized):
        rng = np.random.default_rng(7)
        stack = np.array([random_state(rng) for _ in range(3)])
        built = [DensityOperator(m, normalized=normalized) for m in stack]
        # one checked matrix, and each slice of a checked stack
        checked = [qcore._validated(stack[0], normalized), *qcore._validated(stack, normalized)]
        for m, want in zip(checked, [built[0], *built]):
            got = DensityOperator._wrap(m, normalized)
            assert type(got) is DensityOperator and not hasattr(got, "__dict__")
            assert got.matrix is m
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.normalized is normalized
            assert not got.matrix.flags.writeable

    def test_pickle_round_trip_and_replace(self):
        rho = DensityOperator(random_state(np.random.default_rng(11)))
        back = pickle.loads(pickle.dumps(rho))
        assert type(back) is DensityOperator
        assert back.matrix.tobytes() == rho.matrix.tobytes() and back.normalized is True
        # rebuilt through the constructor: read-only, and checked again
        assert not back.matrix.flags.writeable
        forged = pickle.dumps(rho).replace(rho.matrix.tobytes(), (2 * rho.matrix).tobytes())
        with pytest.raises(DomainError, match="unit trace"):
            pickle.loads(forged)
        deviation = dataclasses.replace(rho, matrix=rho.matrix - np.eye(4) / 4, normalized=False)
        assert deviation.normalized is False and not deviation.matrix.flags.writeable
        back = pickle.loads(pickle.dumps(deviation))
        assert back.matrix.tobytes() == deviation.matrix.tobytes() and back.normalized is False
        assert not back.matrix.flags.writeable
        # replace builds through __init__, so the new state is checked again
        with pytest.raises(DomainError, match="unit trace"):
            dataclasses.replace(rho, matrix=2 * rho.matrix)

    def test_states_compare_by_identity_and_hash(self):
        rho = DensityOperator(np.eye(4) / 4)
        copy = DensityOperator(np.eye(4) / 4)
        assert copy.matrix.tobytes() == rho.matrix.tobytes()
        assert rho == rho and not rho != rho
        assert rho != copy and not rho == copy
        # both hash, so a set holds each, once
        assert len({rho, copy, rho}) == 2


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_ordering_puts_a_leftmost(self):
        assert np.allclose(np.diag(tensor(Z, I2)), [1, 1, -1, -1])
        assert np.allclose(np.diag(tensor(I2, Z)), [1, -1, 1, -1])

    def test_projector_product(self):
        # tensor of +x projectors is flat: all sixteen entries 1/4
        p = 0.5 * (I2 + X)
        assert np.allclose(tensor(p, p), np.full((4, 4), 0.25), atol=1e-15)

    def test_rejects_wrong_dim(self):
        with pytest.raises(DomainError):
            tensor(np.eye(4), I2)


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho_a, rho_b = random_qubit_state(rng), random_qubit_state(rng)
            joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix))
            assert np.allclose(partial_trace(joint, "a").matrix, rho_a.matrix, atol=1e-14)
            assert np.allclose(partial_trace(joint, "b").matrix, rho_b.matrix, atol=1e-14)

    def test_maximally_mixed(self):
        joint = DensityOperator(np.eye(4, dtype=complex) / 4)
        assert np.allclose(partial_trace(joint, "a").matrix, I2 / 2)

    def test_bell_projector_reduces_to_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        bell = DensityOperator(np.outer(psi, psi.conj()))
        assert np.allclose(partial_trace(bell, "a").matrix, I2 / 2, atol=1e-15)
        assert np.allclose(partial_trace(bell, "b").matrix, I2 / 2, atol=1e-15)

    def test_rejects_bad_label(self):
        joint = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DomainError):
            partial_trace(joint, "c")


class TestRotationUnitary:
    def test_zero_angle(self):
        assert np.allclose(rotation_unitary([1, 0, 0], 0.0), I2)

    def test_pi_pulse(self):
        assert np.allclose(rotation_unitary([1, 0, 0], math.pi), -1j * X, atol=1e-15)

    def test_z_quarter_turn(self):
        expected = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        assert np.allclose(rotation_unitary([0, 0, 1], math.pi / 2), expected, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        axis=unit_axes,
        angle=st.floats(-2 * math.pi, 2 * math.pi).filter(lambda a: a > -2 * math.pi),
    )
    def test_matches_cos_minus_i_sin_sigma_dot(self, axis, angle):
        n = np.asarray(axis) / np.linalg.norm(axis)
        want = math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * qcore.sigma_dot(n)
        assert np.max(np.abs(rotation_unitary(axis, angle) - want)) <= 1e-15

    def test_rejects_non_unit_axis(self):
        with pytest.raises(DomainError):
            rotation_unitary([2, 0, 0], 1.0)

    def test_unitary_and_special(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = rotation_unitary(n, rng.uniform(-4 * math.pi, 4 * math.pi))
            assert np.max(np.abs(u.conj().T @ u - I2)) <= 1e-12
            assert abs(np.linalg.det(u) - 1) <= 1e-12

    def test_rotates_bloch_vector_right_handed(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rotated = bloch_vector(DensityOperator(
                oracle.conj(bloch_state(v).matrix, rotation_unitary(n, alpha))
            ))
            # Rodrigues formula for rotation by alpha about n
            expected = (
                v * math.cos(alpha)
                + np.cross(n, v) * math.sin(alpha)
                + n * np.dot(n, v) * (1 - math.cos(alpha))
            )
            assert np.allclose(rotated, expected, atol=1e-12)


class TestEvolve:
    """Unitary evolution u rho u^dagger through the one kernel, _conjugate."""

    def test_identity(self):
        rho = bloch_state([0.3, 0.2, -0.4])
        assert np.allclose(_conjugate(rho, np.eye(2)), rho.matrix)

    def test_spin_flip(self):
        up = bloch_state([0, 0, 1])
        down = _conjugate(up, rotation_unitary([1, 0, 0], math.pi))
        assert np.allclose(down, np.diag([0, 1]), atol=1e-15)

    def test_z_rotation_carries_x_to_y(self):
        rho = DensityOperator(0.5 * (I2 + X))
        out = _conjugate(rho, rotation_unitary([0, 0, 1], math.pi / 2))
        assert np.allclose(out, 0.5 * (I2 + Y), atol=1e-15)

    def test_preserves_spectrum_and_purity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            rho = random_qubit_state(rng)
            u = random_unitary(rng)
            out = _conjugate(rho, u)
            assert abs(np.trace(out) - 1) <= 1e-10
            assert np.allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.matrix), atol=1e-10
            )
            assert abs(
                np.linalg.norm(bloch_vector(DensityOperator(out)))
                - np.linalg.norm(bloch_vector(rho))
            ) <= 1e-10

    def test_stack_gives_each_state_of_its_slice(self):
        # one slice, and the stacks of recorded cycles at 16, 32, 64 and 128
        # samples per delay: 2s + 2 slices for two pulses and two delays
        rng = np.random.default_rng(37)
        for size, dim, normalized in itertools.product(
            (1, 34, 66, 130, 258), (2, 4), (True, False)
        ):
            m = random_state(rng, dim)
            if not normalized:
                m = m - np.eye(dim) / dim
            rho = DensityOperator(m, normalized=normalized)
            stack = np.stack([random_unitary(rng, dim) for _ in range(size)])
            states = _conjugate(rho, stack)
            assert states.shape == stack.shape and not states.flags.writeable
            for u, m in zip(stack, states):
                assert m.tobytes() == _conjugate(rho, u).tobytes()
                want = DensityOperator(oracle.conj(rho.matrix, u), normalized)
                assert m.tobytes() == want.matrix.tobytes()
                assert np.array_equal(m, m.conj().T)


def deviate(m, kind):
    """m pushed 1e-9 beyond one state tolerance."""
    m = m.copy()
    if kind == "hermiticity":
        m[1, 0] += POLICY.hermiticity_tol + 1e-9
    elif kind == "trace":
        m *= 1 + POLICY.trace_tol + 1e-9
    else:
        w, v = np.linalg.eigh(m)
        w[0] = POLICY.eigenvalue_floor - 1e-9
        w[1:] += (1 - w.sum()) / (len(w) - 1)
        m = (v * w) @ v.conj().T
    return m


class TestStackedValidation:
    @pytest.mark.parametrize("kind", ["hermiticity", "trace", "eigenvalue"])
    def test_stack_is_refused_when_any_one_member_is(self, kind):
        rng = np.random.default_rng(43)
        for dim in (2, 4):
            stack = np.stack([random_state(rng, dim) for _ in range(5)])
            qcore._validated(stack, True)
            for k in range(len(stack)):
                bad = stack.copy()
                bad[k] = deviate(bad[k], kind)
                with pytest.raises(DomainError):
                    DensityOperator(bad[k])
                with pytest.raises(DomainError):
                    qcore._validated(bad, True)
                qcore._validated(np.delete(bad, k, axis=0), True)

    def test_stack_verdict_is_every_member_verdict(self):
        rng = np.random.default_rng(47)
        kinds = ["hermiticity", "trace", "eigenvalue", None]
        for _ in range(100):
            stack = np.stack([random_state(rng) for _ in range(3)])
            kind = kinds[rng.integers(len(kinds))]
            if kind is not None:
                k = rng.integers(3)
                stack[k] = deviate(stack[k], kind)
            for normalized in (True, False):
                verdicts = []
                for m in stack:
                    try:
                        DensityOperator(m, normalized=normalized)
                        verdicts.append(True)
                    except DomainError:
                        verdicts.append(False)
                try:
                    qcore._validated(stack, normalized)
                    verdict = True
                except DomainError:
                    verdict = False
                assert verdict == all(verdicts)

    def test_result_is_symmetrized_and_read_only(self):
        rng = np.random.default_rng(53)
        stack = np.stack([random_state(rng) for _ in range(3)])
        stack[:, 0, 1] += 1e-13
        out = qcore._validated(stack, True)
        assert not out.flags.writeable
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        for m, single in zip(out, stack):
            assert np.array_equal(m, DensityOperator(single).matrix)

    def test_result_has_the_bits_of_the_mean_with_the_adjoint(self):
        # Hermitian within tolerance only: each entry off by up to 1e-13
        rng = np.random.default_rng(59)
        for shape, dim, normalized in itertools.product(
            ((), (1,), (7,), (258,)), (2, 4), (True, False)
        ):
            m = np.stack([random_state(rng, dim) for _ in range(math.prod(shape) or 1)])
            m = m.reshape(*shape, dim, dim) if shape else m[0]
            if not normalized:
                m = m - np.eye(dim) / dim
            noise = rng.uniform(-1e-13, 1e-13, size=(2, *m.shape))
            m = m + noise[0] + 1j * noise[1]
            want = 0.5 * (m + m.conj().swapaxes(-1, -2))
            assert qcore._validated(m, normalized).tobytes() == want.tobytes()


def anti_hermitian_by(m, deviation):
    """m with m[0, 1] moved by deviation, so that |m - m^dagger| peaks there."""
    m = np.array(m, dtype=complex)
    m[0, 1] += deviation
    return m


class TestHermiticityScale:
    """The Hermiticity tolerance is absolute up to unit scale and relative
    above it, matrix by matrix: a deviation operator has no natural scale."""

    @pytest.mark.parametrize("k", [1e4, 1e8])
    def test_scaled_deviation_runs_like_the_unscaled_one(self, k):
        # at 1e4 an absolute 1e-12 refused the run's rounding
        def run(scale):
            rho = DensityOperator(thermal_state().matrix * scale, normalized=False)
            return run_sequence(rho, prepare_pure_program(), pulse_sense=-1)[0].matrix

        unit, scaled = run(1.0), run(k)
        assert np.max(np.abs(scaled - k * unit)) <= 1e-12 * k * np.max(np.abs(unit))

    def test_slack_grows_with_the_largest_entry(self):
        dev = np.diag([1e4, -1e4, 0.5, -0.5]).astype(complex)
        DensityOperator(anti_hermitian_by(dev, 5e-9), normalized=False)
        with pytest.raises(DomainError, match="not Hermitian"):
            DensityOperator(anti_hermitian_by(dev, 2e-8), normalized=False)

    def test_scale_is_taken_per_matrix(self):
        rng = np.random.default_rng(67)
        large = 1e6 * (random_state(rng) - np.eye(4) / 4)
        small = anti_hermitian_by(random_state(rng) - np.eye(4) / 4, 2e-12)
        qcore._validated(large, False)
        for stack in (np.stack([large, small]), np.stack([small, large])):
            with pytest.raises(DomainError, match="not Hermitian"):
                qcore._validated(stack, False)

    def test_nan_is_still_refused(self):
        large = 1e6 * np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        for i, j in [(0, 0), (0, 1)]:
            bad = large.copy()
            bad[i, j] = math.nan
            for normalized in (True, False):
                with pytest.raises(DomainError, match="not Hermitian"):
                    qcore._validated(np.stack([large, bad]), normalized)

    def test_normalized_states_get_no_slack(self):
        # a state's entries are at most 1 in magnitude, so its scale is 1
        rng = np.random.default_rng(71)
        for dim in (2, 4):
            state = random_state(rng, dim)
            DensityOperator(anti_hermitian_by(state, 5e-13))
            with pytest.raises(DomainError, match="not Hermitian"):
                DensityOperator(anti_hermitian_by(state, 2e-12))


def eigvalsh_verdict(stack):
    """The eigenvalue gate that the Cholesky factorization replaced: whether
    no member of the stack has an eigenvalue below the floor."""
    return bool(np.linalg.eigvalsh(stack).min() >= POLICY.eigenvalue_floor)


def gate_verdict(m):
    """Whether qcore._validated passes m as a normalized state."""
    try:
        qcore._validated(m, True)
    except DomainError:
        return False
    return True


def state_with_lowest(lowest, dim, rng):
    """A unit-trace state with lowest as its smallest eigenvalue, in a
    random eigenbasis."""
    rest = rng.uniform(0.01, 1.0, size=dim - 1)
    w = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    v = random_unitary(rng, dim)
    return (v * w) @ v.conj().T


# within 1e-9 of the floor, but not within rounding (1e-13) of it
near_floor = (
    st.floats(-1e-9, 1e-9)
    .filter(lambda d: abs(d) >= 1e-13)
    .map(lambda d: POLICY.eigenvalue_floor + d)
)


class TestPositivityGate:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from((2, 4)),
        lowest=st.lists(near_floor, min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cholesky_gives_the_eigvalsh_verdict(self, dim, lowest, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([state_with_lowest(w, dim, rng) for w in lowest])
        for m in stack:
            assert gate_verdict(m) == eigvalsh_verdict(m)
        assert gate_verdict(stack) == eigvalsh_verdict(stack)

    def test_the_certificate_margin_holds_for_the_policy(self):
        # a stack's start state that clears f/2 certifies every slice (see
        # _conjugate): (f/2)(1 + 6 tau) bounds each slice's smallest
        # eigenvalue, the products and the symmetrization move it by under
        # 1e-13, and what is left above f must clear 4.9e-11
        f, tau = POLICY.eigenvalue_floor, POLICY.unitarity_tol
        assert f < 0
        assert (f / 2) * (1 + 6 * tau) - 1e-13 - f > 4.9e-11

    def test_pure_states_pass(self):
        # three zero eigenvalues (one for a qubit) sit 1e-10 above the floor
        rng = np.random.default_rng(59)
        for dim in (2, 4):
            kets = [np.eye(dim)[k] for k in range(dim)]
            for _ in range(20):
                a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                kets.append(a / np.linalg.norm(a))
            pure = np.stack([np.outer(k, k.conj()).astype(complex) for k in kets])
            for m in pure:
                DensityOperator(m)
            qcore._validated(pure, True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_states_are_refused(self, value):
        # the constructor refuses a non-finite entry before any arithmetic,
        # so with no warning. On a computed stack the factorization alone
        # would pass a NaN state; the Hermiticity check ahead of it refuses
        # every non-finite one, and inf - inf in its deviation makes numpy
        # warn before the refusal.
        rng = np.random.default_rng(61)
        for dim in (2, 4):
            stack = np.stack([random_state(rng, dim) for _ in range(3)])
            for i, j in [(0, 0), (dim - 1, dim - 1), (0, 1)]:
                for k in range(len(stack)):
                    bad = stack.copy()
                    bad[k, i, j] = bad[k, j, i] = value
                    for normalized in (True, False):
                        with pytest.raises(DomainError, match="entries must be finite"):
                            DensityOperator(bad[k], normalized=normalized)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        with pytest.raises(DomainError, match="not Hermitian"):
                            qcore._validated(bad, True)

    @pytest.mark.parametrize("normalized", [True, False])
    def test_entries_that_would_overflow_are_refused(self, normalized):
        # a sum of two such entries overflows in the symmetrization or in
        # the Hermiticity deviation; both are refused before any arithmetic
        diagonal = np.diag([1e308, -1e308, 0, 0]).astype(complex)
        anti_hermitian = np.zeros((4, 4), dtype=complex)
        anti_hermitian[0, 1], anti_hermitian[1, 0] = 1e308, -1e308
        for m in (diagonal, anti_hermitian):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="^density matrix entries must be finite"):
                    DensityOperator(m, normalized=normalized)

    def test_entries_at_the_bound_are_stored_finite(self):
        bound = qcore._ENTRY_BOUND
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1] = bound, -bound
        m[0, 1], m[1, 0] = complex(bound, bound), complex(bound, -bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = DensityOperator(m, normalized=False)
        assert np.isfinite(rho.matrix).all()
        assert rho.matrix.tobytes() == m.tobytes()
        with pytest.raises(DomainError, match="^density matrix entries must be finite"):
            DensityOperator(np.nextafter(m.real, np.inf), normalized=False)


class TestIsUnitary:
    def test_stack_fails_when_any_one_matrix_is_off(self):
        rng = np.random.default_rng(29)
        for dim in (2, 4):
            stack = np.stack([random_unitary(rng, dim) for _ in range(5)])
            assert is_unitary(stack)
            for k in range(len(stack)):
                bad = stack.copy()
                bad[k, 1, 0] += 1e-9
                assert not is_unitary(bad)
                assert is_unitary(np.delete(bad, k, axis=0))

    def test_stack_verdict_is_every_matrix_verdict(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            stack = np.stack([random_unitary(rng, 4) for _ in range(3)])
            stack[rng.integers(3)] *= 1 + rng.choice([0.0, 5e-11, 2e-10])
            assert is_unitary(stack) == all(is_unitary(u) for u in stack)

    def test_rejects_non_square_shapes(self):
        assert not is_unitary(np.eye(4)[:3])
        assert not is_unitary(np.ones(4))
        assert not is_unitary(np.ones((2, 2, 2, 2)))

    def test_only_one_and_two_spin_sizes(self):
        for dim in (1, 3, 8):
            assert not is_unitary(np.eye(dim))
            assert not is_unitary(np.eye(dim)[None])

    def test_empty_stack_is_not_unitary(self):
        assert not is_unitary(np.zeros((0, 4, 4)))
        assert not is_unitary(np.zeros((0, 0)))

    def test_input_that_is_no_complex_array_is_not_unitary(self):
        # numpy refuses a ragged list and text as complex arrays
        assert is_unitary([[1, 0], [0]]) is False
        assert is_unitary("ab") is False


class TestPrincipalAngle:
    def test_interval_and_fixed_points(self):
        assert principal_angle(math.pi) == pytest.approx(math.pi)
        assert principal_angle(-math.pi) == pytest.approx(math.pi)
        assert principal_angle(3 * math.pi) == pytest.approx(math.pi)
        assert principal_angle(0.25) == pytest.approx(0.25)

    def test_wraps_into_half_open_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = rng.uniform(-50, 50)
            w = principal_angle(x)
            assert -math.pi < w <= math.pi
            assert math.remainder(w - x, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


# real inputs of every type the package meets, the non-finite floats included
reals = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, True, False]),
    st.floats(),
    st.integers(-(2**1000), 2**1000),
    st.fractions(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
# inputs that are no real number, and numbers past the floats
no_reals = st.one_of(
    st.text(max_size=4),
    st.binary(max_size=4),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.none(),
    st.lists(st.floats(), max_size=2),
    st.sampled_from([10**400, -(10**400), Fraction(10**400), Fraction(-(10**400), 3)]),
)
owners = st.sampled_from([None, qcore.DensityOperator(I2 / 2)])


class TestCheckReal:
    @settings(max_examples=300, deadline=None)
    @given(value=reals, owner=owners)
    def test_a_real_is_its_float_bit_for_bit(self, value, owner):
        got = qcore._check_real(value, "x", owner)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", float(value))

    @settings(max_examples=300, deadline=None)
    @given(value=no_reals, owner=owners)
    def test_no_real_is_refused_by_name(self, value, owner):
        name = "x" if owner is None else "DensityOperator.x"
        problem = "fit a float" if isinstance(value, (int, Fraction)) else "be a real number"
        with pytest.raises(DomainError, match=f"^{name} must {problem}$"):
            qcore._check_real(value, "x", owner)
