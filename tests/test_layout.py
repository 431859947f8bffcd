"""The bits of every use of the two-spin layout, each against the literal
indexing of the basis |uu>, |ud>, |du>, |dd> (spin a leftmost), which this
file keeps as the oracle. Every comparison is by tobytes(), so that a signed
zero counts: == takes -0.0 for 0.0, and an embedding through np.kron, for
one, has -0.0 imaginary parts where the filled propagator has +0.0.
The spin labels, which qcore derives from the layout, are tested at every
site that reads one."""
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lunephase import experiment, pulse, qcore
from lunephase.conventions import Conventions
from lunephase.errors import DomainError, SequenceSyntaxError
from lunephase.pulse import Delay, FrameOffset, Rotation, SpinSystemParams, make_program
from lunephase.pulseprog import parse_sequence

# the literal layout: m_z of spin a and of spin b in each basis state
MA = np.array([0.5, 0.5, -0.5, -0.5])
MB = np.array([0.5, -0.5, 0.5, -0.5])
OFFSET_BOUND = 10 * 2 * math.pi * pulse.DEFAULT_J

rotations = st.builds(
    Rotation,
    st.sampled_from("ab"),
    st.one_of(st.sampled_from(["x", "-x", "y", "-y"]), st.floats(0.0, 2 * math.pi)),
    st.one_of(
        st.integers(-23, 24).map(lambda k: Fraction(k, 12)),
        st.floats(-6.28, 6.28),
    ),
)
# parts that make signed zeros meet: a -0.0 in both spin blocks of a 4x4
parts = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.5]), st.floats(-2.0, 2.0))


@st.composite
def hermitian(draw):
    """A Hermitian 4x4 whose upper entries are drawn part by part, so
    that -0.0 parts occur; each lower entry is its mirror's conjugate."""
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        m[i, i] = draw(parts)
        for j in range(i + 1, 4):
            m[i, j] = complex(draw(parts), draw(parts))
            m[j, i] = m[i, j].conjugate()
    return m


def literal_embedding(u, spin):
    full = np.zeros((4, 4), dtype=complex)
    if spin == "a":
        full[0::2, 0::2] = u
        full[1::2, 1::2] = u
    else:
        full[:2, :2] = u
        full[2:, 2:] = u
    return full


def literal_reduction(m, keep):
    blocks = m.reshape(2, 2, 2, 2)
    return blocks.trace(axis1=1, axis2=3) if keep == "a" else blocks.trace(axis1=0, axis2=2)


def packed(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestTwoSpinLayoutBits:
    @settings(max_examples=200, deadline=None)
    @given(ev=rotations, sense=st.sampled_from((1, -1)))
    # np.kron gives both examples -0.0 imaginary parts off the blocks
    @example(ev=Rotation("a", 0.7, 2.1), sense=1)
    @example(ev=Rotation("b", 0.7, 2.1), sense=-1)
    def test_pulse_unitary_is_the_literal_fill(self, ev, sense):
        u = qcore.rotation_unitary(ev.axis_vector(), sense * ev.flip_radians)
        assert pulse.pulse_unitary(ev, sense=sense).tobytes() == literal_embedding(
            u, ev.spin
        ).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        flips=st.lists(st.floats(-6.28, 6.28), min_size=0, max_size=3),
        halves=st.integers(0, 3),
        offsets=st.tuples(
            st.floats(-OFFSET_BOUND, OFFSET_BOUND), st.floats(-OFFSET_BOUND, OFFSET_BOUND)
        ),
        pulse_sense=st.sampled_from((1, -1)),
        iz_sign=st.sampled_from((1, -1)),
    )
    def test_branch_propagators_are_the_literal_blocks(
        self, flips, halves, offsets, pulse_sense, iz_sign
    ):
        events = [Rotation("b", "-x", f) for f in flips] + [Delay(per_j=Fraction(1, 2))] * halves
        prog = make_program(events, SpinSystemParams(*offsets))
        stretches = pulse._stretches(prog, pulse_sense, iz_sign)
        u = stretches[0][-1].product if stretches else qcore.identity4
        got = pulse.branch_propagators(prog, pulse_sense=pulse_sense, iz_sign=iz_sign)
        for block, want in zip(got, (u[:2, :2].copy(), u[2:, 2:].copy())):
            assert block.tobytes() == want.tobytes()
            assert block.flags.writeable and block.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi / 2),
        sense=st.sampled_from((1, -1)),
        active_up=st.booleans(),
    )
    def test_controlled_cycle_is_the_literal_fill(self, theta, sense, active_up):
        u_loop = experiment.lune_holonomy(theta, sense)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2], want[2:, 2:] = (
            (u_loop, qcore.identity2) if active_up else (qcore.identity2, u_loop)
        )
        got = experiment._controlled_cycle(theta, Conventions(sense, active_up))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(m=hermitian())
    def test_spin_a_coherence_reads_the_literal_entries(self, m):
        rho = qcore.DensityOperator(m, normalized=False)
        want = complex(rho.matrix[0, 2] + rho.matrix[1, 3])
        assert packed(experiment.spin_a_coherence(rho)) == packed(want)

    @settings(max_examples=300, deadline=None)
    @given(m=hermitian(), keep=st.sampled_from("ab"))
    def test_partial_trace_is_the_literal_reduction(self, m, keep):
        rho = qcore.DensityOperator(m, normalized=False)
        want = qcore._validated(literal_reduction(rho.matrix, keep), False)
        assert qcore.partial_trace(rho, keep).matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep", ["a", "b"])
    def test_partial_trace_of_states_is_the_literal_reduction(self, keep):
        rng = np.random.default_rng(33)
        for _ in range(200):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = qcore.DensityOperator(a @ a.conj().T / np.trace(a @ a.conj().T))
            want = qcore._validated(literal_reduction(rho.matrix, keep), True)
            assert qcore.partial_trace(rho, keep).matrix.tobytes() == want.tobytes()

    def test_relaxation_masks_are_the_literal_ones(self):
        assert qcore._DMA.tobytes() == np.abs(MA[:, None] - MA[None, :]).tobytes()
        assert qcore._DMB.tobytes() == np.abs(MB[:, None] - MB[None, :]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        m=hermitian(),
        t=st.floats(0.0, 1.0),
        t2=st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)),
    )
    def test_relaxation_decays_by_the_literal_masks(self, m, t, t2):
        rho = qcore.DensityOperator(m, normalized=False)
        dma = np.abs(MA[:, None] - MA[None, :])
        dmb = np.abs(MB[:, None] - MB[None, :])
        factors = np.exp(-(dma * t) / t2[0]) * np.exp(-(dmb * t) / t2[1])
        want = qcore._validated(rho.matrix * factors, False)
        assert pulse.apply_t2_relaxation(rho, t, *t2).matrix.tobytes() == want.tobytes()


STATE = qcore.DensityOperator(np.eye(4, dtype=complex) / 4)
SPIN_TEXT = "expected spin label 'a' or 'b', found 'c'"
# each site that reads a spin label: how it reads one, and how it refuses 'c'
SPIN_SITES = {
    "rotation": (lambda s: Rotation(s, "x", Fraction(1, 2)), "unknown spin label 'c'"),
    "frame-offset": (lambda s: FrameOffset(s, 1.0, "Hz"), "unknown spin label 'c'"),
    "pulse-line": (lambda s: parse_sequence(f"pulse {s} x 90deg"), f"1:7: {SPIN_TEXT}"),
    "frame-line": (lambda s: parse_sequence(f"frame {s} offset 1Hz"), f"1:7: {SPIN_TEXT}"),
    "partial-trace": (lambda s: qcore.partial_trace(STATE, s), "keep must be 'a' or 'b'"),
}


@pytest.mark.parametrize("spin", [*qcore._SPINS, "c"])
@pytest.mark.parametrize("site", sorted(SPIN_SITES))
def test_each_site_takes_the_spin_set(site, spin):
    read, message = SPIN_SITES[site]
    if spin in qcore._SPINS:
        read(spin)
    else:
        with pytest.raises((DomainError, SequenceSyntaxError)) as err:
            read(spin)
        assert str(err.value) == message


@pytest.mark.parametrize("site", ["rotation", "frame-offset", "partial-trace"])
def test_an_unhashable_label_is_a_domain_error(site):
    # the spin set is a tuple: membership of a list is False, not a TypeError
    with pytest.raises(DomainError):
        SPIN_SITES[site][0](["a"])
