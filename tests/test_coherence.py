"""Tests for the coherence measures, their bounds, and the brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naqc.coherence import (
    EPSILON_L1,
    EPSILON_RELENT,
    EPSILON_SKEW,
    CoherenceTriple,
    Measure,
    binary_entropy,
    c_l1,
    c_relent,
    c_skew,
    coherence_triple,
)
from naqc.qcore import (
    BlochQubit,
    ConsistencyError,
    eig_hermitian,
    pauli,
    projector,
    qubit_of_bloch,
    sqrt_psd,
)

SYMMETRIC = BlochQubit(np.ones(3) / np.sqrt(3))

ALL_MEASURES = list(Measure)


def ball_vector(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v if pure else v * rng.uniform() ** (1 / 3)


def vn_entropy(mat: np.ndarray) -> float:
    w, _ = eig_hermitian(mat)
    return float(-sum(x * math.log2(x) for x in w if x > 1e-15))


class TestBinaryEntropy:
    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)


class TestBounds:
    def test_epsilon_values(self):
        assert EPSILON_L1 == math.sqrt(6.0)
        assert EPSILON_SKEW == 2.0
        assert EPSILON_RELENT == 3.0 * binary_entropy((1 + 1 / math.sqrt(3)) / 2)
        # published rounding of the relative-entropy bound
        assert round(EPSILON_RELENT, 2) == 2.23

    def test_measure_enum_carries_bounds(self):
        assert Measure.L1.epsilon == EPSILON_L1
        assert Measure.RELATIVE_ENTROPY.epsilon == EPSILON_RELENT
        assert Measure.SKEW_INFORMATION.epsilon == EPSILON_SKEW
        assert Measure("l1") is Measure.L1


class TestL1:
    def test_eigenstate_of_measured_basis(self):
        assert c_l1(BlochQubit(np.array([0.0, 0.0, 1.0])), 3) == 0.0

    def test_plus_state_in_z_basis(self):
        assert c_l1(BlochQubit(np.array([1.0, 0.0, 0.0])), 3) == pytest.approx(1.0)

    def test_symmetric_state_saturates(self):
        for axis in (1, 2, 3):
            assert c_l1(SYMMETRIC, axis) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        total = coherence_triple(SYMMETRIC, Measure.L1).total
        assert total == pytest.approx(EPSILON_L1, abs=1e-12)

    def test_equals_offdiagonal_moduli_sum(self):
        # oracle: rotate the density matrix into the measured eigenbasis and
        # sum |off-diagonal| entries directly
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = BlochQubit(ball_vector(rng))
            rho = qubit_of_bloch(state).matrix
            for axis in (1, 2, 3):
                _, basis = eig_hermitian(pauli(axis))
                in_basis = basis.conj().T @ rho @ basis
                oracle = abs(in_basis[0, 1]) + abs(in_basis[1, 0])
                assert c_l1(state, axis) == pytest.approx(oracle, abs=1e-10)


class TestRelativeEntropy:
    def test_maximally_mixed_is_incoherent(self):
        for axis in (1, 2, 3):
            assert c_relent(BlochQubit(np.zeros(3)), axis) == 0.0

    def test_plus_state_in_z_basis_is_one_bit(self):
        assert c_relent(BlochQubit(np.array([1.0, 0.0, 0.0])), 3) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_axis_aligned_state_is_incoherent(self):
        assert c_relent(BlochQubit(np.array([0.0, 0.0, 0.7])), 3) == 0.0

    def test_symmetric_state_saturates(self):
        total = coherence_triple(SYMMETRIC, Measure.RELATIVE_ENTROPY).total
        assert total == pytest.approx(EPSILON_RELENT, abs=1e-12)

    def test_matches_entropy_difference_oracle(self):
        # oracle: S(dephased) - S(rho) computed by eigendecomposition
        rng = np.random.default_rng(5)
        for _ in range(1000):
            state = BlochQubit(ball_vector(rng))
            rho = qubit_of_bloch(state).matrix
            for axis in (1, 2, 3):
                dephased = (
                    projector(axis, 0) @ rho @ projector(axis, 0)
                    + projector(axis, 1) @ rho @ projector(axis, 1)
                )
                oracle = vn_entropy(dephased) - vn_entropy(rho)
                assert c_relent(state, axis) == pytest.approx(oracle, abs=1e-10)


class TestSkewInformation:
    def test_maximally_mixed_commutes(self):
        for axis in (1, 2, 3):
            assert c_skew(BlochQubit(np.zeros(3)), axis) == 0.0

    def test_pure_state_equals_variance(self):
        assert c_skew(BlochQubit(np.array([0.0, 0.0, 1.0])), 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_pure_states_saturate(self):
        # tolerance 1e-7: normalization error of order 1e-16 enters the
        # closed form through sqrt(lam_minus)
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = BlochQubit(ball_vector(rng, pure=True))
            total = coherence_triple(state, Measure.SKEW_INFORMATION).total
            assert total == pytest.approx(EPSILON_SKEW, abs=1e-7)

    def test_symmetric_pure_state_saturates_exactly(self):
        total = coherence_triple(SYMMETRIC, Measure.SKEW_INFORMATION).total
        assert total == pytest.approx(EPSILON_SKEW, abs=1e-12)

    def test_matches_commutator_oracle(self):
        # oracle: -(1/2) Tr([sqrt(rho), sigma_axis]^2)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            state = BlochQubit(ball_vector(rng))
            root = sqrt_psd(qubit_of_bloch(state))
            for axis in (1, 2, 3):
                comm = root @ pauli(axis) - pauli(axis) @ root
                oracle = float(np.real(-0.5 * np.trace(comm @ comm)))
                assert c_skew(state, axis) == pytest.approx(oracle, abs=1e-10)


class TestCoherenceTriple:
    def test_z_eigenstate_l1_components(self):
        triple = coherence_triple(BlochQubit(np.array([0.0, 0.0, 1.0])), Measure.L1)
        np.testing.assert_allclose(triple.values, [1.0, 1.0, 0.0], atol=1e-15)

    def test_maximally_mixed_all_measures(self):
        for measure in ALL_MEASURES:
            triple = coherence_triple(BlochQubit(np.zeros(3)), measure)
            np.testing.assert_array_equal(triple.values, np.zeros(3))

    def test_sum_breach_is_a_consistency_error(self):
        with pytest.raises(ConsistencyError):
            CoherenceTriple(np.array([1.0, 1.0, 1.0]), Measure.L1)
        with pytest.raises(ConsistencyError):
            CoherenceTriple(np.array([-0.1, 0.0, 0.0]), Measure.L1)

    def test_nan_is_a_consistency_error(self):
        with pytest.raises(ConsistencyError):
            CoherenceTriple(np.array([np.nan, 0.0, 0.0]), Measure.L1)


class TestComplementarity:
    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_bound_holds_on_random_states(self, measure):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            state = BlochQubit(ball_vector(rng))
            assert coherence_triple(state, measure).total <= measure.epsilon + 1e-9

    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_supremum_is_approached_by_pure_states(self, measure):
        rng = np.random.default_rng(77)
        best = 0.0
        for _ in range(100_000):
            state = BlochQubit(ball_vector(rng, pure=True))
            best = max(best, coherence_triple(state, measure).total)
            if best >= measure.epsilon - 1e-2:
                break
        assert best >= measure.epsilon - 1e-2


class TestRotationInvariance:
    """Coherence at axis i only sees r_i and the transverse magnitude."""

    @staticmethod
    def rotate_about(r: np.ndarray, axis: int, angle: float) -> np.ndarray:
        k = np.zeros(3)
        k[axis - 1] = 1.0
        return (
            r * np.cos(angle)
            + np.cross(k, r) * np.sin(angle)
            + k * np.dot(k, r) * (1 - np.cos(angle))
        )

    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_invariant_under_rotation_about_measured_axis(self, measure):
        rng = np.random.default_rng(55)
        for _ in range(100):
            r = ball_vector(rng)
            angle = rng.uniform(0, 2 * np.pi)
            for axis in (1, 2, 3):
                before = measure.coherence(BlochQubit(r), axis)
                after = measure.coherence(
                    BlochQubit(self.rotate_about(r, axis, angle)), axis
                )
                assert after == pytest.approx(before, abs=1e-10)


@st.composite
def bloch_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    norm = np.linalg.norm(v)
    if norm > 1.0:
        v = v / norm
    return v


@given(bloch_vectors())
@settings(max_examples=200, derandomize=True)
def test_triple_sum_bounded_for_arbitrary_states(r):
    state = BlochQubit(r)
    for measure in ALL_MEASURES:
        triple = coherence_triple(state, measure)
        assert triple.total <= measure.epsilon + 1e-9
        assert float(triple.values.min()) >= 0.0


@given(st.floats(0, 1))
@settings(max_examples=200, derandomize=True)
def test_binary_entropy_range(p):
    assert 0.0 <= binary_entropy(p) <= 1.0
