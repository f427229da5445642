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
    coherence_triple,
)
from naqc.qcore import BlochQubit, ConsistencyError, _norm, pauli, projector
from naqc.states import random_bloch_qubit_vector
from oracles import eig_hermitian, qubit_of_bloch

SYMMETRIC = BlochQubit(np.ones(3) / np.sqrt(3))

ALL_MEASURES = list(Measure)
L1, RELENT, SKEW = ALL_MEASURES


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    """A pure state's Bloch vector: the direction ``random_bloch_qubit_vector``
    draws, without its radius."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def at_axis(measure: Measure, state: BlochQubit, axis: int) -> float:
    """One measure at one Pauli axis, read from the triple of all three."""
    return coherence_triple(state, measure).values[axis - 1]


def vn_entropy(mat: np.ndarray) -> float:
    w, _ = eig_hermitian(mat)
    return float(-sum(x * math.log2(x) for x in w if x > 1e-15))


class TestBinaryEntropy:
    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    @pytest.mark.parametrize(
        "p, message",
        [(True, "be a number"), (np.True_, "be a number"), ("0.5", "be a number"),
         (1.5, "lie in"), (2, "lie in"), (-3.0, "lie in"), (np.nan, "lie in")],
    )  # fmt: skip
    def test_refuses_bools_and_p_outside_the_unit_interval(self, p, message):
        with pytest.raises(ValueError, match=f"p must {message}"):
            binary_entropy(p)

    def test_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)

    def test_bits_of_the_relent_measure(self):
        """At r = (x, 0, 0) the relent value on the z axis is 1 - h2((1 + x)/2):
        the scalar function and the batch measure agree bit for bit, and
        EPSILON_RELENT keeps its bits."""
        x = np.random.default_rng(23).uniform(0, 1, 20_000)
        r = np.zeros((x.size, 3))
        r[:, 0] = x
        scalar = [max(0.0, 1.0 - binary_entropy((1.0 + v) / 2.0)) for v in x.tolist()]
        assert np.array_equal(scalar, RELENT.evaluate(r, x)[:, 2])
        assert EPSILON_RELENT.hex() == "0x1.1db2eb16e3235p+1"

    @pytest.mark.parametrize(
        "p, bits", [(0.0, "0x0.0p+0"), (1.0, "0x0.0p+0"), (0.3, "0x1.c3388f8ceaa0ap-1")]
    )
    def test_pinned_bits_and_type(self, p, bits):
        value = binary_entropy(p)
        assert type(value) is float and value.hex() == bits


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
        assert at_axis(L1, BlochQubit(np.array([0.0, 0.0, 1.0])), 3) == 0.0

    def test_plus_state_in_z_basis(self):
        assert at_axis(L1, BlochQubit(np.array([1.0, 0.0, 0.0])), 3) == pytest.approx(1.0)

    def test_symmetric_state_saturates(self):
        for axis in (1, 2, 3):
            assert at_axis(L1, SYMMETRIC, axis) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        total = coherence_triple(SYMMETRIC, Measure.L1).total
        assert total == pytest.approx(EPSILON_L1, abs=1e-12)

    def test_equals_offdiagonal_moduli_sum(self):
        # oracle: rotate the density matrix into the measured eigenbasis and
        # sum |off-diagonal| entries directly
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = BlochQubit(random_bloch_qubit_vector(rng))
            rho = qubit_of_bloch(state).matrix
            for axis in (1, 2, 3):
                _, basis = eig_hermitian(pauli(axis))
                in_basis = basis.conj().T @ rho @ basis
                oracle = abs(in_basis[0, 1]) + abs(in_basis[1, 0])
                assert at_axis(L1, state, axis) == pytest.approx(oracle, abs=1e-10)


class TestRelativeEntropy:
    def test_maximally_mixed_is_incoherent(self):
        for axis in (1, 2, 3):
            assert at_axis(RELENT, BlochQubit(np.zeros(3)), axis) == 0.0

    def test_plus_state_in_z_basis_is_one_bit(self):
        assert at_axis(RELENT, BlochQubit(np.array([1.0, 0.0, 0.0])), 3) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_axis_aligned_state_is_incoherent(self):
        assert at_axis(RELENT, BlochQubit(np.array([0.0, 0.0, 0.7])), 3) == 0.0

    def test_symmetric_state_saturates(self):
        total = coherence_triple(SYMMETRIC, Measure.RELATIVE_ENTROPY).total
        assert total == pytest.approx(EPSILON_RELENT, abs=1e-12)

    def test_matches_entropy_difference_oracle(self):
        # oracle: S(dephased) - S(rho) computed by eigendecomposition
        rng = np.random.default_rng(5)
        for _ in range(1000):
            state = BlochQubit(random_bloch_qubit_vector(rng))
            rho = qubit_of_bloch(state).matrix
            for axis in (1, 2, 3):
                dephased = (
                    projector(axis, 0) @ rho @ projector(axis, 0)
                    + projector(axis, 1) @ rho @ projector(axis, 1)
                )
                oracle = vn_entropy(dephased) - vn_entropy(rho)
                assert at_axis(RELENT, state, axis) == pytest.approx(oracle, abs=1e-10)


class TestSkewInformation:
    def test_maximally_mixed_commutes(self):
        for axis in (1, 2, 3):
            assert at_axis(SKEW, BlochQubit(np.zeros(3)), axis) == 0.0

    def test_pure_state_equals_variance(self):
        assert at_axis(SKEW, BlochQubit(np.array([0.0, 0.0, 1.0])), 1) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_pure_states_saturate(self):
        # tolerance 1e-7: normalization error of order 1e-16 enters the
        # closed form through sqrt(lam_minus)
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = BlochQubit(unit_vector(rng))
            total = coherence_triple(state, Measure.SKEW_INFORMATION).total
            assert total == pytest.approx(EPSILON_SKEW, abs=1e-7)

    def test_symmetric_pure_state_saturates_exactly(self):
        total = coherence_triple(SYMMETRIC, Measure.SKEW_INFORMATION).total
        assert total == pytest.approx(EPSILON_SKEW, abs=1e-12)


class TestRoundedPureState:
    """A pure Bloch vector whose norm rounds just above 1 goes through the
    clamps of skew (lam_minus) and relent (binary entropy at p >= 1)."""

    STATE = BlochQubit(np.array([0.6, 0.0, 0.8]) * (1 + 2**-52))

    def test_norm_rounds_above_one(self):
        assert self.STATE.norm > 1.0

    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_values_are_finite_and_nonnegative(self, measure):
        for axis in (1, 2, 3):
            value = at_axis(measure, self.STATE, axis)
            assert math.isfinite(value)
            assert value >= 0.0
        triple = coherence_triple(self.STATE, measure)
        assert triple.total <= measure.epsilon + 1e-9

    def test_values_match_the_unit_vector(self):
        unit = BlochQubit(np.array([0.6, 0.0, 0.8]))
        for axis in (1, 2, 3):
            skew, relent = at_axis(SKEW, self.STATE, axis), at_axis(RELENT, self.STATE, axis)
            assert skew == pytest.approx(at_axis(SKEW, unit, axis), abs=1e-7)
            assert relent == pytest.approx(at_axis(RELENT, unit, axis), abs=1e-12)


class TestEdgeBits:
    """``Measure.evaluate`` keeps its bits, as ``float.hex`` of the (l1,
    relent, skew) values at the three axes, wherever an evaluator masks or
    clamps: r = 0 and a norm below 1e-12 (skew's removable singularity),
    axis-aligned pure vectors (the entropy's p = 0 and p = 1), norms 1 ulp
    above 1 (the lam_minus clamp and p >= 1) and a NaN component, which
    every axis of relent and skew reads through the norm and l1 reads at
    the two axes transverse to it."""

    PINNED = {
        "zero": ([0.0, 0.0, 0.0], (
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0")),
        "tiny": ([3e-13, -4e-13, 0.0], (
            "0x1.c25c268497682p-42 0x1.51c51ce3718e1p-42 0x1.19799812dea11p-41",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0",
            "0x0.0p+0 0x0.0p+0 0x0.0p+0")),
        "+x": ([1.0, 0.0, 0.0], (
            "0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
            "0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
            "0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0")),
        "-y": ([0.0, -1.0, 0.0], (
            "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0",
            "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0",
            "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0")),
        "+z": ([0.0, 0.0, 1.0], (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0",
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0",
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0")),
        "z-long": ([0.0, 0.0, 1.0 + 2.0**-52], (
            "0x1.0000000000001p+0 0x1.0000000000001p+0 0x0.0p+0",
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0",
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0")),
        "tilted-long": ([0.6, 0.0, 0.8000000000000003], (
            "0x1.999999999999cp-1 0x1.0000000000001p+0 0x1.3333333333333p-1",
            "0x1.71a08f2b35a92p-1 0x1.0000000000000p+0 0x1.e0406181bc7c6p-2",
            "0x1.47ae147ae147cp-1 0x1.0000000000000p+0 0x1.70a3d70a3d708p-2")),
        "nan-x": ([math.nan, 0.1, 0.2], (
            "0x1.c9f25c5bfeddap-3 nan nan",
            "nan nan nan",
            "nan nan nan")),
    }  # fmt: skip

    @staticmethod
    def hexes(values: np.ndarray) -> str:
        return " ".join(float(x).hex() for x in values)

    @pytest.mark.parametrize("name", PINNED)
    def test_one_vector(self, name):
        vector, pinned = self.PINNED[name]
        r = np.array(vector)
        assert [self.hexes(m.evaluate(r, _norm(r))) for m in ALL_MEASURES] == list(pinned)

    def test_one_stack_of_all_of_them(self):
        r = np.array([vector for vector, _ in self.PINNED.values()])
        for k, measure in enumerate(ALL_MEASURES):
            values = measure.evaluate(r, _norm(r))
            assert [self.hexes(row) for row in values] == [p[k] for _, p in self.PINNED.values()]

    def test_norm_is_one_ulp_above_one(self):
        for name in ("z-long", "tilted-long"):
            assert _norm(np.array(self.PINNED[name][0])) == 1.0 + 2.0**-52


class TestCoherenceTriple:
    def test_z_eigenstate_l1_components(self):
        triple = coherence_triple(BlochQubit(np.array([0.0, 0.0, 1.0])), Measure.L1)
        np.testing.assert_allclose(triple.values, [1.0, 1.0, 0.0], atol=1e-15)

    def test_maximally_mixed_all_measures(self):
        for measure in ALL_MEASURES:
            triple = coherence_triple(BlochQubit(np.zeros(3)), measure)
            np.testing.assert_array_equal(triple.values, np.zeros(3))

    def test_sum_breach_is_a_consistency_error(self):
        with pytest.raises(ConsistencyError, match="l1 coherence triple sum .* exceeds"):
            CoherenceTriple(np.array([1.0, 1.0, 1.0]), Measure.L1)
        with pytest.raises(ConsistencyError, match="negative or NaN coherence value"):
            CoherenceTriple(np.array([-0.1, 0.0, 0.0]), Measure.L1)


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
            r = random_bloch_qubit_vector(rng)
            angle = rng.uniform(0, 2 * np.pi)
            for axis in (1, 2, 3):
                before = at_axis(measure, BlochQubit(r), axis)
                after = at_axis(measure, BlochQubit(self.rotate_about(r, axis, angle)), axis)
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
