"""Tests for the coherence measures, their bounds, and the brute-force oracles."""

import math

import numpy as np
import pytest

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
from oracles import (
    EXACT,
    accuracy_bound,
    bits,
    eig_hermitian,
    entropy,
    exact_matrix,
    oracle_coherence,
    qubit_of_bloch,
)

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
        """h2 peaks at 1 at p = 1/2 and lies in [0, 1] on a grid through the
        subnormals, 1/2's neighbours and the last float below 1."""
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)
        half = [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
        for p in [0.0, 5e-324, 1e-300, 0.2, *half, 0.8, 1.0 - 2.0**-53, 1.0]:
            assert 0.0 <= binary_entropy(p) <= 1.0, p

    def test_bits_of_the_relent_measure(self):
        """At r = (x, 0, 0) the relent value on the z axis is 1 - h2((1 + x)/2):
        the scalar function and the batch measure agree bit for bit."""
        x = np.random.default_rng(23).uniform(0, 1, 20_000)
        r = np.zeros((x.size, 3))
        r[:, 0] = x
        scalar = [max(0.0, 1.0 - binary_entropy((1.0 + v) / 2.0)) for v in x.tolist()]
        assert np.array_equal(scalar, RELENT.evaluate(r, x)[:, 2])


class TestBounds:
    def test_epsilon_values(self):
        """Each epsilon lies within 1 ulp of its exact value at 60 digits."""
        p = (1 + 1 / EXACT.sqrt(3)) / 2
        exact = {"l1": EXACT.sqrt(6), "relent": 3 * entropy(p, 1 - p), "skew": 2}
        for measure in Measure:
            assert abs(measure.epsilon - exact[measure.value]) <= math.ulp(measure.epsilon)
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
        """Skew's total is 2 on the sphere; there every measure's values are
        not negative and their total is at most its epsilon + 1e-9."""
        # tolerance 1e-7: normalization error of order 1e-16 enters the
        # closed form through sqrt(lam_minus)
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = BlochQubit(unit_vector(rng))
            total = coherence_triple(state, Measure.SKEW_INFORMATION).total
            assert total == pytest.approx(EPSILON_SKEW, abs=1e-7)
            for measure in ALL_MEASURES:
                triple = coherence_triple(state, measure)
                assert triple.total <= measure.epsilon + 1e-9
                assert float(triple.values.min()) >= 0.0

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


class TestEdgeValues:
    """``Measure.evaluate`` wherever an evaluator masks or clamps: r = 0 and a
    norm below 1e-12 (skew's removable singularity), axis-aligned pure
    vectors (the entropy's p = 0 and p = 1), norms 1 ulp above 1 (the
    lam_minus clamp and p >= 1), the cube's corners projected onto the
    sphere (where each measure's total reaches its epsilon), a vector whose
    rounded relent on y falls below 0 (relent's clamp) and a NaN. Each
    value lies within ``accuracy_bound`` of the exact one and, like it, is
    not negative, and the three add to at most epsilon + 1e-9."""

    VECTORS = {
        "zero": [0.0, 0.0, 0.0],
        "tiny": [3e-13, -4e-13, 0.0],
        "+x": [1.0, 0.0, 0.0],
        "-y": [0.0, -1.0, 0.0],
        "+z": [0.0, 0.0, 1.0],
        "z-long": [0.0, 0.0, 1.0 + 2.0**-52],
        "tilted-long": [0.6, 0.0, 0.8000000000000003],
        **{f"corner{signs}": [(1.0 if c == "+" else -1.0) / math.sqrt(3.0) for c in signs]
           for signs in ("+++", "+-+", "--+", "---")},
        "near-y": [0.0, 0.176, 1e-8],
        "nan-x": [math.nan, 0.1, 0.2],
    }  # fmt: skip

    @pytest.mark.parametrize("name", VECTORS)
    def test_one_vector(self, name):
        r = np.array(self.VECTORS[name])
        values = [measure.evaluate(r, _norm(r)) for measure in ALL_MEASURES]
        if name == "nan-x":  # l1 at the axes transverse to x, relent and skew at all
            assert [np.isnan(v).sum() for v in values] == [2, 3, 3] and not np.isnan(values[0][0])
            return
        ints = exact_matrix(r)  # r = ints.re / ints.scale
        for measure, value in zip(ALL_MEASURES, values):
            exact = oracle_coherence(measure.value, ints.re, ints.scale)
            assert (value >= 0.0).all()
            assert value.sum() <= measure.epsilon + 1e-9
            error = max(abs(v - e) for v, e in zip(value.tolist(), exact))
            assert error <= accuracy_bound(measure.value, 1)

    def test_one_stack_of_all_of_them(self):
        """A stack has the bits of its members evaluated one by one."""
        r = np.array(list(self.VECTORS.values()))
        for measure in ALL_MEASURES:
            alone = [measure.evaluate(v, _norm(v)) for v in r]
            assert np.array_equal(bits(measure.evaluate(r, _norm(r))), bits(np.array(alone)))

    def test_norm_is_one_ulp_above_one(self):
        for name in ("z-long", "tilted-long"):
            assert _norm(np.array(self.VECTORS[name])) == 1.0 + 2.0**-52


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
