"""Tests for conditional states, shift functionals, and the steering criteria.

The family checks pin the library against hand-derived conditional Bloch
vectors: for psi(a) = sqrt(a)|00> + sqrt(1-a)|11>, Alice's x measurement
leaves Bob in (+/- 2 sqrt(a(1-a)), 0, 2a-1), her y measurement in
(0, -/+ 2 sqrt(a(1-a)), 2a-1), and her z measurement in (0, 0, +/-1) with
probabilities (a, 1-a). Those vectors give the closed forms asserted below.
"""

import math

import numpy as np
import pytest

from naqc.coherence import Measure
from naqc.qcore import ConsistencyError, DensityMatrix, NotAStateError
from naqc.states import (
    bell,
    ghz,
    ghz_alpha,
    maximally_mixed,
    pure_alpha,
    random_mixed,
    random_pure,
    to_bloch,
    werner,
)
from naqc.steering import (
    ShiftValues,
    conditional_states,
    shift_axis,
    shift_values,
    steering_report,
    tripartite_report,
)

SQRT6 = math.sqrt(6.0)
ALL_MEASURES = list(Measure)
ALPHA_GRID = [k / 10 for k in range(11)]


def random_two_qubit(index: int, seed: int = 9000) -> DensityMatrix:
    ss = np.random.SeedSequence([seed, index])
    if index % 2 == 0:
        return random_pure(2, ss)
    return random_mixed(2, 4, ss)


def random_three_qubit(index: int, seed: int = 9500) -> DensityMatrix:
    ss = np.random.SeedSequence([seed, index])
    if index % 2 == 0:
        return random_pure(3, ss)
    return random_mixed(3, 8, ss)


class TestShiftAxis:
    def test_cyclic_table(self):
        table = {
            (1, 0): 1, (2, 0): 2, (3, 0): 3,
            (1, 1): 2, (2, 1): 3, (3, 1): 1,
            (1, 2): 3, (2, 2): 1, (3, 2): 2,
        }
        for (axis, j), expected in table.items():
            assert shift_axis(axis, j) == expected

    def test_each_pair_covered_once(self):
        # across the three shifts, every (Alice axis, Bob axis) pair appears once
        pairs = {(axis, shift_axis(axis, j)) for axis in (1, 2, 3) for j in (0, 1, 2)}
        assert len(pairs) == 9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shift_axis(0, 1)
        with pytest.raises(ValueError):
            shift_axis(1, 3)


class TestConditionalStates:
    def test_bell_z_measurement(self):
        low, high = conditional_states(bell(), 3)
        assert low.probability == pytest.approx(0.5, abs=1e-12)
        assert high.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(low.state.r, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(high.state.r, [0, 0, -1], atol=1e-12)

    def test_bell_x_and_y_measurements(self):
        for axis, expected0 in ((1, [1, 0, 0]), (2, [0, -1, 0])):
            b0, b1 = conditional_states(bell(), axis)
            np.testing.assert_allclose(b0.state.r, expected0, atol=1e-12)
            np.testing.assert_allclose(b1.state.r, np.negative(expected0), atol=1e-12)

    def test_product_state_cannot_steer(self):
        bob = random_mixed(1, 2, seed=61)
        alice = np.diag([0.7, 0.3]).astype(complex)
        rho = DensityMatrix(np.kron(alice, bob.matrix))
        bob_r = to_bloch(rho).s
        for axis in (1, 2, 3):
            for branch in conditional_states(rho, axis):
                np.testing.assert_allclose(branch.state.r, bob_r, atol=1e-12)

    def test_deterministic_outcome_gets_placeholder(self):
        b0, b1 = conditional_states(pure_alpha(1.0), 3)
        assert b0.probability == pytest.approx(1.0, abs=1e-12)
        assert b1.probability == 0.0
        np.testing.assert_array_equal(b1.state.r, np.zeros(3))

    def test_probabilities_sum_to_one(self):
        for idx in range(100):
            rho = random_two_qubit(idx)
            for axis in (1, 2, 3):
                total = sum(b.probability for b in conditional_states(rho, axis))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_pure_family_conditionals_match_hand_derivation(self):
        for alpha in ALPHA_GRID:
            rho = pure_alpha(alpha)
            trans = 2 * math.sqrt(alpha * (1 - alpha))
            rz = 2 * alpha - 1
            x0, x1 = conditional_states(rho, 1)
            np.testing.assert_allclose(x0.state.r, [trans, 0, rz], atol=1e-10)
            np.testing.assert_allclose(x1.state.r, [-trans, 0, rz], atol=1e-10)
            y0, y1 = conditional_states(rho, 2)
            np.testing.assert_allclose(y0.state.r, [0, -trans, rz], atol=1e-10)
            np.testing.assert_allclose(y1.state.r, [0, trans, rz], atol=1e-10)
            z0, z1 = conditional_states(rho, 3)
            assert z0.probability == pytest.approx(alpha, abs=1e-12)
            assert z1.probability == pytest.approx(1 - alpha, abs=1e-12)
            if alpha > 0:
                np.testing.assert_allclose(z0.state.r, [0, 0, 1], atol=1e-10)
            if alpha < 1:
                np.testing.assert_allclose(z1.state.r, [0, 0, -1], atol=1e-10)

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            conditional_states(maximally_mixed(1), 1)
        with pytest.raises(ValueError):
            conditional_states(ghz(), 1)


class TestNoSignalling:
    def test_weighted_branches_reconstruct_bob(self):
        for idx in range(1000):
            rho = random_two_qubit(idx)
            bob_r = to_bloch(rho).s
            for axis in (1, 2, 3):
                averaged = np.zeros(3)
                for branch in conditional_states(rho, axis):
                    averaged += branch.probability * branch.state.r
                np.testing.assert_allclose(averaged, bob_r, atol=1e-10)


class TestShiftValues:
    def test_bell_values(self):
        s = shift_values(bell(), Measure.L1).values
        np.testing.assert_allclose(s, [0.0, 3.0, 3.0], atol=1e-12)

    def test_product_zero_state(self):
        single = steering_report(pure_alpha(1.0), Measure.L1).singles[0]
        assert single.value == pytest.approx(2.0, abs=1e-12)
        s = shift_values(pure_alpha(1.0), Measure.L1).values
        np.testing.assert_allclose(s, [2.0, 2.0, 2.0], atol=1e-12)

    def test_maximally_mixed_vanishes(self):
        for measure in ALL_MEASURES:
            s = shift_values(maximally_mixed(2), measure).values
            np.testing.assert_allclose(s, np.zeros(3), atol=1e-12)

    def test_componentwise_matches_batch(self):
        for idx in range(20):
            rho = random_two_qubit(idx)
            for measure in ALL_MEASURES:
                batch = shift_values(rho, measure).values
                singles = steering_report(rho, measure).singles
                for j in range(3):
                    assert singles[j].value == batch[j]

    def test_pure_family_closed_forms(self):
        for alpha in ALPHA_GRID:
            s = shift_values(pure_alpha(alpha), Measure.L1).values
            expected = [
                2 * abs(2 * alpha - 1),
                2 + 2 * math.sqrt(alpha * (1 - alpha)),
                2 + 2 * math.sqrt(alpha * (1 - alpha)),
            ]
            np.testing.assert_allclose(s, expected, atol=1e-10)

    def test_werner_closed_forms(self):
        # conditional Bloch vectors are (+/- p) along the measured axis
        for p in (0.0, 0.25, 0.5, 0.8165, 1.0):
            s = shift_values(werner(p), Measure.L1).values
            np.testing.assert_allclose(s, [0.0, 3 * p, 3 * p], atol=1e-10)

    def test_constructor_guards_bound(self):
        with pytest.raises(ConsistencyError):
            ShiftValues(np.array([3.0, 3.0, 3.0]), Measure.SKEW_INFORMATION)
        with pytest.raises(ConsistencyError):
            ShiftValues(np.array([-0.5, 0.0, 0.0]), Measure.L1)

    def test_constructor_rejects_nan(self):
        with pytest.raises(ConsistencyError):
            ShiftValues(np.array([np.nan, 0.0, 0.0]), Measure.L1)


class TestBipartiteCriteria:
    def test_single_violation_on_bell(self):
        value, bound, violated = steering_report(bell(), Measure.L1).singles[1]
        assert value == pytest.approx(3.0, abs=1e-12)
        assert bound == pytest.approx(SQRT6)
        assert violated

    def test_single_not_violated_on_product(self):
        value, bound, violated = steering_report(pure_alpha(1.0), Measure.L1).singles[0]
        assert value == pytest.approx(2.0, abs=1e-12)
        assert not violated

    def test_single_on_maximally_mixed(self):
        for measure in ALL_MEASURES:
            for j in range(3):
                value, bound, violated = steering_report(
                    maximally_mixed(2), measure
                ).singles[j]
                assert value == pytest.approx(0.0, abs=1e-12)
                assert bound == measure.epsilon
                assert not violated

    def test_double_violation_on_bell(self):
        report = steering_report(bell(), Measure.L1)
        value, bound, violated = dict(report.doubles)[(1, 2)]
        assert value == pytest.approx(6.0, abs=1e-12)
        assert bound == pytest.approx(2 * SQRT6)
        assert violated

    def test_double_on_product(self):
        report = steering_report(pure_alpha(1.0), Measure.L1)
        value, _, violated = dict(report.doubles)[(1, 2)]
        assert value == pytest.approx(4.0, abs=1e-12)
        assert not violated

    def test_double_peak_of_pure_family(self):
        value, _, _ = dict(steering_report(pure_alpha(0.5), Measure.L1).doubles)[(1, 2)]
        assert value / 2 == pytest.approx(3.0, abs=1e-12)

    def test_triple_never_flags(self):
        for rho in (bell(), pure_alpha(1.0), maximally_mixed(2)):
            value, bound, violated = steering_report(rho, Measure.L1).triple
            assert not violated
            assert value <= bound + 1e-9
        assert steering_report(bell(), Measure.L1).triple.value == pytest.approx(
            6.0, abs=1e-12
        )


class TestSteeringReport:
    def test_bell_compensation(self):
        report = steering_report(bell(), Measure.L1)
        doubles = dict(report.doubles)
        assert doubles[(1, 2)].violated
        assert report.singles[0].value == pytest.approx(0.0, abs=1e-12)
        assert not report.singles[0].violated
        assert not report.triple.violated

    def test_product_endpoint_values(self):
        report = steering_report(pure_alpha(0.0), Measure.L1)
        s = report.shift.values
        assert s[0] == pytest.approx(2.0, abs=1e-12)
        assert (s[1] + s[2]) / 2 == pytest.approx(2.0, abs=1e-12)
        assert report.triple.value / 3 == pytest.approx(2.0, abs=1e-12)
        assert not any(res.violated for res in report.singles)
        assert not any(res.violated for _, res in report.doubles)

    def test_maximally_mixed_is_all_zero(self):
        for measure in ALL_MEASURES:
            report = steering_report(maximally_mixed(2), measure)
            np.testing.assert_allclose(report.shift.values, np.zeros(3), atol=1e-12)
            assert not any(res.violated for res in report.singles)

    def test_decompositions_agree(self):
        for idx in range(200):
            report = steering_report(random_two_qubit(idx), Measure.L1)
            values = [v for _, v in report.decompositions]
            assert max(values) - min(values) <= 1e-12
            assert report.triple.value == pytest.approx(
                float(report.shift.values.sum()), abs=1e-12
            )

    def test_violated_double_forces_satisfied_single(self):
        for idx in range(300):
            rho = random_two_qubit(idx)
            for measure in ALL_MEASURES:
                report = steering_report(rho, measure)
                for (j, k), res in report.doubles:
                    if res.violated:
                        remaining = ({0, 1, 2} - {j, k}).pop()
                        assert not report.singles[remaining].violated


class TestMixingMonotonicity:
    def test_shift_values_are_convex(self):
        rng = np.random.default_rng(321)
        for idx in range(1000):
            rho1 = random_two_qubit(2 * idx, seed=8100)
            rho2 = random_two_qubit(2 * idx + 1, seed=8100)
            weight = rng.uniform()
            mixed = DensityMatrix(
                weight * rho1.matrix + (1 - weight) * rho2.matrix
            )
            for measure in ALL_MEASURES:
                lhs = shift_values(mixed, measure).values
                rhs = (
                    weight * shift_values(rho1, measure).values
                    + (1 - weight) * shift_values(rho2, measure).values
                )
                assert float(np.max(lhs - rhs)) <= 1e-9


def honest_t1_closed_form(alpha: float) -> float:
    """Matched-shift total for the GHZ family, from hand-derived conditionals.

    Charlie's z branches leave |00> or |11> (shift value 2 at shift 0); his
    x branches leave real superpositions with shift-1 value 2 + 2ab; his y
    branches leave a|00> -/+ i b|11>, whose imprinted phase moves the
    transverse Bloch component of the inner conditionals, giving shift-2
    value 1 + |2a^2 - 1| + 2ab. Verified against full matrix conditioning.
    """
    beta = math.sqrt(max(0.0, 1 - alpha ** 2))
    return 5 + 4 * alpha * beta + abs(2 * alpha ** 2 - 1)


class TestTripartite:
    def test_product_state_values(self):
        rho = ghz_alpha(1.0)  # |000>
        report = tripartite_report(rho, Measure.L1)
        assert report.t1.value == pytest.approx(6.0, abs=1e-10)
        assert report.t2.value == pytest.approx(12.0, abs=1e-10)
        assert report.t3.value == pytest.approx(18.0, abs=1e-10)
        assert not report.t1.violated

    def test_maximally_mixed_vanishes(self):
        for measure in ALL_MEASURES:
            report = tripartite_report(maximally_mixed(3), measure)
            assert report.t1.value == pytest.approx(0.0, abs=1e-12)
            assert report.t2.value == pytest.approx(0.0, abs=1e-12)
            assert report.t3.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_ghz_values(self):
        report = tripartite_report(ghz(), Measure.L1)
        assert report.t1.value == pytest.approx(7.0, abs=1e-10)
        assert report.t2.value == pytest.approx(11.0, abs=1e-10)
        assert report.t3.value == pytest.approx(18.0, abs=1e-10)
        assert not report.t1.violated

    def test_ghz_family_matches_honest_closed_form(self):
        for alpha in ALPHA_GRID:
            value = tripartite_report(ghz_alpha(alpha), Measure.L1).t1.value
            assert value == pytest.approx(honest_t1_closed_form(alpha), abs=1e-10)

    def test_charlie_y_branch_imprints_phase(self):
        # the physics behind the closed form: conditioning the GHZ family on
        # Charlie's y outcome leaves a |00> - i b |11| up to normalization
        alpha = 0.6
        beta = math.sqrt(1 - alpha ** 2)
        rho = ghz_alpha(alpha)
        y0 = np.array([1.0, 1j]) / np.sqrt(2)
        proj_y0 = np.kron(np.eye(4), np.outer(y0, y0.conj()))
        sub = proj_y0 @ rho.matrix @ proj_y0
        prob = float(np.trace(sub).real)
        assert prob == pytest.approx(0.5, abs=1e-12)
        ab = sub.reshape(4, 2, 4, 2).trace(axis1=1, axis2=3) / prob
        ket = np.array([alpha, 0.0, 0.0, -1j * beta], dtype=complex)
        np.testing.assert_allclose(ab, np.outer(ket, ket.conj()), atol=1e-12)

    def test_t3_is_sum_and_bounded(self):
        for idx in range(200):
            rho = random_three_qubit(idx)
            for measure in ALL_MEASURES:
                report = tripartite_report(rho, measure)
                assert report.t3.value == pytest.approx(
                    report.t1.value + report.t2.value, abs=1e-12
                )
                assert report.t3.value <= report.t3.bound + 1e-9
                assert not report.t3.violated

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            tripartite_report(bell(), Measure.L1)

    def test_bounds_scale_with_measure(self):
        for measure in ALL_MEASURES:
            report = tripartite_report(maximally_mixed(3), measure)
            assert report.t1.bound == pytest.approx(3 * measure.epsilon)
            assert report.t2.bound == pytest.approx(6 * measure.epsilon)
            assert report.t3.bound == pytest.approx(9 * measure.epsilon)


class TestRoleOfStateValidation:
    def test_invalid_inputs_rejected_before_conditioning(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex))
