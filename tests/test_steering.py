"""Tests for conditional states, shift functionals, and the steering criteria.

The family checks pin the library against hand-derived conditional Bloch
vectors: for psi(a) = sqrt(a)|00> + sqrt(1-a)|11>, Alice's x measurement
leaves Bob in (+/- 2 sqrt(a(1-a)), 0, 2a-1), her y measurement in
(0, -/+ 2 sqrt(a(1-a)), 2a-1), and her z measurement in (0, 0, +/-1) with
probabilities (a, 1-a). Those vectors give the closed forms asserted below.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naqc import qcore, steering
from naqc.coherence import Measure
from naqc.qcore import (
    BLOCH_NORM_TOL,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _validate,
    projector,
)
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
    ZERO_PROBABILITY,
    ConditionalBranch,
    ShiftValues,
    _conditioned,
    _outcomes,
    conditional_states,
    shift_values,
    steering_report,
    tripartite_report,
)
from oracles import oracle_branches, oracle_shifts, oracle_t1_t2, partial_trace_matrix

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


def shift_axis(axis: int, j: int) -> int:
    """Bob's coherence axis for Alice's ``axis`` under shift j, read from the
    table the stacked core gathers with (both outcomes of an axis agree)."""
    rows = steering._SHIFT_AXES[2 * (axis - 1) : 2 * axis, j]
    assert rows[0] == rows[1]
    return int(rows[0]) + 1


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

    def test_branch_value_equality_and_hash(self):
        b0, b1 = conditional_states(bell(), 1)
        again = conditional_states(DensityMatrix(bell().matrix), 1)[0]
        assert b0 == again
        assert hash(b0) == hash(again)
        assert b0 != b1
        assert len({b0, b1, again}) == 2
        moved = ConditionalBranch(b0.axis, b0.outcome, b0.probability, b1.state)
        assert moved != b0

    @pytest.mark.parametrize(
        "axis", [True, False, 2.0, np.float64(3.0), np.bool_(True)]
    )
    def test_non_integer_axis_is_rejected(self, axis):
        with pytest.raises(ValueError, match="integer"):
            conditional_states(bell(), axis)

    def test_numpy_integer_axis_is_accepted(self):
        for axis in (1, 2, 3):
            branches = conditional_states(bell(), axis)
            assert conditional_states(bell(), np.int64(axis)) == branches

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
        with pytest.raises(ConsistencyError, match="shift total .* exceeds"):
            ShiftValues(np.array([3.0, 3.0, 3.0]), Measure.SKEW_INFORMATION)
        with pytest.raises(ConsistencyError, match="negative or NaN shift value"):
            ShiftValues(np.array([-0.5, 0.0, 0.0]), Measure.L1)

    def test_constructor_rejects_nan(self):
        with pytest.raises(ConsistencyError, match="negative or NaN shift value"):
            ShiftValues(np.array([np.nan, 0.0, 0.0]), Measure.L1)

    def test_values_are_read_only(self):
        # shift_values skips the constructor, whose guards _shifts has run
        sv = shift_values(random_two_qubit(3), Measure.RELATIVE_ENTROPY)
        assert sv.values.shape == (3,) and sv.values.dtype == float
        assert not sv.values.flags.writeable
        assert sv == ShiftValues(sv.values, Measure.RELATIVE_ENTROPY)

    def test_value_equality_and_hash(self):
        a = shift_values(bell(), Measure.L1)
        b = ShiftValues(a.values.copy(), Measure.L1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other_measure = ShiftValues(a.values * 0.5, Measure.SKEW_INFORMATION)
        half = ShiftValues(a.values * 0.5, Measure.L1)
        assert a != half
        assert half != other_measure
        assert len({a, half, other_measure}) == 3


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


def report_hex(report) -> list[str]:
    """Every float of a steering or tripartite report, as exact hex."""
    if hasattr(report, "shift"):
        values = list(report.shift.values)
        values += [r.value for r in report.singles]
        values += [r.value for _, r in report.doubles]
        values += [report.triple.value] + [v for _, v in report.decompositions]
    else:
        values = [report.t1.value, report.t2.value, report.t3.value]
    return [float(v).hex() for v in values]


class TestConditioningMemo:
    """A state is conditioned once; every measure reads the same branches."""

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_reports_do_not_depend_on_what_filled_the_memo(self, nqubits):
        report = steering_report if nqubits == 2 else tripartite_report
        sample = random_two_qubit if nqubits == 2 else random_three_qubit
        for idx in range(4):
            matrix = sample(idx).matrix
            fresh = {
                m: report_hex(report(DensityMatrix(matrix), m)) for m in ALL_MEASURES
            }
            for order in itertools.permutations(ALL_MEASURES):
                rho = DensityMatrix(matrix)
                for measure in order:
                    assert report_hex(report(rho, measure)) == fresh[measure]

    def test_repeat_calls_give_equal_branches(self):
        for idx in range(10):
            rho = random_two_qubit(idx)
            first = [conditional_states(rho, axis) for axis in (1, 2, 3)]
            for measure in ALL_MEASURES:
                steering_report(rho, measure)
            for axis in (1, 2, 3):
                assert conditional_states(rho, axis) == first[axis - 1]
                fresh = conditional_states(DensityMatrix(rho.matrix), axis)
                assert fresh == first[axis - 1]

    def test_filled_memo_cannot_go_stale(self):
        rho = random_two_qubit(1)
        before = {m: report_hex(steering_report(rho, m)) for m in ALL_MEASURES}
        with pytest.raises(AttributeError):
            rho.matrix = bell().matrix
        with pytest.raises(AttributeError):
            rho.nqubits = 3
        with pytest.raises(AttributeError):
            rho.dim = 8
        assert rho.matrix.tobytes() == random_two_qubit(1).matrix.tobytes()
        assert rho.nqubits == 2
        for measure in ALL_MEASURES:
            assert report_hex(steering_report(rho, measure)) == before[measure]

    def test_three_qubit_state_is_validated_seven_times(self, monkeypatch):
        """The state in one call, then Charlie's six conditional AB states in
        one stacked call that all three measures share: seven matrices, each
        validated exactly once."""
        matrix = random_three_qubit(0).matrix
        calls = []
        original = qcore._validate

        def counting(mats, weights=None):
            calls.append(np.array(mats))
            original(mats, weights)

        monkeypatch.setattr(qcore, "_validate", counting)
        monkeypatch.setattr(steering, "_validate", counting)
        rho = DensityMatrix(matrix)
        for measure in ALL_MEASURES:
            tripartite_report(rho, measure)
        assert [c.shape for c in calls] == [(8, 8), (6, 4, 4)]
        assert calls[0].tobytes() == matrix.tobytes()
        # the six validated matrices are the six conditional states, in order
        expected = [ab for _, _, ab in oracle_branches(matrix, last=True)]
        assert len(expected) == 6
        np.testing.assert_allclose(calls[1], expected, atol=1e-12)

    def test_threads_sharing_states_read_the_same_reports(self):
        matrices = [random_two_qubit(i).matrix for i in range(4)]
        matrices += [random_three_qubit(i).matrix for i in range(2)]

        def all_reports(states):
            reports = []
            for rho in states:
                report = steering_report if rho.nqubits == 2 else tripartite_report
                reports += [report_hex(report(rho, m)) for m in ALL_MEASURES]
            return reports

        expected = all_reports([DensityMatrix(m) for m in matrices])
        shared = [DensityMatrix(m) for m in matrices]
        results = [None] * 8

        def work(slot):
            # each thread starts from a different state, so fills race
            results[slot] = all_reports(shared[slot % 6 :] + shared[: slot % 6])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, result in enumerate(results):
            shift = 3 * (slot % 6)
            assert result == expected[shift:] + expected[:shift]


class TestZeroProbabilityBranches:
    """Branches below ZERO_PROBABILITY are dropped, fresh or from the memo."""

    def test_alice_z_on_zero_plus(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        matrix = np.kron(np.diag([1.0, 0.0]).astype(complex), plus)
        rho = DensityMatrix(matrix)
        fresh = conditional_states(rho, 3)
        reports = {m: steering_report(rho, m) for m in ALL_MEASURES}
        for branches in (fresh, conditional_states(rho, 3)):
            kept, dropped = branches
            assert kept.probability == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(kept.state.r, [1.0, 0.0, 0.0], atol=1e-15)
            assert dropped.probability == 0.0
            np.testing.assert_array_equal(dropped.state.r, np.zeros(3))
        np.testing.assert_allclose(
            reports[Measure.L1].shift.values, oracle_shifts(matrix), atol=1e-12
        )
        for measure in ALL_MEASURES:
            again = steering_report(DensityMatrix(matrix), measure)
            assert report_hex(again) == report_hex(reports[measure])

    def test_charlie_in_zero(self):
        matrix = np.kron(random_two_qubit(3).matrix, np.diag([1.0, 0.0]))
        rho = DensityMatrix(matrix)
        reports = {m: tripartite_report(rho, m) for m in ALL_MEASURES}
        cond = _conditioned(rho)
        assert _conditioned(rho) is rho._branches  # served from the memo
        assert cond.charlie[2, 0] == pytest.approx(1.0, abs=1e-12)
        assert cond.charlie[2, 1] == 0.0
        # the dropped AB state contributes all-zero branches
        assert not cond.prob[2, 1].any() and not cond.bloch[2, 1].any()
        t1, t2 = oracle_t1_t2(matrix)
        assert reports[Measure.L1].t1.value == pytest.approx(t1, abs=1e-10)
        assert reports[Measure.L1].t2.value == pytest.approx(t2, abs=1e-10)
        for measure in ALL_MEASURES:
            again = tripartite_report(DensityMatrix(matrix), measure)
            assert report_hex(again) == report_hex(reports[measure])


class TestLowProbabilityBranches:
    """Conditioning divides by the outcome probability p, which scales the
    slack a state was accepted with by 1 / p; the conditional checks allow
    that much and no more."""

    # Alice's outcome z = 1 has p ~ 1e-8 and holds the eigenvalue -5e-11
    MATRIX = np.diag([1 - 1e-8 + 5e-11, 0, 1e-8, -5e-11]).astype(complex)

    def test_a_long_bloch_vector_is_scaled_onto_the_sphere(self):
        rho = DensityMatrix(self.MATRIX)
        cond = _conditioned(rho)
        assert cond.norm[2, 1] > 1.0 + BLOCH_NORM_TOL
        kept, low = conditional_states(rho, 3)
        assert low.probability == cond.prob[2, 1]
        assert low.state.r.tobytes() == (cond.bloch[2, 1] / cond.norm[2, 1]).tobytes()
        assert low.state.norm == pytest.approx(1.0, abs=1e-15)
        # a vector within 1 + BLOCH_NORM_TOL is kept as it is
        assert kept.state.r.tobytes() == cond.bloch[2, 0].tobytes()

    def test_a_vector_too_long_for_its_probability_is_rejected(self):
        rho = DensityMatrix(bell().matrix)
        memo = _conditioned(rho)
        bloch, norm = memo.bloch.copy(), memo.norm.copy()
        bloch[2, 0], norm[2, 0] = [0.0, 0.0, 1.0 + 3e-9], 1.0 + 3e-9  # p = 1/2 allows 2e-9
        rho._branches = memo._replace(bloch=bloch, norm=norm)
        with pytest.raises(NotAStateError, match="Bloch vector norm"):
            conditional_states(rho, 3)

    def test_weighted_validation_holds_the_block_to_the_floor(self):
        block = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)[None]
        _validate(block, np.array([2e-10]))  # eigenvalue -1e-10 of p * block
        with pytest.raises(NotAStateError, match="negative eigenvalue -1.500e-10"):
            _validate(block, np.array([3e-10]))
        skewed = np.eye(4, dtype=complex)[None] / 4
        skewed[0, 0, 1] = 1e-3j
        _validate(skewed, np.array([1e-7]))  # |M - M^dag| of p * block is 1e-10
        with pytest.raises(NotAStateError, match="not Hermitian"):
            _validate(skewed, np.array([2e-7]))


def matmul_branches(rho: DensityMatrix) -> list:
    """The six branches by dense matrix products, as ``_condition`` once
    computed them: kron(P, I) or kron(I4, P), op @ rho @ op, np.trace,
    partial_trace_matrix and the division by the probability. Each branch
    is its probability and the exact hex of Bob's Bloch vector (two
    qubits) or of every entry of the AB matrix (three)."""
    nqubits = rho.nqubits
    branches = []
    for axis in (1, 2, 3):
        for outcome in (0, 1):
            if nqubits == 2:
                op = np.kron(projector(axis, outcome), np.eye(2))
            else:
                op = np.kron(np.eye(4), projector(axis, outcome))
            sub = op @ rho.matrix @ op
            prob = float(np.trace(sub).real)
            if prob < ZERO_PROBABILITY:
                branches.append((0.0.hex(), None))
                continue
            keep = (1,) if nqubits == 2 else (0, 1)
            rest = partial_trace_matrix(sub, nqubits, keep) / prob
            if nqubits == 2:
                rest = np.array([2 * rest[0, 1].real, 2 * rest[1, 0].imag,
                                 (rest[0, 0] - rest[1, 1]).real])
            branches.append((prob.hex(), hex_entries(rest)))
    return branches


def hex_entries(arr: np.ndarray) -> list[str]:
    values = arr.ravel()
    if np.iscomplexobj(values):
        values = np.column_stack([values.real, values.imag]).ravel()
    return [float(v).hex() for v in values]


def memo_branches(rho: DensityMatrix) -> list:
    """The branches of the stacked conditioning, in the form of
    ``matmul_branches``: Bob's Bloch vectors from the memo (two qubits), or
    Charlie's AB matrices from the stacked projection (three)."""
    if rho.nqubits == 2:
        cond = _conditioned(rho)
        probs, states = cond.prob, cond.bloch
    else:
        probs, states = _outcomes(rho.matrix, last=True)
    branches = []
    for prob, state in zip(probs.ravel().tolist(), states.reshape(6, -1)):
        branches.append((prob.hex(), None if prob == 0.0 else hex_entries(state)))
    return branches


class TestConditioningIsBitwise:
    """The stacked conditioning pass reproduces the dense matrix products bit
    for bit, signed zeros included, on Ginibre states of every rank, the
    three family grids and states with zero-probability branches."""

    FAMILY_GRID = [k / 100 for k in range(101)]

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_ginibre_states_of_every_rank(self, nqubits):
        for rank in range(1, 2**nqubits + 1):
            for index in range(80 // 2**nqubits):
                ss = np.random.SeedSequence([9700, nqubits, rank, index])
                rho = random_mixed(nqubits, rank, ss)
                assert memo_branches(rho) == matmul_branches(rho)

    @pytest.mark.parametrize("family", [pure_alpha, werner, ghz_alpha])
    def test_family_grids(self, family):
        for x in self.FAMILY_GRID:
            rho = family(x)
            assert memo_branches(rho) == matmul_branches(rho)

    def test_zero_probability_states(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        states = [
            DensityMatrix(np.kron(zero, plus)),
            DensityMatrix(np.kron(random_two_qubit(3).matrix, zero)),
        ]
        for rho in states:
            expected = matmul_branches(rho)
            assert sum(state is None for _, state in expected) == 1
            assert memo_branches(rho) == expected


def ginibre_states(nqubits: int):
    """Random states G G^dag / Tr of every rank, from hypothesis floats."""
    dim = 2 ** nqubits

    def build(entries):
        g = np.array(entries[0::2]) + 1j * np.array(entries[1::2])
        g = g.reshape(dim, -1)
        mat = g @ g.conj().T
        return DensityMatrix(mat / np.trace(mat).real)

    def entries_of_rank(rank):
        size = 2 * dim * rank
        return st.lists(st.floats(-1, 1), min_size=size, max_size=size).filter(
            lambda v: float(np.abs(v).max()) > 1e-3
        )

    return st.integers(1, dim).flatmap(entries_of_rank).map(build)


@given(ginibre_states(2))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_no_signalling_property(rho):
    bob_r = to_bloch(rho).s
    for axis in (1, 2, 3):
        averaged = sum(b.probability * b.state.r for b in conditional_states(rho, axis))
        np.testing.assert_allclose(averaged, bob_r, atol=1e-10)


@given(ginibre_states(3))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_t3_is_exactly_t1_plus_t2_property(rho):
    for measure in ALL_MEASURES:
        report = tripartite_report(rho, measure)
        assert report.t3.value == report.t1.value + report.t2.value


@given(ginibre_states(2))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_conditioning_is_bitwise_property(rho):
    assert memo_branches(rho) == matmul_branches(rho)


@given(ginibre_states(3))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_three_qubit_conditioning_is_bitwise_property(rho):
    assert memo_branches(rho) == matmul_branches(rho)
