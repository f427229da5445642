"""Tests for conditional states, shift functionals, and the steering criteria.

The family checks pin the library against hand-derived conditional Bloch
vectors: for psi(a) = sqrt(a)|00> + sqrt(1-a)|11>, Alice's x measurement
leaves Bob in (+/- 2 sqrt(a(1-a)), 0, 2a-1), her y measurement in
(0, -/+ 2 sqrt(a(1-a)), 2a-1), and her z measurement in (0, 0, +/-1) with
probabilities (a, 1-a). Those vectors give the closed forms asserted below.
"""

import functools
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from naqc import coherence, qcore, steering
from naqc.coherence import BOUND_TOL, CoherenceTriple, Measure, coherence_triple
from naqc.qcore import (
    BLOCH_NORM_TOL,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
)
from naqc.states import (
    bell,
    ghz,
    ghz_alpha,
    maximally_mixed,
    pure_alpha,
    random_mixed,
    to_bloch,
    werner,
)
from naqc.steering import (
    CRITERIA,
    DOUBLE_PAIRS,
    ShiftValues,
    _condition,
    _criteria,
    _limits,
    _parts,
    _shifts,
    _tripartite,
    conditional_states,
    shift_values,
    steering_report,
    tripartite_report,
)
from oracles import (
    accuracy_bound,
    bits,
    oracle_parts,
    oracle_shifts,
    oracle_t1_t2,
    seeded_sample,
)
from test_batch import STACK_SIZES, STATES, stacked

SQRT6 = math.sqrt(6.0)
ALL_MEASURES = list(Measure)
ALPHA_GRID = [k / 10 for k in range(11)]
SEEDS = {2: 9000, 3: 9500}  # the master seed of most seeded_sample draws, per qubit count

# Convexity holds to round-off, per measure in ALL_MEASURES' order. A
# round-off delta in |b| at a pure branch moves skew's three values by about
# 2 sqrt(2 delta) in all (through sqrt(lambda_minus), lambda_minus = delta / 2).
# t1 and t2 weigh such values with probabilities adding to 9, and a check
# compares three evaluations whose weights (1, w, 1 - w) add to 2; one ulp of
# |b| near 1, delta = 2**-52, gives skew's 2 * 9 * 2 sqrt(2 delta) = 7.6e-7.
CONVEXITY_TOL = np.array([1e-9, 1e-9, 2 * 9 * 2 * math.sqrt(2 * 2**-52)])


def sample_stack(nqubits: int, count: int) -> np.ndarray:
    """The matrices of samples 0 .. count - 1 at the qubit count's seed."""
    seed = SEEDS[nqubits]
    return np.array([seeded_sample(nqubits, seed, index).matrix for index in range(count)])


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

    # the leading shapes of the stacks the core gathers from: one two-qubit
    # state or 7, and Charlie's (3, 2) AB branches of one three-qubit state or 7
    @pytest.mark.parametrize("lead", [(), (7,), (3, 2), (7, 3, 2)])
    def test_flat_tables_select_what_the_fancy_indices_did(self, lead):
        """On an arange stack of each shape, 3 measures in front and Bob's
        (3, 2, 3) terms, shifts or vectors behind, one take of each flat
        table selects exactly what the fancy index it replaced did, and l1
        keeps the bits of hypot of the two gathers."""
        x = np.arange(3 * math.prod(lead) * 18).reshape((3,) + lead + (3, 2, 3))
        flat = x.reshape(x.shape[:-3] + (18,))
        outcomes, axes = np.arange(6)[:, None], np.arange(3)
        by_outcome = x.reshape(x.shape[:-3] + (6, 3))[..., outcomes, steering._SHIFT_AXES]
        assert np.array_equal(flat.take(steering._SHIFT_TERMS, axis=-1, mode="clip"), by_outcome)
        matched = x.swapaxes(-1, -2)[..., axes, (axes + 1) % 3, :]
        assert np.array_equal(flat.take(steering._MATCHED, axis=-1, mode="clip"), matched)
        # Bob's vectors, and one qubit's or a stack of them
        for r in (x, x[0, ..., 0, 0, :]):
            pairs = r.take(coherence._TRANSVERSE, axis=-1, mode="clip")
            assert np.array_equal(pairs[..., 0, :], r[..., [1, 0, 0]])
            assert np.array_equal(pairs[..., 1, :], r[..., [2, 2, 1]])
            r = np.sin(r)  # distinct reals of either sign
            expected = np.hypot(r[..., [1, 0, 0]], r[..., [2, 2, 1]])
            assert np.array_equal(bits(coherence._l1(r, None)), bits(expected))


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
        """For each of Alice's axes the outcome probabilities add to 1 and,
        weighted by them, Bob's branches average to his reduced state (no
        signalling), on seeded samples and on test_batch.STATES[2]: Ginibre
        states of ranks 1 to 4 and states with dropped branches."""
        states = [seeded_sample(2, SEEDS[2], idx) for idx in range(100)] + STATES[2]
        for rho in states:
            bob_r = to_bloch(rho).s
            for axis in (1, 2, 3):
                branches = conditional_states(rho, axis)
                total = sum(b.probability for b in branches)
                assert total == pytest.approx(1.0, abs=1e-10)
                averaged = sum(b.probability * b.state.r for b in branches)
                np.testing.assert_allclose(averaged, bob_r, atol=1e-10)

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
            rho = seeded_sample(2, SEEDS[2], idx)
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


def values_near(parts: tuple, target: float) -> np.ndarray:
    """A (3, 3) stack of part values whose criterion of ``parts``, added
    left to right, is 1 ulp below ``target``, ``target`` and 1 ulp above,
    one per column; the other parts hold target / 7 and target / 5, whose
    roundings make the order of the adds show."""
    columns = []
    for want in (math.nextafter(target, 0.0), target, math.nextafter(target, math.inf)):
        column = [target / 3, target / 7, target / 5]
        x = target - sum(column[j] for j in parts[1:])
        for _ in range(64):
            column[parts[0]] = x
            value = column[parts[0]]
            for j in parts[1:]:
                value = value + column[j]
            if value == want:
                break
            x = math.nextafter(x, math.inf if value < want else -math.inf)
        assert value == want
        columns.append(column)
    return np.array(columns).T


@pytest.mark.parametrize("nqubits", [2, 3])
def test_search_scores_a_criterion_as_evaluate_does(nqubits):
    """Search scores its criterion by ``_scored`` over the entry of
    ``_limits`` that ``_criteria``, which evaluate and the reports print,
    reads too. Each criterion is flagged only above its limit, on float
    lists and (3, k) stacks alike: the values sit 1 ulp below the limit, on
    it and 1 ulp above; for the last criterion, never flagged, around its
    bound."""
    for measure in ALL_MEASURES:
        for name, (parts, bound, limit) in _limits(nqubits, measure).items():
            stack = values_near(parts, limit if math.isfinite(limit) else bound)
            flags = [False, False, math.isfinite(limit)]
            assert _criteria(nqubits, stack, measure)[name].violated.tolist() == flags
            for values, flag in zip(stack.T.tolist(), flags):
                assert _criteria(nqubits, values, measure)[name].violated is flag


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

    def test_violated_double_forces_satisfied_single(self):
        for idx in range(300):
            rho = seeded_sample(2, SEEDS[2], idx)
            for measure in ALL_MEASURES:
                report = steering_report(rho, measure)
                for (j, k), res in report.doubles:
                    if res.violated:
                        remaining = ({0, 1, 2} - {j, k}).pop()
                        assert not report.singles[remaining].violated


class TestMixingMonotonicity:
    def test_tripartite_criteria_are_convex(self):
        """t1 and t2 of a mix of two three-qubit states, for every measure,
        never exceed the same mix of their values: each is a sum of
        perspectives p * C(b) of convex measures, with p * b linear in rho.
        Seeded pairs at random weights hold to 1e-9; pairs of
        test_batch.STATES[3], among them |000> and |111>, whose mixes have
        pure branches, hold to CONVEXITY_TOL, also at weights 0 and 1."""
        pairs = 500
        first = [seeded_sample(3, 8200, 2 * i).matrix for i in range(pairs)]
        second = [seeded_sample(3, 8200, 2 * i + 1).matrix for i in range(pairs)]
        for a, b in itertools.combinations([rho.matrix for rho in STATES[3]], 2):
            first += [a, a, a]
            second += [b, b, b]
        weight = np.random.default_rng(322).uniform(size=(len(first), 1))
        weight[pairs + 1 :: 3], weight[pairs + 2 :: 3] = 0.0, 1.0
        first, second = np.array(first), np.array(second)
        mixed = weight[..., None] * first + (1.0 - weight[..., None]) * second
        t = _tripartite(_condition(np.stack([first, second, mixed])), tuple(ALL_MEASURES))
        convex = weight * t[:, 0, :, :2] + (1.0 - weight) * t[:, 1, :, :2]
        excess = t[:, 2, :, :2] - convex
        assert excess[:, :pairs].max() <= 1e-9
        assert (excess[:, pairs:].max(axis=(1, 2)) <= CONVEXITY_TOL).all()

    def test_tripartite_criteria_of_states_mixed_with_themselves(self):
        """w * rho + (1 - w) * rho is rho up to round-off, which moves skew
        at pure branches by up to the derived tolerance, and l1 and relent
        by round-off alone."""
        pure = np.array([seeded_sample(3, 8300, 2 * i).matrix for i in range(200)])
        worst = np.zeros(len(ALL_MEASURES))
        for weight in (0.171875, 0.3, 0.5, 0.9):
            mixed = weight * pure + (1.0 - weight) * pure
            t = _tripartite(_condition(np.stack([pure, pure, mixed])), tuple(ALL_MEASURES))
            convex = weight * t[:, 0, :, :2] + (1.0 - weight) * t[:, 1, :, :2]
            worst = np.maximum(worst, (t[:, 2, :, :2] - convex).max(axis=(1, 2)))
        assert (worst <= CONVEXITY_TOL).all()
        assert worst[ALL_MEASURES.index(Measure.SKEW_INFORMATION)] > 1e-9  # the sensitivity shows


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

    def test_charlie_y_branch_imprints_phase(self):
        # the physics behind acceptance test 5's closed form: conditioning the
        # GHZ family on Charlie's y outcome leaves a |00> - i b |11| up to
        # normalization
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

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            tripartite_report(bell(), Measure.L1)

    def test_bounds_scale_with_measure(self):
        for measure in ALL_MEASURES:
            report = tripartite_report(maximally_mixed(3), measure)
            assert report.t1.bound == pytest.approx(3 * measure.epsilon)
            assert report.t2.bound == pytest.approx(6 * measure.epsilon)
            assert report.t3.bound == pytest.approx(9 * measure.epsilon)

    def test_ghz_detection_per_measure(self):
        """On acceptance test 5's 101-point grid of the GHZ family, ``l1``
        flags no t1, while ``relent`` and ``skew`` flag the family near the
        symmetric point; no measure flags the product states a = 0, 1."""
        grid = [k / 100 for k in range(101)]
        flagged = {
            m: {a for a in grid if tripartite_report(ghz_alpha(a), m).t1.violated}
            for m in ALL_MEASURES
        }
        assert flagged[Measure.L1] == set()
        for measure in (Measure.RELATIVE_ENTROPY, Measure.SKEW_INFORMATION):
            assert {0.6, 0.71} <= flagged[measure]
        for measure in ALL_MEASURES:
            assert not flagged[measure] & {0.0, 1.0}


# Bob's pure state at b = (1, 1, 1)/sqrt(3), which attains epsilon under every measure
BLOCH_B = np.full(3, 1.0 / math.sqrt(3.0))
RHO_B = (np.eye(2) + np.einsum("k,kab->ab", BLOCH_B, qcore._PAULI[1:])) / 2.0
ZERO = np.diag([1.0, 0.0]).astype(complex)
HALF_I = np.eye(2, dtype=complex) / 2.0


def product_mixtures(nqubits: int, count: int, seed: int, terms: int = 4) -> np.ndarray:
    """``count`` mixtures of ``terms`` product pure states each, with
    Dirichlet weights: separable states, so no criterion may flag them."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((2, count, terms, nqubits, 2))
    qubits = draws[0] + 1j * draws[1]
    qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
    kets = qubits[..., 0, :]
    for q in range(1, nqubits):
        kets = (kets[..., :, None] * qubits[..., q, None, :]).reshape(count, terms, -1)
    weights = rng.dirichlet(np.ones(terms), size=count)
    return np.einsum("nt,nti,ntj->nij", weights, kets, kets.conj())


class TestProductStates:
    """On a product state every conditional state of Bob is his own, so each
    shift is his triple, at most epsilon, and the criteria are attained, not
    flagged. At b = (1, 1, 1)/sqrt(3) every measure reaches its bound: an
    epsilon or a measure that is off by more than the flags' slack (1.3e-8
    and up) either flags these states or leaves them short of the bound.

    The exact values of these float states are their bounds to within 4 ulp,
    as RHO_B's rounded entries move each by about 2 u relative (u = 2**-53).
    The library's values, up to 4.4e-16 above a bound, sit within
    ``accuracy_bound`` of them: what they exceed a bound by is round-off."""

    @staticmethod
    def assert_attained(results, exact, units, measure: Measure, nqubits: int) -> None:
        for result, exact_value, n in zip(results, exact, units):
            assert abs(exact_value - n * measure.epsilon) <= 4 * math.ulp(result.bound)
            assert abs(result.value - exact_value) <= accuracy_bound(measure.value, nqubits)
            assert not result.violated

    @pytest.mark.parametrize("alice", [ZERO, HALF_I], ids=["zero", "mixed"])
    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_bipartite_products_attain_every_bound(self, alice, measure):
        report = steering_report(DensityMatrix(np.kron(alice, RHO_B)), measure)
        results = [*report.singles, *(res for _, res in report.doubles), report.triple]
        s = oracle_shifts(np.kron(alice, RHO_B), measure.value)
        exact = [*s, *(s[j] + s[k] for j, k in DOUBLE_PAIRS), s[0] + s[1] + s[2]]
        self.assert_attained(results, exact, (1, 1, 1, 2, 2, 2, 3), measure, 2)

    @pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.value)
    def test_tripartite_product_attains_t1_and_t2(self, measure):
        rho = DensityMatrix(np.kron(np.kron(ZERO, RHO_B), HALF_I))
        report = tripartite_report(rho, measure)
        exact = oracle_t1_t2(rho.matrix, measure.value)
        self.assert_attained([report.t1, report.t2], exact, (3, 6), measure, 3)
        assert not report.t3.violated

    @pytest.mark.parametrize("nqubits, count", [(2, 10000), (3, 2000)])
    def test_product_mixtures_are_never_flagged(self, nqubits, count):
        """One stack per qubit count through ``_condition``: the seeded
        mixtures and, first, the attaining products."""
        rest = [HALF_I] * (nqubits - 2)
        attaining = [
            functools.reduce(np.kron, [alice, RHO_B, *rest]) for alice in (ZERO, HALF_I)
        ]
        stack = np.concatenate([attaining, product_mixtures(nqubits, count, 1400 + nqubits)])
        qcore._validate(stack)
        parts = _parts(_condition(stack), tuple(ALL_MEASURES))
        for measure, values in zip(ALL_MEASURES, parts):
            for name, result in _criteria(nqubits, values.T, measure).items():
                assert not result.violated.any(), (measure, name)


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
    """A state is conditioned and scored once, for every measure; each
    report reads its measure's row of the memo."""

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_a_state_is_conditioned_and_scored_once(self, nqubits, monkeypatch):
        """Three steering reports and ``shift_values`` of a two-qubit state
        make one ``_condition`` and one ``_shifts`` call; three tripartite
        reports of a three-qubit state make one ``_tripartite`` call, and
        condition the state itself once."""
        calls = []

        def counting(name):
            original = getattr(steering, name)

            def counted(*args, **kwargs):
                calls.append((name, args[0].shape if name == "_condition" else None))
                return original(*args, **kwargs)

            return counted

        for name in ("_condition", "_shifts", "_tripartite"):
            monkeypatch.setattr(steering, name, counting(name))
        if nqubits == 2:
            rho = seeded_sample(2, SEEDS[2], 5)
            for measure in ALL_MEASURES:
                steering_report(rho, measure)
            shift_values(rho, Measure.SKEW_INFORMATION)
            assert calls == [("_condition", (4, 4)), ("_shifts", None)]
        else:
            rho = seeded_sample(3, SEEDS[3], 5)
            for measure in ALL_MEASURES:
                tripartite_report(rho, measure)
            assert calls.count(("_tripartite", None)) == 1
            assert calls.count(("_shifts", None)) == 1
            assert calls.count(("_condition", (8, 8))) == 1
        assert rho._parts.shape == (3, 3) and not rho._parts.flags.writeable

    @pytest.mark.parametrize("measure", ["l1", None, 1])
    def test_reports_reject_what_is_not_a_measure(self, measure):
        cases = [(steering_report, bell()), (shift_values, bell())]
        cases += [(tripartite_report, ghz_alpha(0.5))]
        cases += [(coherence_triple, qcore.BlochQubit(np.zeros(3)))]
        cases += [(CoherenceTriple, np.zeros(3)), (ShiftValues, np.zeros(3))]
        for report, arg in cases:
            with pytest.raises(TypeError, match=f"measure must be a Measure, got {measure!r}"):
                report(arg, measure)

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_reports_do_not_depend_on_what_filled_the_memo(self, nqubits):
        report = steering_report if nqubits == 2 else tripartite_report
        for matrix in sample_stack(nqubits, 4):
            fresh = {
                m: report_hex(report(DensityMatrix(matrix), m)) for m in ALL_MEASURES
            }
            for order in itertools.permutations(ALL_MEASURES):
                rho = DensityMatrix(matrix)
                for measure in order:
                    assert report_hex(report(rho, measure)) == fresh[measure]

    def test_repeat_calls_give_equal_branches(self):
        for idx in range(10):
            rho = seeded_sample(2, SEEDS[2], idx)
            first = [conditional_states(rho, axis) for axis in (1, 2, 3)]
            for measure in ALL_MEASURES:
                steering_report(rho, measure)
            for axis in (1, 2, 3):
                assert conditional_states(rho, axis) == first[axis - 1]
                fresh = conditional_states(DensityMatrix(rho.matrix), axis)
                assert fresh == first[axis - 1]

    def test_filled_memo_cannot_go_stale(self):
        rho = seeded_sample(2, SEEDS[2], 1)
        before = {m: report_hex(steering_report(rho, m)) for m in ALL_MEASURES}
        with pytest.raises(AttributeError):
            rho.matrix = bell().matrix
        with pytest.raises(AttributeError):
            rho.nqubits = 3
        with pytest.raises(AttributeError):
            rho.dim = 8
        assert rho.matrix.tobytes() == seeded_sample(2, SEEDS[2], 1).matrix.tobytes()
        assert rho.nqubits == 2
        for measure in ALL_MEASURES:
            assert report_hex(steering_report(rho, measure)) == before[measure]

    def test_three_qubit_state_is_validated_once(self, monkeypatch):
        """The state is validated in one call where it enters; Charlie's six
        conditional AB states, which all three measures share, are not
        validated again."""
        matrix = seeded_sample(3, SEEDS[3], 0).matrix
        calls = []
        original = qcore._validate

        def counting(mats):
            calls.append(np.array(mats))
            original(mats)

        monkeypatch.setattr(qcore, "_validate", counting)
        monkeypatch.setattr(steering, "_validate", counting, raising=False)
        rho = DensityMatrix(matrix)
        for measure in ALL_MEASURES:
            tripartite_report(rho, measure)
        assert [c.shape for c in calls] == [(8, 8)]
        assert calls[0].tobytes() == matrix.tobytes()

    def test_threads_sharing_states_read_the_same_reports(self):
        matrices = [seeded_sample(2, SEEDS[2], i).matrix for i in range(4)]
        matrices += [seeded_sample(3, SEEDS[3], i).matrix for i in range(2)]

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
        assert_within_the_exact_bounds([matrix])
        for measure in ALL_MEASURES:
            again = steering_report(DensityMatrix(matrix), measure)
            assert report_hex(again) == report_hex(reports[measure])

    def test_charlie_in_zero(self):
        matrix = np.kron(seeded_sample(2, SEEDS[2], 3).matrix, np.diag([1.0, 0.0]))
        rho = DensityMatrix(matrix)
        reports = {m: tripartite_report(rho, m) for m in ALL_MEASURES}
        cond = _condition(rho.matrix)
        # the reports are the rows of the memo, in the order of Measure
        assert rho._parts.tolist() == [
            [res.value for res in (reports[m].t1, reports[m].t2, reports[m].t3)]
            for m in ALL_MEASURES
        ]
        assert cond.charlie[2, 0] == pytest.approx(1.0, abs=1e-12)
        assert cond.charlie[2, 1] == 0.0
        # the dropped AB state contributes all-zero branches
        assert not cond.prob[2, 1].any() and not cond.bloch[2, 1].any()
        assert_within_the_exact_bounds([matrix])
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
        cond = _condition(rho.matrix)
        assert cond.norm[2, 1] > 1.0 + BLOCH_NORM_TOL
        kept, low = conditional_states(rho, 3)
        assert low.probability == cond.prob[2, 1]
        assert low.state.r.tobytes() == (cond.bloch[2, 1] / cond.norm[2, 1]).tobytes()
        assert low.state.norm == pytest.approx(1.0, abs=1e-15)
        # a vector within 1 + BLOCH_NORM_TOL is kept as it is
        assert kept.state.r.tobytes() == cond.bloch[2, 0].tobytes()

    def test_a_vector_too_long_for_its_probability_is_rejected(self):
        # Bell's state with 7.5e-10 moved from |01><01| to |00><00|: Alice's
        # outcome z = 0 keeps p = 1/2, and Bob's |b| = 1 + 3e-9 is longer
        # than the 1 + BLOCH_NORM_TOL / p = 1 + 2e-9 the guard allows
        matrix = bell().matrix.copy()
        matrix[0, 0] += 7.5e-10
        matrix[1, 1] -= 7.5e-10
        with pytest.raises(ConsistencyError, match=r"weighted Bloch vector norm excess 1\.(5|49)"):
            _condition(matrix[None])


def low_branch_state(nqubits: int, p: float, x: float, defect: float = 0.0) -> np.ndarray:
    """A state, diagonal but for the real upper entry ``defect``, in which
    Alice's outcome z = 1 is a branch of probability p (inside Charlie's
    z = 1, of probability 1e-8, on three qubits) holding the block
    [[p + x, defect], [0, -x]]. Its weighted Bloch norm excess
    p * (|b| - 1) is sqrt((p + 2x)**2 + 4 defect**2) - p: 2x without the
    defect. The eigenvalue -x is the lowest, and the eigensolver, which
    reads the lower triangle, never sees the defect."""
    diag = np.zeros(2**nqubits)
    if nqubits == 2:
        low = [2, 3]  # |10>, |11>
        diag[0] = 1.0 - p
    else:
        low = [5, 7]  # |101>, |111>
        diag[0], diag[1] = 1.0 - 1e-8, 1e-8 - p
    diag[low] = p + x, -x
    matrix = np.diag(diag).astype(complex)
    matrix[low[0], low[1]] = defect
    return matrix


def weighted_excess(cond) -> float:
    """The largest w * (|b| - 1) of a conditioning, w the probability of
    reaching the branch: Alice's, times Charlie's on three qubits."""
    weight = cond.prob if cond.charlie is None else cond.charlie[..., None, None] * cond.prob
    return float((weight * (cond.norm - 1.0)).max())


class TestWeightedNormGuard:
    """``_condition`` holds every branch of a stack, reached with
    probability w, to w * (|b| - 1) <= BLOCH_NORM_TOL: the state's
    eigenvalue slack, which conditioning scales by 1 / w."""

    @pytest.mark.parametrize("nqubits", [2, 3])
    @pytest.mark.parametrize("p", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_accepted_states_never_trip_it(self, nqubits, p):
        """At the eigenvalue floor -1e-10, with a Hermiticity defect of
        9e-11 in the low branch, a state is accepted and conditioned, and
        its branches are built."""
        rho = DensityMatrix(low_branch_state(nqubits, p, 1e-10, defect=9e-11))
        assert weighted_excess(_condition(rho.matrix)) > 2e-10  # the slack is there
        if nqubits == 2:
            for axis in (1, 2, 3):
                for branch in conditional_states(rho, axis):
                    assert branch.state.norm <= 1.0 + BLOCH_NORM_TOL

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_random_states_at_the_floor_never_trip_it(self, nqubits):
        """States near |0...0> with a random admixture of weight 1e-8 to
        1e-11, their lowest eigenvalue moved to the floor and a Hermiticity
        defect of 9e-11 in a random upper entry: a stack of 64 is accepted
        and conditioned as one."""
        rng = np.random.default_rng(404 + nqubits)
        dim = 2**nqubits
        stack = []
        for _ in range(64):
            weight = 10.0 ** -rng.uniform(8, 11)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            sigma = weight * (g @ g.conj().T) / np.linalg.norm(g) ** 2
            sigma[0, 0] += 1.0 - weight
            eig, vec = np.linalg.eigh(sigma)
            eig[0] = -1e-10 + 1e-14  # clear of the eigensolver's round-off
            eig[-1] += 1.0 - eig.sum()
            matrix = (vec * eig) @ vec.conj().T
            i, j = sorted(rng.choice(dim, size=2, replace=False))
            matrix[i, j] += 9e-11 * np.exp(2j * np.pi * rng.uniform())
            stack.append(DensityMatrix(matrix).matrix)
        assert weighted_excess(_condition(np.array(stack))) > 1e-10

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_it_trips_above_the_tolerance_and_not_below(self, nqubits):
        """A weighted excess of 5e-10 passes and one of 1.5e-9 raises. On
        three qubits the branch lies in Charlie's outcome of probability
        1e-8, so the same excess unweighted by it would be 1e8 times larger."""
        cond = _condition(low_branch_state(nqubits, 5e-9, 2.5e-10)[None])
        assert weighted_excess(cond) == pytest.approx(5e-10, rel=1e-6)
        if nqubits == 3:
            assert (cond.prob * (cond.norm - 1.0)).max() == pytest.approx(5e-2, rel=1e-6)
        with pytest.raises(ConsistencyError, match=r"weighted Bloch vector norm excess 1\.(5|49)"):
            _condition(low_branch_state(nqubits, 5e-9, 7.5e-10)[None])

    @pytest.mark.parametrize("nqubits", [2, 3])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 1)])
    def test_nan_in_one_entry_of_a_stack_trips_it(self, nqubits, entry):
        stack = sample_stack(nqubits, 5)
        _condition(stack)
        stack[3][entry] = np.nan
        # an outcome probability reads the entries equal in the unmeasured
        # qubits' indices (Bob's on two qubits, A and B's of Charlie's first
        # pass on three); a NaN there trips the check before the division,
        # one elsewhere reaches the norm guard through Bob's Bloch vector
        i, j = entry
        if (i % 2 == j % 2) if nqubits == 2 else (i // 2 == j // 2):
            message = "outcome probability nan is not finite"
        else:
            message = "weighted Bloch vector norm excess nan"
        with pytest.raises(ConsistencyError, match=message):
            _condition(stack)


class TestDerivedTotalTolerance:
    """A branch's values add to at most epsilon * max(1, |b|), and the
    branch guard holds w * (|b| - 1) to BLOCH_NORM_TOL, so a total over n
    of Alice's branches may exceed its bound by n * epsilon *
    BLOCH_NORM_TOL beyond the round-off BOUND_TOL: n = 6 for a shift total
    (weighed by Charlie's probability in his AB states), 36 for t3, and 1
    for the coherence triple of one qubit, whose |b| is at most 1 +
    BLOCH_NORM_TOL."""

    # accepted (lowest eigenvalue -1e-10); skew's t3 exceeds 18 by the sum
    # of its 36 branches' weighted excesses, 1.8e-9
    FLOOR = np.diag([1 - 1e-8 + 1e-10, 1e-8, 0, -1e-10, 0, 0, 0, 0]).astype(complex)

    @staticmethod
    def tolerance(branches: int) -> float:
        return BOUND_TOL + branches * Measure.SKEW_INFORMATION.epsilon * BLOCH_NORM_TOL

    def test_all_states_bounds_are_powers_of_three(self):
        for nqubits, table in CRITERIA.items():
            *_, (_, units) = table.values()
            assert units == 3 ** (nqubits - 1)

    def test_coherence_of_every_branch_of_an_accepted_state_passes(self):
        """Alice's z = 0 branch (p = 0.2) of this state, lowest eigenvalue
        -9e-11, holds b = (1 + 9e-10) (1, 1, 1) / sqrt(3): kept as it is,
        since |b| is under 1 + BLOCH_NORM_TOL, and l1's triple exceeds
        sqrt(6) by 2.2e-9, more than the round-off BOUND_TOL alone."""
        bx = by = bz = (1.0 + 9e-10) / math.sqrt(3.0)
        qubit = np.array([[1 + bz, bx - 1j * by], [bx + 1j * by, 1 - bz]]) / 2.0
        zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rho = DensityMatrix(0.2 * np.kron(zero, qubit) + 0.8 * np.kron(one, np.eye(2) / 2.0))
        kept = conditional_states(rho, 3)[0].state
        assert 1.0 + 8e-10 < kept.norm < 1.0 + BLOCH_NORM_TOL
        assert coherence_triple(kept, Measure.L1).total - SQRT6 > BOUND_TOL
        for axis in (1, 2, 3):
            for branch in conditional_states(rho, axis):
                for measure in ALL_MEASURES:
                    coherence_triple(branch.state, measure)

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    @pytest.mark.parametrize("nqubits", [1, 2])
    def test_a_triple_excess_above_the_tolerance_raises(self, nqubits, scale):
        """One qubit's coherence triple or a shift triple, held to 3 ** (n - 1)
        epsilon plus the tolerance of n qubits."""
        triple = CoherenceTriple if nqubits == 1 else ShiftValues
        name = "coherence triple sum" if nqubits == 1 else "shift total"
        for measure in ALL_MEASURES:
            bound = 3 ** (nqubits - 1) * measure.epsilon
            tol = BOUND_TOL + 6 ** (nqubits - 1) * measure.epsilon * BLOCH_NORM_TOL
            values = [bound + scale * tol, 0.0, 0.0]
            if scale < 1.0:
                assert triple(values, measure).total - bound == pytest.approx(scale * tol, rel=1e-6)
            else:
                message = f"{name} .* exceeds the bound {bound:.15g}$"
                with pytest.raises(ConsistencyError, match=message):
                    triple(values, measure)

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_flags_share_the_total_tolerance(self, nqubits):
        """The slack that lets a total pass its bound lets single0 or t1
        pass theirs: a criterion is flagged only beyond its bound plus its
        table's total tolerance."""
        name, ((part,), units) = next(iter(CRITERIA[nqubits].items()))
        for measure in ALL_MEASURES:
            tol = BOUND_TOL + 6 ** (nqubits - 1) * measure.epsilon * BLOCH_NORM_TOL
            for scale, flagged in ((0.9, False), (1.1, True)):
                values = [0.0, 0.0, 0.0]
                values[part] = units * measure.epsilon + scale * tol
                assert _criteria(nqubits, values, measure)[name].violated is flagged

    def test_t3_of_a_state_at_the_floor_passes(self):
        rho = DensityMatrix(self.FLOOR)
        t3 = tripartite_report(rho, Measure.SKEW_INFORMATION).t3
        assert BOUND_TOL < t3.value - t3.bound < self.tolerance(36)
        for measure in ALL_MEASURES:
            tripartite_report(rho, measure)

    @pytest.mark.parametrize("p", [1e-8, 1e-9, 1e-10, 1e-11])
    def test_three_qubit_states_at_the_floor_evaluate(self, p):
        rho = DensityMatrix(low_branch_state(3, p, 1e-10, defect=9e-11))
        for measure in ALL_MEASURES:
            tripartite_report(rho, measure)

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_a_t3_excess_above_the_tolerance_raises(self, scale):
        """|000> saturates skew's t3 = 9 * 2. Charlie's probabilities add to
        3, so every AB shift total raised by x / 3 raises t3 by x."""
        skew = Measure.SKEW_INFORMATION
        cond = _condition(ghz_alpha(1.0).matrix)
        s, total = _shifts(cond, (skew,))
        excess = scale * self.tolerance(36)
        shifts = (s, total + excess / 3.0)
        if scale < 1.0:
            t3 = _tripartite(cond, (skew,), shifts)[0, 2]
            assert t3 - 18.0 == pytest.approx(excess, rel=1e-6)
        else:
            message = r"tripartite total 18\.00000008\d* exceeds the bound 18$"
            with pytest.raises(ConsistencyError, match=message):
                _tripartite(cond, (skew,), shifts)

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_a_shift_total_excess_above_the_tolerance_raises(self, scale):
        """|00> saturates skew's shift total 3 * 2. Alice's probabilities
        add to 3, so scaling them by 1 + x / 6 raises it by x."""
        skew = Measure.SKEW_INFORMATION
        cond = _condition(pure_alpha(1.0).matrix)
        excess = scale * self.tolerance(6)
        cond = cond._replace(prob=cond.prob * (1.0 + excess / 6.0))
        if scale < 1.0:
            assert _shifts(cond, (skew,))[1][0] - 6.0 == pytest.approx(excess, rel=1e-6)
        else:
            message = r"^shift total 6\.0000000143\d* exceeds the bound 6$"
            with pytest.raises(ConsistencyError, match=message):
                _shifts(cond, (skew,))

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_a_weighted_shift_total_excess_above_the_tolerance_raises(self, scale):
        """In |000>, Charlie's outcome x = 0 (p = 1/2) leaves |00>: scaling
        Alice's probabilities there by 1 + x / 3 raises its shift total by
        2x, a weighted excess of x."""
        skew = Measure.SKEW_INFORMATION
        cond = _condition(ghz_alpha(1.0).matrix)
        excess = scale * self.tolerance(6)
        prob = cond.prob.copy()
        prob[0, 0] *= 1.0 + excess / 3.0
        cond = cond._replace(prob=prob)
        if scale < 1.0:
            weighted = cond.charlie[0, 0] * (_shifts(cond, (skew,))[1][0, 0, 0] - 6.0)
            assert weighted == pytest.approx(excess, rel=1e-6)
        else:
            message = r"weighted shift total excess 1\.4\d*e-08 exceeds the bound 0$"
            with pytest.raises(ConsistencyError, match=message):
                _shifts(cond, (skew,))


def assert_within_the_exact_bounds(matrices) -> None:
    """Every value of ``_parts`` of each state, for every measure, lies
    within its measure's ``accuracy_bound`` of the exact value. On three
    qubits t3 is also held to t1 + t2 added the other way round, Charlie's
    outcome probabilities weighting the shift totals of his AB states: the
    report's t3 = t1 + t2 holds by construction and cannot fail on its own."""
    matrices = np.array(matrices)
    cond = _condition(matrices)
    parts = _parts(cond, tuple(ALL_MEASURES))
    if cond.charlie is not None:
        added = (cond.charlie * _shifts(cond, tuple(ALL_MEASURES))[1]).sum(axis=(-2, -1))
        assert np.abs(parts[..., 2] - added).max() <= 1e-12
    for measure, values in zip(ALL_MEASURES, parts):
        bound = accuracy_bound(measure.value, int(math.log2(len(matrices[0]))))
        for index, matrix in enumerate(matrices):
            exact = oracle_parts(matrix, measure.value)
            error = max(abs(v - e) for v, e in zip(values[index].tolist(), exact))
            assert error <= bound, (measure, index, float(error))


class TestAccuracy:
    """The stacked core within ``accuracy_bound`` of the exact reference, on
    Haar-pure and Ginibre states of every rank, the family grids and a|000>
    - b|111> (dropped branches among them) and ``low_branch_state``'s floor
    states: at every SIMD level, where tests/golden.json pins one's bits."""

    FAMILY_GRID = [k / 20 for k in range(21)]

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_ginibre_states_of_every_rank(self, nqubits):
        """search's samples, Haar-pure and full-rank Ginibre in turn, and G
        G^dag of every rank for a complex G, Haar-pure at rank 1."""
        dim = 2**nqubits
        matrices = list(sample_stack(nqubits, 40 // 4 ** (nqubits - 2)))
        for rank, index in itertools.product(range(1, dim + 1), range(16 // dim)):
            ss = np.random.SeedSequence([9700, nqubits, rank, index])
            matrices.append(random_mixed(nqubits, rank, ss).matrix)
        assert_within_the_exact_bounds(matrices)

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_real_ginibre_states_of_every_rank(self, nqubits):
        """G G^T of every rank for a real G, whose real entries have both
        signs and whose imaginary parts are all +0.0."""
        dim = 2**nqubits
        matrices = []
        for rank, index in itertools.product(range(1, dim + 1), range(16 // dim)):
            g = np.random.default_rng([9701, nqubits, rank, index]).standard_normal((dim, rank))
            matrices.append(DensityMatrix((g @ g.T / np.sum(g * g)).astype(complex)).matrix)
        assert_within_the_exact_bounds(matrices)

    @pytest.mark.parametrize("family", [pure_alpha, werner, ghz_alpha])
    def test_family_grids(self, family):
        assert_within_the_exact_bounds([family(x).matrix for x in self.FAMILY_GRID])

    def test_real_ghz_with_a_negative_amplitude(self):
        """a|000> - b|111>, whose entry (0, 7) is -ab with imaginary part -0.0."""
        x = np.array(self.FAMILY_GRID)
        vec = np.zeros((len(x), 8), dtype=complex)
        vec[:, 0], vec[:, 7] = np.sqrt(x), -np.sqrt(1.0 - x)
        assert_within_the_exact_bounds(vec[:, :, None] * vec[:, None, :].conj())

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_floor_states(self, nqubits):
        """Branches of probability 1e-8 to 1e-11 at the eigenvalue floor, whose
        Bloch vectors are far longer than 1."""
        floor = [low_branch_state(nqubits, p, 1e-10, 9e-11) for p in (1e-8, 1e-9, 1e-10, 1e-11)]
        assert_within_the_exact_bounds(floor)


def condition_fields(cond) -> list:
    return [None if field is None else field.tobytes() for field in cond]


class TestConditioningLayouts:
    """``_condition`` reads a stack through its float view. C-contiguous
    chunks of 1, 2, 7 and all of ``test_batch.STATES``, family members with
    dropped branches among them, and layouts that no sampled chunk has give
    each state the bits it has alone, as a bare C-contiguous (D, D) matrix;
    ``TestAccuracy`` holds those to the exact reference."""

    @staticmethod
    def layouts(stack: np.ndarray) -> dict:
        mixed = 0.25 * stack + 0.75 * stack[::-1]
        wide = np.zeros(stack.shape[:-1] + (2 * stack.shape[-1],), dtype=complex)
        wide[..., ::2] = stack
        return {
            "strided slice": stack[::2],
            "transposed members": np.ascontiguousarray(stack.swapaxes(-1, -2)).swapaxes(-1, -2),
            "fortran stack": np.asfortranarray(stack),
            "every other column of a wider stack": wide[..., ::2],
            "3 x n, as the mixing suite": np.stack([stack, stack[::-1], mixed]),
            "bare fortran matrix": np.asfortranarray(stack[1]),
        }

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_every_layout_gives_each_state_its_bits(self, nqubits):
        cases = list(self.layouts(sample_stack(nqubits, 7)).items())
        cases += [(f"chunk of {n}", m) for n in STACK_SIZES for m in stacked(STATES[nqubits], n)]
        for name, matrices in cases:
            cond = _condition(matrices)
            lead = matrices.shape[:-2]
            assert cond.prob.shape == lead + (3, 2) + ((3, 2) if nqubits == 3 else ())
            for index in np.ndindex(lead):
                alone = _condition(np.array(matrices[index]))
                member = [None if f is None else f[index].tobytes() for f in cond]
                assert member == condition_fields(alone), (name, index)


@pytest.mark.parametrize("nqubits", [2, 3])
def test_nan_in_any_part_of_any_entry_raises_or_is_never_read(nqubits):
    """NaN in the real or the imaginary part of any entry of one member of a
    stack (32 positions on two qubits, 128 on three) raises
    ``ConsistencyError``, or, in a position no branch reads, leaves every
    output bit as it is in the clean stack: it never becomes numbers."""
    stack = sample_stack(nqubits, 3)
    clean = condition_fields(_condition(stack))
    positions = 2 * stack[1].size
    raised = 0
    for position in range(positions):
        poisoned = stack.copy()
        poisoned[1].view(float).reshape(-1)[position] = np.nan
        try:
            cond = _condition(poisoned)
        except ConsistencyError:
            raised += 1
            continue
        assert condition_fields(cond) == clean, position
    assert positions == {2: 32, 3: 128}[nqubits]
    assert raised > 0

