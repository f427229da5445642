"""Acceptance suite: quantitative reproduction and Monte-Carlo properties.

Every test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
even when green) and then asserts. The checks are frozen against
independent oracles: hand-derived conditional Bloch vectors for the state
families, a numpy-only density-matrix oracle for the tripartite criteria,
eigendecomposition-based brute force for the coherence measures, and seeded
sampling for the all-states bounds.
"""

import math
import time

import numpy as np

from naqc.coherence import (
    EPSILON_RELENT,
    Measure,
    coherence_triple,
)
from naqc.qcore import BlochQubit, DensityMatrix, pauli
from naqc.states import (
    bell,
    ghz_alpha,
    pure_alpha,
    random_bloch_qubit_vector,
    random_mixed,
    random_pure,
    to_bloch,
)
from naqc.steering import (
    _conditioned,
    _shifts,
    conditional_states,
    shift_values,
    steering_report,
    tripartite_report,
)
from oracles import oracle_t1_t2, qubit_of_bloch, sqrt_psd

SQRT6 = math.sqrt(6.0)
ALL_MEASURES = list(Measure)


def emit(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def two_qubit_sample(seed: int, index: int) -> DensityMatrix:
    ss = np.random.SeedSequence([seed, index])
    return random_pure(2, ss) if index % 2 == 0 else random_mixed(2, 4, ss)


def three_qubit_sample(seed: int, index: int) -> DensityMatrix:
    ss = np.random.SeedSequence([seed, index])
    return random_pure(3, ss) if index % 2 == 0 else random_mixed(3, 8, ss)


def test_1_coherence_complementarity_bound_and_attainment():
    start = time.perf_counter()
    rng = np.random.default_rng(20240001)
    worst_excess = -np.inf
    for _ in range(10_000):
        state = BlochQubit(random_bloch_qubit_vector(rng))
        for measure in ALL_MEASURES:
            excess = coherence_triple(state, measure).total - measure.epsilon
            worst_excess = max(worst_excess, excess)
    bound_holds = worst_excess <= 1e-9

    symmetric = BlochQubit(np.ones(3) / np.sqrt(3))
    l1_total = coherence_triple(symmetric, Measure.L1).total
    skew_total = coherence_triple(symmetric, Measure.SKEW_INFORMATION).total
    relent_total = coherence_triple(symmetric, Measure.RELATIVE_ENTROPY).total
    attains = (
        abs(l1_total - SQRT6) <= 1e-12
        and abs(skew_total - 2.0) <= 1e-12
        and abs(relent_total - EPSILON_RELENT) <= 1e-4
        and round(EPSILON_RELENT, 2) == 2.23
    )
    elapsed = time.perf_counter() - start
    ok = bound_holds and attains and elapsed < 5.0
    detail = (
        f"worst excess {worst_excess:.3e}; attained l1 {l1_total:.15g}, "
        f"skew {skew_total:.15g}, relent {relent_total:.15g} "
        f"(bound {EPSILON_RELENT:.15g}); {elapsed:.2f}s"
    )
    emit(1, "coherence complementarity", ok, detail)
    assert ok, detail


def test_2_pure_family_sweep_matches_closed_forms():
    start = time.perf_counter()
    grid = [k / 100 for k in range(101)]
    worst = 0.0
    crossing_consistent = True
    triple_max = 0.0
    for alpha in grid:
        s = shift_values(pure_alpha(alpha), Measure.L1).values
        s0, s12_half, s012_third = s[0], (s[1] + s[2]) / 2, float(s.sum()) / 3
        root = math.sqrt(alpha * (1 - alpha))
        worst = max(
            worst,
            abs(s0 - 2 * abs(2 * alpha - 1)),
            abs(s12_half - (2 + 2 * root)),
            abs(s012_third - (2 * abs(2 * alpha - 1) + 4 + 4 * root) / 3),
        )
        exceeds = s12_half > SQRT6
        should_exceed = alpha * (1 - alpha) > ((SQRT6 - 2) / 2) ** 2
        crossing_consistent = crossing_consistent and (exceeds == should_exceed)
        triple_max = max(triple_max, s012_third)
    peak = (shift_values(pure_alpha(0.5), Measure.L1).values[1:].sum()) / 2
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-10
        and crossing_consistent
        and abs(peak - 3.0) <= 1e-12
        and triple_max <= SQRT6
        and elapsed < 5.0
    )
    detail = (
        f"worst closed-form deviation {worst:.3e}; peak {peak:.15g}; "
        f"triple max {triple_max:.15g} vs sqrt6 {SQRT6:.15g}; {elapsed:.2f}s"
    )
    emit(2, "pure-family sweep closed forms", ok, detail)
    assert ok, detail


def test_3_bell_state_compensation():
    s = shift_values(bell(), Measure.L1).values
    s12 = float(s[1] + s[2])
    total = float(s.sum())
    ok = (
        abs(s12 - 6.0) <= 1e-10
        and s12 > 2 * SQRT6
        and abs(s[0]) <= 1e-10
        and abs(total - 6.0) <= 1e-10
        and total <= 3 * SQRT6
    )
    detail = f"s12 {s12:.15g} > {2 * SQRT6:.15g}; s0 {s[0]:.3e}; total {total:.15g}"
    emit(3, "Bell-state violation with compensation", ok, detail)
    assert ok, detail


def test_4_bipartite_complementarity_over_random_states():
    start = time.perf_counter()
    worst_excess = -np.inf
    worst_spread = 0.0
    for index in range(10_000):
        rho = two_qubit_sample(20240004, index)
        for measure in ALL_MEASURES:
            report = steering_report(rho, measure)
            worst_excess = max(
                worst_excess, report.triple.value - report.triple.bound
            )
            values = [v for _, v in report.decompositions]
            worst_spread = max(worst_spread, max(values) - min(values))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and worst_spread <= 1e-12 and elapsed < 60.0
    detail = (
        f"worst excess {worst_excess:.3e}; worst decomposition spread "
        f"{worst_spread:.3e}; {elapsed:.1f}s"
    )
    emit(4, "bipartite complementarity", ok, detail)
    assert ok, detail


def oracle_ghz_state(a: float) -> np.ndarray:
    """The GHZ-family projector built with numpy alone, for the oracle."""
    ket = np.zeros(8, dtype=complex)
    ket[0], ket[7] = a, math.sqrt(1 - a * a)
    return np.outer(ket, ket.conj())


def test_5_ghz_family_tripartite_criterion_curve():
    """GHZ family a|000> + b|111>, b = sqrt(1-a^2): t1 against the oracle.

    Charlie's z outcomes leave |00> or |11> (matched s0 = 2); his x outcomes
    leave a|00> +/- b|11> (matched s1 = 2 + 2ab); his y outcomes leave
    a|00> -/+ i b|11>, whose phase lowers the matched s2 to 1 + |2a^2-1| + 2ab.
    So t1(a) = 5 + 4ab + |2a^2-1|, peak 5 + sqrt5 < 3 sqrt6. The quoted form
    6 + 4a sqrt(1-a^2) ignores the y-branch phase and is off by 1 at 1/sqrt2.
    """
    grid = [k / 100 for k in range(101)]
    values = [tripartite_report(ghz_alpha(a), Measure.L1).t1.value for a in grid]
    oracle = [oracle_t1_t2(oracle_ghz_state(a))[0] for a in grid]
    closed = [5 + 4 * a * math.sqrt(1 - a * a) + abs(2 * a * a - 1) for a in grid]
    worst_oracle = max(abs(v - o) for v, o in zip(values, oracle))
    worst_closed = max(
        max(abs(v - c), abs(o - c)) for v, o, c in zip(values, oracle, closed)
    )
    matches_oracle = worst_oracle <= 1e-10 and worst_closed <= 1e-10

    bound = 3 * SQRT6
    above = [a for a, v in zip(grid, values) if v > bound]
    peak = max(values)
    below_bound = not above and peak <= 5 + math.sqrt(5) + 1e-12

    symmetric = tripartite_report(ghz_alpha(1 / math.sqrt(2)), Measure.L1).t1.value
    symmetric_is_seven = abs(symmetric - 7.0) <= 1e-10
    quoted_deviation = 8.0 - symmetric
    quoted_off_by_one = abs(quoted_deviation - 1.0) <= 1e-10

    ok = matches_oracle and below_bound and symmetric_is_seven and quoted_off_by_one
    detail = (
        f"worst |T1 - oracle| = {worst_oracle:.3e}; worst |T1, oracle - "
        f"(5 + 4a sqrt(1-a^2) + |2a^2-1|)| = {worst_closed:.3e}; "
        f"T1(1/sqrt2) = {symmetric:.15g}, quoted 8 - T1 = {quoted_deviation:.15g}; "
        f"max T1 = {peak:.15g} vs 3*sqrt6 = {bound:.15g}; "
        f"grid points above bound: {len(above)}"
    )
    emit(5, "GHZ-family tripartite criterion curve", ok, detail)
    assert ok, detail


def test_6_tripartite_complementarity_over_random_states():
    """t3 within 9 eps for every measure, and t3 equal to t1 + t2 added the
    other way round: Charlie's outcome probabilities weighting the shift
    totals of his conditional AB states, a sum the report does not add."""
    start = time.perf_counter()
    worst_excess = -np.inf
    worst_gap = 0.0
    for index in range(1_000):
        rho = three_qubit_sample(20240006, index)
        cond = _conditioned(rho)
        totals = _shifts(cond, tuple(ALL_MEASURES))[1]
        added = (cond.charlie * totals).sum(axis=(-2, -1))
        for measure, weighted in zip(ALL_MEASURES, added.tolist()):
            report = tripartite_report(rho, measure)
            worst_excess = max(worst_excess, report.t3.value - report.t3.bound)
            worst_gap = max(worst_gap, abs(report.t3.value - weighted))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and worst_gap <= 1e-12 and elapsed < 120.0
    detail = (
        f"worst excess {worst_excess:.3e}; worst |t3 - sum p(c) s_total| {worst_gap:.3e}; "
        f"{elapsed:.1f}s"
    )
    emit(6, "tripartite complementarity", ok, detail)
    assert ok, detail


def test_7_skew_information_oracle_equivalence():
    rng = np.random.default_rng(20240007)
    worst = 0.0
    for _ in range(1_000):
        state = BlochQubit(random_bloch_qubit_vector(rng))
        root = sqrt_psd(qubit_of_bloch(state))
        skew = coherence_triple(state, Measure.SKEW_INFORMATION).values
        for axis in (1, 2, 3):
            comm = root @ pauli(axis) - pauli(axis) @ root
            brute = float(np.real(-0.5 * np.trace(comm @ comm)))
            worst = max(worst, abs(skew[axis - 1] - brute))
    ok = worst <= 1e-10
    detail = f"worst |closed form - commutator brute force| = {worst:.3e}"
    emit(7, "skew-information oracle equivalence", ok, detail)
    assert ok, detail


def test_8_shift_values_convex_under_mixing():
    rng = np.random.default_rng(20240008)
    worst = -np.inf
    for index in range(1_000):
        rho1 = two_qubit_sample(20240008, 2 * index)
        rho2 = two_qubit_sample(20240008, 2 * index + 1)
        weight = rng.uniform()
        mixed = DensityMatrix(weight * rho1.matrix + (1 - weight) * rho2.matrix)
        for measure in ALL_MEASURES:
            gap = shift_values(mixed, measure).values - (
                weight * shift_values(rho1, measure).values
                + (1 - weight) * shift_values(rho2, measure).values
            )
            worst = max(worst, float(gap.max()))
    ok = worst <= 1e-9
    detail = f"worst convexity excess = {worst:.3e}"
    emit(8, "mixing monotonicity of shift values", ok, detail)
    assert ok, detail


def test_9_no_signalling_reconstruction():
    worst = 0.0
    for index in range(1_000):
        rho = two_qubit_sample(20240009, index)
        bob_r = to_bloch(rho).s
        for axis in (1, 2, 3):
            averaged = np.zeros(3)
            for branch in conditional_states(rho, axis):
                averaged += branch.probability * branch.state.r
            worst = max(worst, float(np.max(np.abs(averaged - bob_r))))
    ok = worst <= 1e-10
    detail = f"worst reconstruction residual = {worst:.3e}"
    emit(9, "no-signalling", ok, detail)
    assert ok, detail


def test_10_tripartite_criteria_match_oracle_on_random_states():
    """Charlie's conditioning on generic states: t1 and t2 of the library
    against the density-matrix oracle, on alternating Haar-pure and
    full-rank Ginibre three-qubit states."""
    worst = 0.0
    for index in range(50):
        rho = three_qubit_sample(20240010, index)
        report = tripartite_report(rho, Measure.L1)
        t1, t2 = oracle_t1_t2(rho.matrix)
        worst = max(worst, abs(report.t1.value - t1), abs(report.t2.value - t2))
    ok = worst <= 1e-10
    detail = f"worst |t1, t2 - oracle| over 50 states = {worst:.3e}"
    emit(10, "tripartite criteria against the density-matrix oracle", ok, detail)
    assert ok, detail
