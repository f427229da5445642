"""Acceptance suite: quantitative reproduction and Monte-Carlo properties.

Every test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
even when green) and then asserts. The checks are frozen against
independent oracles: hand-derived conditional Bloch vectors for the state
families, the exact density-matrix reference of ``oracles`` (integer
conditioning, 60-digit measures) for the tripartite criteria and
eigendecomposition-based brute force for the coherence measures. The
all-states relations are held by the ``naqc check`` suites, which tests 1,
4, 6, 8 and 9 run through ``naqc.cli.SUITES`` at their own seeds and the
suites' default sample counts, and whose lines their PASS lines print.
"""

import itertools
import math
import time

import numpy as np

from naqc.cli import SUITES
from naqc.coherence import (
    EPSILON_RELENT,
    Measure,
    coherence_triple,
)
from naqc.qcore import BlochQubit, pauli
from naqc.states import bell, ghz_alpha, pure_alpha, random_bloch_qubit_vector
from naqc.steering import shift_values, tripartite_report
from oracles import accuracy_bound, oracle_parts, qubit_of_bloch, seeded_sample, sqrt_psd

SQRT6 = math.sqrt(6.0)


def emit(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_suite(name: str, seed: int, samples: int) -> tuple[bool, str]:
    """Whether the suite ``naqc check --suite name --seed seed --samples
    samples`` runs passes, and the lines it prints, joined."""
    suite, _ = SUITES[name]
    lines, passed = suite(seed, samples)
    return passed, "; ".join(lines)


def test_1_coherence_complementarity_bound_and_attainment():
    bound_holds, suite = run_suite("coherence-complementarity", 20240001, 10_000)
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
    ok = bound_holds and attains
    detail = (
        f"{suite}; attained l1 {l1_total:.15g}, skew {skew_total:.15g}, "
        f"relent {relent_total:.15g} (bound {EPSILON_RELENT:.15g})"
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
    """Each measure's shift total within 3 eps, and its four groupings
    within 1e-12 of each other, on 10,000 two-qubit samples."""
    ok, detail = run_suite("bipartite-complementarity", 20240004, 10_000)
    emit(4, "bipartite complementarity", ok, detail)
    assert ok, detail


def oracle_ghz_state(a: float) -> np.ndarray:
    """The GHZ-family projector built with numpy alone, for the oracle."""
    ket = np.zeros(8, dtype=complex)
    ket[0], ket[7] = a, math.sqrt(1 - a * a)
    return np.outer(ket, ket.conj())


def test_5_ghz_family_tripartite_criterion_curve():
    """GHZ family a|000> + b|111>, b = sqrt(1-a^2): t1 against the exact
    reference, within its bound ``accuracy_bound("l1", 3)``.

    Charlie's z outcomes leave |00> or |11> (matched s0 = 2); his x outcomes
    leave a|00> +/- b|11> (matched s1 = 2 + 2ab); his y outcomes leave
    a|00> -/+ i b|11>, whose phase lowers the matched s2 to 1 + |2a^2-1| + 2ab.
    So t1(a) = 5 + 4ab + |2a^2-1|, peak 5 + sqrt5 < 3 sqrt6. The quoted form
    6 + 4a sqrt(1-a^2) ignores the y-branch phase and is off by 1 at 1/sqrt2.
    """
    grid = [k / 100 for k in range(101)]
    values = [tripartite_report(ghz_alpha(a), Measure.L1).t1.value for a in grid]
    oracle = [oracle_parts(oracle_ghz_state(a), "l1")[0] for a in grid]
    closed = [5 + 4 * a * math.sqrt(1 - a * a) + abs(2 * a * a - 1) for a in grid]
    worst_oracle = float(max(abs(v - o) for v, o in zip(values, oracle)))
    points = zip(values, oracle, closed)
    worst_closed = float(max(max(abs(v - c), abs(o - c)) for v, o, c in points))
    matches_oracle = worst_oracle <= accuracy_bound("l1", 3) and worst_closed <= 1e-10

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
    ok, detail = run_suite("tripartite-complementarity", 20240006, 1_000)
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
    """On 1,000 pairs, every shift of w rho1 + (1 - w) rho2 is at most the
    same mix of the pair's shifts, and every shift of w rho1 + (1 - w) I/4
    at most w times rho1's, for every measure."""
    ok, detail = run_suite("mixing-monotonicity", 20240008, 1_000)
    emit(8, "mixing monotonicity of shift values", ok, detail)
    assert ok, detail


def test_9_no_signalling_reconstruction():
    """Bob's state averaged over the outcomes of each of Alice's axes is
    his reduced state, on 1,000 two-qubit samples."""
    ok, detail = run_suite("no-signalling", 20240009, 1_000)
    emit(9, "no-signalling", ok, detail)
    assert ok, detail


def test_10_tripartite_criteria_match_oracle_on_random_states():
    """Charlie's conditioning on generic states: t1, t2 and t3 of the
    library for every measure against the exact reference, each within its
    measure's ``accuracy_bound``, on alternating Haar-pure and full-rank
    Ginibre three-qubit states."""
    worst = dict.fromkeys(Measure, 0.0)
    for index, measure in itertools.product(range(50), Measure):
        rho = seeded_sample(3, 20240010, index)
        report = tripartite_report(rho, measure)
        exact = oracle_parts(rho.matrix, measure.value)
        errors = [abs(r.value - e) for r, e in zip((report.t1, report.t2, report.t3), exact)]
        worst[measure] = max(worst[measure], float(max(errors)))
    ok = all(error <= accuracy_bound(m.value, 3) for m, error in worst.items())
    rows = [f"{m.value} {e:.3e} (bound {accuracy_bound(m.value, 3):.3e})" for m, e in worst.items()]
    detail = f"worst |t1, t2, t3 - exact| over 50 states: {', '.join(rows)}"
    emit(10, "tripartite criteria against the density-matrix oracle", ok, detail)
    assert ok, detail
