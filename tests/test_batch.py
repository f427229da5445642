"""Batch invariance of the stacked core.

The library evaluates states as stacks: ``steering._condition`` conditions a
``(..., 4, 4)`` or ``(..., 8, 8)`` stack at once, ``_shifts`` and
``_tripartite`` read every measure from it, and the reports are a stack of
one. Every step is elementwise or per matrix, so a state's values must not
depend on the stack it sits in: the tests below require equal bits at stack
sizes 1, 2, 7 and all states at once, agreement with the density-matrix
oracle, identical CLI output for any chunk size, and guards that trip on
NaN anywhere in a stack. The CLI draws each chunk of samples as one stack;
its bits must be those of the samples drawn one at a time.
"""

import contextlib
import io

import numpy as np
import pytest

from naqc import cli, steering
from naqc.coherence import Measure
from naqc.qcore import (
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _check_bound,
    _check_nonnegative,
    _validate,
)
from naqc.states import _generators, ghz_alpha, pure_alpha, random_mixed, random_pure, werner
from naqc.steering import (
    BOUND_TOL,
    CRITERIA,
    _condition,
    _conditioned,
    _criteria,
    _shifts,
    _tripartite,
    steering_report,
    tripartite_report,
)
from oracles import SIGMAS, bits, oracle_branches, sampled_matrix

SEED = 31337
STACK_SIZES = (1, 2, 7, None)  # None: all states in one stack


def seeded_states(nqubits: int, count: int) -> list:
    """Haar-pure states alternating with Ginibre states of every rank."""
    states = []
    for index in range(count):
        ss = np.random.SeedSequence([SEED, nqubits, index])
        if index % 2 == 0:
            states.append(random_pure(nqubits, ss))
        else:
            states.append(random_mixed(nqubits, 1 + (index // 2) % 2**nqubits, ss))
    return states


# the family members have dropped branches (|11>, |000>, |111>) or a zero
# Bloch vector in every branch (the maximally mixed werner(0))
STATES = {
    2: seeded_states(2, 40) + [pure_alpha(0.0), werner(0.0)],
    3: seeded_states(3, 12) + [ghz_alpha(0.0), ghz_alpha(1.0)],
}


def stacked(states: list, size) -> list:
    size = size or len(states)
    return [
        np.stack([rho.matrix for rho in states[i : i + size]])
        for i in range(0, len(states), size)
    ]


def report_values(rho: DensityMatrix, measure: Measure) -> np.ndarray:
    if rho.nqubits == 2:
        return np.array(steering_report(rho, measure).shift.values)
    report = tripartite_report(rho, measure)
    return np.array([report.t1.value, report.t2.value, report.t3.value])


def stack_values(cond, measure: Measure) -> np.ndarray:
    if cond.charlie is None:
        return _shifts(cond, measure)[0]
    return _tripartite(cond, measure)


@pytest.mark.parametrize("nqubits", [2, 3])
@pytest.mark.parametrize("size", STACK_SIZES)
def test_reports_are_bitwise_equal_at_every_stack_size(nqubits, size):
    states = STATES[nqubits]
    conds = [_condition(matrices) for matrices in stacked(states, size)]
    for measure in Measure:
        values = np.concatenate([stack_values(cond, measure) for cond in conds])
        expected = np.array([report_values(rho, measure) for rho in states])
        assert values.tobytes() == expected.tobytes()


# each criterion's field in the reports, written out apart from CRITERIA
REPORT_FIELDS = {
    "single0": lambda report: report.singles[0],
    "single1": lambda report: report.singles[1],
    "single2": lambda report: report.singles[2],
    "double01": lambda report: dict(report.doubles)[(0, 1)],
    "double02": lambda report: dict(report.doubles)[(0, 2)],
    "double12": lambda report: dict(report.doubles)[(1, 2)],
    "triple": lambda report: report.triple,
    "t1": lambda report: report.t1,
    "t2": lambda report: report.t2,
    "t3": lambda report: report.t3,
}


@pytest.mark.parametrize("nqubits", [2, 3])
@pytest.mark.parametrize("size", (1, 7, None))
def test_stacked_criteria_are_the_report_fields(nqubits, size):
    """Each column ``_criteria`` gives for a stack holds the value, bound and
    flag of the report field of that criterion, bit for bit."""
    assert [*CRITERIA[2], *CRITERIA[3]] == list(REPORT_FIELDS)
    states = STATES[nqubits]
    report = steering_report if nqubits == 2 else tripartite_report
    for measure in Measure:
        columns = [
            _criteria(nqubits, stack_values(_condition(matrices), measure).T, measure)
            for matrices in stacked(states, size)
        ]
        for name in CRITERIA[nqubits]:
            fields = [REPORT_FIELDS[name](report(rho, measure)) for rho in states]
            results = [column[name] for column in columns]
            values = np.concatenate([res.value for res in results]).tolist()
            assert [v.hex() for v in values] == [f.value.hex() for f in fields], name
            assert {res.bound.hex() for res in results} == {f.bound.hex() for f in fields}
            flags = np.concatenate([res.violated for res in results]).tolist()
            assert flags == [f.violated for f in fields], name


@pytest.mark.parametrize("nqubits", [2, 3])
@pytest.mark.parametrize("size", STACK_SIZES)
def test_conditioning_is_bitwise_equal_at_every_stack_size(nqubits, size):
    states = STATES[nqubits]
    conds = [_condition(matrices) for matrices in stacked(states, size)]
    memos = [_conditioned(rho) for rho in states]
    for field in steering._Conditioning._fields:
        if nqubits == 2 and field == "charlie":
            assert all(getattr(cond, field) is None for cond in conds)
            continue
        batch = np.concatenate([getattr(cond, field) for cond in conds])
        single = np.stack([getattr(memo, field) for memo in memos])
        assert batch.tobytes() == single.tobytes(), field


def oracle_bloch(qubit: np.ndarray) -> np.ndarray:
    return np.array([np.trace(qubit @ sigma).real for sigma in SIGMAS])


def kept_branches(prob: np.ndarray, bloch: np.ndarray) -> list:
    """(axis, probability, Bloch vector) of the kept outcomes, in order."""
    return [
        (i + 1, prob[i, a], bloch[i, a])
        for i in range(3)
        for a in range(2)
        if prob[i, a] != 0.0
    ]


def assert_alice_branches_match(matrix: np.ndarray, prob, bloch, norm) -> None:
    expected = [
        (axis, p, oracle_bloch(bob)) for axis, p, bob in oracle_branches(matrix, last=False)
    ]
    actual = kept_branches(prob, bloch)
    assert [axis for axis, _, _ in actual] == [axis for axis, _, _ in expected]
    for (_, p, r), (_, p_oracle, r_oracle) in zip(actual, expected):
        assert abs(p - p_oracle) <= 1e-12
        np.testing.assert_allclose(r, r_oracle, rtol=0, atol=1e-12)
    dropped = prob == 0.0
    assert not bloch[dropped].any() and not norm[dropped].any()
    # the norm is the one BlochQubit computes, bit for bit
    expected_norm = [[BlochQubit(bloch[i, a]).norm for a in range(2)] for i in range(3)]
    assert norm.tobytes() == np.array(expected_norm).tobytes()


@pytest.mark.parametrize("size", STACK_SIZES)
def test_two_qubit_branches_match_the_oracle(size):
    states = STATES[2]
    for matrices in stacked(states, size):
        cond = _condition(matrices)
        for k, matrix in enumerate(matrices):
            assert_alice_branches_match(matrix, cond.prob[k], cond.bloch[k], cond.norm[k])


@pytest.mark.parametrize("size", STACK_SIZES)
def test_three_qubit_branches_match_the_oracle(size):
    states = STATES[3]
    for matrices in stacked(states, size):
        cond = _condition(matrices)
        for k, matrix in enumerate(matrices):
            charlie = list(oracle_branches(matrix, last=True))
            kept = [(i, a) for i in range(3) for a in range(2) if cond.charlie[k, i, a] != 0.0]
            assert [i + 1 for i, _ in kept] == [axis for axis, _, _ in charlie]
            for (i, a), (_, p_oracle, ab) in zip(kept, charlie):
                assert abs(cond.charlie[k, i, a] - p_oracle) <= 1e-12
                assert_alice_branches_match(
                    ab, cond.prob[k, i, a], cond.bloch[k, i, a], cond.norm[k, i, a]
                )
            for i, a in np.argwhere(cond.charlie[k] == 0.0):
                assert not cond.prob[k, i, a].any() and not cond.bloch[k, i, a].any()


def test_family_states_drop_branches():
    assert (_conditioned(pure_alpha(0.0)).prob == 0.0).sum() == 1
    assert (_conditioned(ghz_alpha(0.0)).charlie == 0.0).sum() == 1
    assert (_conditioned(ghz_alpha(1.0)).charlie == 0.0).sum() == 1


CLI_COMMANDS = [
    ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "23", "--seed", "4"],
    ["search", "--nqubits", "2", "--criterion", "triple", "--measure", "skew",
     "--samples", "16", "--seed", "4"],
    ["search", "--nqubits", "3", "--criterion", "t1", "--measure", "relent",
     "--samples", "9", "--seed", "4"],
    ["check", "--suite", "coherence-complementarity", "--samples", "23", "--seed", "4"],
    ["check", "--suite", "bipartite-complementarity", "--samples", "23", "--seed", "4"],
    ["check", "--suite", "tripartite-complementarity", "--samples", "9", "--seed", "4"],
    ["check", "--suite", "no-signalling", "--samples", "23", "--seed", "4"],
    ["check", "--suite", "mixing-monotonicity", "--samples", "23", "--seed", "4"],
    ["sweep", "--family", "pure_alpha", "--from", "0", "--to", "1", "--step", "0.05"],
    ["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "0.05",
     "--measure", "relent"],
    ["sweep", "--family", "ghz_alpha", "--from", "0", "--to", "1", "--step", "0.05",
     "--measure", "skew"],
]  # fmt: skip


def cli_output(argv: list, out) -> str:
    """The stdout of one command, followed by the CSV it writes for a sweep."""
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue() + (out.read_text(encoding="utf-8") if argv[0] == "sweep" else "")


@pytest.mark.parametrize(
    "argv", CLI_COMMANDS, ids=lambda argv: "-".join(a for a in argv if a[0] != "-")
)
def test_cli_output_does_not_depend_on_the_chunk_size(argv, monkeypatch, tmp_path):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(cli, "CHUNK", 64)
    expected = cli_output(argv, out)
    for chunk in (1, 7):
        monkeypatch.setattr(cli, "CHUNK", chunk)
        assert cli_output(argv, out) == expected


def cli_sample(nqubits: int, master_seed: int, index: int) -> np.ndarray:
    """The CLI's sample ``index``, drawn on its own: Haar-pure at even
    indices, full-rank Ginibre at odd ones."""
    seed = np.random.SeedSequence([master_seed, index])
    return sampled_matrix(nqubits, seed, None if index % 2 == 0 else 2**nqubits)


# master seeds of 1, 1, 2, 3 and 5 32-bit words: the entropy [seed, index]
# that states._generators splits into words changes length at each boundary
MASTER_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7]


def seeded_cases(cases: dict) -> list:
    """pytest params for ``cases`` ({id: args}) at SEED under the id alone,
    then at each of MASTER_SEEDS with the seed added to the id."""
    return [
        pytest.param(*args, seed, id=name if seed == SEED else f"{name}-seed{seed}")
        for seed in (SEED, *MASTER_SEEDS)
        for name, args in cases.items()
    ]


@pytest.mark.parametrize(
    "nqubits, chunk, master_seed",
    seeded_cases({f"{chunk}-{n}": (n, chunk) for n in (2, 3) for chunk in (1, 7, 64)}),
)
def test_sampled_chunks_are_the_per_index_draws(nqubits, chunk, master_seed, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK", chunk)
    count = 150
    chunks = list(cli._sampled(nqubits, master_seed, count))
    starts = range(0, count, chunk)
    assert [list(indices) for indices, _ in chunks] == [
        list(range(start, min(start + chunk, count))) for start in starts
    ]
    expected = np.stack([cli_sample(nqubits, master_seed, i) for i in range(count)])
    assert np.array_equal(bits(np.concatenate([mats for _, mats in chunks])), bits(expected))


# the last range straddles index 2**32, where [seed, index] gains a word
INDEX_RANGES = [range(5, 12), range(9, 10), range(8, 9), range(2**32 - 3, 2**32 + 4)]


@pytest.mark.parametrize(
    "nqubits, indices, master_seed",
    seeded_cases(
        {f"indices{k}-{n}": (n, indices) for k, indices in enumerate(INDEX_RANGES) for n in (2, 3)}
    ),
)
def test_a_chunk_may_start_at_any_index(nqubits, indices, master_seed):
    expected = np.stack([cli_sample(nqubits, master_seed, i) for i in indices])
    assert np.array_equal(bits(cli._samples(nqubits, master_seed, indices)), bits(expected))


def test_built_generators_are_in_the_seed_sequence_state():
    """``states._generators`` stands in for ``default_rng(SeedSequence(e))``:
    every generator it builds starts in that generator's state, for
    entropies of 2 to 7 words, indices on both sides of 2**32 and the
    mixing suite's three-entry ``[seed, i, 2]``."""
    entropies = [
        entropy
        for seed in MASTER_SEEDS
        for entropy in (
            *([seed, i] for i in range(2000)),
            *([seed, i] for i in range(2**32 - 500, 2**32 + 500)),
            *([seed, i, 2] for i in range(1000)),
        )
    ]
    assert len(entropies) == 20_000
    built = _generators(entropies)
    assert len(built) == len(entropies)
    for entropy, rng in zip(entropies, built):
        expected = np.random.default_rng(np.random.SeedSequence(entropy))
        assert rng.bit_generator.state == expected.bit_generator.state, entropy
    # the seed sequence behind them holds PCG64's four words and nothing else
    assert built[0].bit_generator.seed_seq.generate_state(4, np.uint64).shape == (4,)
    for request in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="only PCG64's 4 uint64 words"):
            built[0].bit_generator.seed_seq.generate_state(*request)


class TestStackedGuards:
    """Each guard looks at every entry of its stack, and NaN fails it."""

    def test_nonnegativity_guard(self):
        _check_nonnegative("shift value", np.zeros((4, 3)))
        for poison in (np.nan, -1e-300):
            values = np.ones((4, 3))
            values[2, 1] = poison
            with pytest.raises(ConsistencyError, match="negative or NaN shift value"):
                _check_nonnegative("shift value", values)

    @pytest.mark.parametrize("name, bound", [("shift total", 6.0), ("tripartite total", 18.0)])
    def test_bound_guards(self, name, bound):
        values = np.full(5, bound)
        _check_bound(name, values, bound, BOUND_TOL)
        for poison in (np.nan, bound + 2e-9):
            values[3] = poison
            with pytest.raises(ConsistencyError, match=f"{name} .* exceeds"):
                _check_bound(name, values, bound, BOUND_TOL)

    @pytest.mark.parametrize(
        "nqubits, field",
        [(2, "prob"), (2, "bloch"), (2, "norm")]
        + [(3, "charlie"), (3, "prob"), (3, "bloch"), (3, "norm")],
    )
    def test_nan_in_a_filled_memo_raises(self, nqubits, field):
        rho = DensityMatrix(STATES[nqubits][1].matrix)
        memo = _conditioned(rho)
        poisoned = getattr(memo, field).copy()
        poisoned.flat[5] = np.nan
        rho._branches = memo._replace(**{field: poisoned})
        for measure in Measure:
            if field == "norm" and measure is Measure.L1:
                # l1 is the transverse magnitude alone and never reads the norm
                assert np.isfinite(report_values(rho, measure)).all()
                continue
            with pytest.raises(ConsistencyError, match="nan|NaN"):
                report_values(rho, measure)

    def test_one_poisoned_state_fails_its_whole_stack(self):
        cond = _condition(np.stack([rho.matrix for rho in STATES[3][:4]]))
        charlie = cond.charlie.copy()
        charlie[2, 1, 0] = np.nan
        with pytest.raises(ConsistencyError, match="tripartite total nan"):
            _tripartite(cond._replace(charlie=charlie), Measure.L1)
        prob = cond.prob.copy()
        prob[3, 0, 1, 2, 0] = 50.0  # the shift total of one AB state breaks 3 eps
        with pytest.raises(ConsistencyError, match="shift total .* exceeds"):
            _tripartite(cond._replace(prob=prob), Measure.SKEW_INFORMATION)

    def test_validate_rejects_a_stack_with_one_nan_matrix(self):
        stack = np.stack([rho.matrix for rho in STATES[2][:5]])
        _validate(stack)
        stack[3, 1, 1] = np.nan
        with pytest.raises(NotAStateError, match="not Hermitian: .* nan"):
            _validate(stack)
