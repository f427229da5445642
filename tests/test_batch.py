"""Batch invariance of the stacked core.

The library evaluates states as stacks: ``steering._condition`` conditions a
``(..., 4, 4)`` or ``(..., 8, 8)`` stack at once, ``_shifts`` and
``_tripartite`` read every measure from it, and the reports are a stack of
one. Every step is elementwise or per matrix, so a state's values must not
depend on the stack it sits in: the tests below require the criteria's bits
at stack sizes 1, 2, 7 and all states at once (``TestConditioningLayouts``
in test_steering.py holds the conditioning to the same), agreement with the
density-matrix oracle, identical CLI output for any chunk size, and guards
that trip on NaN anywhere in a stack. The CLI draws each chunk of samples
as one stack; its bits must be those of the samples drawn one at a time.
"""

import contextlib
import enum
import io
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naqc import cli, steering
from naqc.coherence import BOUND_TOL, Measure
from naqc.qcore import (
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _check_bound,
    _check_nonnegative,
    _validate,
)
from naqc.states import (
    _generators,
    _pcg64_seeds,
    _random_states,
    _seed_words_type,
    ghz_alpha,
    pure_alpha,
    werner,
)
from naqc.steering import (
    _MEASURES,
    CRITERIA,
    _condition,
    _criteria,
    _parts,
    _shifts,
    _tripartite,
    shift_values,
    steering_report,
    tripartite_report,
)
from oracles import (
    SIGMAS,
    bits,
    counted_eigvalsh,
    diagonal_state,
    oracle_branches,
    seeded_sample,
    seeded_states,
)

SEED = 31337
STACK_SIZES = (1, 2, 7, None)  # None: all states in one stack


# the family members have dropped branches (|11>, |000>, |111>) or a zero
# Bloch vector in every branch (the maximally mixed werner(0))
STATES = {
    2: seeded_states(2, SEED, 40) + [pure_alpha(0.0), werner(0.0)],
    3: seeded_states(3, SEED, 12) + [ghz_alpha(0.0), ghz_alpha(1.0)],
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
        return _shifts(cond, (measure,))[0][0]
    return _tripartite(cond, (measure,))[0]


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
@pytest.mark.parametrize("size", STACK_SIZES)
def test_stacked_criteria_are_the_report_fields(nqubits, size):
    """Each column ``_criteria`` gives for a stack holds the value, bound and
    flag of the report field of that criterion, bit for bit: the singles
    and t1 to t3 carry the values the stack scores, so a state's values do
    not depend on the stack it sits in."""
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
    for matrices in stacked(STATES[2], size):
        cond = _condition(matrices)
        for k, matrix in enumerate(matrices):
            assert_alice_branches_match(matrix, cond.prob[k], cond.bloch[k], cond.norm[k])


@pytest.mark.parametrize("size", STACK_SIZES)
def test_three_qubit_branches_match_the_oracle(size):
    for matrices in stacked(STATES[3], size):
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
    assert (_condition(pure_alpha(0.0).matrix).prob == 0.0).sum() == 1
    assert (_condition(ghz_alpha(0.0).matrix).charlie == 0.0).sum() == 1
    assert (_condition(ghz_alpha(1.0).matrix).charlie == 0.0).sum() == 1


CLI_COMMANDS = [
    ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "23", "--seed", "4"],
    # more samples than cli.CHUNK: full chunks and a partial last one
    ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "1100", "--seed", "4"],
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


DEFAULT_CHUNK = cli.CHUNK


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
    for chunk in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(cli, "CHUNK", chunk)
        assert cli_output(argv, out) == expected


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
    expected = np.stack([seeded_sample(nqubits, master_seed, i).matrix for i in range(count)])
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
    expected = np.stack([seeded_sample(nqubits, master_seed, i).matrix for i in indices])
    assert np.array_equal(bits(cli._samples(nqubits, master_seed, indices)), bits(expected))


def assert_seed_sequence_states(built: list, seed: int, indices) -> None:
    """Generator k of ``built`` is in the state of
    ``default_rng(SeedSequence([seed, indices[k]]))``."""
    assert len(built) == len(indices)
    for i, rng in zip(indices, built):
        expected = np.random.default_rng(np.random.SeedSequence([seed, i]))
        assert rng.bit_generator.state == expected.bit_generator.state, (seed, i)


# chunks of 2,000 and 1,000 indices, of 1 and 2 indices on either side of
# 2**32 and up to the last index below 2**64, an empty chunk, three that
# straddle 2**32, and, at two more seeds, chunks of 1 to 3 indices that tile
# 2**32 - 6 .. 2**32 + 4
CHUNKS = [
    range(2000), range(2**32 - 500, 2**32 + 500),
    range(0, 1), range(9, 10), range(0, 2), range(7, 9), range(2**32, 2**32 + 1),
    range(2**32 + 6, 2**32 + 8), range(2**64 - 2, 2**64), range(5, 5),
    range(2**32 - 1, 2**32 + 1), range(2**32 - 1, 2**32 + 2), range(2**32 - 2, 2**32 + 1),
]  # fmt: skip
EDGES = [2**32 - 6, 2**32 - 5, 2**32 - 3, 2**32 - 1, 2**32 + 1, 2**32 + 2, 2**32 + 5]
GENERATOR_CASES = [(seed, indices) for seed in MASTER_SEEDS for indices in CHUNKS] + [
    (seed, range(a, b)) for a, b in zip(EDGES, EDGES[1:]) for seed in (SEED, 2**32 + 9)
]


def test_built_generators_are_in_the_seed_sequence_state():
    """``states._generators`` stands in for ``default_rng(SeedSequence(e))``:
    every generator it builds starts in that generator's state, for
    entropies of 2 to 7 words and indices on both sides of 2**32. The cases
    are built in reverse order, each chunk after the chunks that follow it:
    a chunk's generators depend on its own indices alone, in index order."""
    for seed, indices in reversed(GENERATOR_CASES):
        assert_seed_sequence_states(_generators(seed, indices), seed, indices)


@given(st.integers(0, 2**160), st.integers(0, 70), st.integers(0, 80), st.integers(0, 2))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_generators_match_numpy_seed_sequences(seed, size, offset, where):
    """A master seed below 2**160 and a chunk of 0 to 70 indices that
    starts near 0, near or across 2**32, or near the last index below
    2**64: entropies of 2 to 8 words, trailing zero words included."""
    start = [offset, 2**32 - offset, 2**64 - size - offset][where]
    indices = range(start, start + size)
    assert_seed_sequence_states(_generators(seed, indices), seed, indices)


# entropies [seed, i] that fit SeedSequence's 4-word pool, which the lane
# pass seeds, and longer ones, which numpy's SeedSequence seeds
POOL_ENTROPIES = [(0, range(64)), (7, range(5, 9)), ((1234 << 32) + 5, range(32)),
                  (2**64 - 1, range(2**32 - 3, 2**32))]  # fmt: skip
LONGER_ENTROPIES = [(2**64, range(3)), (7, range(2**32 - 1, 2**32 + 1)), (2**128 + 7, range(4)),
                    (2**64 - 1, range(2**32, 2**32 + 2))]  # fmt: skip


@pytest.mark.parametrize(
    "seed, indices, built",
    [pytest.param(*call, 0, id=f"pool{k}") for k, call in enumerate(POOL_ENTROPIES)]
    + [
        pytest.param(*call, len(call[1]), id=f"longer{k}")
        for k, call in enumerate(LONGER_ENTROPIES)
    ],
)
def test_only_entropies_past_the_pool_build_seed_sequences(seed, indices, built, monkeypatch):
    """Past the pool, ``PCG64`` is seeded by numpy's own ``SeedSequence``:
    each generator holds the one built for its index's entropy."""
    made = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    rngs = _generators(seed, indices)
    monkeypatch.undo()
    assert len(made) == built
    if built:
        assert [rng.bit_generator.seed_seq for rng in rngs] == made
        assert [seq.entropy for seq in made] == [[seed, i] for i in indices]
    assert_seed_sequence_states(rngs, seed, indices)


def test_pcg64_seeds_are_c_contiguous_uint64_rows():
    """``PCG64`` reads a row of seed words as the 32 bytes at its address:
    a strided row gives a state other than its words'. So the lane pass
    returns its words as a C-contiguous ``(n, 4)`` uint64 array, whose rows
    ``_generators`` hands to ``PCG64`` through the ``SeedWords`` adapter."""
    words = np.arange(1, 17, dtype=np.uint64).reshape(2, 8)[:, ::2]
    seed_words = _seed_words_type()
    strided = np.random.PCG64(seed_words(words[0])).state
    assert strided != np.random.PCG64(seed_words(words[0].copy())).state
    for n in (0, 1, 32, 512):
        seeds = _pcg64_seeds(SEED, range(7, 7 + n))
        assert seeds.dtype == np.uint64 and seeds.shape == (n, 4) and seeds.flags.c_contiguous
    # the seed sequence behind a generator holds PCG64's four words and nothing else
    seed_seq = _generators(SEED, range(2))[0].bit_generator.seed_seq
    assert isinstance(seed_seq, seed_words)
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    for request in [(8, np.uint32), (4, np.uint32), (2, np.uint64)]:
        with pytest.raises(ValueError, match="only PCG64's 4 uint64 words"):
            seed_seq.generate_state(*request)


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
    def test_nan_in_a_filled_memo_raises(self, monkeypatch, nqubits, field):
        """NaN in the conditioning a state's memo is filled from fails every
        measure's report, l1's too, although l1 never reads the norm: one
        pass scores all three measures, and nothing is memoized."""
        condition = steering._condition

        def poisoned(matrices):
            cond = condition(matrices)
            values = getattr(cond, field).copy()
            values.flat[5] = np.nan
            return cond._replace(**{field: values})

        monkeypatch.setattr(steering, "_condition", poisoned)
        rho = DensityMatrix(STATES[nqubits][1].matrix)
        for measure in Measure:
            with pytest.raises(ConsistencyError, match="nan|NaN"):
                report_values(rho, measure)
        assert rho._parts is None

    def test_one_poisoned_state_fails_its_whole_stack(self):
        cond = _condition(np.stack([rho.matrix for rho in STATES[3][:4]]))
        charlie = cond.charlie.copy()
        charlie[2, 1, 0] = np.nan
        with pytest.raises(ConsistencyError, match="tripartite total nan"):
            _tripartite(cond._replace(charlie=charlie), (Measure.L1,))
        prob = cond.prob.copy()
        prob[3, 0, 1, 2, 0] = 50.0  # the shift total of one AB state breaks 3 eps
        with pytest.raises(ConsistencyError, match="shift total .* exceeds"):
            _tripartite(cond._replace(prob=prob), (Measure.SKEW_INFORMATION,))

    def test_validate_rejects_a_stack_with_one_nan_matrix(self):
        stack = np.stack([rho.matrix for rho in STATES[2][:5]])
        _validate(stack)
        stack[3, 1, 1] = np.nan
        with pytest.raises(NotAStateError, match="not Hermitian: .* nan"):
            _validate(stack)

    @pytest.mark.parametrize("nqubits", [2, 3])
    @pytest.mark.parametrize(
        "lowest, message",
        [(-0.5, "negative eigenvalue -5.000e-01"), (-1.5e-10, "negative eigenvalue -1.500e-10"),
         (-1e-10, None)],
    )  # fmt: skip
    def test_validate_decides_a_stack_by_its_lowest_eigenvalue(
        self, nqubits, lowest, message, monkeypatch
    ):
        """One member of a stack of 64 sampled states sits at or below the
        floor -1e-10. The Cholesky certificate fails the stack, and one
        eigensolver call decides it: the floor itself passes."""
        stack = cli._samples(nqubits, SEED, range(64))
        stack[37] = diagonal_state(2**nqubits, lowest)
        calls = counted_eigvalsh(monkeypatch)
        if message is None:
            _validate(stack)
        else:
            with pytest.raises(NotAStateError, match=message):
                _validate(stack)
        assert calls == [stack.shape]

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_sampled_chunks_never_reach_the_eigensolver(self, nqubits, monkeypatch):
        """Search's chunks, and 64 Haar-pure three-qubit states (singular,
        seven eigenvalues 0), pass on the Cholesky certificate alone."""
        calls = counted_eigvalsh(monkeypatch)
        for start in (0, 64, 2**32 - 7):
            cli._samples(nqubits, SEED, range(start, start + 64))
        _validate(_random_states(3, [np.random.default_rng(i) for i in range(64)]))
        assert calls == []


NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def foreign_frames(call) -> list[str]:
    """``call()``, profiled: the functions of every Python frame it enters
    in enum.py or in numpy's package, but for numpy.linalg (the
    ``np.linalg.cholesky`` wrapper) and the ``errstate`` that it enters."""
    seen = []

    def profile(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and (
            path == enum.__file__
            or path.startswith(NUMPY_DIR)
            and not path.startswith(NUMPY_DIR + "linalg" + os.sep)
            and not path.endswith(os.sep + "_ufunc_config.py")
        ):
            seen.append(f"{path}:{frame.f_code.co_name}")

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(before)
    return seen


def report_every_measure(matrix: np.ndarray) -> None:
    """Every report of a fresh ``DensityMatrix`` of ``matrix``."""
    rho = DensityMatrix(matrix)
    for measure in _MEASURES:
        if rho.nqubits == 2:
            shift_values(rho, measure)
            steering_report(rho, measure)
        else:
            tripartite_report(rho, measure)


STACKED_CALLS = {
    "reports-2q": lambda: report_every_measure(STATES[2][0].matrix),
    "reports-3q": lambda: report_every_measure(STATES[3][1].matrix),
    "samples-2q": lambda: cli._samples(2, SEED, range(32)),
    "parts-2q": lambda: _parts(_condition(cli._samples(2, SEED, range(32))), _MEASURES),
    "suite-3q": lambda: cli._suite_complementarity(3, SEED, 2),
}


@pytest.mark.parametrize("name", STACKED_CALLS)
def test_stacked_calls_enter_no_numpy_wrapper_or_enum_frame(name):
    """Per stack, the core calls numpy's C entry points (ufuncs and their
    ``reduce``, ndarray methods) and hashes ``Measure`` in C: no Python
    frame of numpy's wrappers and dispatchers, or of enum.py, runs. The
    first call may fill caches; the second is profiled."""
    STACKED_CALLS[name]()
    assert foreign_frames(STACKED_CALLS[name]) == []
