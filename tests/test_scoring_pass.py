"""One scoring pass for the whole stack and every measure.

``steering._shifts`` and ``_tripartite`` write every measure's values into
one array, add the six outcome terms with one ``sum``, and hold each
measure's slice to its own bound with one reduction over the stack; the
tripartite suite takes its worst t3 margins with one subtraction per chunk.
Each must give the words of the step-by-step references in ``oracles``:
the outcome terms added one by one, the total (s_0 + s_1) + s_2, and
``_criteria``'s margin bound - value. The references are elementwise along
the measure axis, so matching them for every stack of measures, a repeat
among them, gives each measure's slice the bits of that measure scored
alone; each guard must hold each slice to its own measure's bound, with
the message that measure alone would give.
"""

import numpy as np
import pytest

from naqc import cli, coherence
from naqc.coherence import Measure
from naqc.qcore import ConsistencyError
from naqc.steering import _condition, _criteria, _shifts, _tripartite
from oracles import bits, outcome_sum, reference_scores
from test_batch import STACK_SIZES, STATES, stacked

ALL = tuple(Measure)
# the measure stacks scored: all, in another order, pairs, a repeat, one
MEASURE_STACKS = [
    ALL,
    ALL[::-1],
    ALL[:2],
    ALL[1:],
    (Measure.SKEW_INFORMATION, Measure.L1, Measure.SKEW_INFORMATION),
    (Measure.RELATIVE_ENTROPY,),
]


def scored(cond, measures) -> list:
    """``_shifts``' shifts and totals and, on three qubits, ``_tripartite``."""
    s, total = _shifts(cond, measures)
    return [s, total, None if cond.charlie is None else _tripartite(cond, measures)]


def assert_same_words(got: list, expected: list) -> None:
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape
            assert np.array_equal(bits(a), bits(b))


@pytest.mark.parametrize("nqubits", [2, 3])
@pytest.mark.parametrize("size", STACK_SIZES)
def test_scores_match_the_step_by_step_reference(nqubits, size):
    for matrices in stacked(STATES[nqubits], size):
        cond = _condition(matrices)
        for measures in MEASURE_STACKS + [(measure,) for measure in ALL]:
            assert_same_words(scored(cond, measures), reference_scores(cond, measures))


def poisoned_evaluator(measure: Measure, poison):
    """``measure``'s evaluator with ``poison`` applied to its values."""
    evaluate = coherence._EVALUATE[measure]

    def evaluator(r, norm):
        values = evaluate(r, norm).copy()
        poison(values)
        return values

    return evaluator


def put_nan(values):
    values.flat[5] = np.nan


def add_one(values):
    values += 1.0  # every shift gains the three axes' outcome probabilities


@pytest.mark.parametrize("poison", [put_nan, add_one], ids=["nan", "bound"])
@pytest.mark.parametrize("measure", list(Measure), ids=lambda m: m.value)
@pytest.mark.parametrize("nqubits", [2, 3])
def test_a_poisoned_slice_fails_as_it_fails_alone(nqubits, measure, poison, monkeypatch):
    cond = _condition(np.stack([rho.matrix for rho in STATES[nqubits][:5]]))
    monkeypatch.setitem(coherence._EVALUATE, measure, poisoned_evaluator(measure, poison))
    with pytest.raises(ConsistencyError) as alone:
        _shifts(cond, (measure,))
    for measures in MEASURE_STACKS:
        if measure in measures:
            with pytest.raises(ConsistencyError) as together:
                _shifts(cond, measures)
            assert str(together.value) == str(alone.value)
        else:
            _shifts(cond, measures)


def test_each_slice_is_held_to_its_own_bound(monkeypatch):
    """A shift total of 6.5 breaks skew's 3 * 2 but not the l1 or relent
    bounds, so only the skew slice of a stack may fail."""
    cond = _condition(np.stack([rho.matrix for rho in STATES[2][:5]]))

    def over_skew_bound(r, norm):
        return np.full(norm.shape + (3,), 6.5 / 9.0)  # each s_j is 3 * 6.5 / 9

    for measure in Measure:
        monkeypatch.setitem(coherence._EVALUATE, measure, over_skew_bound)
    _shifts(cond, (Measure.L1, Measure.RELATIVE_ENTROPY))
    with pytest.raises(ConsistencyError, match="shift total .* exceeds the bound 6$"):
        _shifts(cond, ALL)


@pytest.mark.parametrize("poison", [np.nan, 100.0], ids=["nan", "bound"])
@pytest.mark.parametrize("k", range(3))
def test_a_poisoned_slice_fails_the_tripartite_guard(k, poison):
    cond = _condition(np.stack([rho.matrix for rho in STATES[3][:5]]))
    s, total = _shifts(cond, ALL)
    total = total.copy()
    total[k, 3, 2, 1] = poison  # one AB state's shift total: t2, so t3, follows it
    alone = s[k : k + 1], total[k : k + 1]
    with pytest.raises(ConsistencyError, match="tripartite total") as expected:
        _tripartite(cond, ALL[k : k + 1], alone)
    with pytest.raises(ConsistencyError) as raised:
        _tripartite(cond, ALL, (s, total))
    assert str(raised.value) == str(expected.value)
    others = [j for j in range(3) if j != k]
    _tripartite(cond, tuple(ALL[j] for j in others), (s[others], total[others]))


@pytest.mark.parametrize("nqubits", [2, 3])
def test_no_outcome_term_is_negative_zero(nqubits):
    """numpy's sum and the one-by-one adds differ only in the sign of a sum
    of zeros that starts with -0.0; the terms p * C are never -0.0."""
    cond = _condition(np.stack([rho.matrix for rho in STATES[nqubits]]))
    for measure in ALL:
        terms = cond.prob[..., None] * measure.evaluate(cond.bloch, cond.norm)
        assert (terms == 0.0).any()  # dropped branches and zero coherence are here
        assert not np.signbit(terms).any()


def layouts(x: np.ndarray) -> dict:
    """``x`` in memory orders that put the outcome axis (-2) anywhere."""
    return {
        "C": x,
        "F": np.asfortranarray(x),
        "outcome innermost": np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2),
        "strided": np.repeat(x, 2, axis=0)[::2],
        "reversed": np.ascontiguousarray(x[..., ::-1, :])[..., ::-1, :],
    }


@pytest.mark.parametrize("shape", [(1, 6, 3), (2, 6, 3), (7, 3, 2, 6, 2), (3, 64, 6, 3)])
def test_the_outcome_sum_adds_in_index_order_in_any_layout(shape):
    """Terms of every magnitude from 1e-16 to 1, zeros among them: the
    sum's words are those of the one-by-one adds whatever the layout."""
    rng = np.random.default_rng(15)
    x = rng.uniform(size=shape) * 10.0 ** rng.integers(-16, 1, size=shape)
    x[rng.uniform(size=shape) < 0.1] = 0.0
    expected = bits(outcome_sum(x))
    for name, view in layouts(x).items():
        assert np.array_equal(bits(view.sum(axis=-2)), expected), name


@pytest.mark.parametrize("seed, samples", [(0, 130), (7, 3)])
def test_suite_margins_are_the_criteria_margins(seed, samples, monkeypatch):
    """The suite's worst t3 margins, printed as exact hex, against the
    minima over all chunks of ``_criteria``'s t3 bound - value."""
    worst = {m: np.inf for m in ALL}
    for _, matrices in cli._sampled(3, seed, samples):
        t = _tripartite(_condition(matrices), ALL)
        for measure, t_m in zip(ALL, t):
            t3 = _criteria(3, t_m.T, measure)["t3"]
            worst[measure] = min(worst[measure], float((t3.bound - t3.value).min()))
    monkeypatch.setattr(cli, "fmt", lambda x: float(x).hex())
    lines, passed = cli.SUITES["tripartite-complementarity"][0](seed, samples)
    assert passed is True
    assert lines[:3] == [f"measure {m.value}: worst margin {worst[m].hex()}" for m in ALL]


def test_each_slice_is_held_to_its_own_t3_bound():
    """A t3 of 19 breaks skew's 9 * 2 but not the l1 or relent bounds, so
    only a stack holding the skew slice may fail. Charlie's probabilities
    add to 3, so AB shift totals of 19 / 3 make t3 = 19."""
    cond = _condition(np.stack([rho.matrix for rho in STATES[3][:5]]))
    s, total = _shifts(cond, ALL)
    total = np.full_like(total, 19.0 / 3.0)
    _tripartite(cond, ALL[:2], (s[:2], total[:2]))
    for measures in (ALL, ALL[::-1]):
        order = [ALL.index(m) for m in measures]
        with pytest.raises(ConsistencyError, match=r"tripartite total 19 exceeds the bound 18$"):
            _tripartite(cond, measures, (s[order], total[order]))
