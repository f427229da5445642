"""The measure axis of the scoring core.

``steering._shifts`` and ``_tripartite`` score a tuple of ``Measure`` values
along a leading axis: each measure is evaluated on its own, and the
weighting, the outcome sums and the totals run once for the whole stack.
Every step is elementwise, so a measure's slice must have the bits of that
measure scored alone (a tuple of one), and each guard must hold each slice to its own
measure's bound, with the message that measure alone would give.
"""

import numpy as np
import pytest

from naqc import coherence
from naqc.coherence import Measure
from naqc.qcore import ConsistencyError
from naqc.steering import _condition, _shifts, _tripartite
from oracles import bits
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
    """Every array ``_shifts`` and, on three qubits, ``_tripartite`` return."""
    shifts = _shifts(cond, measures)
    if cond.charlie is None:
        return list(shifts)
    return [*shifts, _tripartite(cond, measures, shifts), _tripartite(cond, measures)]


@pytest.mark.parametrize("nqubits", [2, 3])
@pytest.mark.parametrize("size", STACK_SIZES)
def test_each_slice_is_its_measure_scored_alone(nqubits, size):
    for matrices in stacked(STATES[nqubits], size):
        cond = _condition(matrices)
        alone = {m: [a[0] for a in scored(cond, (m,))] for m in Measure}
        for measures in MEASURE_STACKS:
            together = scored(cond, measures)
            for k, measure in enumerate(measures):
                for stack, single in zip(together, alone[measure]):
                    assert stack.shape == (len(measures),) + single.shape
                    assert np.array_equal(bits(stack[k]), bits(single)), (measure, measures)


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
