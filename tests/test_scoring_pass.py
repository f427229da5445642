"""One scoring pass for the whole stack and every measure.

``steering._shifts`` and ``_tripartite`` write every measure's values into
one array, add the six outcome terms with one ``sum``, and hold each
measure's slice to its own bound with one reduction over the stack; the
tripartite suite takes its worst t3 margins with one subtraction per chunk.
Each must give the words of the step-by-step references in ``oracles``:
the outcome terms added one by one, the total (s_0 + s_1) + s_2, and
``_criteria``'s margin bound - value.
"""

import numpy as np
import pytest

from naqc import cli
from naqc.coherence import Measure
from naqc.qcore import ConsistencyError
from naqc.steering import _condition, _criteria, _shifts, _tripartite
from oracles import bits, outcome_sum, reference_scores
from test_batch import STACK_SIZES, STATES, stacked

ALL = tuple(Measure)


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
        for measures in (ALL, ALL[::-1], ALL[1:]):
            assert_same_words(scored(cond, measures), reference_scores(cond, measures))
        for measure in ALL:
            assert_same_words(scored(cond, (measure,)), reference_scores(cond, (measure,)))


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
