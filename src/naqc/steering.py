"""Conditional-state machinery and the coherence steering criteria.

Bipartite protocol: Alice (first tensor factor) measures one of the three
Pauli bases on her qubit; Bob's conditional states are aggregated into the
shift functionals

    s_j = sum over Alice axes i and outcomes a of
          p(a | i) * C_q(conditional state, axis ((i - 1 + j) mod 3) + 1)

for j in {0, 1, 2}, where C_q is one of the coherence measures. Any state
admitting a local-hidden-state description obeys s_j <= eps_q and
s_j + s_k <= 2 eps_q; exceeding either certifies a nonlocal advantage of
quantum coherence. The total s_0 + s_1 + s_2 <= 3 eps_q holds for every
state whatsoever, which forces the criteria to compensate one another.

Tripartite protocol: Charlie (third factor) measures axis i on his qubit,
and the shift functional with index i mod 3 is evaluated on the conditional
two-qubit state, weighted by the outcome probability. t1 collects the three
matched shifts (bound 3 eps_q under a local-hidden-state model), t2 the six
unmatched ones (bound 6 eps_q), and t3 = t1 + t2 <= 9 eps_q for every
three-qubit state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherence import Measure
from .qcore import (
    BLOCH_NORM_TOL,
    BlochQubit,
    DensityMatrix,
    NotAStateError,
    _PROJ,
    _ValueEquality,
    _bloch_vector,
    _check_axis,
    _check_bound,
    _check_nonnegative,
    _frozen,
    _norm,
    _validate,
)

__all__ = [
    "VIOLATION_TOL",
    "BOUND_TOL",
    "ZERO_PROBABILITY",
    "ConditionalBranch",
    "conditional_states",
    "ShiftValues",
    "shift_values",
    "CriterionResult",
    "SteeringReport",
    "steering_report",
    "DOUBLE_PAIRS",
    "CRITERIA",
    "TripartiteReport",
    "tripartite_report",
]

# strictness of a violation flag vs. tolerance of the all-states bounds
VIOLATION_TOL = 1e-12
BOUND_TOL = 1e-9
ZERO_PROBABILITY = 1e-12

DOUBLE_PAIRS = ((0, 1), (0, 2), (1, 2))

# Every criterion, in the reports' order: the parts it adds, left to right,
# and its bound in units of epsilon. The parts are shift indices j of s_j on
# two qubits and positions in (t1, t2, t3) on three. The last criterion of
# each table holds for every state, so it is never flagged.
CRITERIA = {
    2: {
        **{f"single{j}": ((j,), 1.0) for j in range(3)},
        **{f"double{j}{k}": ((j, k), 2.0) for j, k in DOUBLE_PAIRS},
        "triple": ((0, 1, 2), 3.0),
    },
    3: {"t1": ((0,), 3.0), "t2": ((1,), 6.0), "t3": ((2,), 9.0)},
}

# The projectors onto the six Pauli outcomes, P[k] for k = 2 * (axis - 1) + outcome,
# as columns over the twelve rows (k, c): _ROW[b] holds P[k, c, b], _COL[b] P[k, b, c].
_PROJECTORS = _PROJ.reshape(6, 2, 2)
_ROW = tuple(_PROJECTORS[:, :, b].reshape(12, 1) for b in (0, 1))
_COL = tuple(_PROJECTORS[:, b, :].reshape(12, 1) for b in (0, 1))

# For outcome k = 2 (axis - 1) + outcome and shift j, Bob's 0-based axis is
# (axis - 1 + j) mod 3, a cyclic step from Alice's; the gather
# w[..., _OUTCOME_ROWS, _SHIFT_AXES] puts the term of s_j from outcome k at
# [..., k, j].
_OUTCOME_ROWS = np.arange(6)[:, None]
_SHIFT_AXES = (_OUTCOME_ROWS // 2 + np.arange(3)) % 3
# the shift matched to Charlie's axis 1, 2, 3 is s_1, s_2, s_0
_AXES = np.arange(3)
_MATCHED = (_AXES + 1) % 3


def _outcomes(matrices: np.ndarray, last: bool) -> tuple[np.ndarray, np.ndarray]:
    """Both outcomes of each Pauli measurement on the first qubit (or the
    ``last``) of a ``(..., N, N)`` stack of states.

    Returns the probabilities Tr[P rho P], shape (..., 3, 2), indexed
    ``[axis - 1, outcome]``, and the normalized partial traces of P rho P
    over the measured qubit, shape (..., 3, 2, N/2, N/2). An outcome whose
    probability falls below ZERO_PROBABILITY is dropped: probability 0.0 and
    the zero matrix.

    One stacked pass projects all six outcomes, reading rho as r[a, b, x, x']
    (the measured qubit's indices first): rows P[c, 0] r[0] + P[c, 1] r[1] of
    P rho, then only the blocks c' = c of P rho P, which both traces read.
    Projector entries are 0, +-1/2 or +-i/2, so each entry is one rounding of
    the two exact products kron(P, I) @ rho @ kron(P, I) adds, and both traces
    sum the same entries in the same order: the bits match, in any stack.
    """
    n = matrices.shape[-1]
    d = n // 2
    lead = matrices.shape[:-2]
    if last:
        r = matrices.reshape(lead + (d, 2, d, 2)).transpose(*range(len(lead)), -3, -1, -4, -2)
    else:
        r = matrices.reshape(lead + (2, d, 2, d)).swapaxes(-3, -2)
    r = r.reshape(lead + (2, 1, 2 * d * d))
    left = _ROW[0] * r[..., 0, :, :] + _ROW[1] * r[..., 1, :, :]  # P rho, rows (k, c)
    sub = left[..., : d * d] * _COL[0] + left[..., d * d :] * _COL[1]  # blocks c' = c
    sub = sub.reshape(lead + (6, 2, d, d))
    kept = sub[..., 0, :, :] + sub[..., 1, :, :]
    diag = np.diagonal(sub, axis1=-2, axis2=-1)  # [k, c, x]
    if last:
        diag = diag.swapaxes(-2, -1)  # the order of rho's own diagonal
    probs = diag.reshape(lead + (6, n)).sum(axis=-1).real
    dropped = probs < ZERO_PROBABILITY
    probs = np.where(dropped, 0.0, probs)
    rest = kept / np.where(dropped, 1.0, probs)[..., None, None]
    rest[dropped] = 0.0
    return probs.reshape(lead + (3, 2)), rest.reshape(lead + (3, 2, d, d))


class _Conditioning(NamedTuple):
    """Alice's conditional states of a stack of states.

    For two-qubit states of shape (...), ``prob`` (..., 3, 2) holds the
    probability of each outcome ``[axis - 1, outcome]`` of Alice's Pauli
    measurements (0.0 when dropped), ``bloch`` (..., 3, 2, 3) Bob's Bloch
    vector in that branch (zero when dropped) and ``norm`` (..., 3, 2) its
    norm. For three-qubit states ``charlie`` (..., 3, 2) holds the
    probabilities of Charlie's outcomes and the other three arrays carry
    two more leading axes, one for each of Charlie's conditional AB states.
    """

    charlie: np.ndarray | None
    prob: np.ndarray
    bloch: np.ndarray
    norm: np.ndarray


def _condition(matrices: np.ndarray) -> _Conditioning:
    """Condition a ``(..., 4, 4)`` or ``(..., 8, 8)`` stack of valid states.

    Three-qubit states are conditioned on Charlie's outcomes first; the
    conditional AB states are validated in one call and then conditioned
    on Alice's outcomes like any two-qubit stack; an AB state of probability
    p is validated as p * rho_AB, which has the slack of the state. Bob's
    Bloch vector is ``_bloch_vector`` of each branch and its norm
    ``_norm``, so both match ``BlochQubit`` bit for bit.
    """
    if matrices.shape[-1] == 8:
        charlie, ab = _outcomes(matrices, last=True)
        kept = charlie != 0.0
        _validate(ab[kept], charlie[kept])
        return _Conditioning(charlie, *_condition(ab)[1:])
    prob, rest = _outcomes(matrices, last=False)
    bloch = _bloch_vector(rest)
    return _Conditioning(None, prob, bloch, _norm(bloch))


def _conditioned(rho: DensityMatrix) -> _Conditioning:
    """The conditioning of one state, memoized on it as read-only arrays."""
    memo = rho._branches
    if memo is None:
        memo = _condition(rho.matrix)
        for arr in memo:
            if arr is not None:
                arr.setflags(write=False)
        rho._branches = memo
    return memo


def _outcome_sum(w: np.ndarray) -> np.ndarray:
    """The six outcome terms ``w[..., k, :]`` added in the order of k."""
    total = w[..., 0, :] + w[..., 1, :]
    for k in range(2, 6):
        total += w[..., k, :]
    return total


def _each(measures, *stacks):
    """``(measure, *slices)`` of each measure along the stacks' measure axis."""
    return ((measures, *stacks),) if isinstance(measures, Measure) else zip(measures, *stacks)


def _shifts(cond: _Conditioning, measures) -> tuple[np.ndarray, np.ndarray]:
    """The shifts (s_0, s_1, s_2), shape (..., 3), of every two-qubit state
    in the conditioning, and their totals, shape (...), for one ``Measure``
    or, along a leading measure axis, a tuple of them.

    With the measures' values stacked, each s_j adds its six terms p * C in
    the order of the outcomes and the total is (s_0 + s_1) + s_2, once for
    all: a measure's slice has the bits of it scored alone. A negative or
    NaN shift, or a total above the measure's bound 3 * epsilon (by more
    than BOUND_TOL / p in an AB state Charlie conditioned with probability
    p), anywhere in the stack raises ``ConsistencyError``.
    """
    if isinstance(measures, Measure):
        c = measures.evaluate(cond.bloch, cond.norm)
    else:
        c = np.stack([m.evaluate(cond.bloch, cond.norm) for m in measures])
    w = cond.prob[..., None] * c
    s = _outcome_sum(w.reshape(w.shape[:-3] + (6, 3))[..., _OUTCOME_ROWS, _SHIFT_AXES])
    total = s[..., 0] + s[..., 1] + s[..., 2]
    for measure, s_m, total_m in _each(measures, s, total):
        _check_nonnegative("shift value", s_m)
        bound = 3.0 * measure.epsilon
        if cond.charlie is None:
            _check_bound("shift total", total_m, bound, BOUND_TOL)
        elif not total_m.max() <= bound + BOUND_TOL:
            # Charlie's AB state of probability p holds the three-qubit state's
            # slack scaled by 1 / p, so its excess is weighed by p
            excess = cond.charlie * (total_m - bound)
            _check_bound("weighted shift total excess", excess, 0.0, BOUND_TOL)
    return s, total


def _tripartite(cond: _Conditioning, measures, shifts=None) -> np.ndarray:
    """(t1, t2, t3) of every three-qubit state in the conditioning, shape
    (..., 3), for ``measures`` as in ``_shifts``, from ``shifts``, which is
    ``_shifts(cond, measures)`` (computed here when not given).

    t1 and t2 each add their six terms p(c) * s in the order of Charlie's
    outcomes, and t3 = t1 + t2. A t3 above the measure's 9 * epsilon, or
    NaN, anywhere in the stack raises ``ConsistencyError``.
    """
    s, total = _shifts(cond, measures) if shifts is None else shifts
    matched = s.swapaxes(-1, -2)[..., _AXES, _MATCHED, :]
    w = cond.charlie[..., None] * np.stack([matched, total - matched], axis=-1)
    t = _outcome_sum(w.reshape(w.shape[:-3] + (6, 2)))
    t3 = t[..., 0] + t[..., 1]
    for measure, t3_m in _each(measures, t3):
        _check_bound("tripartite total", t3_m, 9.0 * measure.epsilon, BOUND_TOL)
    return np.concatenate([t, t3[..., None]], axis=-1)


@dataclass(frozen=True)
class ConditionalBranch:
    """One outcome of Alice's measurement: probability and Bob's state."""

    axis: int
    outcome: int
    probability: float
    state: BlochQubit


def conditional_states(
    rho: DensityMatrix, axis: int
) -> tuple[ConditionalBranch, ConditionalBranch]:
    """Bob's normalized conditional states for Alice measuring sigma_axis.

    Outcome ``a`` occurs with probability Tr[(P_axis^a (x) I) rho], and the
    branch state is the normalized partial trace over Alice of the
    projected operator. A branch whose probability falls below 1e-12 is
    returned with probability exactly 0 and the zero Bloch vector (the
    maximally mixed state) as placeholder, so its weighted contribution
    downstream is 0. The state is conditioned once, memoized on ``rho``;
    the branch objects are built from the memo on each call.

    Dividing by the probability p scales the eigenvalue slack ``rho`` was
    accepted with by 1 / p, so a branch's Bloch vector may be up to
    BLOCH_NORM_TOL / p longer than 1. One longer than 1 + BLOCH_NORM_TOL
    is scaled back onto the unit sphere; shorter ones are kept as they are.
    """
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    _check_axis(axis)
    cond = _conditioned(rho)
    i = int(axis) - 1
    branches = []
    for a in (0, 1):
        p, r, norm = cond.prob[i, a], cond.bloch[i, a], cond.norm[i, a]
        if norm > 1.0 + BLOCH_NORM_TOL:
            _check_bound("Bloch vector norm", norm, 1.0, BLOCH_NORM_TOL / p, NotAStateError)
            r = r / norm
        branches.append(ConditionalBranch(i + 1, a, float(p), BlochQubit(r)))
    return tuple(branches)


@dataclass(frozen=True, eq=False)
class ShiftValues(_ValueEquality):
    """The three shift functionals (s_0, s_1, s_2) for one measure.

    Each component is nonnegative and the total obeys the all-states bound
    3 * epsilon; a breach, or a NaN, raises ``ConsistencyError``.
    """

    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (3,):
            raise ValueError(f"expected three shift values, got shape {values.shape}")
        _check_nonnegative("shift value", values)
        _check_bound("shift total", values.sum(), 3.0 * self.measure.epsilon, BOUND_TOL)
        object.__setattr__(self, "values", _frozen(values))

    @property
    def total(self) -> float:
        return float(self.values.sum())


def shift_values(rho: DensityMatrix, measure: Measure) -> ShiftValues:
    """All three shift functionals of a two-qubit state in one pass."""
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    sv = object.__new__(ShiftValues)  # _shifts runs the guards of __post_init__
    vars(sv).update(values=_frozen(_shifts(_conditioned(rho), measure)[0]), measure=measure)
    return sv


class CriterionResult(NamedTuple):
    """Evaluated criterion: its value, its bound, and the violation flag."""

    value: float
    bound: float
    violated: bool


def _criteria(nqubits: int, values, measure: Measure) -> dict[str, CriterionResult]:
    """Every criterion of ``CRITERIA[nqubits]``, by name, from the values of
    the parts: the three shifts on two qubits, (t1, t2, t3) on three.

    ``values[j]`` is part j, a float for one state or an array over a stack.
    Either way each criterion adds its parts left to right, so a state's
    results have the same bits alone and in a stack.
    """
    table = CRITERIA[nqubits]
    eps = measure.epsilon
    results = {}
    for n, (name, (parts, units)) in enumerate(table.items(), 1):
        value = values[parts[0]]
        for j in parts[1:]:
            value = value + values[j]
        bound = units * eps
        # the last criterion holds for every state: no value is flagged
        tol = VIOLATION_TOL if n < len(table) else math.inf
        results[name] = CriterionResult(value, bound, value > bound + tol)
    return results


def _decompositions(s0, s1, s2) -> tuple:
    """The four groupings of the three-shift total, labelled as in
    ``SteeringReport.decompositions``: floats for one state, or arrays."""
    return (
        ("0+1+2", s0 + s1 + s2),
        ("01+2", (s0 + s1) + s2),
        ("02+1", (s0 + s2) + s1),
        ("12+0", (s1 + s2) + s0),
    )


@dataclass(frozen=True)
class SteeringReport:
    """Every bipartite criterion for one state and one measure.

    ``singles[j]`` is the one-setting criterion s_j <= epsilon; j = 0 is the
    plain one, and j = 1, 2 are generalized variants with the same bound,
    since the local-hidden-state derivation is shift independent.
    ``doubles`` pairs each (j, k) of ``DOUBLE_PAIRS`` with the two-setting
    criterion s_j + s_k <= 2 epsilon. ``triple`` is s_0 + s_1 + s_2 <=
    3 epsilon, which every state satisfies, so its flag is always False.
    ``decompositions`` lists the four groupings of the three-shift total
    (0+1+2, 01+2, 02+1, 12+0); they are exact regroupings of one sum, so
    they agree to round-off. Whenever a double is violated, the
    complementary single is satisfied, because the total is bounded.
    """

    shift: ShiftValues
    singles: tuple[CriterionResult, CriterionResult, CriterionResult]
    doubles: tuple[
        tuple[tuple[int, int], CriterionResult],
        tuple[tuple[int, int], CriterionResult],
        tuple[tuple[int, int], CriterionResult],
    ]
    triple: CriterionResult
    decompositions: tuple[
        tuple[str, float], tuple[str, float], tuple[str, float], tuple[str, float]
    ]

    @property
    def measure(self) -> Measure:
        return self.shift.measure


def steering_report(rho: DensityMatrix, measure: Measure) -> SteeringReport:
    """Assemble singles, doubles, the triple and its decompositions."""
    sv = shift_values(rho, measure)
    s = sv.values.tolist()
    results = list(_criteria(2, s, measure).values())
    doubles = tuple(zip(DOUBLE_PAIRS, results[3:6]))
    return SteeringReport(sv, tuple(results[:3]), doubles, results[6], _decompositions(*s))


@dataclass(frozen=True)
class TripartiteReport:
    """The three tripartite criteria for one state and one measure.

    ``t1`` sums p(c | i) * s_{i mod 3}(conditional AB state) over Charlie's
    axes i and outcomes c (bound 3 epsilon), ``t2`` the six unmatched
    shifts (bound 6 epsilon). t3.value = t1.value + t2.value exactly, and
    t3 never exceeds its 9 * epsilon bound (its flag is always False).
    """

    t1: CriterionResult
    t2: CriterionResult
    t3: CriterionResult
    measure: Measure


def tripartite_report(rho: DensityMatrix, measure: Measure) -> TripartiteReport:
    """Evaluate t1, t2 and t3 from Charlie's conditional AB states.

    The conditioning, Charlie's and Alice's within each AB state, is
    memoized on ``rho``, so reports for further measures reuse it.
    """
    if rho.nqubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {rho.nqubits} qubits")
    t = _tripartite(_conditioned(rho), measure).tolist()
    return TripartiteReport(*_criteria(3, t, measure).values(), measure)
