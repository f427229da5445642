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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherence import Measure, _Triple, _bounds, _check_measure, _check_totals
from .qcore import (
    BLOCH_NORM_TOL,
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    _PROJ,
    _check_bound,
    _check_index,
    _frozen,
    _norm,
)

__all__ = [
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

ZERO_PROBABILITY = 1e-12

DOUBLE_PAIRS = ((0, 1), (0, 2), (1, 2))

# Every criterion, in the reports' order: the parts it adds, left to right,
# and its bound in units of epsilon. The parts are shift indices j of s_j on
# two qubits and positions in (t1, t2, t3) on three. The last criterion of
# each table holds for every state, so it is never flagged; its bound is
# coherence._bounds', 3 ** (n - 1) epsilon on n qubits.
CRITERIA = {
    2: {
        **{f"single{j}": ((j,), 1.0) for j in range(3)},
        **{f"double{j}{k}": ((j, k), 2.0) for j, k in DOUBLE_PAIRS},
        "triple": ((0, 1, 2), 3.0),
    },
    3: {"t1": ((0,), 3.0), "t2": ((1,), 6.0), "t3": ((2,), 9.0)},
}

# For outcome k = 2 (axis - 1) + outcome and shift j, Bob's 0-based axis is
# (axis - 1 + j) mod 3, a cyclic step from Alice's. The terms p * C of a
# state, flat in (outcome k, Bob's axis) order, hold the term of s_j from
# outcome k at _SHIFT_TERMS[k, j], so one take gathers them at [..., k, j]
# (mode "clip" as in coherence._TRANSVERSE).
_SHIFT_AXES = (np.arange(6)[:, None] // 2 + np.arange(3)) % 3
_SHIFT_TERMS = 3 * np.arange(6)[:, None] + _SHIFT_AXES
# The shift matched to Charlie's axis 1, 2, 3 is s_1, s_2, s_0; the shifts
# of his AB states, flat in (axis - 1, outcome, j) order, hold the matched
# one of outcome c at _MATCHED[axis - 1, c].
_MATCHED = 6 * np.arange(3)[:, None] + 3 * np.arange(2) + (np.arange(3)[:, None] + 1) % 3
# the measure axis of a state's memo, DensityMatrix._parts
_MEASURES = tuple(Measure)


def _table(n: int, last: bool, x, y, part) -> tuple[np.ndarray, np.ndarray]:
    """Where the reals of the branches of an (n, n) state measured on its
    first qubit (or its ``last``) sit in its float view, and their signs.

    Outcome k = 2 * (axis - 1) + outcome leaves Tr_1[P_k rho], whose entry
    (x, y) adds the four block entries rho[(b, x), (b', y)] times P_k[b', b]:
    0, +-1/2, +-i/2 or 1, which takes one real part of each term. Entry e of
    the table, (x[e], y[e]) and its real (``part`` 0) or imaginary (1) part,
    gives the float-view index and the sign of each term t at [t, 6 e + k],
    in the order ``_pairwise`` adds them: (b = 0 + b = 1 at b' = 0) + (the
    same at b' = 1), the order whose bits tests/golden.json and
    bench/reference.json hold. A zero coefficient stays a +0.0 term on the
    other part of its entry, so a NaN in either part of an entry reaches
    some branch.
    """
    b, c = (np.array(v).reshape(4, 1, 1) for v in ((0, 0, 1, 1), (0, 1, 0, 1)))  # term t's b, b'
    coef = _PROJ.reshape(6, 2, 2).transpose(2, 1, 0).reshape(4, 1, 6)  # P_k[b', b]
    x, y, part = (np.asarray(v)[:, None] for v in (x, y, part))
    row, col = (2 * x + b, 2 * y + c) if last else (b * n // 2 + x, c * n // 2 + y)
    index = 2 * (row * n + col) + np.where(coef.real == 0, 1 - part, part)  # i/2 swaps the parts
    sign = coef.real + np.where(part, coef.imag, -coef.imag)
    return _frozen(index.reshape(4, -1)), _frozen(sign.reshape(4, -1))


# Alice's branch reals K00.re, K11.re, K01.re, K10.im of a two-qubit state
# (Bob's probability and Bloch vector), and the 32 reals of Charlie's AB
# branches of a three-qubit state, in the order of their float view
_ALICE = _table(4, False, (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1))
_CHARLIE = _table(8, True, *np.unravel_index(np.arange(32), (4, 4, 2)))


def _pairwise(a: np.ndarray) -> np.ndarray:
    """The sum over axis -2 (length 2 or 4) by halves: (a0 + a2) + (a1 +
    a3) for four, the pairwise order of numpy's complex sum."""
    while (half := a.shape[-2] // 2) >= 1:
        a = a[..., :half, :] + a[..., half:, :]
    return a[..., 0, :]


def _branches(matrices: np.ndarray, index, sign, diagonal: slice):
    """The E reals of a ``_table`` of every outcome of a ``(..., N, N)``
    stack, each branch's times 1.0 / p, shape (..., 6, E), and the
    probabilities p, the ``diagonal`` reals added pairwise, shape (..., 3,
    2). A dropped branch (p below ZERO_PROBABILITY) has p = 0.0 and zero
    reals. A NaN or infinite probability raises ``ConsistencyError``.

    The adds and the product with 1.0 / p keep the bits that
    tests/golden.json and bench/reference.json hold; a -0.0 part keeps its
    sign, which no coherence measure reads."""
    flat = np.ascontiguousarray(matrices).reshape(matrices.shape[:-2] + (-1,)).view(float)
    terms = flat.take(index, axis=-1)
    terms *= sign
    values = _pairwise(terms).reshape(terms.shape[:-2] + (-1, 6))
    probs = _pairwise(values[..., diagonal, :])
    # before the division, which would warn
    if not math.isfinite(top := np.maximum.reduce(probs, axis=None)):
        raise ConsistencyError(f"outcome probability {top:.15g} is not finite")
    # only a stack with a dropped branch pays for the masks
    if drop := (np.minimum.reduce(probs, axis=None) < ZERO_PROBABILITY):
        dropped = probs < ZERO_PROBABILITY
        probs[dropped] = 1.0  # a dropped branch divides by 1.0, then reads 0.0
    # outcome-major, so each branch's reals are contiguous
    scaled = np.multiply(values.swapaxes(-1, -2), (1.0 / probs)[..., None], order="C")
    if drop:
        scaled[dropped] = probs[dropped] = 0.0
    return scaled, probs.reshape(probs.shape[:-1] + (3, 2))


def _charlie(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both outcomes of each Pauli measurement on Charlie's qubit of a
    ``(..., 8, 8)`` stack: the probabilities, shape (..., 3, 2), indexed
    ``[axis - 1, outcome]``, and the AB states, shape (..., 3, 2, 4, 4). A
    dropped outcome has probability 0.0 and the zero matrix.

    p adds the AB diagonal as (k0 + k2) + (k1 + k3), and each AB state is
    its 32 reals of ``_CHARLIE`` times 1.0 / p viewed as complex."""
    values, probs = _branches(matrices, *_CHARLIE, slice(0, 31, 10))
    return probs, values.view(complex).reshape(probs.shape + (4, 4))


def _alice(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both outcomes of each Pauli measurement on Alice's qubit of a
    ``(..., 4, 4)`` stack: the probabilities, shape (..., 3, 2), and Bob's
    Bloch vectors, shape (..., 3, 2, 3), zero where dropped.

    p = K00.re + K11.re of Bob's branch K = Tr_A[P rho], and b = (2 K01.re,
    2 K10.im, K00.re - K11.re) of K times 1.0 / p, read off as
    ``qcore._bloch_vector`` reads a qubit."""
    values, probs = _branches(matrices, *_ALICE, slice(0, 2))
    bloch = np.empty(values.shape[:-1] + (3,))
    np.multiply(values[..., 2:], 2.0, out=bloch[..., :2])
    np.subtract(values[..., 0], values[..., 1], out=bloch[..., 2])
    return probs, bloch.reshape(probs.shape + (3,))


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

    Three-qubit states are conditioned on Charlie's outcomes first
    (``_charlie``), and his conditional AB states on Alice's (``_alice``)
    like any two-qubit stack. Each stage gathers the reals its branches
    need from the float view of its stack and adds them in fixed orders,
    whose bits tests/golden.json and bench/reference.json hold, and each
    norm is ``_norm``'s, as in ``BlochQubit``.

    A branch reached with probability w (Alice's p, times Charlie's on three
    qubits) holds w * rho_B, a compression of the state, whose eigenvalues
    keep the state's floor of -1e-10; so w * (|b| - 1) <= 2e-10. One guard
    holds the whole stack to w * (|b| - 1) <= BLOCH_NORM_TOL and raises
    ``ConsistencyError`` on a breach or on NaN.
    """
    charlie = None
    if matrices.shape[-1] == 8:
        charlie, matrices = _charlie(matrices)
    prob, bloch = _alice(matrices)
    norm = _norm(bloch)
    weight = prob if charlie is None else charlie[..., None, None] * prob
    _check_bound("weighted Bloch vector norm excess", weight * (norm - 1.0), 0.0, BLOCH_NORM_TOL)
    return _Conditioning(charlie, prob, bloch, norm)


def _shifts(cond: _Conditioning, measures: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The shifts (s_0, s_1, s_2), shape (M, ..., 3), of every two-qubit
    state in the conditioning, and their totals, shape (M, ...), along a
    leading axis over the M ``measures``. Each s_j sums its six terms p * C
    in the order of the outcomes (numpy adds fewer than eight in index
    order, and none is -0.0) and the total is (s_0 + s_1) + s_2, so a
    measure's slice has the bits of it scored alone. ``_check_totals`` guards both."""
    w = cond.prob[..., None] * np.array([m.evaluate(cond.bloch, cond.norm) for m in measures])
    terms = w.reshape(w.shape[:-3] + (18,)).take(_SHIFT_TERMS, axis=-1, mode="clip")
    s = np.add.reduce(terms, axis=-2)
    total = s[..., 0] + s[..., 1] + s[..., 2]
    _check_totals("shift total", total, _bounds(measures, 2), s, "shift value", cond.charlie)
    return s, total


def _tripartite(cond: _Conditioning, measures: tuple, shifts=None) -> np.ndarray:
    """(t1, t2, t3), shape (M, ..., 3), of every three-qubit state in the
    conditioning for ``measures`` as in ``_shifts``, from ``shifts`` (by
    default ``_shifts(cond, measures)``). t1 and t2 sum their six terms
    p(c) * s in the order of Charlie's outcomes; t3 = t1 + t2 is guarded."""
    s, total = _shifts(cond, measures) if shifts is None else shifts
    matched = s.reshape(s.shape[:-3] + (18,)).take(_MATCHED, axis=-1, mode="clip")
    w = np.empty(matched.shape + (2,))
    np.multiply(cond.charlie, matched, out=w[..., 0])
    np.multiply(cond.charlie, total - matched, out=w[..., 1])
    t = np.empty(w.shape[:-3] + (3,))
    np.add.reduce(w.reshape(w.shape[:-3] + (6, 2)), axis=-2, out=t[..., :2])
    np.add(t[..., 0], t[..., 1], out=t[..., 2])
    _check_totals("tripartite total", t[..., 2], _bounds(measures, 3))
    return t


def _parts(cond: _Conditioning, measures: tuple) -> np.ndarray:
    """The parts of ``CRITERIA`` of every state in the conditioning, shape
    (M, ..., 3) along the M ``measures``: the shifts on two qubits, (t1, t2,
    t3) on three."""
    return _shifts(cond, measures)[0] if cond.charlie is None else _tripartite(cond, measures)


def _row(rho: DensityMatrix, measure: Measure, nqubits: int) -> np.ndarray:
    """``measure``'s parts of an ``nqubits`` state: one read-only row of its
    memo, the (3, 3) parts of every measure in ``_MEASURES`` order, which
    one conditioning and one scoring pass fill on first use."""
    if rho.nqubits != nqubits:
        raise ValueError(f"expected a {nqubits}-qubit state, got {rho.nqubits} qubits")
    _check_measure(measure)
    if rho._parts is None:  # a racing thread computes the same bits
        rho._parts = _frozen(_parts(_condition(rho.matrix), _MEASURES))
    return rho._parts[_MEASURES.index(measure)]


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
    downstream is 0. The state is conditioned on each call: this
    on-demand view shares nothing with the reports' memo.

    Dividing by the probability p scales the eigenvalue slack ``rho`` was
    accepted with by 1 / p, and ``_condition`` holds |b| to 1 +
    BLOCH_NORM_TOL / p. A vector longer than 1 + BLOCH_NORM_TOL is scaled
    back onto the unit sphere; shorter ones are kept as they are.
    """
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    _check_index("Pauli axis", axis, (1, 2, 3))
    cond = _condition(rho.matrix)
    i = int(axis) - 1
    branches = []
    for a in (0, 1):
        p, r, norm = cond.prob[i, a], cond.bloch[i, a], cond.norm[i, a]
        if norm > 1.0 + BLOCH_NORM_TOL:
            r = r / norm
        branches.append(ConditionalBranch(i + 1, a, float(p), BlochQubit(r)))
    return tuple(branches)


class ShiftValues(_Triple):
    """The three shift functionals (s_0, s_1, s_2) for one measure.

    Each component is nonnegative and the total obeys the all-states bound
    3 * epsilon; a breach, or a NaN, raises ``ConsistencyError``.
    """

    _NQUBITS, _KIND, _VALUE, _TOTAL = 2, "shift ", "shift value", "shift total"


def shift_values(rho: DensityMatrix, measure: Measure) -> ShiftValues:
    """All three shift functionals of a two-qubit state, a row of its memo."""
    sv = object.__new__(ShiftValues)  # _shifts ran the guards of __post_init__
    vars(sv).update(values=_row(rho, measure, 2), measure=measure)
    return sv


class CriterionResult(NamedTuple):
    """Evaluated criterion: its value, its bound, and the violation flag."""

    value: float
    bound: float
    violated: bool


# a CriterionResult from its three fields, in C: the generated __new__ runs
# a Python frame per result
_criterion_result = functools.partial(tuple.__new__, CriterionResult)


@functools.cache
def _limits(nqubits: int, measure: Measure) -> dict:
    """Each criterion of ``CRITERIA[nqubits]`` by name: its parts, its bound
    for ``measure`` and the value above which it is flagged, the bound plus
    the table's total tolerance from ``coherence._bounds``."""
    table = CRITERIA[nqubits]
    tol = float(_bounds((measure,), nqubits)[1][0])
    limits = {}
    for n, (name, (parts, units)) in enumerate(table.items(), 1):
        bound = units * measure.epsilon
        # the last criterion holds for every state: no value is flagged
        limits[name] = (parts, bound, bound + tol if n < len(table) else math.inf)
    return limits


def _scored(values, limits: dict) -> dict[str, CriterionResult]:
    """The criteria of ``limits``, a ``_limits`` mapping or a part of one,
    by name, from the values of the parts: the three shifts on two qubits,
    (t1, t2, t3) on three.

    ``values[j]`` is part j, a float for one state or an array over a stack.
    Either way each criterion adds its parts left to right, so a state's
    result has the same bits alone and in a stack.
    """
    results = {}
    for name, (parts, bound, limit) in limits.items():
        value = values[parts[0]]
        for j in parts[1:]:
            value = value + values[j]
        results[name] = _criterion_result((value, bound, value > limit))
    return results


def _criteria(nqubits: int, values, measure: Measure) -> dict[str, CriterionResult]:
    """Every criterion of ``CRITERIA[nqubits]``, by name."""
    return _scored(values, _limits(nqubits, measure))


def _decompositions(s0, s1, s2) -> tuple:
    """The four groupings of the three-shift total, labelled as in
    ``SteeringReport.decompositions``: floats for one state, or arrays."""
    return (
        ("0+1+2", s0 + s1 + s2),
        ("01+2", (s0 + s1) + s2),
        ("02+1", (s0 + s2) + s1),
        ("12+0", (s1 + s2) + s0),
    )


_Double = tuple[tuple[int, int], CriterionResult]  # a pair of DOUBLE_PAIRS and its criterion


class SteeringReport(NamedTuple):
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

    Like ``TripartiteReport``, it is an immutable ``NamedTuple`` that
    compares by value, and it indexes and unpacks as the tuple of its
    fields.
    """

    shift: ShiftValues
    singles: tuple[CriterionResult, CriterionResult, CriterionResult]
    doubles: tuple[_Double, _Double, _Double]
    triple: CriterionResult
    decompositions: tuple[tuple[str, float], ...]

    @property
    def measure(self) -> Measure:
        return self.shift.measure


def steering_report(rho: DensityMatrix, measure: Measure) -> SteeringReport:
    """Assemble singles, doubles, the triple and its decompositions."""
    sv = shift_values(rho, measure)
    s = sv.values.tolist()
    results = list(_criteria(2, s, measure).values())
    doubles = tuple(zip(DOUBLE_PAIRS, results[3:6]))
    return _steering_report((sv, tuple(results[:3]), doubles, results[6], _decompositions(*s)))


class TripartiteReport(NamedTuple):
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


# each report from its fields, in C, as _criterion_result builds a
# CriterionResult
_steering_report = functools.partial(tuple.__new__, SteeringReport)
_tripartite_report = functools.partial(tuple.__new__, TripartiteReport)


def tripartite_report(rho: DensityMatrix, measure: Measure) -> TripartiteReport:
    """Evaluate t1, t2 and t3 from Charlie's conditional AB states.

    The first report of ``rho`` scores every measure and memoizes (t1, t2,
    t3) of each on it, so reports for further measures read their row.
    """
    t = _row(rho, measure, 3).tolist()
    return _tripartite_report((*_criteria(3, t, measure).values(), measure))
