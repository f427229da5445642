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

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .coherence import Measure
from .qcore import (
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    _bloch_vector,
    _check_axis,
    _frozen,
    kron,
    partial_trace_matrix,
    projector,
)

__all__ = [
    "VIOLATION_TOL",
    "BOUND_TOL",
    "ZERO_PROBABILITY",
    "shift_axis",
    "ConditionalBranch",
    "conditional_states",
    "ShiftValues",
    "shift_values",
    "CriterionResult",
    "SteeringReport",
    "steering_report",
    "DOUBLE_PAIRS",
    "TripartiteReport",
    "tripartite_report",
]

# strictness of a violation flag vs. tolerance of the all-states bounds
VIOLATION_TOL = 1e-12
BOUND_TOL = 1e-9
ZERO_PROBABILITY = 1e-12

DOUBLE_PAIRS = ((0, 1), (0, 2), (1, 2))

# Pauli measurement operators keyed by (qubit count, axis, outcome): Alice
# measures the first of two qubits, Charlie the last of three. The qubits
# kept after the measurement are the unmeasured ones.
_MEASUREMENTS = {
    (nqubits, axis, outcome): _frozen(
        kron(projector(axis, outcome), np.eye(2))
        if nqubits == 2
        else kron(np.eye(4), projector(axis, outcome))
    )
    for nqubits in (2, 3)
    for axis in (1, 2, 3)
    for outcome in (0, 1)
}
_KEPT_QUBITS = {2: (1,), 3: (0, 1)}


def _check_shift(j: int) -> None:
    if j not in (0, 1, 2):
        raise ValueError(f"shift index must be 0, 1 or 2, got {j!r}")


def shift_axis(axis: int, j: int) -> int:
    """Bob's coherence axis for Alice's axis under shift j: cyclic step."""
    _check_axis(axis)
    _check_shift(j)
    return ((axis - 1 + j) % 3) + 1


def _condition(
    rho: DensityMatrix, axis: int
) -> Iterator[tuple[int, float, np.ndarray | None]]:
    """Both outcomes of a Pauli measurement on Alice's or Charlie's qubit.

    Yields (outcome, probability, state): outcome ``a`` has probability
    Tr[P rho P] with P the projector onto it, and its state is the
    normalized partial trace of P rho P over the measured qubit. A branch
    whose probability falls below ZERO_PROBABILITY is dropped: it comes
    with probability 0.0 and state None.
    """
    nqubits = rho.nqubits
    for outcome in (0, 1):
        op = _MEASUREMENTS[nqubits, axis, outcome]
        sub = op @ rho.matrix @ op
        prob = float(np.trace(sub).real)
        if prob < ZERO_PROBABILITY:
            yield outcome, 0.0, None
        else:
            rest = partial_trace_matrix(sub, nqubits, _KEPT_QUBITS[nqubits])
            yield outcome, prob, rest / prob


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
    returned with probability exactly 0 and a maximally mixed placeholder
    state, so its weighted contribution downstream is 0.
    """
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    _check_axis(axis)
    return tuple(
        ConditionalBranch(
            axis,
            outcome,
            prob,
            BlochQubit(np.zeros(3) if bob is None else _bloch_vector(bob)),
        )
        for outcome, prob, bob in _condition(rho, axis)
    )


@dataclass(frozen=True)
class ShiftValues:
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
        if not float(values.min()) >= 0.0:
            raise ConsistencyError(f"negative or NaN shift value in {values}")
        total = float(values.sum())
        bound = 3.0 * self.measure.epsilon
        if not total <= bound + BOUND_TOL:
            raise ConsistencyError(
                f"shift total {total:.15g} exceeds the all-states bound {bound:.15g}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def shift_values(rho: DensityMatrix, measure: Measure) -> ShiftValues:
    """All three shift functionals of a two-qubit state in one pass."""
    s = np.zeros(3)
    for axis in (1, 2, 3):
        for branch in conditional_states(rho, axis):
            if branch.probability == 0.0:
                continue
            for j in range(3):
                s[j] += branch.probability * measure.coherence(
                    branch.state, shift_axis(axis, j)
                )
    return ShiftValues(s, measure)


class CriterionResult(NamedTuple):
    """Evaluated criterion: its value, its bound, and the violation flag."""

    value: float
    bound: float
    violated: bool


def _flag(value: float, bound: float) -> CriterionResult:
    return CriterionResult(value, bound, value > bound + VIOLATION_TOL)


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
    s0, s1, s2 = (float(x) for x in sv.values)
    eps = measure.epsilon
    singles = tuple(_flag(s, eps) for s in (s0, s1, s2))
    doubles = tuple(
        ((j, k), _flag(float(sv.values[j] + sv.values[k]), 2.0 * eps))
        for j, k in DOUBLE_PAIRS
    )
    triple = CriterionResult(sv.total, 3.0 * eps, False)
    decompositions = (
        ("0+1+2", s0 + s1 + s2),
        ("01+2", (s0 + s1) + s2),
        ("02+1", (s0 + s2) + s1),
        ("12+0", (s1 + s2) + s0),
    )
    return SteeringReport(sv, singles, doubles, triple, decompositions)


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
    """Evaluate t1, t2 and t3 sharing one conditioning pass."""
    if rho.nqubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {rho.nqubits} qubits")
    t1 = 0.0
    t2 = 0.0
    for axis in (1, 2, 3):
        matched = axis % 3  # shift paired with Charlie's axis: 1 -> 1, 2 -> 2, 3 -> 0
        for _outcome, prob, ab in _condition(rho, axis):
            if ab is None:
                continue
            s = shift_values(DensityMatrix(ab), measure).values
            t1 += prob * float(s[matched])
            t2 += prob * float(s.sum() - s[matched])
    t3 = t1 + t2
    eps = measure.epsilon
    if not t3 <= 9.0 * eps + BOUND_TOL:
        raise ConsistencyError(
            f"tripartite total {t3:.15g} exceeds the all-states bound {9 * eps:.15g}"
        )
    return TripartiteReport(
        _flag(t1, 3.0 * eps),
        _flag(t2, 6.0 * eps),
        CriterionResult(t3, 9.0 * eps, False),
        measure,
    )
