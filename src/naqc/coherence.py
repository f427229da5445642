"""Single-qubit coherence measures in the three Pauli eigenbases.

Three measures are supported, each with the bound that caps the sum of its
values over the three mutually unbiased Pauli bases:

* l1 norm of the off-diagonal entries, bound sqrt(6);
* relative entropy of coherence (base-2), bound 3*h2((1 + 1/sqrt(3))/2),
  about 2.2320;
* Wigner-Yanase skew information, bound 2.

The bounds are tight: the pure state with Bloch vector (1,1,1)/sqrt(3)
saturates the l1 and relative-entropy sums, and every pure state saturates
the skew-information sum. No qubit state exceeds them, which is what makes
the steering criteria built on top complementary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qcore import BlochQubit, ConsistencyError, _check_axis

__all__ = [
    "EPSILON_L1",
    "EPSILON_RELENT",
    "EPSILON_SKEW",
    "COHERENCE_SUM_TOL",
    "Measure",
    "CoherenceTriple",
    "binary_entropy",
    "c_l1",
    "c_relent",
    "c_skew",
    "coherence_triple",
]

COHERENCE_SUM_TOL = 1e-9

# transverse axis pair for each measured axis
_OTHER_AXES = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def binary_entropy(p: float) -> float:
    """h2(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


EPSILON_L1 = math.sqrt(6.0)
EPSILON_RELENT = 3.0 * binary_entropy((1.0 + 1.0 / math.sqrt(3.0)) / 2.0)
EPSILON_SKEW = 2.0


def c_l1(state: BlochQubit, axis: int) -> float:
    """l1 coherence of a qubit with respect to the sigma_axis eigenbasis.

    Written in that basis, the state has a single off-diagonal pair whose
    moduli sum to the transverse Bloch magnitude sqrt(r_j**2 + r_k**2),
    where j, k are the two axes other than ``axis``. Range [0, 1].
    """
    _check_axis(axis)
    j, k = _OTHER_AXES[axis]
    return math.hypot(state.r[j - 1], state.r[k - 1])


def c_relent(state: BlochQubit, axis: int) -> float:
    """Relative entropy of coherence with respect to the sigma_axis basis.

    Equals the entropy of the dephased state minus the entropy of the
    state, h2((1 + r_axis)/2) - h2((1 + |r|)/2), in bits. Clamped at 0
    against round-off; it vanishes exactly when r lies along the axis or
    r = 0.
    """
    _check_axis(axis)
    value = binary_entropy((1.0 + state.r[axis - 1]) / 2.0) - binary_entropy(
        (1.0 + state.norm) / 2.0
    )
    return max(0.0, value)


def c_skew(state: BlochQubit, axis: int) -> float:
    """Wigner-Yanase skew information of the qubit with respect to sigma_axis.

    The closed form, with lam_pm = (1 +/- |r|)/2,

        (sqrt(lam_plus) - sqrt(lam_minus))**2 * (1 - r_axis**2 / |r|**2)

    equals -(1/2) Tr([sqrt(rho), sigma_axis]**2). The |r| = 0 singularity is
    removable (the commutator vanishes), so 0 is returned there; lam_minus
    is clamped at 0 for pure states whose norm rounds slightly above 1.
    """
    _check_axis(axis)
    norm = state.norm
    if norm < 1e-12:
        return 0.0
    lam_plus = (1.0 + norm) / 2.0
    lam_minus = max(0.0, (1.0 - norm) / 2.0)
    transverse = max(0.0, 1.0 - (state.r[axis - 1] / norm) ** 2)
    return (math.sqrt(lam_plus) - math.sqrt(lam_minus)) ** 2 * transverse


class Measure(enum.Enum):
    """Coherence measure selector; ``epsilon`` is its triple-sum bound."""

    L1 = "l1"
    RELATIVE_ENTROPY = "relent"
    SKEW_INFORMATION = "skew"

    @property
    def epsilon(self) -> float:
        return _EPSILON[self]

    def coherence(self, state: BlochQubit, axis: int) -> float:
        """Evaluate this measure at one Pauli axis."""
        return _EVALUATE[self](state, axis)


_EPSILON = {
    Measure.L1: EPSILON_L1,
    Measure.RELATIVE_ENTROPY: EPSILON_RELENT,
    Measure.SKEW_INFORMATION: EPSILON_SKEW,
}

_EVALUATE = {
    Measure.L1: c_l1,
    Measure.RELATIVE_ENTROPY: c_relent,
    Measure.SKEW_INFORMATION: c_skew,
}


@dataclass(frozen=True)
class CoherenceTriple:
    """Coherence of one state in each Pauli basis, for one measure."""

    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (3,):
            raise ValueError(f"expected three values, got shape {values.shape}")
        if not float(values.min()) >= 0.0:
            raise ConsistencyError(f"negative or NaN coherence value in {values}")
        total = float(values.sum())
        if not total <= self.measure.epsilon + COHERENCE_SUM_TOL:
            raise ConsistencyError(
                f"coherence triple sum {total:.15g} exceeds the "
                f"{self.measure.value} bound {self.measure.epsilon:.15g}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def coherence_triple(state: BlochQubit, measure: Measure) -> CoherenceTriple:
    """Evaluate one measure at all three Pauli axes.

    The sum never exceeds ``measure.epsilon`` for a valid state; a breach
    raises ``ConsistencyError`` since it can only come from a numerics bug.
    """
    values = np.array([measure.coherence(state, axis) for axis in (1, 2, 3)])
    return CoherenceTriple(values, measure)
