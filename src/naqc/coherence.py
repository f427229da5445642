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

from .qcore import BlochQubit, _check_bound, _check_nonnegative, _frozen, _ValueEquality

__all__ = [
    "EPSILON_L1",
    "EPSILON_RELENT",
    "EPSILON_SKEW",
    "COHERENCE_SUM_TOL",
    "Measure",
    "CoherenceTriple",
    "binary_entropy",
    "coherence_triple",
]

COHERENCE_SUM_TOL = 1e-9

# for Bob axes 1, 2, 3: the two transverse components of the Bloch vector
_TRANSVERSE = (np.array([1, 0, 0]), np.array([2, 2, 1]))


def binary_entropy(p: float) -> float:
    """h2(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


EPSILON_L1 = math.sqrt(6.0)
EPSILON_RELENT = 3.0 * binary_entropy((1.0 + 1.0 / math.sqrt(3.0)) / 2.0)
EPSILON_SKEW = 2.0


# The evaluators below take a stack of Bloch vectors r of shape (..., 3) and
# their norms |r| of shape (...) and return the measure at the three Pauli
# axes, shape (..., 3). They propagate NaN, so the consistency guards
# downstream trip on it instead of reporting a number.


def _l1(r: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """l1 coherence with respect to each sigma_axis eigenbasis.

    Written in that basis, the state has a single off-diagonal pair whose
    moduli sum to the transverse Bloch magnitude sqrt(r_j**2 + r_k**2),
    where j, k are the two axes other than the measured one. Range [0, 1].
    """
    return np.hypot(r[..., _TRANSVERSE[0]], r[..., _TRANSVERSE[1]])


def _entropy(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` elementwise."""
    outside = (p <= 0.0) | (p >= 1.0)
    p = np.where(outside, 0.5, p)
    return np.where(outside, 0.0, -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))


def _relent(r: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Relative entropy of coherence with respect to each sigma_axis basis.

    Equals the entropy of the dephased state minus the entropy of the
    state, h2((1 + r_axis)/2) - h2((1 + |r|)/2), in bits. Clamped at 0
    against round-off; it vanishes exactly when r lies along the axis or
    r = 0.
    """
    h = _entropy((1.0 + np.concatenate([r, norm[..., None]], axis=-1)) / 2.0)
    return np.maximum(0.0, h[..., :3] - h[..., 3:])


def _skew(r: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Wigner-Yanase skew information with respect to each sigma_axis.

    The closed form, with lam_pm = (1 +/- |r|)/2,

        (sqrt(lam_plus) - sqrt(lam_minus))**2 * (1 - r_axis**2 / |r|**2)

    equals -(1/2) Tr([sqrt(rho), sigma_axis]**2). The |r| = 0 singularity is
    removable (the commutator vanishes), so 0 is returned there; lam_minus
    is clamped at 0 for pure states whose norm rounds slightly above 1.
    """
    small = norm < 1e-12
    norm = np.where(small, 1.0, norm)[..., None]
    lam_plus = (1.0 + norm) / 2.0
    lam_minus = np.maximum(0.0, (1.0 - norm) / 2.0)
    transverse = np.maximum(0.0, 1.0 - (r / norm) ** 2)
    value = (np.sqrt(lam_plus) - np.sqrt(lam_minus)) ** 2 * transverse
    return np.where(small[..., None], 0.0, value)


class Measure(enum.Enum):
    """Coherence measure selector; ``epsilon`` is its triple-sum bound."""

    L1 = "l1"
    RELATIVE_ENTROPY = "relent"
    SKEW_INFORMATION = "skew"

    @property
    def epsilon(self) -> float:
        return _EPSILON[self]

    def evaluate(self, r: np.ndarray, norm: np.ndarray) -> np.ndarray:
        """This measure at the three Pauli axes for a stack of Bloch vectors
        ``r`` (shape (..., 3)) with norms ``norm`` (shape (...)); the result
        has shape (..., 3). NaN in, NaN out."""
        return _EVALUATE[self](r, norm)


_EPSILON = {
    Measure.L1: EPSILON_L1,
    Measure.RELATIVE_ENTROPY: EPSILON_RELENT,
    Measure.SKEW_INFORMATION: EPSILON_SKEW,
}

_EVALUATE = {
    Measure.L1: _l1,
    Measure.RELATIVE_ENTROPY: _relent,
    Measure.SKEW_INFORMATION: _skew,
}


def _checked_totals(values: np.ndarray, measure: Measure) -> np.ndarray:
    """The sums of a (..., 3) stack of ``measure``'s values. Raises
    ``ConsistencyError`` on a negative or NaN value or a sum above epsilon."""
    _check_nonnegative("coherence value", values)
    totals = values.sum(axis=-1)
    _check_bound(
        f"{measure.value} coherence triple sum", totals, measure.epsilon, COHERENCE_SUM_TOL
    )
    return totals


@dataclass(frozen=True, eq=False)
class CoherenceTriple(_ValueEquality):
    """Coherence of one state in each Pauli basis, for one measure."""

    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (3,):
            raise ValueError(f"expected three values, got shape {values.shape}")
        _checked_totals(values, self.measure)
        object.__setattr__(self, "values", _frozen(values))

    @property
    def total(self) -> float:
        return float(self.values.sum())


def coherence_triple(state: BlochQubit, measure: Measure) -> CoherenceTriple:
    """Evaluate one measure at all three Pauli axes.

    The sum never exceeds ``measure.epsilon`` for a valid state; a breach
    raises ``ConsistencyError`` since it can only come from a numerics bug.
    """
    return CoherenceTriple(measure.evaluate(state.r, np.float64(state.norm)), measure)
