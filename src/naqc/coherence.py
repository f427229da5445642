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

The relation extends to more parties. A qubit's triple adds to at most
epsilon, the bipartite shift total to 3 epsilon and the tripartite t3 to
9 epsilon: 3 ** (n - 1) * epsilon on n = 1, 2 or 3 qubits, for every
state. One guard, ``_check_totals``, holds each such sum to that bound
plus one tolerance, 1e-9 of round-off and epsilon * 1e-9 for each of the
6 ** (n - 1) Bloch vectors the sum weighs (``_bounds``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    BLOCH_NORM_TOL,
    BlochQubit,
    _check_bound,
    _check_nonnegative,
    _check_numeric,
    _check_unit_interval,
    _frozen,
    _ValueEquality,
)

__all__ = [
    "BOUND_TOL",
    "EPSILON_L1",
    "EPSILON_RELENT",
    "EPSILON_SKEW",
    "Measure",
    "CoherenceTriple",
    "binary_entropy",
    "coherence_triple",
]

BOUND_TOL = 1e-9  # round-off in a bounded sum, before the Bloch-norm slack (_bounds)

# for Bob axes 1, 2, 3: the two transverse components of the Bloch vector
_TRANSVERSE = (np.array([1, 0, 0]), np.array([2, 2, 1]))


def _entropy(p: np.ndarray) -> np.ndarray:
    """h2(p) = -p log2 p - (1-p) log2 (1-p) elementwise, with 0 log 0 = 0, of
    an array ``p`` that it overwrites."""
    outside = (p <= 0.0) | (p >= 1.0)
    p[outside] = 0.5
    h = -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))
    h[outside] = 0.0
    return h


def binary_entropy(p: float) -> float:
    """h2(p) of one probability p in [0, 1], with the bits of the ``relent``
    measure's; bools, strings and p outside [0, 1] raise ``ValueError``."""
    return float(_entropy(np.array([_check_unit_interval("p", p)]))[0])


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


def _relent(r: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Relative entropy of coherence with respect to each sigma_axis basis.

    Equals the entropy of the dephased state minus the entropy of the
    state, h2((1 + r_axis)/2) - h2((1 + |r|)/2), in bits. Clamped at 0
    against round-off; it vanishes exactly when r lies along the axis or
    r = 0.
    """
    x = np.empty(r.shape[:-1] + (4,))  # r, then |r|
    x[..., :3], x[..., 3] = r, norm
    h = _entropy((1.0 + x) / 2.0)
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
    norm = np.maximum(norm, 1e-12)[..., None]  # no division by 0; small norms read 0 below
    lam_plus = (1.0 + norm) / 2.0
    lam_minus = np.maximum(0.0, (1.0 - norm) / 2.0)
    transverse = np.maximum(0.0, 1.0 - (r / norm) ** 2)
    transverse[small] = 0.0
    return (np.sqrt(lam_plus) - np.sqrt(lam_minus)) ** 2 * transverse


class Measure(enum.Enum):
    """Coherence measure selector; ``epsilon`` is its triple-sum bound."""

    L1 = "l1"
    RELATIVE_ENTROPY = "relent"
    SKEW_INFORMATION = "skew"

    # members are singletons that compare by identity, so they hash by it,
    # in C, where Enum's own hash of the name runs a Python frame
    __hash__ = object.__hash__

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


def _check_measure(measure) -> None:
    if not isinstance(measure, Measure):
        raise TypeError(f"measure must be a Measure, got {measure!r}")


@functools.cache
def _bounds(measures: tuple, nqubits: int) -> tuple:
    """Per measure, read-only: the all-states bound 3 ** (nqubits - 1) *
    epsilon of a sum over ``nqubits`` qubits, its tolerance, which the
    criteria flags of ``naqc.steering`` share, and their sum.

    The sum weighs the values of 6 ** (nqubits - 1) Bloch vectors b: the
    qubit's own, or the branches of ``naqc.steering._condition``. A
    vector's values add to at most epsilon * max(1, |b|), and its weighted
    excess w * (|b| - 1) is held to BLOCH_NORM_TOL (by ``BlochQubit``, with
    w = 1, or by ``_condition``), so each vector adds epsilon *
    BLOCH_NORM_TOL to the round-off BOUND_TOL."""
    eps = np.array([m.epsilon for m in measures])
    bound = 3.0 ** (nqubits - 1) * eps
    tol = BOUND_TOL + 6 ** (nqubits - 1) * eps * BLOCH_NORM_TOL
    return tuple(_frozen(a) for a in (bound, tol, bound + tol))


def _check_totals(name, totals, bounds, parts=None, part_name=None, weight=None) -> None:
    """Hold each measure's slice of ``totals`` to its ``_bounds`` and of
    ``parts`` to 0 from below, one reduction each. On a breach or NaN the
    first failing measure raises as it would alone, naming a total ``name``
    and a part ``part_name``; given Charlie's probabilities as ``weight``, a
    total fails only if its weighted excess does."""
    bound, tol, limit = bounds
    passed = np.logical_and.reduce(totals.T <= limit, axis=None)
    if passed and (parts is None or np.logical_and.reduce(parts >= 0.0, axis=None)):
        return
    for k in range(len(totals)):
        if parts is not None:
            _check_nonnegative(part_name, parts[k])
        if weight is None:
            _check_bound(name, totals[k], bound[k], tol[k])
        elif not np.logical_and.reduce(totals[k] <= limit[k], axis=None):
            # an AB state of probability p holds excess / p
            _check_bound(f"weighted {name} excess", weight * (totals[k] - bound[k]), 0.0, tol[k])


@dataclass(frozen=True, eq=False)
class _Triple(_ValueEquality):
    """Three read-only values of one measure, each nonnegative and adding to
    at most the all-states bound of ``_NQUBITS`` qubits; a breach, or a NaN,
    raises ``ConsistencyError``. A subclass sets ``_NQUBITS`` and the words
    of its messages: ``_KIND`` before "values", ``_VALUE`` for one value and
    ``_TOTAL``, formatted with the measure's name, for their sum."""

    values: np.ndarray
    measure: Measure

    def __post_init__(self) -> None:
        _check_measure(self.measure)
        values = np.array(_check_numeric(f"{self._KIND}values", self.values), dtype=float)
        if values.shape != (3,):
            raise ValueError(f"expected three {self._KIND}values, got shape {values.shape}")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, which the bound rejects
            self._totals(values, self.measure)
        object.__setattr__(self, "values", _frozen(values))

    @classmethod
    def _totals(cls, values: np.ndarray, measure: Measure) -> np.ndarray:
        """The sums of a (..., 3) stack of ``measure``'s values, guarded."""
        totals = np.add.reduce(values, axis=-1)
        bounds = _bounds((measure,), cls._NQUBITS)
        name = cls._TOTAL.format(measure.value)
        _check_totals(name, totals[None], bounds, values[None], cls._VALUE)
        return totals

    @property
    def total(self) -> float:
        return float(self.values.sum())


class CoherenceTriple(_Triple):
    """Coherence of one state in each Pauli basis, for one measure."""

    _NQUBITS, _KIND, _VALUE, _TOTAL = 1, "", "coherence value", "{} coherence triple sum"


def coherence_triple(state: BlochQubit, measure: Measure) -> CoherenceTriple:
    """Evaluate one measure at all three Pauli axes.

    The sum never exceeds ``measure.epsilon`` for a valid state, beyond the
    tolerance of ``_bounds``; a breach raises ``ConsistencyError`` since it
    can only come from a numerics bug.
    """
    _check_measure(measure)
    return CoherenceTriple(measure.evaluate(state.r, np.float64(state.norm)), measure)
