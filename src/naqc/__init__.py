"""Steering criteria built on single-qubit coherence, for 2 and 3 qubits.

Evaluates the shift functionals obtained by aggregating the coherence of
Bob's conditional states over Alice's three Pauli measurements, the
one-/two-/three-setting criteria they generate, the complementarity
relations bounding their sums, and the tripartite variants conditioned on
a third party. See the README for the protocol and conventions.
"""

from .coherence import (
    EPSILON_L1,
    EPSILON_RELENT,
    EPSILON_SKEW,
    CoherenceTriple,
    Measure,
    binary_entropy,
    coherence_triple,
)
from .qcore import (
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    bloch_of_qubit,
    partial_trace,
    pauli,
    projector,
)
from .states import (
    TwoQubitBloch,
    bell,
    from_bloch,
    from_family,
    ghz,
    ghz_alpha,
    maximally_mixed,
    permute_qubits,
    pure_alpha,
    random_mixed,
    random_pure,
    to_bloch,
    werner,
)
from .steering import (
    ConditionalBranch,
    CriterionResult,
    ShiftValues,
    SteeringReport,
    TripartiteReport,
    conditional_states,
    shift_values,
    steering_report,
    tripartite_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlochQubit",
    "CoherenceTriple",
    "ConditionalBranch",
    "ConsistencyError",
    "CriterionResult",
    "DensityMatrix",
    "EPSILON_L1",
    "EPSILON_RELENT",
    "EPSILON_SKEW",
    "Measure",
    "NotAStateError",
    "ShiftValues",
    "SteeringReport",
    "TripartiteReport",
    "TwoQubitBloch",
    "bell",
    "binary_entropy",
    "bloch_of_qubit",
    "coherence_triple",
    "conditional_states",
    "from_bloch",
    "from_family",
    "ghz",
    "ghz_alpha",
    "maximally_mixed",
    "partial_trace",
    "pauli",
    "permute_qubits",
    "projector",
    "pure_alpha",
    "random_mixed",
    "random_pure",
    "shift_values",
    "steering_report",
    "to_bloch",
    "tripartite_report",
    "werner",
]
