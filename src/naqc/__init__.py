"""Steering criteria built on single-qubit coherence, for 2 and 3 qubits.

Evaluates the shift functionals obtained by aggregating the coherence of
Bob's conditional states over Alice's three Pauli measurements, the
one-/two-/three-setting criteria they generate, the complementarity
relations bounding their sums, and the tripartite variants conditioned on
a third party. See the README for the protocol and conventions.

Every public name of a module, its ``__all__``, is also a name of the
package.
"""

from . import coherence, qcore, states, steering
from .coherence import *
from .qcore import *
from .states import *
from .steering import *

__version__ = "0.1.0"

__all__ = ["__version__", *coherence.__all__, *qcore.__all__, *states.__all__, *steering.__all__]
