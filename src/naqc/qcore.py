"""Dense complex linear algebra and quantum primitives for up to three qubits.

All operators live in dimension 2, 4 or 8 and are plain complex numpy
arrays. ``DensityMatrix`` wraps one such array with validation (Hermitian,
unit trace, positive semidefinite); ``BlochQubit`` is the real 3-vector
parameterization of a single-qubit state. Qubit 0 is the most significant
tensor factor throughout, so a bipartite state is ordered A (x) B and a
tripartite one A (x) B (x) C.

One frozen Pauli table, ``_PAULI`` (sigma_0 = I, then x, y, z), and the
projectors ``_PROJ`` built from it feed ``pauli``, ``projector``, the
conditioning in ``naqc.steering`` and the (r, s, T) conversions in
``naqc.states``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGVAL_FLOOR",
    "BLOCH_NORM_TOL",
    "NotAStateError",
    "ConsistencyError",
    "DensityMatrix",
    "BlochQubit",
    "pauli",
    "projector",
    "partial_trace",
    "bloch_of_qubit",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10
BLOCH_NORM_TOL = 1e-9

_QUBITS_OF_DIM = {2: 1, 4: 2, 8: 3}


class NotAStateError(ValueError):
    """A matrix failed density-matrix (or Bloch-vector) validation."""


class ConsistencyError(RuntimeError):
    """An internal numerical consistency bound was breached.

    This signals a numerics bug in the library, never a physics result:
    the guarded inequalities hold for every quantum state.
    """


# The guards of the stacked computations. Each looks at every entry of its
# stack; min and max propagate NaN, so a NaN anywhere fails the guard.


def _check_nonnegative(name: str, values: np.ndarray) -> None:
    if not values.min() >= 0.0:
        raise ConsistencyError(f"negative or NaN {name} {values.min()!r}")


def _check_bound(
    name: str, values: np.ndarray, bound: float, tol: float, error=ConsistencyError
) -> None:
    if not values.max() <= bound + tol:
        raise error(f"{name} {values.max():.15g} exceeds the bound {bound:.15g}")


def _norm(r: np.ndarray) -> np.ndarray:
    """|r| of a (..., 3) stack of real vectors, shape (...). The matmul of a
    row by a column is the BLAS dot product that ``np.linalg.norm`` takes,
    so each norm matches it bit for bit."""
    return np.sqrt(np.matmul(r[..., None, :], r[..., :, None]))[..., 0, 0]


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


# sigma_0 = I, sigma_x, sigma_y, sigma_z
_PAULI = _frozen(
    np.array(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
        dtype=complex,
    )
)

# _PROJ[axis - 1, outcome] = (I + (-1)**outcome sigma_axis) / 2
_PROJ = _frozen((_PAULI[0] + np.array([1, -1])[:, None, None] * _PAULI[1:, None]) / 2)


def _check_index(name: str, value, allowed: tuple) -> None:
    """``value`` must be an int or numpy integer in ``allowed``; bool and
    floats are rejected even when they compare equal to an allowed value."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer in {allowed}, got {value!r}")
    if value not in allowed:
        raise ValueError(f"{name} {value!r} out of range, expected one of {allowed}")


def _qubit_indices(indices, nqubits: int) -> list:
    """The qubit indices as a list, each an integer in 0..nqubits - 1."""
    indices = list(indices)
    for q in indices:
        _check_index(f"qubit index for {nqubits} qubits", q, tuple(range(nqubits)))
    return indices


def _check_axis(axis: int) -> None:
    # the hot path passes exact ints, which skip the slower type tests
    if type(axis) is not int or not 1 <= axis <= 3:
        _check_index("Pauli axis", axis, (1, 2, 3))


def pauli(axis: int) -> np.ndarray:
    """Return sigma_axis for axis in {1, 2, 3} (x, y, z). Read-only array."""
    _check_axis(axis)
    return _PAULI[axis]


def projector(axis: int, outcome: int) -> np.ndarray:
    """Projector (I + (-1)**outcome sigma_axis) / 2 onto one Pauli eigenvector.

    The two outcomes of a fixed axis are orthogonal, rank one, and sum to
    the identity. Read-only array.
    """
    _check_axis(axis)
    _check_index("measurement outcome", outcome, (0, 1))
    return _PROJ[axis - 1, outcome]


def _validate(mats: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Raise ``NotAStateError`` unless every matrix of the ``(..., D, D)``
    stack is Hermitian within 1e-10, has unit trace within 1e-10 and no
    eigenvalue below -1e-10. The message gives the worst value in the stack.

    With ``weights`` in [0, 1] (shape (...)), a stack that fails the
    Hermiticity or the eigenvalue check is checked again as each matrix
    times its weight.

    Each guard is written so that NaN fails it (max and argmax pick NaN),
    and a stack that fails the Hermiticity or trace check never reaches the
    eigensolver.
    """
    defect = np.abs(mats - mats.conj().swapaxes(-1, -2))
    herm_defect = defect.max()
    if weights is not None and not herm_defect <= HERMITICITY_TOL:
        herm_defect = (defect * weights[..., None, None]).max()
    if not herm_defect <= HERMITICITY_TOL:
        raise NotAStateError(f"not Hermitian: max |M - M^dag| = {herm_defect:.3e}")
    trace = np.ravel(mats.trace(axis1=-2, axis2=-1))
    trace = trace[np.abs(trace - 1.0).argmax()]
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise NotAStateError(f"trace must be 1, got {trace:.12g}")
    eigvals = np.linalg.eigvalsh(mats)
    lowest = eigvals.min()
    if weights is not None and not lowest >= EIGVAL_FLOOR:
        lowest = (eigvals * weights[..., None]).min()
    if not lowest >= EIGVAL_FLOOR:
        raise NotAStateError(f"negative eigenvalue {lowest:.3e}")


class DensityMatrix:
    """Validated density matrix over 1, 2 or 3 qubits.

    Construction enforces Hermiticity within 1e-10, unit trace within
    1e-10, and eigenvalues no lower than -1e-10; anything else raises
    ``NotAStateError``. The wrapped array is a read-only copy, and neither
    ``matrix`` nor ``nqubits`` can be rebound, so the memo below always
    describes the state it sits on.

    A two- or three-qubit state memoizes its conditioning (the outcome
    probabilities and Bob's Bloch vectors and norms of Alice's Pauli
    measurements, inside each of Charlie's conditional AB states on three
    qubits) in a private slot the first time ``naqc.steering`` conditions
    it, so every measure and every report evaluated on the same instance
    shares one conditioning pass. The memo holds read-only arrays and
    filling it is idempotent: two threads that race to fill it compute
    identical arrays and either result may stay. Instances are therefore
    safe to share across threads.
    """

    __slots__ = ("_matrix", "_nqubits", "_branches")

    def __init__(self, matrix) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotAStateError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim not in _QUBITS_OF_DIM:
            raise NotAStateError(f"dimension must be 2, 4 or 8, got {dim}")
        _validate(mat)
        self._matrix = _frozen(mat)
        self._nqubits = _QUBITS_OF_DIM[dim]
        self._branches = None  # filled by naqc.steering on first conditioning

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def nqubits(self) -> int:
        return self._nqubits

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(nqubits={self.nqubits}, purity={self.purity():.6f})"


class _ValueEquality:
    """Exact value equality, with a hash consistent with it, for frozen
    dataclasses holding numpy arrays (the generated methods fail on arrays).

    Arrays compare with ``np.array_equal`` and hash by shape and entries, so
    0.0 and -0.0 agree; fields with ``compare=False`` take no part.
    Subclasses use ``@dataclass(frozen=True, eq=False)`` to keep these
    methods.
    """

    __slots__ = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._compared(), other._compared())
        )

    def __hash__(self) -> int:
        return hash(
            tuple(
                (a.shape, tuple(a.ravel().tolist())) if isinstance(a, np.ndarray) else a
                for a in self._compared()
            )
        )


@dataclass(frozen=True, eq=False)
class BlochQubit(_ValueEquality):
    """Single-qubit state as a Bloch vector r with |r| <= 1.

    ``norm`` is |r|, computed once at construction.
    """

    r: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
        norm = _norm(r)
        _check_bound("Bloch vector norm", norm, 1.0, BLOCH_NORM_TOL, NotAStateError)
        object.__setattr__(self, "r", _frozen(r))
        object.__setattr__(self, "norm", float(norm))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (a nonempty proper subset), which
    stay in their original order."""
    nqubits = rho.nqubits
    keep = _qubit_indices(keep if np.ndim(keep) else [keep], nqubits)
    keep = sorted(set(keep))
    if not keep or len(keep) >= nqubits:
        raise ValueError(
            f"keep must be a nonempty proper subset of 0..{nqubits - 1}, got {keep}"
        )
    arr = rho.matrix.reshape((2,) * (2 * nqubits))
    remaining = nqubits
    for q in reversed(range(nqubits)):
        if q not in keep:
            arr = np.trace(arr, axis1=q, axis2=q + remaining)
            remaining -= 1
    dim = 2 ** len(keep)
    return DensityMatrix(arr.reshape(dim, dim))


def _bloch_vector(m: np.ndarray) -> np.ndarray:
    """r_i = Tr(m sigma_i) of a (..., 2, 2) stack, read off its entries."""
    return np.stack(
        [2.0 * m[..., 0, 1].real, 2.0 * m[..., 1, 0].imag, (m[..., 0, 0] - m[..., 1, 1]).real],
        axis=-1,
    )


def bloch_of_qubit(rho: DensityMatrix) -> BlochQubit:
    """Bloch vector r_i = Tr(rho sigma_i) of a one-qubit state."""
    if rho.nqubits != 1:
        raise ValueError(f"expected a 1-qubit state, got {rho.nqubits} qubits")
    return BlochQubit(_bloch_vector(rho.matrix))
