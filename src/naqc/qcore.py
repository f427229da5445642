"""Dense complex linear algebra and quantum primitives for up to three qubits.

All operators live in dimension 2, 4 or 8 and are plain complex numpy
arrays. ``DensityMatrix`` wraps one such array with validation (Hermitian,
unit trace, positive semidefinite); ``BlochQubit`` is the real 3-vector
parameterization of a single-qubit state. Qubit 0 is the most significant
tensor factor throughout, so a bipartite state is ordered A (x) B and a
tripartite one A (x) B (x) C.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "kron",
    "partial_trace",
    "partial_trace_matrix",
    "eig_hermitian",
    "sqrt_psd",
    "bloch_of_qubit",
    "qubit_of_bloch",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-10
BLOCH_NORM_TOL = 1e-9

_MAX_DIM = 8
_QUBITS_OF_DIM = {2: 1, 4: 2, 8: 3}


class NotAStateError(ValueError):
    """A matrix failed density-matrix (or Bloch-vector) validation."""


class ConsistencyError(RuntimeError):
    """An internal numerical consistency bound was breached.

    This signals a numerics bug in the library, never a physics result:
    the guarded inequalities hold for every quantum state.
    """


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


_SIGMA = tuple(
    _frozen(np.array(m, dtype=complex))
    for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
)

_PROJ = {
    (axis, a): _frozen((np.eye(2, dtype=complex) + (-1) ** a * _SIGMA[axis - 1]) / 2)
    for axis in (1, 2, 3)
    for a in (0, 1)
}


def _check_axis(axis: int) -> None:
    if axis not in (1, 2, 3):
        raise ValueError(f"Pauli axis must be 1, 2 or 3, got {axis!r}")


def _check_outcome(outcome: int) -> None:
    if outcome not in (0, 1):
        raise ValueError(f"measurement outcome must be 0 or 1, got {outcome!r}")


def pauli(axis: int) -> np.ndarray:
    """Return sigma_axis for axis in {1, 2, 3} (x, y, z). Read-only array."""
    _check_axis(axis)
    return _SIGMA[axis - 1]


def projector(axis: int, outcome: int) -> np.ndarray:
    """Projector (I + (-1)**outcome sigma_axis) / 2 onto one Pauli eigenvector.

    The two outcomes of a fixed axis are orthogonal, rank one, and sum to
    the identity. Read-only array.
    """
    _check_axis(axis)
    _check_outcome(outcome)
    return _PROJ[(axis, outcome)]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, restricted to results of dimension at most 8."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if dim > _MAX_DIM:
        raise ValueError(f"kron result dimension {dim} exceeds {_MAX_DIM}")
    return np.kron(a, b)


def partial_trace_matrix(mat: np.ndarray, nqubits: int, keep) -> np.ndarray:
    """Partial trace of a raw (not necessarily normalized) 2**n square array.

    ``keep`` lists the qubit indices to retain; they stay in their original
    order. Used internally on projected, unnormalized operators.
    """
    keep = sorted(set(int(q) for q in np.atleast_1d(keep)))
    if any(q < 0 or q >= nqubits for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {nqubits} qubits")
    traced = [q for q in range(nqubits) if q not in keep]
    arr = np.asarray(mat, dtype=complex).reshape((2,) * (2 * nqubits))
    remaining = nqubits
    for q in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 2 ** len(keep)
    return arr.reshape(dim, dim)


class DensityMatrix:
    """Validated density matrix over 1, 2 or 3 qubits.

    Construction enforces Hermiticity within 1e-10, unit trace within
    1e-10, and eigenvalues no lower than -1e-10; anything else raises
    ``NotAStateError``. The wrapped array is a read-only copy, so instances
    are immutable and safe to share across threads.
    """

    __slots__ = ("matrix", "nqubits")

    def __init__(self, matrix) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotAStateError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim not in _QUBITS_OF_DIM:
            raise NotAStateError(f"dimension must be 2, 4 or 8, got {dim}")
        # every guard is written so that NaN fails it
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_defect <= HERMITICITY_TOL:
            raise NotAStateError(f"not Hermitian: max |M - M^dag| = {herm_defect:.3e}")
        trace = complex(mat.trace())
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise NotAStateError(f"trace must be 1, got {trace:.12g}")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if not lowest >= EIGVAL_FLOOR:
            raise NotAStateError(f"negative eigenvalue {lowest:.3e}")
        self.matrix = _frozen(mat)
        self.nqubits = _QUBITS_OF_DIM[dim]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(nqubits={self.nqubits}, purity={self.purity():.6f})"


@dataclass(frozen=True)
class BlochQubit:
    """Single-qubit state as a Bloch vector r with |r| <= 1."""

    r: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
        norm = float(np.linalg.norm(r))
        if not norm <= 1.0 + BLOCH_NORM_TOL:
            raise NotAStateError(f"Bloch vector norm {norm:.12g} exceeds 1")
        object.__setattr__(self, "r", _frozen(r))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.r))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (a nonempty proper subset)."""
    keep = sorted(set(int(q) for q in np.atleast_1d(keep)))
    if not keep or len(keep) >= rho.nqubits:
        raise ValueError(
            f"keep must be a nonempty proper subset of 0..{rho.nqubits - 1}, got {keep}"
        )
    return DensityMatrix(partial_trace_matrix(rho.matrix, rho.nqubits, keep))


def eig_hermitian(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns.

    The input must be Hermitian within 1e-10; the decomposition satisfies
    V diag(w) V^dag = M to the same accuracy.
    """
    mat = np.asarray(mat, dtype=complex)
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")
    w, v = np.linalg.eigh(mat)
    return w[::-1].copy(), v[:, ::-1].copy()


def sqrt_psd(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root of a density matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the root; anything
    more negative raises ``NotAStateError``.
    """
    w, v = eig_hermitian(rho.matrix)
    if float(w[-1]) < EIGVAL_FLOOR:
        raise NotAStateError(f"negative eigenvalue {float(w[-1]):.3e}")
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root) @ v.conj().T


def _bloch_vector(m: np.ndarray) -> np.ndarray:
    """r_i = Tr(m sigma_i) of a 2x2 array, read off its entries."""
    return np.array([2.0 * m[0, 1].real, 2.0 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real])


def bloch_of_qubit(rho: DensityMatrix) -> BlochQubit:
    """Bloch vector r_i = Tr(rho sigma_i) of a one-qubit state."""
    if rho.nqubits != 1:
        raise ValueError(f"expected a 1-qubit state, got {rho.nqubits} qubits")
    return BlochQubit(_bloch_vector(rho.matrix))


def qubit_of_bloch(state: BlochQubit) -> DensityMatrix:
    """Density matrix (I + r . sigma) / 2 of a Bloch vector."""
    rx, ry, rz = state.r
    mat = np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
    ) / 2.0
    return DensityMatrix(mat)
