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
# stack; min and max propagate NaN, so a NaN anywhere fails the guard. They
# and the stacked path's other reductions call the ufuncs' ``reduce``, as
# ``ndarray.min`` and ``max`` do through a Python wrapper, with their bits.


def _check_nonnegative(name: str, values: np.ndarray) -> None:
    if not (lowest := np.minimum.reduce(values, axis=None)) >= 0.0:
        raise ConsistencyError(f"negative or NaN {name} {lowest!r}")


def _check_bound(
    name: str, values: np.ndarray, bound: float, tol: float, error=ConsistencyError
) -> None:
    if not (largest := np.maximum.reduce(values, axis=None)) <= bound + tol:
        raise error(f"{name} {largest:.15g} exceeds the bound {bound:.15g}")


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
_FLOOR_SHIFT = _frozen(-EIGVAL_FLOOR * np.eye(8))  # [:D, :D] shifts D x D states by the floor


def _check_index(name: str, value, allowed: tuple) -> None:
    """``value`` must be an int or numpy integer in ``allowed``; bool and
    floats are rejected even when they compare equal to an allowed value."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer in {allowed}, got {value!r}")
    if value not in allowed:
        raise ValueError(f"{name} {value!r} out of range, expected one of {allowed}")


def _check_unit_interval(name: str, value: float) -> float:
    """``value`` as a float, if it is an int, a float or a numpy integer or
    floating scalar in [0, 1]; bools, strings and arrays are not numbers."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def _check_numeric(name: str, value, kinds: str = "iuf", error: type = ValueError) -> np.ndarray:
    """``value`` as an array, if numpy reads it as integers or floats, or
    as one of the dtype ``kinds`` ("iufc" lets complex numbers in too);
    bools, strings, bytes and objects raise ``error``. Numpy turns a list
    that mixes bools with numbers into numbers, so such a list is not
    caught here; the CLI's ``_check_numbers`` walks documents entry by
    entry."""
    arr = np.asarray(value)
    if arr.dtype.kind not in kinds:
        raise error(f"{name} must hold numbers, got dtype {arr.dtype}")
    return arr


def _qubit_indices(indices, nqubits: int) -> list:
    """The qubit indices as a list, each an integer in 0..nqubits - 1."""
    indices = list(indices)
    for q in indices:
        _check_index(f"qubit index for {nqubits} qubits", q, tuple(range(nqubits)))
    return indices


def pauli(axis: int) -> np.ndarray:
    """Return sigma_axis for axis in {1, 2, 3} (x, y, z). Read-only array."""
    _check_index("Pauli axis", axis, (1, 2, 3))
    return _PAULI[axis]


def projector(axis: int, outcome: int) -> np.ndarray:
    """Projector (I + (-1)**outcome sigma_axis) / 2 onto one Pauli eigenvector.

    The two outcomes of a fixed axis are orthogonal, rank one, and sum to
    the identity. Read-only array.
    """
    _check_index("Pauli axis", axis, (1, 2, 3))
    _check_index("measurement outcome", outcome, (0, 1))
    return _PROJ[axis - 1, outcome]


def _validate(mats: np.ndarray) -> None:
    """Raise ``NotAStateError`` unless every matrix of the ``(..., D, D)``
    stack is Hermitian within 1e-10, has unit trace within 1e-10, no
    eigenvalue below -1e-10 and no entry of modulus above 1 + 9e-10, the
    most a state can hold. The message gives the worst value in the stack.

    States are validated once, where they enter (``DensityMatrix`` and
    ``naqc.cli._samples``); ``naqc.steering._condition`` guards what the
    core derives from them.

    The entry bound is read before any arithmetic. A stack above it, inf
    included, is not a state: the checks of ``_check_state`` run on it
    without overflow warnings and name its fault if they see one, and the
    bound fails it if they do not. NaN fails the Hermiticity check, so
    neither NaN nor inf reaches LAPACK.
    """
    # The bound: LAPACK reads the lower triangle H of a D x D matrix, D <= 8,
    # and H - EIGVAL_FLOOR I is PSD, so |H_ij| <= (H_ii + H_jj) / 2 -
    # EIGVAL_FLOOR < 1 off the diagonal and H_ii <= Re Tr - (D - 1) *
    # EIGVAL_FLOOR on it, D - 1 <= 7; Re Tr <= 1 + TRACE_TOL, and the upper
    # triangle and the imaginary parts of the diagonal lie within
    # HERMITICITY_TOL of H. OpenBLAS's Cholesky turns the complex dot of
    # entries of about 1.3e154 or more into NaN and raises nothing; the bound
    # rejects what it lets through.
    largest = np.maximum.reduce(np.abs(mats), axis=None)
    if largest > 1.0 + TRACE_TOL - 7 * EIGVAL_FLOOR + HERMITICITY_TOL:
        with np.errstate(over="ignore", invalid="ignore"):
            _check_state(mats)
        raise NotAStateError(f"entry modulus {largest:.3e} exceeds what a state can hold")
    _check_state(mats)


def _check_state(mats: np.ndarray) -> None:
    """The Hermiticity and trace checks, then a Cholesky of ``mats + 1e-10
    I``, which certifies every eigenvalue >= -1e-10 (up to about 1e-16);
    only a stack it fails goes to the eigensolver, which accepts -1e-10 and
    names the lowest value."""
    herm_defect = np.maximum.reduce(np.abs(mats - mats.conj().swapaxes(-1, -2)), axis=None)
    if not herm_defect <= HERMITICITY_TOL:
        raise NotAStateError(f"not Hermitian: max |M - M^dag| = {herm_defect:.3e}")
    trace = mats.trace(axis1=-2, axis2=-1).ravel()
    trace = trace[np.abs(trace - 1.0).argmax()]
    if not abs(trace - 1.0) <= TRACE_TOL:
        # finite entries can overflow the diagonal's sum to inf - inf; an
        # eighth of each, D <= 8 of them, cannot, and adds to an eighth of it
        traces = (mats / 8).trace(axis1=-2, axis2=-1).ravel() * 8
        raise NotAStateError(f"trace must be 1, got {traces[np.abs(traces - 1.0).argmax()]:.12g}")
    try:
        np.linalg.cholesky(mats + _FLOOR_SHIFT[: mats.shape[-1], : mats.shape[-1]])
    except np.linalg.LinAlgError:
        lowest = np.minimum.reduce(np.linalg.eigvalsh(mats), axis=None)
        if not lowest >= EIGVAL_FLOOR:
            raise NotAStateError(f"negative eigenvalue {lowest:.3e}") from None


class DensityMatrix:
    """Validated density matrix over 1, 2 or 3 qubits.

    Construction enforces Hermiticity and unit trace within 1e-10,
    eigenvalues no lower than -1e-10 (a Cholesky certificate, with an
    eigensolver fallback) and entries of modulus at most 1 + 9e-10;
    anything else raises ``NotAStateError``, with no warning before it. Nothing
    derived from the state is validated again; ``naqc.steering._condition``
    guards its branches. The wrapped array is a read-only copy, and neither
    ``matrix`` nor ``nqubits`` can be rebound, so the memo below always
    describes the state it sits on.

    The first report of a two- or three-qubit state conditions it once and
    scores every measure in one pass; a private slot memoizes the result,
    one read-only (3, 3) array of the criteria parts (the shifts on two
    qubits, (t1, t2, t3) on three), a row per measure. Every later report
    and ``shift_values`` call reads its row. Filling the memo is
    idempotent: two threads that race to fill it compute identical arrays
    and either may stay. Instances are therefore safe to share across
    threads.
    """

    __slots__ = ("_matrix", "_nqubits", "_parts")

    def __init__(self, matrix) -> None:
        mat = np.array(_check_numeric("density matrix", matrix, "iufc", NotAStateError), complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotAStateError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim not in _QUBITS_OF_DIM:
            raise NotAStateError(f"dimension must be 2, 4 or 8, got {dim}")
        _validate(mat)
        self._matrix = _frozen(mat)
        self._nqubits = _QUBITS_OF_DIM[dim]
        self._parts = None  # filled by naqc.steering on the first report

    @classmethod
    def _derived(cls, mat: np.ndarray) -> DensityMatrix:
        """The state of ``mat``, which is derived from a validated state
        (``partial_trace``, ``permute_qubits``); it is frozen, not
        validated again."""
        rho = object.__new__(cls)
        rho._matrix = _frozen(mat)
        rho._nqubits = _QUBITS_OF_DIM[mat.shape[0]]
        rho._parts = None
        return rho

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
        r = np.array(_check_numeric("Bloch vector", self.r), dtype=float)
        if r.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which the bound rejects
            norm = _norm(r)
        _check_bound("Bloch vector norm", norm, 1.0, BLOCH_NORM_TOL, NotAStateError)
        object.__setattr__(self, "r", _frozen(r))
        object.__setattr__(self, "norm", float(norm))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubits (a nonempty proper subset), which
    stay in their original order.

    The reduced state is not validated again. Each of its eigenvalues is a
    sum of 2**k diagonal entries of ``rho`` in a product basis, k the
    number of qubits traced out, so its floor is 2**k times ``rho``'s:
    down to 2**k * -1e-10."""
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
    return DensityMatrix._derived(arr.reshape(dim, dim))


def _bloch_vector(m: np.ndarray) -> np.ndarray:
    """r_i = Tr(m sigma_i) of a (..., 2, 2) stack, read off its entries."""
    r = np.empty(m.shape[:-2] + (3,))
    np.multiply(2.0, m[..., 0, 1].real, out=r[..., 0])
    np.multiply(2.0, m[..., 1, 0].imag, out=r[..., 1])
    np.subtract(m[..., 0, 0].real, m[..., 1, 1].real, out=r[..., 2])
    return r


def bloch_of_qubit(rho: DensityMatrix) -> BlochQubit:
    """Bloch vector r_i = Tr(rho sigma_i) of a one-qubit state."""
    if rho.nqubits != 1:
        raise ValueError(f"expected a 1-qubit state, got {rho.nqubits} qubits")
    return BlochQubit(_bloch_vector(rho.matrix))
