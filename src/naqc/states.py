"""State constructors: named families, the Bloch form, and seeded sampling.

The two-qubit Bloch parameterization (r, s, T) expands a state as

    rho = (1/4) (I(x)I + r.sigma(x)I + I(x)s.sigma + sum_ij T_ij sigma_i(x)sigma_j)

with |r| <= 1, |s| <= 1 and |T_ij| <= 1. Those box constraints are
necessary but not sufficient, so ``from_bloch`` still runs the positivity
check. Random generation is deterministic per 64-bit seed; each call owns
a private generator, so there is no global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    BLOCH_NORM_TOL,
    DensityMatrix,
    NotAStateError,
    kron,
    pauli,
)

__all__ = [
    "TwoQubitBloch",
    "from_bloch",
    "to_bloch",
    "pure_alpha",
    "ghz_alpha",
    "bell",
    "ghz",
    "werner",
    "maximally_mixed",
    "random_pure",
    "random_mixed",
    "random_bloch_qubit_vector",
    "permute_qubits",
    "from_family",
    "FAMILY_NAMES",
]


@dataclass(frozen=True)
class TwoQubitBloch:
    """(r, s, T): local Bloch vectors of A and B plus the correlation matrix."""

    r: np.ndarray
    s: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        s = np.array(self.s, dtype=float)
        T = np.array(self.T, dtype=float)
        if r.shape != (3,) or s.shape != (3,) or T.shape != (3, 3):
            raise ValueError("expected r, s of shape (3,) and T of shape (3, 3)")
        if not np.linalg.norm(r) <= 1.0 + BLOCH_NORM_TOL:
            raise NotAStateError(f"|r| = {np.linalg.norm(r):.12g} exceeds 1")
        if not np.linalg.norm(s) <= 1.0 + BLOCH_NORM_TOL:
            raise NotAStateError(f"|s| = {np.linalg.norm(s):.12g} exceeds 1")
        if not float(np.max(np.abs(T))) <= 1.0 + BLOCH_NORM_TOL:
            raise NotAStateError("correlation matrix entries must lie in [-1, 1]")
        for name, arr in (("r", r), ("s", s), ("T", T)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def from_bloch(params: TwoQubitBloch) -> DensityMatrix:
    """Reconstruct the two-qubit state from its (r, s, T) parameterization.

    Raises ``NotAStateError`` when the reconstruction is not positive
    semidefinite: the box constraints alone do not guarantee a state.
    """
    eye = np.eye(2, dtype=complex)
    mat = kron(eye, eye).astype(complex)
    for i in (1, 2, 3):
        mat += params.r[i - 1] * kron(pauli(i), eye)
        mat += params.s[i - 1] * kron(eye, pauli(i))
        for j in (1, 2, 3):
            mat += params.T[i - 1, j - 1] * kron(pauli(i), pauli(j))
    return DensityMatrix(mat / 4.0)


def to_bloch(rho: DensityMatrix) -> TwoQubitBloch:
    """Extract (r, s, T) from a two-qubit state by Pauli traces."""
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    eye = np.eye(2, dtype=complex)
    m = rho.matrix
    r = np.array([np.real(np.trace(m @ kron(pauli(i), eye))) for i in (1, 2, 3)])
    s = np.array([np.real(np.trace(m @ kron(eye, pauli(j)))) for j in (1, 2, 3)])
    T = np.array(
        [
            [np.real(np.trace(m @ kron(pauli(i), pauli(j)))) for j in (1, 2, 3)]
            for i in (1, 2, 3)
        ]
    )
    return TwoQubitBloch(r, s, T)


def _projector_of(vec: np.ndarray) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    return DensityMatrix(np.outer(vec, vec.conj()))


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def pure_alpha(alpha: float) -> DensityMatrix:
    """Projector onto sqrt(alpha)|00> + sqrt(1 - alpha)|11>."""
    alpha = _check_unit_interval("alpha", alpha)
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.sqrt(alpha)
    vec[3] = np.sqrt(1.0 - alpha)
    return _projector_of(vec)


def ghz_alpha(alpha: float) -> DensityMatrix:
    """Projector onto alpha|000> + sqrt(1 - alpha**2)|111>.

    Note the amplitude convention: the parameter is the amplitude itself,
    not its square as in ``pure_alpha``.
    """
    alpha = _check_unit_interval("alpha", alpha)
    vec = np.zeros(8, dtype=complex)
    vec[0] = alpha
    vec[7] = np.sqrt(1.0 - alpha ** 2)
    return _projector_of(vec)


def bell() -> DensityMatrix:
    """The Bell state (|00> + |11>)/sqrt(2)."""
    return pure_alpha(0.5)


def ghz() -> DensityMatrix:
    """The symmetric GHZ state (|000> + |111>)/sqrt(2)."""
    return ghz_alpha(1.0 / np.sqrt(2.0))


def werner(p: float) -> DensityMatrix:
    """Bell state mixed with white noise: p |bell><bell| + (1-p) I/4."""
    p = _check_unit_interval("p", p)
    return DensityMatrix(p * bell().matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0)


def maximally_mixed(nqubits: int) -> DensityMatrix:
    """I / 2**n on the requested number of qubits."""
    if nqubits not in (1, 2, 3):
        raise ValueError(f"nqubits must be 1, 2 or 3, got {nqubits!r}")
    dim = 2 ** nqubits
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def random_pure(nqubits: int, seed) -> DensityMatrix:
    """Haar-random pure state on 1, 2 or 3 qubits.

    A complex standard-normal vector is normalized and projected, which is
    Haar-distributed. Bitwise reproducible for a fixed seed.
    """
    if nqubits not in (1, 2, 3):
        raise ValueError(f"nqubits must be 1, 2 or 3, got {nqubits!r}")
    rng = np.random.default_rng(seed)
    dim = 2 ** nqubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return _projector_of(vec)


def random_mixed(nqubits: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank.

    Draws G of shape (2**n, rank) with complex normal entries and returns
    G G^dag / Tr(G G^dag). Rank 1 reproduces a Haar pure state; full rank
    gives the Hilbert-Schmidt measure. Bitwise reproducible per seed.
    """
    if nqubits not in (1, 2, 3):
        raise ValueError(f"nqubits must be 1, 2 or 3, got {nqubits!r}")
    dim = 2 ** nqubits
    if not 1 <= int(rank) <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank!r}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, int(rank))) + 1j * rng.normal(size=(dim, int(rank)))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_bloch_qubit_vector(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Bloch vector drawn uniformly from the ball (or the sphere if pure)."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    if pure:
        return direction
    return direction * rng.uniform() ** (1.0 / 3.0)


def permute_qubits(rho: DensityMatrix, perm) -> DensityMatrix:
    """Relabel tensor factors: result factor k is input factor perm[k].

    Transpositions are involutive and the spectrum is preserved.
    """
    perm = [int(p) for p in perm]
    n = rho.nqubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    axes = perm + [p + n for p in perm]
    arr = rho.matrix.reshape((2,) * (2 * n)).transpose(axes)
    return DensityMatrix(arr.reshape(2 ** n, 2 ** n))


FAMILY_NAMES = ("pure_alpha", "ghz_alpha", "werner", "bell", "general_bloch")


def from_family(family: str, params: dict) -> DensityMatrix:
    """Build a named family member from its parameter mapping.

    Families: ``pure_alpha`` (alpha), ``ghz_alpha`` (alpha), ``werner`` (p),
    ``bell`` (no parameters), ``general_bloch`` (r, s, T).
    """
    params = dict(params or {})

    def take(key: str):
        try:
            return params.pop(key)
        except KeyError:
            raise ValueError(f"family {family!r} requires parameter {key!r}") from None

    if family == "pure_alpha":
        rho = pure_alpha(take("alpha"))
    elif family == "ghz_alpha":
        rho = ghz_alpha(take("alpha"))
    elif family == "werner":
        rho = werner(take("p"))
    elif family == "bell":
        rho = bell()
    elif family == "general_bloch":
        rho = from_bloch(TwoQubitBloch(take("r"), take("s"), take("T")))
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    if params:
        raise ValueError(f"unexpected parameters for {family!r}: {sorted(params)}")
    return rho
