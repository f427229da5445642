"""Density-matrix oracles shared by the tests.

Brute-force linear algebra the library itself does not need: a sorted
Hermitian eigendecomposition, the PSD square root of a state, the density
matrix of a Bloch vector, a partial trace of raw arrays, the (r, s, T) form
by traces against Kronecker products of Pauli matrices, and the l1 shift
functionals and tripartite criteria computed from projectors and partial
traces. The tests use them to check the closed forms of ``naqc`` against
direct matrix computations. ``sampled_matrix`` is the seeded sampler
written draw by draw, the bit-exact reference for the stacked one,
``reference_scores`` the shifts and tripartite criteria with every add
written out, the bit-exact reference for the stacked scoring, and ``bits``
the view that compares arrays bit for bit. ``diagonal_state`` and
``counted_eigvalsh`` probe the two paths of the positivity check.
``seeded_sample`` and ``seeded_states`` are the two seeded rules by which
the tests draw their random states.
"""

import math

import numpy as np

from naqc.qcore import (
    EIGVAL_FLOOR,
    HERMITICITY_TOL,
    BlochQubit,
    DensityMatrix,
    NotAStateError,
)
from naqc.states import random_mixed, random_pure


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


def sampled_matrix(nqubits: int, seed, rank: int | None = None) -> np.ndarray:
    """One seeded random state, drawn and finished on its own: a Haar-random
    pure state (``rank`` None) normalized by ``np.linalg.norm`` and projected
    by ``np.outer``, or the Ginibre state G G^dag / Tr(G G^dag) of that rank."""
    rng = np.random.default_rng(seed)
    dim = 2 ** nqubits
    if rank is None:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def seeded_sample(nqubits: int, seed: int, index: int) -> DensityMatrix:
    """Sample ``index`` of ``seed`` by search's rule, drawn on its own by
    ``sampled_matrix``: from ``SeedSequence([seed, index])``, Haar-pure at
    even ``index`` and full-rank Ginibre at odd ``index``."""
    ss = np.random.SeedSequence([seed, index])
    return DensityMatrix(sampled_matrix(nqubits, ss, None if index % 2 == 0 else 2**nqubits))


def seeded_states(nqubits: int, seed: int, count: int) -> list:
    """Haar-pure states alternating with Ginibre states of every rank, state
    ``index`` drawn from ``SeedSequence([seed, nqubits, index])``."""
    states = []
    for index in range(count):
        ss = np.random.SeedSequence([seed, nqubits, index])
        if index % 2 == 0:
            states.append(random_pure(nqubits, ss))
        else:
            states.append(random_mixed(nqubits, 1 + (index // 2) % 2**nqubits, ss))
    return states


def diagonal_state(dim: int, lowest: float) -> np.ndarray:
    """diag(1 - lowest, 0, ..., 0, lowest): Hermitian, unit trace, and its
    lowest eigenvalue is ``lowest`` exactly."""
    return np.diag([1.0 - lowest] + [0.0] * (dim - 2) + [lowest]).astype(complex)


def counted_eigvalsh(monkeypatch) -> list:
    """Count the calls of ``np.linalg.eigvalsh``: the returned list gains the
    shape of each stack it is called on."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        calls.append(np.shape(mats))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def bits(mats: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array: equal bits, equal
    words (0.0 and -0.0 differ, and so do two NaNs of different payload)."""
    return np.ascontiguousarray(mats).view(np.uint64)


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


def qubit_of_bloch(state: BlochQubit) -> DensityMatrix:
    """Density matrix (I + r . sigma) / 2 of a Bloch vector."""
    rx, ry, rz = state.r
    mat = np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
    ) / 2.0
    return DensityMatrix(mat)


def partial_trace_matrix(mat: np.ndarray, nqubits: int, keep) -> np.ndarray:
    """Partial trace of a raw (not necessarily normalized) 2**n square array.

    ``keep`` lists the qubit indices to retain; they stay in their original
    order. This is the raw-array routine ``naqc.qcore.partial_trace`` was
    built on, kept for the dense matrix-product conditioning path.
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


EYE2 = np.eye(2, dtype=complex)
SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron_to_bloch(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, s, T) of a two-qubit matrix as np.real(np.trace(rho @ op)) for
    each Kronecker product op of Pauli matrices and the identity."""
    def coefficient(op):
        return np.real(np.trace(rho @ op))

    r = np.array([coefficient(np.kron(sx, EYE2)) for sx in SIGMAS])
    s = np.array([coefficient(np.kron(EYE2, sx)) for sx in SIGMAS])
    T = np.array([[coefficient(np.kron(si, sj)) for sj in SIGMAS] for si in SIGMAS])
    return r, s, T


def kron_from_bloch(r, s, T) -> np.ndarray:
    """(1/4) (I(x)I + sum_i r_i sigma_i(x)I + s_i I(x)sigma_i + sum_j T_ij
    sigma_i(x)sigma_j), accumulated term by term in that order."""
    mat = np.kron(EYE2, EYE2)
    for i, si in enumerate(SIGMAS):
        mat += r[i] * np.kron(si, EYE2)
        mat += s[i] * np.kron(EYE2, si)
        for j, sj in enumerate(SIGMAS):
            mat += T[i, j] * np.kron(si, sj)
    return mat / 4.0


# The conditioning oracles below build the Pauli eigenbases, the projectors
# and the partial traces with numpy alone, so they share no code with
# naqc.steering or naqc.qcore. They take and return plain arrays.
PAULI_EIGENBASES = {
    1: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    2: np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    3: np.eye(2, dtype=complex),
}


def oracle_branches(rho: np.ndarray, last: bool):
    """(axis, probability, normalized rest) for a Pauli measurement on the
    last qubit (``last``) or the first qubit of ``rho``; outcomes of
    probability at most 1e-12 are left out."""
    rest = rho.shape[0] // 2
    for axis, basis in PAULI_EIGENBASES.items():
        for vec in basis.T:
            proj = np.outer(vec, vec.conj())
            if last:
                op = np.kron(np.eye(rest), proj)
                sub = (op @ rho @ op).reshape(rest, 2, rest, 2)
                reduced = sub.trace(axis1=1, axis2=3)
            else:
                op = np.kron(proj, np.eye(rest))
                sub = (op @ rho @ op).reshape(2, rest, 2, rest)
                reduced = sub.trace(axis1=0, axis2=2)
            prob = float(np.trace(reduced).real)
            if prob > 1e-12:
                yield axis, prob, reduced / prob


def oracle_l1(qubit: np.ndarray, axis: int) -> float:
    basis = PAULI_EIGENBASES[axis]
    return 2 * abs((basis.conj().T @ qubit @ basis)[0, 1])


def oracle_shifts(rho: np.ndarray) -> list[float]:
    """l1 shift functionals s_j of a two-qubit state: sums over Alice's axes
    i of p(i) * l1(Bob's conditional state, axis ((i - 1 + j) mod 3) + 1)."""
    s = [0.0, 0.0, 0.0]
    for i, p_a, bob in oracle_branches(rho, last=False):
        for j in range(3):
            s[j] += p_a * oracle_l1(bob, (i - 1 + j) % 3 + 1)
    return s


def oracle_t1_t2(rho: np.ndarray) -> tuple[float, float]:
    """Sums over Charlie's axes c of p(c) * s_j(conditional AB state): t1
    over the matched shift j = c mod 3, t2 over the two others."""
    t1 = t2 = 0.0
    for c, p_c, ab in oracle_branches(rho, last=True):
        s = oracle_shifts(ab)
        t1 += p_c * s[c % 3]
        t2 += p_c * (sum(s) - s[c % 3])
    return t1, t2


# The scoring references below write out every add of the stacked scoring
# in ``naqc.steering`` in its order, one by one, so ``_shifts`` and
# ``_tripartite`` must match them word for word.


def outcome_sum(w: np.ndarray) -> np.ndarray:
    """The six outcome terms ``w[..., k, :]`` added one by one in the order of k."""
    total = w[..., 0, :] + w[..., 1, :]
    for k in range(2, 6):
        total += w[..., k, :]
    return total


def shift_total(s: np.ndarray) -> np.ndarray:
    """(s_0 + s_1) + s_2 of a (..., 3) stack of shifts."""
    return (s[..., 0] + s[..., 1]) + s[..., 2]


def reference_scores(cond, measures: tuple) -> tuple:
    """The shifts, their totals and, for three-qubit states, (t1, t2, t3) of
    a conditioning, each with a leading axis over the tuple ``measures``.

    The term of s_j from Alice's outcome k = 2 (axis - 1) + outcome is
    p * C at Bob's 0-based axis (k // 2 + j) mod 3; t1 weighs the shift
    (c + 1) mod 3 matched to Charlie's 0-based axis c by his probability,
    t2 the total less it, and t3 = t1 + t2.
    """
    c = np.stack([m.evaluate(cond.bloch, cond.norm) for m in measures])
    w = (cond.prob[..., None] * c).reshape(c.shape[:-3] + (6, 3))
    terms = [[w[..., k, (k // 2 + j) % 3] for j in range(3)] for k in range(6)]
    s = outcome_sum(np.moveaxis(np.array(terms), (0, 1), (-2, -1)))
    total = shift_total(s)
    if cond.charlie is None:
        return s, total, None
    matched = np.stack([s[..., a, :, (a + 1) % 3] for a in range(3)], axis=-2)
    w = cond.charlie[..., None] * np.stack([matched, total - matched], axis=-1)
    t = outcome_sum(w.reshape(w.shape[:-3] + (6, 2)))
    return s, total, np.concatenate([t, (t[..., 0] + t[..., 1])[..., None]], axis=-1)
