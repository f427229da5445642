"""Density-matrix oracles shared by the tests.

Brute-force linear algebra the library itself does not need: a sorted
Hermitian eigendecomposition, the PSD square root of a state, the density
matrix of a Bloch vector, a partial trace of raw arrays and the (r, s, T)
form by traces against Kronecker products of Pauli matrices. The tests use
them to check the closed forms of ``naqc`` against direct matrix
computations. ``oracle_branches``, ``oracle_shifts`` and ``oracle_t1_t2``
are the exact reference for the conditioning and every criterion: a float
state read exactly, conditioned in integers and evaluated at 60 digits, to
which ``accuracy_bound`` holds the float path, per measure.
``sampled_matrix`` is the seeded sampler written draw by draw, the
bit-exact reference for the stacked one, and ``bits`` the view that
compares arrays bit for bit. ``diagonal_state`` and ``counted_eigvalsh``
probe the two paths of the positivity check. ``seeded_sample`` and
``seeded_states`` are the two seeded rules by which the tests draw their
random states.
"""

import math
from typing import NamedTuple

import mpmath
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
    built on.
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


# The exact reference below reads a float matrix's entries as the integers
# they are over a common power of two, conditions with the integer entries of
# 2 P = I +- sigma, and divides only at the end, at 60 digits with mpmath. It
# shares no code with naqc.steering or naqc.coherence and keeps their
# conventions: a branch below 1e-12 is dropped, h2 is 0 outside (0, 1),
# relent is clamped at 0, and skew reads 0 below a norm of 1e-12.
EXACT = mpmath.MPContext()
EXACT.dps = 60

# 2 P[b', b] of outcome k = 2 (axis - 1) + outcome at [k, b, b'], in integer parts
_TWICE_P = (EYE2 + np.array([1, -1])[:, None, None] * np.array(SIGMAS)[:, None]).reshape(6, 2, 2)
_TWICE_P_RE, _TWICE_P_IM = (p.swapaxes(1, 2).astype(int) for p in (_TWICE_P.real, _TWICE_P.imag))


class ExactMatrix(NamedTuple):
    """The array (re + 1j im) / scale, with integer entries and scale."""

    re: np.ndarray
    im: np.ndarray
    scale: int


def exact_matrix(array) -> ExactMatrix:
    """A float array as it is, or an ``ExactMatrix`` unchanged."""
    if isinstance(array, ExactMatrix):
        return array
    parts = np.asarray(array, dtype=complex)
    ratios = [float(v).as_integer_ratio() for v in np.stack([parts.real, parts.imag]).ravel()]
    scale = max(d for _, d in ratios)
    ints = np.array([n * (scale // d) for n, d in ratios], dtype=object).reshape((2,) + parts.shape)
    return ExactMatrix(ints[0], ints[1], scale)


def oracle_branches(rho, last: bool):
    """(axis, probability, rest) of each outcome of a Pauli measurement on
    the last qubit (``last``) or the first of ``rho``, floats or exact: Tr[P
    rho] at 60 digits and Tr_1[P rho] / Tr[P rho] exactly, scaled by its
    trace. Outcomes of probability below 1e-12 are left out."""
    mat = exact_matrix(rho)
    half = mat.re.shape[0] // 2
    shape, order = ((half, 2) * 2, (1, 3, 0, 2)) if last else ((2, half) * 2, (0, 2, 1, 3))

    def dot(c, z):  # sum over b, b' of c[k, b, b'] z[(b, x), (b', y)], b the measured qubit's
        return np.tensordot(c, z.reshape(shape).transpose(order), axes=([1, 2], [0, 1]))

    re = dot(_TWICE_P_RE, mat.re) - dot(_TWICE_P_IM, mat.im)
    im = dot(_TWICE_P_RE, mat.im) + dot(_TWICE_P_IM, mat.re)
    for k in range(6):
        trace = int(re[k].trace())
        if (prob := EXACT.mpf(trace) / (2 * mat.scale)) >= 1e-12:
            yield k // 2 + 1, prob, ExactMatrix(re[k], im[k], trace)


def oracle_bloch(qubit: ExactMatrix) -> tuple:
    """Integers n and d of a qubit's Bloch vector n / d, read as
    ``qcore._bloch_vector`` reads it: Tr(m sigma_i) of a Hermitian m."""
    re, im = qubit.re, qubit.im
    return (2 * re[0, 1], 2 * im[1, 0], re[0, 0] - re[1, 1]), qubit.scale


def entropy(p, q):
    """h2 of (p, q), given apart so neither is a difference; 0 unless both > 0."""
    if p <= 0 or q <= 0:
        return EXACT.zero
    return -(p * EXACT.ln(p) + q * EXACT.ln(q)) / EXACT.ln2


def oracle_coherence(measure: str, n, d: int) -> list:
    """``measure`` ("l1", "relent" or "skew") of the Bloch vector n / d, of
    integers n and d, at its three Pauli axes, at 60 digits."""
    squares = [v * v for v in n]
    total = sum(squares)  # |b|**2 = total / d**2
    if measure == "l1":
        return [EXACT.sqrt(total - sq) / d for sq in squares]
    root = EXACT.sqrt(total)
    plus, minus = (d + root) / (2 * d), (d * d - total) / (2 * d * (d + root))  # (1 +- |b|) / 2
    if measure == "relent":
        dephased = [entropy(EXACT.mpf(d + v) / (2 * d), EXACT.mpf(d - v) / (2 * d)) for v in n]
        return [max(EXACT.zero, h - entropy(plus, minus)) for h in dephased]
    if root < 1e-12 * d:
        return [EXACT.zero] * 3
    # the transverse factor 1 - b_axis**2 / |b|**2 is a sum of squares, never below 0
    factor = (EXACT.sqrt(plus) - EXACT.sqrt(max(EXACT.zero, minus))) ** 2
    return [factor * (total - sq) / total for sq in squares]


def oracle_shifts(rho, measure: str) -> list:
    """The shift functionals s_j of a two-qubit state for ``measure``: sums
    over Alice's axes i of p(i) * C(Bob's conditional state, axis ((i - 1 +
    j) mod 3) + 1), at 60 digits."""
    s = [EXACT.zero] * 3
    for i, p_a, bob in oracle_branches(rho, last=False):
        values = oracle_coherence(measure, *oracle_bloch(bob))
        for j in range(3):
            s[j] += p_a * values[(i - 1 + j) % 3]
    return s


def oracle_t1_t2(rho, measure: str) -> tuple:
    """Sums over Charlie's axes c of p(c) * s_j(conditional AB state), at 60
    digits: t1 over the matched shift j = c mod 3, t2 over the two others."""
    t1 = t2 = EXACT.zero
    for c, p_c, ab in oracle_branches(rho, last=True):
        s = oracle_shifts(ab, measure)
        t1 += p_c * s[c % 3]
        t2 += p_c * (s[0] + s[1] + s[2] - s[c % 3])
    return t1, t2


def oracle_parts(matrix: np.ndarray, measure: str) -> list:
    """The exact values of ``steering._parts`` of a float matrix: the shifts
    on two qubits, t1 to t3 on three."""
    if len(matrix) == 4:
        return oracle_shifts(matrix, measure)
    t1, t2 = oracle_t1_t2(matrix, measure)
    return [t1, t2, t1 + t2]


# How far the float path may sit from the exact values. A value on n qubits
# weighs 3 ** (n - 1) triples of one Bloch vector b, as in coherence._bounds,
# and a round-off delta = K * u in b (u = 2**-53) moves one triple by
#   l1:      delta, its values being 1-Lipschitz in b;
#   relent:  delta * log2(1 / u), h2's slope 1 ulp away from 0 or 1;
#   skew:    2 * sqrt(2 * delta), through sqrt(lambda_minus) at a pure branch.
# Fitted to the worst errors measured (README), K reads at most 4.5 (l1 on
# three qubits at numpy's X86_V2 level; relent 1.4, skew 0.5); doubled and
# rounded up to a power of two, K = 16.
K, UNIT_ROUNDOFF = 16, 2.0**-53


def accuracy_bound(measure: str, nqubits: int) -> float:
    """How far a value of ``measure`` on ``nqubits`` qubits (one qubit's
    three, the shifts of two, t1 to t3 of three) may sit from the exact one."""
    delta = K * UNIT_ROUNDOFF
    triple = {
        "l1": delta,
        "relent": delta * math.log2(1 / UNIT_ROUNDOFF),
        "skew": 2 * math.sqrt(2 * delta),
    }
    return 3 ** (nqubits - 1) * triple[measure]
