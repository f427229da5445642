"""State constructors: named families, the Bloch form, and seeded sampling.

The two-qubit Bloch parameterization (r, s, T) expands a state as

    rho = (1/4) (I(x)I + r.sigma(x)I + I(x)s.sigma + sum_ij T_ij sigma_i(x)sigma_j)

with |r| <= 1, |s| <= 1 and |T_ij| <= 1. Those box constraints are
necessary but not sufficient, so ``from_bloch`` still runs the positivity
check. Together they form R_ij = Tr(rho sigma_i (x) sigma_j) with
sigma_0 = I (r = R[1:, 0], s = R[0, 1:], T = R[1:, 1:]); both conversions
are one contraction with the 16 products sigma_i (x) sigma_j.

Random generation is deterministic per seed; each call owns a private
generator, so there is no global RNG state. ``_generators`` sets up the
generators of the ``SeedSequence`` entropies ``[seed, i]`` of a range of
indices i at once, bit for bit.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .qcore import (
    BLOCH_NORM_TOL,
    DensityMatrix,
    NotAStateError,
    _PAULI,
    _ValueEquality,
    _check_bound,
    _check_index,
    _check_numeric,
    _check_unit_interval,
    _frozen,
    _norm,
    _qubit_indices,
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
]

# sigma_i (x) sigma_j stacked as [4 i + j]; every entry is 0, +-1 or +-i, exactly
_PAULI_PAIRS = _frozen(np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(16, 4, 4))


@dataclass(frozen=True, eq=False)
class TwoQubitBloch(_ValueEquality):
    """(r, s, T): local Bloch vectors of A and B plus the correlation matrix."""

    r: np.ndarray
    s: np.ndarray
    T: np.ndarray

    def __post_init__(self) -> None:
        r, s, T = (np.array(_check_numeric(k, getattr(self, k)), dtype=float) for k in "rsT")
        if r.shape != (3,) or s.shape != (3,) or T.shape != (3, 3):
            raise ValueError("expected r, s of shape (3,) and T of shape (3, 3)")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, which the bound rejects
            _check_bound("|r|", _norm(r), 1.0, BLOCH_NORM_TOL, NotAStateError)
            _check_bound("|s|", _norm(s), 1.0, BLOCH_NORM_TOL, NotAStateError)
        _check_bound("correlation |T_ij|", np.abs(T), 1.0, BLOCH_NORM_TOL, NotAStateError)
        for name, arr in (("r", r), ("s", s), ("T", T)):
            object.__setattr__(self, name, _frozen(arr))


def from_bloch(params: TwoQubitBloch) -> DensityMatrix:
    """Reconstruct the two-qubit state from its (r, s, T) parameterization.

    Raises ``NotAStateError`` when the reconstruction is not positive
    semidefinite: the box constraints alone do not guarantee a state.
    """
    R = np.empty((4, 4))
    R[0, 0] = 1.0
    R[1:, 0] = params.r
    R[0, 1:] = params.s
    R[1:, 1:] = params.T
    return DensityMatrix(np.tensordot(R.ravel(), _PAULI_PAIRS, axes=1) / 4.0)


def to_bloch(rho: DensityMatrix) -> TwoQubitBloch:
    """Extract (r, s, T) from a two-qubit state by Pauli traces."""
    if rho.nqubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {rho.nqubits} qubits")
    R = _pauli_tensor(rho.matrix)
    return TwoQubitBloch(R[1:, 0], R[0, 1:], R[1:, 1:])


def _pauli_tensor(matrix: np.ndarray) -> np.ndarray:
    """R_ij = Tr(m sigma_i (x) sigma_j) of a 4x4 matrix, as a 4x4 real array."""
    return (matrix @ _PAULI_PAIRS).trace(axis1=1, axis2=2).real.reshape(4, 4)


def pure_alpha(alpha: float) -> DensityMatrix:
    """Projector onto sqrt(alpha)|00> + sqrt(1 - alpha)|11>."""
    alpha = _check_unit_interval("alpha", alpha)
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.sqrt(alpha)
    vec[3] = np.sqrt(1.0 - alpha)
    return DensityMatrix(np.outer(vec, vec.conj()))


def ghz_alpha(alpha: float) -> DensityMatrix:
    """Projector onto alpha|000> + sqrt(1 - alpha**2)|111>.

    Note the amplitude convention: the parameter is the amplitude itself,
    not its square as in ``pure_alpha``.
    """
    alpha = _check_unit_interval("alpha", alpha)
    vec = np.zeros(8, dtype=complex)
    vec[0] = alpha
    vec[7] = np.sqrt(1.0 - alpha ** 2)
    return DensityMatrix(np.outer(vec, vec.conj()))


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
    _check_index("nqubits", nqubits, (1, 2, 3))
    dim = 2 ** nqubits
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


# SeedSequence's constants. Its hashes run a constant that is multiplied on
# mod 2**32: mix_entropy's hash k xors a word with _HASH_A[k] and multiplies
# it by _HASH_A[k + 1] (4 hashes of the pool, then 12 mixes), and
# generate_state's hash k uses _HASH_B[k] and _HASH_B[k + 1]. Its mixes take
# L x - R y; _MIX_R is 2**32 - R, so that the sum L x + (2**32 - R) y takes
# no borrow.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 2**32 - 0x4973F715
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, k, 2**32) % 2**32 for k in range(17))
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, k, 2**32) % 2**32 for k in range(9))


@functools.cache
def _lanes(n: int) -> tuple[int, int, int, list, list, list]:
    """The constants of one pass over n 4-word pools, pool k in the 64-bit
    lane of bits 64 k .. 64 k + 63 of one int: 1 and the 32-bit mask in
    every lane, k in lane k, and the pass's hashes as (source, xor in every
    lane, multiplier). mix_entropy hashes entropy word j into pool word j,
    then mixes a hash of pool word ``src`` into pool word ``dst`` for the
    12 pairs of pool words; generate_state's output word k hashes pool word
    k % 4."""
    unit = ((1 << 64 * n) - 1) // ((1 << 64) - 1)
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    hashes = [(j, _HASH_A[j] * unit, _HASH_A[j + 1]) for j in range(4)]
    mixes = [(src, dst, _HASH_A[k] * unit, _HASH_A[k + 1]) for k, (src, dst) in enumerate(pairs, 4)]
    outputs = [(k % 4, _HASH_B[k] * unit, _HASH_B[k + 1]) for k in range(8)]
    return unit, _MASK32 * unit, sum(k << 64 * k for k in range(n)), hashes, mixes, outputs


def _pcg64_seeds(master_seed: int, indices: range) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)``
    of every index i of ``indices`` at once, as a C-contiguous ``(n, 4)``
    uint64 array, for entropies that fit the 4-word pool (``_generators``).
    It must stay C-contiguous: ``PCG64`` reads a row handed to it through
    ``SeedWords`` as the 32 bytes at the row's address, whatever its strides.

    The pool of index ``indices.start + k`` sits in lane k (``_lanes``), and
    the n pools are mixed in their lanes by a few int operations per step:
    a 32-bit lane times a 32-bit constant stays below 2**64, so no carry
    crosses lanes, and every product is masked back to 32 bits. A mix's
    ``(L x mod 2**32) + (2**32 - R) y`` stays below 2**64 as well.
    """
    n = len(indices)
    unit, mask, ramp, hashes, mixes, outputs = _lanes(n)
    head = [master_seed & _MASK32, master_seed >> 32][: 1 + (master_seed > _MASK32)]
    entropy = [w * unit for w in head] + [indices.start * unit + ramp]

    def hashed(words: list[int], steps: list):
        for src, xor, mul in steps:
            word = (words[src] ^ xor) * mul & mask
            yield (word ^ word >> 16) & mask

    # a pool longer than the entropy is padded with 0
    pool = list(hashed(entropy + [0] * (4 - len(entropy)), hashes))
    for src, dst, xor, mul in mixes:
        y = (pool[src] ^ xor) * mul & mask
        x = (pool[dst] * _MIX_L & mask) + ((y ^ y >> 16) & mask) * _MIX_R & mask
        pool[dst] = (x ^ x >> 16) & mask
    words = list(hashed(pool, outputs))
    # seed word j of pool k: lane k of output words 2 j (low half) and 2 j + 1
    data = b"".join(
        (lo | hi << 32).to_bytes(8 * n, byteorder="little")
        for lo, hi in zip(words[::2], words[1::2])
    )
    return np.frombuffer(data, "<u8").reshape(4, n).T.astype(np.uint64, order="C")


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` holding the ``generate_state(4, uint64)`` words
    of one ``SeedSequence``, made ahead of time; ``PCG64`` asks for exactly
    these. It is defined on first use: importing ``numpy.random`` takes
    about 20 ms, which ``evaluate`` and ``sweep`` never need."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only PCG64's 4 uint64 words are kept, not {n_words} {dtype}")
            return self.words

    return SeedWords


def _generators(master_seed: int, indices: range) -> list[np.random.Generator]:
    """One generator per index i of the step-1 range ``indices``, each in
    the state of
    ``np.random.default_rng(np.random.SeedSequence([master_seed, i]))``.

    An entropy of a master seed below 2**64 and an index below 2**32 fills
    at most three of ``SeedSequence``'s 4-word pool. For those no
    ``SeedSequence`` is built: ``_pcg64_seeds`` mixes the pools of the
    whole range and hashes their ``PCG64`` seed words in one pass, index i
    in its own 64-bit lane of one int, and ``PCG64`` reads each row through
    the ``SeedWords`` adapter. Every other entropy, a negative seed
    included, seeds ``PCG64`` through numpy's own ``SeedSequence``, one per
    index.
    """
    small = all(0 <= k <= _MASK32 for k in (indices.start, indices.stop - 1))
    if small and 0 <= master_seed < 2**64:
        seeds = map(_seed_words_type(), _pcg64_seeds(master_seed, indices))
    else:
        seeds = (np.random.SeedSequence([master_seed, i]) for i in indices)
    return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]


def _random_states(nqubits: int, rngs, rank: int | None = None) -> np.ndarray:
    """Random states, stacked as ``(len(rngs), 2**n, 2**n)``, not validated.

    State k is drawn from the generator ``rngs[k]``, such as those of
    ``_generators``. It fills its slot, real block then imaginary, in one
    in-place ``standard_normal`` call: the bits of ``normal``, ``0.0 + 1.0
    * z``, but for an exact -0.0 draw. State k is Haar-random pure when
    ``rank`` is None, else Ginibre-induced of that rank. Only the draws run
    per state; the finish runs once on the stack, and every step is
    elementwise or per matrix, so each state has the bits of a stack of one,
    whatever stack it is in. The squared norm of a pure draw is the BLAS dot of its
    strided real and imaginary parts, which is what ``np.linalg.norm``
    takes (a contiguous copy, ``einsum`` or ``sum`` would round differently).
    """
    dim = 2 ** nqubits
    columns = 1 if rank is None else rank
    draws = np.empty((len(rngs), 2, dim, columns))
    for rng, slot in zip(rngs, draws):
        rng.standard_normal(out=slot)
    g = draws[:, 0] + 1j * draws[:, 1]
    if rank is None:
        re, im = g.real, g.imag
        g = g / np.sqrt(re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im)
        return g * g.conj().swapaxes(-1, -2)
    mats = g @ g.conj().swapaxes(-1, -2)
    return mats / mats.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_pure(nqubits: int, seed) -> DensityMatrix:
    """Haar-random pure state on 1, 2 or 3 qubits.

    A complex standard-normal vector is normalized and projected, which is
    Haar-distributed. Bitwise reproducible for a fixed seed.
    """
    _check_index("nqubits", nqubits, (1, 2, 3))
    return DensityMatrix(_random_states(nqubits, [np.random.default_rng(seed)])[0])


def random_mixed(nqubits: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank.

    Draws G of shape (2**n, rank) with complex normal entries and returns
    G G^dag / Tr(G G^dag). Rank 1 reproduces a Haar pure state; full rank
    gives the Hilbert-Schmidt measure. Bitwise reproducible per seed.
    """
    _check_index("nqubits", nqubits, (1, 2, 3))
    _check_index("rank", rank, tuple(range(1, 2 ** nqubits + 1)))
    return DensityMatrix(_random_states(nqubits, [np.random.default_rng(seed)], rank)[0])


def random_bloch_qubit_vector(rng: np.random.Generator) -> np.ndarray:
    """Bloch vector drawn uniformly from the ball."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform() ** (1.0 / 3.0)


def permute_qubits(rho: DensityMatrix, perm) -> DensityMatrix:
    """Relabel tensor factors: result factor k is input factor perm[k].

    Transpositions are involutive and the spectrum is preserved. The
    result permutes ``rho``'s entries exactly, so it is not validated
    again.
    """
    n = rho.nqubits
    perm = _qubit_indices(perm, n)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    axes = perm + [p + n for p in perm]
    arr = rho.matrix.reshape((2,) * (2 * n)).transpose(axes)
    return DensityMatrix._derived(arr.reshape(2 ** n, 2 ** n))


# every named family: its constructor and the parameters it takes, in order
_FAMILIES = {
    "pure_alpha": (pure_alpha, ("alpha",)),
    "ghz_alpha": (ghz_alpha, ("alpha",)),
    "werner": (werner, ("p",)),
    "bell": (bell, ()),
    "general_bloch": (lambda r, s, T: from_bloch(TwoQubitBloch(r, s, T)), ("r", "s", "T")),
}


def from_family(family: str, params: Mapping | None) -> DensityMatrix:
    """Build a named family member from its parameter mapping; None means
    no parameters.

    Families: ``pure_alpha`` (alpha), ``ghz_alpha`` (alpha), ``werner`` (p),
    ``bell`` (no parameters), ``general_bloch`` (r, s, T).
    """
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_FAMILIES)}")
    if not isinstance(params, Mapping | None):
        raise ValueError(f"parameters of {family!r} must be a mapping, got {type(params).__name__}")
    params = dict(params or {})
    build, names = _FAMILIES[family]
    missing = [key for key in names if key not in params]
    if missing:
        raise ValueError(f"family {family!r} requires parameter {missing[0]!r}")
    rho = build(*[params.pop(key) for key in names])
    if params:
        raise ValueError(f"unexpected parameters for {family!r}: {sorted(params)}")
    return rho
