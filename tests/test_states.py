"""Tests for state constructors, the Bloch form, and seeded sampling."""

import numpy as np
import pytest

from naqc.qcore import DensityMatrix, NotAStateError, _validate, partial_trace
from naqc.states import (
    TwoQubitBloch,
    _random_states,
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
from oracles import bits, eig_hermitian, kron_from_bloch, kron_to_bloch, sampled_matrix


def bloch_form_states():
    """Seeded states of every rank, the maximally mixed state, |00> and Bell."""
    states = [maximally_mixed(2), pure_alpha(1.0), bell()]
    for rank in (1, 2, 3, 4):
        for index in range(50):
            seed = np.random.SeedSequence([4100, rank, index])
            states.append(random_mixed(2, rank, seed))
    return states


def generators(seeds) -> list:
    """A generator of each seed, as ``_random_states`` takes them."""
    return [np.random.default_rng(seed) for seed in seeds]


def hex_of(*arrays) -> list[str]:
    return [float(x).hex() for arr in arrays for x in np.ravel(arr)]


class TestBlochForm:
    def test_all_zero_is_maximally_mixed(self):
        rho = from_bloch(TwoQubitBloch(np.zeros(3), np.zeros(3), np.zeros((3, 3))))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_bell_correlation_matrix(self):
        rho = from_bloch(
            TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        )
        np.testing.assert_allclose(rho.matrix, bell().matrix, atol=1e-12)

    def test_box_constraints_do_not_imply_positivity(self):
        with pytest.raises(NotAStateError):
            from_bloch(TwoQubitBloch(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, 1.0])))

    def test_box_constraint_violations_rejected(self):
        with pytest.raises(NotAStateError):
            TwoQubitBloch(np.array([1.0, 1.0, 0.0]), np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(NotAStateError):
            TwoQubitBloch(np.zeros(3), np.zeros(3), np.full((3, 3), 1.5))

    def test_to_bloch_of_maximally_mixed(self):
        params = to_bloch(maximally_mixed(2))
        np.testing.assert_allclose(params.r, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(params.s, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(params.T, np.zeros((3, 3)), atol=1e-15)

    def test_to_bloch_of_product_zero_state(self):
        params = to_bloch(pure_alpha(1.0))
        np.testing.assert_allclose(params.r, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(params.s, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(params.T, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_round_trip_on_random_states(self):
        for idx in range(100):
            rho = random_mixed(2, 4, seed=1000 + idx)
            back = from_bloch(to_bloch(rho))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            to_bloch(maximally_mixed(1))

    def test_to_bloch_matches_kron_traces_bit_for_bit(self):
        # each Pauli string is a monomial matrix, so every diagonal entry of
        # rho @ (sigma_i (x) sigma_j) is one exact product: signed zeros included
        for rho in bloch_form_states():
            params = to_bloch(rho)
            expected = kron_to_bloch(rho.matrix)
            assert hex_of(params.r, params.s, params.T) == hex_of(*expected)

    def test_from_bloch_matches_kron_sum_to_round_off(self):
        for rho in bloch_form_states():
            params = to_bloch(rho)
            expected = kron_from_bloch(params.r, params.s, params.T)
            np.testing.assert_allclose(
                from_bloch(params).matrix, expected, rtol=0, atol=4.4e-16
            )


class TestPureAlphaFamily:
    def test_alpha_one_is_doubly_excited_ground(self):
        mat = pure_alpha(1.0).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_symmetric_point_is_bell(self):
        np.testing.assert_allclose(pure_alpha(0.5).matrix, bell().matrix, atol=1e-15)

    def test_reduced_spectrum_is_schmidt(self):
        rho = pure_alpha(0.25)
        for qubit in (0, 1):
            w, _ = eig_hermitian(partial_trace(rho, qubit).matrix)
            np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-12)

    def test_purity(self):
        for alpha in (0.0, 0.3, 0.7, 1.0):
            assert pure_alpha(alpha).purity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            pure_alpha(alpha)


class TestGhzAlphaFamily:
    def test_alpha_zero_is_all_ones(self):
        mat = ghz_alpha(0.0).matrix
        expected = np.zeros((8, 8), dtype=complex)
        expected[7, 7] = 1.0
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_symmetric_point(self):
        np.testing.assert_allclose(
            ghz_alpha(1 / np.sqrt(2)).matrix, ghz().matrix, atol=1e-15
        )

    def test_amplitude_convention_squares(self):
        mat = ghz_alpha(0.5).matrix
        assert mat[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert mat[7, 7] == pytest.approx(0.75, abs=1e-15)
        # distinct from the pure two-qubit family, whose parameter is a weight
        assert pure_alpha(0.5).matrix[0, 0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", [-0.5, 1.5])
    def test_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            ghz_alpha(alpha)


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(werner(1.0).matrix, bell().matrix, atol=1e-15)
        np.testing.assert_allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_correlation_matrix_scales(self):
        params = to_bloch(werner(0.6))
        np.testing.assert_allclose(params.T, np.diag([0.6, -0.6, 0.6]), atol=1e-12)
        np.testing.assert_allclose(params.r, np.zeros(3), atol=1e-12)


class TestRandomPure:
    @pytest.mark.parametrize("nqubits", [1, 2, 3])
    def test_unit_purity(self, nqubits):
        for seed in range(20):
            assert random_pure(nqubits, seed).purity() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        a = random_pure(2, 123456789)
        b = random_pure(2, 123456789)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_pure(2, 987654321)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_haar_average_is_maximally_mixed(self):
        total = np.zeros((2, 2), dtype=complex)
        for seed in range(10_000):
            total += random_pure(1, seed).matrix
        avg = total / 10_000
        r = np.array(
            [2 * avg[0, 1].real, 2 * avg[1, 0].imag, (avg[0, 0] - avg[1, 1]).real]
        )
        assert np.linalg.norm(r) < 0.05

    def test_validated_draws(self):
        """The draws of seeds 0 .. 9999 are all valid states. They are drawn as
        one stack, which equals ``random_pure`` draw by draw bit for bit
        (``TestStackedSampler``), and validated by one stacked check."""
        for nqubits in (1, 2, 3):
            _validate(_random_states(nqubits, generators(range(10_000))))


class TestRandomMixed:
    def test_rank_one_is_pure(self):
        assert random_mixed(2, 1, seed=4).purity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nqubits", [1, 2, 3])
    def test_full_rank_has_positive_spectrum(self, nqubits):
        dim = 2 ** nqubits
        for seed in range(50):
            rho = random_mixed(nqubits, dim, seed)
            w, _ = eig_hermitian(rho.matrix)
            assert float(w[-1]) > 0.0

    def test_deterministic_per_seed(self):
        a = random_mixed(3, 8, seed=11)
        b = random_mixed(3, 8, seed=11)
        assert np.array_equal(a.matrix, b.matrix)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_mixed(2, 0, seed=0)
        with pytest.raises(ValueError):
            random_mixed(2, 5, seed=0)

    @pytest.mark.parametrize("nqubits", [1, 2, 3])
    def test_validated_draws_at_every_rank(self, nqubits):
        """As ``TestRandomPure.test_validated_draws``, for ``random_mixed`` at
        every rank: one stack and one stacked check per rank."""
        for rank in range(1, 2 ** nqubits + 1):
            _validate(_random_states(nqubits, generators(range(10_000)), rank))


class TestStackedSampler:
    """``states._random_states`` draws per generator and finishes the whole stack
    at once; each state must have the bits of ``oracles.sampled_matrix``,
    which draws and finishes one state at a time as ``np.linalg.norm``,
    ``np.outer`` and a single matrix product do."""

    CASES = [(n, rank) for n in (1, 2, 3) for rank in (None, *range(1, 2**n + 1))]

    @pytest.mark.parametrize("nqubits, rank", CASES)
    def test_stack_equals_the_per_draw_path_bit_for_bit(self, nqubits, rank):
        seeds = [np.random.SeedSequence([4200, nqubits, k]) for k in range(500)]
        expected = np.stack([sampled_matrix(nqubits, ss, rank) for ss in seeds])
        stack = _random_states(nqubits, generators(seeds), rank)
        assert np.array_equal(bits(stack), bits(expected))
        # any stack: the stack of one of the public constructors, and stacks of 7
        public = [
            random_pure(nqubits, ss) if rank is None else random_mixed(nqubits, rank, ss)
            for ss in seeds[:50]
        ]
        assert np.array_equal(bits(np.stack([rho.matrix for rho in public])), bits(expected[:50]))
        sevens = [
            _random_states(nqubits, generators(seeds[k : k + 7]), rank) for k in range(0, 500, 7)
        ]
        assert np.array_equal(bits(np.concatenate(sevens)), bits(expected))


class TestPermuteQubits:
    def test_identity(self):
        rho = random_mixed(3, 8, seed=3)
        np.testing.assert_array_equal(
            permute_qubits(rho, (0, 1, 2)).matrix, rho.matrix
        )

    def test_swap_of_product(self):
        a = random_mixed(1, 2, seed=21).matrix
        b = random_mixed(1, 2, seed=22).matrix
        rho = DensityMatrix(np.kron(a, b))
        swapped = permute_qubits(rho, (1, 0))
        np.testing.assert_allclose(swapped.matrix, np.kron(b, a), atol=1e-12)

    def test_transpositions_are_involutive(self):
        rho = random_mixed(3, 8, seed=31)
        twice = permute_qubits(permute_qubits(rho, (0, 2, 1)), (0, 2, 1))
        np.testing.assert_allclose(twice.matrix, rho.matrix, atol=1e-15)

    def test_spectrum_preserved(self):
        rho = random_mixed(3, 8, seed=41)
        w_before, _ = eig_hermitian(rho.matrix)
        w_after, _ = eig_hermitian(permute_qubits(rho, (2, 0, 1)).matrix)
        np.testing.assert_allclose(w_before, w_after, atol=1e-12)

    def test_invalid_permutation(self):
        rho = random_mixed(2, 4, seed=5)
        with pytest.raises(ValueError):
            permute_qubits(rho, (0, 0))
        with pytest.raises(ValueError):
            permute_qubits(rho, (0, 1, 2))

    @pytest.mark.parametrize(
        "perm", [[1.5, 0.2, 2.7], [1.0, 0.0, 2.0], [True, False, 2], np.array([1.0, 0.0, 2.0])]
    )
    def test_non_integer_permutation_is_rejected(self, perm):
        with pytest.raises(ValueError, match="integer"):
            permute_qubits(random_mixed(3, 8, seed=5), perm)

    def test_numpy_integer_permutation_is_accepted(self):
        rho = random_mixed(3, 8, seed=5)
        expected = permute_qubits(rho, [1, 0, 2]).matrix
        assert np.array_equal(permute_qubits(rho, np.array([1, 0, 2])).matrix, expected)


class TestIntegerArguments:
    """Qubit counts and ranks must be integers: bool and floats are rejected
    even where they compare equal to an allowed value."""

    CONSTRUCTORS = {
        "maximally_mixed": maximally_mixed,
        "random_pure": lambda n: random_pure(n, 0),
        "random_mixed": lambda n: random_mixed(n, 1, 0),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("nqubits", [True, 2.0, np.float64(2.0), np.bool_(True), "2"])
    def test_non_integer_qubit_count_is_rejected(self, name, nqubits):
        with pytest.raises(ValueError, match="integer"):
            self.CONSTRUCTORS[name](nqubits)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_numpy_integer_qubit_count_is_accepted(self, name):
        make = self.CONSTRUCTORS[name]
        assert np.array_equal(make(np.int64(2)).matrix, make(2).matrix)

    @pytest.mark.parametrize("rank", [2.0, 1.5, True, np.float64(3.0)])
    def test_non_integer_rank_is_rejected(self, rank):
        with pytest.raises(ValueError, match="integer"):
            random_mixed(2, rank, 0)

    def test_numpy_integer_rank_is_accepted(self):
        assert np.array_equal(random_mixed(2, np.int64(3), 7).matrix, random_mixed(2, 3, 7).matrix)


class TestFamilyParameters:
    """Family parameters must be ints, floats or numpy integer or floating
    scalars: bools, strings, bytes and arrays are refused, not converted."""

    @pytest.mark.parametrize(
        "make, value",
        [
            (pure_alpha, "0.5"),
            (pure_alpha, b"0.5"),
            (pure_alpha, "abc"),
            (pure_alpha, np.array(0.5)),
            (pure_alpha, None),
            (werner, True),
            (werner, [0.5]),
            (ghz_alpha, np.True_),
            (lambda p: from_family("werner", {"p": p}), "1e-1"),
        ],
    )
    def test_non_number_is_refused(self, make, value):
        with pytest.raises(ValueError, match=r"^(alpha|p) must be a number, got "):
            make(value)

    @pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.5)])
    def test_numpy_scalars_and_ints_are_accepted(self, value):
        assert np.array_equal(werner(value).matrix, werner(float(value)).matrix)


class TestFromFamily:
    def test_known_families(self):
        np.testing.assert_allclose(
            from_family("bell", {}).matrix, bell().matrix, atol=1e-15
        )
        assert np.array_equal(from_family("bell", None).matrix, bell().matrix)  # no parameters
        np.testing.assert_allclose(
            from_family("pure_alpha", {"alpha": 0.5}).matrix, bell().matrix, atol=1e-15
        )
        np.testing.assert_allclose(
            from_family("ghz_alpha", {"alpha": 0.0}).matrix,
            ghz_alpha(0.0).matrix,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            from_family("werner", {"p": 0.3}).matrix, werner(0.3).matrix, atol=1e-15
        )

    def test_general_bloch(self):
        rho = from_family(
            "general_bloch",
            {"r": [0, 0, 0], "s": [0, 0, 0], "T": np.diag([1.0, -1.0, 1.0]).tolist()},
        )
        np.testing.assert_allclose(rho.matrix, bell().matrix, atol=1e-12)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            from_family("w_state", {})

    def test_missing_and_extra_parameters(self):
        with pytest.raises(ValueError, match="requires parameter"):
            from_family("pure_alpha", {})
        with pytest.raises(ValueError, match="unexpected parameters"):
            from_family("bell", {"alpha": 0.5})

    @pytest.mark.parametrize(
        "family, params, kind",
        [("werner", "p", "str"), ("bell", [], "list"), ("werner", [("p", 0.5)], "list")],
        ids=["name", "empty-list", "pairs"],
    )
    def test_parameters_must_be_a_mapping(self, family, params, kind):
        message = f"parameters of '{family}' must be a mapping, got {kind}"
        with pytest.raises(ValueError, match=message):
            from_family(family, params)
