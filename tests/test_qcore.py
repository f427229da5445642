"""Unit tests for the linear-algebra and quantum primitives."""

import numpy as np
import pytest

from naqc.qcore import (
    BlochQubit,
    DensityMatrix,
    NotAStateError,
    bloch_of_qubit,
    eig_hermitian,
    kron,
    partial_trace,
    partial_trace_matrix,
    pauli,
    projector,
    qubit_of_bloch,
    sqrt_psd,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Ginibre state, independent of the library constructors."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def bell_matrix() -> np.ndarray:
    vec = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(vec, vec.conj())


class TestPauli:
    def test_standard_matrices(self):
        np.testing.assert_array_equal(pauli(1), SX)
        np.testing.assert_array_equal(pauli(2), SY)
        np.testing.assert_array_equal(pauli(3), SZ)

    def test_hermitian_traceless_involutive(self):
        for axis in (1, 2, 3):
            s = pauli(axis)
            np.testing.assert_array_equal(s, s.conj().T)
            assert s.trace() == 0
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("axis", [0, 4, -1, "x", None])
    def test_invalid_axis(self, axis):
        with pytest.raises(ValueError):
            pauli(axis)

    def test_returned_array_is_read_only(self):
        with pytest.raises(ValueError):
            pauli(1)[0, 0] = 5.0


class TestProjector:
    def test_z_outcome_zero_is_ket_zero(self):
        np.testing.assert_allclose(projector(3, 0), np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_outcome_zero_is_plus(self):
        np.testing.assert_allclose(projector(1, 0), np.full((2, 2), 0.5), atol=1e-15)

    def test_orthogonality(self):
        for axis in (1, 2, 3):
            prod = projector(axis, 0) @ projector(axis, 1)
            np.testing.assert_allclose(prod, np.zeros((2, 2)), atol=1e-15)

    def test_completeness_exact(self):
        for axis in (1, 2, 3):
            total = projector(axis, 0) + projector(axis, 1)
            np.testing.assert_array_equal(total, np.eye(2, dtype=complex))

    def test_idempotent_rank_one(self):
        for axis in (1, 2, 3):
            for outcome in (0, 1):
                p = projector(axis, outcome)
                np.testing.assert_allclose(p @ p, p, atol=1e-15)
                assert np.isclose(np.trace(p), 1.0)

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            projector(1, 2)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(
            kron(np.eye(2), np.eye(2)), np.eye(4, dtype=complex)
        )

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))

    def test_sigma_x_tensor_sigma_z_entry(self):
        # direct index computation: entry (0, 2) = SX[0, 1] * SZ[0, 0] = 1
        assert kron(pauli(1), pauli(3))[0, 2] == 1.0 + 0j

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            kron(np.eye(4), np.eye(4))

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4))
        np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=0)


class TestPartialTrace:
    def test_bell_reductions_are_maximally_mixed(self):
        rho = DensityMatrix(bell_matrix())
        for keep in (0, 1):
            reduced = partial_trace(rho, keep)
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_structure(self):
        rng = np.random.default_rng(7)
        a = random_density(2, rng)
        b = random_density(2, rng)
        rho = DensityMatrix(np.kron(a, b))
        np.testing.assert_allclose(partial_trace(rho, 0).matrix, a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 1).matrix, b, atol=1e-12)

    def test_ghz_single_qubit_reduction(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = vec[7] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(vec, vec.conj()))
        reduced = partial_trace(rho, 0)
        np.testing.assert_allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        rho = DensityMatrix(random_density(8, rng))
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            assert np.isclose(np.trace(partial_trace(rho, keep).matrix), 1.0)

    def test_order_independence(self):
        rng = np.random.default_rng(17)
        mat = random_density(8, rng)
        via_two_steps = partial_trace_matrix(
            partial_trace_matrix(mat, 3, (0, 1)), 2, (0,)
        )
        at_once = partial_trace_matrix(mat, 3, (0,))
        other_order = partial_trace_matrix(
            partial_trace_matrix(mat, 3, (0, 2)), 2, (0,)
        )
        np.testing.assert_allclose(via_two_steps, at_once, atol=1e-12)
        np.testing.assert_allclose(other_order, at_once, atol=1e-12)

    def test_keep_must_be_proper_subset(self):
        rho = DensityMatrix(bell_matrix())
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 1))
        with pytest.raises(ValueError):
            partial_trace(rho, (2,))


class TestEigHermitian:
    def test_diagonal_input(self):
        w, _ = eig_hermitian(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-15)

    def test_sigma_x_spectrum(self):
        w, v = eig_hermitian(SX)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-15)
        plus = np.array([1, 1]) / np.sqrt(2)
        # eigenvector defined up to phase: check the projector instead
        np.testing.assert_allclose(
            np.outer(v[:, 0], v[:, 0].conj()), np.outer(plus, plus), atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat = (g + g.conj().T) / 2
            w, v = eig_hermitian(mat)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
            np.testing.assert_allclose((v * w) @ v.conj().T, mat, atol=1e-10)
            assert np.all(np.diff(w) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSqrtPsd:
    def test_pure_projector_is_fixed_point(self):
        proj = projector(1, 0)
        np.testing.assert_allclose(sqrt_psd(DensityMatrix(proj)), proj, atol=1e-12)

    def test_scalar_matrix(self):
        rho = DensityMatrix(np.eye(2) / 2)
        np.testing.assert_allclose(sqrt_psd(rho), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_diagonal_case(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        np.testing.assert_allclose(
            sqrt_psd(rho), np.diag([np.sqrt(0.9), np.sqrt(0.1)]), atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_square_reproduces_state(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(1000):
            rho = DensityMatrix(random_density(dim, rng))
            root = sqrt_psd(rho)
            np.testing.assert_allclose(root, root.conj().T, atol=1e-12)
            np.testing.assert_allclose(root @ root, rho.matrix, atol=1e-9)


class TestBlochConversion:
    def test_maximally_mixed(self):
        state = bloch_of_qubit(DensityMatrix(np.eye(2) / 2))
        np.testing.assert_allclose(state.r, np.zeros(3), atol=1e-15)

    def test_computational_basis(self):
        state = bloch_of_qubit(DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
        np.testing.assert_allclose(state.r, [0, 0, 1], atol=1e-15)

    def test_plus_state(self):
        state = bloch_of_qubit(DensityMatrix(np.full((2, 2), 0.5, dtype=complex)))
        np.testing.assert_allclose(state.r, [1, 0, 0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = DensityMatrix(random_density(2, rng))
            back = qubit_of_bloch(bloch_of_qubit(rho))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_norm_at_most_one(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            state = bloch_of_qubit(DensityMatrix(random_density(2, rng)))
            assert state.norm <= 1 + 1e-9

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError):
            bloch_of_qubit(DensityMatrix(bell_matrix()))

    def test_bloch_vector_validation(self):
        with pytest.raises(NotAStateError):
            BlochQubit(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            BlochQubit(np.array([1.0, 0.0]))

    def test_bloch_vector_rejects_nan(self):
        with pytest.raises(NotAStateError):
            BlochQubit(np.array([np.nan, 0.0, 0.0]))


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex)
        with pytest.raises(NotAStateError, match="Hermitian"):
            DensityMatrix(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAStateError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.4]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAStateError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(3) / 3)
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(16) / 16)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, value):
        diagonal = np.eye(4, dtype=complex) / 4
        diagonal[0, 0] = value
        with pytest.raises(NotAStateError):
            DensityMatrix(diagonal)
        symmetric = np.eye(4, dtype=complex) / 4
        symmetric[0, 1] = symmetric[1, 0] = value
        with pytest.raises(NotAStateError):
            DensityMatrix(symmetric)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_eigenvalues_sum_to_one(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(200):
            rho = DensityMatrix(random_density(dim, rng))
            w, _ = eig_hermitian(rho.matrix)
            assert abs(float(w.sum()) - 1.0) < 1e-9
