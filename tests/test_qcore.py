"""Unit tests for the linear-algebra and quantum primitives, and for the
density-matrix oracles the other tests rely on."""

import dataclasses
import importlib

import numpy as np
import pytest

import naqc
from naqc.coherence import CoherenceTriple, Measure, coherence_triple
from naqc.qcore import (
    BLOCH_NORM_TOL,
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _norm,
    bloch_of_qubit,
    partial_trace,
    pauli,
    projector,
)
from naqc.states import TwoQubitBloch, bell, to_bloch
from naqc.steering import ConditionalBranch, ShiftValues, conditional_states, shift_values
from oracles import (
    counted_eigvalsh,
    diagonal_state,
    eig_hermitian,
    partial_trace_matrix,
    qubit_of_bloch,
    seeded_sample,
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

    @pytest.mark.parametrize(
        "axis", [0, 4, -1, "x", None, True, False, 2.0, np.float64(1.0), np.bool_(True)]
    )
    def test_invalid_axis(self, axis):
        with pytest.raises(ValueError):
            pauli(axis)

    def test_numpy_integer_axis_is_accepted(self):
        for axis in (1, 2, 3):
            np.testing.assert_array_equal(pauli(np.int64(axis)), pauli(axis))


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

    @pytest.mark.parametrize("outcome", [True, False, 0.0, 1.0, np.bool_(False)])
    def test_non_integer_outcome_is_rejected(self, outcome):
        with pytest.raises(ValueError, match="integer"):
            projector(1, outcome)

    def test_numpy_integer_arguments_are_accepted(self):
        expected = projector(2, 1)
        np.testing.assert_array_equal(projector(np.int64(2), np.int32(1)), expected)

    def test_bits_of_the_defining_formula(self):
        # (I + (-1)**outcome sigma) / 2, formed entrywise as written
        for axis, sigma in zip((1, 2, 3), (SX, SY, SZ)):
            for outcome in (0, 1):
                expected = (np.eye(2, dtype=complex) + (-1) ** outcome * sigma) / 2
                assert projector(axis, outcome).tobytes() == expected.tobytes()


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
        rho = DensityMatrix(random_density(8, rng))
        via_two_steps = partial_trace(partial_trace(rho, (0, 1)), 0)
        at_once = partial_trace(rho, 0)
        other_order = partial_trace(partial_trace(rho, (0, 2)), 0)
        np.testing.assert_allclose(via_two_steps.matrix, at_once.matrix, atol=1e-12)
        np.testing.assert_allclose(other_order.matrix, at_once.matrix, atol=1e-12)

    def test_matches_the_raw_array_oracle_bit_for_bit(self):
        rng = np.random.default_rng(19)
        cases = ((2, ((0,), (1,))), (3, ((0,), (1,), (2,), (0, 2), (1, 2))))
        for nqubits, keeps in cases:
            rho = DensityMatrix(random_density(2**nqubits, rng))
            for keep in keeps:
                expected = partial_trace_matrix(rho.matrix, nqubits, keep)
                assert partial_trace(rho, keep).matrix.tobytes() == expected.tobytes()

    def test_keep_must_be_proper_subset(self):
        rho = DensityMatrix(bell_matrix())
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 1))
        with pytest.raises(ValueError):
            partial_trace(rho, (2,))

    @pytest.mark.parametrize("keep", [(-1,), (3,), (0, 5)])
    def test_keep_indices_must_be_in_range(self, keep):
        rho = DensityMatrix(random_density(8, np.random.default_rng(3)))
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, keep)

    @pytest.mark.parametrize(
        "keep", [1.9, 1.0, True, np.float64(1.0), np.bool_(True), [1.5], [0, True]]
    )
    def test_non_integer_keep_is_rejected(self, keep):
        rho = DensityMatrix(random_density(8, np.random.default_rng(3)))
        with pytest.raises(ValueError, match="integer"):
            partial_trace(rho, keep)

    def test_numpy_integer_keep_is_accepted(self):
        rho = DensityMatrix(random_density(8, np.random.default_rng(3)))
        expected = partial_trace(rho, [0, 2]).matrix
        assert partial_trace(rho, np.array([0, 2])).matrix.tobytes() == expected.tobytes()
        assert np.array_equal(partial_trace(rho, np.int64(1)).matrix, partial_trace(rho, 1).matrix)


    @pytest.mark.parametrize(
        "diagonal, keeps",
        [
            ([0.75 + 2e-10, 0.25, -1e-10, -1e-10], [(0,), (1,)]),
            ([0.5 + 4e-10, 0.5, 0, 0] + [-1e-10] * 4, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
        ],
    )
    def test_a_reduction_of_an_accepted_state_is_a_state(self, diagonal, keeps):
        """Tracing out k qubits can take eigenvalues at the floor -1e-10 to
        2**k * -1e-10. The reduced state is not validated again, and each
        report of it stays within the library's guards."""
        rho = DensityMatrix(np.diag(diagonal).astype(complex))
        for keep in keeps:
            reduced = partial_trace(rho, keep)
            expected = partial_trace_matrix(rho.matrix, rho.nqubits, keep)
            assert reduced.matrix.tobytes() == expected.tobytes()
            traced = rho.nqubits - len(keep)
            assert np.linalg.eigvalsh(reduced.matrix).min() >= 2**traced * -1e-10 * (1 + 1e-12)
            for measure in naqc.Measure:
                if reduced.nqubits == 1:
                    naqc.coherence_triple(bloch_of_qubit(reduced), measure)
                else:
                    naqc.steering_report(reduced, measure)


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

    def test_bloch_norm_tolerance(self):
        BlochQubit(np.array([0.0, 0.0, 1.0 + 0.5 * BLOCH_NORM_TOL]))
        with pytest.raises(NotAStateError, match="Bloch vector norm .* exceeds"):
            BlochQubit(np.array([0.0, 0.0, 1.0 + 2.0 * BLOCH_NORM_TOL]))

    def test_stacked_norm_matches_linalg_norm_bit_for_bit(self):
        rng = np.random.default_rng(31)
        stack = rng.normal(size=(500, 3)) * rng.choice([1e-9, 1e-3, 1.0, 1e3], size=(500, 1))
        expected = np.array([np.linalg.norm(v) for v in stack])
        assert _norm(stack).tobytes() == expected.tobytes()
        assert _norm(stack.reshape(50, 10, 3)).tobytes() == expected.tobytes()
        assert all(float(_norm(v)) == np.linalg.norm(v) for v in stack)

    def test_norm_is_stored_at_construction(self):
        state = BlochQubit(np.array([0.6, 0.0, 0.8]) * 0.5)
        assert state.norm == float(np.linalg.norm(state.r))
        assert isinstance(state.norm, float)
        assert "norm" not in repr(state)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.norm = 0.0
        # the norm takes no part in comparison
        assert [f.name for f in dataclasses.fields(BlochQubit) if f.compare] == ["r"]


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

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("lowest, accepted", [(-1e-10, True), (-1.5e-10, False)])
    def test_the_eigensolver_decides_at_the_floor(self, dim, lowest, accepted, monkeypatch):
        """At the floor -1e-10 the shifted matrix of the Cholesky certificate
        is singular, so the eigensolver decides: the floor itself is a state,
        anything below it is not."""
        calls = counted_eigvalsh(monkeypatch)
        if accepted:
            DensityMatrix(diagonal_state(dim, lowest))
        else:
            with pytest.raises(NotAStateError, match=f"negative eigenvalue {lowest:.3e}"):
                DensityMatrix(diagonal_state(dim, lowest))
        assert calls == [(dim, dim)]

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_a_valid_state_never_reaches_the_eigensolver(self, dim, monkeypatch):
        calls = counted_eigvalsh(monkeypatch)
        rng = np.random.default_rng(300 + dim)
        for _ in range(20):
            DensityMatrix(random_density(dim, rng))
        DensityMatrix(np.eye(dim) / dim)
        assert calls == []

    def test_rejects_wrong_dimension(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(3) / 3)
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(16) / 16)

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

    def test_the_entry_bound_holds_every_accepted_state(self):
        """Trace 1 + 1e-10 less seven eigenvalues at the floor -1e-10 is the
        largest entry an 8 x 8 state can hold, about 1 + 8e-10."""
        DensityMatrix(np.diag([1.0 + 7.99e-10] + [-1e-10] * 7))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_eigenvalues_sum_to_one(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(200):
            rho = DensityMatrix(random_density(dim, rng))
            w, _ = eig_hermitian(rho.matrix)
            assert abs(float(w.sum()) - 1.0) < 1e-9


# what numpy reads as bools, strings, bytes or objects, or as complex numbers
# outside a density matrix, is not a value
NOT_NUMBERS = {
    "density-strings": (lambda: DensityMatrix([["1", "0"], ["0", "0"]]), NotAStateError),
    "density-bools": (lambda: DensityMatrix([[True, False], [False, False]]), NotAStateError),
    "density-bytes": (
        lambda: DensityMatrix(np.array([[b"1", b"0"], [b"0", b"0"]])), NotAStateError
    ),
    "density-objects": (
        lambda: DensityMatrix(np.array([[1, 0], [0, 0]], dtype=object)), NotAStateError
    ),
    "bloch-strings": (lambda: BlochQubit(["0.5", "0", "0"]), ValueError),
    "bloch-complex": (lambda: BlochQubit(np.array([0.5 + 0.1j, 0, 0])), ValueError),
    "rst-bools": (
        lambda: naqc.TwoQubitBloch([True, False, False], [0, 0, 0], np.zeros((3, 3))), ValueError
    ),
    "rst-strings": (
        lambda: naqc.TwoQubitBloch([0, 0, 0], [0, 0, 0], np.full((3, 3), "0")), ValueError
    ),
    "shifts-bytes": (
        lambda: naqc.ShiftValues(np.array([b"1", b"0", b"0"]), naqc.Measure.L1), ValueError
    ),
    "triple-bools": (
        lambda: naqc.CoherenceTriple([True, False, False], naqc.Measure.L1), ValueError
    ),
}


@pytest.mark.parametrize("build, error", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_value_constructors_refuse_non_numbers(build, error):
    with pytest.raises(error, match="must hold numbers, got dtype"):
        build()


L1, RELENT, SKEW = Measure.L1, Measure.RELATIVE_ENTROPY, Measure.SKEW_INFORMATION
NAN3, ZERO3, ZERO33 = np.array([np.nan, 0.0, 0.0]), np.zeros(3), np.zeros((3, 3))
# NaN, and numbers too large for any state, whose arithmetic overflows: each
# constructor raises its own error, and no warning comes before it
NOT_STATES = {
    "density-1e200": (DensityMatrix, [[0.5, 1e200 + 1e200j], [1e200 - 1e200j, 0.5]],
                      NotAStateError, r"entry modulus 1\.414e\+200 exceeds what a state can hold$"),
    "density-1e308-antisymmetric": (DensityMatrix, [[0.5, 1e308], [-1e308, 0.5]],
                                    NotAStateError, r"not Hermitian: max \|M - M\^dag\| = inf"),
    "density-1e308-trace": (DensityMatrix, np.diag([1e308, 1e308, -1e308, -1e308]),
                            NotAStateError, r"trace must be 1, got 0\+0j$"),
    "bloch-nan": (BlochQubit, NAN3, NotAStateError, "Bloch vector norm nan exceeds"),
    "bloch-1e200": (BlochQubit, [1e200, 0, 0], NotAStateError, "Bloch vector norm inf exceeds"),
    "rst-nan-r": (lambda r: TwoQubitBloch(r, ZERO3, ZERO33), NAN3, NotAStateError, r"\|r\| nan"),
    "rst-nan-s": (lambda s: TwoQubitBloch(ZERO3, s, ZERO33), NAN3, NotAStateError, r"\|s\| nan"),
    "rst-nan-T": (lambda T: TwoQubitBloch(ZERO3, ZERO3, T), np.diag(NAN3), NotAStateError,
                  r"\|T_ij\| nan"),
    "rst-1e200": (lambda r: TwoQubitBloch(r, ZERO3, ZERO33), [1e200, 0, 0], NotAStateError,
                  r"\|r\| inf"),
    "triple-nan": (lambda v: CoherenceTriple(v, L1), NAN3, ConsistencyError, "negative or NaN"),
    "triple-1e308": (lambda v: CoherenceTriple(v, L1), [1e308, 1e308, 0], ConsistencyError,
                     "l1 coherence triple sum inf exceeds"),
    "shifts-nan": (lambda v: ShiftValues(v, L1), NAN3, ConsistencyError,
                   "negative or NaN shift value"),
    "shifts-1e308": (lambda v: ShiftValues(v, L1), [1e308, 1e308, 0], ConsistencyError,
                     "shift total inf exceeds"),
}  # fmt: skip


@pytest.mark.parametrize("build, value, error, message", NOT_STATES.values(), ids=NOT_STATES)
def test_value_constructors_refuse_what_no_state_holds(build, value, error, message):
    with pytest.raises(error, match=message):
        build(value)


def value_equality_cases() -> dict:
    """(a, b, *others) of each value type: a and b are equal values, in
    other arrays or with another sign of a zero; every other value differs
    from a and from the rest, in one entry, one field or its type."""
    v = np.array([0.1, -0.2, 0.3])
    rst, triple = to_bloch(bell()), coherence_triple(BlochQubit(np.array([0.3, 0.0, 0.4])), L1)
    b0, b1 = conditional_states(bell(), 1)
    sv = shift_values(bell(), L1)  # made without the constructor, whose guards _shifts has run
    return {
        "bloch": (BlochQubit(v), BlochQubit(v.copy()),
                  BlochQubit(np.array([0.1, -0.2, np.nextafter(0.3, 1.0)])), tuple(v), None),
        "bloch-signed-zero": (BlochQubit([0.0, 0.0, 0.5]), BlochQubit([-0.0, 0.0, 0.5])),
        "two-qubit-bloch": (rst, TwoQubitBloch(rst.r.copy(), rst.s.copy(), rst.T.copy()),
                            TwoQubitBloch(rst.r, rst.s, rst.T + np.outer([1, 0, 0], [0, 0.5, 0]))),
        "coherence-triple": (triple, CoherenceTriple(triple.values.copy(), L1),
                             CoherenceTriple(triple.values, RELENT),
                             CoherenceTriple(triple.values * 0.5, L1)),
        "branch": (b0, conditional_states(DensityMatrix(bell().matrix), 1)[0], b1,
                   ConditionalBranch(b0.axis, b0.outcome, b0.probability, b1.state)),
        "shift-values": (sv, ShiftValues(sv.values.copy(), L1), ShiftValues(sv.values * 0.5, L1),
                         ShiftValues(sv.values * 0.5, SKEW)),
    }  # fmt: skip


VALUE_EQUALITY = value_equality_cases()


@pytest.mark.parametrize("values", VALUE_EQUALITY.values(), ids=VALUE_EQUALITY)
def test_values_compare_and_hash_by_value(values):
    a, b, *others = values
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert all(a != other for other in others)
    assert len({a, b, *others}) == 1 + len(others)


# the arrays that tables and values hand out, each read-only
READ_ONLY = {
    "pauli": (lambda: pauli(1), (2, 2), complex),
    "projector": (lambda: projector(3, 1), (2, 2), complex),
    "density-matrix": (lambda: DensityMatrix(np.eye(2) / 2).matrix, (2, 2), complex),
    "shift-values": (lambda: shift_values(seeded_sample(2, 9000, 3), RELENT).values, (3,), float),
}


@pytest.mark.parametrize("build, shape, dtype", READ_ONLY.values(), ids=READ_ONLY)
def test_handed_out_arrays_are_read_only(build, shape, dtype):
    arr = build()
    assert arr.shape == shape and arr.dtype == dtype
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 5.0


def test_value_constructors_take_integers_and_floats():
    assert DensityMatrix([[1, 0], [0, 0]]) is not None
    assert DensityMatrix(np.eye(4, dtype=np.float32) / 4).nqubits == 2
    assert BlochQubit(np.array([0, 0, 1], dtype=np.uint8)).norm == 1.0
    assert naqc.CoherenceTriple([0, 1, 0.5], naqc.Measure.L1).total == 1.5


@pytest.mark.parametrize(
    "module", ["naqc", "naqc.coherence", "naqc.qcore", "naqc.states", "naqc.steering"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name!r}"


def test_the_package_exports_each_module_name_once():
    """``naqc.__all__`` is ``__version__`` and the modules' lists, in order,
    and each name is its module's object."""
    modules = [naqc.coherence, naqc.qcore, naqc.states, naqc.steering]
    expected = ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert naqc.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(naqc, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    assert "BOUND_TOL" in naqc.coherence.__all__ and "BOUND_TOL" not in naqc.steering.__all__
