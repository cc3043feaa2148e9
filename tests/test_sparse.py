"""CSR construction, kernels, sum arithmetic, and the symmetric split."""

import numpy as np
import pytest
import scipy.sparse

from gavekit import (
    DimensionError,
    ParameterError,
    SparseMatrix,
    hermitian_split,
    identity,
    sparse_add,
    sparse_scale,
    sparse_sub,
    spmv,
    zeros,
)

from conftest import random_sparse, tridiag, with_explicit_zeros


class TestConstruction:
    def test_validates_row_ptr_start(self):
        with pytest.raises(ParameterError):
            SparseMatrix(2, 2, [1, 1, 1], [0], [1.0])

    def test_validates_row_ptr_monotone(self):
        with pytest.raises(ParameterError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_validates_column_range(self):
        with pytest.raises(ParameterError):
            SparseMatrix(2, 2, [0, 1, 1], [5], [1.0])

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ParameterError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "row_ptr, col_idx, values",
        [([0, 1, 1], [0, 1], [1.0, 2.0]), ([0, 1, 1], [0], [1.0, 2.0])],
    )
    def test_rejects_lengths_other_than_row_ptr_end(self, row_ptr, col_idx, values):
        # scipy alone would keep the first row_ptr[-1] entries and drop the rest
        with pytest.raises(ParameterError):
            SparseMatrix(2, 2, row_ptr, col_idx, values)

    def test_arrays_are_the_read_only_scipy_arrays(self, rng):
        A = random_sparse(rng, 6, 5)
        S = A.to_scipy()
        assert A.row_ptr is S.indptr and A.col_idx is S.indices and A.values is S.data
        for arr in (A.row_ptr, A.col_idx, A.values):
            assert not arr.flags.writeable
        # coo_arrays hands out new, writable arrays: the 1-based shift of
        # the Matrix Market writer must not reach the matrix
        rows, cols, vals = A.coo_arrays()
        for arr in (rows, cols, vals):
            assert arr.flags.writeable
        cols += 1
        vals *= 2.0
        np.testing.assert_array_equal(A.col_idx, S.indices)
        np.testing.assert_array_equal(A.to_dense()[rows, cols - 1], vals / 2.0)

    def test_from_scipy_sums_duplicates(self):
        dup = scipy.sparse.csr_matrix(
            (np.array([1.0, 2.0, 0.0]), np.array([1, 1, 0]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        A = SparseMatrix.from_scipy(dup)
        assert A.nnz == 2  # the duplicate pair summed, the stored zero kept
        np.testing.assert_array_equal(A.col_idx, [1, 0])
        np.testing.assert_array_equal(A.values, [3.0, 0.0])
        np.testing.assert_array_equal(A.to_dense(), dup.toarray())

    def test_constructor_always_validates(self):
        # no flag lets the constructor hold a duplicate entry
        with pytest.raises(TypeError):
            SparseMatrix(2, 2, [0, 2, 2], [1, 1], [1.0, 2.0], validate=False)
        with pytest.raises(ParameterError, match="duplicate"):
            SparseMatrix(2, 2, [0, 2, 2], [1, 1], [1.0, 2.0])

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ParameterError, match="duplicate"):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_immutable(self):
        A = identity(3)
        with pytest.raises(AttributeError):
            A.n_rows = 5
        with pytest.raises(ValueError):
            A.values[0] = 2.0

    def test_dense_round_trip(self, rng):
        for _ in range(10):
            A = random_sparse(rng, 7, 9)
            np.testing.assert_array_equal(
                SparseMatrix.from_dense(A.to_dense()).to_dense(), A.to_dense()
            )


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(spmv(identity(3), x), x)

    def test_tridiagonal_hand_value(self):
        A = tridiag(-1, 4, -1, 3)
        got = spmv(A, np.ones(3))
        np.testing.assert_allclose(got, [3.0, 2.0, 3.0], rtol=0, atol=0)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(spmv(zeros(4, 3), np.ones(3)), np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            spmv(identity(3), np.ones(4))

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            A = random_sparse(rng, 12, 8)
            x = rng.uniform(-1, 1, 8)
            np.testing.assert_allclose(spmv(A, x), A.to_dense() @ x, rtol=1e-13)


class TestSpmvTranspose:
    """Products with ``A.transpose()``, which holds the cached CSR transpose."""

    def test_symmetric_matches_spmv(self):
        A = tridiag(-1, 4, -1, 5)
        x = np.arange(5.0)
        np.testing.assert_array_equal(spmv(A.transpose(), x), spmv(A, x))

    def test_single_entry(self):
        A = SparseMatrix.from_coo(2, 2, [0], [1], [1.0])
        np.testing.assert_array_equal(spmv(A.transpose(), np.array([1.0, 0.0])), [0.0, 1.0])

    def test_dimension_mismatch(self):
        A = SparseMatrix.from_coo(3, 2, [0], [1], [1.0])
        with pytest.raises(DimensionError):
            spmv(A.transpose(), np.ones(2))

    def test_adjoint_identity(self, rng):
        for _ in range(20):
            A = random_sparse(rng, 20, 20)
            x = rng.uniform(-1, 1, 20)
            y = rng.uniform(-1, 1, 20)
            lhs = spmv(A, x) @ y
            rhs = x @ spmv(A.transpose(), y)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_cached_transpose_matches_the_view(self, rng):
        # built once per matrix; products on it equal the CSC view's bit for bit
        A = random_sparse(rng, 30, 17)
        AT = A.to_scipy_transpose()
        assert A.to_scipy_transpose() is AT
        np.testing.assert_array_equal(AT.toarray(), A.to_dense().T)
        y = rng.uniform(-1, 1, 30)
        np.testing.assert_array_equal(AT @ y, A.to_scipy().T @ y)


class TestAddSubScale:
    def test_matches_dense(self, rng):
        for _ in range(20):
            A = random_sparse(rng, 9, 9)
            B = random_sparse(rng, 9, 9)
            # stored zeros in one operand, exact cancellation against -A
            Z = with_explicit_zeros(rng, A)
            for X, Y in ((A, B), (Z, sparse_scale(-1.0, A))):
                for out, dense in (
                    (sparse_add(X, Y), X.to_dense() + Y.to_dense()),
                    (sparse_sub(X, Y), X.to_dense() - Y.to_dense()),
                ):
                    np.testing.assert_array_equal(out.to_dense(), dense)
                    assert np.all(out.values != 0.0)

    def test_cancellation_stores_no_zero(self):
        A = SparseMatrix.from_coo(2, 2, [0], [0], [5.0])
        B = SparseMatrix.from_coo(2, 2, [0], [0], [-5.0])
        out = sparse_add(A, B)
        assert out.nnz == 0

    def test_single_source_zero_dropped(self):
        A = SparseMatrix.from_coo(2, 2, [0], [0], [0.0])  # explicit zero
        out = sparse_add(A, zeros(2))
        assert out.nnz == 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sparse_add(zeros(2), zeros(3))

    def test_scale_preserves_structure(self):
        A = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, 0.0])
        out = sparse_scale(0.0, A)
        assert out.nnz == 2
        np.testing.assert_array_equal(out.values, [0.0, 0.0])


class TestHermitianSplit:
    def test_symmetric_input(self):
        A = tridiag(-1, 4, -1, 4)
        H, S = hermitian_split(A)
        np.testing.assert_array_equal(H.to_dense(), A.to_dense())
        np.testing.assert_array_equal(S.to_dense(), np.zeros((4, 4)))

    def test_antisymmetric_input(self):
        A = SparseMatrix.from_dense(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        H, S = hermitian_split(A)
        np.testing.assert_array_equal(H.to_dense(), np.zeros((2, 2)))
        np.testing.assert_array_equal(S.to_dense(), A.to_dense())

    def test_hand_value(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        H, S = hermitian_split(A)
        np.testing.assert_array_equal(H.to_dense(), [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(S.to_dense(), [[0.0, 1.0], [-1.0, 0.0]])

    def test_recombination_is_exact(self, rng):
        # uniform(-1, 1) draws are multiples of 2**-52, so every sum, difference
        # and half below is exact; hermitian_split's docstring has a case that is not
        for _ in range(20):
            A = random_sparse(rng, 15, 15)
            H, S = hermitian_split(A)
            np.testing.assert_array_equal(
                sparse_add(H, S).to_dense(), A.to_dense()
            )
            np.testing.assert_array_equal(H.to_dense(), H.to_dense().T)
            np.testing.assert_array_equal(S.to_dense(), -S.to_dense().T)

    def test_requires_square(self):
        with pytest.raises(DimensionError):
            hermitian_split(zeros(2, 3))
