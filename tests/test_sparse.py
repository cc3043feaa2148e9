"""CSR construction, kernels, sum arithmetic, and the symmetric split."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from gavekit import (
    DimensionError,
    OmegaSpec,
    ParameterError,
    SparseMatrix,
    SplittingKind,
    build_splitting,
    gen_example41,
    hermitian_split,
    identity,
    sparse_add,
    sparse_scale,
    sparse_sub,
    spmv,
    zeros,
)

from gavekit.sparse import _abs_sums, _dia_transpose, _product

from conftest import (
    from_dense,
    random_dominant,
    random_sparse,
    tridiag,
    with_explicit_zeros,
    with_int64_indices,
)


class TestConstruction:
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

    def test_constructor_always_validates(self):
        # from_coo is the one way in from outside data, and no flag lets it
        # hold a duplicate entry
        with pytest.raises(TypeError):
            SparseMatrix(2, 2, [0, 1, 1], [0], [1.0])
        with pytest.raises(TypeError):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0], validate=False)

    def test_validates_column_range(self):
        # and the row range
        for rows, cols in (([2], [0]), ([0], [5]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(ParameterError, match="index out of range"):
                SparseMatrix.from_coo(2, 2, rows, cols, [1.0])

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ParameterError, match="duplicate"):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0.5, 1.9], [0, 1]),  # used to become rows 0 and 1
            ([0, 1], [0.0, 1.5]),
            ([np.nan, 1], [0, 1]),
            ([np.inf, 1], [0, 1]),
            ([2**63, 1], [0, 1]),
            ([2**64, 1], [0, 1]),
            (np.array([2**63, 1], dtype=np.uint64), [0, 1]),
            ([-1.0, 1], [0, 1]),
            (["a", "b"], [0, 1]),
        ],
        ids=["fractional-rows", "fractional-cols", "nan", "inf", "2**63", "2**64",
             "uint64-2**63", "negative-float", "text"],
    )
    def test_from_coo_rejects_indices_that_are_not_int64_integers(self, rows, cols):
        with pytest.raises(ParameterError):
            SparseMatrix.from_coo(2, 2, rows, cols, [1.0, 2.0])

    def test_from_coo_takes_integral_floats_and_integer_arrays(self):
        want = [[0.0, 2.0], [1.0, 0.0]]
        for rows in ([1.0, 0.0], np.array([1, 0], dtype=np.int32),
                     np.array([1, 0], dtype=np.uint64)):
            A = SparseMatrix.from_coo(2, 2, rows, [0, 1], [1.0, 2.0])
            np.testing.assert_array_equal(A.to_dense(), want)

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
                from_dense(A.to_dense()).to_dense(), A.to_dense()
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

    def test_transpose_matches_the_view(self, rng):
        # products on the CSR transpose equal the CSC view's bit for bit
        A = random_sparse(rng, 30, 17)
        AT = A.transpose().to_scipy()
        np.testing.assert_array_equal(AT.toarray(), A.to_dense().T)
        for y in (rng.uniform(-1, 1, 30), rng.standard_normal(30) * 1e3):
            np.testing.assert_array_equal(_bits(AT @ y), _bits(A.to_scipy().T @ y))


def _example41_matrices(m, mu):
    """A, B, and Omega+M and Omega+N of nj, ngs and nsor with Omega = hatM."""
    _, prob, hat = gen_example41(m, mu)
    mats = {"A": prob.A, "B": prob.B}
    for kind in (SplittingKind("nj"), SplittingKind("ngs"), SplittingKind("nsor", alpha=1.3)):
        s = build_splitting(prob.A, kind, OmegaSpec.scaled(1.0, hat))
        mats[f"{kind.name} Omega+M"] = sparse_add(s.omega, s.M)
        mats[f"{kind.name} Omega+N"] = sparse_add(s.omega, s.N)
    return mats


def _bits(y):
    return y.view(np.uint64)


@pytest.mark.filterwarnings("error::scipy.sparse.SparseEfficiencyWarning")
class TestProductForm:
    """``product_forms``: DIA on few diagonals, bit for bit the CSR products."""

    @staticmethod
    def _vectors(rng, n):
        signed_zeros = rng.uniform(-1, 1, n)
        signed_zeros[0::3] = 0.0
        signed_zeros[1::3] = -0.0
        return [rng.uniform(-1, 1, n), rng.standard_normal(n) * 1e3, signed_zeros]

    def _assert_bitwise(self, rng, A):
        form, form_t = A.product_forms()
        S = A.to_scipy()
        for x in self._vectors(rng, A.n_cols):
            np.testing.assert_array_equal(_bits(form @ x), _bits(S @ x))
        for y in self._vectors(rng, A.n_rows):
            np.testing.assert_array_equal(_bits(form_t @ y), _bits(S.T @ y))
            np.testing.assert_array_equal(_bits(form_t @ y), _bits(A.transpose().to_scipy() @ y))

    @pytest.mark.parametrize("m", [24, 25])
    @pytest.mark.parametrize("mu", [4.0, -1.0])
    def test_example41_matrices_are_dia_and_bitwise_csr(self, rng, m, mu):
        for name, A in _example41_matrices(m, mu).items():
            form, form_t = A.product_forms()
            assert form.format == form_t.format == "dia", name
            for f in (form, form_t):  # ascending offsets give CSR's summation order
                assert (np.diff(f.offsets) > 0).all(), name
            np.testing.assert_array_equal(form.toarray(), A.to_dense())
            np.testing.assert_array_equal(form_t.toarray(), A.to_dense().T)
            self._assert_bitwise(rng, A)

    def test_padded_and_stored_zeros(self, rng):
        # hatM's +-1 diagonals have no entry at a block edge, so DIA pads
        # zeros there; the second matrix also stores zeros in CSR
        A = gen_example41(24, 4.0)[1].A
        form = A.product_forms()[0]
        upper = form.data[list(form.offsets).index(1), 1:]  # A[j - 1, j], j = 1, 2, ...
        assert (upper == 0.0).sum() == 24 - 1
        Z = with_explicit_zeros(rng, A)
        assert (Z.values == 0.0).any() and Z.product_forms()[0].format == "dia"
        for X in (A, Z):
            self._assert_bitwise(rng, X)

    def test_rectangular_band(self, rng):
        dense = np.triu(np.tril(rng.uniform(1, 2, (30, 40)), 3), -1)
        A = from_dense(dense)
        form, form_t = A.product_forms()
        assert form.format == "dia" and form_t.shape == (40, 30)
        self._assert_bitwise(rng, A)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_dominant(rng, 40),
            lambda rng: from_dense(np.full((600, 1), 0.5)),
            lambda rng: from_dense(np.full((1, 600), 0.5)),
            lambda rng: zeros(4, 3),
            lambda rng: zeros(0),
        ],
        ids=["random_dominant", "column", "row", "empty", "order0"],
    )
    def test_many_diagonals_keep_csr(self, rng, make):
        A = make(rng)
        form, form_t = A.product_forms()
        assert form is A.to_scipy() and form_t.format == "csr"
        np.testing.assert_array_equal(form_t.toarray(), A.to_dense().T)
        if A.nnz:
            self._assert_bitwise(rng, A)

    def test_cached(self):
        A = gen_example41(6, 4.0)[1].A
        assert A.product_forms() is A.product_forms()


class TestProduct:
    """``_product``: scipy's kernel for each form, bit for bit ``form @ x``."""

    @staticmethod
    def _matrices(rng):
        _, prob, hat = gen_example41(12, -1.0)
        band = from_dense(np.triu(np.tril(rng.uniform(1, 2, (30, 40)), 3), -1))
        return {
            **_example41_matrices(12, -1.0),
            "hatM": hat,
            "band 30x40": band,
            "band 40x30": band.transpose(),
            "random_dominant": random_dominant(rng, 40),
            "random 30x17": random_sparse(rng, 30, 17, density=0.8),
            "stored zeros": with_explicit_zeros(rng, prob.A),
        }

    @staticmethod
    def _forms(A):
        """Both product forms, and scipy's CSC views of A.T and of A, which
        take the ``form @ x`` fallback."""
        S, ST = A.product_forms()
        return [S, ST, A.to_scipy().T, A.transpose().to_scipy().T]

    def test_every_form_bitwise_with_and_without_a_buffer(self, rng):
        formats = set()
        for name, A in self._matrices(rng).items():
            for form in self._forms(A):
                formats.add(form.format)
                n_rows, n_cols = form.shape
                out = np.full(n_rows, np.nan)  # stale content the product must clear
                for x in TestProductForm._vectors(rng, n_cols):
                    want = _bits(form @ x)
                    np.testing.assert_array_equal(_bits(_product(form, x)), want, err_msg=name)
                    assert _product(form, x, out) is out
                    np.testing.assert_array_equal(_bits(out), want, err_msg=name)
        assert formats == {"dia", "csr", "csc"}

    def test_other_operands_fall_back_to_matmul(self, rng):
        A = random_sparse(rng, 7, 5, density=0.6)
        x = rng.uniform(-1, 1, 5)
        for form in (A.to_scipy().tocoo(), scipy.sparse.linalg.aslinearoperator(A.to_scipy())):
            want = _bits(form @ x)
            np.testing.assert_array_equal(_bits(_product(form, x)), want)
            out = np.full(7, np.nan)
            assert _product(form, x, out) is out
            np.testing.assert_array_equal(_bits(out), want)

    def test_length_is_checked(self, rng):
        form = random_sparse(rng, 7, 5).product_forms()[0]
        for x in (np.ones(4), np.ones(7), np.ones((5, 1))):
            with pytest.raises(DimensionError):
                _product(form, x)

    def test_one_array_serves_a_symmetric_band(self, rng):
        shared = set()
        for name, A in self._matrices(rng).items():
            S, ST = A.product_forms()
            if S.format != "dia":
                assert ST is not S, name
                continue
            T = _dia_transpose(S)
            equal = (T.shape == S.shape and np.array_equal(T.offsets, S.offsets)
                     and np.array_equal(T.data, S.data))
            assert (ST is S) == equal, name
            if equal:
                shared.add(name)
            np.testing.assert_array_equal(ST.toarray(), A.to_dense().T, err_msg=name)
        assert shared == {"A", "B", "hatM", "nj Omega+M", "nj Omega+N"}


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

    def test_int64_operands_give_int32_indices(self, rng):
        # scipy picks a sum's index dtype from its whole index buffer, unused
        # tail included; a freed buffer of large indices of the buffer's size
        # is what numpy's allocator hands that sum next, tail and all
        A = with_int64_indices(random_sparse(rng, 9, 9))
        for B in (with_int64_indices(sparse_scale(-1.0, A)), random_sparse(rng, 9, 9)):
            for op, dense in ((sparse_add, A.to_dense() + B.to_dense()),
                              (sparse_sub, A.to_dense() - B.to_dense())):
                for _ in range(5):
                    junk = np.full(A.nnz + B.nnz, 2**40, dtype=np.int64)
                    del junk
                    out = op(A, B)
                    assert out.row_ptr.dtype == out.col_idx.dtype == np.int32
                    np.testing.assert_array_equal(out.to_dense(), dense)

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
        A = from_dense(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        H, S = hermitian_split(A)
        np.testing.assert_array_equal(H.to_dense(), np.zeros((2, 2)))
        np.testing.assert_array_equal(S.to_dense(), A.to_dense())

    def test_hand_value(self):
        A = from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
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


def _abs_sums_cases(rng):
    """(name, matrix): small matrices on which a summation order shows."""
    def binades(shape):
        mag = rng.uniform(1.0, 2.0, shape) * 2.0 ** rng.integers(-60, 61, shape)
        return mag * rng.choice([-1.0, 1.0], shape) * (rng.random(shape) < 0.6)

    wide = rng.uniform(-1.0, 1.0, (60, 60)) * (rng.random((60, 60)) < 0.1)
    wide[[3, 17]] = rng.uniform(-1.0, 1.0, (2, 60))
    wide[:, 41] = rng.uniform(-1.0, 1.0, 60)
    yield "wide rows and a wide column", from_dense(wide)
    yield "entries spanning 120 binades", from_dense(binades((40, 40)))
    missing = binades((30, 30))
    missing[np.arange(0, 30, 3), np.arange(0, 30, 3)] = 0.0
    yield "missing diagonal entries", from_dense(missing)
    full = from_dense(binades((30, 30)) + np.diag(rng.uniform(1.0, 2.0, 30)))
    vals = full.values.copy()
    on_diag = np.repeat(np.arange(30), np.diff(full.row_ptr)) == full.col_idx
    vals[np.flatnonzero(on_diag)[::4]] = 0.0
    vals[np.flatnonzero(~on_diag)[::5]] = 0.0
    zeros_csr = scipy.sparse.csr_matrix((vals, full.col_idx, full.row_ptr), shape=full.shape)
    yield "stored zeros on and off the diagonal", SparseMatrix._wrap(zeros_csr)
    yield "int64 indices", with_int64_indices(from_dense(binades((40, 40))))
    yield "rectangular 12 x 70", from_dense(binades((12, 70)))


class TestAbsSums:
    """``_abs_sums`` against sequential float sums and exact ones."""

    def test_each_sum_is_the_sequential_sum_within_gamma_of_the_exact_one(self, rng):
        inexact = unlike_pairwise = 0
        for name, X in _abs_sums_cases(rng):
            rows, cols, diag = _abs_sums(X)
            np.testing.assert_array_equal(diag, X.to_dense().diagonal(), err_msg=name)
            r, c, v = X.coo_arrays()  # row-major, ascending columns in a row
            k = max(np.bincount(r).max(), np.bincount(c).max())  # widest row or column
            u = Fraction(2) ** -53
            gamma = (k - 1) * u / (1 - (k - 1) * u)
            assert (rows.size, cols.size) == X.shape
            row_major, col_major = np.arange(r.size), np.lexsort((r, c))
            for sums, order, line in ((rows, row_major, r), (cols, col_major, c)):
                keep = order[r[order] != c[order]]  # off-diagonal, in summation order
                for i, got in enumerate(sums.tolist()):
                    terms = np.abs(v[keep[line[keep] == i]]).tolist()
                    seq = 0.0
                    for t in terms:
                        seq += t
                    assert got.hex() == seq.hex(), (name, i)
                    exact = sum(map(Fraction, terms), Fraction(0))
                    assert abs(Fraction(got) - exact) <= gamma * exact, (name, i)
                    inexact += Fraction(got) != exact
                    unlike_pairwise += got != float(np.sum(terms))
        # the sequential sums are not the exact ones, nor numpy's pairwise ones
        assert inexact > 0 and unlike_pairwise > 0

    def test_case_matrices_have_what_their_names_say(self, rng):
        cases = dict(_abs_sums_cases(rng))
        zeros_case = cases["stored zeros on and off the diagonal"]
        r, c, v = zeros_case.coo_arrays()
        assert np.any((v == 0.0) & (r == c)) and np.any((v == 0.0) & (r != c))
        r, c, _ = cases["missing diagonal entries"].coo_arrays()
        assert np.unique(r[r == c]).size < 30
        assert cases["int64 indices"].col_idx.dtype == np.int64
        assert cases["rectangular 12 x 70"].shape == (12, 70)
        assert np.diff(cases["wide rows and a wide column"].row_ptr).max() == 60
