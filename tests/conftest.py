"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from gavekit import SparseMatrix, diag_matrix


def from_dense(arr):
    """A SparseMatrix holding the nonzero entries of a dense 2-D array."""
    return SparseMatrix._wrap(scipy.sparse.csr_matrix(np.asarray(arr, dtype=float)))


def dense(A):
    """The dense 2-D array of a SparseMatrix."""
    return A.to_scipy().toarray()


def random_sparse(rng, n_rows, n_cols=None, density=0.3):
    """Random sparse matrix with uniform[-1, 1] entries."""
    if n_cols is None:
        n_cols = n_rows
    dense = rng.uniform(-1.0, 1.0, (n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) >= density] = 0.0
    return from_dense(dense)


def random_dominant(rng, n, shift=4.0, density=0.3):
    """Random square matrix with a dominant positive diagonal."""
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense[rng.random((n, n)) >= density] = 0.0
    np.fill_diagonal(dense, shift + rng.uniform(0.0, 1.0, n))
    return from_dense(dense)


def with_explicit_zeros(rng, A, frac=0.3):
    """Copy of A with a random share of its stored values set to 0.0."""
    vals = np.where(rng.random(A.nnz) < frac, 0.0, A.values)
    csr = scipy.sparse.csr_matrix((vals, A.col_idx, A.row_ptr), shape=A.shape)
    return SparseMatrix._wrap(csr)


def with_int64_indices(A):
    """Copy of A whose scipy CSR holds int64 index arrays."""
    csr = A.to_scipy().copy()
    csr.indices, csr.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
    return SparseMatrix._wrap(csr)


def pinned_splu(X):
    """SuperLU's factor of X itself, from a built CSC copy, with the options
    ``lu_factorize`` pins: a reference that does not go through it."""
    return scipy.sparse.linalg.splu(
        X.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
        relax=1, panel_size=1,
    )


def count_calls(monkeypatch, module, names):
    """Count the calls of ``module``'s functions ``names``, by name."""
    calls = {}
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_products(monkeypatch):
    """Record ``(matrix, transpose)`` for every product on a product form."""
    calls = []
    forms_of = SparseMatrix.product_forms

    class Counted:
        def __init__(self, form, key):
            self.form, self.key, self.shape = form, key, form.shape

        def __matmul__(self, x):
            calls.append(self.key)
            return self.form @ x

    def counted_forms(A):
        S, ST = forms_of(A)
        return Counted(S, (A, False)), Counted(ST, (A, True))

    monkeypatch.setattr(SparseMatrix, "product_forms", counted_forms)
    return calls


def tridiag(lo, mid, hi, n):
    """Dense tridiagonal matrix as a SparseMatrix."""
    dense = np.diag(np.full(n, float(mid)))
    dense += np.diag(np.full(n - 1, float(lo)), -1)
    dense += np.diag(np.full(n - 1, float(hi)), 1)
    return from_dense(dense)


def scaled_identity(n, c=1.0):
    return diag_matrix(np.full(n, float(c)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
