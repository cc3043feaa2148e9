"""Shared helpers for the test suite."""

import numpy as np
import pytest

from gavekit import SparseMatrix, diag_matrix


def random_sparse(rng, n_rows, n_cols=None, density=0.3):
    """Random sparse matrix with uniform[-1, 1] entries."""
    if n_cols is None:
        n_cols = n_rows
    dense = rng.uniform(-1.0, 1.0, (n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) >= density] = 0.0
    return SparseMatrix.from_dense(dense)


def random_dominant(rng, n, shift=4.0, density=0.3):
    """Random square matrix with a dominant positive diagonal."""
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense[rng.random((n, n)) >= density] = 0.0
    np.fill_diagonal(dense, shift + rng.uniform(0.0, 1.0, n))
    return SparseMatrix.from_dense(dense)


def with_explicit_zeros(rng, A, frac=0.3):
    """Copy of A with a random share of its stored values set to 0.0."""
    vals = np.where(rng.random(A.nnz) < frac, 0.0, A.values)
    return SparseMatrix(A.n_rows, A.n_cols, A.row_ptr, A.col_idx, vals)


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


def tridiag(lo, mid, hi, n):
    """Dense tridiagonal matrix as a SparseMatrix."""
    dense = np.diag(np.full(n, float(mid)))
    dense += np.diag(np.full(n - 1, float(lo)), -1)
    dense += np.diag(np.full(n - 1, float(hi)), 1)
    return SparseMatrix.from_dense(dense)


def scaled_identity(n, c=1.0):
    return diag_matrix(np.full(n, float(c)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
