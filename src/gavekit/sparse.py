"""Compressed sparse row matrices and the elementwise kernels built on them.

The :class:`SparseMatrix` type is immutable: every operation returns a new
matrix. Within each row the stored column indices are strictly increasing,
so duplicate entries cannot occur. Explicit zeros are allowed in a stored
matrix, but sums and differences run on scipy's compiled CSR kernels and
never store an entry that is exactly zero, whether it came from one operand
or from cancellation. Dropping a zero removes only ``0 * x_j`` terms, so
products with finite vectors are unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import DimensionError, ParameterError

__all__ = [
    "SparseMatrix",
    "spmv",
    "spmv_transpose",
    "abs_vec",
    "sparse_add",
    "sparse_sub",
    "sparse_scale",
    "hermitian_split",
    "identity",
    "diag_matrix",
    "zeros",
]


def as_vector(x, n, what="vector"):
    """Coerce ``x`` to a 1-D float array of length ``n`` or raise."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{what} must be 1-D, got shape {v.shape}")
    if v.shape[0] != n:
        raise DimensionError(f"{what} has length {v.shape[0]}, expected {n}")
    return v


class SparseMatrix:
    """Immutable CSR matrix.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix dimensions.
    row_ptr : array of int, length ``n_rows + 1``
        Offsets into ``col_idx``/``values``; ``row_ptr[0] == 0`` and the
        entries are nondecreasing.
    col_idx : array of int
        Column indices, strictly increasing within each row.
    values : array of float
        Stored entries, parallel to ``col_idx``.
    """

    __slots__ = ("n_rows", "n_cols", "row_ptr", "col_idx", "values", "_csr", "_csr_t")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx, values, validate=True):
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if validate:
            self._validate(n_rows, n_cols, row_ptr, col_idx, values)
        for arr in (row_ptr, col_idx, values):
            arr.flags.writeable = False
        object.__setattr__(self, "n_rows", int(n_rows))
        object.__setattr__(self, "n_cols", int(n_cols))
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_csr", None)
        object.__setattr__(self, "_csr_t", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @staticmethod
    def _validate(n_rows, n_cols, row_ptr, col_idx, values):
        if n_rows < 0 or n_cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if row_ptr.shape != (n_rows + 1,):
            raise ParameterError(f"row_ptr must have length {n_rows + 1}")
        if row_ptr[0] != 0:
            raise ParameterError("row_ptr[0] must be 0")
        if np.any(np.diff(row_ptr) < 0):
            raise ParameterError("row_ptr must be nondecreasing")
        nnz = int(row_ptr[-1])
        if col_idx.shape != (nnz,) or values.shape != (nnz,):
            raise ParameterError("col_idx/values length must equal row_ptr[-1]")
        if nnz:
            if col_idx.min() < 0 or col_idx.max() >= n_cols:
                raise ParameterError("column index out of range")
            # strict increase inside every row; row starts may go backwards
            increasing = np.diff(col_idx) > 0
            new_row = np.zeros(nnz, dtype=bool)
            starts = row_ptr[1:-1]
            new_row[starts[starts < nnz]] = True
            if not np.all(increasing | new_row[1:]):
                raise ParameterError(
                    "column indices must be strictly increasing within each row "
                    "(duplicate entries are forbidden)"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from coordinate triples; duplicate (row, col) pairs raise."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DimensionError("rows, cols, vals must be 1-D of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ParameterError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ParameterError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                i = int(np.flatnonzero(same)[0])
                raise ParameterError(
                    f"duplicate entry at ({rows[i]}, {cols[i]})"
                )
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(n_rows, n_cols, row_ptr, cols, vals, validate=False)

    @classmethod
    def from_dense(cls, arr):
        """Build from a dense array, dropping zero entries."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2:
            raise DimensionError("dense input must be 2-D")
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def from_scipy(cls, mat):
        """Wrap a scipy sparse matrix (canonicalized, explicit zeros kept)."""
        csr = scipy.sparse.csr_matrix(mat).copy()
        csr.sort_indices()
        return cls(
            csr.shape[0],
            csr.shape[1],
            csr.indptr,
            csr.indices,
            csr.data,
            validate=False,
        )

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return int(self.row_ptr[-1])

    @property
    def is_square(self):
        return self.n_rows == self.n_cols

    def to_scipy(self):
        """Return (and cache) the scipy CSR view used by the compute kernels."""
        if self._csr is None:
            csr = scipy.sparse.csr_matrix(
                (self.values, self.col_idx, self.row_ptr),
                shape=(self.n_rows, self.n_cols),
            )
            object.__setattr__(self, "_csr", csr)
        return self._csr

    def to_scipy_transpose(self):
        """Return (and cache) ``A.T`` as scipy CSR, the one place it is built.

        Products on it are bit-identical to products on scipy's transposed
        (CSC) view: each entry sums the same terms in the same order.
        """
        if self._csr_t is None:
            object.__setattr__(self, "_csr_t", self.to_scipy().T.tocsr())
        return self._csr_t

    def to_dense(self):
        return self.to_scipy().toarray()

    def diagonal(self):
        return self.to_scipy().diagonal()

    def transpose(self):
        t = self.to_scipy_transpose()
        return SparseMatrix(t.shape[0], t.shape[1], t.indptr, t.indices, t.data, validate=False)

    @property
    def T(self):
        return self.transpose()

    def coo_arrays(self):
        """Return new (rows, cols, values) arrays, in row-major order."""
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_ptr))
        return rows, self.col_idx.copy(), self.values.copy()

    def inf_norm(self):
        """Maximum absolute row sum."""
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.n_rows)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))
        np.add.at(sums, rows, np.abs(self.values))
        return float(sums.max())

    def max_abs(self):
        return float(np.abs(self.values).max()) if self.nnz else 0.0

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    # -- operator sugar ----------------------------------------------------

    def __matmul__(self, x):
        return spmv(self, x)

    def __add__(self, other):
        return sparse_add(self, other)

    def __sub__(self, other):
        return sparse_sub(self, other)

    def __rmul__(self, c):
        return sparse_scale(c, self)

    def __neg__(self):
        return sparse_scale(-1.0, self)


def identity(n):
    """n-by-n identity matrix."""
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, n, np.arange(n + 1), idx, np.ones(n), validate=False)


def diag_matrix(d):
    """Diagonal matrix storing every given entry, including zeros."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise DimensionError("diagonal must be 1-D")
    n = d.shape[0]
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, n, np.arange(n + 1), idx, d, validate=False)


def zeros(n_rows, n_cols=None):
    """Matrix with no stored entries."""
    if n_cols is None:
        n_cols = n_rows
    return SparseMatrix(
        n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64), [], [], validate=False
    )


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x``."""
    x = as_vector(x, A.n_cols, "x")
    return A.to_scipy() @ x


def spmv_transpose(A, x):
    """Product with the transpose, ``A.T @ x``, without forming it."""
    x = as_vector(x, A.n_rows, "x")
    return A.to_scipy().T @ x


def abs_vec(x):
    """Componentwise absolute value."""
    return np.abs(np.asarray(x, dtype=float))


def _require_same_shape(A, B):
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")


def sparse_add(A, B):
    """Entrywise sum.

    The result structure is the union of both structures minus every entry
    whose sum is exactly zero: neither a zero stored in one operand nor a
    zero from cancellation is kept.
    """
    _require_same_shape(A, B)
    s = A.to_scipy() + B.to_scipy()
    return SparseMatrix(A.n_rows, A.n_cols, s.indptr, s.indices, s.data)


def sparse_scale(c, A):
    """Scalar multiple ``c * A``; the stored structure is preserved."""
    return SparseMatrix(
        A.n_rows, A.n_cols, A.row_ptr, A.col_idx, float(c) * A.values, validate=False
    )


def sparse_sub(A, B):
    """Entrywise difference ``A - B`` (same zero policy as :func:`sparse_add`)."""
    return sparse_add(A, sparse_scale(-1.0, B))


def hermitian_split(A):
    """Split a square matrix into symmetric and antisymmetric parts.

    Returns ``(H, S)`` with ``H = (A + A.T) / 2``, ``S = (A - A.T) / 2``,
    so that ``H + S == A`` entrywise.
    """
    if not A.is_square:
        raise DimensionError("hermitian_split requires a square matrix")
    At = A.transpose()
    H = sparse_scale(0.5, sparse_add(A, At))
    S = sparse_scale(0.5, sparse_sub(A, At))
    return H, S
