"""Compressed sparse row matrices and the elementwise kernels built on them.

A :class:`SparseMatrix` is an immutable handle on one canonical scipy CSR
matrix, whose index dtype scipy chooses; every operation returns a new
matrix. Within each row the column indices are strictly increasing, so
duplicate entries cannot occur. Explicit zeros may be stored, but sums and
differences run on scipy's compiled CSR kernels and never store an entry
that is exactly zero, whether it came from one operand or from
cancellation. Dropping a zero removes only ``0 * x_j`` terms, so
products with finite vectors are unchanged.

Beside the CSR matrix a handle caches, on first use, one pair of product
forms, of itself and of its transpose (:meth:`SparseMatrix.product_forms`):
scipy DIA storage when the entries lie on few diagonals, else CSR; a
symmetric band's two DIA forms are one array. Only the loops that multiply
one matrix many times use them (LSQR, ``spectral_norm``'s Lanczos operator
and the solver's residual), through :func:`_product`, which calls scipy's
compiled kernel for the form directly, the one its ``@`` calls, without
``@``'s per-call dispatch; :func:`spmv` and every one-off product stay on
CSR, so no set-up builds them. A DIA product sums each row's terms in
ascending offset order, which is CSR's column order, plus ``0 * x_j`` terms
for the zeros DIA pads its diagonals with, so over finite vectors it is bit
for bit the CSR product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from .errors import DimensionError, ParameterError

__all__ = [
    "SparseMatrix",
    "spmv",
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
    """Immutable CSR matrix: a read-only handle on one scipy CSR matrix.

    Outside data becomes a matrix through :meth:`from_coo` (or
    :func:`~gavekit.mmio.read_matrix_market`, which calls it); the package
    builds the rest from scipy results it holds without copying.
    ``row_ptr``, ``col_idx`` and ``values`` are the read-only arrays of
    :meth:`to_scipy`, with the index dtype scipy chose (int32 when it fits);
    within each row the column indices are strictly increasing.
    The handle also caches the product forms of ``A`` and ``A.T``
    (:meth:`product_forms`), built together on first use.
    """

    __slots__ = ("_csr", "_forms")

    @classmethod
    def _wrap(cls, csr):
        """Hold a canonical float64 scipy CSR matrix without copying it."""
        for arr in (csr.indptr, csr.indices, csr.data):
            arr.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "_csr", csr)
        object.__setattr__(self, "_forms", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from coordinate triples; duplicate (row, col) pairs raise,
        and so does an index that is not an integer in int64's range."""
        if n_rows < 0 or n_cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        rows = _index_array(rows, "row")
        cols = _index_array(cols, "column")
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DimensionError("rows, cols, vals must be 1-D of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ParameterError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ParameterError("column index out of range")
        shape = (n_rows, n_cols)
        csr = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        # scipy sums duplicate pairs and keeps stored zeros: fewer entries
        # means a duplicate; name the first in row-major order
        if csr.nnz < rows.size:
            ones = np.ones(rows.size)
            counts = scipy.sparse.csr_matrix((ones, (rows, cols)), shape=shape).tocoo()
            i = int(np.argmax(counts.data > 1))
            raise ParameterError(f"duplicate entry at ({counts.row[i]}, {counts.col[i]})")
        return cls._wrap(csr)

    # -- basic queries: all read off the one scipy CSR matrix ---------------

    n_rows = property(lambda self: self._csr.shape[0])
    n_cols = property(lambda self: self._csr.shape[1])
    shape = property(lambda self: self._csr.shape)
    nnz = property(lambda self: self._csr.nnz)
    row_ptr = property(lambda self: self._csr.indptr)
    col_idx = property(lambda self: self._csr.indices)
    values = property(lambda self: self._csr.data)

    @property
    def is_square(self):
        return self.n_rows == self.n_cols

    def to_scipy(self):
        """Return the scipy CSR matrix this handle holds (do not modify it)."""
        return self._csr

    def product_forms(self):
        """Return (and cache) the pair ``(S, ST)`` of scipy matrices that
        repeated products with ``A`` and ``A.T`` run on (do not modify them).

        It is scipy DIA, with ascending offsets, when the stored entries lie
        on ``d`` diagonals with ``0 < d * max(n_rows, n_cols) <= 1.5 * nnz``,
        and otherwise the CSR matrices of ``A`` and ``A.T``. DIA's kernel
        reads every slot of its ``d`` diagonals, CSR's every stored entry
        plus its row pointers: on five full diagonals at n = 10000 and 22500
        DIA takes 0.70-0.75 of CSR's time, and with short extra diagonals
        padding it, the two times cross between ``d * n / nnz`` = 1.38 and
        1.56. When the DIA form of ``A.T`` equals that of ``A``, offset for
        offset and slot for slot, as for a symmetric band, ``ST is S``: one
        array serves both. A DIA product equals the CSR product bit for bit
        over finite vectors (see the module docstring), and a product on the
        CSR of ``A.T`` equals one on scipy's transposed (CSC) view of ``A``:
        each entry sums the same terms in the same order.
        """
        if self._forms is None:
            dia = _banded(self._csr)
            if dia is None:
                forms = (self._csr, self.transpose().to_scipy())
            else:
                dia_t = _dia_transpose(dia)
                same = (dia_t.shape == dia.shape and np.array_equal(dia_t.offsets, dia.offsets)
                        and np.array_equal(dia_t.data, dia.data))
                forms = (dia, dia if same else dia_t)
            object.__setattr__(self, "_forms", forms)
        return self._forms

    def diagonal(self):
        return self._csr.diagonal()

    def transpose(self):
        """``A.T`` as a new handle; the one place a CSR transpose is built."""
        return SparseMatrix._wrap(self._csr.T.tocsr())

    def coo_arrays(self):
        """Return new (rows, cols, values) arrays, in row-major order."""
        coo = self._csr.tocoo()  # its row array is new; col and data may be shared
        return coo.row, coo.col.copy(), coo.data.copy()

    def max_abs(self):
        return float(np.abs(self.values).max()) if self.nnz else 0.0

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def _index_array(idx, what):
    """``idx`` as an int64 array. An integer array is cast as it is (a uint64
    entry past int64 wraps negative, which the range check then refuses);
    anything else must hold only integral values within int64's range."""
    arr = np.asarray(idx)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    try:
        f = arr.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} indices must be integers") from exc
    if not np.all((np.floor(f) == f) & (-(2.0**63) <= f) & (f < 2.0**63)):
        raise ParameterError(f"{what} indices must be integers within int64's range")
    return f.astype(np.int64)


def _abs_sums(A):
    """``(rows, cols, diag)``: the sums of ``|A|``'s off-diagonal entries along
    each row, left to right, and each column, top to bottom, and A's diagonal.
    One ``abs`` of A's CSR, its diagonal slots set to +0.0 (which changes no
    sum), times ones: ``csr_matvec`` on it and ``csc_matvec`` on its ``.T``."""
    off = abs(A.to_scipy())
    off.data[np.repeat(np.arange(A.n_rows), np.diff(off.indptr)) == off.indices] = 0.0
    return off @ np.ones(A.n_cols), off.T @ np.ones(A.n_rows), A.diagonal()


def _banded(csr):
    """``csr`` as scipy DIA with ascending offsets, or None when its entries
    lie on too many diagonals for :meth:`SparseMatrix.product_forms`."""
    if csr.nnz == 0:
        return None
    n_rows, n_cols = csr.shape
    rows = np.repeat(np.arange(n_rows), np.diff(csr.indptr))
    shifted = csr.indices - rows + (n_rows - 1)  # offset + n_rows - 1 >= 0
    present = np.zeros(n_rows + n_cols - 1, dtype=bool)
    present[shifted] = True
    shifted_offsets = np.flatnonzero(present)
    if shifted_offsets.size * max(n_rows, n_cols) > 1.5 * csr.nnz:
        return None
    data = np.zeros((shifted_offsets.size, n_cols))
    data[np.searchsorted(shifted_offsets, shifted), csr.indices] = csr.data
    return scipy.sparse.dia_matrix((data, shifted_offsets - (n_rows - 1)), shape=csr.shape)


def _dia_transpose(dia):
    """The DIA transpose of ``dia``: diagonal ``k`` becomes diagonal ``-k``,
    with ascending offsets, and every slot that holds no entry is zero."""
    n_rows, n_cols = dia.shape
    offsets = dia.offsets
    data = np.zeros((offsets.size, n_rows))
    for d, k in enumerate(offsets.tolist()):
        lo, hi = max(0, -k), min(n_rows, n_cols - k)  # the rows diagonal k meets
        data[offsets.size - 1 - d, lo:hi] = dia.data[d, lo + k : hi + k]
    return scipy.sparse.dia_matrix((data, -offsets[::-1]), shape=(n_cols, n_rows))


def _product(form, x, out=None):
    """``form @ x`` bit for bit, for a product form ``form`` (see
    :meth:`SparseMatrix.product_forms`) and a float64 vector ``x`` of its
    column count; written into ``out`` when one is given, which it then
    returns.

    A DIA or CSR form, the two kinds of product form, runs scipy's
    compiled ``dia_matvec`` or ``csr_matvec``, the kernel its ``@`` calls,
    into a zeroed output, as ``@`` does, without ``@``'s dispatch: 2.7
    against 4.7 us per product with example41's A at n = 576, and within 8%
    of ``@`` from n = 10000 up. Any other operand runs ``form @ x``.
    """
    n_rows, n_cols = form.shape
    if x.shape != (n_cols,):  # the kernels do not check lengths
        raise DimensionError(f"vector has shape {x.shape}, expected ({n_cols},)")
    fmt = getattr(form, "format", None)
    if fmt not in ("dia", "csr"):
        y = form @ x
        if out is None:
            return y
        out[:] = y
        return out
    if out is None:
        out = np.zeros(n_rows)
    else:
        out.fill(0.0)
    if fmt == "dia":
        _sparsetools.dia_matvec(n_rows, n_cols, form.offsets.size, form.data.shape[1],
                                form.offsets, form.data, x, out)
    else:
        _sparsetools.csr_matvec(n_rows, n_cols, form.indptr, form.indices, form.data, x, out)
    return out


def identity(n):
    """n-by-n identity matrix."""
    return diag_matrix(np.ones(n))


def diag_matrix(d):
    """Diagonal matrix storing every given entry, including zeros."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise DimensionError("diagonal must be 1-D")
    n = d.shape[0]
    csr = (np.ascontiguousarray(d), np.arange(n, dtype=np.int64), np.arange(n + 1))
    return SparseMatrix._wrap(scipy.sparse.csr_matrix(csr, shape=(n, n)))


def zeros(n_rows, n_cols=None):
    """Matrix with no stored entries."""
    if n_cols is None:
        n_cols = n_rows
    empty = (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(n_rows + 1, dtype=np.int64))
    return SparseMatrix._wrap(scipy.sparse.csr_matrix(empty, shape=(n_rows, n_cols)))


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x``."""
    x = as_vector(x, A.n_cols, "x")
    return A.to_scipy() @ x


def _require_same_shape(A, B):
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")


def _wrap_sum(csr):
    """Hold scipy's sum or difference ``csr``, with int32 indices when they fit.

    scipy picks the index dtype of a sum of int64-indexed operands from its
    whole index buffer, whose unused tail is uninitialised memory, so that
    sum comes out int32 or int64 from call to call. Rebuilding it from its
    pruned arrays picks from their real contents.
    """
    if csr.indices.dtype == np.int64:
        csr = scipy.sparse.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
    return SparseMatrix._wrap(csr)


def sparse_add(A, B):
    """Entrywise sum.

    The result structure is the union of both structures minus every entry
    whose sum is exactly zero: neither a zero stored in one operand nor a
    zero from cancellation is kept.
    """
    _require_same_shape(A, B)
    return _wrap_sum(A.to_scipy() + B.to_scipy())


def sparse_scale(c, A):
    """Scalar multiple ``c * A``; the stored structure is preserved."""
    csr = (float(c) * A.values, A.col_idx, A.row_ptr)
    return SparseMatrix._wrap(scipy.sparse.csr_matrix(csr, shape=A.shape))


def sparse_sub(A, B):
    """Entrywise difference ``A - B`` (same zero policy as :func:`sparse_add`)."""
    _require_same_shape(A, B)
    return _wrap_sum(A.to_scipy() - B.to_scipy())


def hermitian_split(A):
    """Split a square matrix into symmetric and antisymmetric parts.

    Returns ``(H, S)`` with ``H = (A + A.T) / 2``, ``S = (A - A.T) / 2``.
    ``H + S`` equals ``A`` up to rounding, not bitwise: for ``A = [[1, 0.1],
    [0.2, 3]]`` its (0, 1) entry is off by 1.39e-17. Diagonal entries and
    entries with ``A[i, j] == A[j, i]`` come out exactly.
    """
    if not A.is_square:
        raise DimensionError("hermitian_split requires a square matrix")
    At = A.transpose()
    H = sparse_scale(0.5, sparse_add(A, At))
    S = sparse_scale(0.5, sparse_sub(A, At))
    return H, S
