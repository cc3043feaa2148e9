"""Matrix Market and plain-text vector files.

Matrices travel as ``matrix coordinate real general`` files with 1-based
indices; vectors as one value per line. Everything is written with 17
significant digits so that float64 values round-trip exactly. Entry lines
are read by one ``np.loadtxt`` call (numpy's C parser) and written by one
C-level ``%`` call per ``_CHUNK`` lines. Not ``scipy.io``: ``mmread``
rejects ``%`` lines between entries and accepts 4-column ones, and
``mmwrite`` adds a ``%`` line after the header.
"""

from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import FormatError, ParameterError
from .sparse import SparseMatrix

__all__ = ["read_matrix_market", "write_matrix_market", "read_vector", "write_vector"]

_HEADER = "%%MatrixMarket matrix coordinate real general"
_CHUNK = 4096


@contextmanager
def _open_text(path, encoding="ascii"):
    """``path`` open for reading; bytes that are not ``encoding`` raise FormatError naming it."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _write_rows(fh, fmt, columns):
    """Write one ``fmt`` line per row of the equal-length ``columns``."""
    for start in range(0, len(columns[0]), _CHUNK):
        parts = [col[start:start + _CHUNK].tolist() for col in columns]
        fh.write((fmt * len(parts[0])) % tuple(chain.from_iterable(zip(*parts))))


def _read_rows(path, fh, n_cols):
    """Parse the rest of ``fh`` (blank and ``%`` lines skipped) into rows."""
    start = fh.tell()  # loadtxt warns on a body with no data line: never hand it one
    if all(line.lstrip()[:1] in ("%", "") for line in iter(fh.readline, "")):
        return np.empty((0, n_cols))
    fh.seek(start)
    try:
        data = np.loadtxt(fh, dtype=np.float64, comments="%", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed line: {exc}") from exc
    if data.shape[1] != n_cols:
        raise FormatError(f"{path}: expected {n_cols} columns, found {data.shape[1]}")
    return data


def write_matrix_market(path, A):
    """Write a SparseMatrix in Matrix Market coordinate format."""
    rows, cols, vals = A.coo_arrays()
    rows += 1  # coo_arrays returns new arrays: go 1-based in place, no copy
    cols += 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER}\n{A.n_rows} {A.n_cols} {A.nnz}\n")
        _write_rows(fh, "%d %d %.16e\n", (rows, cols, vals))


def read_matrix_market(path):
    """Read a ``matrix coordinate real general`` file into a SparseMatrix."""
    with _open_text(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise FormatError(f"{path}: missing MatrixMarket header")
        fields = header.strip().lower().split()
        if fields[1:] != ["matrix", "coordinate", "real", "general"]:
            raise FormatError(
                f"{path}: unsupported format {' '.join(fields[1:])!r}; "
                "only 'matrix coordinate real general' is supported"
            )
        size_line = fh.readline()
        while size_line.startswith("%"):
            size_line = fh.readline()
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in size_line.split())
        except ValueError as exc:
            raise FormatError(f"{path}: malformed size line {size_line!r}") from exc
        data = _read_rows(path, fh, 3)
    if len(data) != nnz:
        raise FormatError(f"{path}: expected {nnz} entries, found {len(data)}")
    if not np.array_equal(np.trunc(data[:, :2]), data[:, :2]):  # also rejects NaN
        raise FormatError(f"{path}: non-integer index")
    rows, cols = data[:, :2].T.astype(np.int64) - 1
    try:
        return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, data[:, 2])
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_vector(path, x):
    """Write a vector as plain text, one value per line."""
    x = np.asarray(x, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, "%.16e\n", (x,))


def read_vector(path):
    """Read a plain-text vector (one value per line)."""
    with _open_text(path) as fh:
        return _read_rows(path, fh, 1)[:, 0]
