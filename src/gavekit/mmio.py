"""Matrix Market and plain-text vector files.

Matrices travel as ``matrix coordinate real general`` files with 1-based
indices; vectors as one value per line. Everything is written with 17
significant digits so that float64 values round-trip exactly.

A file's header and size line are read from an open handle; its body is
read by one ``np.loadtxt`` call on the path itself, told how many lines
the handle read before it. numpy parses a path in C, chunk by chunk, where
a handle would hand it one Python line at a time. Indices are parsed as
integers, so a token such as ``1.0`` or ``1e0`` in an index column is a
FormatError, as the format requires. Reading example41's m = 150 ``A``
takes 15.4 ms where parsing the handle's lines as floats took 24.3, and
its ``b`` 3.5 against 4.5 ms (medians of 15, 2-CPU Xeon, numpy 2.4).

Entry lines are written ``_CHUNK`` lines at a time, and within a chunk
each distinct value of a column is formatted once: the paper's problems
hold two to five distinct values, so writing example41's m = 150 ``A``
takes 16 ms where formatting every line took 42 ms. Data whose values are
all distinct pays for the sort and the gather: a random 22,500-entry
vector takes 11.2 against 10.7 ms, a random 200,000-entry matrix 127
against 120 ms (medians on a 2-CPU Xeon, numpy 2.4). Not ``scipy.io``:
``mmread`` rejects ``%`` lines between entries and accepts 4-column ones,
and ``mmwrite`` adds a ``%`` line after the header.
"""

import os
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .sparse import SparseMatrix

__all__ = ["read_matrix_market", "write_matrix_market", "read_vector", "write_vector"]

_HEADER = "%%MatrixMarket matrix coordinate real general"
_CHUNK = 4096
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_INT_VIA_FLOAT = r"loadtxt\(\): Parsing an integer via a float"


@contextmanager
def _open_text(path, encoding="ascii"):
    """``path`` open for reading; bytes that are not ``encoding`` raise FormatError naming it."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _write_rows(fh, formats, columns):
    """Write one line per row of the equal-length ``columns``, ``formats`` side by side.

    Each format ends in a separator byte that no value it formats contains.
    Per chunk and column, each distinct bit pattern (so -0.0 is not 0.0) is
    formatted once, by one ``%`` call, into a NUL-padded table whose rows
    the inverse index gathers; the NULs are dropped from the joined chunk.
    """
    for start in range(0, len(columns[0]), _CHUNK):
        blocks = []
        for spec, col in zip(formats, columns):
            chunk = col[start:start + _CHUNK]
            bits, inverse = np.unique(chunk.view(f"u{chunk.itemsize}"), return_inverse=True)
            values = bits.view(chunk.dtype).tolist()
            text = np.frombuffer(spec * len(values) % tuple(values), np.uint8)
            lengths = np.diff(np.flatnonzero(text == spec[-1]), prepend=-1)
            table = np.zeros((len(values), lengths.max()), np.uint8)
            table[np.arange(table.shape[1]) < lengths[:, None]] = text
            blocks.append(table[inverse])
        fh.write(np.hstack(blocks).tobytes().replace(b"\0", b"").decode("ascii"))


def _read_body(path, fh, skiprows, dtype, ndmin):
    """Parse ``path`` past its first ``skiprows`` lines; blank and ``%`` lines are skipped.

    ``fh`` is open on ``path`` just past those lines and is read up to the
    first data line only: loadtxt warns on a body with no data line, so it is
    never handed one. loadtxt reads the body from the path itself.
    """
    if all(line.lstrip()[:1] in ("%", "") for line in iter(fh.readline, "")):
        return np.empty((0, 1)[:ndmin], dtype)  # (0,) or (0, 1), as ndmin shapes a body
    try:
        with warnings.catch_warnings():
            # numpy 1.23, the floor, still truncates a float token such as 1.5
            # into an integer field with this warning; raised, it fails the
            # line as later numpy does
            warnings.filterwarnings("error", _INT_VIA_FLOAT, DeprecationWarning)
            return np.loadtxt(os.fsdecode(path), dtype=dtype, comments="%",
                              skiprows=skiprows, ndmin=ndmin, encoding="ascii")
    except UnicodeDecodeError:
        raise  # _open_text names the file
    except ValueError as exc:
        raise FormatError(f"{path}: malformed line: {exc}") from exc


def write_matrix_market(path, A):
    """Write a SparseMatrix in Matrix Market coordinate format."""
    rows, cols, vals = A.coo_arrays()
    rows += 1  # coo_arrays returns new arrays: go 1-based in place, no copy
    cols += 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_HEADER}\n{A.n_rows} {A.n_cols} {A.nnz}\n")
        _write_rows(fh, (b"%d ", b"%d ", b"%.16e\n"), (rows, cols, vals))


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
        skiprows = 2  # the header and the size line
        while size_line.startswith("%"):
            size_line = fh.readline()
            skiprows += 1
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in size_line.split())
        except ValueError as exc:
            raise FormatError(f"{path}: malformed size line {size_line!r}") from exc
        data = _read_body(path, fh, skiprows, _ENTRY, ndmin=1)
    if len(data) != nnz:
        raise FormatError(f"{path}: expected {nnz} entries, found {len(data)}")
    rows, cols = data["row"] - 1, data["col"] - 1
    try:
        return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, data["value"])
    except (DimensionError, ParameterError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_vector(path, x):
    """Write a real 1-D vector as plain text, one value per line.

    Anything else is refused before ``path`` is opened, so an existing file
    keeps its bytes.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"{path}: a vector must be 1-D, got shape {x.shape}")
    if np.iscomplexobj(x):
        raise ParameterError(f"{path}: a vector must be real, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, (b"%.16e\n",), (x,))


def read_vector(path):
    """Read a plain-text vector (one value per line)."""
    with _open_text(path) as fh:
        data = _read_body(path, fh, 0, np.float64, ndmin=2)
    if data.shape[1] != 1:
        raise FormatError(f"{path}: expected 1 column, found {data.shape[1]}")
    return data[:, 0]
