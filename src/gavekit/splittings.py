"""Matrix splittings A = M - N and the shift matrix specifications.

Each named splitting pins an (M, N) pair and carries the shift matrix Omega
the outer iteration runs with; picard, drs and nmn pin theirs. M follows
the defining formula for the method, and N is ``M - A``, except for hss,
whose N is ``-S`` from :func:`~gavekit.sparse.hermitian_split`. So ``M - N
== A`` holds bitwise for picard, mn, drs, nj and ngs, and up to rounding for
the others: for nsor, naor and nmn ``M - A`` is rounded (nsor with alpha =
0.3, for one), and for hss ``H + S`` is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import ConfigurationError, DimensionError, ParameterError
from .sparse import (
    SparseMatrix,
    diag_matrix,
    hermitian_split,
    sparse_scale,
    sparse_sub,
    zeros,
)

__all__ = [
    "KINDS",
    "SplittingKind",
    "Splitting",
    "OmegaSpec",
    "triangular_parts",
    "build_splitting",
    "resolve_omega",
]

KINDS = ("picard", "mn", "nj", "ngs", "nsor", "naor", "hss", "nmn", "drs")


@dataclass(frozen=True)
class SplittingKind:
    """A named splitting with its relaxation parameters.

    ``name`` is one of: picard, mn, nj, ngs, nsor, naor, hss, nmn, drs.
    Only nsor and naor take ``alpha``, and only naor ``beta``. drs takes
    ``gamma``, which any kind may carry for the Cor36 certificates.
    """

    name: str
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.name not in KINDS:
            raise ParameterError(f"unknown splitting kind {self.name!r}")
        if self.alpha is not None and self.name not in ("nsor", "naor"):
            raise ParameterError(f"{self.name} takes no alpha")
        if self.beta is not None and self.name != "naor":
            raise ParameterError(f"{self.name} takes no beta")
        if self.name == "nsor":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise ParameterError("nsor requires alpha in (0, 2)")
        elif self.name == "naor":
            if self.alpha is None or self.beta is None:
                raise ParameterError("naor requires alpha and beta")
            if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
                raise ParameterError("naor requires finite alpha and beta")
            if self.alpha == 0.0:
                raise ParameterError("naor requires alpha != 0")
        elif self.name == "drs":
            if self.gamma is None or not 0.0 < self.gamma < 2.0:
                raise ParameterError("drs requires gamma in (0, 2)")

    @property
    def wide_parameters(self):
        """True when naor parameters fall outside the conventional ranges."""
        if self.name != "naor":
            return False
        return not (0.0 < self.alpha < 2.0 and 0.0 <= self.beta <= self.alpha)


@dataclass(frozen=True)
class Splitting:
    """An (M, N) pair with M - N = A, and the shift Omega the iteration runs with.

    ``omega`` is the n-by-n shift matrix. picard (zero), drs
    ((2/gamma - 1) * A) and nmn (the Omega it was built with) pin it. For
    the other kinds it is the shift :func:`build_splitting` was given (zero
    by default). :meth:`shift` states the rule for a supplied shift.
    """

    kind: SplittingKind
    M: SparseMatrix
    N: SparseMatrix
    omega: SparseMatrix
    warnings: tuple = ()

    def shift(self, omega=None):
        """The shift Omega one iteration runs with: the one statement of the pin rule.

        A supplied ``omega`` (an OmegaSpec or a SparseMatrix) replaces the
        splitting's own shift for the kinds that do not pin it. picard and
        drs accept only a zero one, which changes nothing; nmn rejects any.
        """
        name = self.kind.name
        if omega is None:
            return self.omega
        if name == "nmn":
            raise ConfigurationError(
                "splitting 'nmn' pins its own shift matrix; do not supply one"
            )
        supplied = resolve_omega(omega, self.M.n_rows)
        if name not in ("picard", "drs"):
            return supplied
        if supplied.max_abs() != 0.0:
            raise ConfigurationError(
                f"{name} pins its own shift matrix; a supplied one must be zero"
            )
        return self.omega


@dataclass(frozen=True)
class OmegaSpec:
    """Recipe for the shift matrix.

    kind is one of "zero", "scalar" (omega * I) or "scaled" (c * base). A
    given matrix needs no recipe: a SparseMatrix is its own shift.
    """

    kind: str
    omega: float | None = None
    scale: float | None = None
    base: SparseMatrix | None = None

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def scalar(cls, omega):
        return cls("scalar", omega=float(omega))

    @classmethod
    def scaled(cls, c, base):
        return cls("scaled", scale=float(c), base=base)


def resolve_omega(spec, n):
    """Materialize an OmegaSpec as an n-by-n SparseMatrix; None is zero, a matrix itself."""
    if isinstance(spec, SparseMatrix):
        if spec.shape != (n, n):
            raise DimensionError(f"omega matrix has shape {spec.shape}, expected {(n, n)}")
        return spec
    if spec is None or spec.kind == "zero":
        return zeros(n)
    if spec.kind == "scalar":
        return diag_matrix(np.full(n, spec.omega))
    if spec.kind == "scaled":
        if spec.base is None:
            raise ConfigurationError("scaled shift has no base matrix")
        if spec.base.shape != (n, n):
            raise DimensionError(f"omega base has shape {spec.base.shape}, expected {(n, n)}")
        return sparse_scale(spec.scale, spec.base)
    raise ParameterError(f"unknown omega kind {spec.kind!r}")


def triangular_parts(A):
    """Split A = D - L - U into diagonal and negated strict triangles.

    D holds the stored diagonal entries of A; L and U are the strictly
    lower and upper triangular parts of -A. The splittings read only D and
    L, which :func:`_diagonal_and_lower` builds alone.
    """
    if not A.is_square:
        raise DimensionError("triangular_parts requires a square matrix")
    return _parts(A, (np.equal, 1.0), (np.greater, -1.0), (np.less, -1.0))


def _diagonal_and_lower(A):
    """``triangular_parts(A)[:2]``, the D and L of a square A, without U."""
    return _parts(A, (np.equal, 1.0), (np.greater, -1.0))


def _parts(A, *tests):
    """For each ``(test, sign)``, ``sign`` times the entries of A whose row
    and column indices pass ``test(row, col)``, as a new n-by-n matrix.

    Each part keeps its entries with one ``flatnonzero`` and one ``take``
    per array, in A's row-major order, so only the row counts change. Its
    row pointers are counted in A's index dtype, so scipy's constructor
    converts no index array of an int32 A.
    """
    n, ptr, cols = A.n_rows, A.row_ptr, A.col_idx
    rows = np.repeat(np.arange(n, dtype=ptr.dtype), np.diff(ptr))
    parts = []
    for test, sign in tests:
        keep = np.flatnonzero(test(rows, cols))
        row_ptr = np.zeros(n + 1, dtype=ptr.dtype)
        np.cumsum(np.bincount(rows.take(keep), minlength=n), out=row_ptr[1:])
        csr = (sign * A.values.take(keep), cols.take(keep), row_ptr)
        parts.append(SparseMatrix._wrap(scipy.sparse.csr_matrix(csr, shape=(n, n))))
    return tuple(parts)


def build_splitting(A, kind, omega=None):
    """Construct the (M, N) pair for a named splitting of A and its shift.

    nmn is built from ``omega``, which it requires. Every other kind is
    built with its own shift, zero or drs's (2/gamma - 1) * A, and then
    takes ``omega`` through :meth:`Splitting.shift`, the pin rule the
    solvers apply to an override.
    """
    if not A.is_square:
        raise DimensionError("build_splitting requires a square matrix")
    if isinstance(kind, str):
        kind = SplittingKind(kind)
    n = A.n_rows
    name = kind.name
    if name == "nmn":
        if omega is None:
            raise ConfigurationError("nmn requires an explicit shift matrix")
        om = resolve_omega(omega, n)
        M = sparse_scale(0.5, sparse_sub(A, om))
        return Splitting(kind, M=M, N=sparse_sub(M, A), omega=om)

    if name in ("nj", "ngs", "nsor", "naor"):
        D, L = _diagonal_and_lower(A)
        splitting = _triangular_splitting(A, kind, D, L)
    else:
        if name == "hss":
            H, S = hermitian_split(A)
            M, N = H, sparse_scale(-1.0, S)
        else:  # picard, mn, drs
            M, N = A, zeros(n)
        own = sparse_scale(2.0 / kind.gamma - 1.0, A) if name == "drs" else zeros(n)
        splitting = Splitting(kind, M=M, N=N, omega=own)
    return splitting if omega is None else replace(splitting, omega=splitting.shift(omega))


def _triangular_splitting(A, kind, D, L):
    """``build_splitting(A, kind)`` for nj, ngs, nsor and naor, from the
    diagonal ``D`` and negated strict lower triangle ``L`` of
    :func:`_diagonal_and_lower` (no splitting reads the upper part), so
    that a caller that builds many such splittings of one ``A`` splits it
    once."""
    name = kind.name
    if name == "nj":
        M = D
    elif name == "ngs":
        M = sparse_sub(D, L)
    elif name == "nsor":
        M = sparse_sub(sparse_scale(1.0 / kind.alpha, D), L)
    else:  # naor
        # (1/alpha) * (D - beta L) written as (1/alpha) D - (beta/alpha) L so
        # that beta == alpha collapses to the nsor matrices bit for bit
        M = sparse_sub(
            sparse_scale(1.0 / kind.alpha, D),
            sparse_scale(kind.beta / kind.alpha, L),
        )
    warnings = (
        f"naor parameters alpha={kind.alpha:g}, beta={kind.beta:g} are "
        "outside the conventional ranges alpha in (0,2), beta in [0,alpha]",
    ) if kind.wide_parameters else ()
    return Splitting(kind, M=M, N=sparse_sub(M, A), omega=zeros(A.n_rows), warnings=warnings)
