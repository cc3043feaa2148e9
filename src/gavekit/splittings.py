"""Matrix splittings A = M - N and the shift matrix specifications.

Each named splitting pins an (M, N) pair and carries the shift matrix Omega
the outer iteration runs with; picard, drs and nmn pin theirs. N is always
constructed as ``M - A`` so the splitting identity holds entrywise in
floating point, while M follows the defining formula for the method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    nsor and naor take ``alpha`` (and naor ``beta``); drs takes ``gamma``.
    """

    name: str
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.name not in KINDS:
            raise ParameterError(f"unknown splitting kind {self.name!r}")
        if self.name == "nsor":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise ParameterError("nsor requires alpha in (0, 2)")
        elif self.name == "naor":
            if self.alpha is None or self.beta is None:
                raise ParameterError("naor requires alpha and beta")
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

    def label(self):
        if self.name == "nsor":
            return f"nsor(alpha={self.alpha:g})"
        if self.name == "naor":
            return f"naor(alpha={self.alpha:g}, beta={self.beta:g})"
        if self.name == "drs":
            return f"drs(gamma={self.gamma:g})"
        return self.name


@dataclass(frozen=True)
class Splitting:
    """An (M, N) pair with M - N = A, and the shift Omega the iteration runs with.

    ``omega`` is the n-by-n shift matrix. picard (zero), drs
    ((2/gamma - 1) * A) and nmn (the Omega it was built with) pin it, and
    the solvers reject a supplied shift for them; for the other kinds it is
    the shift :func:`build_splitting` was given (zero by default), which a
    shift supplied to a solver overrides.
    """

    kind: SplittingKind
    M: SparseMatrix
    N: SparseMatrix
    omega: SparseMatrix
    warnings: tuple = ()

    @property
    def implied_omega(self):
        """The pinned shift of picard, drs and nmn; None for the other kinds."""
        return self.omega if self.kind.name in ("picard", "drs", "nmn") else None

    def shift(self, omega=None):
        """The shift Omega one iteration runs with.

        It is the splitting's own shift unless ``omega`` (an OmegaSpec or
        matrix) is supplied, which is an error for the kinds that pin theirs.
        """
        if omega is None:
            return self.omega
        if self.implied_omega is not None:
            raise ConfigurationError(
                f"splitting {self.kind.name!r} pins its own shift matrix; "
                "do not supply one"
            )
        return resolve_omega(omega, self.M.n_rows)


@dataclass(frozen=True)
class OmegaSpec:
    """Recipe for the shift matrix.

    kind is one of "zero", "scalar" (omega * I), "scaled" (c * base) or
    "explicit" (a given matrix).
    """

    kind: str
    omega: float | None = None
    scale: float | None = None
    base: SparseMatrix | None = None
    matrix: SparseMatrix | None = None

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def scalar(cls, omega):
        return cls("scalar", omega=float(omega))

    @classmethod
    def scaled(cls, c, base):
        return cls("scaled", scale=float(c), base=base)

    @classmethod
    def explicit(cls, matrix):
        return cls("explicit", matrix=matrix)

    def label(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "scalar":
            return f"{self.omega:g}*I"
        if self.kind == "scaled":
            return f"{self.scale:g}*base"
        return "explicit"


def resolve_omega(spec, n):
    """Materialize an OmegaSpec as an n-by-n SparseMatrix."""
    if spec is None:
        return zeros(n)
    if isinstance(spec, SparseMatrix):
        spec = OmegaSpec.explicit(spec)
    if spec.kind == "zero":
        return zeros(n)
    if spec.kind == "scalar":
        return diag_matrix(np.full(n, spec.omega))
    if spec.kind == "scaled":
        if spec.base.shape != (n, n):
            raise DimensionError(
                f"omega base has shape {spec.base.shape}, expected {(n, n)}"
            )
        return sparse_scale(spec.scale, spec.base)
    if spec.kind == "explicit":
        if spec.matrix.shape != (n, n):
            raise DimensionError(
                f"omega matrix has shape {spec.matrix.shape}, expected {(n, n)}"
            )
        return spec.matrix
    raise ParameterError(f"unknown omega kind {spec.kind!r}")


def triangular_parts(A):
    """Split A = D - L - U into diagonal and negated strict triangles.

    D holds the stored diagonal entries of A; L and U are the strictly
    lower and upper triangular parts of -A.
    """
    if not A.is_square:
        raise DimensionError("triangular_parts requires a square matrix")
    n = A.n_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.row_ptr))
    cols = A.col_idx

    def part(mask, sign):
        # masking keeps the row-major order, so only the row counts change
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=row_ptr[1:])
        return SparseMatrix(n, n, row_ptr, cols[mask], sign * A.values[mask])

    return part(rows == cols, 1.0), part(rows > cols, -1.0), part(rows < cols, -1.0)


def build_splitting(A, kind, omega=None):
    """Construct the (M, N) pair for a named splitting of A and its shift.

    The shift is resolved once and stored as ``Splitting.omega``. nmn
    requires ``omega`` and pins it; picard and drs pin their own and accept
    only ``None`` or a zero shift. The other kinds run with ``omega``
    resolved (zero when it is None).
    """
    if not A.is_square:
        raise DimensionError("build_splitting requires a square matrix")
    if isinstance(kind, str):
        kind = SplittingKind(kind)
    n = A.n_rows
    name = kind.name
    warnings = ()

    if name in ("picard", "drs"):
        if omega is not None and resolve_omega(omega, n).max_abs() != 0.0:
            raise ConfigurationError(
                f"{name} pins its own shift matrix; a supplied one must be zero"
            )
        if name == "picard":
            om = zeros(n)
        else:
            om = sparse_scale(2.0 / kind.gamma - 1.0, A)
        return Splitting(kind, M=A, N=zeros(n), omega=om)

    if name == "nmn" and omega is None:
        raise ConfigurationError("nmn requires an explicit shift matrix")
    om = resolve_omega(omega, n)

    if name == "mn":
        return Splitting(kind, M=A, N=zeros(n), omega=om)

    if name == "nmn":
        M = sparse_scale(0.5, sparse_sub(A, om))
        N = sparse_sub(M, A)
        return Splitting(kind, M=M, N=N, omega=om)

    if name == "hss":
        H, S = hermitian_split(A)
        return Splitting(kind, M=H, N=sparse_scale(-1.0, S), omega=om)

    D, L, U = triangular_parts(A)
    if name == "nj":
        M = D
    elif name == "ngs":
        M = sparse_sub(D, L)
    elif name == "nsor":
        M = sparse_sub(sparse_scale(1.0 / kind.alpha, D), L)
    elif name == "naor":
        # (1/alpha) * (D - beta L) written as (1/alpha) D - (beta/alpha) L so
        # that beta == alpha collapses to the nsor matrices bit for bit
        M = sparse_sub(
            sparse_scale(1.0 / kind.alpha, D),
            sparse_scale(kind.beta / kind.alpha, L),
        )
        if kind.wide_parameters:
            warnings = (
                f"naor parameters alpha={kind.alpha:g}, beta={kind.beta:g} are "
                "outside the conventional ranges alpha in (0,2), beta in [0,alpha]",
            )
    else:  # pragma: no cover - KINDS is exhaustive
        raise ParameterError(f"unhandled splitting kind {name!r}")
    N = sparse_sub(M, A)
    return Splitting(kind, M=M, N=N, omega=om, warnings=warnings)
