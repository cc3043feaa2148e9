"""Matrix splittings A = M - N, their shift matrices and the scaled shift recipe.

Each named splitting pins an (M, N) pair and carries the shift matrix Omega
the outer iteration runs with; picard, drs and nmn pin theirs. M follows
the defining formula for the method, and N is ``M - A``, except for hss,
whose N is ``-S`` from :func:`~gavekit.sparse.hermitian_split`. So ``M - N
== A`` holds bitwise for picard, mn, drs, nj and ngs, and up to rounding for
the others: for nsor, naor and nmn ``M - A`` is rounded (nsor with alpha =
0.3, for one), and for hss ``H + S`` is.

The triangular kinds share one rule. With D the diagonal and L the negated
strict lower triangle of A, ``M = c_d D - c_l L``, where ``(c_d, c_l)`` is
(1, 0) for nj, (1, 1) for ngs, (1/alpha, 1) for nsor and (1/alpha,
beta/alpha) for naor; writing naor's ``(1/alpha)(D - beta L)`` this way
makes beta == alpha the nsor matrices bit for bit. M and N hold the
entries of A's pattern that are not exactly zero, as a sparse difference
would keep them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import ConfigurationError, DimensionError, ParameterError
from .sparse import (
    SparseMatrix,
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

        A supplied ``omega`` (a SparseMatrix or an OmegaSpec recipe) replaces
        the splitting's own shift for the kinds that do not pin it. picard and
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
    """The shift ``scale * base``, scaled when resolved; any other shift is a SparseMatrix."""

    scale: float
    base: SparseMatrix

    def __post_init__(self):
        if self.base is None:
            raise ConfigurationError("scaled shift has no base matrix")

    @classmethod
    def scaled(cls, c, base):
        return cls(float(c), base)


def resolve_omega(spec, n):
    """The n-by-n shift matrix: None is zero, an OmegaSpec its ``scale * base``, a matrix itself."""
    if spec is None:
        return zeros(n)
    omega = sparse_scale(spec.scale, spec.base) if isinstance(spec, OmegaSpec) else spec
    if omega.shape != (n, n):
        raise DimensionError(f"omega matrix has shape {omega.shape}, expected {(n, n)}")
    return omega


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
        splitting = _triangular_splitting(A, kind)
    else:
        if name == "hss":
            H, S = hermitian_split(A)
            M, N = H, sparse_scale(-1.0, S)
        else:  # picard, mn, drs
            M, N = A, zeros(n)
        own = sparse_scale(2.0 / kind.gamma - 1.0, A) if name == "drs" else zeros(n)
        splitting = Splitting(kind, M=M, N=N, omega=own)
    return splitting if omega is None else replace(splitting, omega=splitting.shift(omega))


def _triangular_splitting(A, kind):
    """``build_splitting(A, kind)`` for nj, ngs, nsor and naor: M's and N's
    values over A's pattern, from one read of A's CSR arrays (the rule is in
    the module docstring)."""
    name = kind.name
    if name in ("nj", "ngs"):
        c_d, c_l = 1.0, float(name == "ngs")
    else:
        c_d = 1.0 / kind.alpha
        c_l = 1.0 if name == "nsor" else kind.beta / kind.alpha
    n, ptr, cols, a = A.n_rows, A.row_ptr, A.col_idx, A.values
    rows = np.repeat(np.arange(n, dtype=ptr.dtype), np.diff(ptr))
    diag = rows == cols
    m = np.zeros_like(a)
    m[diag] = c_d * a[diag]
    if c_l:
        lower = rows > cols
        m[lower] = c_l * a[lower]
    N, M = _on_pattern(A, m - a), _on_pattern(A, m)  # M takes m over, so last
    warnings = (
        f"naor parameters alpha={kind.alpha:g}, beta={kind.beta:g} are "
        "outside the conventional ranges alpha in (0,2), beta in [0,alpha]",
    ) if kind.wide_parameters else ()
    return Splitting(kind, M=M, N=N, omega=zeros(n), warnings=warnings)


def _on_pattern(A, values):
    """The matrix holding ``values`` (which it takes over) at A's stored
    positions, less the entries that are exactly zero."""
    # scipy drops the zeros in place, so it gets copies of A's read-only indices
    csr = scipy.sparse.csr_matrix((values, A.col_idx.copy(), A.row_ptr.copy()), shape=A.shape)
    csr.eliminate_zeros()
    return SparseMatrix._wrap(csr)
