"""Numerical evaluation of the sufficient convergence conditions.

Every check returns a :class:`Certificate` carrying the two sides of the
inequality, a strict ``holds`` verdict, and a ``marginal`` flag raised when
the sides are within 1e-4 relative of each other (norm estimates carry
iteration error, so knife-edge verdicts are not reproducible). Inverse
norms are evaluated as ``1 / sigma_min``; no inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .linalg import (
    DENSE_CUTOFF,
    min_singular_value,
    skew_spectral_radius,
    spectral_norm,
    symmetric_eig_extremes,
)
from .sparse import hermitian_split, sparse_add, sparse_sub

__all__ = [
    "Condition",
    "Certificate",
    "check_exact",
    "check_inexact",
    "check_m_inverse",
    "check_scalar_omega",
    "check_corollary",
    "COROLLARY_CONDITIONS",
]

# Relative width of the band around lhs == rhs flagged as marginal.
_MARGINAL_BAND = 1e-4

# Relative Ritz residual for the Lanczos runs behind certificate norms;
# tighter than the library default so the values track dense oracles.
_NORM_RTOL = 1e-10


class Condition(str, Enum):
    EXACT = "ExactEq6"
    INEXACT = "InexactEq15"
    M_INVERSE = "MInverseThm33"
    SCALAR_OMEGA = "ScalarOmegaThm34"
    COR31 = "Cor31"
    COR32 = "Cor32"
    COR33A = "Cor33a"
    COR33B = "Cor33b"
    COR34 = "Cor34"
    COR35A = "Cor35a"
    COR35B = "Cor35b"
    COR36A = "Cor36a"
    COR36B = "Cor36b"


COROLLARY_CONDITIONS = (
    Condition.COR31,
    Condition.COR32,
    Condition.COR33A,
    Condition.COR33B,
    Condition.COR34,
    Condition.COR35A,
    Condition.COR35B,
    Condition.COR36A,
    Condition.COR36B,
)


@dataclass(frozen=True)
class Certificate:
    """One evaluated sufficient condition.

    ``holds`` is the strict comparison ``lhs < rhs`` on the computed
    values; ``marginal`` warns that the margin is inside the honesty band.
    ``norm_details`` records (label, value, method) for every quantity that
    entered the comparison.
    """

    condition: Condition
    lhs: float
    rhs: float
    holds: bool
    marginal: bool
    contraction_factor: float | None = None
    norm_details: tuple = ()

    @property
    def verdict(self):
        if self.marginal:
            return "marginal"
        return "true" if self.holds else "false"

    def format_line(self):
        return (
            f"{self.condition.value} lhs={self.lhs:.16e} rhs={self.rhs:.16e} "
            f"holds={self.verdict}"
        )


def _method(X, dense, iterative):
    """Name the estimator linalg runs on X: dense up to DENSE_CUTOFF."""
    return dense if max(X.shape) <= DENSE_CUTOFF else iterative


class _Norms:
    """Collects (label, value, method) triples while evaluating a condition."""

    def __init__(self):
        self.details = []

    def norm(self, X, label):
        v = spectral_norm(X, rel_tol=_NORM_RTOL)
        self.details.append((label, v, _method(X, "dense_svd", "lanczos")))
        return v

    def inv_norm(self, X, label):
        v = 1.0 / min_singular_value(X)
        method = _method(X, "dense_svd", "lu_shift_invert_lanczos")
        self.details.append((label, v, method))
        return v

    def record(self, label, value, method="input"):
        self.details.append((label, float(value), method))
        return float(value)


def _certificate(condition, lhs, rhs, factor, norms):
    holds = lhs < rhs
    marginal = abs(lhs - rhs) <= _MARGINAL_BAND * (abs(lhs) + abs(rhs))
    return Certificate(
        condition=condition,
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(holds),
        marginal=bool(marginal),
        contraction_factor=factor,
        norm_details=tuple(norms.details),
    )


def _check_theta(theta):
    if not 0.0 <= theta < 1.0:
        raise ParameterError("theta must lie in [0, 1)")
    return float(theta)


def check_exact(A, B, M, N, omega):
    """norm((M+Omega)^-1) * (norm(N+Omega) + norm(B)) < 1."""
    norms = _Norms()
    inv = norms.inv_norm(sparse_add(M, omega), "norm((M+Omega)^-1)")
    n_no = norms.norm(sparse_add(N, omega), "norm(N+Omega)")
    n_b = norms.norm(B, "norm(B)")
    lhs = inv * (n_no + n_b)
    return _certificate(Condition.EXACT, lhs, 1.0, lhs, norms)


def check_inexact(A, B, M, N, omega, theta):
    """norm((Omega+M)^-1) < 1 / (theta*(sums of norms) + norm(Omega+N) + norm(B))."""
    theta = _check_theta(theta)
    norms = _Norms()
    OM = sparse_add(omega, M)
    inv = norms.inv_norm(OM, "norm((Omega+M)^-1)")
    n_om = norms.norm(OM, "norm(Omega+M)")
    n_on = norms.norm(sparse_add(omega, N), "norm(Omega+N)")
    n_b = norms.norm(B, "norm(B)")
    norms.record("theta", theta)
    rhs = 1.0 / (theta * (n_om + n_on + n_b) + n_on + n_b)
    factor = inv * (theta * (n_om + n_on + n_b) + n_on + n_b)
    return _certificate(Condition.INEXACT, inv, rhs, factor, norms)


def check_m_inverse(A, B, M, N, omega, theta):
    """norm(M^-1) bound that avoids factoring Omega+M."""
    theta = _check_theta(theta)
    norms = _Norms()
    inv = norms.inv_norm(M, "norm(M^-1)")
    n_om = norms.norm(sparse_add(omega, M), "norm(Omega+M)")
    n_on = norms.norm(sparse_add(omega, N), "norm(Omega+N)")
    n_b = norms.norm(B, "norm(B)")
    n_o = norms.norm(omega, "norm(Omega)")
    norms.record("theta", theta)
    rhs = 1.0 / (theta * (n_om + n_on + n_b) + n_on + n_b + n_o)
    return _certificate(Condition.M_INVERSE, inv, rhs, None, norms)


def check_scalar_omega(A, B, omega_scalar, theta):
    """Eigenvalue-based condition for the scalar shift omega * I.

    Applies to the symmetric/antisymmetric splitting M = H, N = -S of a
    matrix with positive definite symmetric part. The underlying inequality
    reads ``omega + lambda_min - tau > sqrt(omega^2 + mu_max^2) + theta *
    (...)``; it is stored here with lhs = its right side and rhs = its left
    side, so the usual ``holds = lhs < rhs`` keeps the direction.
    """
    theta = _check_theta(theta)
    w = float(omega_scalar)
    if w <= 0.0:
        raise ParameterError("the scalar shift must be positive")
    H, S = hermitian_split(A)
    lam_min, lam_max = symmetric_eig_extremes(H)
    if lam_min <= 0.0:
        raise ParameterError(
            f"symmetric part is not positive definite (lambda_min = {lam_min:.3e})"
        )
    norms = _Norms()
    method = _method(H, "dense_eigh", "lu_shift_invert_lanczos")
    norms.record("lambda_min(H)", lam_min, method)
    norms.record("lambda_max(H)", lam_max, method)
    mu_max = skew_spectral_radius(S, rel_tol=_NORM_RTOL)
    norms.record("mu_max(S)", mu_max, _method(S, "dense_svd", "lanczos"))
    tau = norms.norm(B, "tau = norm(B)")
    norms.record("omega", w)
    norms.record("theta", theta)
    root = float(np.sqrt(w * w + mu_max * mu_max))
    lhs = root + theta * (w + lam_max + tau + root)
    rhs = w + lam_min - tau
    factor = (theta * (w + lam_max + root + tau) + root + tau) / (w + lam_min)
    return _certificate(Condition.SCALAR_OMEGA, lhs, rhs, factor, norms)


def check_corollary(kind, A=None, B=None, M=None, N=None, omega=None, theta=0.0, gamma=None):
    """Evaluate one of the specialized conditions Cor31 ... Cor36b.

    Which arguments are required depends on the corollary:

    - Cor31: A, B, omega       (inexact MN, shifted inverse)
    - Cor32: A, B, omega       (inexact MN, plain inverse)
    - Cor33a/Cor33b: A, B, omega    (inexact NMN)
    - Cor34: A, B               (inexact Picard)
    - Cor35a/Cor35b: M, N, omega    (AVE, norm(B) = 1)
    - Cor36a/Cor36b: A, gamma   (DRS on the AVE)
    """
    kind = Condition(kind)
    theta = _check_theta(theta)
    norms = _Norms()

    def need(**kwargs):
        missing = [name for name, val in kwargs.items() if val is None]
        if missing:
            raise ParameterError(
                f"{kind.value} requires arguments: {', '.join(missing)}"
            )

    if kind in (Condition.COR31, Condition.COR32):
        need(A=A, B=B, omega=omega)
        n_b = norms.norm(B, "norm(B)")
        n_o = norms.norm(omega, "norm(Omega)")
        OA = sparse_add(omega, A)
        n_oa = norms.norm(OA, "norm(Omega+A)")
        norms.record("theta", theta)
        if kind is Condition.COR31:
            lhs = norms.inv_norm(OA, "norm((Omega+A)^-1)")
            rhs = 1.0 / (n_b + n_o + theta * (n_oa + n_b + n_o))
        else:
            lhs = norms.inv_norm(A, "norm(A^-1)")
            rhs = 1.0 / (n_b + 2.0 * n_o + theta * (n_oa + n_b + n_o))
        return _certificate(kind, lhs, rhs, None, norms)

    if kind in (Condition.COR33A, Condition.COR33B):
        need(A=A, B=B, omega=omega)
        n_b = norms.norm(B, "norm(B)")
        OA = sparse_add(omega, A)
        n_oa = norms.norm(OA, "norm(Omega+A)")
        n_oma = norms.norm(sparse_sub(omega, A), "norm(Omega-A)")
        norms.record("theta", theta)
        if kind is Condition.COR33A:
            lhs = norms.inv_norm(OA, "norm((Omega+A)^-1)")
            rhs = 1.0 / (2.0 * n_b + n_oma + theta * (n_oa + 2.0 * n_b + n_oma))
        else:
            n_o = norms.norm(omega, "norm(Omega)")
            lhs = norms.inv_norm(A, "norm(A^-1)")
            rhs = 1.0 / (
                2.0 * n_b + n_o + n_oma + theta * (n_oa + 2.0 * n_b + n_oma)
            )
        return _certificate(kind, lhs, rhs, None, norms)

    if kind is Condition.COR34:
        need(A=A, B=B)
        n_b = norms.norm(B, "norm(B)")
        n_a = norms.norm(A, "norm(A)")
        norms.record("theta", theta)
        lhs = norms.inv_norm(A, "norm(A^-1)")
        rhs = 1.0 / (n_b + theta * (n_a + n_b))
        return _certificate(kind, lhs, rhs, None, norms)

    if kind in (Condition.COR35A, Condition.COR35B):
        need(M=M, N=N, omega=omega)
        OM = sparse_add(omega, M)
        n_om = norms.norm(OM, "norm(Omega+M)")
        n_on = norms.norm(sparse_add(omega, N), "norm(Omega+N)")
        norms.record("theta", theta)
        if kind is Condition.COR35A:
            lhs = norms.inv_norm(OM, "norm((Omega+M)^-1)")
            rhs = 1.0 / (theta * (n_om + n_on + 1.0) + n_on + 1.0)
        else:
            n_o = norms.norm(omega, "norm(Omega)")
            lhs = norms.inv_norm(M, "norm(M^-1)")
            rhs = 1.0 / (theta * (n_om + n_on + 1.0) + n_on + n_o + 1.0)
        return _certificate(kind, lhs, rhs, None, norms)

    if kind in (Condition.COR36A, Condition.COR36B):
        need(A=A, gamma=gamma)
        if not 0.0 < gamma < 2.0:
            raise ParameterError("gamma must lie in (0, 2)")
        n_a = norms.norm(A, "norm(A)")
        norms.record("gamma", gamma)
        norms.record("theta", theta)
        lhs = norms.inv_norm(A, "norm(A^-1)")
        if kind is Condition.COR36A:
            rhs = 1.0 / (
                theta * ((2.0 - gamma / 2.0) * n_a + 1.0)
                + 2.0 * (1.0 - gamma / 2.0) * n_a
                + 1.0
            )
        else:
            rhs = 1.0 / (
                theta * ((4.0 / gamma - 1.0) * n_a + 1.0)
                + 2.0 * (2.0 / gamma - 1.0) * n_a
                + 1.0
            )
        return _certificate(kind, lhs, rhs, None, norms)

    raise ParameterError(f"{kind.value} is not a corollary condition")
