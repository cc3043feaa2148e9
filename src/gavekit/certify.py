"""Numerical evaluation of the sufficient convergence conditions.

Every condition evaluates to a :class:`Certificate` carrying the two sides
of the inequality, a strict ``holds`` verdict, and a ``marginal`` flag raised
when the sides are within 1e-4 relative of each other (norm estimates carry
iteration error, so knife-edge verdicts are not reproducible). Inverse
norms are evaluated as ``1 / sigma_min``; no inverse is ever formed.

Each condition is a formula over named quantities such as ``norm(Omega+N)``
and ``norm((Omega+M)^-1)``, and each quantity has one label in
``norm_details``. One :func:`evaluate` call assembles each shifted sum
and estimates each norm and inverse norm of a distinct matrix at most once,
however many of its conditions and labels read it (with a zero shift,
``norm((Omega+A)^-1)`` is ``norm(A^-1)``); nothing is kept from one call
to the next.

Every estimated quantity is a Lanczos estimate at every matrix size,
labelled ``lanczos`` (a norm, ``mu_max(S)``) or ``lu_shift_invert_lanczos``
(an inverse norm, ``lambda(H)``); an input is labelled ``input``. Each norm
and inverse norm runs to relative Ritz residual ``_NORM_RTOL`` = 1e-6, so
it is within 1e-6/2 relative of the true value, assuming the Ritz value
tracks the top eigenvalue (see the comment at ``_NORM_RTOL``), and each
side of a condition within about 1e-6, well inside the marginal band. A
verdict is an estimate, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .linalg import (
    min_singular_value,
    skew_spectral_radius,
    spectral_norm,
    symmetric_eig_extremes,
)
from .sparse import hermitian_split, sparse_add, sparse_sub

__all__ = [
    "Condition",
    "Certificate",
    "evaluate",
    "check_inexact",
    "check_corollary",
    "COROLLARY_CONDITIONS",
]

# Relative width of the band around lhs == rhs flagged as marginal.
_MARGINAL_BAND = 1e-4

# Relative Ritz residual tau for every Lanczos run behind a certificate's
# norms and inverse norms, at every matrix size (lambda(H) runs at
# symmetric_eig_extremes' tighter default), derived from the marginal
# band. The Lanczos kernel stops when the Ritz residual estimate
# r = beta_j * |s_j| of the top Ritz value theta of a
# symmetric PSD operator has r <= tau * theta; some eigenvalue then lies
# within r of theta, with no gap needed, and the top Ritz value approaches
# it from below. The plain recurrence keeps both facts up to O(eps) in
# floating point, orthogonality lost or not (Paige 1980). So each norm
# sqrt(theta) and each inverse norm 1/sigma_min is within tau/2 relative
# (sigma_min of a symmetric X with Gershgorin lo >= 0 is lambda_min, from
# the top Ritz value of (X - s I)^-1 at s = max(lo - delta, 0) run to tau/2,
# which puts it within tau/2 * (lambda_min - s) / lambda_min <= tau/2 and,
# as on the (X.T X)^-1 path, errs only high, so the inverse norm errs low),
# and every side of ExactEq6 and of the _BOUNDS conditions, a product or a
# positive combination of such quantities, is within tau relative (first
# order): 100x inside _MARGINAL_BAND, so no verdict outside the band flips
# on the tolerance. ScalarOmegaThm34's rhs is a difference, so its error is
# absolute, tau/2 * norm(B), not relative. The one assumption is the one the
# seeded start already makes: that the Ritz value tracks the top eigenvalue
# rather than converging to a lower one. A verdict is an estimate, not a
# proof.
_NORM_RTOL = 1e-6


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


class _Quantities:
    """The inputs of one :func:`evaluate` call and the quantities read from them.

    A sum ``Omega+X`` or ``Omega-X`` is assembled at its first use; with an
    Omega of no stored entry, ``Omega+X`` is X itself when X stores no zero,
    as ``sparse_add`` would return X bit for bit. Each norm and inverse norm
    is estimated once per distinct matrix, however many labels name it.
    ``details`` collects the (label, value, method) triples of the
    certificate being evaluated.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.matrices = {name: inputs[name] for name in ("A", "B", "M", "N")}
        self.matrices["Omega"] = inputs["omega"]
        self.estimates = {}  # (method, id of the matrix) -> value
        self.details = {}

    def matrix(self, name):
        if name not in self.matrices:  # "Omega+X" or "Omega-X"
            omega, X = self.matrices["Omega"], self.matrices[name[6:]]
            if name[5] == "-":
                self.matrices[name] = sparse_sub(omega, X)
            elif omega.nnz == 0 and omega.shape == X.shape and np.all(X.values):
                self.matrices[name] = X
            else:
                self.matrices[name] = sparse_add(omega, X)
        return self.matrices[name]

    def norm(self, name):
        X = self.matrix(name)
        key = "lanczos", id(X)
        if key not in self.estimates:
            self.estimates[key] = spectral_norm(X, rel_tol=_NORM_RTOL)
        return self.record(f"norm({name})", self.estimates[key], "lanczos")

    def inv_norm(self, name):
        label = f"norm(({name})^-1)" if len(name) > 1 else f"norm({name}^-1)"
        X = self.matrix(name)
        key = "lu_shift_invert_lanczos", id(X)
        if key not in self.estimates:
            self.estimates[key] = 1.0 / min_singular_value(X, rel_tol=_NORM_RTOL)
        return self.record(label, self.estimates[key], "lu_shift_invert_lanczos")

    def record(self, label, value, method="input"):
        self.details[label] = (float(value), method)
        return float(value)


def _exact(q):
    lhs = q.inv_norm("Omega+M") * (q.norm("Omega+N") + q.norm("B"))
    return lhs, 1.0, lhs


def _scalar_omega(q):
    """Theorem 3.4, for the scalar shift omega * I and the splitting M = H, N = -S.

    H and S are the symmetric and antisymmetric parts of A, and H must be
    positive definite. The theorem reads ``omega + lambda_min - tau >
    sqrt(omega^2 + mu_max^2) + theta * (...)``; lhs is its right side and
    rhs its left side, so the usual ``holds = lhs < rhs`` keeps the direction.
    """
    H, S = hermitian_split(q.matrix("A"))
    lam_min, lam_max = symmetric_eig_extremes(H)
    if lam_min <= 0.0:
        raise ParameterError(
            f"symmetric part is not positive definite (lambda_min = {lam_min:.3e})"
        )
    q.record("lambda_min(H)", lam_min, "lu_shift_invert_lanczos")
    q.record("lambda_max(H)", lam_max, "lu_shift_invert_lanczos")
    mu_max = skew_spectral_radius(S, rel_tol=_NORM_RTOL)
    q.record("mu_max(S)", mu_max, "lanczos")
    tau = q.norm("B")
    w = q.record("omega", q.inputs["omega_scalar"])
    theta = q.inputs["theta"]
    root = float(np.sqrt(w * w + mu_max * mu_max))
    lhs = root + theta * (w + lam_max + tau + root)
    rhs = w + lam_min - tau
    factor = (theta * (w + lam_max + root + tau) + root + tau) / (w + lam_min)
    return lhs, rhs, factor


# The two conditions with a formula of their own: (the evaluate() inputs
# each reads, the formula giving lhs, rhs and the contraction factor).
_OWN_FORMULAS = {
    Condition.EXACT: ("B M N omega", _exact),
    Condition.SCALAR_OMEGA: ("A B omega_scalar theta", _scalar_omega),
}

# The conditions norm(X^-1) < 1/den: (the evaluate() inputs each reads, X,
# the norms den reads, den(theta, gamma, *norms)). The corollaries serve
# inexact MN (Cor31, Cor32), NMN (Cor33a/b) and Picard (Cor34), the AVE
# with norm(B) = 1 (Cor35a/b) and DRS on the AVE (Cor36a/b).
_BOUNDS = {
    Condition.INEXACT: ("B M N omega theta", "Omega+M", "Omega+M Omega+N B",
                        lambda t, g, om, on, b: t * (om + on + b) + on + b),
    Condition.M_INVERSE: ("B M N omega theta", "M", "Omega+M Omega+N B Omega",
                          lambda t, g, om, on, b, o: t * (om + on + b) + on + b + o),
    Condition.COR31: ("A B omega theta", "Omega+A", "B Omega Omega+A",
                      lambda t, g, b, o, oa: b + o + t * (oa + b + o)),
    Condition.COR32: ("A B omega theta", "A", "B Omega Omega+A",
                      lambda t, g, b, o, oa: b + 2.0 * o + t * (oa + b + o)),
    Condition.COR33A: ("A B omega theta", "Omega+A", "B Omega-A Omega+A",
                       lambda t, g, b, oma, oa: 2.0 * b + oma + t * (oa + 2.0 * b + oma)),
    Condition.COR33B: ("A B omega theta", "A", "B Omega Omega-A Omega+A",
                       lambda t, g, b, o, oma, oa: 2.0 * b + o + oma
                       + t * (oa + 2.0 * b + oma)),
    Condition.COR34: ("A B theta", "A", "B A", lambda t, g, b, a: b + t * (a + b)),
    Condition.COR35A: ("M N omega theta", "Omega+M", "Omega+M Omega+N",
                       lambda t, g, om, on: t * (om + on + 1.0) + on + 1.0),
    Condition.COR35B: ("M N omega theta", "M", "Omega+M Omega+N Omega",
                       lambda t, g, om, on, o: t * (om + on + 1.0) + on + o + 1.0),
    Condition.COR36A: ("A gamma theta", "A", "A",
                       lambda t, g, a: t * ((2.0 - g / 2.0) * a + 1.0)
                       + 2.0 * (1.0 - g / 2.0) * a + 1.0),
    Condition.COR36B: ("A gamma theta", "A", "A",
                       lambda t, g, a: t * ((4.0 / g - 1.0) * a + 1.0)
                       + 2.0 * (2.0 / g - 1.0) * a + 1.0),
}

_INPUTS = {c: row[0].split() for c, row in {**_OWN_FORMULAS, **_BOUNDS}.items()}


def evaluate(
    conditions, A=None, B=None, M=None, N=None, omega=None, theta=0.0, gamma=None,
    omega_scalar=None,
):
    """Evaluate ``conditions`` on one set of inputs; one Certificate each, in order.

    Every condition's inputs are checked before any estimate runs. A shifted
    sum or norm that several conditions read is assembled or estimated once.
    """
    conditions = [Condition(c) for c in conditions]
    inputs = dict(A=A, B=B, M=M, N=N, omega=omega, theta=theta, gamma=gamma,
                  omega_scalar=omega_scalar)
    for condition in conditions:
        names = _INPUTS[condition]
        missing = [name for name in names if inputs[name] is None]
        if missing:
            raise ParameterError(
                f"{condition.value} requires arguments: {', '.join(missing)}"
            )
        if "theta" in names and not 0.0 <= theta < 1.0:
            raise ParameterError("theta must lie in [0, 1)")
        if "gamma" in names and not 0.0 < gamma < 2.0:
            raise ParameterError("gamma must lie in (0, 2)")
        if "omega_scalar" in names and not 0.0 < float(omega_scalar) < np.inf:
            raise ParameterError("the scalar shift must be finite and positive")
    q = _Quantities(inputs)
    certificates = []
    for condition in conditions:
        q.details = {}
        if condition in _BOUNDS:
            _, X, norms, den = _BOUNDS[condition]
            lhs = q.inv_norm(X)
            d = den(theta, gamma, *map(q.norm, norms.split()))
            # of these bounds, only eq. (15) reports norm(X^-1) * den as a factor
            rhs, factor = 1.0 / d, lhs * d if condition is Condition.INEXACT else None
        else:
            lhs, rhs, factor = _OWN_FORMULAS[condition][1](q)
        for name in ("gamma", "theta"):
            if name in _INPUTS[condition]:
                q.record(name, inputs[name])
        marginal = abs(lhs - rhs) <= _MARGINAL_BAND * (abs(lhs) + abs(rhs))
        details = tuple((label, v, method) for label, (v, method) in q.details.items())
        certificates.append(
            Certificate(condition, float(lhs), float(rhs), bool(lhs < rhs),
                        bool(marginal), factor, details)
        )
    return certificates


def check_inexact(A, B, M, N, omega, theta):
    """``evaluate([Condition.INEXACT], ...)[0]``; kept because perfbench times it by name."""
    return evaluate([Condition.INEXACT], A=A, B=B, M=M, N=N, omega=omega, theta=theta)[0]


def check_corollary(kind, A=None, B=None, M=None, N=None, omega=None, theta=0.0, gamma=None):
    """``evaluate([kind], ...)[0]`` for a corollary; kept because perfbench times it by name."""
    kind = Condition(kind)
    if kind not in COROLLARY_CONDITIONS:
        raise ParameterError(f"{kind.value} is not a corollary condition")
    return evaluate([kind], A=A, B=B, M=M, N=N, omega=omega, theta=theta, gamma=gamma)[0]
