"""Factorizations, the inner least-squares solve and iterative estimators.

Everything here is deterministic, so repeated runs produce identical
results:

- every LU comes from :func:`lu_factorize`, which factors ``A.T`` from
  A's own CSR arrays, the CSC arrays of ``A.T``, and solves with A by
  SuperLU's transposed sweep, the faster one. Its SuperLU call pins the
  column ordering to minimum degree on ``A.T + A`` (``MMD_AT_PLUS_A``), the
  pivoting to threshold partial pivoting at 0.1 (the diagonal entry is
  kept while it is at least a tenth of its column's largest) and the
  supernode panels to one column (``relax = panel_size = 1``); its pivot
  test reads the factor's U only when the column margins of ``A.T``, A's
  row margins, do not prove it, as they do for a strictly row diagonally
  dominant A;
- :func:`lsqr`, the inexact solver's inner solve, runs scipy's LSQR
  recurrences on reused work vectors, bitwise equal to
  ``scipy.sparse.linalg.lsqr``, and a run that meets its target returns
  before the adjoint product scipy's last iteration computes and never
  reads; the solver runs it from zero on the correction system
  ``(Omega + M) d = -F(x_k)``;
- the norm and eigenvalue estimators run one Lanczos kernel at every
  size (:func:`_lanczos_top`: the plain three-term
  recurrence, stopping on the Ritz residual, tested every 5th step within
  a budget of :data:`_MAX_STEPS` steps, with the Ritz pair from LAPACK's
  ``dstebz``/``dstein`` as ``eigh_tridiagonal`` computes it)
  started from a seeded pseudo-random unit vector. :func:`min_singular_value`
  of an exactly symmetric matrix whose Gershgorin interval starts at or
  above 0 runs it on the inverse shifted to just below that interval, one
  LU solve per step; every other matrix on ``(A.T A)^{-1}``, two solves per
  step. No estimator uses a
  structured start such as (1, -1, 1, ...): it is exactly orthogonal to
  the smooth lowest mode of a grid Laplacian with an even side, and the
  iteration would then lock onto the next mode;
- the products that repeat, LSQR's with ``A`` and ``A.T`` and
  :func:`spectral_norm`'s two factors of ``A.T @ A``, run on the pair of
  product forms the matrix caches (``SparseMatrix.product_forms``), bit
  for bit the CSR products with ``A`` and ``A.T``. Each calls scipy's
  compiled kernel for its form directly (``sparse._product``), and each
  run writes its intermediate products into one buffer it reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np
import scipy.sparse.linalg
from scipy.linalg.lapack import dstebz, dstein

from .errors import (
    ConvergenceFailure,
    DimensionError,
    NumericsError,
    ParameterError,
    SingularMatrixError,
)
from .sparse import (
    _abs_sums,
    _product,
    as_vector,
    diag_matrix,
    sparse_scale,
    sparse_sub,
)

__all__ = [
    "Factorization",
    "lu_factorize",
    "LsqrOutcome",
    "lsqr",
    "spectral_norm",
    "min_singular_value",
    "symmetric_eig_extremes",
]

# SuperLU column ordering: minimum degree on A.T + A. On the paper's
# block tridiagonal Omega + M it gives less fill than the COLAMD default.
_ORDERING = "MMD_AT_PLUS_A"

# Threshold partial pivoting (Duff, Erisman & Reid): the diagonal entry
# stays the pivot while its magnitude is at least this fraction of the
# column's largest. On the paper's diagonally dominant matrices it picks
# the same pivots as strict partial pivoting (1.0); an indefinite sum such
# as hatM - 2I fills about 40% less than at 1.0.
_PIVOT_THRESH = 0.1

# Supernode relaxation and panel width, one column each: on the low-fill
# 5-point matrices the multi-column panel work of the defaults is about a
# quarter of every factorization. Keep relax <= panel_size: scipy 1.17's
# SuperLU corrupted memory and crashed the interpreter (SIGSEGV, or an
# abort in garbage collection) at (relax, panel_size) = (32, 16) and
# (64, 32) on ngs Omega + M, m = 150.
_RELAX, _PANEL_SIZE = 1, 1

# Pivots smaller than this times the infinity norm count as singular.
_PIVOT_TOL = 1e-14

# Step budget of every Lanczos estimate (one operator application per
# step), read at call time.
_MAX_STEPS = 10000


class Factorization:
    """Sparse LU decomposition reusable across right-hand sides.

    Wraps SuperLU's factorization of ``A.T`` (see :func:`lu_factorize`)
    with threshold partial pivoting at 0.1 and one-column panels; solves
    with A or, given ``transpose=True``, with ``A.T``. ``ordering`` names
    the pinned column ordering and ``nnz`` is the fill as SuperLU counts it:
    the entries of its supernodal storage of L and U, which can exceed
    ``L.nnz + U.nnz``.
    """

    __slots__ = ("_splu", "n")
    ordering = _ORDERING

    def __init__(self, splu_obj, n):
        self._splu = splu_obj
        self.n = n

    @property
    def nnz(self):
        return self._splu.nnz

    def solve(self, rhs, transpose=False):
        rhs = as_vector(rhs, self.n, "rhs")
        # the factor is A.T's: a solve with A is SuperLU's transposed one
        return self._splu.solve(rhs, trans="N" if transpose else "T")


def lu_factorize(A):
    """Factor a square sparse matrix with threshold row partial pivoting.

    SuperLU factors ``X = A.T``, handed to it as scipy's CSC view of A
    (``.T``), whose arrays are A's own CSR arrays, so no transpose or copy
    is built. :meth:`Factorization.solve` then solves with A by SuperLU's
    transposed solve, which runs both triangular sweeps as gathers and is
    the faster one, and with ``A.T`` by its plain solve. The column
    ordering is pinned to ``MMD_AT_PLUS_A``, the pivot threshold to 0.1 and
    SuperLU's ``relax`` and ``panel_size`` to 1 (the module's ``_ORDERING``,
    ``_PIVOT_THRESH``, ``_RELAX`` and ``_PANEL_SIZE``).

    The pivot test (every ``|U_kk| >= 1e-14 * norm_inf(X)``) reads U only
    when X's column margins ``m_j = |x_jj| - sum_{i != j} |x_ij|``, A's row
    margins, do not prove it. With every ``m_j > 0`` X is strictly column
    diagonally dominant, and so is each Schur complement, with no smaller
    margins: eliminating pivot k drops ``|x_kj|`` from column j's
    off-diagonal mass and moves its other entries by at most ``|x_kj| *
    sum_{i != k} |x_ik| / |x_kk| < |x_kj|`` in all. SuperLU prefers the
    diagonal of the symmetrically permuted matrix, which is then its
    column's largest entry, so threshold pivoting keeps every diagonal
    pivot and each one is at least ``min_j m_j`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 9.5). Rounding,
    with ``u`` the unit roundoff and ``gamma_n = n u / (1 - n u)``: the
    computed factors are the exact ones of ``X + dX`` with ``|dX| <=
    gamma_n |L||U|`` (Higham, Thm 9.3); L's columns sum to below 2 in
    magnitude and U's entries are at most twice X's largest (growth factor
    at most 2, Thm 9.9), so each column of ``|dX|``, and with it each
    margin's loss, is at most ``4 n gamma_n norm_inf(X)``. A computed
    margin is one sum and one subtraction; where it is positive the sum is
    below ``|x_jj| <= norm_inf(X)``, so it errs by less than ``2 gamma_n
    norm_inf(X)``. So U goes unread when the computed ``min_j m_j - (4 n +
    3) gamma_n norm_inf(X)`` is at least ``1e-14 * norm_inf(X)``, as on the
    paper's shifted splittings, and is read for every other matrix. X's
    column sums are A's off-diagonal row sums, and ``norm_inf(X)`` is the
    largest off-diagonal column sum of A plus its ``|a_jj|`` (``_abs_sums``).

    Raises
    ------
    SingularMatrixError
        If the matrix has no nonzero entry (an order-0 matrix included),
        is structurally singular, or has a pivot below ``1e-14 *
        norm_inf(A.T)``. For a symmetric A that is ``norm_inf(A)``; for a
        nonsymmetric one it is A's largest column sum, ``norm_1(A)``.
    NumericsError
        If ``norm_inf(A.T)`` is not finite, as it is when an entry is not.
    """
    if not A.is_square:
        raise DimensionError("lu_factorize requires a square matrix")
    csc = A.to_scipy().T
    rows, cols, diag = _abs_sums(A)
    abs_diag = np.abs(diag)
    norm_inf = float((cols + abs_diag).max()) if A.nnz else 0.0
    if not np.isfinite(norm_inf):
        raise NumericsError(f"non-finite infinity norm {norm_inf} in lu_factorize")
    if norm_inf == 0.0:
        raise SingularMatrixError("matrix is singular: it has no nonzero entries")
    try:
        lu = scipy.sparse.linalg.splu(
            csc, permc_spec=_ORDERING, diag_pivot_thresh=_PIVOT_THRESH,
            relax=_RELAX, panel_size=_PANEL_SIZE,
        )
    except RuntimeError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    _check_pivots(lu, abs_diag - rows, norm_inf)
    return Factorization(lu, A.n_rows)


def _check_pivots(lu, margins, norm_inf):
    """Raise SingularMatrixError if a pivot of the SuperLU factor ``lu`` of X
    lies below ``_PIVOT_TOL * norm_inf``, given X's column ``margins``.

    ``lu.U`` is read only when the margins, ``|x_jj| - sum_{i != j} |x_ij|``
    (one sum and one subtraction each), do not already prove the test:
    reading it makes scipy build CSC copies of L and U, which the factor
    then keeps for its lifetime. The argument is in :func:`lu_factorize`.
    """
    n = margins.shape[0]
    n_u = n * (np.finfo(np.float64).eps / 2)
    allowance = (4 * n + 3) * n_u / (1 - n_u) * norm_inf  # (4n + 3) gamma_n ||A||_inf
    if margins.min() - allowance >= _PIVOT_TOL * norm_inf:
        return
    u_diag = np.abs(lu.U.diagonal())
    if u_diag.size and u_diag.min() < _PIVOT_TOL * norm_inf:
        raise SingularMatrixError(
            f"numerically singular: pivot {u_diag.min():.3e} below "
            f"{_PIVOT_TOL:.0e} * {norm_inf:.3e}"
        )


@dataclass(frozen=True)
class LsqrOutcome:
    """Result of an :func:`lsqr` run.

    ``residual_norm`` is always ``norm(A @ x - rhs)`` recomputed from the
    returned iterate, not the recurrence estimate.
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    stop_reason: str  # "target_met" | "max_iter" | "stagnation"


def lsqr(A, rhs, target_residual, max_iter):
    """Least-squares solve of ``A x = rhs`` to an absolute residual target.

    Runs scipy's Paige-Saunders LSQR bit for bit (:func:`_lsqr_run`) from
    zero, with ``btol = target_residual / norm(rhs)`` and ``atol``,
    ``conlim`` off, and returns the iterate as a new array. Its products
    run on ``A``'s cached product forms. ``A`` may be rectangular;
    a target of 0 means "as far as possible". ``iterations`` is scipy's
    ``itn``; ``residual_norm`` is recomputed from the returned iterate.
    ``stop_reason`` is "target_met" when that residual is at most the
    target, else "max_iter" when the ``max_iter`` budget was spent
    (``istop == 7``), else "stagnation". Hitting ``max_iter`` is reported,
    not raised. A run that meets its target returns before the adjoint
    product of its last iteration, which scipy computes and never reads,
    so it makes ``iterations`` products with ``A.T`` where scipy makes
    ``iterations + 1``.

    Raises
    ------
    NumericsError
        If ``rhs`` or its norm (which overflows for large finite
        entries), a norm of the recurrence or the returned iterate is
        non-finite. A non-finite entry of ``A`` raises at iteration 0.
    """
    if not target_residual >= 0:
        raise ParameterError("target_residual must be nonnegative")
    if not max_iter >= 0:
        raise ParameterError("max_iter must be nonnegative")
    # contiguous, so that rhs @ rhs is the unit-stride dot np.linalg.norm takes
    rhs = np.ascontiguousarray(as_vector(rhs, A.n_rows, "rhs"))
    with np.errstate(over="ignore"):  # an overflowing norm raises below, not warns
        beta = sqrt(rhs @ rhs)  # np.linalg.norm(rhs), bit for bit
    # a non-finite entry makes the norm non-finite; only then is the scan due
    if not isfinite(beta):
        raise NumericsError("norm(rhs) overflowed: its entries are finite, its norm is not"
                            if np.all(np.isfinite(rhs)) else "non-finite values in lsqr inputs")
    if beta <= target_residual:
        return LsqrOutcome(np.zeros(A.n_cols), beta, 0, "target_met")
    if max_iter == 0:
        return LsqrOutcome(np.zeros(A.n_cols), beta, 0, "max_iter")
    S, ST = A.product_forms()
    x, istop, itn = _lsqr_run(S, ST, rhs, beta, target_residual / beta, max_iter)
    if not isfinite(x @ x) and not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite lsqr iterate after {itn} iterations")
    r = _product(S, x)
    r -= rhs
    actual = sqrt(r @ r)
    if actual <= target_residual:
        reason = "target_met"
    elif istop == 7:
        reason = "max_iter"
    else:
        reason = "stagnation"
    return LsqrOutcome(x, actual, int(itn), reason)


def _sym_ortho(a, b):
    """Stable Givens rotation ``(c, s, r)``, scipy's ``lsqr._sym_ortho``."""
    if b == 0:
        return np.sign(a), 0, abs(a)
    elif a == 0:
        return 0, np.sign(b), abs(b)
    elif abs(b) > abs(a):
        tau = a / b
        s = np.sign(b) / sqrt(1 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = np.sign(a) / sqrt(1 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _lsqr_run(S, ST, b, bnorm, btol, iter_lim):
    """``x, istop, itn`` of scipy's ``lsqr(S, b, atol=0, btol=btol, conlim=0,
    iter_lim=iter_lim)``, for ``bnorm = norm(b) > 0`` and ``ST = S.T``:
    scipy's loop on ``u``, ``v``, ``w`` and ``x`` updated in place, each
    operation with scipy's operands in scipy's order (so scipy's rounding),
    and each norm ``sqrt(y @ y)``, the float ``np.linalg.norm`` returns.
    The products run on :func:`~gavekit.sparse._product`: ``S v`` into one
    buffer reused across iterations, ``S.T u`` into ``tmp``, which is free
    until the ``w`` updates.

    scipy's test 1, ``|phibar| / bnorm <= btol``, reads only ``beta`` and
    the previous iteration's ``rhobar`` and ``phibar``, and its ``istop`` is
    the first test that holds. So the run makes that test right after the
    rotation, and when it holds it updates ``x`` and returns ``istop = 1``
    before the adjoint product, the ``v``, ``alfa``, ``ddnorm`` and ``w``
    updates and tests 2-7, none of which reaches ``x``, ``istop`` or
    ``itn``."""
    eps = np.finfo(np.float64).eps
    u = b * (1 / bnorm)
    v = _product(ST, u)
    alfa = sqrt(v @ v)
    if not isfinite(alfa):  # NaN would fail every stop test for the whole budget
        raise NumericsError("non-finite value in lsqr at iteration 0")
    if alfa > 0:
        v *= 1 / alfa
    x = np.zeros(S.shape[1])
    if alfa * bnorm == 0:
        return x, 0, 0
    w, tmp, sv = v.copy(), np.empty_like(x), np.empty_like(u)
    itn = istop = anorm = ddnorm = xxnorm = z = sn2 = 0
    cs2, rhobar, phibar = -1, alfa, bnorm
    while itn < iter_lim:
        itn += 1
        u *= alfa  # u = S v - alfa u
        np.subtract(_product(S, v, sv), u, out=u)
        beta = sqrt(u @ u)
        if not isfinite(beta):
            raise NumericsError(f"non-finite value in lsqr at iteration {itn}")
        cs, sn, rho = _sym_ortho(rhobar, beta)
        phi, phibar = cs * phibar, sn * phibar
        rnorm = sqrt(phibar**2)  # not abs(phibar): they differ on underflow
        test1 = rnorm / bnorm
        if test1 <= btol:
            np.multiply(w, phi / rho, out=tmp)  # x = x + t1 w
            x += tmp
            return x, 1, itn
        if beta > 0:
            u *= 1 / beta
            anorm = sqrt(anorm**2 + alfa**2 + beta**2)
            v *= beta  # v = S.T u - beta v
            np.subtract(_product(ST, u, tmp), v, out=v)
            alfa = sqrt(v @ v)
            if not isfinite(alfa):
                raise NumericsError(f"non-finite value in lsqr at iteration {itn}")
            if alfa > 0:
                v *= 1 / alfa
        theta = sn * alfa
        rhobar = -cs * alfa
        np.multiply(w, 1 / rho, out=tmp)  # dk = (1 / rho) w
        ddnorm = ddnorm + sqrt(tmp @ tmp) ** 2
        np.multiply(w, phi / rho, out=tmp)  # x = x + t1 w
        x += tmp
        w *= -theta / rho  # w = v + t2 w
        w += v
        gambar = -cs2 * rho
        rhs = phi - sn2 * rho * z
        xnorm = sqrt(xxnorm + (rhs / gambar) ** 2)
        gamma = sqrt(gambar**2 + theta**2)
        cs2, sn2 = gambar / gamma, theta / gamma
        z = rhs / gamma
        xxnorm = xxnorm + z**2
        test2 = alfa * abs(sn * phi) / (anorm * rnorm + eps)
        test3 = 1 / (anorm * sqrt(ddnorm) + eps)
        t1 = test1 / (1 + anorm * xnorm / bnorm)
        # scipy's istop is the first test that holds; 1 is above, 3 (conlim) off
        stops = (test2 <= 0, 1 + t1 <= 1, 1 + test2 <= 1, 1 + test3 <= 1, itn >= iter_lim)
        if any(stops):
            istop = (2, 4, 5, 6, 7)[stops.index(True)]
            break
    return x, istop, itn


def _seeded_start(n):
    """Seeded pseudo-random unit start vector for the Lanczos iteration.

    Unlike a structured vector it has, almost surely, a component along
    every eigenvector, so the iteration cannot miss the wanted mode.
    """
    v = np.random.default_rng(0).standard_normal(n)
    return v / np.linalg.norm(v)


def _check_rel_tol(rel_tol):
    if not 0.0 < rel_tol < np.inf:
        raise ParameterError(f"rel_tol must be finite and positive, got {rel_tol!r}")


def _top_ritz_pair(alphas, betas):
    """Top eigenvalue ``theta`` of the symmetric tridiagonal with diagonal
    ``alphas`` and off-diagonal ``betas``, and the last entry of its unit
    eigenvector: ``eigh_tridiagonal(alphas, betas, select="i",
    select_range=(j, j))`` bit for bit, for ``j = len(alphas) - 1``.

    It calls the two LAPACK routines that function runs, ``dstebz`` (by
    index, tolerance 0, block order) and ``dstein``, without its input
    validation and driver lookup; an order-1 matrix is its own eigenvalue.
    """
    j = alphas.size - 1
    if j == 0:
        return alphas[0], 1.0
    m, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, j + 1, j + 1, 0.0, "B")
    if info == 0:
        z, info = dstein(alphas, betas, w[:m], iblock, isplit)
    if info:
        raise NumericsError(f"LAPACK failed on the Lanczos tridiagonal (info = {info})")
    return w[0], z[-1, 0]


# a non-finite w makes beta non-finite, which is tested; the arithmetic before runs silently
@np.errstate(invalid="ignore", over="ignore")
def _lanczos_top(apply, n, rel_tol, what, finish):
    """``finish`` of the largest eigenvalue of a symmetric PSD operator.

    ``apply(v)`` applies the operator and returns a new array, which the
    recurrence then updates in place; ``finish`` maps its top eigenvalue to
    the estimated quantity. Runs the plain three-term Lanczos recurrence
    from :func:`_seeded_start`, one application per step and no
    reorthogonalisation. At steps 0, 5, 10, ... it takes the top Ritz pair
    ``(theta, s)`` of the tridiagonal ``T_j`` (:func:`_top_ritz_pair`) and
    stops once ``beta_j * |s_j| <= rel_tol * theta``, ARPACK's rule; at
    ``beta_j == 0`` it stops at once with ``theta``, exact on that
    invariant subspace (for ``n == 1``, at step 0). Lost orthogonality does not void the rule: in
    floating point every Ritz value stays inside the spectrum up to
    O(eps * norm), and one whose residual estimate ``beta_j * |s_j|`` is
    small lies within that estimate of an eigenvalue up to the same order
    (Paige 1980; Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).

    Raises
    ------
    ConvergenceFailure
        If :data:`_MAX_STEPS` steps pass without stopping.
    NumericsError
        If the operator produces a non-finite value.
    """
    steps = _MAX_STEPS
    v, v_prev, beta = _seeded_start(n), np.zeros(n), 0.0
    work = np.empty(n)  # beta * v_prev, then alpha * v
    alphas, betas = np.empty(steps), np.empty(steps)  # T_j's diagonals
    for j in range(steps):
        w = apply(v)
        w -= np.multiply(beta, v_prev, out=work)
        alpha = float(w @ v)
        w -= np.multiply(alpha, v, out=work)
        beta = sqrt(float(w @ w))  # what np.linalg.norm computes for a 1-D float array
        if not isfinite(beta):
            raise NumericsError(f"non-finite value in {what}")
        alphas[j] = alpha
        # the test runs every 5th step: at j ~ 200 the Ritz pair costs more
        # than a product at n = 10000, and a later stop only tightens the
        # estimate; beta == 0 is tested every step, as it guards w / beta
        if beta == 0.0 or j % 5 == 0:
            theta, s = _top_ritz_pair(alphas[: j + 1], betas[:j])
            if beta == 0.0 or beta * abs(s) <= rel_tol * theta:
                return float(finish(theta))
        betas[j] = beta
        w /= beta
        v_prev, v = v, w
    raise ConvergenceFailure(f"{what} did not converge in {steps} Lanczos steps")


def spectral_norm(A, rel_tol=1e-8):
    """Largest singular value, by Lanczos on ``A.T @ A``.

    Runs to relative Ritz residual ``rel_tol`` within the module's step
    budget, ``_MAX_STEPS``, so the estimate is within ``rel_tol / 2``
    relative and errs only low, up to rounding: the top Ritz value
    approaches the top eigenvalue from below, and rounding can cross it
    (:func:`min_singular_value`, on the same kernel, lands 8.53e-14
    relative below the true value in
    ``test_small_orders_against_numpy[random:484-default]``).
    ``A.T @ A`` is applied as two products on ``A``'s cached product forms
    of ``A`` and ``A.T``, the first into one buffer reused at every step.
    A matrix with no nonzero entry has norm 0.

    Raises
    ------
    ConvergenceFailure
        If the step budget runs out.
    """
    _check_rel_tol(rel_tol)
    if A.nnz == 0 or A.max_abs() == 0.0:
        return 0.0
    S, ST = A.product_forms()
    sv = np.empty(A.n_rows)
    return _lanczos_top(lambda v: _product(ST, _product(S, v, sv)), A.n_cols, rel_tol,
                        "spectral_norm", np.sqrt)


def min_singular_value(A, rel_tol=1e-10):
    """Smallest singular value of a square nonsingular matrix.

    An exactly symmetric ``A`` (``A == A.T`` entry for entry) whose Gershgorin
    interval [lo, hi] has ``lo >= 0`` is positive semidefinite, so its smallest
    singular value is its smallest eigenvalue: Lanczos on ``(A - s I)^{-1}``
    with ``s = max(lo - delta, 0)`` (:func:`_lambda_min_above`), one LU solve
    per step, to relative Ritz residual ``rel_tol / 2``. That puts the
    result within ``rel_tol / 2`` relative, as on the general path. Every
    other ``A`` runs Lanczos on ``(A.T A)^{-1}``, two LU solves per step, to
    relative Ritz residual ``rel_tol``. On both paths the step budget is
    ``_MAX_STEPS`` and the estimate errs only high, up to rounding: the top
    Ritz value of the inverse approaches its top eigenvalue from below, and
    rounding can put the result a little under the true value (8.53e-14
    relative in ``test_small_orders_against_numpy[random:484-default]``).

    Raises
    ------
    SingularMatrixError
        If ``A`` is numerically singular (from its LU on both paths), as it
        is when it has no nonzero entry or order 0.
    ConvergenceFailure
        If the step budget runs out.
    """
    _check_rel_tol(rel_tol)
    if not A.is_square:
        raise DimensionError("min_singular_value requires a square matrix")
    At = A.transpose()
    S, ST = A.to_scipy(), At.to_scipy()
    # a matrix with no entry, of order 0 too, goes to the LU, which calls it singular
    if A.nnz and all(np.array_equal(getattr(S, a), getattr(ST, a))
                     for a in ("indptr", "indices", "data")):
        lo, _, delta = _gershgorin(A)
        if lo >= 0.0:  # A is positive semidefinite
            return _lambda_min_above(A, max(lo - delta, 0.0), rel_tol / 2, "min_singular_value")
    # the factor of A.T solves with A.T and, transposed, with A
    factor = lu_factorize(At)  # raises SingularMatrixError when singular
    return _lanczos_top(lambda v: factor.solve(factor.solve(v), transpose=True), A.n_rows,
                        rel_tol, "min_singular_value", lambda rho: 1.0 / np.sqrt(rho))


def _gershgorin(H):
    """``(lo, hi, delta)``: the per-row Gershgorin interval [lo, hi] of a
    square matrix, which holds every eigenvalue of a symmetric one, and the
    margin ``delta`` by which a shift steps outside it. The radius is the
    row sums of ``|H - diag(H)|``, left to right (``sparse._abs_sums``)."""
    radius, _, diag = _abs_sums(H)
    hi = float(np.max(diag + radius))
    lo = float(np.min(diag - radius))
    return lo, hi, 1e-9 * max(hi - lo, abs(hi), abs(lo)) + 1e-300


def _lambda_min_above(H, shift, rel_tol, what):
    """Smallest eigenvalue of a symmetric ``H`` with ``H - shift I`` positive
    definite: ``shift + 1 / rho`` for the top eigenvalue ``rho`` of
    ``(H - shift I)^{-1}``, by Lanczos through its LU to relative Ritz
    residual ``rel_tol``. The LU raises SingularMatrixError when
    ``H - shift I`` is singular."""
    lower = lu_factorize(sparse_sub(H, diag_matrix(np.full(H.n_rows, shift))))
    return _lanczos_top(lower.solve, H.n_rows, rel_tol, what, lambda rho: shift + 1.0 / rho)


def symmetric_eig_extremes(H, rel_tol=1e-11):
    """Extreme eigenvalues ``(lambda_min, lambda_max)`` of a symmetric matrix.

    Symmetry is checked to 1e-12 relative. A matrix with no nonzero entry,
    of order 0 included, gives ``(0.0, 0.0)``. Every other one runs Lanczos
    on shifted inverses: with the Gershgorin interval [lo, hi] containing the
    spectrum, ``sigma_hi I - H`` and ``H - sigma_lo I`` (shifts just
    beyond it) are positive definite, and the top eigenvalue of each
    inverse, applied through its LU, exposes one extreme eigenvalue with a
    wide spectral gap. Both come from :func:`_lambda_min_above`, as for
    :func:`min_singular_value` of a symmetric matrix: the lower one of
    ``H`` above ``sigma_lo``, the upper one as minus that of ``-H`` above
    ``-sigma_hi``. Each Lanczos run stops at relative Ritz residual
    ``rel_tol`` or fails after ``_MAX_STEPS`` steps.

    Raises
    ------
    DimensionError
        If ``H`` is not square.
    ParameterError
        If ``H`` is not symmetric to 1e-12 relative of its largest entry.
    ConvergenceFailure
        If a step budget runs out.
    """
    _check_rel_tol(rel_tol)
    if not H.is_square:
        raise DimensionError("symmetric_eig_extremes requires a square matrix")
    defect, scale = sparse_sub(H.transpose(), H).max_abs(), H.max_abs()
    if defect > 1e-12 * max(scale, 1e-300):
        raise ParameterError(
            f"matrix is not symmetric: max deviation {defect:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    if H.nnz == 0 or scale == 0.0:
        return 0.0, 0.0
    lo, hi, delta = _gershgorin(H)
    lam_max = -_lambda_min_above(sparse_scale(-1.0, H), -(hi + delta), rel_tol,
                                 "symmetric_eig_extremes (max)")
    lam_min = _lambda_min_above(H, lo - delta, rel_tol, "symmetric_eig_extremes (min)")
    return float(lam_min), float(lam_max)
