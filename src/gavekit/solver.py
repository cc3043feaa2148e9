"""Outer iterations for Ax - B|x| - b = 0 over a matrix splitting.

Both solvers run one loop,

    x_{k+1} = (Omega + M)^{-1} [ (Omega + N) x_k + B |x_k| + b ],

in the correction form ``x_{k+1} = x_k - (Omega + M)^{-1} F(x_k)`` (the
same step, as ``M - N = A``): the residual of the stopping rule is the next
right-hand side, and Omega + N is never assembled. F(x_k) and the step
update their vectors in place, bit for bit the plain expressions. The
solvers differ only in the inner step: ``nms_solve`` factors
``(Omega + M).T`` once and takes each step as a transposed solve on it,
since SuperLU's transposed triangular sweeps are the faster ones, and
``inms_solve`` runs LSQR from zero to the per-step residual target
``theta_k * norm(F(x_k))``. Omega is the splitting's own shift
(``Splitting.shift``) unless an ``omega`` argument overrides it, which only
the kinds that do not pin their shift allow.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, NumericsError, ParameterError
from .linalg import lsqr, lu_factorize
from .sparse import _product, as_vector, sparse_add, spmv

__all__ = [
    "ThetaSchedule",
    "SolverConfig",
    "SolveReport",
    "residual",
    "theta_at",
    "nms_solve",
    "inms_solve",
    "verify_inexact_condition",
]

# Solves abort once the relative residual exceeds this.
_DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class ThetaSchedule:
    """Per-step inexactness tolerance.

    Either a constant theta in [0, 1), or the practical schedule
    ``theta_k = min(0.5, 1 / max(1, k - l_max))``.
    """

    kind: str  # "constant" | "paper"
    theta: float = 0.0
    l_max: int = 10

    def __post_init__(self):
        if self.kind == "constant":
            if not 0.0 <= self.theta < 1.0:
                raise ParameterError("constant theta must lie in [0, 1)")
        elif self.kind != "paper":
            raise ParameterError(f"unknown theta schedule {self.kind!r}")

    @classmethod
    def constant(cls, theta):
        return cls("constant", theta=float(theta))

    @classmethod
    def paper(cls, l_max=10):
        return cls("paper", l_max=int(l_max))


def theta_at(schedule, k):
    """Evaluate the schedule at outer step k (k = 0 for the first step)."""
    if not k >= 0:
        raise ParameterError("step index must be nonnegative")
    if schedule.kind == "constant":
        return schedule.theta
    return min(0.5, 1.0 / max(1, k - schedule.l_max))


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule, start vector, and inner-solver selection.

    The ``tol`` and ``k_max`` defaults are the one statement of the stopping
    rule; a spec, the CLI and ``tune_alpha`` use them when none is given.
    ``x0`` is either a vector or the token "alt10" for (1,0,1,0,...).
    ``max_inner``, the lsqr inner solver's iteration budget per outer step,
    is at least 1; None means ceil(10 * sqrt(n)).
    """

    tol: float = 1e-6
    k_max: int = 500
    x0: object = "alt10"
    theta: ThetaSchedule = field(default_factory=ThetaSchedule.paper)
    inner: str = "direct"  # "direct" | "lsqr"
    max_inner: int | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ParameterError("tol must be positive")
        if not self.k_max >= 1:
            raise ParameterError("k_max must be at least 1")
        if self.inner not in ("direct", "lsqr"):
            raise ParameterError(f"unknown inner solver {self.inner!r}")
        if self.max_inner is not None and not self.max_inner >= 1:
            raise ParameterError("max_inner must be at least 1")


@dataclass
class SolveReport:
    """Everything observable about one solve.

    ``wall_time_s`` covers the whole call after argument checks: resolution
    of a supplied shift, assembly of Omega+M, the LU factorization of its
    transpose (exact variant) and the outer iteration.
    """

    converged: bool
    iterations: int
    final_res: float
    res_history: np.ndarray
    inner_iters: np.ndarray
    wall_time_s: float
    x: np.ndarray
    warnings: tuple = ()


def residual(problem, x):
    """Nonlinear residual F(x) = A x - B |x| - b.

    The products run on the cached product forms of A and B, which the
    solvers reuse at every step, through scipy's compiled kernels.
    """
    x = as_vector(x, problem.A.n_cols, "x")
    F = _product(problem.A.product_forms()[0], x)
    F -= _product(problem.B.product_forms()[0], np.abs(x))
    F -= problem.b
    return F


def expand_x0(x0, n):
    """Turn a start-vector token or array into a concrete vector."""
    if isinstance(x0, str):
        if x0 == "alt10":
            v = np.zeros(n)
            v[0::2] = 1.0
            return v
        raise ConfigurationError(f"unknown start vector token {x0!r}")
    return as_vector(x0, n, "x0").copy()


def _guard(res, k):
    if not math.isfinite(res):
        raise NumericsError(f"non-finite relative residual {res} at outer step {k}")
    if res > _DIVERGENCE_GUARD:
        raise DivergenceError(
            f"relative residual {res:.3e} exceeded {_DIVERGENCE_GUARD:.0e} "
            f"at outer step {k}"
        )
    return res


def _iterate(problem, splitting, omega, config):
    """The outer iteration of both solvers; ``config.inner`` picks the step.

    Each step solves ``(Omega + M) d = -F(x_k)`` and moves to ``x_k + d``:
    "direct" with the LU of ``(Omega + M).T`` factored once, solving on its
    transpose, "lsqr" with LSQR from zero to ``theta_k * norm(F(x_k))``.
    """
    t0 = time.perf_counter()
    n = problem.A.n_rows
    OM = sparse_add(splitting.shift(omega), splitting.M)
    nb = float(np.linalg.norm(problem.b))
    if nb == 0.0:
        raise ParameterError("b is zero; the RES stopping rule is undefined")
    direct = config.inner == "direct"
    if direct:
        # SuperLU's transposed solve runs both triangular sweeps as gathers,
        # so a step on the factor of (Omega + M).T is the faster solve;
        # SuperLU reads it from the CSR arrays of Omega + M, which are its
        # CSC arrays
        factor = lu_factorize(OM, _transpose=True)
    max_inner = config.max_inner
    if max_inner is None:
        max_inner = int(math.ceil(10.0 * math.sqrt(n)))

    x = expand_x0(config.x0, n)
    # F(x_k) serves both the stopping rule and the next step
    F = residual(problem, x)
    f_norm = math.sqrt(F @ F)
    res = _guard(f_norm / nb, 0)
    history = [res]
    inner_iters = []
    warnings = list(splitting.warnings)
    k = 0
    while res > config.tol and k < config.k_max:
        if direct:
            x -= factor.solve(F, transpose=True)
        else:
            target = theta_at(config.theta, k) * f_norm
            out = lsqr(OM, -F, target, max_inner)
            if out.stop_reason == "max_iter":
                warnings.append(
                    f"inner lsqr hit max_iter={max_inner} at outer step {k} "
                    f"(residual {out.residual_norm:.3e}, target {target:.3e})"
                )
            elif target > 0.0 and out.residual_norm > target:
                warnings.append(
                    f"inner lsqr stopped ({out.stop_reason}) above target at outer "
                    f"step {k} (residual {out.residual_norm:.3e}, target {target:.3e})"
                )
            x += out.x
            inner_iters.append(out.iterations)
        k += 1
        F = residual(problem, x)
        f_norm = math.sqrt(F @ F)
        res = _guard(f_norm / nb, k)
        history.append(res)
    elapsed = time.perf_counter() - t0
    return SolveReport(
        converged=res <= config.tol,
        iterations=k,
        final_res=res,
        res_history=np.array(history),
        inner_iters=np.array(inner_iters, dtype=int),
        wall_time_s=elapsed,
        x=x,
        warnings=tuple(warnings),
    )


def nms_solve(problem, splitting, omega=None, config=None):
    """Exact Newton-based matrix-splitting iteration.

    Factors ``(Omega + M).T`` once, takes every step as a transposed solve
    on it (a solve with Omega + M) and iterates until the relative residual
    drops to ``config.tol`` or ``config.k_max`` steps are taken. Omega is
    ``splitting.omega`` unless ``omega`` overrides it, which the kinds that
    pin their shift reject (see ``Splitting.shift``). Requires
    ``config.inner == "direct"``.
    """
    config = config or SolverConfig()
    if config.inner != "direct":
        raise ConfigurationError("nms_solve requires config.inner == 'direct'")
    return _iterate(problem, splitting, omega, config)


def inms_solve(problem, splitting, omega=None, config=None):
    """Inexact Newton-based matrix-splitting iteration.

    At outer step k the linear system ``(Omega + M) y = c_k`` with
    ``c_k = (Omega + N) x_k + B |x_k| + b`` is solved by LSQR, warm-started
    at ``x_k``, only until its residual drops below
    ``theta_k * norm(F(x_k))``, run as LSQR from zero on the correction
    system ``(Omega + M) d = c_k - (Omega + M) x_k = -F(x_k)``. Omega is
    chosen as in :func:`nms_solve`. Requires ``config.inner == "lsqr"``.
    """
    config = config or SolverConfig(inner="lsqr")
    if config.inner != "lsqr":
        raise ConfigurationError("inms_solve requires config.inner == 'lsqr'")
    return _iterate(problem, splitting, omega, config)


def verify_inexact_condition(problem, splitting, omega, x_prev, x_next, theta_k, f_norm):
    """Recompute the inexact-step inequality from scratch.

    Returns True when
    ``norm((Omega+M) x_next - [(Omega+N) x_prev + B |x_prev| + b])
    <= theta_k * f_norm`` with ``f_norm = norm(F(x_prev))`` supplied by the
    caller. Omega is chosen as in :func:`nms_solve`. The paper's form, with
    Omega + N, keeps this independent of the solvers' correction form.
    """
    om = splitting.shift(omega)
    OM, ON = sparse_add(om, splitting.M), sparse_add(om, splitting.N)
    c = spmv(ON, x_prev) + spmv(problem.B, np.abs(x_prev)) + problem.b
    lhs = float(np.linalg.norm(spmv(OM, x_next) - c))
    return lhs <= theta_k * f_norm
