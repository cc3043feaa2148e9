"""Problem instances: the block-Laplacian LCP family and random generators.

The main family comes from the linear complementarity problem LCP(M, q)
with M built from the block tridiagonal matrix hatM (blocks tridiag(-1,4,-1)
on the diagonal, -I off the diagonal). Its reduction A = M + I, B = M - I,
b = q turns each LCP into an equivalent absolute-value equation with a
known solution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionError, FormatError, NumericsError, ParameterError
from .linalg import min_singular_value, spectral_norm
from .mmio import _open_text, read_matrix_market, read_vector, write_matrix_market, write_vector
from .sparse import SparseMatrix, _abs_sums, identity, sparse_add, sparse_scale, sparse_sub, spmv

__all__ = [
    "GaveProblem",
    "LcpInstance",
    "gen_example41",
    "gen_certified",
    "save_problem",
    "load_problem",
]

_RESIDUAL_TOL = 1e-10
_LCP_TOL = 1e-10
_REDUCTION_TAG = "lcp-reduction"


@dataclass(frozen=True)
class GaveProblem:
    """An instance of A x - B |x| - b = 0.

    A known solution, when given, is validated against the residual at
    construction time.
    """

    A: SparseMatrix
    B: SparseMatrix
    b: np.ndarray
    known_solution: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        if not self.A.is_square or self.A.shape != self.B.shape:
            raise DimensionError("A and B must be square with equal shape")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.A.n_rows,):
            raise DimensionError("b length must match the matrix dimension")
        object.__setattr__(self, "b", b)
        if self.known_solution is not None:
            xs = np.asarray(self.known_solution, dtype=float)
            if xs.shape != b.shape:
                raise DimensionError("known_solution length must match b")
            object.__setattr__(self, "known_solution", xs)
            defect = np.linalg.norm(
                spmv(self.A, xs) - spmv(self.B, np.abs(xs)) - b
            )
            bound = _RESIDUAL_TOL * max(1.0, float(np.linalg.norm(b)))
            if not np.isfinite(defect):
                raise NumericsError(f"non-finite known_solution residual {defect}")
            if not defect <= bound:
                raise ParameterError(
                    f"known_solution violates the residual bound: "
                    f"{defect:.3e} > {bound:.3e}"
                )

    @property
    def n(self):
        return self.A.n_rows


@dataclass(frozen=True)
class LcpInstance:
    """LCP(M, q): find z >= 0 with w = M z + q >= 0 and z.T w = 0."""

    M: SparseMatrix
    q: np.ndarray
    known_solution: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if not self.M.is_square or q.shape != (self.M.n_rows,):
            raise DimensionError("M must be square and q of matching length")
        object.__setattr__(self, "q", q)
        if self.known_solution is not None:
            z = np.asarray(self.known_solution, dtype=float)
            if z.shape != q.shape:
                raise DimensionError("known_solution length must match q")
            object.__setattr__(self, "known_solution", z)
            w = spmv(self.M, z) + q
            n = z.shape[0]
            if not z.min(initial=0.0) >= 0.0:
                raise ParameterError("known LCP solution must be nonnegative")
            if not w.min(initial=0.0) >= -_LCP_TOL:
                raise ParameterError("known LCP solution violates M z + q >= 0")
            if not abs(float(z @ w)) <= _LCP_TOL * n:
                raise ParameterError("known LCP solution violates complementarity")


def check_grid_size(m):
    """Reject a grid size ``m`` below 2, or one whose m^2 unknowns numpy cannot index.

    The check allocates nothing, so a spec can run it before any problem is built.
    """
    if not m >= 2:
        raise ParameterError("m must be at least 2")
    if 5 * int(m) ** 2 > np.iinfo(np.intp).max:  # hatM has at most 5 entries per row
        raise ParameterError(f"m = {m} is too large: m^2 unknowns exceed numpy's index range")


def build_hat_m(m):
    """Block tridiagonal matrix of dimension m^2.

    Diagonal blocks are tridiag(-1, 4, -1); off-diagonal blocks are -I.
    """
    check_grid_size(m)
    n = m * m
    side = np.full(n - 1, -1.0)
    side[m - 1 :: m] = 0.0  # no coupling across a block boundary
    hat = scipy.sparse.diags(
        [-1.0, side, 4.0, side, -1.0], [-m, -1, 0, 1, m], shape=(n, n), format="csr"
    )
    hat.eliminate_zeros()
    return SparseMatrix._wrap(hat)


def lcp_to_gave(lcp, provenance=_REDUCTION_TAG):
    """Reduce LCP(M, q) to the equivalent absolute-value equation.

    Maps to A = M + I, B = M - I, b = q; a known LCP solution z* carries
    over as x* = (w - z*) / 2 with w = M z* + q, so that z* = |x*| - x*
    and w = |x*| + x*. That equals ((M - I) z* + q) / 2 in exact
    arithmetic, and is exact when q = -M z* (w = 0), as for example41.
    """
    n = lcp.M.n_rows
    eye = identity(n)
    A = sparse_add(lcp.M, eye)
    B = sparse_sub(lcp.M, eye)
    xs = None
    if lcp.known_solution is not None:
        xs = 0.5 * (spmv(lcp.M, lcp.known_solution) + lcp.q - lcp.known_solution)
    return GaveProblem(A=A, B=B, b=lcp.q, known_solution=xs, provenance=provenance)


def gen_example41(m, mu):
    """LCP / absolute-value-equation pair on the m^2 block-Laplacian family.

    Builds M = hatM + mu*I, the LCP solution z* = 1.2 * ones with
    q = -M z*, and the reduced problem with known solution -0.6 * ones.
    Returns ``(lcp, gave, hat_m)``; the last entry is handed back so the
    caller can form shift matrices from it.
    """
    if not np.isfinite(mu):
        raise ParameterError("mu must be finite")
    hat = build_hat_m(m)
    n = m * m
    M = sparse_add(hat, sparse_scale(mu, identity(n)))
    z_star = np.full(n, 1.2)
    q = -spmv(M, z_star)
    lcp = LcpInstance(M=M, q=q, known_solution=z_star)
    provenance = f"{_REDUCTION_TAG} example41(m={m}, mu={mu:g})"
    return lcp, lcp_to_gave(lcp, provenance=provenance), hat


def gen_certified(n, seed, b_norm_scale=1.0, dominance=10.0):
    """Random instance on which the exact convergence certificate holds.

    A = dominance * I + R with R strictly off-diagonal, scaled so its row
    and column sums stay below 1 (hence sigma_min(A) >= dominance - 1);
    B is rescaled to spectral norm ``b_norm_scale``. The solution is a
    deterministic sign vector and b is constructed from it.
    """
    if not 1.0 < dominance < np.inf:
        raise ParameterError("dominance must be finite and exceed 1")
    if not np.isfinite(b_norm_scale):
        raise ParameterError("b_norm_scale must be finite")
    if not n >= 2:
        raise ParameterError("n must be at least 2")
    if not seed >= 0:
        raise ParameterError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    per_row = min(4, n - 1)

    def random_offdiag():
        rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
        cols = np.empty(n * per_row, dtype=np.int64)
        for i in range(n):
            choices = rng.choice(n - 1, size=per_row, replace=False)
            choices[choices >= i] += 1  # skip the diagonal
            cols[i * per_row : (i + 1) * per_row] = np.sort(choices)
        vals = rng.uniform(-1.0, 1.0, n * per_row)
        return SparseMatrix.from_coo(n, n, rows, cols, vals)

    R = random_offdiag()
    radius = max(sums.max() for sums in _abs_sums(R)[:2])  # R stores no diagonal entry
    if radius > 1.0:
        R = sparse_scale(1.0 / radius, R)
    A = sparse_add(sparse_scale(dominance, identity(n)), R)

    B = random_offdiag()
    sn = spectral_norm(B, rel_tol=1e-8)
    if sn == 0.0:
        raise ParameterError("degenerate random draw produced a zero B")
    B = sparse_scale(b_norm_scale / sn, B)

    sigma_min = min_singular_value(A)
    b_norm = spectral_norm(B, rel_tol=1e-8)
    if b_norm >= sigma_min:
        raise ParameterError(
            f"b_norm_scale={b_norm_scale:g} does not leave sigma_min(A) > "
            f"norm(B) after rescaling ({sigma_min:.3e} vs {b_norm:.3e})"
        )

    x_star = rng.integers(0, 2, n) * 2.0 - 1.0
    b = spmv(A, x_star) - spmv(B, np.abs(x_star))
    return GaveProblem(
        A=A,
        B=B,
        b=b,
        known_solution=x_star,
        provenance=f"certified(n={n}, seed={seed}, "
        f"b_norm_scale={b_norm_scale:g}, dominance={dominance:g})",
    )


def save_problem(problem, directory, extra=None):
    """Serialize a problem as A.mtx, B.mtx, b.txt, xstar.txt and meta."""
    os.makedirs(directory, exist_ok=True)
    write_matrix_market(os.path.join(directory, "A.mtx"), problem.A)
    write_matrix_market(os.path.join(directory, "B.mtx"), problem.B)
    write_vector(os.path.join(directory, "b.txt"), problem.b)
    if problem.known_solution is not None:
        write_vector(os.path.join(directory, "xstar.txt"), problem.known_solution)
    meta = {"provenance": problem.provenance, "n": problem.n}
    if extra:
        meta.update(extra)
    with open(os.path.join(directory, "meta"), "w", encoding="ascii") as fh:
        for key, value in meta.items():
            fh.write(f"{key} = {value}\n")


def load_problem(directory):
    """Load a problem directory written by :func:`save_problem`."""
    A = read_matrix_market(os.path.join(directory, "A.mtx"))
    B = read_matrix_market(os.path.join(directory, "B.mtx"))
    b = read_vector(os.path.join(directory, "b.txt"))
    xs_path = os.path.join(directory, "xstar.txt")
    xs = read_vector(xs_path) if os.path.exists(xs_path) else None
    provenance = ""
    meta_path = os.path.join(directory, "meta")
    if os.path.exists(meta_path):
        with _open_text(meta_path) as fh:
            for line in fh:
                if "=" in line:
                    key, _, value = line.partition("=")
                    if key.strip() == "provenance":
                        provenance = value.strip()
    try:
        return GaveProblem(
            A=A, B=B, b=b, known_solution=xs, provenance=provenance
        )
    except (DimensionError, ParameterError) as exc:
        raise FormatError(f"{directory}: inconsistent problem data: {exc}") from exc
