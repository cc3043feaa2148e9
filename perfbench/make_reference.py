"""Record the benchmark's reference outputs and the seed's known failures.

    python3 perfbench/make_reference.py

Writes ``reference.json`` and ``known_failures.json`` next to this file.

- Solve rows: IT and RES of every op, as the library computes them at the
  commit the reference is recorded from.
- alpha-sweep: (alpha, IT) of every ``tune_alpha`` search.
- Certificates: lhs and rhs from an independent scipy oracle, not from
  gavekit's estimators: a dense SVD for n <= DENSE_MAX, and
  ``scipy.sparse.linalg.svds`` above it (on the matrix for its largest
  singular value, on its inverse through a SuperLU factor for the smallest).
  For Cor34 the oracle is also compared with the closed-form spectrum of
  the example41 family.

A certify op whose library result disagrees with the oracle at the recorded
commit goes to ``known_failures.json`` with what it returned and why it is
wrong, so that the benchmark can tell a known defect from a new failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins threads, finds the checkout's src)

gk = run.import_gavekit()

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import workloads  # noqa: E402

DENSE_MAX = 1681  # n = 41^2, the largest certify size below the paper size
SVDS_SEED = 20210318


def _svds_top(op, n):
    v0 = np.random.default_rng(SVDS_SEED).standard_normal(n)
    return float(spla.svds(op, k=1, which="LM", v0=v0, tol=0, return_singular_vectors=False)[0])


def sigma_extremes(S):
    """(sigma_min, sigma_max) of a scipy sparse matrix, without gavekit.linalg."""
    S = S.tocsc()
    n = S.shape[0]
    if n <= DENSE_MAX:
        svals = np.linalg.svd(S.toarray(), compute_uv=False)
        return float(svals[-1]), float(svals[0])
    lu = spla.splu(S)
    inverse = spla.LinearOperator(
        (n, n),
        matvec=lu.solve,
        rmatvec=lambda y: lu.solve(y, trans="T"),
        dtype=float,
    )
    return 1.0 / _svds_top(inverse, n), _svds_top(S, n)


def hat_m_eigenvalues(m):
    j = np.arange(1, m + 1)
    c = 2.0 * np.cos(j * np.pi / (m + 1))
    return (4.0 - c[:, None] - c[None, :]).ravel()


def oracle(op, name):
    """Oracle lhs and rhs of one certify op."""
    inp = op.inputs
    n = inp["A"].n_rows
    method = "dense_svd" if n <= DENSE_MAX else "svds"
    _, norm_b = sigma_extremes(inp["B"].to_scipy())
    if inp["condition"] == "Cor34":
        smin_a, _ = sigma_extremes(inp["A"].to_scipy())
        lhs, rhs = 1.0 / smin_a, 1.0 / norm_b  # theta = 0
        # example41 has A = hatM + (mu + 1) I and B = hatM + (mu - 1) I
        m = int(round(np.sqrt(n)))
        mu = float(name.split("/")[2][2:])
        eig = hat_m_eigenvalues(m)
        exact_lhs = 1.0 / np.min(np.abs(eig + mu + 1.0))
        exact_rhs = 1.0 / np.max(np.abs(eig + mu - 1.0))
        for got, want in ((lhs, exact_lhs), (rhs, exact_rhs)):
            if abs(got - want) > 1e-9 * abs(want):
                raise SystemExit(f"{name}: oracle {got!r} disagrees with closed form {want!r}")
        return lhs, rhs, method
    theta = workloads.CERTIFY_THETA
    omega = inp["omega"].to_scipy()
    smin_om, norm_om = sigma_extremes(omega + inp["M"].to_scipy())
    _, norm_on = sigma_extremes(omega + inp["N"].to_scipy())
    lhs = 1.0 / smin_om
    rhs = 1.0 / (theta * (norm_om + norm_on + norm_b) + norm_on + norm_b)
    return lhs, rhs, method


def build_reference(sizes, workdir, log=print):
    """Reference entries and known failures for every op of every workload."""
    reference, known = {}, {}
    for workload in workloads.WORKLOADS:
        for op in workloads.setup(workload, workdir, sizes):
            summary = run.run_op(op)
            if op.kind != "certificate":
                if "error" in summary:
                    raise SystemExit(f"{op.name}: {summary['error']}: {summary['message']}")
                reference[op.name] = summary
                log(f"{op.name}: {summary}")
                continue
            lhs, rhs, method = oracle(op, op.name)
            reference[op.name] = {"oracle_lhs": lhs, "oracle_rhs": rhs, "oracle": method}
            reason = workloads.check(op, summary, reference[op.name])
            if reason is not None:
                entry = {"reason": reason, "oracle_lhs": lhs}
                if "error" in summary:
                    entry["error"] = summary["error"]
                else:
                    entry["lhs"] = summary["lhs"]
                known[op.name] = entry
            log(f"{op.name}: oracle lhs={lhs:.10e} rhs={rhs:.10e} ({method}); "
                f"library {summary}")
    return reference, known


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        reference, known = build_reference(workloads.FULL, workdir)
    header = {
        "recorded_at": run._git_revision(),
        "src_sha256": run._source_digest(),
    }
    defects = {
        "spectral_norm": (
            "check_inexact for ngs and nsor at m = 100, mu = -1, Omega = 1.5 hatM raises "
            "ConvergenceFailure: spectral_norm does not converge in 10000 iterations"
        ),
        "even_m_inverse_iteration": (
            "at even m the alternating-sign start vector of the inverse iteration is "
            "orthogonal to the smooth lowest mode, so sigma_min is overestimated and "
            "lhs = norm(X^-1) underestimated (the unsafe direction)"
        ),
    }
    for path, body in (
        ("reference.json", dict(header, ops=reference)),
        ("known_failures.json", dict(header, defects=defects, ops=known)),
    ):
        with open(os.path.join(HERE, path), "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
