"""The benchmark workloads: their inputs, their ops and the check of each op.

Every workload is built from the public gavekit API only. An op is one
timed public call: a splitting build plus one solve, one ``tune_alpha``
call, or one certificate. Ops call ``gk.<function>`` at call time, so the
tracer in ``layers.py`` sees every call once it has rebound the names.

Why these workloads:

- ``exact-tables``: Tables 1-4 at n = 10000 and 22500 with the exact
  solver. LU factorization and triangular solves do the work; LSQR none.
- ``inexact-tables``: the same 24 rows with the inexact solver. LSQR,
  matvecs and the two ``sparse_add`` assemblies do the work; LU none, so
  an LU change must show no change here.
- ``alpha-sweep``: the nsor relaxation searches at n = 10000. Per grid
  point a splitting build and a factorization, then many LU solves on slow
  or diverging points: per-point set-up and reuse show here.
- ``certify``: the only workload where the norm estimators run. It keeps
  the two estimator defects of the seed (see ``known_failures.json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import gavekit as gk

WORKLOADS = ("exact-tables", "inexact-tables", "alpha-sweep", "certify")

# Solve rows of Tables 1-4: mu x Omega scale x method, nsor alpha per mu.
MUS = (4.0, -1.0)
OMEGA_SCALES = (1.0, 1.5)
NSOR_ALPHA = {4.0: 0.9, -1.0: 1.3}
SOLVE_TOL = 1e-6

# alpha-sweep: (mu, Omega scale, first alpha, last alpha), as in the
# acceptance criteria 4a/4b but at the coarser step of Sizes.sweep_step.
SWEEPS = ((4.0, 1.0, 0.50, 1.50), (-1.0, 1.5, 0.50, 1.90))

# certify: part (a) runs both families at small n on the sparse estimator
# path; part (b) runs the paper size at mu = -1 with Omega = 1.5 hatM.
CERTIFY_FAMILIES = ((4.0, 1.0), (-1.0, 1.5))
CERTIFY_THETA = 0.5
CERT_RTOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    tables_m: tuple
    sweep_m: int
    sweep_step: float
    certify_small_m: tuple
    certify_paper_m: int
    setup_reps: dict
    # At least two, so that every op is timed twice and a traced run has an
    # untraced and a traced pass; alpha-sweep has only two (long) ops a pass.
    min_passes: dict


FULL = Sizes(
    tables_m=(100, 150),
    sweep_m=100,
    sweep_step=0.05,
    certify_small_m=(24, 25, 40, 41),
    certify_paper_m=100,
    setup_reps={
        "exact-tables": 3,
        "inexact-tables": 3,
        "alpha-sweep": 9,
        "certify": 5,
    },
    min_passes={
        "exact-tables": 2,
        "inexact-tables": 2,
        "alpha-sweep": 4,
        "certify": 2,
    },
)

# Tiny instances of every workload, for the benchmark's self-tests.
SMOKE = Sizes(
    tables_m=(6, 7),
    sweep_m=6,
    sweep_step=0.25,
    certify_small_m=(5, 6),
    certify_paper_m=7,
    setup_reps={w: 2 for w in WORKLOADS},
    min_passes={w: 2 for w in WORKLOADS},
)


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "exact" | "inexact" | "tune" | "certificate"
    run: Callable[[], dict]
    # certificates only: the matrices the oracle in make_reference.py needs
    inputs: dict | None = None


def _mu(mu):
    return f"{mu:g}"


def _method(mu, method):
    if method == "nsor":
        return gk.SplittingKind("nsor", alpha=NSOR_ALPHA[mu]), f"nsor{NSOR_ALPHA[mu]:g}"
    return gk.SplittingKind(method), method


def _solve_summary(report):
    return {
        "IT": int(report.iterations),
        "RES": float(report.final_res),
        "converged": bool(report.converged),
    }


def _cert_summary(cert):
    return {"lhs": float(cert.lhs), "rhs": float(cert.rhs), "holds": bool(cert.holds)}


def sweep_grid(lo, hi, step):
    count = int((hi - lo) / step + 1e-9) + 1
    return [round(lo + step * i, 10) for i in range(count)]


# -- set-up: make the inputs, return the ops ---------------------------------


def setup_tables(workdir, sizes, inexact):
    """Generate, save and reload the table problems; one op per table row."""
    config = (
        gk.SolverConfig(tol=SOLVE_TOL, inner="lsqr", theta=gk.ThetaSchedule.paper(10))
        if inexact
        else gk.SolverConfig(tol=SOLVE_TOL)
    )
    prefix = "inexact" if inexact else "exact"
    ops = []
    for m in sizes.tables_m:
        for mu in MUS:
            _, problem, hat = gk.gen_example41(m, mu)
            directory = os.path.join(workdir, f"m{m}_mu{_mu(mu)}")
            gk.save_problem(problem, directory)
            problem = gk.load_problem(directory)
            for scale in OMEGA_SCALES:
                omega = gk.OmegaSpec.scaled(scale, hat)
                for method in ("nj", "ngs", "nsor"):
                    kind, label = _method(mu, method)
                    name = f"{prefix}/m{m}/mu{_mu(mu)}/{scale:g}hatM/{label}"
                    ops.append(
                        Op(name, prefix, _solve_op(problem, kind, omega, config, inexact))
                    )
    return ops


def _solve_op(problem, kind, omega, config, inexact):
    def run():
        splitting = gk.build_splitting(problem.A, kind)
        solve = gk.inms_solve if inexact else gk.nms_solve
        return _solve_summary(solve(problem, splitting, omega, config))

    return run


def setup_sweep(workdir, sizes):
    """Generate the two sweep problems; one op per ``tune_alpha`` search."""
    ops = []
    for mu, scale, lo, hi in SWEEPS:
        _, problem, hat = gk.gen_example41(sizes.sweep_m, mu)
        omega = gk.OmegaSpec.scaled(scale, hat)
        grid = sweep_grid(lo, hi, sizes.sweep_step)
        name = f"tune/m{sizes.sweep_m}/mu{_mu(mu)}/{scale:g}hatM/nsor{lo:g}-{hi:g}"
        ops.append(Op(name, "tune", _tune_op(problem, omega, grid)))
    return ops


def _tune_op(problem, omega, grid):
    def run():
        alpha, iterations = gk.tune_alpha(problem, omega, grid, tol=SOLVE_TOL)
        return {"alpha": float(alpha), "IT": int(iterations)}

    return run


def certify_cases(sizes):
    """(m, mu, Omega scale, methods) for every certify problem."""
    cases = [
        (m, mu, scale, ("ngs",))
        for m in sizes.certify_small_m
        for mu, scale in CERTIFY_FAMILIES
    ]
    cases.append((sizes.certify_paper_m, -1.0, 1.5, ("nj", "ngs", "nsor")))
    return cases


def setup_certify(workdir, sizes):
    """Generate the problems, splittings and shift matrices; one op per check."""
    ops = []
    for m, mu, scale, methods in certify_cases(sizes):
        _, problem, hat = gk.gen_example41(m, mu)
        omega = gk.resolve_omega(gk.OmegaSpec.scaled(scale, hat), problem.n)
        base = f"certify/m{m}/mu{_mu(mu)}"
        for method in methods:
            kind, label = _method(mu, method)
            splitting = gk.build_splitting(problem.A, kind)
            name = f"{base}/{scale:g}hatM/{label}/inexact{CERTIFY_THETA:g}"
            inputs = {
                "condition": "inexact",
                "A": problem.A,
                "B": problem.B,
                "M": splitting.M,
                "N": splitting.N,
                "omega": omega,
            }
            ops.append(
                Op(
                    name,
                    "certificate",
                    _inexact_cert_op(problem, splitting, omega),
                    inputs,
                )
            )
        inputs = {"condition": "Cor34", "A": problem.A, "B": problem.B}
        ops.append(Op(f"{base}/Cor34", "certificate", _cor34_op(problem), inputs))
    return ops


def _inexact_cert_op(problem, splitting, omega):
    def run():
        cert = gk.check_inexact(
            problem.A, problem.B, splitting.M, splitting.N, omega, theta=CERTIFY_THETA
        )
        return _cert_summary(cert)

    return run


def _cor34_op(problem):
    def run():
        return _cert_summary(gk.check_corollary("Cor34", A=problem.A, B=problem.B))

    return run


def setup(workload, workdir, sizes):
    if workload == "exact-tables":
        return setup_tables(workdir, sizes, inexact=False)
    if workload == "inexact-tables":
        return setup_tables(workdir, sizes, inexact=True)
    if workload == "alpha-sweep":
        return setup_sweep(workdir, sizes)
    if workload == "certify":
        return setup_certify(workdir, sizes)
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -------------------------------------------------------------------


def check(op, summary, ref):
    """Reason the op's outcome is wrong, or None when it is right.

    ``ref`` is the op's entry of ``reference.json``: IT and RES for solves,
    (alpha, IT) for searches, the independent oracle's lhs for certificates.
    """
    if ref is None:
        return "no reference recorded for this op"
    if "error" in summary:
        return f"raised {summary['error']}: {summary['message']}"
    if op.kind in ("exact", "inexact"):
        if not summary["converged"]:
            return f"did not converge (IT={summary['IT']}, RES={summary['RES']:.4e})"
        if summary["RES"] > SOLVE_TOL:
            return f"RES {summary['RES']:.4e} above {SOLVE_TOL:g}"
        slack = 0 if op.kind == "exact" else 1
        if abs(summary["IT"] - ref["IT"]) > slack:
            return f"IT {summary['IT']} differs from reference {ref['IT']} by more than {slack}"
        return None
    if op.kind == "tune":
        if (summary["alpha"], summary["IT"]) != (ref["alpha"], ref["IT"]):
            return (
                f"(alpha, IT) = ({summary['alpha']:g}, {summary['IT']}) differs from "
                f"reference ({ref['alpha']:g}, {ref['IT']})"
            )
        return None
    oracle = ref["oracle_lhs"]
    if abs(summary["lhs"] - oracle) > CERT_RTOL * abs(oracle):
        return (
            f"lhs {summary['lhs']:.6e} differs from the oracle {oracle:.6e} "
            f"(relative {abs(summary['lhs'] - oracle) / abs(oracle):.2e} > {CERT_RTOL:g})"
        )
    return None


def reproduces(summary, known):
    """True when an op's outcome is the defect recorded for it."""
    if "error" in known:
        return summary.get("error") == known["error"]
    lhs = summary.get("lhs")
    return lhs is not None and abs(lhs - known["lhs"]) <= CERT_RTOL * abs(known["lhs"])


def classify(op, summary, ref, known):
    """("ok" | "known-defect" | "failed", reason)."""
    reason = check(op, summary, ref)
    if reason is None:
        return "ok", None
    if known is not None and reproduces(summary, known):
        return "known-defect", reason
    return "failed", reason
