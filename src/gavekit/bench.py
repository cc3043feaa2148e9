"""Experiment harness: parse a spec, run solvers, emit result tables.

The spec format is a flat, line-oriented key/value text (see
docs/config-format.md for the grammar). A minimal example:

    problem = example41
    m = 100 150
    mu = 4
    repeats = 10
    method = nj omega=mhat
    method = nj omega=mhat inner=lsqr theta=paper
    method = nsor alpha=0.9 omega=mhat
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass, field

from .errors import (
    ConvergenceFailure,
    DivergenceError,
    NumericsError,
    SingularMatrixError,
    SpecError,
)
from .mmio import read_matrix_market
from .problems import gen_example41, load_problem
from .solver import SolverConfig, ThetaSchedule, inms_solve, nms_solve
from .splittings import KINDS, OmegaSpec, SplittingKind, build_splitting

__all__ = [
    "MethodSpec",
    "ExperimentSpec",
    "ResultRow",
    "parse_spec",
    "run_experiment",
    "tune_alpha",
    "emit_table",
]


@dataclass(frozen=True)
class MethodSpec:
    """One solver configuration to benchmark."""

    kind: SplittingKind
    omega_token: str = "zero"  # zero | identity:<w> | mhat | mhat:<c> | file:<path>
    inner: str = "direct"
    theta: ThetaSchedule = field(default_factory=ThetaSchedule.paper)
    max_inner: int | None = None
    label: str = ""

    def display_name(self):
        if self.label:
            return self.label
        name = self.kind.name
        if self.inner == "lsqr":
            name = "i" + name
        if self.kind.alpha is not None:
            name += f"({self.kind.alpha:g}"
            if self.kind.beta is not None:
                name += f",{self.kind.beta:g}"
            name += ")"
        elif self.kind.gamma is not None:
            name += f"({self.kind.gamma:g})"
        return name


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark: one problem family against a list of methods."""

    problem_kind: str  # "example41" | "dir"
    m_values: tuple = ()
    mu: float | None = None
    directory: str | None = None
    methods: tuple = ()
    repeats: int = 10
    tol: float = 1e-6
    k_max: int = 500
    output: str | None = None

    def __post_init__(self):
        if self.repeats < 1:
            raise SpecError("repeats must be at least 1")
        if not self.methods:
            raise SpecError("at least one method is required")
        if self.problem_kind == "example41":
            if not self.m_values or self.mu is None:
                raise SpecError("example41 problems need 'm' and 'mu'")
            if any(m < 2 for m in self.m_values):
                raise SpecError("m values must be at least 2")
        elif self.problem_kind == "dir":
            if not self.directory:
                raise SpecError("directory problems need a path")
        else:
            raise SpecError(f"unknown problem kind {self.problem_kind!r}")


@dataclass
class ResultRow:
    """One (method, problem size) measurement."""

    method: str
    n: int
    mu: float | None
    omega_tag: str
    alpha: float | None
    IT: int
    CPU_s: float
    RES: float
    converged: bool
    warnings: str = ""


def parse_theta(token, l_max=10):
    if token == "paper":
        return ThetaSchedule.paper(l_max)
    try:
        return ThetaSchedule.constant(float(token))
    except ValueError as exc:
        raise SpecError(f"bad theta value {token!r}") from exc


def parse_method_line(value):
    """Parse a 'method =' line: kind token followed by key=value options."""
    tokens = value.split()
    if not tokens:
        raise SpecError("empty method line")
    kind_name = tokens[0].lower()
    if kind_name not in KINDS:
        raise SpecError(f"unknown method kind {kind_name!r}")
    opts = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise SpecError(f"malformed method option {tok!r}")
        key, _, val = tok.partition("=")
        opts[key.strip().lower()] = val.strip()
    try:
        kind = SplittingKind(
            kind_name,
            alpha=float(opts["alpha"]) if "alpha" in opts else None,
            beta=float(opts["beta"]) if "beta" in opts else None,
            gamma=float(opts["gamma"]) if "gamma" in opts else None,
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    inner = opts.get("inner", "direct").lower()
    if inner not in ("direct", "lsqr"):
        raise SpecError(f"unknown inner solver {inner!r}")
    l_max = int(opts.get("lmax", 10))
    theta = parse_theta(opts.get("theta", "paper"), l_max)
    max_inner = int(opts["maxinner"]) if "maxinner" in opts else None
    return MethodSpec(
        kind=kind,
        omega_token=opts.get("omega", "zero"),
        inner=inner,
        theta=theta,
        max_inner=max_inner,
        label=opts.get("label", ""),
    )


def parse_spec(text):
    """Parse the experiment spec text into an ExperimentSpec."""
    values = {}
    methods = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key == "method":
            methods.append(parse_method_line(value))
        elif key in values:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        else:
            values[key] = value
    problem = values.get("problem", "")
    try:
        if problem.startswith("dir:"):
            return ExperimentSpec(
                problem_kind="dir",
                directory=problem[4:].strip(),
                methods=tuple(methods),
                repeats=int(values.get("repeats", 10)),
                tol=float(values.get("tol", 1e-6)),
                k_max=int(values.get("kmax", 500)),
                output=values.get("output"),
            )
        if problem == "example41":
            m_values = tuple(int(tok) for tok in values.get("m", "").split())
            return ExperimentSpec(
                problem_kind="example41",
                m_values=m_values,
                mu=float(values["mu"]) if "mu" in values else None,
                methods=tuple(methods),
                repeats=int(values.get("repeats", 10)),
                tol=float(values.get("tol", 1e-6)),
                k_max=int(values.get("kmax", 500)),
                output=values.get("output"),
            )
    except (ValueError, KeyError) as exc:
        raise SpecError(f"bad spec value: {exc}") from exc
    raise SpecError(
        f"problem must be 'example41' or 'dir:<path>', got {problem!r}"
    )


def resolve_omega_token(token, hat_m=None):
    """Turn an omega token from a spec/CLI into an OmegaSpec."""
    token = token.strip()
    if token in ("zero", "0"):
        return OmegaSpec.zero()
    if token.startswith("identity:"):
        return OmegaSpec.scalar(float(token.split(":", 1)[1]))
    if token == "mhat" or token.startswith("mhat:"):
        if hat_m is None:
            raise SpecError("omega 'mhat' is only available for example41 problems")
        scale = 1.0 if token == "mhat" else float(token.split(":", 1)[1])
        return OmegaSpec.scaled(scale, hat_m)
    if token.startswith("file:"):
        return OmegaSpec.explicit(read_matrix_market(token.split(":", 1)[1]))
    raise SpecError(f"unknown omega token {token!r}")


def run_method(problem, method, hat_m=None, tol=1e-6, k_max=500, repeats=1):
    """Run one method on one problem; returns (report, mean_cpu_seconds).

    The reported iterate data comes from the first (deterministic) run;
    the wall time is averaged over all repeats, each of which re-does the
    factorization work.
    """
    omega_spec = resolve_omega_token(method.omega_token, hat_m)
    splitting = build_splitting(problem.A, method.kind, omega_spec)
    config = SolverConfig(
        tol=tol,
        k_max=k_max,
        inner=method.inner,
        theta=method.theta,
        max_inner=method.max_inner,
    )
    solve = nms_solve if method.inner == "direct" else inms_solve
    report = None
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = solve(problem, splitting, config=config)
        times.append(time.perf_counter() - t0)
        if report is None:
            report = out
    return report, statistics.fmean(times)


def _experiment_problems(spec):
    if spec.problem_kind == "example41":
        for m in spec.m_values:
            _, problem, hat = gen_example41(m, spec.mu)
            yield problem, hat, m * m, spec.mu
    else:
        problem = load_problem(spec.directory)
        yield problem, None, problem.n, None


def run_experiment(spec):
    """Run every (problem size, method) pair of the spec, one after another.

    Numerical failures (divergence, singular shifts) produce a row with
    ``converged=False`` and a warning instead of aborting the experiment.
    """
    return [
        _result_row(spec, problem, hat, n, mu, method)
        for problem, hat, n, mu in _experiment_problems(spec)
        for method in spec.methods
    ]


def _result_row(spec, problem, hat, n, mu, method):
    try:
        report, cpu = run_method(
            problem,
            method,
            hat_m=hat,
            tol=spec.tol,
            k_max=spec.k_max,
            repeats=spec.repeats,
        )
    except (DivergenceError, SingularMatrixError, NumericsError) as exc:
        return ResultRow(
            method=method.display_name(),
            n=n,
            mu=mu,
            omega_tag=method.omega_token,
            alpha=method.kind.alpha,
            IT=0,
            CPU_s=0.0,
            RES=float("nan"),
            converged=False,
            warnings=f"{type(exc).__name__}: {exc}",
        )
    return ResultRow(
        method=method.display_name(),
        n=n,
        mu=mu,
        omega_tag=method.omega_token,
        alpha=method.kind.alpha,
        IT=report.iterations,
        CPU_s=cpu,
        RES=report.final_res,
        converged=report.converged,
        warnings="; ".join(report.warnings),
    )


def tune_alpha(problem, omega, grid, tol=1e-6, k_max=500, x0="alt10"):
    """Grid-search the nsor relaxation parameter for the fewest iterations.

    Runs the exact solver once per grid point and returns
    ``(alpha, iterations)`` for the best converged point; ties break toward
    the smaller alpha. Non-converged or diverging points are skipped.

    Once a best point is known, later points only need to beat it, so they
    run with ``k_max = best - 1``; the search stops when that cap reaches 0
    (the start residual does not depend on alpha). The result is the same
    as running every point to ``k_max``.
    """
    grid = [float(a) for a in grid]
    if not grid:
        raise SpecError("alpha grid must be nonempty")
    if any(not 0.0 < a < 2.0 for a in grid):
        raise SpecError("alpha grid values must lie in (0, 2)")
    best = None
    for alpha in sorted(grid):
        cap = k_max if best is None else best[1] - 1
        if cap < 1:
            break
        config = SolverConfig(tol=tol, k_max=cap, x0=x0, inner="direct")
        try:
            splitting = build_splitting(problem.A, SplittingKind("nsor", alpha=alpha))
            report = nms_solve(problem, splitting, omega, config)
        except (DivergenceError, SingularMatrixError):
            continue
        if report.converged:  # within the cap, so it beats any earlier best
            best = (alpha, report.iterations)
    if best is None:
        raise ConvergenceFailure("no alpha on the grid produced a converged solve")
    return best


def _format_mu(mu):
    return "" if mu is None else f"{mu:g}"


def _format_alpha(alpha):
    return "" if alpha is None else f"{alpha:g}"


def emit_table(rows, fmt="csv"):
    """Render result rows as CSV or a paper-style markdown table."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["method", "n", "mu", "omega", "alpha", "IT", "CPU_s", "RES",
             "converged", "warnings"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.method,
                    row.n,
                    _format_mu(row.mu),
                    row.omega_tag,
                    _format_alpha(row.alpha),
                    row.IT,
                    f"{row.CPU_s:.4f}",
                    f"{row.RES:.4e}",
                    "true" if row.converged else "false",
                    row.warnings,
                ]
            )
        return buf.getvalue()
    if fmt == "markdown":
        return _emit_markdown(rows)
    raise SpecError(f"unknown table format {fmt!r}")


def _emit_markdown(rows):
    """Method blocks as rows, problem sizes as columns."""
    sizes = sorted({row.n for row in rows})
    methods = []
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
    by_key = {(row.method, row.n): row for row in rows}
    lines = []
    header = ["Method", ""] + [str(n) for n in sizes]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))

    def cells(method, fmt_fn):
        out = []
        for n in sizes:
            row = by_key.get((method, n))
            out.append(fmt_fn(row) if row is not None else "")
        return out

    for method in methods:
        has_alpha = any(
            by_key.get((method, n)) is not None
            and by_key[(method, n)].alpha is not None
            for n in sizes
        )
        block = []
        if has_alpha:
            block.append(
                ("alpha", cells(method, lambda r: _format_alpha(r.alpha)))
            )
        block.append(("IT", cells(method, lambda r: str(r.IT))))
        block.append(("CPU", cells(method, lambda r: f"{r.CPU_s:.4f}")))
        block.append(
            (
                "RES",
                cells(
                    method,
                    lambda r: f"{r.RES:.4e}" + ("" if r.converged else " (!)"),
                ),
            )
        )
        for i, (tag, values) in enumerate(block):
            head = method if i == 0 else ""
            lines.append("| " + " | ".join([head, tag] + values) + " |")
    return "\n".join(lines) + "\n"
