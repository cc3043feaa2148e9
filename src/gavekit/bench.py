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
import math
import statistics
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
from .splittings import KINDS, OmegaSpec, SplittingKind, build_splitting, resolve_omega

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
    """One method of a spec line or of ``gavekit solve``, as it runs.

    ``kind`` names the splitting, ``omega_token`` the shift it is built with
    (see :func:`build_method`), and ``config`` the solve's settings: inner
    solver, theta schedule, inner budget and the spec's stopping rule.
    """

    kind: SplittingKind
    omega_token: str = "zero"  # zero | identity:<w> | mhat | mhat:<c> | file:<path>
    config: SolverConfig = field(default_factory=SolverConfig)
    label: str = ""

    def display_name(self):
        if self.label:
            return self.label
        name = self.kind.name
        if self.config.inner == "lsqr":
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


_SPEC_KEYS = ("problem", "m", "mu", "repeats", "tol", "kmax", "output", "method")
_METHOD_OPTIONS = (
    "alpha", "beta", "gamma", "omega", "inner", "theta", "lmax", "maxinner", "label",
)


def parse_number(token, what, convert=float):
    """``convert(token)``; a malformed or non-finite number raises SpecError naming ``what``."""
    try:
        value = convert(token)
    except ValueError:
        raise SpecError(f"bad {what} value {token!r}") from None
    if not math.isfinite(value):
        raise SpecError(f"non-finite {what} value {token!r}")
    return value


def parse_theta(token, l_max=10):
    if token == "paper":
        return ThetaSchedule.paper(l_max)
    return ThetaSchedule.constant(parse_number(token, "theta"))


def parse_method_line(value, tol=1e-6, k_max=500):
    """Parse a 'method =' line: kind token followed by key=value options.

    ``tol`` and ``k_max`` are the spec's stopping rule; they and the line's
    options make the method's SolverConfig, whose checks run here.
    """
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
        key = key.strip().lower()
        if key not in _METHOD_OPTIONS:
            raise SpecError(f"unknown method option {key!r} in {value!r}")
        if key in opts:
            raise SpecError(f"duplicate method option {key!r} in {value!r}")
        opts[key] = val.strip()

    def number(key, convert=float, default=None):
        return parse_number(opts[key], key, convert) if key in opts else default

    config = SolverConfig(
        tol=tol,
        k_max=k_max,
        inner=opts.get("inner", "direct").lower(),
        theta=parse_theta(opts.get("theta", "paper"), number("lmax", int, 10)),
        max_inner=number("maxinner", int),
    )
    return MethodSpec(
        kind=SplittingKind(
            kind_name, alpha=number("alpha"), beta=number("beta"), gamma=number("gamma")
        ),
        omega_token=opts.get("omega", "zero"),
        config=config,
        label=opts.get("label", ""),
    )


def parse_spec(text):
    """Parse the experiment spec text into an ExperimentSpec.

    Method lines are parsed after every key is read, since ``tol`` and
    ``kmax`` may follow them.
    """
    values = {}
    method_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _SPEC_KEYS:
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        if key == "method":
            method_lines.append(value)
        elif key in values:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        else:
            values[key] = value
    problem = values.get("problem", "")
    if problem == "example41":
        source = dict(
            problem_kind="example41",
            m_values=tuple(parse_number(tok, "m", int) for tok in values.get("m", "").split()),
            mu=parse_number(values["mu"], "mu") if "mu" in values else None,
        )
    elif problem.startswith("dir:"):
        source = dict(problem_kind="dir", directory=problem[4:].strip())
    else:
        raise SpecError(
            f"problem must be 'example41' or 'dir:<path>', got {problem!r}"
        )
    tol = parse_number(values.get("tol", 1e-6), "tol")
    k_max = parse_number(values.get("kmax", 500), "kmax", int)
    return ExperimentSpec(
        **source,
        methods=tuple(parse_method_line(line, tol, k_max) for line in method_lines),
        repeats=parse_number(values.get("repeats", 10), "repeats", int),
        output=values.get("output"),
    )


def resolve_omega_token(token, hat_m=None):
    """Turn an omega token from a spec/CLI into an OmegaSpec."""
    token = token.strip()
    if token in ("zero", "0"):
        return OmegaSpec.zero()
    if token.startswith("identity:"):
        return OmegaSpec.scalar(parse_number(token.split(":", 1)[1], "omega"))
    if token == "mhat" or token.startswith("mhat:"):
        if hat_m is None:
            raise SpecError("omega 'mhat' is only available for example41 problems")
        scale = 1.0 if token == "mhat" else parse_number(token.split(":", 1)[1], "omega")
        return OmegaSpec.scaled(scale, hat_m)
    if token.startswith("file:"):
        return OmegaSpec.explicit(read_matrix_market(token.split(":", 1)[1]))
    raise SpecError(f"unknown omega token {token!r}")


def build_method(problem, method, hat_m=None):
    """The splitting of ``problem.A`` that ``method`` runs with, and its shift.

    The shift is the one ``method.omega_token`` names; ``hat_m`` is the
    example41 block matrix that ``mhat`` tokens scale (None for directory
    problems). :func:`~gavekit.splittings.build_splitting` checks it against
    the kinds that pin their own shift.
    """
    omega = resolve_omega_token(method.omega_token, hat_m)
    return build_splitting(problem.A, method.kind, omega)


def run_method(problem, method, splitting, repeats=1):
    """Solve ``problem`` with ``method.config`` on ``splitting`` (from :func:`build_method`).

    Returns ``(report, mean_cpu_seconds)``. The reported iterate data comes
    from the first (deterministic) run; the time is the mean of
    ``SolveReport.wall_time_s`` over all repeats, each of which re-does the
    factorization work.
    """
    solve = nms_solve if method.config.inner == "direct" else inms_solve
    reports = [solve(problem, splitting, config=method.config) for _ in range(repeats)]
    return reports[0], statistics.fmean(r.wall_time_s for r in reports)


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

    Every method's splitting for a problem is built before that problem's
    first solve, so a bad omega token or a shift that a kind's pin rule
    rejects stops the run before that problem's first row; a ``file:``
    shift is checked against every ``m`` before the first problem's.
    Numerical failures (divergence, singular shifts) produce a row with
    ``converged=False`` and a warning instead of aborting the experiment.
    """
    if spec.problem_kind == "example41":
        for method in spec.methods:
            if method.omega_token.strip().startswith("file:"):
                omega = resolve_omega_token(method.omega_token)
                for m in spec.m_values:
                    resolve_omega(omega, m * m)  # DimensionError on a size mismatch
    rows = []
    for problem, hat, n, mu in _experiment_problems(spec):
        splittings = [build_method(problem, method, hat) for method in spec.methods]
        for method, splitting in zip(spec.methods, splittings):
            try:
                report, cpu = run_method(problem, method, splitting, spec.repeats)
                outcome = (report.iterations, cpu, report.final_res, report.converged,
                           "; ".join(report.warnings))
            except (DivergenceError, SingularMatrixError, NumericsError) as exc:
                outcome = (0, 0.0, float("nan"), False, f"{type(exc).__name__}: {exc}")
            rows.append(ResultRow(method.display_name(), n, mu, method.omega_token,
                                  method.kind.alpha, *outcome))
    return rows


def tune_alpha(problem, omega, grid, tol=1e-6, k_max=500):
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
        config = SolverConfig(tol=tol, k_max=cap, inner="direct")
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
