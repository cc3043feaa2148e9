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
    ParameterError,
    SingularMatrixError,
    SpecError,
)
from .mmio import read_matrix_market
from .problems import check_grid_size, gen_example41, load_problem
from .sparse import SparseMatrix
from .solver import SolverConfig, ThetaSchedule, inms_solve, nms_solve
from .splittings import (
    KINDS,
    OmegaSpec,
    SplittingKind,
    _diagonal_and_lower,
    _triangular_splitting,
    build_splitting,
    resolve_omega,
)

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

    ``kind`` names the splitting, ``omega`` its shift as :func:`resolve_omega_token`
    types it (None: the kind's own) and ``omega_tag`` that token as written, the
    table's ``omega`` cell. ``config`` holds the solve's settings: inner solver,
    theta schedule, inner budget and the spec's stopping rule.
    """

    kind: SplittingKind
    omega: OmegaSpec | SparseMatrix | None = None
    config: SolverConfig = field(default_factory=SolverConfig)
    label: str = ""
    omega_tag: str | None = None  # zero | identity:<w> | mhat | mhat:<c> | file:<path>

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
        elif self.kind.name == "drs":
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
        if not self.repeats >= 1:
            raise SpecError("repeats must be at least 1")
        if not self.methods:
            raise SpecError("at least one method is required")
        if self.problem_kind == "example41":
            if not self.m_values or self.mu is None:
                raise SpecError("example41 problems need 'm' and 'mu'")
            for m in self.m_values:
                check_grid_size(m)  # before anything is allocated
                for method in self.methods:
                    if isinstance(method.omega, SparseMatrix):  # a file: shift
                        resolve_omega(method.omega, m * m)  # DimensionError on a size mismatch
        elif self.problem_kind == "dir":
            if not self.directory:
                raise SpecError("directory problems need a path")
        else:
            raise SpecError(f"unknown problem kind {self.problem_kind!r}")
        names = [method.display_name() for method in self.methods]
        for what, values in (("m", self.m_values), ("method name", names)):
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise SpecError(f"repeated {what} {repeated[0]!r}: a table has one column per "
                                "m and one row block per method name, which label= sets")


@dataclass
class ResultRow:
    """One (method, problem size) measurement."""

    method: str
    n: int
    mu: float | None
    omega_tag: str | None
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
    if isinstance(value, float) and not math.isfinite(value):  # an int is finite at any size
        raise SpecError(f"non-finite {what} value {token!r}")
    return value


def _method_tokens(value):
    """The kind and the option map of a 'method =' line, checked but not yet built."""
    tokens = value.split()
    if not tokens:
        raise SpecError("empty method line")
    if tokens[0] not in KINDS:
        raise SpecError(f"unknown method kind {tokens[0]!r}")
    opts = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise SpecError(f"malformed method option {tok!r}")
        key, _, val = tok.partition("=")
        if key not in _METHOD_OPTIONS:
            raise SpecError(f"unknown method option {key!r} in {value!r}")
        if key in opts:
            raise SpecError(f"duplicate method option {key!r} in {value!r}")
        opts[key] = val
    return tokens[0], opts


def method_spec(kind, options):
    """The MethodSpec of splitting ``kind`` with its method options, checked.

    ``options`` maps method-option names (``alpha``, ``theta``, ``maxinner``,
    ...) and the stopping rule's ``tol`` and ``kmax`` to their text, as a
    spec or the parsed arguments of ``gavekit solve``/``certify`` hold them;
    other keys are ignored, and an absent or None option takes its default.
    """

    def text(key, default):
        return default if options.get(key) is None else options[key]

    def number(key, convert=float, default=None):
        return default if options.get(key) is None else parse_number(options[key], key, convert)

    l_max, theta = number("lmax", int, 10), text("theta", "paper")
    stopping = dict(tol=number("tol"), k_max=number("kmax", int))
    config = SolverConfig(
        inner=text("inner", "direct"),
        theta=ThetaSchedule.paper(l_max) if theta == "paper"
        else ThetaSchedule.constant(parse_number(theta, "theta")),
        max_inner=number("maxinner", int),
        **{key: value for key, value in stopping.items() if value is not None},
    )
    return MethodSpec(
        SplittingKind(kind, alpha=number("alpha"), beta=number("beta"), gamma=number("gamma")),
        omega=resolve_omega_token(options.get("omega")),
        config=config,
        label=text("label", ""),
        omega_tag=options.get("omega"),
    )


def parse_spec(text):
    """Parse the experiment spec text into an ExperimentSpec.

    Method lines are built after every key is read, since ``tol`` and
    ``kmax``, which join each line's options, may follow them. An error in
    a method line, its joined ``tol`` and ``kmax`` and its omega token
    included, names the line.
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
            method_lines.append((lineno, value))
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
        raise SpecError(f"problem must be 'example41' or 'dir:<path>', got {problem!r}")
    stopping = {key: values[key] for key in ("tol", "kmax") if key in values}
    methods = []
    for lineno, value in method_lines:
        try:
            kind, opts = _method_tokens(value)
            methods.append(method_spec(kind, {**opts, **stopping}))
            if problem != "example41":
                _with_hat_m(methods[-1].omega, None)  # mhat scales example41's hatM
        except (ValueError, OSError) as exc:  # any validation error; a file: shift not read
            raise SpecError(f"{exc} (line {lineno}: method = {value})") from None
    return ExperimentSpec(
        **source,
        methods=tuple(methods),
        repeats=parse_number(values.get("repeats", 10), "repeats", int),
        output=values.get("output"),
    )


def resolve_omega_token(token):
    """The typed shift an omega token names: an OmegaSpec, the matrix a ``file:`` names, or None.

    ``mhat:<c>`` is ``OmegaSpec.scaled(c, None)``, whose base :func:`build_method` fills.
    """
    if token is None:
        return None
    token = token.strip()
    name, colon, value = token.partition(":")
    if token == "zero":
        return OmegaSpec.zero()
    if name == "identity" and colon:
        return OmegaSpec.scalar(parse_number(value, "omega"))
    if name == "mhat":
        return OmegaSpec.scaled(parse_number(value, "omega") if colon else 1.0, None)
    if name == "file" and colon:
        return read_matrix_market(value)
    raise SpecError(f"unknown omega token {token!r}")


def _with_hat_m(omega, hat_m):
    """``omega`` with ``hat_m`` as the base of an ``mhat`` shift; SpecError without one."""
    if not (isinstance(omega, OmegaSpec) and omega.kind == "scaled"):
        return omega
    if hat_m is None:
        raise SpecError("omega 'mhat' is only available for example41 problems")
    return OmegaSpec.scaled(omega.scale, hat_m)


def build_method(problem, method, hat_m=None):
    """The splitting of ``problem.A`` that ``method`` runs with, and its shift.

    ``hat_m`` is the example41 block matrix that an ``mhat`` shift scales
    (None for directory problems). :func:`~gavekit.splittings.build_splitting`
    checks the shift against the kinds that pin their own.
    """
    return build_splitting(problem.A, method.kind, _with_hat_m(method.omega, hat_m))


def run_method(problem, method, splitting, repeats=1):
    """Solve ``problem`` with ``method.config`` on ``splitting`` (from :func:`build_method`).

    Returns ``(report, mean_cpu_seconds)``. The reported iterate data comes
    from the first run; the time is the mean of ``SolveReport.wall_time_s``
    over all repeats, each of which re-does the factorization work. A later
    repeat whose IT, final residual or inner counts differ from the first's
    adds a warning to the report: the solves are meant to be deterministic.
    """
    solve = nms_solve if method.config.inner == "direct" else inms_solve
    reports = [solve(problem, splitting, config=method.config) for _ in range(repeats)]
    first = reports[0]
    for k, r in enumerate(reports[1:], start=2):
        if _repeat_key(r) != _repeat_key(first):
            first.warnings += (
                f"repeat {k} differs from repeat 1: IT {r.iterations} vs {first.iterations}, "
                f"RES {r.final_res:.4e} vs {first.final_res:.4e}, "
                f"inner iters {int(r.inner_iters.sum())} vs {int(first.inner_iters.sum())}",
            )
    return first, statistics.fmean(r.wall_time_s for r in reports)


def _repeat_key(report):
    # repr tells every float apart and keeps a NaN equal to itself
    return report.iterations, repr(report.final_res), report.inner_iters.tolist()


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
    first solve, so a shift that a kind's pin rule rejects stops the run
    before that problem's first row. Numerical failures (divergence,
    singular shifts) produce a row with ``converged=False`` and a warning
    instead of aborting the experiment.
    """
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
            rows.append(ResultRow(method.display_name(), n, mu, method.omega_tag,
                                  method.kind.alpha, *outcome))
    return rows


def tune_alpha(problem, omega, grid, tol=SolverConfig.tol, k_max=SolverConfig.k_max):
    """Grid-search the nsor relaxation parameter for the fewest iterations.

    Runs the exact solver once per grid point and returns
    ``(alpha, iterations)`` for the best converged point; ties break toward
    the smaller alpha. Non-converged or diverging points are skipped.

    Once a best point is known, later points only need to beat it, so they
    run with ``k_max = best - 1``; the search stops when that cap reaches 0
    (the start residual does not depend on alpha). The result is the same
    as running every point to ``k_max``.

    Only ``M = D / alpha - L`` changes with alpha, so ``A`` is split into
    its diagonal and lower part and the shift resolved once per search; each
    point's splitting is ``build_splitting``'s, bit for bit.
    """
    grid = [float(a) for a in grid]
    if not grid:
        raise SpecError("alpha grid must be nonempty")
    if any(not 0.0 < a < 2.0 for a in grid):
        raise SpecError("alpha grid values must lie in (0, 2)")
    D, L = _diagonal_and_lower(problem.A)
    omega = resolve_omega(omega, problem.A.n_rows)  # nsor does not pin its shift
    best = None
    for alpha in sorted(grid):
        cap = k_max if best is None else best[1] - 1
        if cap < 1:
            break
        config = SolverConfig(tol=tol, k_max=cap, inner="direct")
        try:
            splitting = _triangular_splitting(problem.A, SplittingKind("nsor", alpha=alpha), D, L)
            report = nms_solve(problem, splitting, omega, config)
        except (DivergenceError, SingularMatrixError):
            continue
        if report.converged:  # within the cap, so it beats any earlier best
            best = (alpha, report.iterations)
    if best is None:
        raise ConvergenceFailure("no alpha on the grid produced a converged solve")
    return best


_COLUMNS = ("method", "n", "mu", "omega", "alpha", "IT", "CPU_s", "RES", "converged", "warnings")
# the format of each formatted column, in the CSV and the markdown table alike
_FORMATS = {"mu": "g", "alpha": "g", "CPU_s": ".4f", "RES": ".4e"}


def _cell(row, column):
    """The text of one result cell; an absent mu or alpha is an empty cell."""
    value = getattr(row, "omega_tag" if column == "omega" else column)
    if column == "converged":
        return "true" if value else "false"
    return "" if value is None else format(value, _FORMATS.get(column, ""))


def emit_table(rows, fmt="csv"):
    """Render result rows as CSV or a paper-style markdown table."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows([_cell(row, column) for column in _COLUMNS] for row in rows)
        return buf.getvalue()
    if fmt == "markdown":
        return _emit_markdown(rows)
    raise SpecError(f"unknown table format {fmt!r}")


def _emit_markdown(rows):
    """Method blocks as rows, problem sizes as columns."""
    sizes = sorted({row.n for row in rows})
    methods = list(dict.fromkeys(row.method for row in rows))
    by_key = {(row.method, row.n): row for row in rows}
    if len(by_key) < len(rows):  # a later row would hide an earlier one
        raise SpecError("two rows share a method name and n; label= tells methods apart")
    header = ["Method", ""] + [str(n) for n in sizes]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for method in methods:
        present = [by_key.get((method, n)) for n in sizes]
        block = [("IT", "IT"), ("CPU", "CPU_s"), ("RES", "RES")]
        if any(row is not None and row.alpha is not None for row in present):
            block.insert(0, ("alpha", "alpha"))
        for i, (tag, column) in enumerate(block):
            cells = ["" if row is None else _cell(row, column)
                     + (" (!)" if column == "RES" and not row.converged else "")
                     for row in present]
            lines.append("| " + " | ".join([method if i == 0 else "", tag] + cells) + " |")
    return "\n".join(lines) + "\n"
