"""Command line interface.

Subcommands: ``gen`` (write problem directories), ``solve`` (single solve),
``certify`` (evaluate convergence conditions), ``tune`` (relaxation search),
``bench`` (run an experiment spec and write a table).

Exit codes: 0 on success, 2 on specification/validation errors, 3 on
numerical failures (singularity, divergence, non-convergent estimators).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import bench as bench_mod
from . import certify as certify_mod
from .errors import (
    ConfigurationError,
    ConvergenceFailure,
    DimensionError,
    DivergenceError,
    FormatError,
    NumericsError,
    ParameterError,
    SingularMatrixError,
    SpecError,
)
from .mmio import _open_text
from .problems import gen_certified, gen_example41, load_problem, save_problem

_VALIDATION_ERRORS = (
    SpecError,
    ParameterError,
    ConfigurationError,
    FormatError,
    DimensionError,
    OSError,  # a path that cannot be opened, read or written
    UnicodeDecodeError,  # the readers name their file (FormatError); this is the safety net
)
_NUMERICAL_ERRORS = (
    SingularMatrixError,
    DivergenceError,
    NumericsError,
    ConvergenceFailure,
)
# options read with bench.parse_number, as a spec reads its numbers
_NUMBERS = dict(m=int, mu=float, n=int, seed=int, dominance=float, b_scale=float,
                tol=float, kmax=int, theta_value=float, omega_scalar=float)


def _add_problem_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", metavar="DIR", help="problem directory")
    group.add_argument(
        "--example41",
        nargs=2,
        metavar=("M", "MU"),
        help="generate the block-Laplacian instance with grid size M and shift MU",
    )


def _load_problem_args(args):
    """Returns (problem, hat_m); hat_m is None for directory problems."""
    if args.problem:
        return load_problem(args.problem), None
    m = bench_mod.parse_number(args.example41[0], "M", int)
    mu = bench_mod.parse_number(args.example41[1], "MU")
    _, problem, hat = gen_example41(m, mu)
    return problem, hat


def _cmd_gen(args):
    if args.kind == "example41":
        if args.m is None or args.mu is None:
            raise SpecError("gen example41 requires --m and --mu")
        _, problem, _ = gen_example41(args.m, args.mu)
        extra = {"m": args.m, "mu": args.mu}
    else:
        if args.n is None:
            raise SpecError("gen certified requires --n")
        problem = gen_certified(
            args.n, args.seed, b_norm_scale=args.b_scale, dominance=args.dominance
        )
        extra = {
            "n": args.n,
            "seed": args.seed,
            "b_norm_scale": args.b_scale,
            "dominance": args.dominance,
        }
    save_problem(problem, args.out, extra=extra)
    print(f"wrote problem ({problem.n} unknowns) to {args.out}")
    return 0


def _cmd_solve(args):
    problem, hat = _load_problem_args(args)
    # the method options' dests are their spec names, so a spec line's builder reads them
    method = bench_mod.method_spec(args.method, vars(args))
    splitting = bench_mod.build_method(problem, method, hat)
    report, cpu = bench_mod.run_method(problem, method, splitting)
    print(f"method     : {method.display_name()}")
    print(f"n          : {problem.n}")
    print(f"converged  : {'yes' if report.converged else 'no'}")
    print(f"IT         : {report.iterations}")
    print(f"RES        : {report.final_res:.4e}")
    print(f"CPU_s      : {cpu:.4f}")
    if report.inner_iters.size:
        print(f"inner iters: {report.inner_iters.sum()} total")
    for warning in report.warnings:
        print(f"warning    : {warning}")
    if args.save_x:
        from .mmio import write_vector

        write_vector(args.save_x, report.x)
        print(f"solution written to {args.save_x}")
    return 0 if report.converged else 3


def _cmd_certify(args):
    problem, hat = _load_problem_args(args)
    # every condition runs with the shift solve would use
    method = bench_mod.method_spec(args.method, vars(args))
    splitting = bench_mod.build_method(problem, method, hat)
    certificates = certify_mod.evaluate(
        args.condition,
        A=problem.A,
        B=problem.B,
        M=splitting.M,
        N=splitting.N,
        omega=splitting.omega,
        theta=args.theta_value,
        gamma=method.kind.gamma,
        omega_scalar=args.omega_scalar,
    )
    print("\n".join(cert.format_line() for cert in certificates))
    return 0


def _parse_grid(token):
    parts = token.split(":")
    values = [bench_mod.parse_number(p, "grid") for p in parts]
    if len(parts) == 1:
        return values
    if len(parts) == 3:
        lo, hi, step = values
        if step <= 0:
            raise SpecError("grid step must be positive")
        count = int(round((hi - lo) / step))
        return [round(lo + i * step, 12) for i in range(count + 1) if lo + i * step <= hi + 1e-12]
    raise SpecError("grid must be a single value or lo:hi:step")


def _cmd_tune(args):
    problem, hat = _load_problem_args(args)
    omega = bench_mod.shift_matrix(bench_mod.resolve_omega_token(args.omega), problem.n, hat)
    grid = _parse_grid(args.grid)
    # an option not given is not passed, so tune_alpha's default applies
    stopping = {key: value for key, value in dict(tol=args.tol, k_max=args.kmax).items()
                if value is not None}
    alpha, it = bench_mod.tune_alpha(problem, omega, grid, **stopping)
    print(f"alpha_exp = {alpha:g}  (IT = {it})")
    return 0


def _cmd_bench(args):
    with _open_text(args.spec, "utf-8") as fh:
        spec = bench_mod.parse_spec(fh.read())
    out = args.out or spec.output
    # opened before the first solve, so a path that cannot be written costs no
    # solve; appending keeps an old table until the new one replaces it
    with open(out, "a", encoding="utf-8") if out else contextlib.nullcontext() as fh:
        rows = bench_mod.run_experiment(spec)
        table = bench_mod.emit_table(rows, args.format)
        if out:
            fh.truncate(0)
            fh.write(table)
            print(f"wrote {len(rows)} rows to {out}")
        else:
            print(table, end="")
    required_failed = [row for row in rows if not row.converged]
    return 3 if required_failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gavekit",
        description="Newton-based matrix-splitting solvers for Ax - B|x| - b = 0",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a problem directory")
    p_gen.add_argument("--kind", choices=["example41", "certified"], default="example41")
    p_gen.add_argument("--m", help="grid size (n = m^2) for example41")
    p_gen.add_argument("--mu", help="diagonal shift for example41")
    p_gen.add_argument("--n", help="dimension for certified problems")
    p_gen.add_argument("--seed", default=0)
    p_gen.add_argument("--dominance", default=10.0)
    p_gen.add_argument("--b-scale", default=1.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    def add_method_args(p):
        p.add_argument("--method", default="nj", help="splitting kind token")
        p.add_argument("--alpha")
        p.add_argument("--beta")
        p.add_argument("--gamma")
        p.add_argument("--omega",
                       help="zero | identity:<w> | mhat | mhat:<c> | file:<path>; "
                       "not given: the kind's own shift (nmn requires one)")

    p_solve = sub.add_parser("solve", help="run a single solve and print the report")
    _add_problem_args(p_solve)
    add_method_args(p_solve)
    p_solve.add_argument("--inexact", dest="inner", action="store_const", const="lsqr",
                         help="use the lsqr inner solver")
    p_solve.add_argument("--theta", help="'paper' (default) or a constant in [0,1)")
    p_solve.add_argument("--lmax", help="schedule cutoff for --theta paper (default 10)")
    p_solve.add_argument("--max-inner", dest="maxinner")
    p_solve.add_argument("--tol")
    p_solve.add_argument("--kmax")
    p_solve.add_argument("--save-x", help="write the final iterate to this file")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify", help="evaluate convergence certificates")
    _add_problem_args(p_cert)
    add_method_args(p_cert)
    p_cert.add_argument(
        "--condition",
        action="append",
        required=True,
        choices=[c.value for c in certify_mod.Condition],
        metavar="NAME",
        help="condition name (repeatable), e.g. InexactEq15",
    )
    p_cert.add_argument("--theta-value", default=0.0)
    p_cert.add_argument("--omega-scalar")
    p_cert.set_defaults(func=_cmd_certify)

    p_tune = sub.add_parser("tune", help="grid-search the nsor relaxation parameter")
    _add_problem_args(p_tune)
    p_tune.add_argument("--omega",
                        help="zero | identity:<w> | mhat | mhat:<c> | file:<path>; "
                        "not given: zero (nsor's own shift)")
    p_tune.add_argument("--grid", default="0.5:1.5:0.01", help="lo:hi:step")
    p_tune.add_argument("--tol")
    p_tune.add_argument("--kmax")
    p_tune.set_defaults(func=_cmd_tune)

    p_bench = sub.add_parser("bench", help="run an experiment spec")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for dest, convert in _NUMBERS.items():
            if getattr(args, dest, None) is not None:
                flag = "--" + dest.replace("_", "-")
                setattr(args, dest, bench_mod.parse_number(getattr(args, dest), flag, convert))
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
