"""Spec parsing, the experiment runner, tuning, and table rendering."""

import pathlib

import numpy as np
import pytest

from gavekit import (
    ConfigurationError,
    ConvergenceFailure,
    GaveProblem,
    OmegaSpec,
    ResultRow,
    SolverConfig,
    SpecError,
    SplittingKind,
    build_splitting,
    emit_table,
    gen_example41,
    identity,
    inms_solve,
    nms_solve,
    parse_spec,
    run_experiment,
    sparse_scale,
    tune_alpha,
)
from gavekit import bench as bench_module
from gavekit.bench import build_method, parse_method_line, run_method

SPEC_TEXT = """
# exercise the example41 generator
problem = example41
m = 4 5
mu = 4
repeats = 2

method = nj omega=mhat
method = nj omega=mhat inner=lsqr theta=paper
method = nsor alpha=0.9 omega=mhat label=relaxed
"""


class TestParseSpec:
    def test_happy_path(self):
        spec = parse_spec(SPEC_TEXT)
        assert spec.problem_kind == "example41"
        assert spec.m_values == (4, 5)
        assert spec.mu == 4.0
        assert spec.repeats == 2
        assert len(spec.methods) == 3
        assert spec.methods[1].config.inner == "lsqr"
        assert spec.methods[2].label == "relaxed"

    def test_dir_problem(self):
        spec = parse_spec("problem = dir:/tmp/p\nmethod = picard\n")
        assert spec.problem_kind == "dir"
        assert spec.directory == "/tmp/p"

    def test_requires_methods(self):
        with pytest.raises(SpecError, match="method"):
            parse_spec("problem = example41\nm = 4\nmu = 1\n")

    def test_requires_mu(self):
        with pytest.raises(SpecError):
            parse_spec("problem = example41\nm = 4\nmethod = nj\n")

    def test_rejects_duplicate_keys(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("problem = example41\nmu = 4\nmu = 2\nm = 4\nmethod = nj\n")

    def test_rejects_unknown_problem(self):
        with pytest.raises(SpecError, match="problem"):
            parse_spec("problem = nope\nmethod = nj\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("repeat = 1\n", "line 5: unknown key 'repeat'"),
            ("k_max = 3\n", "line 5: unknown key 'k_max'"),
            ("method = nj maxiner=0\n", "unknown method option 'maxiner'"),
            ("method = nj thetaa=0.3\n", "unknown method option 'thetaa'"),
        ],
    )
    def test_rejects_unknown_keys_and_options(self, text, match):
        # any spelling outside the grammar is an error, not a silent default
        with pytest.raises(SpecError, match=match):
            parse_spec("problem = example41\nm = 4\nmu = 4\nmethod = nj\n" + text)

    def test_settings_after_method_lines(self):
        spec = parse_spec("method = nj inner=lsqr\nproblem = example41\nm = 4\nmu = 4\n"
                          "tol = 1e-8\nkmax = 7\n")
        assert (spec.methods[0].config.tol, spec.methods[0].config.k_max) == (1e-8, 7)

    def test_rejects_malformed_line(self):
        with pytest.raises(SpecError, match="key = value"):
            parse_spec("problem example41\n")


class TestParseMethodLine:
    def test_defaults(self):
        m = parse_method_line("nj")
        assert m.kind.name == "nj" and m.config.inner == "direct"
        assert m.omega_token == "zero"
        assert m.config.theta.kind == "paper"

    def test_options(self):
        m = parse_method_line("nsor alpha=0.9 omega=mhat:1.5 inner=lsqr theta=0.3 maxinner=40")
        assert m.kind.alpha == 0.9
        assert m.omega_token == "mhat:1.5"
        assert m.config.theta.kind == "constant" and m.config.theta.theta == 0.3
        assert m.config.max_inner == 40

    def test_display_names(self):
        assert parse_method_line("nj").display_name() == "nj"
        assert parse_method_line("nj inner=lsqr").display_name() == "inj"
        assert parse_method_line("nsor alpha=0.9").display_name() == "nsor(0.9)"

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            parse_method_line("jacobi")

    def test_bad_option(self):
        with pytest.raises(SpecError):
            parse_method_line("nj omega")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("nsor alpha=0.9 alpha=1.1", "alpha"),
            ("nj inner=lsqr inner=direct", "inner"),
            ("nj omega=mhat theta=0.3 omega=identity:1", "omega"),
            ("nj label=a LABEL=b", "label"),
        ],
    )
    def test_repeated_option(self, line, key):
        # a second spelling of an option is an error, not an override
        with pytest.raises(SpecError, match=f"duplicate method option '{key}'"):
            parse_method_line(line)


class TestRunExperiment:
    def test_rows_and_determinism(self):
        spec = parse_spec(SPEC_TEXT)
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        assert len(rows1) == 6  # 2 sizes x 3 methods
        for r1, r2 in zip(rows1, rows2):
            assert (r1.method, r1.n, r1.IT) == (r2.method, r2.n, r2.IT)
            assert r1.RES == r2.RES
        for row in rows1:
            assert row.converged
            assert row.RES <= 1e-6

    def test_divergent_row_continues(self, tmp_path):
        from gavekit import save_problem

        A = identity(6)
        B = sparse_scale(3.0, identity(6))
        prob = GaveProblem(A=A, B=B, b=np.ones(6))
        save_problem(prob, tmp_path / "bad")
        spec = parse_spec(
            f"problem = dir:{tmp_path / 'bad'}\nmethod = picard\nmethod = picard\nrepeats = 1\n"
        )
        rows = run_experiment(spec)
        assert len(rows) == 2
        assert not rows[0].converged
        assert "Divergence" in rows[0].warnings


class TestRunMethod:
    def test_mhat_requires_example41(self, rng):
        from conftest import random_dominant

        prob = GaveProblem(
            A=random_dominant(rng, 5), B=sparse_scale(0.0, identity(5)), b=np.ones(5)
        )
        method = parse_method_line("nj omega=mhat")
        with pytest.raises(SpecError, match="mhat"):
            build_method(prob, method, hat_m=None)

    def test_drs_rejects_omega_token(self):
        _, prob, hat = gen_example41(3, 4.0)
        method = parse_method_line("drs gamma=1.0 omega=mhat")
        with pytest.raises(ConfigurationError, match="drs"):
            build_method(prob, method, hat_m=hat)

    @pytest.mark.parametrize("inner", ["direct", "lsqr"])
    @pytest.mark.parametrize(
        "line",
        [
            "picard omega=zero",
            "mn omega=mhat",
            "nmn omega=mhat",
            "drs gamma=1 omega=zero",
            # a token naming a zero shift runs drs's own shift, as omega=zero does
            "drs gamma=1 omega=identity:0",
        ],
    )
    def test_matches_library_calls(self, line, inner):
        # the spec route reaches the same solve as building the splitting by hand
        _, prob, hat = gen_example41(6, 4.0)
        method = parse_method_line(f"{line} inner={inner}")
        report, _ = run_method(prob, method, build_method(prob, method, hat))
        omega = OmegaSpec.scaled(1.0, hat) if "mhat" in line else None
        if method.kind.name == "nmn":
            splitting, omega = build_splitting(prob.A, method.kind, omega), None
        else:
            splitting = build_splitting(prob.A, method.kind)
        solve = nms_solve if inner == "direct" else inms_solve
        want = solve(prob, splitting, omega, SolverConfig(inner=inner))
        assert report.iterations == want.iterations
        assert report.final_res == want.final_res
        np.testing.assert_array_equal(report.x, want.x)


class TestTuneAlpha:
    def test_single_point_grid(self):
        _, prob, hat = gen_example41(5, 4.0)
        alpha, it = tune_alpha(prob, OmegaSpec.scaled(1.0, hat), [0.9])
        assert alpha == 0.9 and it > 0

    def test_returns_minimum_with_smaller_tie(self):
        _, prob, hat = gen_example41(6, 4.0)
        om = OmegaSpec.scaled(1.0, hat)
        grid = [round(0.6 + 0.1 * i, 10) for i in range(9)]
        alpha, it = tune_alpha(prob, om, grid)
        # recompute the iteration counts independently
        counts = {}
        for a in grid:
            rep = nms_solve(prob, build_splitting(prob.A, SplittingKind("nsor", alpha=a)), om)
            if rep.converged:
                counts[a] = rep.iterations
        best_it = min(counts.values())
        assert it == best_it
        assert alpha == min(a for a, c in counts.items() if c == best_it)

    @pytest.mark.parametrize("mu", [4.0, -1.0])
    def test_capped_search_matches_uncapped_loop(self, mu, monkeypatch):
        _, prob, hat = gen_example41(8, mu)
        om = OmegaSpec.scaled(1.0, hat)
        grid = [round(0.5 + 0.05 * i, 10) for i in range(29)]
        best = None
        uncapped_steps = 0
        for a in grid:
            rep = nms_solve(prob, build_splitting(prob.A, SplittingKind("nsor", alpha=a)), om)
            uncapped_steps += rep.iterations
            if rep.converged and (best is None or rep.iterations < best[1]):
                best = (a, rep.iterations)

        steps = []

        def counting_solve(*args, **kwargs):
            rep = nms_solve(*args, **kwargs)
            steps.append(rep.iterations)
            return rep

        monkeypatch.setattr(bench_module, "nms_solve", counting_solve)
        assert tune_alpha(prob, om, grid) == best
        assert sum(steps) < uncapped_steps

    def test_grid_validation(self):
        _, prob, _ = gen_example41(3, 4.0)
        with pytest.raises(SpecError):
            tune_alpha(prob, None, [])
        with pytest.raises(SpecError):
            tune_alpha(prob, None, [2.5])

    def test_all_points_failing(self):
        A = identity(6)
        B = sparse_scale(3.0, identity(6))
        prob = GaveProblem(A=A, B=B, b=np.ones(6))
        with pytest.raises(ConvergenceFailure):
            tune_alpha(prob, None, [0.9, 1.1])


def _synthetic_rows():
    return [
        ResultRow("nj", 10000, 4.0, "mhat", None, 12, 0.0387, 6.7322e-07, True),
        ResultRow("nj", 22500, 4.0, "mhat", None, 12, 0.1382, 5.5545e-07, True),
        ResultRow("inj", 10000, 4.0, "mhat", None, 23, 0.0136, 6.1803e-07, True),
        ResultRow("inj", 22500, 4.0, "mhat", None, 23, 0.0296, 5.4846e-07, True),
        ResultRow("nsor(0.9)", 10000, 4.0, "mhat", 0.9, 9, 0.0361, 1.8257e-07, True),
        ResultRow("nsor(0.9)", 22500, 4.0, "mhat", 0.9, 9, 0.1011, 1.7685e-07, True),
    ]


class TestEmitTable:
    def test_csv_header_and_row(self):
        text = emit_table(_synthetic_rows()[:1], "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "method,n,mu,omega,alpha,IT,CPU_s,RES,converged,warnings"
        assert lines[1] == "nj,10000,4,mhat,,12,0.0387,6.7322e-07,true,"
        assert len(lines) == 2

    def test_res_scientific_format(self):
        text = emit_table(_synthetic_rows(), "csv")
        assert "6.7322e-07" in text
        assert "1.8257e-07" in text

    def test_markdown_matches_golden(self):
        golden = pathlib.Path(__file__).parent / "data" / "table_golden.md"
        text = emit_table(_synthetic_rows(), "markdown")
        assert text == golden.read_text()

    def test_unknown_format(self):
        with pytest.raises(SpecError):
            emit_table([], "html")
