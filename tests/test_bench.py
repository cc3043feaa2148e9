"""Spec parsing, the experiment runner, tuning, and table rendering."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

import gavekit.splittings
from gavekit import (
    ConfigurationError,
    ConvergenceFailure,
    GaveProblem,
    OmegaSpec,
    ParameterError,
    ResultRow,
    SolverConfig,
    SparseMatrix,
    SpecError,
    SplittingKind,
    build_splitting,
    diag_matrix,
    emit_table,
    gen_example41,
    identity,
    inms_solve,
    load_problem,
    nms_solve,
    parse_spec,
    run_experiment,
    save_problem,
    sparse_scale,
    tune_alpha,
    write_matrix_market,
    zeros,
)
from gavekit import bench as bench_module
from gavekit.bench import ExperimentSpec, MethodSpec, build_method, method_spec, run_method

from conftest import count_calls, dense

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


def parse_method_line(line):
    """The MethodSpec that a spec builds from ``method = line``."""
    return parse_spec(f"problem = example41\nm = 4\nmu = 4\nmethod = {line}\n").methods[0]


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

    @pytest.mark.parametrize(
        "lines,repeated",
        [
            ("m = 6\nmethod = nj omega=mhat\nmethod = nj omega=mhat:1.5", "method name 'nj'"),
            ("m = 6\nmethod = nsor alpha=0.9\nmethod = ngs label=nsor(0.9)",
             "method name 'nsor(0.9)'"),
            ("m = 6 4 6\nmethod = nj", "m 6"),
        ],
    )
    def test_repeated_row_or_column_rejected(self, lines, repeated):
        # a table has one row block per method name and one column per m
        with pytest.raises(SpecError, match=re.escape(f"repeated {repeated}:")):
            parse_spec(f"problem = example41\nmu = 4\n{lines}\n")

    def test_dir_problem(self):
        spec = parse_spec("problem = dir:/tmp/p\nmethod = picard\n")
        assert spec.problem_kind == "dir"
        assert spec.directory == "/tmp/p"

    def test_mhat_in_a_dir_spec_names_its_line(self):
        # only example41 has the hatM that mhat scales
        with pytest.raises(SpecError) as info:
            parse_spec("problem = dir:/tmp/p\nmethod = picard\nmethod = nj omega=mhat:2\n")
        assert str(info.value) == ("omega 'mhat' is only available for example41 problems "
                                   "(line 3: method = nj omega=mhat:2)")

    def test_requires_methods(self):
        with pytest.raises(SpecError, match="method"):
            parse_spec("problem = example41\nm = 4\nmu = 1\n")

    def test_nan_repeats_rejected(self):
        # repeats < 1 let NaN through
        method = MethodSpec(SplittingKind("nj"))
        with pytest.raises(SpecError, match="repeats"):
            ExperimentSpec("example41", m_values=(4,), mu=4.0, methods=(method,), repeats=np.nan)

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("NJ", "unknown method kind 'NJ'"),
            ("nsor alpha=3", "nsor requires alpha in (0, 2)"),
            ("ngs alpha=1.7", "ngs takes no alpha"),
            ("nj lmax=abc", "bad lmax value 'abc'"),
            ("nj inner=lsqr theta=1.5", "constant theta must lie in [0, 1)"),
            ("nj omega=identity:abc", "bad omega value 'abc'"),
            ("nj omega=0", "unknown omega token '0'"),
            ("nj omega=file:/nonexistent.mtx",
             "[Errno 2] No such file or directory: '/nonexistent.mtx'"),
        ],
    )
    def test_method_line_errors_name_their_line(self, line, message):
        # the second method line is line 6, after a valid one and a blank line
        text = f"problem = example41\nm = 4\nmu = 4\nmethod = nj\n\nmethod = {line}\n"
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert str(info.value) == f"{message} (line 6: method = {line})"


class TestParseMethodLine:
    def test_defaults(self):
        m = parse_method_line("nj")
        assert m.kind.name == "nj" and m.config.inner == "direct"
        assert m.omega is None and m.omega_tag is None
        assert m.config.theta.kind == "paper"

    def test_options(self):
        m = parse_method_line("nsor alpha=0.9 omega=mhat:1.5 inner=lsqr theta=0.3 maxinner=40")
        assert m.kind.alpha == 0.9
        assert m.omega == ("mhat", 1.5) and m.omega_tag == "mhat:1.5"
        assert m.config.theta.kind == "constant" and m.config.theta.theta == 0.3
        assert m.config.max_inner == 40

    def test_display_names(self):
        assert parse_method_line("nj").display_name() == "nj"
        assert parse_method_line("nj inner=lsqr").display_name() == "inj"
        assert parse_method_line("nsor alpha=0.9").display_name() == "nsor(0.9)"

    def test_gamma_shows_only_for_drs(self):
        # any kind may carry the Cor36 gamma, but only drs runs with it
        assert parse_method_line("drs gamma=1.2").display_name() == "drs(1.2)"
        assert parse_method_line("ngs gamma=1.2").display_name() == "ngs"
        assert parse_method_line("nsor alpha=0.9 gamma=1").display_name() == "nsor(0.9)"

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            parse_method_line("jacobi")

    def test_bad_option(self):
        with pytest.raises(SpecError):
            parse_method_line("nj omega")

    @pytest.mark.parametrize(
        "line", ["NJ", "nj INNER=lsqr", "nj inner=LSQR", "nj inner=lsqr theta=PAPER"]
    )
    def test_method_text_is_exact_lowercase(self, line):
        with pytest.raises((SpecError, ParameterError)):
            parse_method_line(line)

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
        # a second spelling of an option is an error, not an override; option
        # names are exact lowercase, so an upper-case one is unknown
        message = f"duplicate method option '{key}'"
        if f" {key.upper()}=" in line:
            message = f"unknown method option '{key.upper()}'"
        with pytest.raises(SpecError, match=message):
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
            assert row.warnings == ""  # the two repeats agree

    def test_divergent_row_continues(self, tmp_path):
        from gavekit import save_problem

        A = identity(6)
        B = sparse_scale(3.0, identity(6))
        prob = GaveProblem(A=A, B=B, b=np.ones(6))
        save_problem(prob, tmp_path / "bad")
        spec = parse_spec(
            f"problem = dir:{tmp_path / 'bad'}\nmethod = picard label=first\n"
            "method = picard label=second\nrepeats = 1\n"
        )
        rows = run_experiment(spec)
        assert len(rows) == 2
        assert not rows[0].converged
        assert "Divergence" in rows[0].warnings

    def test_row_without_omega_has_an_empty_omega_cell(self):
        # drs runs its own shift, (2/gamma - 1) A, which no token names
        text = "problem = example41\nm = 4\nmu = 4\nrepeats = 1\nmethod = drs gamma=1\n"
        rows = run_experiment(parse_spec(text))
        assert rows[0].omega_tag is None
        assert emit_table(rows, "csv").splitlines()[1].startswith("drs(1),16,4,,,10,")


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


    @pytest.mark.parametrize("inner", ["direct", "lsqr"])
    def test_a_repeat_that_differs_adds_a_warning(self, inner, monkeypatch):
        _, prob, hat = gen_example41(6, 4.0)
        method = parse_method_line(f"nj omega=mhat inner={inner}")
        splitting = build_method(prob, method, hat)
        name = "nms_solve" if inner == "direct" else "inms_solve"
        solve = getattr(bench_module, name)
        want = solve(prob, splitting, config=method.config)
        drift = iter([{}, {"iterations": want.iterations + 1}, {},
                      {"final_res": 2 * want.final_res},
                      {"inner_iters": np.append(want.inner_iters, 1)}])

        def nondeterministic_solve(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), **next(drift))

        monkeypatch.setattr(bench_module, name, nondeterministic_solve)
        report, _ = run_method(prob, method, splitting, repeats=5)
        it, res, inner_total = want.iterations, want.final_res, int(want.inner_iters.sum())
        assert report.iterations == it and report.final_res == res
        assert report.warnings == (
            f"repeat 2 differs from repeat 1: IT {it + 1} vs {it}, "
            f"RES {res:.4e} vs {res:.4e}, inner iters {inner_total} vs {inner_total}",
            f"repeat 4 differs from repeat 1: IT {it} vs {it}, "
            f"RES {2 * res:.4e} vs {res:.4e}, inner iters {inner_total} vs {inner_total}",
            f"repeat 5 differs from repeat 1: IT {it} vs {it}, RES {res:.4e} vs {res:.4e}, "
            f"inner iters {inner_total + 1} vs {inner_total}",
        )


class TestResolveOmegaToken:
    # a method's omega token is typed when its line (or --omega) is read

    @pytest.mark.parametrize("token", ["0", "ZERO", "identity", "file"])
    def test_unknown_tokens(self, token):
        # zero has one spelling; "0" is not a second one
        with pytest.raises(SpecError, match="unknown omega token"):
            parse_method_line(f"nj omega={token}")

    def test_zero(self):
        assert method_spec("nj", {"omega": " zero "}).omega == ("zero", None)

    def test_file_token_is_the_matrix_it_reads(self, tmp_path):
        write_matrix_market(tmp_path / "omega.mtx", sparse_scale(2.0, identity(3)))
        method = method_spec("nj", {"omega": f"file:{tmp_path / 'omega.mtx'}"})
        assert isinstance(method.omega, SparseMatrix)
        np.testing.assert_array_equal(dense(method.omega), 2.0 * np.eye(3))
        assert method.omega_tag == f"file:{tmp_path / 'omega.mtx'}"

    def test_file_shift_is_read_once(self, tmp_path, monkeypatch):
        # read when the spec is read, and not again when the rows are built
        write_matrix_market(tmp_path / "omega.mtx", identity(16))
        calls = count_calls(monkeypatch, bench_module, ("read_matrix_market",))
        rows = run_experiment(parse_spec(
            "problem = example41\nm = 4\nmu = 4\nrepeats = 1\n"
            f"method = nj omega=file:{tmp_path / 'omega.mtx'}\n"))
        assert calls == {"read_matrix_market": 1}
        assert [row.n for row in rows] == [16]
    # each token's matrix, built directly from hatM and n = m * m, for example41 m = 6
    DIRECT = {
        "zero": lambda hat, n: zeros(n),
        "identity:0": lambda hat, n: diag_matrix(np.full(n, 0.0)),
        "identity:1.5": lambda hat, n: diag_matrix(np.full(n, 1.5)),
        "mhat": lambda hat, n: sparse_scale(1.0, hat),
        "mhat:0": lambda hat, n: sparse_scale(0.0, hat),
        "mhat:1.5": lambda hat, n: sparse_scale(1.5, hat),
        "file:": lambda hat, n: sparse_scale(0.75, hat),
    }

    @pytest.mark.parametrize("token", list(DIRECT))
    @pytest.mark.parametrize("line", ["nj", "nmn", "drs gamma=0.8"])
    def test_token_is_the_matrix_built_directly(self, tmp_path, line, token):
        # the shift build_method runs with is the token's matrix, or for drs its
        # own shift when that matrix is zero
        _, prob, hat = gen_example41(6, 4.0)
        direct = self.DIRECT[token](hat, prob.n)
        if token == "file:":
            write_matrix_market(tmp_path / "omega.mtx", direct)
            token = f"file:{tmp_path / 'omega.mtx'}"
        spec = parse_spec(f"problem = example41\nm = 6\nmu = 4\nmethod = {line} omega={token}\n")
        method = spec.methods[0]
        if method.kind.name == "drs":
            if direct.max_abs() != 0.0:
                with pytest.raises(ConfigurationError,
                                   match="^drs pins its own shift matrix; a supplied one must be zero$"):
                    build_method(prob, method, hat)
                return
            direct = build_splitting(prob.A, method.kind).omega
        got = build_method(prob, method, hat).omega
        assert _bits(got) == _bits(direct)

    def test_mhat_on_a_directory_problem(self, tmp_path):
        _, prob, hat = gen_example41(6, 4.0)
        save_problem(prob, tmp_path / "p")
        method = parse_method_line("nj omega=mhat")
        with pytest.raises(SpecError) as info:
            build_method(load_problem(tmp_path / "p"), method)
        assert str(info.value) == "omega 'mhat' is only available for example41 problems"


def _bits(X):
    """A matrix's shape, index arrays and value bits, to compare bit for bit."""
    return X.shape, X.row_ptr.tolist(), X.col_idx.tolist(), X.values.tobytes()


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

    def test_builds_each_point_with_build_splitting(self, monkeypatch):
        _, prob, hat = gen_example41(8, -1.0)
        built, solved = [], []

        def recording_build(A, kind, *args, **kwargs):
            built.append(kind)
            return build_splitting(A, kind, *args, **kwargs)

        def recording_solve(problem, splitting, *args, **kwargs):
            solved.append(splitting.kind)
            return nms_solve(problem, splitting, *args, **kwargs)

        monkeypatch.setattr(bench_module, "build_splitting", recording_build)
        monkeypatch.setattr(bench_module, "nms_solve", recording_solve)
        grid = [round(0.5 + 0.1 * i, 10) for i in range(15)]
        tune_alpha(prob, OmegaSpec.scaled(1.5, hat), grid)
        assert len(solved) > 1
        assert built == solved == [SplittingKind("nsor", alpha=a) for a in grid[:len(solved)]]

    def test_resolves_the_shift_once_per_search(self, monkeypatch):
        _, prob, hat = gen_example41(8, -1.0)
        resolved = []
        for module in (gavekit.splittings, bench_module):
            def counting(spec, n, _resolve=module.resolve_omega):
                if not isinstance(spec, SparseMatrix):
                    resolved.append(spec)
                return _resolve(spec, n)

            monkeypatch.setattr(module, "resolve_omega", counting)
        points = count_calls(monkeypatch, bench_module, ["nms_solve"])
        om = OmegaSpec.scaled(1.5, hat)
        tune_alpha(prob, om, [round(0.5 + 0.1 * i, 10) for i in range(15)])
        assert points["nms_solve"] > 1
        assert resolved == [om]

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

    def test_markdown_refuses_rows_that_share_a_cell(self):
        # one nj block has room for only one of these rows
        rows = [ResultRow("nj", 36, 4.0, "mhat", None, 13, 0.001, 5.0e-07, True),
                ResultRow("nj", 36, 4.0, "mhat:1.5", None, 8, 0.001, 4.0e-07, True)]
        with pytest.raises(SpecError, match="share a method name and n"):
            emit_table(rows, "markdown")
        assert emit_table(rows, "csv").count("\nnj,36,") == 2
