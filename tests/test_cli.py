"""End-to-end CLI runs (in-process) and exit-code contracts."""

import numpy as np
import pytest
import scipy.sparse.linalg

import gavekit.bench
import gavekit.certify
from gavekit import (
    Condition,
    GaveProblem,
    OmegaSpec,
    SparseMatrix,
    SplittingKind,
    build_splitting,
    check_corollary,
    check_inexact,
    gen_example41,
    identity,
    save_problem,
    sparse_scale,
    write_matrix_market,
    zeros,
)
from gavekit.cli import main

from conftest import count_calls


def test_gen_and_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "prob"
    assert main(["gen", "--kind", "example41", "--m", "6", "--mu", "4", "--out", str(out)]) == 0
    assert (out / "A.mtx").exists()
    assert (out / "xstar.txt").exists()
    assert "mu = 4" in (out / "meta").read_text()
    capsys.readouterr()

    code = main(["solve", "--problem", str(out), "--method", "ngs"])
    text = capsys.readouterr().out
    assert code == 0
    assert "converged  : yes" in text
    assert "IT" in text and "RES" in text


def test_solve_example41_with_mhat_omega(capsys):
    code = main(
        ["solve", "--example41", "8", "4", "--method", "nsor", "--alpha", "0.9",
         "--omega", "mhat"]
    )
    assert code == 0
    assert "converged  : yes" in capsys.readouterr().out


def test_solve_inexact(capsys):
    code = main(
        ["solve", "--example41", "8", "4", "--method", "nj", "--omega", "mhat",
         "--inexact", "--theta", "paper"]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "inner iters" in text


def test_certify_output_format(capsys):
    code = main(
        ["certify", "--example41", "5", "4", "--method", "nj", "--omega", "mhat",
         "--condition", "InexactEq15", "--condition", "ExactEq6",
         "--theta-value", "0.25"]
    )
    text = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(text) == 2
    assert text[0].startswith("InexactEq15 lhs=")
    assert "holds=" in text[0]
    # 17 significant digits in the printed values
    lhs_token = text[0].split()[1]
    assert len(lhs_token.split("=")[1]) >= 20


def test_certify_scalar_omega(capsys):
    code = main(
        ["certify", "--example41", "5", "4", "--condition", "ScalarOmegaThm34",
         "--omega-scalar", "1.0"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("ScalarOmegaThm34")


def test_tune_small_grid(capsys):
    code = main(
        ["tune", "--example41", "6", "4", "--omega", "mhat", "--grid", "0.8:1.1:0.1"]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "alpha_exp" in text


def test_bench_writes_csv(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "problem = example41\nm = 4\nmu = 4\nrepeats = 1\n"
        "method = nj omega=mhat\nmethod = ngs omega=mhat\n"
    )
    out = tmp_path / "table.csv"
    code = main(["bench", "--spec", str(spec), "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,n,mu,omega")
    assert len(lines) == 3


def test_bench_markdown_to_stdout(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "problem = example41\nm = 4\nmu = 4\nrepeats = 1\nmethod = nj omega=mhat\n"
    )
    code = main(["bench", "--spec", str(spec), "--format", "markdown"])
    text = capsys.readouterr().out
    assert code == 0
    assert text.startswith("| Method |")


def test_invalid_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("problem = example41\n")  # no m/mu/methods
    assert main(["bench", "--spec", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validation_error_exits_2(capsys):
    # nsor without alpha is a parameter error
    code = main(["solve", "--example41", "4", "4", "--method", "nsor"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method_line, argv",
    [
        ("nj lmax=abc", None),
        ("nj maxinner=abc", None),
        ("nj omega=identity:abc", None),
        ("nj omega=mhat:x", None),
        (None, ["solve", "--example41", "6", "4", "--omega", "identity:abc"]),
        (None, ["certify", "--example41", "6", "4", "--omega", "mhat:x",
                "--condition", "Cor34"]),
        (None, ["tune", "--example41", "6", "4", "--grid", "0.5:1.5:abc"]),
        (None, ["solve", "--example41", "6", "abc"]),
    ],
    ids=["spec-lmax", "spec-maxinner", "spec-identity", "spec-mhat", "omega-identity",
         "omega-mhat", "tune-grid", "example41-mu"],
)
def test_malformed_number_exits_2(tmp_path, capsys, method_line, argv):
    # a spec line when argv is None, else a command line
    if argv is None:
        spec = tmp_path / "spec.txt"
        spec.write_text(f"problem = example41\nm = 4\nmu = 4\nmethod = {method_line}\n")
        argv = ["bench", "--spec", str(spec)]
    assert main(argv) == 2
    assert "error: bad" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--example41", "6", "4", "--method", "ngs", "--omega", "identity:nan",
         "--condition", "InexactEq15", "--theta-value", "0.3"],
        ["tune", "--example41", "6", "4", "--grid", "0.5:nan:0.1"],
        ["solve", "--example41", "6", "4", "--omega", "identity:inf"],
    ],
    ids=["certify-omega-nan", "tune-grid-nan", "solve-omega-inf"],
)
def test_non_finite_number_exits_2(capsys, argv):
    # parameters must be finite; non-finite data keeps exit 3 (below)
    assert main(argv) == 2
    assert "error: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_certify_non_finite_scalar_shift_exits_2(capsys, value):
    code = main(["certify", "--example41", "6", "4", "--condition", "ScalarOmegaThm34",
                 "--omega-scalar", value, "--theta-value", "0.3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "method_line",
    [
        "nj omega=identity:abc",
        "nj maxinner=0 inner=lsqr",
        "drs gamma=1 omega=mhat",
        "nj omega=file:/nonexistent.mtx",
        "nsor alpha=x",
        "nj inner=bogus",
    ],
)
def test_bad_late_method_line_runs_no_solve(tmp_path, capsys, monkeypatch, method_line):
    # every method line is checked, and every splitting built, before the first solve
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "problem = example41\nm = 6\nmu = 4\nrepeats = 2\n"
        f"method = ngs omega=mhat\nmethod = {method_line}\n"
    )
    calls = count_calls(monkeypatch, gavekit.bench, ("nms_solve", "inms_solve"))
    assert main(["bench", "--spec", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == {}


def test_file_shift_checked_against_every_m_before_any_solve(tmp_path, capsys, monkeypatch):
    # a 16 x 16 shift fits m = 4 but not m = 5; no row runs
    write_matrix_market(tmp_path / "omega.mtx", identity(16))
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "problem = example41\nm = 4 5\nmu = 4\nrepeats = 1\n"
        f"method = nj omega=file:{tmp_path / 'omega.mtx'}\n"
    )
    calls = count_calls(monkeypatch, gavekit.bench, ("nms_solve", "inms_solve"))
    assert main(["bench", "--spec", str(spec)]) == 2
    assert "(25, 25)" in capsys.readouterr().err
    assert calls == {}


def test_max_inner_below_one_exits_2(capsys):
    code = main(["solve", "--example41", "6", "4", "--inexact", "--max-inner", "0"])
    assert code == 2
    assert "max_inner must be at least 1" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    A = identity(6)
    B = sparse_scale(3.0, identity(6))
    save_problem(GaveProblem(A=A, B=B, b=np.ones(6)), tmp_path / "div")
    code = main(["solve", "--problem", str(tmp_path / "div"), "--method", "picard"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_input_exits_3(tmp_path, capsys):
    b = np.ones(6)
    b[2] = np.nan
    save_problem(GaveProblem(A=identity(6), B=zeros(6), b=b), tmp_path / "nan")
    code = main(["solve", "--problem", str(tmp_path / "nan"), "--method", "picard"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_solve_save_x(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = main(
        ["solve", "--example41", "6", "4", "--method", "ngs", "--omega", "mhat",
         "--save-x", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    from gavekit import read_vector

    x = read_vector(out)
    np.testing.assert_allclose(x, np.full(36, -0.6), atol=1e-5)


def _certify_lines(capsys, *args):
    code = main(["certify", "--example41", "6", "4", *args])
    return code, capsys.readouterr().out.strip().splitlines()


def test_certify_nmn_uses_the_pinned_shift(capsys):
    code, lines = _certify_lines(
        capsys, "--method", "nmn", "--omega", "mhat", "--condition", "InexactEq15",
        "--theta-value", "0.5",
    )
    assert code == 0
    _, prob, hat = gen_example41(6, 4.0)
    s = build_splitting(prob.A, "nmn", OmegaSpec.scaled(1.0, hat))
    want = check_inexact(prob.A, prob.B, s.M, s.N, s.omega, 0.5)
    assert lines == [want.format_line()]


def test_certify_drs_uses_the_shift_solve_runs(capsys):
    # gamma = 1 pins Omega = (2/gamma - 1) A = A, not the zero --omega default
    code, lines = _certify_lines(
        capsys, "--method", "drs", "--gamma", "1", "--condition", "InexactEq15",
        "--condition", "Cor35a",
    )
    assert code == 0
    assert [line.split()[1] for line in lines] == ["lhs=9.2659092163158652e-02"] * 2


def test_certify_drs_corollaries_use_the_pinned_shift(capsys):
    # every condition runs with Omega = (2/gamma - 1) A, not the zero --omega
    corollaries = ("Cor31", "Cor32", "Cor33a", "Cor33b")
    args = [arg for name in corollaries for arg in ("--condition", name)]
    code, lines = _certify_lines(capsys, "--method", "drs", "--gamma", "1", *args)
    assert code == 0
    _, prob, _ = gen_example41(6, 4.0)
    s = build_splitting(prob.A, SplittingKind("drs", gamma=1.0))
    want = [
        check_corollary(name, A=prob.A, B=prob.B, omega=s.omega).format_line()
        for name in corollaries
    ]
    assert lines == want


@pytest.fixture
def estimator_calls(monkeypatch):
    """Counts the estimator calls certify makes, by estimator name."""
    return count_calls(monkeypatch, gavekit.certify, (
        "spectral_norm", "min_singular_value", "symmetric_eig_extremes",
        "skew_spectral_radius",
    ))


def test_certify_shares_estimates_between_conditions(estimator_calls, capsys):
    # norm(B) serves both conditions; Omega+M, Omega+N and A are estimated once
    code = main(["certify", "--example41", "24", "4", "--method", "ngs", "--omega", "mhat",
                 "--condition", "InexactEq15", "--theta-value", "0.5", "--condition", "Cor34"])
    assert code == 0
    assert estimator_calls == {"spectral_norm": 4, "min_singular_value": 2}


def test_certify_all_conditions_share_one_set_of_estimates(estimator_calls, capsys):
    args = [arg for c in Condition for arg in ("--condition", c.value)]
    code = main(["certify", "--example41", "6", "4", "--method", "ngs", "--omega", "mhat",
                 "--theta-value", "0.3", "--omega-scalar", "2", "--gamma", "1", *args])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == len(Condition)
    assert estimator_calls == {
        "spectral_norm": 7,
        "min_singular_value": 4,
        "symmetric_eig_extremes": 1,
        "skew_spectral_radius": 1,
    }


def test_certify_missing_input_exits_2_before_any_estimate(estimator_calls, capsys):
    code = main(["certify", "--example41", "24", "4", "--method", "ngs", "--omega", "mhat",
                 "--condition", "InexactEq15", "--condition", "ScalarOmegaThm34"])
    assert code == 2
    assert "ScalarOmegaThm34 requires arguments: omega_scalar" in capsys.readouterr().err
    assert estimator_calls == {}


def test_certify_rejects_a_shift_the_method_pins(capsys):
    code, _ = _certify_lines(
        capsys, "--method", "picard", "--omega", "mhat", "--condition", "InexactEq15"
    )
    assert code == 2
    assert main(["solve", "--example41", "6", "4", "--method", "picard",
                 "--omega", "mhat"]) == 2
    assert "pins its own shift" in capsys.readouterr().err


def test_solve_drs_accepts_a_zero_shift(capsys):
    # build_splitting alone decides: a zero shift is drs's default, mhat is not
    args = ["solve", "--example41", "6", "4", "--method", "drs", "--gamma", "1"]
    assert main([*args, "--omega", "identity:0"]) == 0
    assert "converged  : yes" in capsys.readouterr().out
    assert main([*args, "--omega", "mhat"]) == 2
    assert "pins its own shift" in capsys.readouterr().err


def test_certify_unknown_condition_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--example41", "6", "4", "--condition", "Bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "Bogus" in err


def test_certify_estimator_without_convergence_exits_3(monkeypatch, capsys):
    # no option reaches the ARPACK restart budget, so the failure is injected
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    code = main(["certify", "--example41", "24", "4", "--method", "ngs",
                 "--omega", "mhat", "--condition", "Cor34"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_tune_without_converged_alpha_exits_3(capsys):
    code = main(
        ["tune", "--example41", "6", "4", "--omega", "mhat", "--grid", "0.9", "--kmax", "1"]
    )
    assert code == 3
    assert "no alpha on the grid" in capsys.readouterr().err


def test_certify_singular_shift_exits_3(tmp_path, capsys):
    # nj takes M = diag(A), which is empty for this A
    A = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    save_problem(GaveProblem(A=A, B=zeros(2), b=np.ones(2)), tmp_path / "swap")
    code = main(["certify", "--problem", str(tmp_path / "swap"), "--method", "nj",
                 "--condition", "ExactEq6"])
    assert code == 3
    assert "singular" in capsys.readouterr().err
