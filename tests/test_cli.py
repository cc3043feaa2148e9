"""End-to-end CLI runs (in-process) and exit-code contracts."""

import pathlib

import numpy as np
import pytest

import gavekit.bench
import gavekit.certify
import gavekit.linalg
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

from conftest import count_calls, from_dense


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
    "argv",
    [
        "solve --example41 4 4 --omega file:{tmp}/dir",
        "solve --example41 4 4 --omega file:{tmp}/accent.mtx",
        "bench --spec {tmp}/binary.spec",
        "bench --spec {tmp}/good.spec --out {tmp}/dir",
        "gen --kind example41 --m 4 --mu 4 --out {tmp}/file/sub",
    ],
    ids=["shift-is-a-directory", "shift-not-ascii", "spec-not-utf8", "out-is-a-directory",
         "out-under-a-file"],
)
def test_unreadable_or_undecodable_path_exits_2(tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "accent.mtx").write_bytes(
        b"%%MatrixMarket matrix coordinate real general\n16 16 1\n1 1 1.0 \xe9\n")
    (tmp_path / "binary.spec").write_bytes(b"problem = example41\n\xff\xfe\x00\n")
    (tmp_path / "good.spec").write_text("problem = example41\nm = 4\nmu = 4\nrepeats = 1\n"
                                        "method = nj omega=mhat\n")
    assert main(argv.format(tmp=tmp_path).split()) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, name",
    [
        ("bench --spec {tmp}/binary.spec", "binary.spec"),
        ("solve --example41 4 4 --omega file:{tmp}/comment.mtx", "comment.mtx"),
        ("solve --example41 4 4 --omega file:{tmp}/accent.mtx", "accent.mtx"),
        ("solve --problem {tmp}/prob", "meta"),
        ("solve --problem {tmp}/vector", "b.txt"),
    ],
    ids=["spec", "mtx-comment-line", "mtx-entry-line", "meta", "vector"],
)
def test_undecodable_text_names_its_file(tmp_path, capsys, argv, name):
    (tmp_path / "binary.spec").write_bytes(b"problem = example41\n\xd0\x00\n")
    (tmp_path / "comment.mtx").write_bytes(
        b"%%MatrixMarket matrix coordinate real general\n% caf\xc3\xa9\n16 16 0\n")
    (tmp_path / "accent.mtx").write_bytes(
        b"%%MatrixMarket matrix coordinate real general\n16 16 1\n1 1 1.0 \xe9\n")
    for directory, bad in (("prob", "meta"), ("vector", "b.txt")):
        save_problem(GaveProblem(A=identity(3), B=zeros(3), b=np.ones(3)), tmp_path / directory)
        (tmp_path / directory / bad).write_bytes(b"provenance = caf\xc3\xa9\n")
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}/") and f"{name}: " in err
    assert "codec can't decode" in err


@pytest.mark.parametrize(
    "argv",
    ["solve --example41 4 4 --omega file:{tmp}/neg.mtx", "solve --problem {tmp}/prob"],
    ids=["shift-file", "problem-dir"],
)
def test_negative_matrix_size_exits_2(tmp_path, capsys, argv):
    text = "%%MatrixMarket matrix coordinate real general\n-1 3 0\n"
    (tmp_path / "neg.mtx").write_text(text)
    save_problem(GaveProblem(A=identity(3), B=zeros(3), b=np.ones(3)), tmp_path / "prob")
    (tmp_path / "prob" / "A.mtx").write_text(text)
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}/") and "dimensions must be nonnegative" in err


def test_bench_out_that_cannot_be_written_runs_no_solve(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, gavekit.bench, ("run_method",))
    smoke = pathlib.Path(__file__).parent.parent / "specs" / "smoke.spec"
    assert main(["bench", "--spec", str(smoke), "--out", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert calls == {}


def test_bench_out_keeps_an_old_table_until_the_new_one_is_ready(tmp_path, capsys):
    spec, out = tmp_path / "spec.txt", tmp_path / "table.csv"
    spec.write_text("problem = example41\nm = 4\nmu = 4\nrepeats = 1\nmethod = nmn\n")
    out.write_text("old table\n")
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 2
    assert out.read_text() == "old table\n"
    spec.write_text("problem = example41\nm = 4\nmu = 4\nrepeats = 1\nmethod = nj omega=mhat\n")
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    assert out.read_text().startswith("method,n,mu,omega,")
    assert out.read_text().count("\n") == 2
    capsys.readouterr()


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
    assert "non-finite --omega-scalar value" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--example41", "6", "4", "--tol", "nan"], "non-finite --tol value 'nan'"),
        (["solve", "--example41", "6", "4", "--kmax", "1e3"], "bad --kmax value '1e3'"),
        (["solve", "--example41", "6", "4", "--method", "naor", "--alpha", "nan",
          "--beta", "0.5"], "non-finite alpha value 'nan'"),
        (["certify", "--example41", "6", "4", "--condition", "InexactEq15",
          "--theta-value", "inf"], "non-finite --theta-value value 'inf'"),
        (["tune", "--example41", "6", "4", "--tol", "x"], "bad --tol value 'x'"),
        (["gen", "--kind", "example41", "--m", "6", "--mu", "nan"], "non-finite --mu value 'nan'"),
        (["gen", "--kind", "certified", "--n", "10", "--dominance", "nan"],
         "non-finite --dominance value 'nan'"),
        (["gen", "--kind", "certified", "--n", "10", "--b-scale", "nan"],
         "non-finite --b-scale value 'nan'"),
        (["gen", "--kind", "certified", "--n", "10", "--b-scale", "inf"],
         "non-finite --b-scale value 'inf'"),
        (["gen", "--kind", "certified", "--n", "10", "--seed", "-1"],
         "seed must be nonnegative"),
        (["gen", "--kind", "certified", "--n", "1.5"], "bad --n value '1.5'"),
    ],
)
def test_command_line_numbers_parse_like_spec_numbers(tmp_path, capsys, argv, message):
    # every number goes through bench.parse_number inside main, so a bad one
    # is a validation error (exit 2), not an argparse exit or a traceback
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path / "p")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "line, args",
    [
        ("nj", []),
        ("nsor alpha=0.9 omega=mhat:1.5", ["--method", "nsor", "--alpha", "0.9",
                                           "--omega", "mhat:1.5"]),
        ("naor alpha=1.1 beta=0.7 inner=lsqr theta=0.3 lmax=4 maxinner=40",
         ["--method", "naor", "--alpha", "1.1", "--beta", "0.7", "--inexact",
          "--theta", "0.3", "--lmax", "4", "--max-inner", "40"]),
        ("drs gamma=1", ["--method", "drs", "--gamma", "1"]),
    ],
)
def test_solve_builds_the_method_a_spec_line_builds(monkeypatch, capsys, line, args):
    built = []

    def record(problem, method, hat_m=None):
        built.append(method)
        return build_splitting(problem.A, method.kind)

    monkeypatch.setattr(gavekit.bench, "build_method", record)
    main(["solve", "--example41", "4", "4", "--tol", "1e-5", "--kmax", "50", *args])
    main(["certify", "--example41", "4", "4", "--condition", "Cor34", *args[:6]])
    capsys.readouterr()
    solve_method, certify_method = built
    spec = f"problem = example41\nm = 4\nmu = 4\ntol = 1e-5\nkmax = 50\nmethod = {line}\n"
    assert solve_method == gavekit.bench.parse_spec(spec).methods[0]
    assert certify_method.kind == solve_method.kind
    assert certify_method.omega == solve_method.omega
    assert certify_method.omega_tag == solve_method.omega_tag


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


def test_certify_zero_denominator_holds(tmp_path, capsys):
    # B = 0 and theta = 0: Cor34's and picard's eq. (15) denominators are 0,
    # so rhs = inf and both hold, as the solve converges in one step
    out = tmp_path / "b0"
    assert main(["gen", "--kind", "certified", "--n", "50", "--seed", "1", "--b-scale", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["certify", "--problem", str(out), "--method", "picard",
                 "--condition", "Cor34", "--condition", "InexactEq15"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[0] for line in lines] == ["Cor34", "InexactEq15"]
    assert all(line.endswith(" rhs=inf holds=true") for line in lines), lines


def test_non_finite_input_exits_3(tmp_path, capsys):
    b = np.ones(6)
    b[2] = np.nan
    save_problem(GaveProblem(A=identity(6), B=zeros(6), b=b), tmp_path / "nan")
    code = main(["solve", "--problem", str(tmp_path / "nan"), "--method", "picard"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def _nan_entry_problem(tmp_path):
    """An example41 problem directory (m = 6) whose first A.mtx entry is nan."""
    assert main(["gen", "--kind", "example41", "--m", "6", "--mu", "4",
                 "--out", str(tmp_path / "p")]) == 0
    path = tmp_path / "p" / "A.mtx"
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("%")) + 1
    row, col, _ = lines[first].split()
    lines[first] = f"{row} {col} nan"
    path.write_text("\n".join(lines) + "\n")
    return path.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--problem", "{dir}", "--method", "ngs", "--condition", "InexactEq15",
         "--theta-value", "0.3"],
        ["certify", "--problem", "{dir}", "--method", "ngs", "--condition", "Cor34"],
        ["certify", "--problem", "{dir}", "--method", "ngs", "--condition", "ScalarOmegaThm34",
         "--omega-scalar", "2"],
        ["certify", "--example41", "6", "4", "--omega", "file:{dir}/A.mtx",
         "--condition", "InexactEq15"],
        ["solve", "--problem", "{dir}", "--method", "ngs"],
        ["solve", "--example41", "6", "4", "--omega", "file:{dir}/A.mtx"],
        # at theta = 0, Cor31 leaves its theta-only norm(Omega+A) unestimated
        ["certify", "--example41", "6", "4", "--omega", "file:{dir}/A.mtx",
         "--condition", "Cor31"],
    ],
    ids=["InexactEq15", "Cor34", "ScalarOmegaThm34", "file-omega", "solve", "solve-file-omega",
         "Cor31-file-omega"],
)
def test_non_finite_matrix_entry_exits_3(tmp_path, capsys, argv):
    # the load (the known solution's residual), the dense estimators and the
    # LU see the nan before LAPACK or SuperLU does
    directory = _nan_entry_problem(tmp_path)
    capsys.readouterr()
    code = main([arg.replace("{dir}", str(directory)) for arg in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: non-finite")


@pytest.mark.parametrize("m", [str(10**22), "9" * 400], ids=["1e22", "400-digits"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "example41", "--m", "{m}", "--mu", "4", "--out", "{dir}/huge"],
        ["solve", "--example41", "{m}", "4"],
        ["bench", "--spec", "{dir}/huge.spec"],
    ],
    ids=["gen", "solve", "bench"],
)
def test_huge_m_exits_2_before_allocating(tmp_path, capsys, argv, m):
    (tmp_path / "huge.spec").write_text(f"problem = example41\nm = {m}\nmu = 4\nmethod = nj\n")
    # numpy would refuse the size with a ValueError; the check runs before any array
    argv = [arg.replace("{dir}", str(tmp_path)).replace("{m}", m) for arg in argv]
    assert main(argv) == 2
    assert f"error: m = {m} is too large" in capsys.readouterr().err
    assert not (tmp_path / "huge").exists()


@pytest.mark.parametrize(
    "method_line, flags",
    [("NJ", ["--method", "NJ"]), ("nj inner=lsqr theta=PAPER", ["--inexact", "--theta", "PAPER"])],
)
def test_method_text_is_exact_lowercase_in_a_spec_and_on_the_command_line(
    tmp_path, capsys, method_line, flags
):
    spec = tmp_path / "case.spec"
    spec.write_text(f"problem = example41\nm = 4\nmu = 4\nmethod = {method_line}\n")
    assert main(["bench", "--spec", str(spec)]) == 2
    assert main(["solve", "--example41", "4", "4", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: ") == 2
    assert captured.out == ""


@pytest.mark.parametrize(
    "method_line, message",
    [("NJ", "unknown method kind 'NJ'"), ("nsor alpha=3", "nsor requires alpha in (0, 2)")],
)
def test_method_line_error_names_its_line(tmp_path, capsys, method_line, message):
    spec = tmp_path / "case.spec"
    spec.write_text(f"problem = example41\nm = 4\nmu = 4\nmethod = {method_line}\n")
    assert main(["bench", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {message} (line 4: method = {method_line})\n"


def test_unused_relaxation_parameter_exits_2(tmp_path, capsys):
    # ngs alpha=1.7 used to run plain ngs under the name ngs(1.7)
    spec = tmp_path / "case.spec"
    spec.write_text("problem = example41\nm = 4\nmu = 4\nmethod = ngs alpha=1.7\n")
    assert main(["bench", "--spec", str(spec)]) == 2
    argv = ["solve", "--example41", "4", "4", "--method", "nj", "--alpha", "0.5", "--gamma", "1.2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: ngs takes no alpha" in captured.err
    assert "error: nj takes no alpha" in captured.err
    assert captured.out == ""


def test_zero_shift_has_one_spelling(capsys):
    argv = ["solve", "--example41", "4", "4", "--method", "ngs", "--omega"]
    assert main([*argv, "0"]) == 2
    assert "error: unknown omega token '0'" in capsys.readouterr().err
    assert main([*argv, "zero"]) == 0


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


@pytest.mark.parametrize(
    "command", [["solve"], ["certify", "--condition", "Cor34"]], ids=["solve", "certify"]
)
def test_nmn_without_a_shift_exits_2(capsys, command):
    # an --omega not given is the kind's own shift, and nmn has none
    assert main([*command, "--example41", "6", "4", "--method", "nmn"]) == 2
    assert "error: nmn requires an explicit shift matrix" in capsys.readouterr().err


def test_nmn_spec_without_a_shift_runs_no_row(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.txt"
    spec.write_text("problem = example41\nm = 6\nmu = 4\nmethod = nj omega=mhat\nmethod = nmn\n")
    calls = count_calls(monkeypatch, gavekit.bench, ("nms_solve", "inms_solve"))
    assert main(["bench", "--spec", str(spec)]) == 2
    assert "error: nmn requires an explicit shift matrix" in capsys.readouterr().err
    assert calls == {}


def test_nmn_spec_with_a_zero_shift_runs(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("problem = example41\nm = 4\nmu = 4\nrepeats = 1\nmethod = nmn omega=zero\n")
    main(["bench", "--spec", str(spec)])
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("nmn,16,4,zero,,500,")


def test_tune_without_omega_runs_the_zero_shift(capsys):
    argv = ["tune", "--example41", "6", "4", "--grid", "0.8:1.2:0.1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--omega", "zero"]) == 0
    assert capsys.readouterr().out == default == "alpha_exp = 0.8  (IT = 41)\n"


def test_markdown_table_refuses_two_methods_of_one_name(tmp_path, capsys, monkeypatch):
    # one markdown block per method name: the second nj row used to replace the first
    spec = tmp_path / "spec.txt"
    lines = "method = nj omega=mhat\nmethod = nj omega=mhat:1.5"
    spec.write_text(f"problem = example41\nm = 6\nmu = 4\nrepeats = 1\n{lines}\n")
    calls = count_calls(monkeypatch, gavekit.bench, ("nms_solve", "inms_solve"))
    assert main(["bench", "--spec", str(spec), "--format", "markdown"]) == 2
    assert "repeated method name 'nj'" in capsys.readouterr().err
    assert calls == {}
    spec.write_text(f"problem = example41\nm = 6\nmu = 4\nrepeats = 1\n{lines} label=nj1.5\n")
    assert main(["bench", "--spec", str(spec), "--format", "markdown"]) == 0
    table = capsys.readouterr().out
    assert "| nj | IT | 13 |" in table and "| nj1.5 | IT | 8 |" in table


def test_certify_drs_uses_the_shift_solve_runs(capsys):
    # gamma = 1 pins Omega = (2/gamma - 1) A = A, not a zero shift
    code, lines = _certify_lines(
        capsys, "--method", "drs", "--gamma", "1", "--condition", "InexactEq15",
        "--condition", "Cor35a",
    )
    assert code == 0
    assert [line.split()[1] for line in lines] == ["lhs=9.2659092163158666e-02"] * 2


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
        "spectral_norm": 8,  # seven matrices and mu_max(S)
        "min_singular_value": 4,
        "symmetric_eig_extremes": 1,
    }


def test_certify_at_the_default_theta_skips_the_theta_only_norms(estimator_calls, capsys):
    # no --theta-value: norm(Omega+M) and norm(Omega+A) are read only under theta
    args = [arg for c in Condition for arg in ("--condition", c.value)]
    code = main(["certify", "--example41", "6", "4", "--method", "ngs", "--omega", "mhat",
                 "--omega-scalar", "2", "--gamma", "1", *args])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == len(Condition)
    assert estimator_calls == {
        "spectral_norm": 6,  # A, B, Omega, Omega+N, Omega-A and mu_max(S)
        "min_singular_value": 4,
        "symmetric_eig_extremes": 1,
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
    # no option reaches the Lanczos step budget, so it is cut to one step
    monkeypatch.setattr(gavekit.linalg, "_MAX_STEPS", 1)
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
    A = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    save_problem(GaveProblem(A=A, B=zeros(2), b=np.ones(2)), tmp_path / "swap")
    code = main(["certify", "--problem", str(tmp_path / "swap"), "--method", "nj",
                 "--condition", "ExactEq6"])
    assert code == 3
    assert "singular" in capsys.readouterr().err


def test_certify_singular_symmetric_psd_exits_3(tmp_path, capsys):
    # the path-graph Laplacian: symmetric with Gershgorin
    # lo = 0, so sigma_min takes the shifted path at shift 0, whose LU fails
    n = 600
    i = np.arange(n)
    d = np.full(n, 2.0)
    d[[0, -1]] = 1.0
    A = SparseMatrix.from_coo(n, n, np.r_[i, i[:-1], i[1:]], np.r_[i, i[1:], i[:-1]],
                              np.r_[d, -np.ones(2 * (n - 1))])
    save_problem(GaveProblem(A=A, B=zeros(n), b=np.ones(n)), tmp_path / "path")
    code = main(["certify", "--problem", str(tmp_path / "path"), "--method", "ngs",
                 "--condition", "Cor34"])
    assert code == 3
    assert "singular" in capsys.readouterr().err
