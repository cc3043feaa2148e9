"""The CLI pins on the certificates, the alpha search, the solvers, the
problem directories and the input errors.

Each case runs ``gavekit.cli.main`` in-process on one command line, or a
few, and asserts what the commands must print or write: the exit code,
and either the certificate lines, the pinned IT, RES, inner-iteration and
alpha lines, the saved files' digests, or the error message.
"""

import hashlib

import numpy as np
import pytest

from gavekit.cli import main

_CERTIFY = ["--condition", "InexactEq15", "--theta-value", "0.5", "--condition", "Cor34"]

_ALL_CONDITIONS = [
    arg
    for name in ("ExactEq6", "InexactEq15", "MInverseThm33", "ScalarOmegaThm34", "Cor31",
                 "Cor32", "Cor33a", "Cor33b", "Cor34", "Cor35a", "Cor35b", "Cor36a", "Cor36b")
    for arg in ("--condition", name)
]


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "problem",
    [
        # Lanczos estimators at a small order (n = 100)
        ["--example41", "10", "4", "--method", "ngs", "--omega", "mhat"],
        # Lanczos estimators (n = 576)
        ["--example41", "24", "4", "--method", "ngs", "--omega", "mhat"],
        # at the paper size, clustered spectrum (n = 10000)
        ["--example41", "100", "-1", "--method", "ngs", "--omega", "mhat:1.5"],
        # sigma_min of a symmetric shift at the paper size (nj, n = 10000)
        ["--example41", "100", "-1", "--method", "nj", "--omega", "mhat:1.5"],
    ],
    ids=["ngs-n100", "ngs-n576", "ngs-n10000", "nj-symmetric-n10000"],
)
def test_certify_lanczos_estimators(capsys, problem):
    out = _stdout(capsys, ["certify", *problem, *_CERTIFY])
    lines = out.splitlines()
    assert out.count("\n") == len(lines) == 2
    assert all(line.endswith(" holds=false") for line in lines)


def test_certify_holds_on_a_certified_problem(tmp_path, capsys):
    # a generated certified problem (n = 600)
    directory = str(tmp_path / "gc600")
    assert main(["gen", "--kind", "certified", "--n", "600", "--seed", "1",
                 "--out", directory]) == 0
    capsys.readouterr()
    out = _stdout(capsys, ["certify", "--problem", directory, "--method", "ngs",
                           "--condition", "InexactEq15", "--theta-value", "0.3"])
    [line] = out.splitlines()
    assert line.startswith("InexactEq15 ") and line.endswith(" holds=true")


@pytest.mark.parametrize(
    "theta, holding",
    [(["--theta-value", "0.3"], set()), ([], {"Cor35a"})],
    ids=["theta-0.3", "theta-0"],
)
def test_certify_all_thirteen_conditions(capsys, theta, holding):
    # all 13 share one set of estimates (n = 576); at the default theta = 0
    # Cor35a holds and the other 12 do not
    argv = ["certify", "--example41", "24", "4", "--method", "ngs", "--omega", "mhat",
            "--omega-scalar", "2", "--gamma", "1", *theta, *_ALL_CONDITIONS]
    lines = _stdout(capsys, argv).splitlines()
    assert [line.split()[0] for line in lines] == _ALL_CONDITIONS[1::2]
    assert {line.split()[0] for line in lines if line.endswith(" holds=true")} == holding
    assert sum(line.endswith(" holds=false") for line in lines) == 13 - len(holding)


def test_certify_nmn_with_its_pinned_shift(capsys):
    argv = ["certify", "--example41", "6", "4", "--method", "nmn", "--omega", "mhat",
            "--condition", "InexactEq15", "--condition", "Cor35a", "--theta-value", "0.5"]
    lines = _stdout(capsys, argv).splitlines()
    assert [line.split()[0] for line in lines] == ["InexactEq15", "Cor35a"]


_EX41_DIGESTS = {
    "A.mtx": "c898407e93e1ac0f78fe935e2c6808d97a0a928fa2c9fd3420ae8add8a684a35",
    "B.mtx": "bbcb49038d490d55a1b808d82c428462b3b587283aa79f9bc3125db339bfb5e0",
    "b.txt": "fcf17b7c801b3265f11bc7eac66c904ba39baa70108797989383c6b8df336675",
    "xstar.txt": "6b68486bd3883979e28f1d7915b2928261d9188db796e4626289b466d37e2c52",
}
_SOLVE_DIRECTORY = ["--method", "ngs", "--omega", "identity:1"]


def _gen_example41_m30(capsys, directory):
    assert main(["gen", "--kind", "example41", "--m", "30", "--mu", "4",
                 "--out", str(directory)]) == 0
    capsys.readouterr()


def test_problem_directory_round_trip(tmp_path, capsys):
    # gen writes the pinned Matrix Market and vector files, and solve reads them
    directory, x_path = tmp_path / "ex41", tmp_path / "x.txt"
    _gen_example41_m30(capsys, directory)
    for name, digest in _EX41_DIGESTS.items():
        assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == digest, name
    _stdout(capsys, ["solve", "--problem", str(directory), *_SOLVE_DIRECTORY,
                     "--save-x", str(x_path)])
    assert np.loadtxt(x_path).shape == (900,)


def test_crlf_directory_with_a_comment_solves_as_the_lf_copy(tmp_path, capsys):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    _gen_example41_m30(capsys, lf)
    crlf.mkdir()
    for name in _EX41_DIGESTS:
        lines = (lf / name).read_bytes().split(b"\n")[:-1]
        lines.insert(1, b"% a comment line")
        (crlf / name).write_bytes(b"".join(line + b"\r\n" for line in lines))
    runs = [_stdout(capsys, ["solve", "--problem", str(d), *_SOLVE_DIRECTORY])
            for d in (lf, crlf)]
    it_lf, it_crlf = ([line for line in out.splitlines() if line.startswith("IT ")]
                      for out in runs)
    assert it_lf and it_crlf == it_lf


@pytest.mark.parametrize(
    "problem, pinned",
    [
        (["--example41", "100", "4", "--omega", "mhat", "--grid", "0.5:1.5:0.05"],
         "alpha_exp = 0.85  (IT = 8)"),
        (["--example41", "100", "-1", "--omega", "mhat:1.5", "--grid", "0.5:1.9:0.05"],
         "alpha_exp = 1.3  (IT = 69)"),
    ],
    ids=["mu4", "mu-1"],
)
def test_tune_at_paper_size(capsys, problem, pinned):
    assert pinned in _stdout(capsys, ["tune", *problem]).splitlines()


def test_tune_nsor_relaxation_search(capsys):
    # a coarse grid at n = 400
    argv = ["tune", "--example41", "20", "4", "--omega", "mhat", "--grid", "0.8:1.2:0.1"]
    assert _stdout(capsys, argv) == "alpha_exp = 0.8  (IT = 9)\n"


@pytest.mark.parametrize(
    "problem, pinned",
    [
        # an exact solve at paper size on the transposed factor (n = 22500)
        (["--example41", "150", "-1", "--method", "ngs", "--omega", "mhat:1.5"],
         ["IT         : 72", "RES        : 9.8427e-07"]),
        # inexact solve, outer and inner counts (n = 900)
        (["--example41", "30", "4", "--method", "ngs", "--omega", "mhat", "--inexact"],
         ["IT         : 17", "inner iters: 26 total"]),
        # inexact solve at the paper size, LSQR on DIA products (n = 10000)
        (["--example41", "100", "-1", "--method", "ngs", "--omega", "mhat:1.5", "--inexact"],
         ["IT         : 79", "inner iters: 348 total"]),
    ],
    ids=["exact-n22500", "inexact-n900", "inexact-n10000"],
)
def test_solve_pins(capsys, problem, pinned):
    lines = _stdout(capsys, ["solve", *problem]).splitlines()
    for line in pinned:
        assert line in lines


def test_solve_singular_shift_exits_3(capsys):
    # picard's Omega + M is A itself, singular at mu = -3 and m = 5
    assert main(["solve", "--example41", "5", "-3", "--method", "picard"]) == 3
    assert "numerically singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        # a misspelled key after a valid method line
        ("m = 4\nmu = 4\nmethod = nj omega=mhat\nrepeat = 1\n",
         "error: line 5: unknown key 'repeat'\n"),
        # a malformed number in a method line names its line
        ("m = 4\nmu = 4\nmethod = nj omega=identity:abc\n",
         "error: bad omega value 'abc' (line 4: method = nj omega=identity:abc)\n"),
        # nmn without a shift
        ("m = 6\nmu = 4\nmethod = nmn\n", "error: nmn requires an explicit shift matrix\n"),
    ],
    ids=["misspelled-key", "bad-number-names-its-line", "nmn-without-a-shift"],
)
def test_bad_spec_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "case.spec"
    path.write_text(f"problem = example41\n{spec}")
    assert main(["bench", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_non_integer_index_token_exits_2(tmp_path, capsys):
    # the first entry line of A.mtx (n = 900) reads "1.0 1 ..." for "1 1 ..."
    directory = tmp_path / "float_index"
    assert main(["gen", "--kind", "example41", "--m", "30", "--mu", "4",
                 "--out", str(directory)]) == 0
    lines = (directory / "A.mtx").read_text().splitlines(keepends=True)
    row, rest = lines[2].split(" ", 1)
    lines[2] = f"{row}.0 {rest}"
    (directory / "A.mtx").write_text("".join(lines))
    capsys.readouterr()
    assert main(["solve", "--problem", str(directory), "--method", "ngs"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {directory / 'A.mtx'}: ")
