"""The CLI pins on the Lanczos estimators, the alpha search and the solvers.

Each case runs ``gavekit.cli.main`` in-process on one command line and
asserts what the command must print: the exit code, and either the
certificate lines, the pinned IT, RES, inner-iteration and alpha lines, or
the error message.
"""

import pytest

from gavekit.cli import main

_CERTIFY = ["--condition", "InexactEq15", "--theta-value", "0.5", "--condition", "Cor34"]


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
