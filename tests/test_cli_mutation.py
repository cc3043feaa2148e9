"""Seeded mutation of command lines: bad numbers fail with a documented exit code.

Every numeric token of a fixed list of ``gen``/``solve``/``certify``/``tune``
command lines (m <= 6, covering every numeric flag, and the numbers inside
omega tokens and ``--grid``) is replaced, one at a time, by a bad value.
``main`` must return 0, 2 or 3 without letting an exception escape, and a
0 must never come with ``nan`` in a ``RES``, ``lhs`` or ``rhs`` line. A
flag's value that begins with '-' is joined to it (``--grid=-1:1.2:0.1``),
the one spelling argparse reads as a value.
"""

import random
import string

import pytest

from gavekit.cli import main

BASE_ARGV = {
    "gen-example41": ["gen", "--kind", "example41", "--m", "4", "--mu", "4"],
    "gen-certified": ["gen", "--kind", "certified", "--n", "8", "--seed", "3",
                      "--dominance", "5", "--b-scale", "0.5"],
    "solve-naor": ["solve", "--example41", "4", "4", "--method", "naor", "--alpha", "0.8",
                   "--beta", "0.5", "--omega", "identity:1", "--tol", "1e-6", "--kmax", "50"],
    "solve-inexact": ["solve", "--example41", "5", "-1", "--method", "nj", "--omega",
                      "mhat:1.5", "--inexact", "--theta", "0.3", "--lmax", "4",
                      "--max-inner", "20"],
    "solve-paper-theta": ["solve", "--example41", "4", "4", "--method", "ngs", "--omega",
                          "mhat", "--inexact", "--lmax", "4"],
    "certify-drs": ["certify", "--example41", "4", "4", "--method", "drs", "--gamma", "1",
                    "--condition", "InexactEq15", "--condition", "ScalarOmegaThm34",
                    "--theta-value", "0.3", "--omega-scalar", "2"],
    "certify-nsor": ["certify", "--example41", "6", "4", "--method", "nsor", "--alpha", "0.9",
                     "--omega", "mhat", "--condition", "ExactEq6"],
    "tune": ["tune", "--example41", "4", "4", "--omega", "identity:1", "--grid",
             "0.8:1.2:0.1", "--tol", "1e-6", "--kmax", "50"],
}
BAD_VALUES = ["nan", "inf", "-0", "-1", "1e400", ""]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _mutants(argv, rng):
    """Each argv with one number (a token, or a ':'-separated part of one) replaced."""
    for i, token in enumerate(argv):
        parts = token.split(":")
        for j, part in enumerate(parts):
            if not _is_number(part):
                continue
            garbage = "".join(rng.choice(string.ascii_letters + "._") for _ in range(5))
            for value in [*BAD_VALUES, garbage]:
                mutated = ":".join([*parts[:j], value, *parts[j + 1:]])
                flag = argv[i - 1]
                if mutated.startswith("-") and flag.startswith("--") and flag != "--example41":
                    # argparse reads '-1:1.2:0.1' as a flag unless it is joined to its own
                    yield [*argv[:i - 1], f"{flag}={mutated}", *argv[i + 1:]]
                else:
                    yield [*argv[:i], mutated, *argv[i + 1:]]


@pytest.mark.parametrize("name", list(BASE_ARGV))
def test_mutated_numbers_exit_0_2_or_3(tmp_path, capsys, name):
    rng = random.Random(f"gavekit-{name}")
    argv = BASE_ARGV[name]
    out = ["--out", str(tmp_path / "base")] if argv[0] == "gen" else []
    assert main([*argv, *out]) == 0
    capsys.readouterr()
    mutants = list(_mutants(argv, rng))
    assert mutants
    failures = []
    for k, mutant in enumerate(mutants):
        out = ["--out", str(tmp_path / f"m{k}")] if argv[0] == "gen" else []
        code = main([*mutant, *out])  # an escaping exception fails the test
        text = capsys.readouterr().out
        reported = [line for line in text.splitlines()
                    if line.startswith("RES") or "lhs=" in line or "rhs=" in line]
        if code not in (0, 2, 3):
            failures.append(f"exit {code}: {mutant}")
        elif code == 0 and any("nan" in line for line in reported):
            failures.append(f"exit 0 with nan: {mutant}")
    assert not failures, "\n".join(failures)
