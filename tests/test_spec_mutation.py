"""Seeded mutation of the committed specs: a bad spec fails with a documented exit code.

Each spec under ``specs/`` is cut down to ``m`` at most 5 and ``repeats = 1``.
One value token at a time (a key's value, a method kind or a method option's
value) is replaced by a bad value, an upper-case kind or, for ``m`` only, an
m far beyond numpy's index range; and one line at a time is duplicated or
deleted. ``gavekit bench`` must return 0, 2 or 3 without letting an
exception escape, and a 0 must never come with ``nan`` in a RES cell.
"""

import csv
import pathlib
import random
import string

import pytest

from gavekit.cli import main

SPECS = sorted((pathlib.Path(__file__).parent.parent / "specs").glob("*.spec"))
BAD_VALUES = ["nan", "inf", "-0", "1e400", ""]
HUGE_M = str(10**22)  # the one large value: m is checked before anything is allocated
SAMPLE = 40  # value and line mutants run per spec, drawn with a fixed seed


def _base(text):
    """The spec with its m values capped at 5 (duplicates dropped) and repeats = 1."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "m":
            capped = dict.fromkeys(str(min(int(m), 5)) for m in value.split())
            line = "m = " + " ".join(capped)
        elif key.strip() == "repeats":
            line = "repeats = 1"
        lines.append(line)
    return lines


def _mutants(lines, rng):
    """Each spec text with one value token replaced, or one line duplicated or deleted.

    Yields ``(always, text)``; ``always`` marks the huge-m and upper-case-kind
    mutants, which run on every spec rather than by sample.
    """
    for i, line in enumerate(lines):
        yield False, "\n".join(lines[:i] + lines[i + 1:])
        yield False, "\n".join(lines[:i + 1] + lines[i:])
        key, eq, value = line.partition("=")
        if not eq or line.lstrip().startswith("#"):
            continue
        tokens = value.split()
        for j, token in enumerate(tokens):
            head, sep, tail = token.rpartition("=")  # a method option's value
            garbage = "".join(rng.choice(string.ascii_letters + "._") for _ in range(5))
            values = [*BAD_VALUES, garbage]
            if key.strip() == "m":
                values.append(HUGE_M)
            if key.strip() == "method" and j == 0:
                values.append(token.upper())
            for bad in values:
                mutated = [*tokens[:j], head + sep + bad, *tokens[j + 1:]]
                text = "\n".join([*lines[:i], f"{key}= {' '.join(mutated)}", *lines[i + 1:]])
                yield bad in (HUGE_M, token.upper()), text


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.stem)
def test_mutated_specs_exit_0_2_or_3(tmp_path, capsys, spec):
    rng = random.Random(f"gavekit-spec-{spec.stem}")
    lines = _base(spec.read_text())
    out = tmp_path / "table.csv"
    path = tmp_path / "base.spec"
    path.write_text("\n".join(lines) + "\n")
    assert main(["bench", "--spec", str(path), "--out", str(out)]) in (0, 3)
    mutants = list(_mutants(lines, rng))
    always = [text for fixed, text in mutants if fixed]
    sampled = rng.sample([text for fixed, text in mutants if not fixed], SAMPLE)
    failures = []
    for k, text in enumerate(always + sampled):
        path = tmp_path / f"m{k}.spec"
        path.write_text(text + "\n")
        out.unlink(missing_ok=True)
        code = main(["bench", "--spec", str(path), "--out", str(out)])  # nothing may escape
        capsys.readouterr()
        if code not in (0, 2, 3):
            failures.append(f"exit {code}:\n{text}")
        elif code == 0:
            with open(out, newline="") as fh:
                if any("nan" in row["RES"] for row in csv.DictReader(fh)):
                    failures.append(f"exit 0 with nan:\n{text}")
    assert not failures, "\n\n".join(failures)
