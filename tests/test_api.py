"""The names the package's callers use: the benchmark harness and README.

A deletion from the package that breaks ``perfbench`` or README's library
quickstart fails here, not only when the benchmark or the documented code
runs.
"""

import functools
import pathlib
import re

import pytest

import gavekit

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _perfbench_chains():
    """Every ``gk.``/``gavekit.`` attribute chain in perfbench's sources, less the prefix."""
    pattern = re.compile(r"\b(?:gk|gavekit)((?:\.[A-Za-z_]\w*)+)")
    paths = sorted((ROOT / "perfbench").glob("*.py")) + sorted(
        (ROOT / "perfbench" / "tests").glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    return sorted({m.group(1)[1:] for text in texts for m in pattern.finditer(text)})


PERFBENCH_CHAINS = _perfbench_chains()


def test_perfbench_names_some_of_the_package():
    assert {"solver.spmv", "linalg.Factorization.solve", "OmegaSpec.scaled"} <= set(
        PERFBENCH_CHAINS)


@pytest.mark.parametrize("chain", PERFBENCH_CHAINS)
def test_perfbench_chain_resolves(chain):
    functools.reduce(getattr, chain.split("."), gavekit)


def _readme_quickstart():
    """The first ```python block after the ``## Library quickstart`` heading."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("## Library quickstart"))
    begin = lines.index("```python", start) + 1
    return "\n".join(lines[begin : lines.index("```", begin)]) + "\n"


def test_readme_quickstart_runs(capsys):
    code = _readme_quickstart()
    assert code.strip()
    exec(compile(code, "README.md quickstart", "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out.splitlines()
    # the exact solve's count, as the block's comment states it
    assert len(out) == 3 and out[0].startswith("12 ")
