"""The names the package's callers use: the benchmark harness and README.

A deletion from the package that breaks ``perfbench`` or README's library
quickstart fails here, not only when the benchmark or the documented code
runs. Each module also uses every name it imports.
"""

import ast
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


def _unused_imports(path):
    """Names ``path`` imports and never reads: no ``Name`` node and no
    ``__all__`` entry mentions them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


# __init__.py imports names to export them
MODULES = sorted(path.name for path in (ROOT / "src" / "gavekit").glob("*.py")
                 if path.name != "__init__.py")


def test_modules_are_found():
    assert {"bench.py", "linalg.py", "solver.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(ROOT / "src" / "gavekit" / module) == []
