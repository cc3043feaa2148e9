"""The names the package's callers use: the benchmark harness and README.

A deletion from the package that breaks ``perfbench`` or README's library
quickstart fails here, not only when the benchmark or the documented code
runs. Each module also uses every name it imports, and every name a module
exports has a user outside it, so the exported surface does not grow back.
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
    return sorted(imported - used - set(_exports(tree)))


def _exports(tree):
    """The names in a module's ``__all__``, from its parsed source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


# __init__.py imports names to export them
MODULES = sorted(path.name for path in (ROOT / "src" / "gavekit").glob("*.py")
                 if path.name != "__init__.py")


def test_modules_are_found():
    assert {"bench.py", "linalg.py", "solver.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(ROOT / "src" / "gavekit" / module) == []


def _package_names_used(path):
    """The names ``path`` takes from gavekit: imported from it, or read as an
    attribute of a gavekit module it imports (``bench_mod.parse_spec``,
    ``gk.solver.spmv``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gavekit"):
            names |= {alias.name for alias in node.names}
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "gavekit"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                names.add(node.attr)
    return names


# exported names with no user outside their module, each with its reason
EXPORTS_WITHOUT_USERS = {
    "ExperimentSpec": "the type parse_spec returns and run_experiment reads",
    "ResultRow": "the row type run_experiment returns and emit_table renders",
    "COROLLARY_CONDITIONS": "the kinds check_corollary, which perfbench calls, accepts",
    "LsqrOutcome": "the result type lsqr returns",
    "LcpInstance": "the lcp of gen_example41's (lcp, problem, hat) triple",
    "theta_at": "the inner tolerance rule of a ThetaSchedule, as inms_solve applies it",
}


def _exports_without_users():
    """Every module's exported names that no other module in ``src/``, no
    perfbench source and no word of README uses."""
    src = ROOT / "src" / "gavekit"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    perfbench = set().union(*map(_package_names_used, sorted((ROOT / "perfbench").rglob("*.py"))))
    lonely = []
    for module in MODULES:
        others = [src / name for name in MODULES if name != module]
        used = perfbench.union(*map(_package_names_used, others))
        exports = _exports(ast.parse((src / module).read_text(encoding="utf-8")))
        lonely += [name for name in exports
                   if name not in used and not re.search(rf"\b{name}\b", readme)]
    return lonely


def test_every_export_has_a_user():
    # an allowlisted name that gains a user leaves the list too
    assert sorted(_exports_without_users()) == sorted(EXPORTS_WITHOUT_USERS)


def _names(path):
    """Every name ``path``'s code reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
    return names


def test_only_splittings_names_the_shift_recipe():
    # an omega token becomes a matrix in bench; OmegaSpec is splittings' recipe
    # for perfbench's scaled shifts, and the package exports it
    src = ROOT / "src" / "gavekit"
    naming = sorted(path.name for path in src.glob("*.py") if "OmegaSpec" in _names(path))
    assert naming == ["__init__.py", "splittings.py"]
