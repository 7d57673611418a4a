"""Module-boundary guard.

No module of the package imports a private (``_``-prefixed) name from a
sibling, and no test imports one from the package.  Every name the
``perfbench`` harness calls is importable, so a rename shows up here
instead of as a broken benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def private_package_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("mdmest"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


@pytest.mark.parametrize("folder", ["src/mdmest", "tests"])
def test_no_private_imports_across_modules(folder):
    found = [hit for path in sorted((ROOT / folder).glob("*.py"))
             for hit in private_package_imports(path)]
    assert found == []


def perfbench_names() -> dict[str, set[str]]:
    """The package names ``perfbench/*.py`` uses, by module: those its
    ``from mdmest... import`` lines take, and the attributes it reads from a
    package module it imported (``benchmarks.run_mc``, ``mio.read_data``)."""
    names = {}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}                    # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name.split(".")[0] == "mdmest")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "mdmest"):
                for alias in node.names:
                    sub = f"{node.module}.{alias.name}"
                    if node.module == "mdmest" and importlib.util.find_spec(sub):
                        modules[alias.asname or alias.name] = sub
                    else:
                        names.setdefault(node.module, set()).add(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                names.setdefault(modules[node.value.id], set()).add(node.attr)
    return names


PERFBENCH_NAMES = perfbench_names()


def test_perfbench_names_found():
    assert {"main", "EXIT_NUMERICAL"} <= PERFBENCH_NAMES["mdmest.cli"]
    assert "run_mc" in PERFBENCH_NAMES["mdmest.benchmarks"]
    assert "build_design" in PERFBENCH_NAMES["mdmest.estimator"]


@pytest.mark.parametrize("module", sorted(PERFBENCH_NAMES))
def test_perfbench_names_importable(module):
    mod = importlib.import_module(module)
    missing = [name for name in sorted(PERFBENCH_NAMES[module]) if not hasattr(mod, name)]
    assert missing == []
