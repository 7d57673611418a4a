"""Module-boundary guard.

No module of the package imports a private (``_``-prefixed) name from a
sibling, and no test imports one from the package.  Every name the
``perfbench`` harness uses is importable, and every call it makes into the
package binds to the callee's current signature, keywords included, so a
rename shows up here instead of as a broken benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
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


def package_bindings(tree) -> dict[str, tuple[str, str | None]]:
    """The package names a module binds by its imports: local name ->
    (module, None) for a package module (``from mdmest import io as mio``),
    (module, name) for a name taken from one."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, (a.name, None)) for a in node.names
                         if a.name.split(".")[0] == "mdmest")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "mdmest"):
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if node.module == "mdmest" and importlib.util.find_spec(sub):
                    bound[alias.asname or alias.name] = (sub, None)
                else:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def package_target(node, bound):
    """(module, dotted name) of the package object an expression names:
    an imported name, an attribute of an imported module, or an attribute
    of an imported name (``MeasurementData.from_trajectory``); else None."""
    if isinstance(node, ast.Name) and node.id in bound and bound[node.id][1]:
        return bound[node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module, name = bound.get(node.value.id, (None, None))
        if module is not None:
            return module, node.attr if name is None else f"{name}.{node.attr}"
    return None


def perfbench_trees():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield path, tree, package_bindings(tree)


def perfbench_names() -> dict[str, set[str]]:
    """The package names ``perfbench/*.py`` uses, by module: those its
    ``from mdmest... import`` lines take, and the attributes it reads from a
    package module it imported (``benchmarks.run_mc``, ``mio.read_data``)."""
    names = {}
    for _, tree, bound in perfbench_trees():
        for module, name in bound.values():
            if name is not None:
                names.setdefault(module, set()).add(name)
        for node in ast.walk(tree):
            target = package_target(node, bound)
            if isinstance(node, ast.Attribute) and target and "." not in target[1]:
                names.setdefault(target[0], set()).add(target[1])
    return names


def perfbench_calls():
    """Every call ``perfbench/*.py`` makes into the package, as (where,
    module, dotted name, positional count, keywords); calls that pass
    *args or **kwargs are left out, their arguments being unknown."""
    for path, tree, bound in perfbench_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = package_target(node.func, bound)
            if target is None or any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue
            yield (f"{path.name}:{node.lineno}", *target, len(node.args),
                   tuple(k.arg for k in node.keywords))


PERFBENCH_NAMES = perfbench_names()
PERFBENCH_CALLS = list(perfbench_calls())


def test_perfbench_names_found():
    assert {"main", "EXIT_NUMERICAL"} <= PERFBENCH_NAMES["mdmest.cli"]
    assert "run_mc" in PERFBENCH_NAMES["mdmest.benchmarks"]
    assert "build_design" in PERFBENCH_NAMES["mdmest.estimator"]


@pytest.mark.parametrize("module", sorted(PERFBENCH_NAMES))
def test_perfbench_names_importable(module):
    mod = importlib.import_module(module)
    missing = [name for name in sorted(PERFBENCH_NAMES[module]) if not hasattr(mod, name)]
    assert missing == []


def test_perfbench_calls_found():
    calls = {(name, kws) for _, _, name, _, kws in PERFBENCH_CALLS}
    assert {("min_feasible_window", ("n_records", "structure")),
            ("min_feasible_window", ("n_records",)),
            ("build_design", ("n_windows",)),
            ("gaussian_eta_covariances", ("tol", "repair")),
            ("MeasurementData.from_trajectory", ())} <= calls


def test_perfbench_calls_bind_to_current_signatures():
    """Each call's positional count and keywords bind to the callee's
    ``inspect.signature``, so a renamed or dropped parameter fails here."""
    broken = []
    for where, module, name, n_args, keywords in PERFBENCH_CALLS:
        callee = importlib.import_module(module)
        for part in name.split("."):
            callee = getattr(callee, part)
        try:
            inspect.signature(callee).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            broken.append(f"{where} {name}: {exc}")
    assert broken == []
