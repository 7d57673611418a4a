"""Module-boundary guard.

No module of the package imports a private (``_``-prefixed) name from a
sibling, and no test imports one from the package.  Every name the
``perfbench`` harness calls is importable, so a rename shows up here
instead of as a broken benchmark run.
"""

import ast
import importlib
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


PERFBENCH_NAMES = {
    "mdmest.estimator": ["assemble_p", "build_design", "build_stacked_system",
                         "gaussian_eta_covariances", "identifiability_report",
                         "min_feasible_window", "ordinary_mdm", "weighted_mdm"],
    "mdmest.residue": ["build_augmented_block"],
    "mdmest.benchmarks": ["preset", "run_mc", "benchmark_input_signal", "McResult"],
    "mdmest.cli": ["main", "EXIT_NUMERICAL"],
    "mdmest.io": ["load_model", "read_data", "save_model", "write_data"],
    "mdmest.errors": ["IndefiniteWeight"],
    "mdmest.linalg": ["Tolerance"],
    "mdmest.model": ["KNOWN_INPUT", "UNKNOWN_INPUT", "MeasurementData",
                     "simulate", "validate"],
}


@pytest.mark.parametrize("module", sorted(PERFBENCH_NAMES))
def test_perfbench_names_importable(module):
    mod = importlib.import_module(module)
    missing = [name for name in PERFBENCH_NAMES[module] if not hasattr(mod, name)]
    assert missing == []
