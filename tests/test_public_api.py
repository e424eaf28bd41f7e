"""Public-API quality gate: exports resolve and everything is documented."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.benchmark",
    "repro.constraints",
    "repro.datagen",
    "repro.dataset",
    "repro.detectors",
    "repro.errors",
    "repro.metrics",
    "repro.ml",
    "repro.observability",
    "repro.profiling",
    "repro.repair",
    "repro.reporting",
    "repro.repository",
    "repro.tuning",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} lacks a module docstring"
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} exports nothing"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name} exports undocumented items: {undocumented}"
    )


def test_detector_registry_names_are_stable():
    from repro.detectors import detector_registry

    assert set(detector_registry()) == {
        "KATARA", "NADEEF", "FAHES", "HoloClean", "dBoost", "OpenRefine",
        "IF", "SD", "IQR", "MVD", "KeyCollision", "ZeroER", "CleanLab",
        "Min-K", "MaxEntropy", "Meta", "RAHA", "ED2", "Picket",
    }


def test_repair_registry_names_are_stable():
    from repro.repair import repair_registry

    assert set(repair_registry()) == {
        "GT", "Delete", "Impute-Mean", "Impute-Median", "Impute-Mode",
        "MISS-Mix", "DataWig-Mix", "MISS-Sep", "MISS-DataWig", "DT-MISS",
        "Bayes-MISS", "KNN-MISS", "HoloClean", "OpenRefine", "BARAN",
        "CleanLab", "ActiveClean", "BoostClean", "CPClean",
    }


EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    # Importing (without running main) resolves every public name the
    # example uses, so deleting one it still needs fails here.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
