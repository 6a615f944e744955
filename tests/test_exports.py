"""The package namespace re-exports each module's public names, once, and no
module reaches into another's private names."""

import ast
from pathlib import Path

import gaussgreen
from gaussgreen import criteria, decomposition, kernels, linalg, simulate

MODULES = (linalg, criteria, decomposition, simulate, kernels)


def test_all_is_version_then_each_module_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert gaussgreen.__all__ == expected
    assert len(set(gaussgreen.__all__)) == len(gaussgreen.__all__)


def test_every_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gaussgreen, name) is getattr(module, name), name
    assert isinstance(gaussgreen.__version__, str)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(Path(gaussgreen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gaussgreen"
            ):
                offenders += [f"{path.stem}: {alias.name}" for alias in node.names
                              if _private(alias.name)]
    assert offenders == []
