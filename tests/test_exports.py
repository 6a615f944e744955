"""The package namespace re-exports each module's public names, once, and no
module reaches into another's private names."""

import ast
import dataclasses
import inspect
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


def test_the_decomposition_is_its_chain():
    fields = tuple(f.name for f in dataclasses.fields(decomposition.GreenDecomposition))
    assert fields == ("signature", "u", "c", "T", "kappa")
    for name in ("reconstruct", "symmetric_green", "SymmetryViolationError"):
        assert not hasattr(gaussgreen, name), name
        assert not hasattr(decomposition, name), name


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


def test_cli_calls_textio_through_the_module():
    # bench/tracer.py wraps the public functions bound in cli's namespace.
    # A textio function bound there would get a span of its own, and the
    # format work would leave cli.load_matrix's and cli.write_report's self
    # time for a span that no per-layer metric names.
    from gaussgreen import cli, textio

    bound = [name for name, value in vars(cli).items()
             if inspect.isfunction(value) and value.__module__ == textio.__name__]
    assert bound == []
    assert cli.textio is textio
