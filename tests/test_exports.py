"""The package namespace re-exports each module's public names, once."""

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
