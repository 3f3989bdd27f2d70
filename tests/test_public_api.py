import importlib
import pkgutil

import pytest

import ricci_lab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ricci_lab.__path__))


def test_public_submodules_declare_exports():
    for name in ricci_lab._SUBMODULES:
        module = importlib.import_module(f"ricci_lab.{name}")
        assert isinstance(getattr(module, "__all__", None), list), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_exported_names_exist_and_are_public(name):
    module = importlib.import_module(f"ricci_lab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    for attr in exported:
        assert not attr.startswith("_"), f"{name}.{attr} is private"
        assert hasattr(module, attr), f"{name}.{attr} does not exist"
