import importlib
import pkgutil

import pytest

import tcvm

MODULES = sorted(m.name for m in pkgutil.iter_modules(tcvm.__path__, "tcvm."))


@pytest.mark.parametrize("name", ["tcvm"] + MODULES)
def test_exports_resolve_and_are_public(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert not [n for n in exported if n.startswith("_")]
    assert not [n for n in exported if not hasattr(module, n)]
    assert len(set(exported)) == len(exported)
