"""Every exported name resolves, so ``from fdwpc import *`` cannot break."""

import importlib
import pkgutil

import pytest

import fdwpc

MODULES = [fdwpc] + [
    importlib.import_module(f"fdwpc.{info.name}") for info in pkgutil.iter_modules(fdwpc.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_package_and_solver_modules_export():
    names = {m.__name__ for m in EXPORTING}
    assert {"fdwpc", "fdwpc.solver", "fdwpc.sim", "fdwpc.hd"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
