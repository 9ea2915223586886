"""The tier-1 command collects with --continue-on-collection-errors, so a
test module that fails to import drops all of its tests without failing
one. Importing every module here turns that into a failure."""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(p.stem for p in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_test_module_imports(name):
    importlib.import_module(name)
