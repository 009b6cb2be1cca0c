"""The hand-written export lists name only what each module defines."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import entrosa

MODULES = ["entrosa"] + [f"entrosa.{m.name}" for m in pkgutil.iter_modules(entrosa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_only_the_cli_reads_the_environment():
    # library calls take output paths as given; the command line alone
    # resolves $ENTROSA_OUTPUT_DIR
    readers = [name for name in MODULES
               if "environ" in Path(importlib.import_module(name).__file__).read_text()]
    assert readers == ["entrosa.cli"]


def test_only_the_model_runs_a_thread_pool():
    # every concurrent map goes through model._map_in_order
    owners = [name for name in MODULES
              if "ThreadPoolExecutor" in Path(importlib.import_module(name).__file__).read_text()]
    assert owners == ["entrosa.model"]
