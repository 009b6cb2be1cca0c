"""The hand-written export lists name only what each module defines, and
no module keeps an import or a private name that nothing uses."""

import ast
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
    # every concurrent map goes through model._map_in_order, which alone
    # reads the CPU count and the byte budget that size it, or through
    # model._map_runs, which alone forks and shares its failure mark in an mmap
    for word in ("ThreadPoolExecutor", "_usable_cpus", "sched_getaffinity", "_POOL_BYTES",
                 "os.fork", "mmap"):
        owners = [name for name in MODULES
                  if word in Path(importlib.import_module(name).__file__).read_text()]
        assert owners == ["entrosa.model"], word


SOURCES = {name: ast.parse(Path(importlib.import_module(name).__file__).read_text())
           for name in MODULES}


def _references(tree):
    """The names a module reads, as names, attributes or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "entrosa"])
def test_every_top_level_import_is_used(name):
    # the package's __init__ imports to re-export
    tree = SOURCES[name]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    assert not imported - read, f"{name} imports {sorted(imported - read)} and never uses them"


def test_every_private_module_name_is_used():
    # a module-level private name that nothing reads is dead code
    referenced = {ref for tree in SOURCES.values() for ref in _references(tree)}
    unused = []
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}.{d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert not unused
