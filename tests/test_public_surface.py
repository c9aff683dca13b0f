"""Every name the package exports has a caller, and the deciders share no
code with the oracle.

A name that ``factorspec/__init__.py`` imports must be used in ``src/`` beyond
its own definition, or be imported or wrapped by ``bench/``.  The one
exception is ``threshold_n``, kept for the sweep of the theorem's band past
the catalogs (ROADMAP item 9).
"""

import ast
from pathlib import Path

from test_bench_hooks import bench_imports, load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "factorspec"
AWAITING_A_CALLER = {"threshold_n"}


def exported() -> set[tuple[str, str]]:
    """(module, name) of every name ``__init__`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_in_src() -> set[tuple[str, str]]:
    """(module, name) of every name read outside ``__init__``: bare, in its own
    module or in one that imports it from there.  A ``def``, a ``class``, an
    import, or a local of the same name elsewhere does not count."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        origin = {alias.name: node.module for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
        used |= {(origin.get(node.id, path.stem), node.id)
                 for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used


def test_every_export_has_a_caller():
    bench = {name for _, name in bench_imports()}
    bench |= {name for _, _, name, _, _ in load_spans().WRAPPED}
    uncalled = {name for module, name in exported() - used_in_src() if name not in bench}
    assert sorted(uncalled - AWAITING_A_CALLER) == []


def test_deciders_import_nothing_from_the_oracle():
    # the decider-versus-oracle cross-check is independent only while the two
    # share no code; the fractional oracle has a subset matrix of its own
    tree = ast.parse((SRC / "conditions.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in names if "oracle" in name.split(".")] == []
