"""The benchmark's hooks into the package stay alive.

``bench/spans.py`` traces the layers by wrapping module-level names, and the
benchmark scripts import a few package names directly.  A refactor that
renames one of those names, or stops calling a layer through it, blinds
``bench/run.py --trace 1`` without failing anything else.  So every such name
must resolve, and a tiny traced ``check`` and integer ``suite`` must record
calls in the layers they cross.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import factorspec
import factorspec.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_imports():
    """(module, name) of every ``from factorspec... import name`` in bench/."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("factorspec"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_wrapped_names_resolve():
    for _, module_name, name, _, _ in load_spans().WRAPPED:
        module = getattr(factorspec, module_name)
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_bench_imports_resolve():
    found = bench_imports()
    assert ("factorspec.oracle", "has_h_factor") in found
    for module_name, name in found:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def test_traced_requests_reach_their_layers(tmp_path):
    catalog = tmp_path / "cat.g6"
    catalog.write_bytes(b"Bw\nBg\n")  # K3 and P3
    spans = load_spans()
    tracer = spans.Tracer(factorspec)
    has_h_factor = factorspec.oracle.has_h_factor
    tracer.install()
    try:
        codes = [
            factorspec.cli.main(["check", "--g6", "Bw", "--a", "1", "--b", "2", "--json"]),
            factorspec.cli.main(["suite", "--input", str(catalog), "--mode", "integer",
                                 "--workers", "1", "--json"]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert factorspec.oracle.has_h_factor is has_h_factor
    stats = tracer.stats
    assert stats["conditions.pair.calls"] == 1 + 6  # the check, then 2 graphs x 3 grid points
    assert stats["oracle.integer.calls"] == 6
    assert stats["oracle.h_factor.calls"] > 0
    assert tracer.metrics(1, 1.0)["oracle.demands_tried"] == stats["oracle.h_factor.calls"]
