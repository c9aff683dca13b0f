"""Per-layer tracing from outside the program.

Wrappers replace the module-level names through which factorspec's layers
call each other (``factorspec.harness.parse_graph6``,
``factorspec.oracle.has_h_factor``, ``factorspec.cli.spectral_radius``, ...),
so every call into a layer on the request path passes through a span.  Spans
nest: a span's self time is its duration minus the time covered by the
wrapped calls made inside it.  Nothing inside ``src/factorspec`` changes.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _pairs(stats, args, result):
    g = args[0]
    stats["conditions.pair.examined"] += result.pairs_examined
    stats["conditions.pair.space"] += 3 ** g.n


def _subsets(stats, args, result):
    stats["conditions.subset.examined"] += result.pairs_examined


def _gadget(stats, args, result):
    stats["oracle.gadget.nodes"] += result[0].n


def _dense(stats, args, result):
    stats["spectral.dense.iterations"] += result.iterations


# (module, name, metric, layer, counter): one wrapper per module-level name
# through which a layer is reached on the request path.
WRAPPED = (
    ("graph", "harness", "parse_graph6", "graph.decode", None),
    ("graph", "cli", "parse_graph6", "graph.decode", None),
    ("graph", "harness", "to_graph6", "graph.encode", None),
    ("graph", "cli", "to_graph6", "graph.encode", None),
    ("graph", "harness", "is_connected", "graph.connectivity", None),
    ("graph", "spectral", "is_connected", "graph.connectivity", None),
    ("conditions", "harness", "has_all_ab_factors", "conditions.pair", _pairs),
    ("conditions", "cli", "has_all_ab_factors", "conditions.pair", _pairs),
    ("conditions", "cli", "has_all_gf_factors", "conditions.pair", _pairs),
    ("conditions", "harness", "has_all_fractional_ab_factors", "conditions.subset", _subsets),
    ("conditions", "cli", "has_all_fractional_ab_factors", "conditions.subset", _subsets),
    ("oracle", "harness", "all_ab_factors_oracle", "oracle.integer", None),
    ("oracle", "harness", "all_fractional_oracle", "oracle.fractional", None),
    ("oracle", "oracle", "has_h_factor", "oracle.h_factor", None),
    ("oracle", "oracle", "tutte_gadget", "oracle.gadget", _gadget),
    ("oracle", "oracle", "perfect_matching", "oracle.matching", None),
    ("spectral", "harness", "spectral_radius", "spectral.dense", _dense),
    ("spectral", "cli", "spectral_radius", "spectral.dense", _dense),
    ("spectral", "harness", "rho_hnb", "spectral.quotient", None),
    ("spectral", "cli", "rho_hnb", "spectral.quotient", None),
    ("harness", "cli", "load_graph6_file", "harness.catalog", None),
    ("harness", "cli", "equivalence_suite", "harness.suite", None),
    ("harness", "cli", "mine_extremal", "harness.mine", None),
    ("harness", "cli", "verify_hong", "harness.hong", None),
    ("harness", "cli", "report_to_dict", "harness.report", None),
    ("cli", "cli", "main", "cli.main", None),
)

# Spans of these metrics never nest in one another, and every other span
# nests in one of them, so their busy times plus the harness and cli self
# times partition the time spent inside requests.
PARTITION = (
    "graph.decode", "graph.encode", "graph.connectivity",
    "conditions.pair", "conditions.subset",
    "oracle.integer", "oracle.fractional",
    "spectral.dense", "spectral.quotient",
)


class Tracer:
    """Installs the wrappers, keeps the span stack, and sums per metric."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric, layer, counter):
        stats, self_s, stack = self.stats, self.self_s, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats[metric + ".calls"] += 1
                stats[metric + ".busy_s"] += took
                self_s[layer] += took - inner[0]
            if counter is not None:
                counter(stats, args, result)
            return result

        return span

    def install(self) -> None:
        for layer, module_name, name, metric, counter in WRAPPED:
            module = getattr(self.package, module_name)
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, metric, layer, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def metrics(self, rounds: int, traced_wall: float) -> dict[str, float]:
        """Per-layer figures per round of the workload."""
        s = {k: v / rounds for k, v in self.stats.items()}
        layer_self = {k: v / rounds for k, v in self.self_s.items()}

        def get(key):
            return s.get(key, 0.0)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "graph.decode.calls": get("graph.decode.calls"),
            "graph.decode.busy_s": get("graph.decode.busy_s"),
            "graph.encode.calls": get("graph.encode.calls"),
            "graph.encode.busy_s": get("graph.encode.busy_s"),
            "graph.connectivity.calls": get("graph.connectivity.calls"),
            "graph.connectivity.busy_s": get("graph.connectivity.busy_s"),
            "conditions.pair.calls": get("conditions.pair.calls"),
            "conditions.pair.busy_s": get("conditions.pair.busy_s"),
            "conditions.pair.examined": get("conditions.pair.examined"),
            "conditions.pair.examined_ratio": ratio(
                get("conditions.pair.examined"), get("conditions.pair.space")),
            "conditions.pair.us_per_examined": ratio(
                get("conditions.pair.busy_s"), get("conditions.pair.examined"), 1e6),
            "conditions.subset.calls": get("conditions.subset.calls"),
            "conditions.subset.busy_s": get("conditions.subset.busy_s"),
            "conditions.subset.us_per_subset": ratio(
                get("conditions.subset.busy_s"), get("conditions.subset.examined"), 1e6),
            "oracle.integer.calls": get("oracle.integer.calls"),
            "oracle.integer.busy_s": get("oracle.integer.busy_s"),
            "oracle.demands_tried": get("oracle.h_factor.calls"),
            "oracle.h_factor.busy_s": get("oracle.h_factor.busy_s"),
            "oracle.gadget.busy_s": get("oracle.gadget.busy_s"),
            "oracle.gadget.nodes": get("oracle.gadget.nodes"),
            "oracle.matching.calls": get("oracle.matching.calls"),
            "oracle.matching.busy_s": get("oracle.matching.busy_s"),
            "oracle.fractional.calls": get("oracle.fractional.calls"),
            "oracle.fractional.busy_s": get("oracle.fractional.busy_s"),
            "spectral.dense.calls": get("spectral.dense.calls"),
            "spectral.dense.busy_s": get("spectral.dense.busy_s"),
            "spectral.dense.iterations": get("spectral.dense.iterations"),
            "spectral.quotient.busy_s": get("spectral.quotient.busy_s"),
            "harness.self_s": layer_self.get("harness", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
        }
        partition = sum(get(m + ".busy_s") for m in PARTITION)
        partition += out["harness.self_s"] + out["cli.self_s"]
        out["trace.busy_share"] = ratio(partition, traced_wall / rounds)
        out["trace.spans"] = sum(v for k, v in s.items() if k.endswith(".calls"))
        return out
