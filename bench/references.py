"""Rebuild bench/references.json, the verdicts the checks cannot certify on
the spot, through routes apart from the deciders.  Run from the repository
root (takes several minutes on one core):

    PYTHONPATH=src python3 bench/references.py

* integer and (g, f) inputs of the check pool: every admissible even-total
  demand h is tested for an h-factor with factorspec's gadget-matching
  oracle (``has_h_factor``: vertex gadget plus blossom matching);
* fractional inputs, of the check pool and of the mine-hong chunks: G has
  all fractional [a, b]-factors exactly when every corner demand in
  {a, b}^n has a fractional factor (the demands G can realize form the
  convex set {Mw : w in [0, 1]^E}, which holds the box [a, b]^n exactly when
  it holds its corners), and each corner is decided by max-flow on the
  bipartite double cover (scipy);
* the mine-hong maximum spectral radius among failing graphs comes from
  ``numpy.linalg.eigvalsh``.

The deciders in factorspec.conditions are never called.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from checks import REFERENCES  # noqa: E402


def edges_of(record: str) -> tuple[int, list[tuple[int, int]]]:
    adj = inputs.matrix_from_graph6(record)
    rows, cols = np.nonzero(np.triu(adj, 1))
    return adj.shape[0], list(zip(rows.tolist(), cols.tolist()))


def all_fractional_corners(n: int, edges, a: int, b: int) -> bool:
    """Every corner demand in {a, b}^n has a fractional factor (max-flow)."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if min(degree) < b:  # the corner with b at that vertex cannot be met
        return False
    source, sink = 2 * n, 2 * n + 1
    rows = [source] * n + list(range(n, 2 * n))
    cols = list(range(n)) + [sink] * n
    for u, v in edges:
        rows += [u, v]
        cols += [n + v, n + u]
    cover = sp.csr_array((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                         shape=(2 * n + 2, 2 * n + 2))
    cover.sort_indices()
    # positions of the source and sink arcs in the CSR data array
    src_pos = cover.indptr[source] + np.arange(n)
    sink_pos = np.array([cover.indptr[n + v] + int(np.searchsorted(
        cover.indices[cover.indptr[n + v]:cover.indptr[n + v + 1]], sink)) for v in range(n)])
    bit = np.arange(n)
    for corner in range(1 << n):
        p = np.where((corner >> bit) & 1, b, a).astype(np.int32)
        cover.data[src_pos] = p
        cover.data[sink_pos] = p
        if maximum_flow(cover, source, sink).flow_value != int(p.sum()):
            return False
    return True


def all_factors_by_gadget(n: int, edges, low: list[int], high: list[int]) -> bool:
    """h-factor for every h with low <= h <= high and even total (gadget oracle)."""
    from factorspec.graph import from_edge_list
    from factorspec.oracle import has_h_factor

    g = from_edge_list(n, edges)
    for h in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(low, high))):
        if sum(h) % 2 == 0 and not has_h_factor(g, h)[0]:
            return False
    return True


def check_pool() -> dict:
    out = {}
    for item in inputs.decision_pool():
        n, edges = item["n"], item["edges"]
        t0 = time.perf_counter()
        if item["mode"] == "gf":
            verdict = all_factors_by_gadget(n, edges, item["g"], item["f"])
        elif item["mode"] == "integer":
            verdict = all_factors_by_gadget(n, edges, [item["a"]] * n, [item["b"]] * n)
        else:
            verdict = all_fractional_corners(n, edges, item["a"], item["b"])
        out[item["name"]] = {"graph6": inputs.graph6_from_edges(n, edges), "verdict": verdict}
        print(f"{item['name']}: {verdict} ({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    return out


def mine_chunks() -> dict:
    path = os.path.join(inputs.CATALOG_DIR, f"graphs{inputs.MINE_ORDER}.g6")
    with open(path) as fh:
        lines = fh.read().split()
    out = {}
    for start in inputs.mine_chunk_starts(len(lines)):
        graphs = [(line, *edges_of(line)) for line in lines[start:start + inputs.MINE_CHUNK]]
        for a, b in inputs.GRID:
            failing = [rec for rec, n, edges in graphs
                       if not all_fractional_corners(n, edges, a, b)]
            rhos = [float(np.linalg.eigvalsh(inputs.matrix_from_graph6(rec))[-1])
                    for rec in failing]
            out[f"{start}:{a},{b}"] = {"failing_count": len(failing),
                                       "max_rho": max(rhos) if rhos else None}
        print(f"mine chunk {start}: done", file=sys.stderr)
    return out


def main() -> int:
    refs = {"check": check_pool(), "mine": mine_chunks()}
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
