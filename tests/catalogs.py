"""Exhaustive non-isomorphic graph catalogs for the test suite.

The package itself consumes externally supplied graph6 catalogs; the tests
build those inputs here, by vertex augmentation with exact isomorphism
rejection.  Candidates are bucketed by an iterated-refinement certificate and
compared within buckets by VF2, and the resulting class counts are asserted
against the published sequences, so a generation bug cannot slip through
silently.

Generated catalogs are checked in as graph6 files under tests/data so a
fresh checkout does not pay the ~6 minute n=8 generation; the count
assertions re-validate them on every load.

The small builders the tests share (complete graphs, disjoint unions, joins,
the hub over two cliques, the edge list of a graph) live here as well.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import Iterator

import networkx as nx

from factorspec.graph import Graph, from_edge_list, iter_bits, parse_graph6, to_graph6

CACHE_DIR = Path(__file__).parent / "data"

# numbers of simple graphs / connected simple graphs on n unlabeled vertices
GRAPH_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertices are relabelled by offset g1.n."""
    return Graph(g1.n + g2.n, (*g1.rows, *(row << g1.n for row in g2.rows)))


def join(g1: Graph, g2: Graph) -> Graph:
    """Join: disjoint union plus all g1.n * g2.n cross edges."""
    left = (1 << g1.n) - 1
    right = ((1 << g2.n) - 1) << g1.n
    return Graph(g1.n + g2.n, (*(row | right for row in g1.rows),
                               *((row << g1.n) | left for row in g2.rows)))


def k1_join_cliques(n: int, r: int) -> Graph:
    """K_1 joined to (K_r u K_{n-1-r}), edge by edge, with the hub last."""
    cliques = [range(r), range(r, n - 1)]
    return from_edge_list(n, [e for c in cliques for e in combinations(c, 2)]
                          + [(v, n - 1) for v in range(n - 1)])


def edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield edges (u, v) with u < v in lexicographic order."""
    for u in range(g.n):
        for v in iter_bits(g.rows[u] >> (u + 1)):
            yield (u, u + 1 + v)


def _certificate(n: int, rows: tuple[int, ...]) -> tuple:
    """Isomorphism-invariant bucket key: iterated neighbour-colour refinement.

    Not a canonical form (regular graphs collide), so buckets still need an
    exact isomorphism check inside.
    """
    colors = [rows[v].bit_count() for v in range(n)]
    for _ in range(n):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(rows[v]))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        nxt = [rank[s] for s in sigs]
        if nxt == colors:
            break
        colors = nxt
    edges = sum(rows[v].bit_count() for v in range(n)) // 2
    return (n, edges, tuple(sorted(colors)))


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


def _generate_all(n: int) -> list[Graph]:
    """All non-isomorphic simple graphs on n vertices, by vertex augmentation."""
    if n == 0:
        return [Graph(0, ())]
    smaller = all_graphs(n - 1)
    buckets: dict[tuple, list[tuple[Graph, nx.Graph]]] = {}
    out: list[Graph] = []
    for parent in smaller:
        for mask in range(1 << (n - 1)):
            rows = [parent.rows[v] | (((mask >> v) & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            g = Graph(n, tuple(rows))
            key = _certificate(n, g.rows)
            bucket = buckets.setdefault(key, [])
            gx = None
            for _, other_x in bucket:
                if gx is None:
                    gx = _to_nx(g)
                if nx.is_isomorphic(gx, other_x):
                    break
            else:
                bucket.append((g, gx if gx is not None else _to_nx(g)))
                out.append(g)
    return out


_memory: dict[int, list[Graph]] = {}


def all_graphs(n: int) -> list[Graph]:
    """All non-isomorphic graphs on n vertices (cached in memory and on disk)."""
    if n in _memory:
        return _memory[n]
    cache = CACHE_DIR / f"graphs{n}.g6"
    if cache.exists():
        graphs = [parse_graph6(line) for line in cache.read_bytes().splitlines() if line]
    else:
        graphs = _generate_all(n)
        if n in GRAPH_COUNTS:
            assert len(graphs) == GRAPH_COUNTS[n], (
                f"generated {len(graphs)} graphs on {n} vertices, expected {GRAPH_COUNTS[n]}"
            )
        CACHE_DIR.mkdir(exist_ok=True)
        cache.write_bytes(b"\n".join(to_graph6(g) for g in graphs) + b"\n")
    if n in GRAPH_COUNTS:
        assert len(graphs) == GRAPH_COUNTS[n]
    _memory[n] = graphs
    return graphs


def connected_graphs(n: int) -> list[Graph]:
    from factorspec.graph import is_connected

    graphs = [g for g in all_graphs(n) if is_connected(g)]
    if n in CONNECTED_COUNTS:
        assert len(graphs) == CONNECTED_COUNTS[n], (
            f"{len(graphs)} connected graphs on {n} vertices, expected {CONNECTED_COUNTS[n]}"
        )
    return graphs


def connected_up_to(n: int) -> list[Graph]:
    """Every connected graph of order 1..n, smallest orders first."""
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(connected_graphs(k))
    return out
