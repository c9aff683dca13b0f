"""Demand-by-demand oracles for the factor properties.

h-factor existence is decided by the classical vertex-gadget reduction to
perfect matching (general-graph matching via augmenting paths with blossom
contraction), and ``all_ab_factors_oracle`` takes the conjunction over every
admissible demand, so the integer oracle shares no formula with the
condition deciders.  ``all_fractional_oracle`` is not independent in that
sense: for each demand p it evaluates Anstee's fractional p-factor
condition, the formula behind ``anstee_fractional_gf``, so the fractional
cross-check compares Lu's characterization with Anstee's, not with ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .conditions import CapExceededError, DegreeBounds
from .graph import Graph, from_edge_list, iter_bits

DEMAND_BUDGET = 10**6


@dataclass(frozen=True)
class Matching:
    """Set of pairwise vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]


def enumerate_admissible(
    n: int, bounds: DegreeBounds, parity: bool = True
) -> Iterator[tuple[int, ...]]:
    """Demand functions h with a <= h(v) <= b, in lexicographic order.

    With ``parity`` set, only even-total demands come out (odd totals can
    never be degree sequences).
    """
    if n < 1:
        raise ValueError("demand enumeration needs at least one vertex")
    a, b = bounds.a, bounds.b
    cur = [a] * n
    while True:
        if not parity or sum(cur) % 2 == 0:
            yield tuple(cur)
        i = n - 1
        while i >= 0 and cur[i] == b:
            cur[i] = a
            i -= 1
        if i < 0:
            return
        cur[i] += 1


# -- gadget reduction ---------------------------------------------------------


def tutte_gadget(g: Graph, h: Sequence[int]) -> tuple[Graph, list[tuple[str, int, int]]]:
    """Reduce h-factor existence in g to perfect matching.

    Each vertex v becomes d(v) external nodes (one per incident edge) plus
    d(v) - h(v) internal nodes, with all internal-external pairs of v
    adjacent; each edge uv of g links the two matching externals.  The gadget
    has a perfect matching iff g has an h-factor: the internals of v soak up
    all but h(v) externals, and an external matched across a link keeps the
    original edge.

    Returns the gadget and a label per gadget node: ("ext", v, u) for the
    external of v on edge vu, ("int", v, j) for v's j-th internal.
    """
    if len(h) != g.n:
        raise ValueError(f"demand covers {len(h)} vertices, graph has {g.n}")
    labels: list[tuple[str, int, int]] = []
    ext_index: dict[tuple[int, int], int] = {}
    int_nodes: list[list[int]] = []
    for v in range(g.n):
        deg = g.degree(v)
        if not 1 <= h[v]:
            raise ValueError(f"demand h({v}) = {h[v]} must be positive")
        if h[v] > deg:
            raise ValueError(f"demand h({v}) = {h[v]} exceeds degree {deg}")
        for u in iter_bits(g.rows[v]):
            ext_index[(v, u)] = len(labels)
            labels.append(("ext", v, u))
    for v in range(g.n):
        mine = []
        for j in range(g.degree(v) - h[v]):
            mine.append(len(labels))
            labels.append(("int", v, j))
        int_nodes.append(mine)
    edges = []
    for v in range(g.n):
        for u in iter_bits(g.rows[v]):
            if u > v:
                edges.append((ext_index[(v, u)], ext_index[(u, v)]))
            for i in int_nodes[v]:
                edges.append((ext_index[(v, u)], i))
    return from_edge_list(len(labels), edges), labels


# -- general-graph maximum matching -------------------------------------------


def _maximum_matching(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching via augmenting paths with blossom contraction.

    Returns match[v] = partner or -1.  ``base`` tracks the representative of
    each contracted blossom; the search tree alternates matched/unmatched
    edges from an exposed root, and odd cycles found along the way are
    contracted on the fly.
    """
    match = [-1] * n
    for v in range(n):  # greedy seed cuts the number of augment phases
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = base[a]
        while True:
            seen[x] = True
            if match[x] == -1:
                break
            x = base[parent[match[x]]]
        y = base[b]
        while not seen[y]:
            y = base[parent[match[y]]]
        return y

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # even-even edge: contract the blossom through the lca
                    stem = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # exposed vertex reached: flip the alternating path
                        while to != -1:
                            pv = parent[to]
                            nxt = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return match


def _adjacency_lists(g: Graph) -> list[list[int]]:
    return [list(iter_bits(row)) for row in g.rows]


def perfect_matching(g: Graph) -> Optional[Matching]:
    """A perfect matching of g, or None when none exists (exact)."""
    if g.n % 2 == 1:
        return None
    match = _maximum_matching(g.n, _adjacency_lists(g))
    if any(m == -1 for m in match):
        return None
    edges = frozenset((v, match[v]) for v in range(g.n) if v < match[v])
    return Matching(edges)


# -- factor existence and the two oracles --------------------------------------


def has_h_factor(
    g: Graph, h: Sequence[int]
) -> tuple[bool, Optional[frozenset[tuple[int, int]]]]:
    """Exact h-factor existence; on success also the factor's edge set.

    The factor is recovered from the gadget matching: a link edge between the
    two externals of an original edge is matched iff that edge is kept.
    """
    if len(h) != g.n:
        raise ValueError(f"demand covers {len(h)} vertices, graph has {g.n}")
    if any(x < 1 for x in h):
        raise ValueError("demands must be positive")
    if any(h[v] > g.degree(v) for v in range(g.n)):
        return False, None
    gadget, labels = tutte_gadget(g, h)
    matching = perfect_matching(gadget)
    if matching is None:
        return False, None
    factor = set()
    for i, j in matching.edges:
        li, lj = labels[i], labels[j]
        if li[0] == "ext" and lj[0] == "ext":
            u, v = li[1], lj[1]
            factor.add((min(u, v), max(u, v)))
    degrees = [0] * g.n
    for u, v in factor:
        degrees[u] += 1
        degrees[v] += 1
    if degrees != list(h):  # pragma: no cover - gadget correctness guard
        raise RuntimeError("recovered factor does not realize the demanded degrees")
    return True, frozenset(factor)


def all_ab_factors_oracle(g: Graph, bounds: DegreeBounds, budget: int = DEMAND_BUDGET) -> bool:
    """Conjunction of h-factor existence over every even-total demand in [a, b]^n."""
    if g.n < 1:
        raise ValueError("oracle rejects the empty graph")
    if (bounds.b - bounds.a + 1) ** g.n > budget:
        raise CapExceededError(
            f"{(bounds.b - bounds.a + 1) ** g.n} demand functions exceed budget {budget}"
        )
    for h in enumerate_admissible(g.n, bounds, parity=True):
        if not has_h_factor(g, h)[0]:
            return False
    return True


@lru_cache(maxsize=8)
def _demand_matrix(n: int, a: int, b: int) -> np.ndarray:
    """All demands in [a, b]^n as rows, lexicographic order."""
    span = b - a + 1
    idx = np.arange(span**n, dtype=np.int64)
    cols = [a + (idx // span ** (n - 1 - v)) % span for v in range(n)]
    return np.stack(cols, axis=1)


def all_fractional_oracle(g: Graph, bounds: DegreeBounds, budget: int = DEMAND_BUDGET) -> bool:
    """Conjunction over every demand p in [a, b]^n (no parity filter) of
    Anstee's fractional p-factor condition f(S) - g(T) + sum_{v in T} d_{G-S}(v) >= 0
    with g = f = p and T = {v not in S : d_{G-S}(v) < p(v)}.  That is the
    formula of ``anstee_fractional_gf``, so this oracle is not independent of
    the deciders.

    The p-loop is evaluated in bulk per subset S, which changes nothing about
    the conjunction; S = empty comes first so graphs with a low-degree vertex
    fail immediately.
    """
    n = g.n
    if n < 1:
        raise ValueError("oracle rejects the empty graph")
    if (bounds.b - bounds.a + 1) ** n > budget:
        raise CapExceededError(
            f"{(bounds.b - bounds.a + 1) ** n} demand functions exceed budget {budget}"
        )
    demands = _demand_matrix(n, bounds.a, bounds.b)
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for u in iter_bits(g.rows[v]):
            adj[v, u] = 1
    for smask in range(1 << n):
        in_s = np.array([(smask >> v) & 1 for v in range(n)], dtype=np.int64)
        out_s = 1 - in_s
        deg_minus_s = adj @ out_s
        in_t = (demands > deg_minus_s) & (out_s == 1)
        values = demands @ in_s + ((deg_minus_s - demands) * in_t).sum(axis=1)
        if (values < 0).any():
            return False
    return True
