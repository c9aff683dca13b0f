"""Second-route oracles for the factor properties, independent of the
condition deciders.

Integer: h-factor existence is decided by the classical vertex-gadget
reduction to perfect matching (general-graph matching via augmenting paths
with blossom contraction), and ``all_ab_factors_oracle`` takes the
conjunction over every admissible demand.  It can be handed one admissible
demand to try first, such as the refuting demand that the decider's FAIL
witness gives: one matching then confirms the FAIL.  The verdict cannot
depend on that hint, because a False is still a demand of the box whose
gadget has no perfect matching, found by this module's own matching, and a
True still the whole enumeration.  The gadget is built straight into
adjacency lists by one builder, which ``tutte_gadget`` also wraps.

Fractional: ``all_fractional_oracle`` applies max-flow/min-cut on the
bipartite double cover and checks each cut of the min-cut inequality at its
worst demand in the box [a, b]^n, which is b on the cut and a off it.  It
uses neither Anstee's nor Lu's formula.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .conditions import CapExceededError, DegreeBounds
from .graph import Graph, iter_bits, mask_of

DEMAND_BUDGET = 10**6


def enumerate_admissible(n: int, bounds: DegreeBounds) -> Iterator[tuple[int, ...]]:
    """Demand functions h with a <= h(v) <= b and even total (odd totals can
    never be degree sequences), in lexicographic order."""
    if n < 1:
        raise ValueError("demand enumeration needs at least one vertex")
    demands = itertools.product(range(bounds.a, bounds.b + 1), repeat=n)
    return (h for h in demands if sum(h) % 2 == 0)


# -- gadget reduction ---------------------------------------------------------


def _gadget(g: Graph, h: Sequence[int]) -> tuple[list[list[int]], list[tuple[str, int, int]]]:
    """The vertex gadget of (g, h) as adjacency lists, with a label per node.

    Internal nodes are numbered first, vertex by vertex, then the externals,
    vertex by vertex in neighbour order, so the greedy seed of
    ``_perfect_matching`` fills each internal from its own vertex's
    externals.  The internals of v share one neighbour list (v's externals);
    an external lists its link partner first, then v's internals.
    """
    if len(h) != g.n:
        raise ValueError(f"demand covers {len(h)} vertices, graph has {g.n}")
    nbrs = [list(iter_bits(row)) for row in g.rows]
    for v, nb in enumerate(nbrs):
        if not 1 <= h[v]:
            raise ValueError(f"demand h({v}) = {h[v]} must be positive")
        if h[v] > len(nb):
            raise ValueError(f"demand h({v}) = {h[v]} exceeds degree {len(nb)}")
    labels = [("int", v, j) for v, nb in enumerate(nbrs) for j in range(len(nb) - h[v])]
    # v's externals are ext_start[v], ext_start[v] + 1, ... in neighbour order,
    # so the external of u on edge uv sits at ext_start[u] + |N(u) below v|
    ext_start = []
    for v, nb in enumerate(nbrs):
        ext_start.append(len(labels))
        labels += [("ext", v, u) for u in nb]
    adj: list[list[int]] = [[]] * len(labels)
    first_int = 0
    for v, nb in enumerate(nbrs):
        ints = list(range(first_int, first_int + len(nb) - h[v]))
        first_int += len(ints)
        exts = list(range(ext_start[v], ext_start[v] + len(nb)))
        for i in ints:
            adj[i] = exts
        below_v = (1 << v) - 1
        for e, u in zip(exts, nb):
            adj[e] = [ext_start[u] + (g.rows[u] & below_v).bit_count()] + ints
    return adj, labels


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
    adj, labels = _gadget(g, h)
    return Graph(len(adj), tuple(mask_of(nbrs, len(adj)) for nbrs in adj)), labels


# -- general-graph perfect matching -------------------------------------------


def _perfect_matching(n: int, adj: list[list[int]]) -> Optional[list[int]]:
    """Perfect matching via augmenting paths with blossom contraction.

    Returns match[v] = partner, or None at the first exposed root with no
    augmenting path (by Edmonds' lemma, later augmentations never give it
    one).  ``base`` tracks the representative of each contracted blossom;
    the search tree alternates matched/unmatched edges from an exposed root,
    and odd cycles found along the way are contracted on the fly.
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
        parent[:] = [-1] * n
        base[:] = range(n)
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
        if match[v] == -1 and not find_augmenting(v):
            return None  # v stays exposed
    return match


def perfect_matching(g: Graph) -> Optional[frozenset[tuple[int, int]]]:
    """The edges (u, v), u < v, of a perfect matching of g, or None when
    none exists (exact)."""
    match = _perfect_matching(g.n, [list(iter_bits(row)) for row in g.rows])
    if match is None:
        return None
    return frozenset((v, match[v]) for v in range(g.n) if v < match[v])


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
    adj, labels = _gadget(g, h)
    match = _perfect_matching(len(adj), adj)
    if match is None:
        return False, None
    factor = set()
    for i, (kind, v, u) in enumerate(labels):
        # an external's only external neighbour is its link partner
        if kind == "ext" and v < u and labels[match[i]][0] == "ext":
            factor.add((v, u))
    degrees = [0] * g.n
    for u, v in factor:
        degrees[u] += 1
        degrees[v] += 1
    if degrees != list(h):  # pragma: no cover - gadget correctness guard
        raise RuntimeError("recovered factor does not realize the demanded degrees")
    return True, frozenset(factor)


def all_ab_factors_oracle(
    g: Graph, bounds: DegreeBounds, first: Optional[Sequence[int]] = None
) -> bool:
    """Conjunction of h-factor existence over every even-total demand in [a, b]^n.

    ``first``, an admissible demand (n values in [a, b], even total), is
    tried before the enumeration, and its failure is the verdict.  Only the
    search order depends on it: a False is always a demand of the box with no
    factor, and a True always the whole enumeration.  An inadmissible
    ``first`` raises ValueError, since an odd or out-of-box demand could
    refute a graph that has every [a, b]-factor.
    """
    if g.n < 1:
        raise ValueError("oracle rejects the empty graph")
    demands = (bounds.b - bounds.a + 1) ** g.n
    if demands > DEMAND_BUDGET:
        raise CapExceededError(f"{demands} demand functions exceed budget {DEMAND_BUDGET}")
    if first is not None:
        if (len(first) != g.n or sum(first) % 2
                or not all(bounds.a <= x <= bounds.b for x in first)):
            raise ValueError(f"first demand {tuple(first)} is not admissible for "
                             f"[{bounds.a}, {bounds.b}] on {g.n} vertices")
        if not has_h_factor(g, first)[0]:
            return False
    for h in enumerate_admissible(g.n, bounds):
        if not has_h_factor(g, h)[0]:
            return False
    return True


@lru_cache(maxsize=16)
def _subset_matrix(n: int) -> np.ndarray:
    """Read-only 2^n x n 0/1 matrix whose row X is the indicator of the vertex
    set X (bit v of X is column v)."""
    masks = np.arange(1 << n, dtype=np.int64)[:, None]
    subsets = ((masks >> np.arange(n)) & 1).astype(np.float64)
    subsets.flags.writeable = False
    return subsets


def all_fractional_oracle(g: Graph, bounds: DegreeBounds) -> bool:
    """Whether g has a fractional p-factor for every demand p in [a, b]^n.

    Max-flow/min-cut on the bipartite double cover (a left and a right copy
    of V, a unit-capacity arc u_L -> w_R per edge uw, supply p(u) at u_L and
    demand p(w) at w_R) says g has a fractional p-factor iff, for every cut
    X subset of V, sum_u min(p(u), |N(u) & X|) >= p(X).  Neither step uses
    Anstee's or Lu's formula, so this oracle is independent of the
    fractional deciders.

    Each term of that inequality depends on p(u) alone: min(p(u), d_X(u))
    is nondecreasing in p(u), and min(p(u), d_X(u)) - p(u) nonincreasing.
    So the worst demand of the box at X is p = b on X and a off it, and the
    box passes iff the slack of every cut at its worst demand,
    sum_{u not in X} min(a, d_X(u)) + sum_{u in X} (min(b, d_X(u)) - b),
    is >= 0.  Every minimum is below n, so the float64 slacks are exact up
    to b = 2^53 / n, and past that b|X| outweighs them at every nonempty
    cut, so their signs still hold.  The guard counts the 4^n (cut, corner)
    pairs that this check covers.
    """
    n = g.n
    if n < 1:
        raise ValueError("oracle rejects the empty graph")
    if 4**n > DEMAND_BUDGET:
        raise CapExceededError(f"{4**n} (cut, corner) pairs exceed budget {DEMAND_BUDGET}")
    a, b = bounds.a, bounds.b
    subsets = _subset_matrix(n)
    deg_in = subsets @ subsets[list(g.rows)]  # [X, u] = |N(u) & X|
    worst = a + (b - a) * subsets  # [X, u] = b if u in X else a
    slack = (np.minimum(deg_in, worst) - b * subsets).sum(axis=1)
    return bool((slack >= 0).all())
