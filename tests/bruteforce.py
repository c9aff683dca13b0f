"""Exhaustive references: a backtracking perfect-matching search, the test
oracle for the blossom matching engine; a pure-Python max-flow deciding
fractional p-factors on the bipartite double cover, the test oracle for
``all_fractional_oracle``, and its cut inequality at every corner of the
demand box, the test oracle for that oracle's worst demand per cut; degrees
in G - S, from which the tests re-evaluate the deficiency functionals; the
components of G - S and the count q of the all-(g, f)-factors functional, by
breadth-first search over Python sets; a loop over every disjoint pair, the
test oracle for the integer decider's minimum and witness, and the same
order one pair at a time under both bounds of its walk, the test oracle for
its ``pairs_examined``; the subset loop of the fractional decider, one
subset at a time, the test oracle for its blocks; and the quotient of a
built graph over consecutive vertex blocks, counted vertex by vertex, with
its characteristic polynomial, the test oracle for
``extremal.layout_charpoly``; and the mirror of a lower triangle, one vertex
pair at a time, the test oracle for both routes of ``graph._mirror``."""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from factorspec import DegreeFunctions
from factorspec.graph import Graph, iter_bits, mask_of

BRUTE_FORCE_LIMIT = 12


def perfect_matching_bruteforce(g: Graph) -> Optional[frozenset[tuple[int, int]]]:
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force matcher is guarded to n <= {BRUTE_FORCE_LIMIT}")
    if g.n % 2 == 1:
        return None
    full = (1 << g.n) - 1
    memo: dict[int, Optional[tuple[tuple[int, int], ...]]] = {}

    def search(done: int) -> Optional[tuple[tuple[int, int], ...]]:
        if done == full:
            return ()
        if done in memo:
            return memo[done]
        free = ~done & full
        v = (free & -free).bit_length() - 1
        result = None
        for u in iter_bits(g.rows[v] & ~done):
            rest = search(done | (1 << v) | (1 << u))
            if rest is not None:
                result = ((v, u),) + rest
                break
        memo[done] = result
        return result

    found = search(0)
    if found is None:
        return None
    return frozenset((min(u, v), max(u, v)) for u, v in found)


def max_flow(cap: list[list[int]], source: int, sink: int) -> int:
    """Maximum flow value by shortest augmenting paths (Edmonds-Karp) on a
    dense capacity matrix, which is left unchanged."""
    n = len(cap)
    residual = [row[:] for row in cap]
    total = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            v = queue.popleft()
            for u in range(n):
                if parent[u] == -1 and residual[v][u] > 0:
                    parent[u] = v
                    queue.append(u)
        if parent[sink] == -1:
            return total
        push = None
        u = sink
        while u != source:
            v = parent[u]
            push = residual[v][u] if push is None else min(push, residual[v][u])
            u = v
        u = sink
        while u != source:
            v = parent[u]
            residual[v][u] -= push
            residual[u][v] += push
            u = v
        total += push


def has_fractional_factor(g: Graph, p: Sequence[int]) -> bool:
    """Whether g has a [0, 1]-edge weighting with weighted degree p(v) at
    every v, decided by max-flow on the bipartite double cover.

    Network: source -> u_L with capacity p(u), u_L -> w_R with capacity 1 for
    every edge uw (both directions), w_R -> sink with capacity p(w).  A flow
    saturating the source gives the weighting w(uw) = (f(u_L, w_R) +
    f(w_L, u_R)) / 2, and a weighting gives the flow f(u_L, w_R) = w(uw).
    """
    n = g.n
    source, sink = 2 * n, 2 * n + 1
    cap = [[0] * (2 * n + 2) for _ in range(2 * n + 2)]
    for u in range(n):
        cap[source][u] = p[u]
        cap[n + u][sink] = p[u]
        for w in iter_bits(g.rows[u]):
            cap[u][n + w] = 1
    return max_flow(cap, source, sink) == sum(p)


def corner_cut_minima(g: Graph, a: int, b: int) -> np.ndarray:
    """Entry X (a vertex set, by mask) is the least slack of the double-cover
    cut inequality sum_u min(p(u), |N(u) & X|) - p(X) over every corner p of
    {a, b}^n, each (X, corner) pair evaluated in full; g has a fractional
    p-factor at every corner iff no entry is negative."""
    n = g.n
    masks = np.arange(1 << n)[:, None]
    inside = (masks >> np.arange(n)) & 1  # [set, v]
    shared = masks & np.array(g.rows, dtype=np.int64)  # [X, u] = N(u) & X, as a mask
    deg_in = ((shared[:, :, None] >> np.arange(n)) & 1).sum(axis=2)  # [X, u]
    demand = np.where(inside == 1, b, a)  # [corner, u]
    slack = np.zeros((1 << n, 1 << n), dtype=np.int64)  # [X, corner]
    for u in range(n):
        slack += np.minimum.outer(deg_in[:, u], demand[:, u])
        slack -= np.multiply.outer(inside[:, u], demand[:, u])
    return slack.min(axis=1)


def degrees_excluding(g: Graph, excluded: Iterable[int]) -> dict[int, int]:
    """Degrees in G - S: map v -> |N(v) \\ S| for every vertex v not in S."""
    smask = mask_of(excluded, g.n)
    keep = ~smask
    return {v: (g.rows[v] & keep).bit_count() for v in range(g.n) if not (smask >> v) & 1}


def components(g: Graph, removed: Iterable[int]) -> list[list[int]]:
    """The components of G - removed, as lists of vertices, by breadth-first
    search over Python sets."""
    neighbours = [set(iter_bits(row)) for row in g.rows]
    seen = set(removed)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], deque([start])
        while queue:
            for u in neighbours[queue.popleft()] - seen:
                seen.add(u)
                comp.append(u)
                queue.append(u)
        comps.append(comp)
    return comps


def q_count(g: Graph, d: Iterable[int], s: Iterable[int], funcs: DegreeFunctions) -> int:
    """q(D, S) of the all-(g, f)-factors functional: the components C of
    G - (D u S) that hold some v with g(v) < f(v) or have f(C) + e(C, S) odd."""
    s = set(s)
    neighbours = [set(iter_bits(row)) for row in g.rows]
    q = 0
    for comp in components(g, set(d) | s):
        strict = any(funcs.g[v] < funcs.f[v] for v in comp)
        odd = sum(funcs.f[v] + len(neighbours[v] & s) for v in comp) % 2 == 1
        q += strict or odd
    return q


def pair_loop_reference(
    g: Graph, funcs: DegreeFunctions
) -> tuple[bool, int, tuple[int, ...], tuple[int, ...]]:
    """(verdict, minimum, D, S) of ``has_all_gf_factors``, by a loop over
    every pair: D by size, then lexicographically; S descending over the
    subsets of V - D; a pair evaluated when its bound
    g(D) - f(S) + sum_{x in S} d_{G-D}(x) - |V - D - S| (the functional with q
    at its largest) <= the least value so far; ties to the least (D, S) pair
    of sorted tuples."""
    n = g.n
    best = None
    for d, s, g_d, degrees in _pairs_in_order(g, funcs):
        base = g_d + sum(degrees[x] - funcs.f[x] for x in s)
        if best is not None and base - (n - len(d) - len(s)) > best[0]:
            continue
        candidate = (base - q_count(g, d, s, funcs), d, s)
        if best is None or candidate < best:
            best = candidate
    threshold = 0 if funcs.pointwise_equal else -1
    return (best[0] >= threshold,) + best


def pair_walk_count(g: Graph, funcs: DegreeFunctions) -> int:
    """``pairs_examined`` of ``has_all_gf_factors``, one pair at a time.  The
    seed counts one, and its value, that of ``subset_loop_reference``'s
    minimum less q at its (S, T) taken as the pair (D, S), is the first least
    value.  Then every pair, in the order of ``pair_loop_reference``, counts
    and is evaluated when both of its bounds are <= the least value so far:
    g(D) - f(S) + sum_{x in S} d_{G-D}(x) - |V - D - S| (q <= |V - D - S|) and
    g(D) - c(G - D) + |S| - f(S) (deleting x adds at most d(x) - 1 components)."""
    n = g.n
    _, value, d, s, _ = subset_loop_reference(g, funcs)
    best = value - q_count(g, d, s, funcs)
    examined = 1
    count_d = None
    for d, s, g_d, degrees in _pairs_in_order(g, funcs):
        if count_d != d:
            count_d, c = d, len(components(g, d))
        f_s = sum(funcs.f[x] for x in s)
        base = g_d + sum(degrees[x] for x in s) - f_s
        bounds = (base - (n - len(d) - len(s)), g_d - c + len(s) - f_s)
        if max(bounds) > best:
            continue
        examined += 1
        value = base - q_count(g, d, s, funcs)
        best = min(best, value)
    return examined


def _pairs_in_order(
    g: Graph, funcs: DegreeFunctions
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, dict[int, int]]]:
    """(D, S, g(D), the degrees in G - D) for every disjoint pair, D by size,
    then lexicographically, and S descending over the subsets of V - D."""
    n = g.n
    for k in range(n + 1):
        for d in combinations(range(n), k):
            g_d = sum(funcs.g[v] for v in d)
            degrees = degrees_excluding(g, d)
            rest = [v for v in range(n) if v not in d]
            subsets = [c for r in range(n - k + 1) for c in combinations(rest, r)]
            for s in sorted(subsets, key=lambda c: mask_of(c, n), reverse=True):
                yield d, s, g_d, degrees


def subset_loop_reference(
    g: Graph, funcs: DegreeFunctions
) -> tuple[bool, int, tuple[int, ...], tuple[int, ...], int]:
    """(verdict, minimum, S, T, subsets examined) of ``lu_all_fractional_gf``,
    by one subset at a time: every S in numeric order of its mask, with
    T = {v not in S : d_{G-S}(v) < f(v)}; a subset whose value is <= the
    least so far replaces it when the value is lower, or when its (S, T) pair
    of sorted tuples is less."""
    n = g.n
    best = None
    for smask in range(1 << n):
        s = tuple(v for v in range(n) if (smask >> v) & 1)
        degrees = degrees_excluding(g, s)
        t = tuple(v for v in sorted(degrees) if degrees[v] < funcs.f[v])
        value = sum(funcs.g[v] for v in s) - sum(funcs.f[v] - degrees[v] for v in t)
        candidate = (value, s, t)
        if best is None or candidate < best:
            best = candidate
    return (best[0] >= 0,) + best + (1 << n,)


def mirror_reference(lower: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph whose pair u < v is an edge iff bit u of lower[v] is set."""
    n = len(lower)
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if (lower[v] >> u) & 1:
            rows[u] += 1 << v
            rows[v] += 1 << u
    return tuple(rows)


def counted_quotient(g: Graph, sizes: Sequence[int]) -> list[list[int]]:
    """Quotient matrix of g over the consecutive vertex blocks of the given
    sizes: entry (i, j) is the number of neighbours in block j of each vertex
    of block i, asserted to be the same for all of them (equitability)."""
    assert sum(sizes) == g.n
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    blocks = [mask_of(range(s, s + k), g.n) for s, k in zip(starts, sizes)]
    quotient = []
    for block in blocks:
        counts = [{(g.rows[v] & other).bit_count() for v in iter_bits(block)} for other in blocks]
        assert all(len(c) == 1 for c in counts), "partition is not equitable"
        quotient.append([c.pop() for c in counts])
    return quotient


def charpoly_3x3(m: Sequence[Sequence[int]]) -> tuple[int, int, int, int]:
    """det(xI - m), coefficients highest power first, by the trace, the
    principal 2x2 minors and the determinant."""
    assert len(m) == 3 and all(len(row) == 3 for row in m), "needs a 3x3 matrix"
    trace = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (1, -trace, minors, -det)
