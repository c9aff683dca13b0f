"""Backtracking perfect-matching search: the test oracle for the blossom
matching engine in ``factorspec.oracle``."""

from __future__ import annotations

from typing import Optional

from factorspec.graph import Graph, iter_bits
from factorspec.oracle import Matching

BRUTE_FORCE_LIMIT = 12


def perfect_matching_bruteforce(g: Graph) -> Optional[Matching]:
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
    edges = frozenset((min(u, v), max(u, v)) for u, v in found)
    return Matching(edges)

