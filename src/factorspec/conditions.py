"""Exact deciders for factor-existence characterizations.

Every decider minimizes a deficiency functional over all the vertex subsets its
characterization quantifies over and reports the minimum with a minimizing
witness.  Two functionals cover the four deciders:

- ``has_all_gf_factors`` minimizes g(D) - f(S) + sum_{x in S} d_{G-D}(x) - q
  over disjoint pairs (D, S), where q counts the components C of G - (D u S)
  that hold some v with g(v) < f(v) or have f(C) + e(C, S) odd;
- ``lu_all_fractional_gf`` minimizes g(S) - f(T) + sum_{v in T} d_{G-S}(v)
  over subsets S, with T = {v not in S : d_{G-S}(v) < f(v)}.

The [a, b] deciders are these with g = a < b = f, where q is the number of
components.  The pair loop takes D by ascending size, then
lexicographically, and S in one walk down the subsets of V - D in descending
numeric order.  As q <= |V - D - S|, the functional is at least the bound
g(D) - |V - D| + sum_{x in S} (d_{G-D}(x) - f(x) + 1), tabulated once per D.
A pair is skipped when its bound exceeds the least value so far, and a D when
its least bound does, so ``pairs_examined`` depends on this order; pairs at
that value are still evaluated, so the minimum and the witness do not.  The
subset loop only locates the least minimizer S: it evaluates all 2^n subsets
in blocks of 2^k (k = min(n, 12)) that share their bits above the k lowest
vertices, where one int64 table per call holds the degree deficits
d_{G-S}(v) - f(v) of every low part S and each block adds its high part's to
it in one numpy pass.  One exact evaluation at S then gives the minimum and T.
Both loops minimize integer keys that order by value, then by ``_rank``: ties go
to the least (sorted first set, sorted second set) pair of tuples.
Enumeration is exact: graphs above PAIR_ENUM_CAP (pair loop) or
SUBSET_ENUM_CAP (subset loop) vertices raise ``CapExceededError`` rather than
being sampled, and no caller can lift these limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import Graph, bit_matrix, component_masks, iter_bits, mask_of, set_of

PAIR_ENUM_CAP = 16
SUBSET_ENUM_CAP = 22
_BLOCK_BITS = 12  # a block's n x 2^12 int64 table is 720 KB at n = SUBSET_ENUM_CAP


class CapExceededError(RuntimeError):
    """The graph is larger than the enumeration cap of the decider's loop."""


@dataclass(frozen=True)
class DegreeBounds:
    """Degree prescription interval [a, b], 1 <= a <= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not 1 <= self.a <= self.b:
            raise ValueError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class DegreeFunctions:
    """Per-vertex degree prescriptions g <= f (both positive)."""

    g: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.g) != len(self.f):
            raise ValueError("g and f must prescribe the same vertex set")
        for v, (gv, fv) in enumerate(zip(self.g, self.f)):
            if gv < 1:
                raise ValueError(f"g({v}) = {gv} must be positive")
            if gv > fv:
                raise ValueError(f"need g({v}) <= f({v}), got {gv} > {fv}")

    @classmethod
    def constant(cls, n: int, a: int, b: int) -> "DegreeFunctions":
        return cls((a,) * n, (b,) * n)

    @property
    def pointwise_equal(self) -> bool:
        return self.g == self.f


@dataclass(frozen=True)
class ConditionReport:
    """Verdict plus the functional's global minimum and a minimizing witness.

    ``witness_s``/``witness_t`` are the characterization's first and second
    set (D and S for the pair functional; S and the derived T for the subset
    functional).
    """

    verdict: bool
    min_value: int
    witness_s: frozenset[int]
    witness_t: frozenset[int]
    pairs_examined: int


# -- the two functionals ---------------------------------------------------------


def _count_q(g: Graph, avoid: int, second: int, weights: Sequence[int], strict: int) -> int:
    """q over the components C of G - avoid: one meeting ``strict`` (the vertices
    with g(v) < f(v)) always counts, any other when weights(C) + e(C, second)
    is odd (g = f there, so weights may be either)."""
    rows = g.rows
    q = 0
    for comp in component_masks(rows, g.n, avoid):
        if comp & strict:
            q += 1
        else:
            parity = 0
            for v in iter_bits(comp):
                parity += weights[v] + (rows[v] & second).bit_count()
            q += parity & 1
    return q


def _subset_value(g: Graph, x: Sequence[int], y: Sequence[int], smask: int) -> tuple[int, int]:
    """The subset functional x(S) - y(T) + sum_{v in T} d_{G-S}(v) at S, with
    T = {v not in S : d_{G-S}(v) < y(v)} as a bitmask."""
    keep = ~smask
    value = 0
    tmask = 0
    for v, (row, xv, yv) in enumerate(zip(g.rows, x, y)):
        if smask >> v & 1:
            value += xv
        else:
            d = (row & keep).bit_count()
            if d < yv:
                value += d - yv
                tmask |= 1 << v
    return value, tmask


def _subset_sums(columns: np.ndarray) -> np.ndarray:
    """The m x 2^k matrix whose column i is the sum of the columns u of
    ``columns`` (m x k) with bit u set in i, built by doubling: bit u adds
    column u to the first 2^u columns to give the next 2^u."""
    m, k = columns.shape
    sums = np.zeros((m, 1 << k), dtype=np.int64)
    for u in range(k):
        np.add(sums[:, :1 << u], columns[:, u, None], out=sums[:, 1 << u:2 << u])
    return sums


def _subset_blocks(
    rows: tuple[int, ...], x: Sequence[int], y: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """The subset functional's keys 2^(n + 1) * value + _rank(S, n) at every S,
    one block at a time: (high, keys) with keys[i] the key of S = high | i,
    for the 2^(n - k) masks ``high`` of the vertices above the k = min(n,
    _BLOCK_BITS) lowest.  As 0 <= rank < 2^n, keys order by value, then by
    rank, and no two are equal.  Needs 0 <= x(v), y(v) <= d(v) + 1 <= n, so
    that ``lift`` exceeds every |d_{G-S}(v) - y(v)| and |value| <= n^2:
    |key| < 2^(n + 1) * (n^2 + 1), no number here reaches 2^(n + 1) *
    (n + 1)(n + 2), under 2^33 at n = 22, and int64 is exact."""
    n = len(rows)
    k = min(n, _BLOCK_BITS)
    top = 1 << n
    scale = 2 * top  # min(scale * t, 0) = scale * min(t, 0), so the value scales
    lift = 2 * n + 2  # added at each v in S, where the minimum below must give 0
    adj = bit_matrix(rows)  # uint8, so ``weights`` below stays int64
    rev = top >> np.arange(1, n + 1, dtype=np.int64)  # 2^(n - 1 - u): u's bit in r
    # column u: what u joining S adds to scale * (d_{G-S}(v) - y(v)), lifted at
    # v = u (rows v < n), to scale * x(S) + |S| - r (row n) and to r (row n + 1),
    # where r is the mask of S reversed over n bits
    weights = np.vstack((scale * (lift * np.eye(n, dtype=np.int64) - adj),
                         scale * np.array(x, dtype=np.int64) + 1 - rev, rev))
    low = _subset_sums(weights[:, :k])
    low[:n] += scale * np.array([row.bit_count() - yv for row, yv in zip(rows, y)],
                                dtype=np.int64)[:, None]
    high = _subset_sums(weights[:, k:])
    block = np.empty((n, 1 << k), dtype=np.int64)
    for j in range(1 << (n - k)):
        np.add(low[:n], high[:n, j, None], out=block)
        np.minimum(block, 0, out=block)
        # rank = 2^n + |S| - r - lowbit(r | 2^n): the high part's r holds the
        # lowest bit in every block but the first, which has no high part
        r = high[n + 1, j] or low[n + 1] | top
        yield j << k, block.sum(axis=0) + (low[n] + (high[n, j] + top - (r & -r)))


def delta(g: Graph, bounds: DegreeBounds, s: Iterable[int], t: Iterable[int]) -> int:
    """Deficiency a|S| - b|T| + sum_{x in T} d_{G-S}(x) - q(S, T), where
    q(S, T) is the number of components of G - (S u T)."""
    smask = mask_of(s, g.n)
    tmask = mask_of(t, g.n)
    if smask & tmask:
        raise ValueError("S and T must be disjoint")
    keep = ~smask
    return (
        bounds.a * smask.bit_count()
        - sum(bounds.b - (g.rows[x] & keep).bit_count() for x in iter_bits(tmask))
        - len(component_masks(g.rows, g.n, smask | tmask))
    )


def theta(g: Graph, bounds: DegreeBounds, s: Iterable[int]) -> tuple[int, frozenset[int]]:
    """a|S| - b|T| + sum_{x in T} d_{G-S}(x) with T = {v not in S : d_{G-S}(v) < b}."""
    n = g.n
    value, tmask = _subset_value(g, (bounds.a,) * n, (bounds.b,) * n, mask_of(s, n))
    return value, set_of(tmask)


# -- exhaustive minimization -------------------------------------------------------


def _guard(g: Graph, funcs: DegreeFunctions, cap: int, loop: str) -> None:
    if len(funcs.g) != g.n:
        raise ValueError(f"degree functions cover {len(funcs.g)} vertices, graph has {g.n}")
    if g.n == 0:
        raise ValueError("deciders reject the empty graph")
    if g.n > cap:
        raise CapExceededError(f"n={g.n} exceeds the {loop} enumeration cap {cap}")


def _rank(mask: int, n: int) -> int:
    """The position of the set ``mask`` among the 2^n subsets of range(n) in
    the order of their sorted tuples: 2^n + |S| - r - lowbit(r | 2^n), with r
    the mask reversed over n bits; the empty set is first."""
    top = 1 << n
    r = int(bin(mask | top)[:2:-1], 2)  # the n bits after bin's "0b1", read back
    return top + mask.bit_count() - r - (top >> mask.bit_length())  # lowbit(r | top)


def _report(value: int, smask: int, tmask: int, threshold: int, examined: int) -> ConditionReport:
    return ConditionReport(value >= threshold, value, set_of(smask), set_of(tmask), examined)


# -- the four deciders --------------------------------------------------------------


def has_all_gf_factors(g: Graph, funcs: DegreeFunctions) -> ConditionReport:
    """All-(g, f)-factors: g(D) - f(S) + sum_{x in S} d_{G-D}(x) - q >= -1
    (0 when g = f pointwise) over all disjoint D, S.

    The verdict is the characterization's, which reports false when the box
    admits no even-total demand at all (g = f with odd total), rather than
    the vacuous truth of the empty quantifier.  The pair loop runs in the
    order of the module docstring, reading each D's table of bounds in
    reverse as S steps down.
    """
    _guard(g, funcs, PAIR_ENUM_CAP, "3^n")
    lo, hi = funcs.g, funcs.f
    n, rows = g.n, g.rows
    strict = sum(1 << v for v in range(n) if lo[v] < hi[v])  # the v with g(v) < f(v)
    full = (1 << n) - 1
    best = (sum(lo) + n * n, 0, 0, 0, 0)  # a value above every value of the functional
    examined = 0
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            dmask = sum(1 << v for v in combo)
            comp = full & ~dmask
            floor = sum(lo[v] for v in combo) - (n - k)  # g(D) - |V - D|
            terms = [(rows[v] & comp).bit_count() - hi[v] + 1 for v in iter_bits(comp)]
            if floor + sum(t for t in terms if t < 0) > best[0]:
                continue  # no S of this D can reach best
            rank_d = _rank(dmask, n)
            bounds = [floor]  # the bound over the submasks of comp, ascending
            for t in terms:
                bounds += [b + t for b in bounds]
            smask = comp
            for bound in reversed(bounds):
                if bound <= best[0]:
                    examined += 1
                    value = (bound + (n - k - smask.bit_count())
                             - _count_q(g, dmask | smask, smask, lo, strict))
                    if value <= best[0]:
                        best = min(best, (value, rank_d, _rank(smask, n), dmask, smask))
                smask = (smask - 1) & comp
    value, _, _, dmask, smask = best
    return _report(value, dmask, smask, 0 if funcs.pointwise_equal else -1, examined)


def has_all_ab_factors(g: Graph, bounds: DegreeBounds) -> ConditionReport:
    """All-[a, b]-factors (a < b): delta(S, T) >= -1 over all disjoint S, T."""
    if bounds.a >= bounds.b:
        raise ValueError("the all-[a,b]-factors characterization requires a < b")
    return has_all_gf_factors(g, DegreeFunctions.constant(g.n, bounds.a, bounds.b))


def lu_all_fractional_gf(g: Graph, funcs: DegreeFunctions) -> ConditionReport:
    """All fractional (g, f)-factors: g(S) - f(T) + sum_{x in T} d_{G-S}(x) >= 0
    for every S, with T = {v not in S : d_{G-S}(v) < f(v)}.

    The blocks only locate the minimizer S of least ``_rank`` (their least
    key), and one exact evaluation at S reports the minimum and T.  They take
    y(v) = f(v) and x(v) = g(v) + f(v) - y(v), each capped at d(v) + 1, so T
    stays; v is over-capped when the cap lowers x(v).  On sets with no
    over-capped vertex the capped functional exceeds the true one by the
    constant sum(f - y).  A set that holds an over-capped v loses to the set
    without v under both: moving v out lowers the value by at least d(v) + 1
    (capped), or g(v) + max(0, f(v) - d(v)) > d(v) (true), and raises at most
    d(v) other terms by 1 each.  So the minimizers agree, and as x, y <= d + 1
    the keys stay exact in int64 however large g and f are.
    """
    _guard(g, funcs, SUBSET_ENUM_CAP, "2^n")
    cap = [row.bit_count() + 1 for row in g.rows]
    y = [min(fv, c) for fv, c in zip(funcs.f, cap)]
    x = [min(gv + fv - yv, c) for gv, fv, yv, c in zip(funcs.g, funcs.f, y, cap)]
    best = ((sum(x) + 1) << g.n + 1, 0)  # above every key of the capped functional
    for high, keys in _subset_blocks(g.rows, x, y):
        i = int(keys.argmin())
        best = min(best, (int(keys[i]), high | i))
    value, tmask = _subset_value(g, funcs.g, funcs.f, best[1])
    return _report(value, best[1], tmask, 0, 1 << g.n)


def has_all_fractional_ab_factors(g: Graph, bounds: DegreeBounds) -> ConditionReport:
    """All fractional [a, b]-factors (a < b): theta(S) >= 0 for every S."""
    if bounds.a >= bounds.b:
        raise ValueError("the all-fractional-[a,b]-factors characterization requires a < b")
    return lu_all_fractional_gf(g, DegreeFunctions.constant(g.n, bounds.a, bounds.b))
