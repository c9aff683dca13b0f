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
components.  The pair walk starts, from order SEED_MIN_ORDER up, at a seed:
the subset functional is the pair functional without q, so the least
minimizer (S, T) of ``lu_all_fractional_gf`` is a pair (D, S), and its value
there, q included, is the first least value.  Then it takes D by ascending
size, then lexicographically, and walks the subsets S of V - D depth first,
deciding the vertices from the highest down, the include branch first, so the
leaves come in descending numeric order of S.  Two bounds, each modular in S,
hold at every pair:
q <= |V - D - S| gives g(D) - |V - D| + sum_{x in S} (d_{G-D}(x) - f(x) + 1),
and as deleting a vertex x adds at most d(x) - 1 components,
q <= c(G - D) + sum_{x in S} (d_{G-D}(x) - 1) gives
g(D) - c(G - D) + sum_{x in S} (1 - f(x)), with c(G - D) counted once per D
that passes the first.  A branch is cut when either bound, plus its negative
terms still open, exceeds the least value so far.  So a pair is evaluated
exactly when both of its bounds are at most the least value at its turn, and
``pairs_examined``, those pairs plus one for the seed, depends on this order;
pairs at that value are still evaluated, so the minimum and the witness do
not.  The subset loop only locates the least minimizer S: it evaluates all
2^n subsets in blocks of 2^k (k = min(n, 12)) that share their bits above the
k lowest vertices, where one int64 table per call holds the degree deficits
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
SEED_MIN_ORDER = 7  # the pair walk seeds from order 7; at 6 the seed costs more than it saves
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
    the vacuous truth of the empty quantifier.  The pair walk runs in the
    order of the module docstring; each branch carries the least first and
    second bound over its leaves.
    """
    _guard(g, funcs, PAIR_ENUM_CAP, "3^n")
    lo, hi = funcs.g, funcs.f
    n, rows = g.n, g.rows
    strict = sum(1 << v for v in range(n) if lo[v] < hi[v])  # the v with g(v) < f(v)
    full = (1 << n) - 1
    if n >= SEED_MIN_ORDER:
        # the subset functional is the pair functional without q, so its
        # witness (S, T) is a pair (D, S) and its value minus q a real value
        seed = lu_all_fractional_gf(g, funcs)
        dmask, smask = mask_of(seed.witness_s, n), mask_of(seed.witness_t, n)
        value = seed.min_value - _count_q(g, dmask | smask, smask, lo, strict)
        best = (value, _rank(dmask, n), _rank(smask, n), dmask, smask)
        examined = 1
    else:
        best = (sum(lo) + n * n, 0, 0, 0, 0)  # a value above every value of the functional
        examined = 0
    high_first = range(n - 1, -1, -1)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            dmask = sum([1 << v for v in combo])
            comp = full & ~dmask
            g_d = sum([lo[v] for v in combo])
            rest = [v for v in high_first if comp >> v & 1]
            terms = [(rows[v] & comp).bit_count() - hi[v] + 1 for v in rest]
            low1 = g_d - (n - k) + sum([t for t in terms if t < 0])
            if low1 > best[0]:
                continue  # no S of this D can reach best
            low2 = g_d - len(component_masks(rows, n, dmask)) + sum(1 - hi[v] for v in rest)
            if low2 > best[0]:
                continue
            rank_d = _rank(dmask, n)
            # (depth, S, least first bound, least second bound) over the
            # leaves below; the include branch is pushed last, so S descends.
            # Including rest[i] adds its first term if positive, and excluding
            # it drops its first term if negative and its second, 1 - f
            stack = [(0, 0, low1, low2)]
            while stack:
                i, smask, low1, low2 = stack.pop()
                if low1 > best[0] or low2 > best[0]:
                    continue
                if i == len(rest):
                    examined += 1
                    value = (low1 + (n - k - smask.bit_count())
                             - _count_q(g, dmask | smask, smask, lo, strict))
                    if value <= best[0]:
                        best = min(best, (value, rank_d, _rank(smask, n), dmask, smask))
                    continue
                v, t = rest[i], terms[i]
                stack.append((i + 1, smask, low1 - t if t < 0 else low1, low2 + hi[v] - 1))
                stack.append((i + 1, smask | 1 << v, low1 + t if t > 0 else low1, low2))
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
