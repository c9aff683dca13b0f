"""Constructors and closed-form facts for the extremal graphs.

All three named constructions are joins of a clique with a disjoint union of
two cliques.  The canonical vertex layout is always [special block | join
clique | tail clique], which keeps witnesses, graph6 records, and quotient
partitions byte-stable across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .conditions import DegreeBounds, delta, theta
from .graph import Graph, check_dense_order
from .spectral import QuotientMatrix, leading_eigenvalue


def _ceil_div(p: int, q: int) -> int:
    """Exact ceiling division for nonnegative operands."""
    return -(-p // q)


def _clique_join_layout(first: int, join: int, tail: int) -> Graph:
    """K_join joined to (K_first u K_tail), vertices ordered [first|join|tail]."""
    n = first + join + tail
    check_dense_order(n, "construction")
    full = (1 << n) - 1
    first_mask = (1 << first) - 1
    join_mask = ((1 << join) - 1) << first
    tail_mask = full ^ first_mask ^ join_mask
    rows = []
    for v in range(n):
        if v < first:
            row = first_mask | join_mask
        elif v < first + join:
            row = full
        else:
            row = join_mask | tail_mask
        rows.append(row & ~(1 << v))
    return Graph(n, tuple(rows))


def _layout_partition(first: int, join: int, tail: int) -> list[range]:
    return [
        range(0, first),
        range(first, first + join),
        range(first + join, first + join + tail),
    ]


def _layout_quotient(first: int, join: int, tail: int) -> QuotientMatrix:
    """The (always equitable) 3-part quotient of a two-clique join, in closed form."""
    f = Fraction
    entries = (
        (f(first - 1), f(join), f(0)),
        (f(first), f(join - 1), f(tail)),
        (f(0), f(join), f(tail - 1)),
    )
    return QuotientMatrix(entries, (first, join, tail), equitable=True)


# -- H_{n,b}: the near-complete graph with one low-degree hub ------------------


def build_hnb(n: int, b: int) -> Graph:
    """K_{b-1} joined to (K_1 u K_{n-b}): K_n with n-b edges removed at vertex 0."""
    if not 2 <= b <= n - 1:
        raise ValueError(f"hnb needs 2 <= b <= n-1, got n={n}, b={b}")
    return _clique_join_layout(1, b - 1, n - b)


def hnb_partition(n: int, b: int) -> list[range]:
    """The equitable 3-part partition [{hub}, join clique, tail clique]."""
    if not 2 <= b <= n - 1:
        raise ValueError(f"hnb needs 2 <= b <= n-1, got n={n}, b={b}")
    return _layout_partition(1, b - 1, n - b)


def rho_hnb(n: int, b: int) -> float:
    """Spectral radius of hnb via the exact 3x3 quotient; always in (n-2, n-1).

    Works straight from the closed-form quotient, so it stays cheap for
    orders far beyond what dense iteration can touch.
    """
    if not 2 <= b <= n - 1:
        raise ValueError(f"hnb needs 2 <= b <= n-1, got n={n}, b={b}")
    rho = leading_eigenvalue(_layout_quotient(1, b - 1, n - b))
    if not n - 2 < rho < n - 1:  # pragma: no cover - sanity guard
        raise RuntimeError(f"rho_hnb({n}, {b}) = {rho} escaped (n-2, n-1)")
    return rho


def is_hnb(g: Graph, b: int) -> bool:
    """Exact isomorphism test against hnb: some vertex of degree b-1 whose
    removal leaves a complete graph."""
    if g.n < 3 or not 2 <= b <= g.n - 1:
        return False
    full = (1 << g.n) - 1
    for v in range(g.n):
        if g.rows[v].bit_count() != b - 1:
            continue
        if all((g.rows[u] | (1 << u) | (1 << v)) == full for u in range(g.n) if u != v):
            return True
    return False


def hnb_witness(n: int, b: int, mode: str) -> tuple[int, frozenset[int]]:
    """(value, T) of the deficiency functional of hnb at S empty.

    The integer functional is evaluated at T = the hub; the fractional one
    derives T = {v : d(v) < b}, which is the hub alone once n >= b + 2.  The
    claim (value -2 resp. -1 with T the hub, so hnb never has the property)
    is checked by ``harness.verify_hnb_witnesses``.
    """
    if mode not in ("integer", "fractional"):
        raise ValueError(f"mode must be 'integer' or 'fractional', got {mode!r}")
    if mode == "fractional" and b > n - 2:
        raise ValueError(f"fractional witness needs b <= n-2, got n={n}, b={b}")
    g = build_hnb(n, b)  # raises unless 2 <= b <= n-1
    bounds = DegreeBounds(1, b)  # value at S = empty does not depend on a
    if mode == "integer":
        return delta(g, bounds, (), (0,)), frozenset({0})
    return theta(g, bounds, ())


# -- the two-clique joins used for the spectral bounds -------------------------


def g1_join_size(a: int, b: int) -> int:
    """Join-clique size ceil((2b^2+2b)/a) + 2b - 4 of the g1 construction."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    return _ceil_div(2 * b * b + 2 * b, a) + 2 * b - 4


def build_g1(a: int, b: int, n: int) -> Graph:
    """The join of K_{g1_join_size} with (K_2 u K_tail) on n vertices."""
    c = g1_join_size(a, b)
    tail = n - c - 2
    if tail < 1:
        raise ValueError(f"g1 needs n >= {c + 3} for a={a}, b={b}, got n={n}")
    return _clique_join_layout(2, c, tail)


def g1_partition(a: int, b: int, n: int) -> list[range]:
    c = g1_join_size(a, b)
    if n - c - 2 < 1:
        raise ValueError(f"g1 needs n >= {c + 3} for a={a}, b={b}, got n={n}")
    return _layout_partition(2, c, n - c - 2)


def build_g2(b: int, n: int) -> Graph:
    """The join of K_{4b} with (K_2 u K_{n-4b-2})."""
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if n < 4 * b + 3:
        raise ValueError(f"g2 needs n >= 4b+3 = {4 * b + 3}, got n={n}")
    return _clique_join_layout(2, 4 * b, n - 4 * b - 2)


def g2_partition(b: int, n: int) -> list[range]:
    if b < 1 or n < 4 * b + 3:
        raise ValueError(f"g2 needs b >= 1 and n >= 4b+3, got b={b}, n={n}")
    return _layout_partition(2, 4 * b, n - 4 * b - 2)


def g12_min_order(a: int, b: int) -> int:
    """Smallest order at which the g1/g2 spectral bounds rho < n-2 are claimed."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    return _ceil_div(3 * b * (b + 1), a) + 3 * b + 7


# -- hub-over-two-cliques join (the side claim of the integer proof) ----------


def build_k1_join_cliques(n: int, r: int) -> Graph:
    """K_1 joined to (K_r u K_{n-1-r}): two cliques sharing only a hub."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got n={n}, r={r}")
    return _clique_join_layout(r, 1, n - 1 - r)


def rho_k1_join_cliques(n: int, r: int) -> float:
    """Spectral radius of the hub-over-two-cliques join, via its 3x3 quotient."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got n={n}, r={r}")
    return leading_eigenvalue(_layout_quotient(r, 1, n - 1 - r))


# -- main-theorem order thresholds ---------------------------------------------


def threshold_n(a: int, b: int, mode: str) -> int:
    """Smallest order at which the spectral-radius condition is claimed to
    force the factor property.

    Integer mode: n >= 2b^2 + 4b with 3 <= a < b.  Fractional mode:
    n >= 3b(b+a+1)/a + 7 with 1 <= a < b, rounded up to the next integer.
    """
    if mode == "integer":
        if not 3 <= a < b:
            raise ValueError(f"integer mode needs 3 <= a < b, got a={a}, b={b}")
        return 2 * b * b + 4 * b
    if mode == "fractional":
        if not 1 <= a < b:
            raise ValueError(f"fractional mode needs 1 <= a < b, got a={a}, b={b}")
        return _ceil_div(3 * b * (b + a + 1), a) + 7
    raise ValueError(f"mode must be 'integer' or 'fractional', got {mode!r}")
