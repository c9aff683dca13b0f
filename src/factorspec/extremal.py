"""Constructors and closed-form facts for the extremal graphs.

All three named constructions are joins of a clique with a disjoint union of
two cliques.  The canonical vertex layout is always [special block | join
clique | tail clique], which keeps witnesses and graph6 records byte-stable
across runs.  The three blocks form an equitable partition, so the largest
root of its quotient polynomial (``layout_charpoly``) is the spectral radius
of the connected join (Brouwer and Haemers, Spectra of Graphs, 2012, 2.3).
"""

from __future__ import annotations

from .conditions import DegreeBounds, delta, theta
from .graph import Graph, check_dense_order
from .spectral import _poly_eval, largest_root


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


def layout_charpoly(first: int, join: int, tail: int) -> tuple[int, int, int, int]:
    """Coefficients, highest power first, of det(xI - B) for the quotient
    B = [[first-1, join, 0], [first, join-1, tail], [0, join, tail-1]] of the
    layout.  Its row sums are at most n - 1, so its roots lie in [1 - n, n - 1]."""
    n = first + join + tail
    ft = first * tail
    return (1, 3 - n, ft - 2 * n + 3, ft * (join + 1) + 1 - n)


# -- H_{n,b}: the near-complete graph with one low-degree hub ------------------


def build_hnb(n: int, b: int) -> Graph:
    """K_{b-1} joined to (K_1 u K_{n-b}): K_n with n-b edges removed at vertex 0."""
    if not 2 <= b <= n - 1:
        raise ValueError(f"hnb needs 2 <= b <= n-1, got n={n}, b={b}")
    return _clique_join_layout(1, b - 1, n - b)


def rho_hnb(n: int, b: int) -> float:
    """Spectral radius of hnb via its quotient polynomial p; always in (n-2, n-1).

    Works straight from the closed form, so it stays cheap for orders far
    beyond what dense iteration can touch.  The range is decided exactly, by
    p(n-2) < 0 < p(n-1), because at large n (3 * 10^5 for b = 2) the float
    root rounds to n - 2 itself.
    """
    if not 2 <= b <= n - 1:
        raise ValueError(f"hnb needs 2 <= b <= n-1, got n={n}, b={b}")
    coeffs = layout_charpoly(1, b - 1, n - b)
    if not _poly_eval(coeffs, n - 2) < 0 < _poly_eval(coeffs, n - 1):  # pragma: no cover
        raise RuntimeError(f"rho_hnb({n}, {b}) escaped (n-2, n-1)")
    return largest_root(coeffs, n - 1)


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


def build_g2(b: int, n: int) -> Graph:
    """The join of K_{4b} with (K_2 u K_{n-4b-2})."""
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if n < 4 * b + 3:
        raise ValueError(f"g2 needs n >= 4b+3 = {4 * b + 3}, got n={n}")
    return _clique_join_layout(2, 4 * b, n - 4 * b - 2)


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
    """Spectral radius of the hub-over-two-cliques join, via its quotient polynomial."""
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got n={n}, r={r}")
    return largest_root(layout_charpoly(r, 1, n - 1 - r), n - 1)


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
