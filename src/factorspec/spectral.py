"""Spectral radius machinery.

The adjacency spectral radius of a graph is the largest top eigenvalue over
its components.  The dense adjacency matrix is built once per graph from the
row bitmasks; each component then takes one of two routes by its order k:
a direct symmetric eigensolve (``numpy.linalg.eigh``) when k is at most
``DIRECT_MAX_ORDER``, and power iteration on A + I above it, whose working
memory is the matrix itself.  Either route certifies its value: the l2
residual of the returned unit vector bounds the eigenvalue error, and it must
be at most ``tol``.

Also here: Hong's edge bound for connected graphs, quotient matrices of
vertex partitions with an equitability check, and exact leading-root
extraction for quotients of size at most 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, check_dense_order, component_masks, is_connected, iter_bits, mask_of

# Components of at most this order go to the direct eigensolver: up to 64,
# eigh costs under a millisecond, where iteration on a small spectral gap (a
# path) takes 10-100x longer.  Above it, eigh grows as k^3 in time and adds
# a k^2 eigenvector workspace (35 MB at k = 1000), while well-connected
# components converge in about ten iterations, so large ones keep iterating.
DIRECT_MAX_ORDER = 64


class ConvergenceError(RuntimeError):
    """Could not certify rho within tol; ``best`` holds the best estimate."""

    def __init__(self, message: str, best: "SpectralResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SpectralResult:
    """``iterations`` counts power iterations only (0 on the direct route);
    ``method`` names the route of the component that attained ``rho``:
    ``"dense-eigh"`` or ``"dense-iteration"``."""

    rho: float
    residual: float
    iterations: int
    method: str


def _power_iteration(a: np.ndarray, tol: float, cap: int) -> tuple[float, float, int, bool]:
    """Largest eigenvalue of symmetric nonnegative ``a`` via iteration on a + I.

    The +I shift keeps bipartite components from oscillating with period 2;
    the all-ones start vector is never orthogonal to the Perron vector of a
    connected component.  Returns (rho, inf-norm residual, iterations, ok);
    ``ok`` is False when the cap was hit first.
    """
    k = a.shape[0]
    x = np.full(k, 1.0 / math.sqrt(k))
    lam = 0.0
    res_inf = math.inf
    for it in range(1, cap + 1):
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x
        # l2 residual of a unit vector bounds the eigenvalue error for
        # symmetric matrices, so converging on it certifies rho within tol
        if float(np.linalg.norm(r)) <= tol:
            return lam, float(np.max(np.abs(r))), it, True
        res_inf = float(np.max(np.abs(r)))
        y = ax + x
        x = y / float(np.linalg.norm(y))
    return lam, res_inf, cap, False


def _direct(a: np.ndarray, tol: float) -> tuple[float, float, bool]:
    """Top eigenpair of symmetric ``a`` from one dense eigensolve.  Returns
    (rho, inf-norm residual, ok); ``ok`` is False when the l2 residual of the
    returned unit vector exceeds ``tol``."""
    w, v = np.linalg.eigh(a)
    rho = float(w[-1])
    x = v[:, -1]
    r = a @ x - rho * x
    return rho, float(np.max(np.abs(r))), float(np.linalg.norm(r)) <= tol


def _adjacency_bits(g: Graph) -> np.ndarray:
    """n x n uint8 adjacency matrix: bit u of ``rows[v]`` is entry (v, u)."""
    width = (g.n + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in g.rows)
    return np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(g.n, width),
        axis=1, count=g.n, bitorder="little",
    )


def spectral_radius(g: Graph, tol: float = 1e-10) -> SpectralResult:
    """Largest adjacency eigenvalue; maximum over components when disconnected.

    Raises ``ValueError`` above ``MAX_DENSE_ORDER`` vertices and when ``tol``
    is below what double precision can certify, 4 eps max(1, max degree) (the
    maximum degree bounds the norm of the adjacency matrix), and
    ``ConvergenceError`` when a component's value cannot be certified within
    ``tol`` on its route.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    check_dense_order(g.n, "graph")
    floor = 4 * np.finfo(np.float64).eps * max(1, max(row.bit_count() for row in g.rows))
    if not tol >= floor:  # also rejects nan
        raise ValueError(f"tolerance {tol:g} is below the certifiable {floor:.3g} for this graph")
    bits = _adjacency_bits(g)
    # isolated vertices contribute eigenvalue 0, on the direct route's side
    best_rho, best_res, best_method = 0.0, 0.0, "dense-eigh"
    total_iters = 0
    for comp in component_masks(g.rows, g.n, 0):
        k = comp.bit_count()
        if k == 1:
            continue
        if k < g.n:
            idx = list(iter_bits(comp))
            block = bits[np.ix_(idx, idx)]
        else:  # a connected graph skips the gather, 8 ms at n = 1000
            block = bits
        a = block.astype(np.float64)
        if k <= DIRECT_MAX_ORDER:
            method, iters = "dense-eigh", 0
            rho, res, ok = _direct(a, tol)
            failure = f"eigensolver residual exceeds tol={tol}"
        else:
            method, cap = "dense-iteration", 100 * k + 1000
            rho, res, iters, ok = _power_iteration(a, tol, cap)
            failure = f"power iteration did not reach tol={tol} within {cap} iterations"
        total_iters += iters
        if not ok:
            best = SpectralResult(max(best_rho, rho), res, total_iters, method)
            raise ConvergenceError(failure, best)
        if rho > best_rho:
            best_rho, best_res, best_method = rho, res, method
    return SpectralResult(best_rho, best_res, total_iters, best_method)


def hong_bound(g: Graph) -> float:
    """Edge-count bound sqrt(2m - n + 1) on the spectral radius; connected graphs only."""
    if not is_connected(g):
        raise ValueError("the sqrt(2m - n + 1) bound is only valid for connected graphs")
    return math.sqrt(2 * g.edge_count() - g.n + 1)


@dataclass(frozen=True)
class QuotientMatrix:
    """k x k average-neighbour-count matrix of a vertex partition."""

    entries: tuple[tuple[Fraction, ...], ...]
    part_sizes: tuple[int, ...]
    equitable: bool

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    def __post_init__(self) -> None:
        k = len(self.part_sizes)
        if len(self.entries) != k or any(len(row) != k for row in self.entries):
            raise ValueError("entries must be a k x k matrix")
        if any(s <= 0 for s in self.part_sizes):
            raise ValueError("part sizes must be positive")
        for i in range(k):
            for j in range(k):
                if self.entries[i][j] < 0:
                    raise ValueError("quotient entries must be nonnegative")
                # both count the edges between parts i and j
                if self.part_sizes[i] * self.entries[i][j] != self.part_sizes[j] * self.entries[j][i]:
                    raise ValueError(f"edge-count symmetry violated between parts {i} and {j}")

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)


def quotient_matrix(g: Graph, parts: Sequence[Iterable[int]]) -> QuotientMatrix:
    """Quotient of A(G) with respect to a partition of V(G).

    Entry (i, j) is the average number of neighbours a part-i vertex has in
    part j; the partition is equitable when that count is the same for every
    vertex of part i, for all (i, j).
    """
    masks = [mask_of(p, g.n) for p in parts]
    if any(m == 0 for m in masks):
        raise ValueError("partition parts must be nonempty")
    union = 0
    for m in masks:
        if union & m:
            raise ValueError("partition parts must be pairwise disjoint")
        union |= m
    if union != (1 << g.n) - 1:
        raise ValueError("partition must cover every vertex")

    k = len(masks)
    sizes = tuple(m.bit_count() for m in masks)
    entries = []
    equitable = True
    for i in range(k):
        row = []
        for j in range(k):
            counts = {(g.rows[v] & masks[j]).bit_count() for v in iter_bits(masks[i])}
            if len(counts) > 1:
                equitable = False
                total = sum((g.rows[v] & masks[j]).bit_count() for v in iter_bits(masks[i]))
                row.append(Fraction(total, sizes[i]))
            else:
                row.append(Fraction(counts.pop()))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), sizes, equitable)


# -- exact leading roots of small quotients ----------------------------------


def _charpoly_coeffs(b: QuotientMatrix) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, highest power first, k <= 3."""
    e = b.entries
    if b.k == 1:
        return [Fraction(1), -e[0][0]]
    if b.k == 2:
        tr = e[0][0] + e[1][1]
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        return [Fraction(1), -tr, det]
    if b.k == 3:
        tr = e[0][0] + e[1][1] + e[2][2]
        minors = (
            e[1][1] * e[2][2] - e[1][2] * e[2][1]
            + e[0][0] * e[2][2] - e[0][2] * e[2][0]
            + e[0][0] * e[1][1] - e[0][1] * e[1][0]
        )
        det = (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )
        return [Fraction(1), -tr, minors, -det]
    raise ValueError("charpoly coefficients only implemented for k <= 3")


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_derive(coeffs: Sequence[Fraction]) -> list[Fraction]:
    deg = len(coeffs) - 1
    return [c * (deg - i) for i, c in enumerate(coeffs[:-1])]


def _newton_from_above(coeffs: Sequence[float], x0: float) -> float:
    """Largest root of a monic real-rooted polynomial, starting above it.

    Above the largest root all derivatives are positive, so the iteration
    decreases monotonically; stop on stagnation from rounding.
    """
    x = x0
    for _ in range(200):
        p = 0.0
        dp = 0.0
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        if dp <= 0.0:
            break
        x_new = x - p / dp
        if not x_new < x:
            break
        if x - x_new <= 1e-15 * max(1.0, abs(x)):
            x = x_new
            break
        x = x_new
    return x


def _certified_largest_root(coeffs: list[Fraction], upper: Fraction) -> float:
    """Largest root via Newton plus an exact-arithmetic bisection polish.

    Establishes a rational bracket [lo, hi] with p(lo) < 0 < p(hi) and
    p'(lo) > 0 (so lo is above every other root), then bisects it to width
    1e-12.  Falls back to the float Newton value when the bracket cannot be
    certified (e.g. a repeated leading root).
    """
    float_coeffs = [float(c) for c in coeffs]
    x = _newton_from_above(float_coeffs, float(upper) + 1.0)
    deriv = _poly_derive(coeffs)
    eps = Fraction(1, 10**9)
    for _ in range(4):
        lo = Fraction(x) - eps
        hi = Fraction(x) + eps
        if _poly_eval(coeffs, lo) < 0 < _poly_eval(coeffs, hi) and _poly_eval(deriv, lo) > 0:
            for _ in range(60):
                if hi - lo <= Fraction(1, 10**12):
                    break
                mid = (lo + hi) / 2
                if _poly_eval(coeffs, mid) < 0:
                    lo = mid
                else:
                    hi = mid
            return float((lo + hi) / 2)
        eps *= 10
    return x


def leading_eigenvalue(b: QuotientMatrix) -> float:
    """Largest eigenvalue of an equitable quotient matrix of at most 3 parts.

    The root is isolated from exact characteristic-polynomial coefficients.
    By eigenvalue transfer it equals the spectral radius of the underlying
    graph whenever that graph is connected.
    """
    if not b.equitable:
        raise ValueError("leading eigenvalue transfer requires an equitable quotient")
    return _certified_largest_root(_charpoly_coeffs(b), max(b.row_sums()))


def charpoly_eval_3x3(b: QuotientMatrix, x: int | Fraction) -> Fraction:
    """det(x I - B) for a 3-part quotient, in exact rational arithmetic."""
    if b.k != 3:
        raise ValueError("charpoly_eval_3x3 requires a 3-part quotient")
    return _poly_eval(_charpoly_coeffs(b), Fraction(x))
