"""Spectral radius machinery.

The adjacency spectral radius of a graph is the largest top eigenvalue over
its components.  Radii are taken for a stack of same-order graphs, a single
graph being the one-graph stack.  ``graph.bit_matrix`` unpacks the row
bitmasks of the whole stack into dense adjacency matrices in one call; each
component then takes one of two routes by its order k: a direct symmetric
eigensolve (``numpy.linalg.eigh``) when k is at most ``DIRECT_MAX_ORDER``,
and power iteration on A + I above it, whose working memory is the matrix
itself.  The direct route groups the component blocks of the whole stack
by order and solves each group in one stacked ``eigh``, which is the single
solve of each block bit for bit; a whole disconnected matrix would not be.
Either route certifies its value: the l2 residual of the returned unit
vector bounds the eigenvalue error, and it must be at most ``RHO_TOL``.

Also here: Hong's edge bound for connected graphs, and, for real-rooted
integer polynomials such as the quotient polynomials of the clique joins,
exact root counts (Descartes' rule of signs) and largest roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import Graph, bit_matrix, check_dense_order, component_masks, is_connected, iter_bits

# Components of at most this order go to the direct eigensolver: up to 64,
# eigh costs under a millisecond, where iteration on a small spectral gap (a
# path) takes 10-100x longer.  Above it, eigh grows as k^3 in time and adds
# a k^2 eigenvector workspace (35 MB at k = 1000), while well-connected
# components converge in about ten iterations, so large ones keep iterating.
DIRECT_MAX_ORDER = 64

# Certified bound on the l2 residual, so on the error of every radius.  Double
# precision can certify about 4 eps max(1, max degree), which is at most
# 3.6e-12 for the orders MAX_DENSE_ORDER admits.
RHO_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Could not certify rho within RHO_TOL; ``best`` holds the best estimate."""

    def __init__(self, message: str, best: "SpectralResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SpectralResult:
    """``residual`` is the inf-norm of A x - rho x; the certificate is its
    l2 norm, at most ``RHO_TOL``.  ``iterations`` counts power iterations
    only (0 on the direct route); ``method`` names the route of the
    component that attained ``rho``: ``"dense-eigh"`` or ``"dense-iteration"``."""

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
    for it in range(1, cap + 1):
        ax = a @ x
        lam = float(x @ ax)
        r = ax - lam * x
        # l2 residual of a unit vector bounds the eigenvalue error for
        # symmetric matrices, so converging on it certifies rho within tol
        if float(np.linalg.norm(r)) <= tol:
            return lam, float(np.max(np.abs(r))), it, True
        y = ax + x
        x = y / float(np.linalg.norm(y))
    return lam, float(np.max(np.abs(r))), cap, False


def _block(bits: np.ndarray, comp: int, k: int) -> np.ndarray:
    """The rows and columns of ``bits`` in ``comp``, a component of order k."""
    if k == bits.shape[0]:  # a connected graph skips the gather, 8 ms at n = 1000
        return bits
    idx = list(iter_bits(comp))
    return bits[np.ix_(idx, idx)]


def spectral_radii(graphs: Sequence[Graph], components: Sequence[Sequence[int]] | None = None
                   ) -> list[SpectralResult]:
    """``spectral_radius`` of each graph of a same-order stack.

    The direct route's component blocks of the whole stack are grouped by
    order, and each group takes one stacked ``eigh`` and one vectorised l2
    residual test; a stacked ``eigh`` is the single one, bit for bit, on every
    block.  ``components`` holds each graph's ``component_masks`` when the
    caller has them.  Errors are raised at the first graph, and its first
    component, that ``spectral_radius`` would raise on.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    if any(g.n != n for g in graphs):
        raise ValueError("a stack holds graphs of one order")
    check_dense_order(n, "graph")
    if components is None:
        components = [component_masks(g.rows, n, 0) for g in graphs]
    tol = RHO_TOL
    bits = bit_matrix([row for g in graphs for row in g.rows], n).reshape(len(graphs), n, n)
    slots: dict[int, list[tuple[int, int]]] = {}  # block order -> (graph, component)
    for i, comps in enumerate(components):
        for j, comp in enumerate(comps):
            if 1 < comp.bit_count() <= DIRECT_MAX_ORDER:
                slots.setdefault(comp.bit_count(), []).append((i, j))
    direct = {}
    for k, where in slots.items():
        a = np.array([_block(bits[i], components[i][j], k) for i, j in where], dtype=np.float64)
        w, v = np.linalg.eigh(a)
        rho, x = w[:, -1], v[:, :, -1]
        r = (a @ x[:, :, None])[:, :, 0] - rho[:, None] * x
        found = zip(rho.tolist(), np.abs(r).max(axis=1).tolist(),
                    (np.linalg.norm(r, axis=1) <= tol).tolist())
        direct.update(zip(where, found))
    results = []
    for i, comps in enumerate(components):
        # isolated vertices contribute eigenvalue 0, on the direct route's side
        best_rho, best_res, best_method = 0.0, 0.0, "dense-eigh"
        total_iters = 0
        for j, comp in enumerate(comps):
            k = comp.bit_count()
            if k == 1:
                continue
            if k <= DIRECT_MAX_ORDER:
                method, iters = "dense-eigh", 0
                rho, res, ok = direct[i, j]
                failure = f"eigensolver residual exceeds tol={tol}"
            else:
                method, cap = "dense-iteration", 100 * k + 1000
                a = _block(bits[i], comp, k).astype(np.float64)
                rho, res, iters, ok = _power_iteration(a, tol, cap)
                failure = f"power iteration did not reach tol={tol} within {cap} iterations"
            total_iters += iters
            if not ok:
                best = SpectralResult(max(best_rho, rho), res, total_iters, method)
                raise ConvergenceError(failure, best)
            if rho > best_rho:
                best_rho, best_res, best_method = rho, res, method
        results.append(SpectralResult(best_rho, best_res, total_iters, best_method))
    return results


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue; maximum over components when disconnected.

    Raises ``ValueError`` above ``MAX_DENSE_ORDER`` vertices, and
    ``ConvergenceError`` when a component's value cannot be certified within
    ``RHO_TOL`` on its route.
    """
    return spectral_radii([g])[0]


def hong_bound(g: Graph, components: Sequence[int] | None = None) -> float:
    """Edge-count bound sqrt(2m - n + 1) on the spectral radius; connected
    graphs only.  ``components``, g's ``component_masks`` when the caller has
    them, spares the search."""
    if not (is_connected(g) if components is None else len(components) == 1):
        raise ValueError("the sqrt(2m - n + 1) bound is only valid for connected graphs")
    return math.sqrt(2 * g.edge_count() - g.n + 1)


# -- exact root counts and largest roots of integer polynomials ---------------

ROOT_BITS = 53  # largest_root's step 2^-53 keeps it within 3/4 ulp of roots >= 1


def _poly_eval(coeffs: Sequence[int], x: int | Fraction) -> int | Fraction:
    """Horner's rule, exact: an integer at an integer x, a fraction at a fraction."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _roots_at_least(coeffs: Sequence[int], c: int) -> int:
    """Number of roots >= c, with multiplicity, of a real-rooted integer
    polynomial (coefficients highest power first), as the characteristic
    polynomials of symmetric matrices and their equitable quotients are.

    p(x + c) comes from repeated synthetic division by x - c.  Its trailing
    zeros count the roots at c; by Descartes' rule of signs, exact for
    real-rooted polynomials, its sign changes count the roots above c."""
    shifted = list(coeffs)
    for end in range(len(shifted) - 1, 0, -1):
        for i in range(1, end + 1):
            shifted[i] += c * shifted[i - 1]
    while shifted[-1] == 0:
        shifted.pop()
    signs = [v > 0 for v in shifted if v]
    return len(coeffs) - len(shifted) + sum(s != t for s, t in zip(signs, signs[1:]))


def largest_root(coeffs: Sequence[int], upper: int) -> float:
    """Largest root of a real-rooted integer polynomial (coefficients highest
    power first) whose roots all lie in [-upper, upper], as the eigenvalues
    of a nonnegative matrix with row sums at most ``upper`` do; otherwise
    ``ValueError``.  Bisects on ``_roots_at_least`` down to a bracket
    2^-ROOT_BITS wide and returns its midpoint."""
    # p(x / 2^ROOT_BITS) with integer coefficients, so every test point is an
    # integer; its mirror p(-x) has no root below lo iff p has none above hi
    scaled = [coeff << (ROOT_BITS * i) for i, coeff in enumerate(coeffs)]
    mirrored = [-coeff if i % 2 else coeff for i, coeff in enumerate(scaled)]
    lo, hi = -upper << ROOT_BITS, upper << ROOT_BITS
    if not _roots_at_least(scaled, lo) == _roots_at_least(mirrored, lo) == len(coeffs) - 1:
        raise ValueError(f"the roots do not all lie in [-{upper}, {upper}]")
    while hi - lo > 1:  # some root is >= lo and none is > hi
        mid = (lo + hi) // 2
        if _roots_at_least(scaled, mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / (2 << ROOT_BITS)
