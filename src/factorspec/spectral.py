"""Spectral radius machinery.

The adjacency spectral radius of a graph is the largest top eigenvalue over
its components.  The dense adjacency matrix is built once per graph from the
row bitmasks; each component then takes one of two routes by its order k:
a direct symmetric eigensolve (``numpy.linalg.eigh``) when k is at most
``DIRECT_MAX_ORDER``, and power iteration on A + I above it, whose working
memory is the matrix itself.  Either route certifies its value: the l2
residual of the returned unit vector bounds the eigenvalue error, and it must
be at most ``RHO_TOL``.

Also here: Hong's edge bound for connected graphs, and the exact largest
root of an integer polynomial, which ``extremal`` applies to the closed-form
quotient polynomials of its clique joins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import Graph, check_dense_order, component_masks, is_connected, iter_bits

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


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue; maximum over components when disconnected.

    Raises ``ValueError`` above ``MAX_DENSE_ORDER`` vertices, and
    ``ConvergenceError`` when a component's value cannot be certified within
    ``RHO_TOL`` on its route.
    """
    if g.n < 1:
        raise ValueError("spectral radius needs at least one vertex")
    check_dense_order(g.n, "graph")
    tol = RHO_TOL
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


# -- exact largest roots of integer polynomials --------------------------------


def _poly_eval(coeffs: Sequence[int], x: int | Fraction) -> int | Fraction:
    """Horner's rule, exact: an integer at an integer x, a fraction at a fraction."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_derive(coeffs: Sequence[int]) -> list[int]:
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


def largest_root(coeffs: Sequence[int], upper: int) -> float:
    """Largest root of a monic real-rooted integer polynomial (coefficients
    highest power first) whose roots are all at most ``upper``.

    Newton from above ``upper``, then an exact-arithmetic bisection polish:
    establishes a rational bracket [lo, hi] with p(lo) < 0 < p(hi) and
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
