"""Spectral radius, Hong bound, counted quotients, exact largest roots.

numpy's symmetric eigensolver serves as a reference, but the package's direct
route calls the same LAPACK routine, so a pure-Python Collatz-Wielandt
bracket checks the small components independently of it.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from factorspec import (
    ConvergenceError,
    from_edge_list,
    hong_bound,
    spectral_radius,
)
from factorspec import spectral
from factorspec.extremal import (
    build_g1,
    build_g2,
    build_hnb,
    g12_min_order,
    g1_join_size,
    layout_charpoly,
)
from factorspec.graph import iter_bits
from factorspec.spectral import _poly_eval, _roots_at_least, largest_root
from bruteforce import charpoly_3x3, counted_quotient
from catalogs import complete, connected_graphs, disjoint_union, edges, join


def eigvalsh_rho(g) -> float:
    """Independent dense-eigensolver spectral radius."""
    a = np.zeros((g.n, g.n))
    for u, v in edges(g):
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1]) if g.n else 0.0


def collatz_wielandt_bracket(g, width=1e-12, cap=100_000):
    """(lo, hi) with lo <= rho <= hi for a connected graph, in pure Python.

    Shifted power steps x <- (A + I) x from the all-ones vector keep x
    positive; for any positive x, min (Ax)_i / x_i <= rho <= max (Ax)_i / x_i.
    """
    nbrs = [list(iter_bits(g.rows[v])) for v in range(g.n)]
    x = [1.0] * g.n
    lo, hi = 0.0, float("inf")
    for _ in range(cap):
        ax = [sum(x[u] for u in nb) for nb in nbrs]
        ratios = [axi / xi for axi, xi in zip(ax, x)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < width:
            break
        top = max(axi + xi for axi, xi in zip(ax, x))
        x = [(axi + xi) / top for axi, xi in zip(ax, x)]
    return lo, hi


def path_graph(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


# every (a, b) of the lemma23 sweep's default grid
G12_GRID = [(a, b) for b in range(1, 6) for a in range(1, b + 1)]


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


class TestSpectralRadius:
    def test_complete(self):
        res = spectral_radius(complete(4))
        assert abs(res.rho - 3.0) < 1e-10
        assert res.residual <= 1e-10
        assert res.method == "dense-eigh"

    def test_cycle(self):
        assert abs(spectral_radius(cycle_graph(5)).rho - 2.0) < 1e-10

    def test_single_vertex_and_edgeless(self):
        assert spectral_radius(complete(1)).rho == 0.0
        assert spectral_radius(from_edge_list(3, [])).rho == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(complete(0))

    def test_disconnected_is_max_over_components(self):
        g = disjoint_union(complete(2), complete(2))
        assert abs(spectral_radius(g).rho - 1.0) < 1e-10
        g = disjoint_union(cycle_graph(5), complete(4))
        assert abs(spectral_radius(g).rho - 3.0) < 1e-10

    def test_hnb_vs_independent_eigensolver(self):
        g = build_hnb(6, 3)
        assert abs(spectral_radius(g).rho - eigvalsh_rho(g)) < 1e-9

    def test_random_vs_independent_eigensolver(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            g = from_edge_list(n, edges)
            assert abs(spectral_radius(g).rho - eigvalsh_rho(g)) < 1e-8

    def test_bipartite_oscillation_handled(self):
        # K_{2,3}: rho = sqrt(6), the +I shift must kill the period-2 swing
        g = join(from_edge_list(2, []), from_edge_list(3, []))
        assert abs(spectral_radius(g).rho - 6 ** 0.5) < 1e-10

    def test_degree_sandwich(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 10)
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
            )
            rho = spectral_radius(g).rho
            avg = 2 * g.edge_count() / g.n
            assert rho >= avg - 1e-9
            assert rho <= max((g.degree(v) for v in range(g.n)), default=0) + 1e-9

    def test_edge_addition_strictly_increases(self):
        rng = random.Random(13)
        checked = 0
        while checked < 20:
            n = rng.randint(3, 9)
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            from factorspec import is_connected

            if not is_connected(g):
                continue
            missing = [(u, v) for u, v in combinations(range(n), 2) if not (g.rows[u] >> v) & 1]
            if not missing:
                continue
            u, v = missing[rng.randrange(len(missing))]
            bigger = from_edge_list(n, list(edges(g)) + [(u, v)])
            assert spectral_radius(bigger).rho > spectral_radius(g).rho + 1e-10
            checked += 1

    def test_hnb_exceeds_complete_minor(self):
        for n, b in [(8, 3), (12, 5), (20, 2)]:
            assert spectral_radius(build_hnb(n, b)).rho > n - 2

    def test_collatz_wielandt_bracket_on_catalogs(self):
        # no LAPACK on the reference side: every connected graph of order <= 7
        for n in range(1, 8):
            for g in connected_graphs(n):
                lo, hi = collatz_wielandt_bracket(g)
                assert hi - lo < 1e-6
                assert lo - 1e-9 <= spectral_radius(g).rho <= hi + 1e-9

    def test_route_by_component_order(self):
        big = spectral.DIRECT_MAX_ORDER + 1
        res = spectral_radius(path_graph(big))
        assert res.method == "dense-iteration" and res.iterations > 0
        small = spectral_radius(path_graph(spectral.DIRECT_MAX_ORDER))
        assert small.method == "dense-eigh" and small.iterations == 0
        # K_10 attains rho on the direct route; the long path still iterates
        res = spectral_radius(disjoint_union(path_graph(big), complete(10)))
        assert abs(res.rho - 9.0) < 1e-10
        assert res.method == "dense-eigh" and res.iterations > 0

    def test_large_route_matches_per_entry_matrix_bitwise(self):
        # the bitmask-unpacked matrix feeds the iteration the same entries
        rng = random.Random(14)
        n = 90
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.3])
        g = disjoint_union(complete(3), g)
        comps = spectral.component_masks(g.rows, g.n, 0)
        assert [c.bit_count() for c in comps] == [3, n]
        verts = list(spectral.iter_bits(comps[1]))
        a = np.zeros((n, n))
        for i, v in enumerate(verts):
            for j, u in enumerate(verts):
                a[i, j] = float((g.rows[v] >> u) & 1)
        rho = spectral._power_iteration(a, 1e-10, 100 * n + 1000)[0]
        assert spectral_radius(g).rho == rho

    def test_direct_route_residual_over_tol_carries_best_estimate(self, monkeypatch):
        # rounding leaves the eigensolver's residual far above 1e-300
        monkeypatch.setattr(spectral, "RHO_TOL", 1e-300)
        g = path_graph(30)
        with pytest.raises(ConvergenceError, match="tol=1e-300") as info:
            spectral_radius(g)
        best = info.value.best
        assert best.method == "dense-eigh" and best.iterations == 0
        assert best.residual > 1e-300
        assert abs(best.rho - eigvalsh_rho(g)) < 1e-12

    def test_direct_route_rejects_a_perturbed_eigenvector(self, monkeypatch):
        # a top eigenvector off by 1e-8 leaves an l2 residual near 3.5e-8 on
        # K_4: far over RHO_TOL, and under a tolerance 10^4 times looser
        eigh = np.linalg.eigh

        def perturbed(a):
            w, v = eigh(a)
            v = v.copy()
            v[0, -1] += 1e-8
            v[:, -1] /= np.linalg.norm(v[:, -1])
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError, match="eigensolver residual exceeds tol=1e-10"):
            spectral_radius(complete(4))

    def test_iteration_residual_within_tol_above_the_direct_order(self):
        # both components iterate; a looser stopping rule leaves residuals
        # near 1e-7 and 5e-9, where these read about 1e-11
        for g in (path_graph(100), build_hnb(600, 5)):
            res = spectral_radius(g)
            assert res.method == "dense-iteration"
            assert res.residual <= spectral.RHO_TOL

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        # a long path with a certifiable tol the iteration cannot reach
        # within its cap (the residual left at the cap is about 1e-10)
        monkeypatch.setattr(spectral, "RHO_TOL", 1e-14)
        g = path_graph(200)
        with pytest.raises(ConvergenceError, match="within 21000 iterations") as info:
            spectral_radius(g)
        best = info.value.best
        assert abs(best.rho - eigvalsh_rho(g)) < 1e-6
        assert best.iterations > 0
        # the inf-norm residual at the cap: the l2 norm exceeds tol, and
        # ||r||_inf >= ||r||_2 / sqrt(k) on k = 200 entries
        assert math.isfinite(best.residual)
        assert best.residual >= 1e-14 / math.sqrt(200)


class TestHongBound:
    def test_equality_cases(self):
        assert abs(hong_bound(complete(4)) - 3.0) < 1e-12
        star = from_edge_list(5, [(0, i) for i in range(1, 5)])
        assert abs(hong_bound(star) - 2.0) < 1e-12
        assert abs(spectral_radius(star).rho - 2.0) < 1e-10

    def test_cycle(self):
        assert abs(hong_bound(cycle_graph(5)) - 6 ** 0.5) < 1e-12

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            hong_bound(disjoint_union(complete(2), complete(2)))

    def test_bound_holds_on_small_catalog(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert spectral_radius(g).rho <= hong_bound(g) + 1e-9


class TestQuotient:
    def test_k4_two_parts(self):
        # K_4 over ({0}, {1, 2, 3}): quotient [[0, 3], [1, 2]], x^2 - 2x - 3
        assert counted_quotient(complete(4), (1, 3)) == [[0, 3], [1, 2]]
        assert abs(largest_root((1, -2, -3), 3) - 3.0) < 1e-12

    def test_hnb_quotient_closed_form(self):
        for n, b in [(6, 3), (10, 4), (9, 2), (7, 6)]:
            expected = [
                [0, b - 1, 0],
                [1, b - 2, n - b],
                [0, b - 1, n - b - 1],
            ]
            assert counted_quotient(build_hnb(n, b), (1, b - 1, n - b)) == expected
            assert charpoly_3x3(expected) == layout_charpoly(1, b - 1, n - b)
        # hand-checked: x^3 - 3x^2 - 6x + 4 for hnb(6, 3)
        assert layout_charpoly(1, 2, 3) == (1, -3, -6, 4)

    @pytest.mark.parametrize("kind", ["g1", "g2"])
    @pytest.mark.parametrize("a, b", G12_GRID)
    def test_g1_quotient_matches_printed_matrix(self, kind, a, b):
        # the lemma23 sweep reads only the layout polynomial, so the built
        # graphs must have exactly the quotient it is taken from
        n = g12_min_order(a, b)
        if kind == "g1":
            c, g = g1_join_size(a, b), build_g1(a, b, n)
        else:
            c, g = 4 * b, build_g2(b, n)
        expected = [
            [1, c, 0],
            [2, c - 1, n - c - 2],
            [0, c, n - c - 3],
        ]
        assert counted_quotient(g, (2, c, n - c - 2)) == expected
        assert charpoly_3x3(expected) == layout_charpoly(2, c, n - c - 2)

    @pytest.mark.parametrize("a, b", sorted(G12_GRID, key=lambda ab: g12_min_order(*ab))[:3])
    def test_g1_g2_dense_radius_matches_largest_root(self, a, b):
        n = g12_min_order(a, b)
        for c, g in [(g1_join_size(a, b), build_g1(a, b, n)), (4 * b, build_g2(b, n))]:
            lam = largest_root(layout_charpoly(2, c, n - c - 2), n - 1)
            assert abs(lam - spectral_radius(g).rho) < 1e-8
            assert lam < n - 2

    def test_non_equitable_flagged(self):
        # the reference counts every vertex, so an unequal count must fail it
        path = from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError, match="not equitable"):
            counted_quotient(path, (2, 1))

    def test_partition_validation(self):
        with pytest.raises(AssertionError):
            counted_quotient(complete(3), (1, 1))  # not covering
        with pytest.raises(AssertionError):
            counted_quotient(complete(3), (0, 3))  # empty part


class TestLeadingEigenvalue:
    def test_single_part(self):
        for n in (2, 5, 9):
            assert counted_quotient(complete(n), (n,)) == [[n - 1]]
            assert abs(largest_root((1, 1 - n), n - 1) - (n - 1)) < 1e-12

    def test_matches_dense_on_hnb_grid(self):
        for n, b in [(6, 3), (12, 4), (25, 7), (40, 39)]:
            lam = largest_root(layout_charpoly(1, b - 1, n - b), n - 1)
            assert abs(lam - spectral_radius(build_hnb(n, b)).rho) < 1e-8

    def test_four_part_quotient(self):
        # the cocktail party graph K_8 minus a perfect matching, over its
        # matching pairs: det(xI - B) = (x - 6)(x + 2)^3 = x^4 - 24x^2 - 64x - 48
        g = complete(8)
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        g = from_edge_list(8, [e for e in edges(g) if e not in pairs])
        assert counted_quotient(g, (2, 2, 2, 2)) == [[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]]
        lam = largest_root((1, 0, -24, -64, -48), 7)
        assert abs(lam - 6.0) < 1e-12
        assert abs(lam - spectral_radius(g).rho) < 1e-8

    def test_non_equitable_rejected(self):
        # hnb(9, 4) over blocks that put a join vertex with the hub
        with pytest.raises(AssertionError, match="not equitable"):
            counted_quotient(build_hnb(9, 4), (2, 2, 5))


class TestRootCount:
    def test_matches_numpy_roots_on_layout_polynomials(self):
        rng = random.Random(7)
        for sizes in [(1, 2, 3), (2, 12, 17), (5, 1, 9), (3, 3, 3), (1, 6, 40)]:
            coeffs = layout_charpoly(*sizes)
            roots = np.roots(coeffs).real
            n = sum(sizes)
            for c in [rng.randint(-n, n) for _ in range(20)] + [n - 2, n - 3, -1, 0]:
                if _poly_eval(coeffs, c) == 0:
                    continue  # the float roots cannot place a point that is a root
                assert _roots_at_least(coeffs, c) == int((roots > c).sum()), (sizes, c)

    def test_root_exactly_at_the_point_counts(self):
        # (x - 3)^2 (x + 1): a double root at 3, a simple one at -1
        coeffs = (1, -5, 3, 9)
        assert _roots_at_least(coeffs, 3) == 2
        assert _roots_at_least(coeffs, 4) == 0
        assert _roots_at_least(coeffs, -1) == 3
        assert _roots_at_least(coeffs, 2) == 2
        # K_4 over ({0}, {1, 2, 3}): x^2 - 2x - 3 has its root 3 = n - 1
        assert _roots_at_least((1, -2, -3), 3) == 1

    def test_repeated_leading_root(self):
        assert abs(largest_root((1, -5, 3, 9), 3) - 3.0) < 1e-14

    def test_violated_bracket_raises(self):
        with pytest.raises(ValueError, match="do not all lie in"):
            largest_root((1, -5, 3, 9), 2)  # the leading root 3 is above 2
        with pytest.raises(ValueError, match="do not all lie in"):
            largest_root((1, -2, -3), 0)  # the root -1 is below -0
        with pytest.raises(ValueError, match="do not all lie in"):
            largest_root((1, -6, 8), 3)  # (x - 2)(x - 4): only the leading root is out



class TestCharpoly:
    def test_root_at_leading_eigenvalue(self):
        for n, b in [(6, 3), (15, 4)]:
            coeffs = layout_charpoly(1, b - 1, n - b)
            lam = largest_root(coeffs, n - 1)
            assert abs(float(_poly_eval(coeffs, Fraction(lam).limit_denominator(10**12)))) < 1e-6

    def test_exact_values_for_g1(self):
        # the two sign checks of the lemma23 sweep, in exact arithmetic
        for a, b, n in [(1, 2, 31), (2, 3, 34), (3, 3, 28)]:
            c = g1_join_size(a, b)
            coeffs = layout_charpoly(2, c, n - c - 2)
            f_nm3 = _poly_eval(coeffs, n - 3)
            assert f_nm3 == -2 * c * c
            f_nm2 = _poly_eval(coeffs, n - 2)
            # det expansion gives (n-3)(n-1) - 2c^2 - 2c at x = n-2
            assert f_nm2 == (n - 3) * (n - 1) - 2 * c * c - 2 * c
            assert f_nm2 > 0 > f_nm3

    def test_requires_three_parts(self):
        # the reference cubic is for three-part quotients only
        with pytest.raises(AssertionError):
            charpoly_3x3(counted_quotient(complete(4), (1, 3)))

    def test_exact_rational_arithmetic(self):
        # hnb(6, 3): B = [[0,2,0],[1,1,3],[0,2,2]] has charpoly x^3 - 3x^2 - 6x + 4
        coeffs = layout_charpoly(1, 2, 3)
        value = _poly_eval(coeffs, Fraction(1, 3))
        assert isinstance(value, Fraction)
        assert value == Fraction(1, 27) - Fraction(3, 9) - 2 + 4 == Fraction(46, 27)
        assert _poly_eval(coeffs, 4) == 64 - 48 - 24 + 4
        assert isinstance(_poly_eval(coeffs, 4), int)
