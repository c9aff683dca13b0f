"""The named extremal constructions and their closed-form facts."""

import itertools

import pytest

from factorspec import (
    DegreeBounds,
    build_g1,
    build_g2,
    build_hnb,
    from_edge_list,
    g12_min_order,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    hnb_witness,
    is_connected,
    is_hnb,
    rho_hnb,
    spectral_radius,
    threshold_n,
)
from factorspec.extremal import _clique_join_layout, g1_join_size, layout_charpoly
from factorspec.graph import component_masks
from factorspec.spectral import largest_root
from bruteforce import charpoly_3x3, counted_quotient
from catalogs import complete, disjoint_union, edges, join, k1_join_cliques


class TestBuildHnb:
    def test_degree_sequence(self):
        for n, b in [(6, 3), (10, 2), (9, 8), (40, 17)]:
            g = build_hnb(n, b)
            assert g.degree(0) == b - 1
            degs = sorted(g.degree(v) for v in range(n))
            expected = sorted([b - 1] + [n - 1] * (b - 1) + [n - 2] * (n - b))
            assert degs == expected

    def test_edge_count(self):
        for n, b in [(6, 3), (12, 7)]:
            g = build_hnb(n, b)
            assert g.edge_count() == n * (n - 1) // 2 - (n - b)

    def test_b_equals_n_minus_1_is_complete_minus_edge(self):
        g = build_hnb(7, 6)
        assert g.edge_count() == 20
        assert sorted(g.degree(v) for v in range(7)) == [5, 5, 6, 6, 6, 6, 6]

    def test_matches_join_construction(self):
        direct = build_hnb(6, 3)
        via_join = join(complete(2), disjoint_union(complete(1), complete(3)))
        assert sorted(direct.degree(v) for v in range(6)) == sorted(
            via_join.degree(v) for v in range(6)
        )
        assert is_hnb(via_join, 3)

    def test_connected(self):
        assert is_connected(build_hnb(10, 3))

    def test_hub_separates_from_tail(self):
        g = build_hnb(6, 3)
        # removing the join clique {1, 2} leaves the hub {0} and the tail {3, 4, 5}
        assert component_masks(g.rows, g.n, 0b110) == [0b1, 0b111000]

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_hnb(5, 1)
        with pytest.raises(ValueError):
            build_hnb(5, 5)


class TestHnbWitness:
    def test_integer_value(self):
        for n, b in [(10, 3), (6, 5), (40, 39)]:
            assert hnb_witness(n, b, "integer") == (-2, {0})

    def test_fractional_value(self):
        for n, b in [(10, 3), (6, 4), (40, 38)]:
            assert hnb_witness(n, b, "fractional") == (-1, {0})

    def test_fractional_needs_room(self):
        with pytest.raises(ValueError):
            hnb_witness(6, 5, "fractional")  # n = b + 1

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            hnb_witness(10, 3, "both")

    def test_hnb_fails_deciders_exhaustively(self):
        for n in range(4, 11):
            for b in range(2, n):
                g = build_hnb(n, b)
                for a in range(1, b):
                    assert not has_all_ab_factors(g, DegreeBounds(a, b)).verdict
                    if b <= n - 2:
                        assert not has_all_fractional_ab_factors(g, DegreeBounds(a, b)).verdict


class TestRhoHnb:
    def test_between_n_minus_2_and_n_minus_1(self):
        for n, b in [(6, 3), (25, 2), (100, 99), (3, 2)]:
            rho = rho_hnb(n, b)
            assert n - 2 < rho < n - 1

    def test_matches_dense(self):
        for n, b in [(6, 3), (12, 5), (30, 29)]:
            assert abs(rho_hnb(n, b) - spectral_radius(build_hnb(n, b)).rho) < 1e-8

    def test_complete_minus_edge_identity(self):
        n = 9
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
        k9_minus = from_edge_list(n, edges)
        assert abs(rho_hnb(n, n - 1) - spectral_radius(k9_minus).rho) < 1e-8

    def test_monotone_in_n(self):
        prev = rho_hnb(5, 3)
        for n in range(6, 501):
            cur = rho_hnb(n, 3)
            assert cur > prev + 1e-10
            prev = cur

    def test_large_order_quotient_route(self):
        rho = rho_hnb(10**5, 7)
        assert 10**5 - 2 < rho < 10**5 - 1


class TestIsHnb:
    def test_positives(self):
        for n, b in [(6, 3), (9, 2), (9, 8)]:
            assert is_hnb(build_hnb(n, b), b)

    def test_order_below_three(self):
        # K_2 has a vertex of degree b - 1 = 1 whose removal leaves K_1
        for g in (complete(0), complete(1), complete(2)):
            for b in (1, 2, 3):
                assert not is_hnb(g, b)

    def test_negatives(self):
        assert not is_hnb(complete(6), 3)
        assert not is_hnb(build_hnb(6, 3), 4)
        g = build_hnb(7, 3)
        # removing one more edge breaks the complete remainder
        kept = [e for e in edges(g) if e != (5, 6)]
        assert not is_hnb(from_edge_list(7, kept), 3)


class TestG1G2:
    def test_g1_part_sizes(self):
        assert g1_join_size(1, 2) == 12
        g = build_g1(1, 2, 31)
        assert g.n == 31
        # [K_2 | K_12 | K_17]: degrees 1 + 12, 30 and 12 + 16
        assert [g.degree(v) for v in range(31)] == [13] * 2 + [30] * 12 + [28] * 17
        assert g1_join_size(2, 2) == 6
        g = build_g1(2, 2, 31)
        assert [g.degree(v) for v in range(31)] == [7] * 2 + [30] * 6 + [28] * 23

    def test_g1_is_equitable_join(self):
        c = g1_join_size(1, 2)
        counted_quotient(build_g1(1, 2, 31), (2, c, 31 - c - 2))

    def test_g1_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_g1(1, 2, 14)  # needs n >= 15

    def test_g2_part_sizes(self):
        g = build_g2(2, 31)
        assert counted_quotient(g, (2, 8, 21)) == [[1, 8, 0], [2, 7, 21], [0, 8, 20]]
        g = build_g2(1, 12)
        assert counted_quotient(g, (2, 4, 6)) == [[1, 4, 0], [2, 3, 6], [0, 4, 5]]

    def test_g2_boundary_tail_of_one(self):
        b = 2
        g = build_g2(b, 4 * b + 3)
        assert g.n == 11
        with pytest.raises(ValueError):
            build_g2(b, 4 * b + 2)

    def test_a_above_b_rejected(self):
        for size in (g1_join_size, g12_min_order):
            with pytest.raises(ValueError, match="^need 1 <= a <= b, got a=3, b=2$"):
                size(3, 2)
            with pytest.raises(ValueError, match="^need 1 <= a <= b, got a=0, b=2$"):
                size(0, 2)

    def test_g2_needs_positive_b(self):
        for b in (0, -1):
            with pytest.raises(ValueError, match=f"^b must be positive, got {b}$"):
                build_g2(b, 12)

    def test_min_order_values(self):
        assert g12_min_order(1, 1) == 16
        assert g12_min_order(1, 2) == 31
        assert g12_min_order(2, 2) == 22
        assert g12_min_order(1, 5) == 112


class TestLayoutCharpoly:
    def test_equals_counted_quotient_polynomial(self):
        for sizes in itertools.product(range(1, 9), repeat=3):
            quotient = counted_quotient(_clique_join_layout(*sizes), sizes)
            assert charpoly_3x3(quotient) == layout_charpoly(*sizes), sizes


class TestK1JoinCliques:
    def test_rho_matches_dense(self):
        # the layout [K_r | hub | K_s] has the hub in the join block
        for n, r in [(10, 2), (10, 5), (12, 4)]:
            dense = spectral_radius(k1_join_cliques(n, r)).rho
            assert abs(largest_root(layout_charpoly(r, 1, n - 1 - r), n - 1) - dense) < 1e-8


class TestThresholds:
    def test_integer_formula(self):
        assert threshold_n(3, 4, "integer") == 48
        assert threshold_n(4, 9, "integer") == 2 * 81 + 36

    def test_fractional_formula(self):
        assert threshold_n(1, 2, "fractional") == 31
        assert threshold_n(2, 3, "fractional") == 34

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_n(2, 4, "integer")  # integer mode needs a >= 3
        with pytest.raises(ValueError):
            threshold_n(3, 3, "integer")
        with pytest.raises(ValueError):
            threshold_n(0, 2, "fractional")
        with pytest.raises(ValueError):
            threshold_n(2, 2, "fractional")
        with pytest.raises(ValueError):
            threshold_n(1, 2, "exact")
