"""Demand enumeration, the gadget reduction, the matching engine, and the
two brute-force oracles.

The gadget route is itself cross-checked here against a direct exponential
search over spanning subgraphs (gray-code enumeration of edge subsets), and
the fractional oracle against a pure-Python max-flow on the double cover at
every integer demand of the box, which shares no formula with it, and
against its own cut inequality at every corner of the box, which pins the
worst demand it takes per cut.  Those are the places the oracles earn their
own trust.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorspec import (
    CapExceededError,
    DegreeBounds,
    DegreeFunctions,
    all_ab_factors_oracle,
    all_fractional_oracle,
    enumerate_admissible,
    from_edge_list,
    has_all_ab_factors,
    has_h_factor,
    lu_all_fractional_gf,
)
from factorspec import oracle
from factorspec.oracle import perfect_matching, tutte_gadget
from factorspec.extremal import build_hnb
from bruteforce import corner_cut_minima, has_fractional_factor, perfect_matching_bruteforce
from catalogs import all_graphs, complete, connected_graphs, disjoint_union, edges


def spanning_degree_sequences(g):
    """All realizable spanning-subgraph degree sequences, via gray-code sweep."""
    edge_list = list(edges(g))
    degs = [0] * g.n
    out = {tuple(degs)}
    prev = 0
    for i in range(1, 1 << len(edge_list)):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev).bit_length() - 1
        u, v = edge_list[bit]
        step = 1 if (gray >> bit) & 1 else -1
        degs[u] += step
        degs[v] += step
        out.add(tuple(degs))
        prev = gray
    return out


class TestEnumerateAdmissible:
    def test_parity_filter(self):
        assert list(enumerate_admissible(2, DegreeBounds(1, 2))) == [(1, 1), (2, 2)]

    def test_count_n3_interval13(self):
        # even sums in {1,2,3}^3: generating function gives 3 + 7 + 3 = 13
        demands = list(enumerate_admissible(3, DegreeBounds(1, 3)))
        assert len(demands) == 13
        assert all(sum(h) % 2 == 0 for h in demands)

    def test_lexicographic_order(self):
        for n in range(1, 7):
            for a, b in [(1, 2), (1, 3), (2, 3), (2, 5)]:
                demands = list(enumerate_admissible(n, DegreeBounds(a, b)))
                # strictly increasing: lexicographic, with no repeats
                assert all(x < y for x, y in zip(demands, demands[1:]))
                assert all(sum(h) % 2 == 0 and a <= min(h) <= max(h) <= b for h in demands)
                # and none missing: of the k^n vectors of the box, with k =
                # evens + odds values, (k^n + (evens - odds)^n) / 2 sum to even
                evens = sum(1 for x in range(a, b + 1) if x % 2 == 0)
                odds = b - a + 1 - evens
                assert len(demands) == ((evens + odds) ** n + (evens - odds) ** n) // 2

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_admissible(0, DegreeBounds(1, 2)))


class TestTutteGadget:
    def test_forced_cycle(self):
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gadget, labels = tutte_gadget(c4, (2, 2, 2, 2))
        assert gadget.n == 8
        assert sum(1 for lab in labels if lab[0] == "int") == 0
        ok, factor = has_h_factor(c4, (2, 2, 2, 2))
        assert ok and factor == frozenset(edges(c4))

    def test_node_count_formula(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(2, 7)
            graphs = all_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            degs = [g.degree(v) for v in range(n)]
            if min(degs) == 0:
                continue
            h = tuple(rng.randint(1, degs[v]) for v in range(n))
            gadget, labels = tutte_gadget(g, h)
            assert gadget.n == sum(2 * degs[v] - h[v] for v in range(n))
            assert len(labels) == gadget.n

    def test_odd_gadget_for_k3(self):
        gadget, _ = tutte_gadget(complete(3), (1, 1, 1))
        assert gadget.n == 9
        assert perfect_matching(gadget) is None

    def test_demand_over_degree_rejected(self):
        with pytest.raises(ValueError):
            tutte_gadget(complete(3), (3, 1, 1))
        with pytest.raises(ValueError):
            tutte_gadget(complete(3), (0, 1, 1))

    def test_demand_of_the_wrong_length_rejected(self):
        for h in [(1, 1), (1, 1, 1, 1)]:
            with pytest.raises(ValueError, match=f"^demand covers {len(h)} vertices, graph has 3$"):
                tutte_gadget(complete(3), h)

    def test_public_gadget_is_the_list_builder(self):
        rng = random.Random(66)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 8)
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
            )
            degs = [g.degree(v) for v in range(n)]
            if min(degs) == 0:
                continue
            h = tuple(rng.randint(1, d) for d in degs)
            gadget, _ = tutte_gadget(g, h)
            adj, _ = oracle._gadget(g, h)
            assert all(len(set(nbrs)) == len(nbrs) for nbrs in adj)
            listed = {(min(i, j), max(i, j)) for i, nbrs in enumerate(adj) for j in nbrs}
            assert set(edges(gadget)) == listed
            checked += 1


class TestPerfectMatching:
    def test_small_cases(self):
        assert perfect_matching(complete(4)) is not None
        c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert perfect_matching(c5) is None
        assert perfect_matching(complete(0)) == frozenset()

    def test_petersen(self):
        pet = from_edge_list(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
             (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        matching = perfect_matching(pet)
        assert matching is not None and len(matching) == 5

    def test_matching_is_valid(self):
        rng = random.Random(62)
        for _ in range(200):
            n = rng.randint(1, 10)
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            matching = perfect_matching(g)
            if matching is None:
                continue
            seen = set()
            for u, v in matching:
                assert (g.rows[u] >> v) & 1
                assert u not in seen and v not in seen
                seen.update((u, v))
            assert len(seen) == g.n

    def test_agrees_with_bruteforce_exhaustive(self):
        for n in range(0, 8):
            for g in all_graphs(n):
                assert (perfect_matching(g) is None) == (
                    perfect_matching_bruteforce(g) is None
                )

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            perfect_matching_bruteforce(complete(14))

    def test_gadget_scale_speed(self):
        # ~250-node gadget (K_12 with unit demands) must solve well under a second
        import time

        g = complete(12)
        gadget, _ = tutte_gadget(g, (1,) * 12)
        assert gadget.n == 12 * (2 * 11 - 1)
        t0 = time.perf_counter()
        assert perfect_matching(gadget) is not None
        assert time.perf_counter() - t0 < 1.0


class TestHasHFactor:
    def test_complete_graph_demands(self):
        assert has_h_factor(complete(4), (1, 1, 1, 1))[0]
        ok, factor = has_h_factor(complete(4), (3, 3, 3, 3))
        assert ok and factor == frozenset(edges(complete(4)))
        assert has_h_factor(complete(4), (1, 1, 2, 2))[0]

    def test_demand_above_degree(self):
        assert has_h_factor(complete(3), (3, 1, 1)) == (False, None)

    def test_demand_of_the_wrong_length_rejected(self):
        for h in [(1, 1, 1), (1, 1, 1, 1, 1)]:
            with pytest.raises(ValueError, match=f"^demand covers {len(h)} vertices, graph has 4$"):
                has_h_factor(complete(4), h)

    def test_nonpositive_demand_rejected(self):
        for h in [(1, 0, 1, 1), (2, 2, 2, -1)]:  # each at most the degree 3
            with pytest.raises(ValueError, match="^demands must be positive$"):
                has_h_factor(complete(4), h)

    def test_recovered_factor_degrees(self):
        rng = random.Random(63)
        for _ in range(80):
            n = rng.randint(2, 7)
            graphs = connected_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            h = tuple(rng.randint(1, max(1, g.degree(v))) for v in range(n))
            ok, factor = has_h_factor(g, h)
            if not ok:
                continue
            degs = [0] * n
            for u, v in factor:
                assert (g.rows[u] >> v) & 1
                degs[u] += 1
                degs[v] += 1
            assert tuple(degs) == h

    def test_gadget_agrees_with_subgraph_search_small(self):
        # every demand with 1 <= h(v) <= d(v), all graphs up to 5 vertices
        for n in range(2, 6):
            for g in all_graphs(n):
                degs = [g.degree(v) for v in range(n)]
                if min(degs) == 0:
                    continue
                realizable = spanning_degree_sequences(g)
                for h in itertools.product(*(range(1, d + 1) for d in degs)):
                    assert has_h_factor(g, h)[0] == (h in realizable)

    def test_gadget_agrees_with_subgraph_search_sampled_n6(self):
        rng = random.Random(64)
        for g in all_graphs(6):
            degs = [g.degree(v) for v in range(6)]
            if min(degs) == 0:
                continue
            realizable = spanning_degree_sequences(g)
            for _ in range(12):
                h = tuple(rng.randint(1, d) for d in degs)
                assert has_h_factor(g, h)[0] == (h in realizable)

    def test_odd_total_never_realizable(self):
        for g in all_graphs(4):
            degs = [g.degree(v) for v in range(4)]
            if min(degs) == 0:
                continue
            for h in itertools.product(*(range(1, d + 1) for d in degs)):
                if sum(h) % 2 == 1:
                    assert not has_h_factor(g, h)[0]


class TestAllAbOracle:
    def test_examples(self):
        assert all_ab_factors_oracle(complete(4), DegreeBounds(1, 2))
        assert not all_ab_factors_oracle(build_hnb(6, 3), DegreeBounds(1, 3))
        assert not all_ab_factors_oracle(
            disjoint_union(complete(2), complete(2)), DegreeBounds(1, 2)
        )

    def test_budget(self):
        with pytest.raises(CapExceededError):
            all_ab_factors_oracle(from_edge_list(30, []), DegreeBounds(1, 2))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^oracle rejects the empty graph$"):
            all_ab_factors_oracle(complete(0), DegreeBounds(1, 2))

    def test_first_must_be_admissible(self):
        # each of these would refute K_4, which has every [1, 2]- and [2, 3]-factor
        for bounds, first in [
            (DegreeBounds(1, 2), (1, 1, 1, 2)),  # odd total
            (DegreeBounds(1, 2), (1, 1, 1, 3)),  # above b, within the degrees
            (DegreeBounds(2, 3), (1, 2, 2, 3)),  # below a
            (DegreeBounds(1, 2), (2, 2)),  # too short
            (DegreeBounds(1, 2), (1, 1, 1, 1, 2)),  # too long
        ]:
            assert all_ab_factors_oracle(complete(4), bounds)
            with pytest.raises(ValueError, match="not admissible"):
                all_ab_factors_oracle(complete(4), bounds, first)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_first_changes_no_verdict(self, data):
        passing = data.draw(st.booleans())
        g, bounds = data.draw(st.sampled_from(_oracle_cases(passing)))
        a, b = bounds.a, bounds.b
        first = data.draw(st.lists(st.integers(a, b), min_size=g.n, max_size=g.n))
        if sum(first) % 2:
            first[0] += 1 if first[0] < b else -1
        assert all_ab_factors_oracle(g, bounds, first) == all_ab_factors_oracle(g, bounds)


@functools.lru_cache(maxsize=None)
def _oracle_cases(passing):
    """(graph, bounds) over the connected graphs of order <= 6 at four grids
    whose decider verdict is ``passing``."""
    return [(g, DegreeBounds(a, b)) for n in range(1, 7) for g in connected_graphs(n)
            for a, b in [(1, 2), (1, 3), (2, 3), (2, 4)]
            if has_all_ab_factors(g, DegreeBounds(a, b)).verdict == passing]


class TestAllFractionalOracle:
    def test_examples(self):
        assert all_fractional_oracle(complete(5), DegreeBounds(1, 2))
        assert not all_fractional_oracle(complete(3), DegreeBounds(1, 2))
        assert not all_fractional_oracle(build_hnb(7, 2), DegreeBounds(1, 2))

    def test_matches_literal_per_demand_loop(self):
        # Anstee's fractional p-factor condition at every demand p, which is
        # Lu's condition at g = f = p
        for n in range(1, 5):
            for g in all_graphs(n):
                for a, b in [(1, 2), (2, 3)]:
                    literal = all(
                        lu_all_fractional_gf(g, DegreeFunctions(p, p)).verdict
                        for p in itertools.product(range(a, b + 1), repeat=n)
                    )
                    assert all_fractional_oracle(g, DegreeBounds(a, b)) == literal

    def test_cross_theorem_agreement(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                for a, b in [(1, 2), (2, 3)]:
                    lhs = all_fractional_oracle(g, DegreeBounds(a, b))
                    rhs = lu_all_fractional_gf(g, DegreeFunctions.constant(n, a, b)).verdict
                    assert lhs == rhs

    def test_budget(self):
        with pytest.raises(CapExceededError):
            all_fractional_oracle(from_edge_list(30, []), DegreeBounds(1, 2))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^oracle rejects the empty graph$"):
            all_fractional_oracle(complete(0), DegreeBounds(1, 2))

    def test_worst_demand_per_cut_matches_every_corner(self):
        # the oracle checks each cut only at b on X and a off it; the reference
        # takes the least slack over all 2^n corners, cut by cut
        verdicts = set()
        for n in range(1, 8):
            for g in all_graphs(n):
                for a, b in [(1, 2), (1, 3), (2, 3), (2, 4)]:
                    truth = bool((corner_cut_minima(g, a, b) >= 0).all())
                    assert all_fractional_oracle(g, DegreeBounds(a, b)) == truth, (g, a, b)
                    verdicts.add(truth)
        assert verdicts == {True, False}

    def test_budget_counts_subset_corner_pairs(self):
        # 4^n (subset, corner) values: 4^9 fits the default budget, 4^10 does not
        assert all_fractional_oracle(complete(9), DegreeBounds(1, 2))
        with pytest.raises(CapExceededError):
            all_fractional_oracle(complete(10), DegreeBounds(1, 2))
        with pytest.raises(CapExceededError):
            all_fractional_oracle(from_edge_list(19, []), DegreeBounds(1, 2))

    def test_matches_double_cover_flow_over_full_box(self):
        # every integer demand of the box, not only the corners, and every
        # graph of order <= 5, disconnected ones too
        verdicts = set()
        for n in range(1, 6):
            for g in all_graphs(n):
                for a, b in [(1, 2), (1, 3), (2, 3)]:
                    truth = all(
                        has_fractional_factor(g, p)
                        for p in itertools.product(range(a, b + 1), repeat=n)
                    )
                    assert all_fractional_oracle(g, DegreeBounds(a, b)) == truth, (g, a, b)
                    verdicts.add(truth)
        assert verdicts == {True, False}
