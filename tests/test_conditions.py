"""The deficiency functionals and the four exhaustive deciders.

Witness soundness is the load-bearing property: every failing report must
reproduce its minimum when the functional is re-evaluated at the witness
through the public primitives.
"""

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from factorspec import (
    CapExceededError,
    DegreeBounds,
    DegreeFunctions,
    all_fractional_oracle,
    delta,
    from_edge_list,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    has_all_gf_factors,
    has_h_factor,
    lu_all_fractional_gf,
    parse_graph6,
    theta,
    to_graph6,
)
from factorspec import conditions
from factorspec.conditions import refuting_demand
from factorspec.extremal import build_hnb
from bruteforce import (degrees_excluding, has_fractional_factor, pair_loop_reference,
                        pair_walk_count, q_count, subset_loop_reference)
from catalogs import (all_graphs, complete, connected_graphs, connected_up_to, disjoint_union,
                      edges)


def k(n):
    return complete(n)


def random_graph(rng, n, p=0.5):
    """G(n, p) drawn from ``rng``, one coin per vertex pair in lexicographic order."""
    return from_edge_list(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                              if rng.random() < p])


def gnp_14_case():
    """A seeded G(14, 1/2) under a seeded mixed (g, f)."""
    rng = random.Random(38)
    g = random_graph(rng, 14)
    gfun = tuple(rng.randint(2, 5) for _ in range(14))
    return g, DegreeFunctions(gfun, tuple(gv + rng.choice((0, 1, 2)) for gv in gfun))


def report_tuple(report):
    return (report.verdict, report.min_value, tuple(sorted(report.witness_s)),
            tuple(sorted(report.witness_t)), report.pairs_examined)


class TestTypes:
    def test_degree_bounds_validation(self):
        DegreeBounds(1, 1)
        DegreeBounds(2, 5)
        with pytest.raises(ValueError):
            DegreeBounds(0, 2)
        with pytest.raises(ValueError):
            DegreeBounds(3, 2)

    def test_degree_functions_validation(self):
        DegreeFunctions((1, 2), (1, 3))
        with pytest.raises(ValueError):
            DegreeFunctions((1,), (1, 2))
        with pytest.raises(ValueError):
            DegreeFunctions((0, 1), (1, 1))
        with pytest.raises(ValueError):
            DegreeFunctions((2, 1), (1, 1))
        assert DegreeFunctions.constant(3, 1, 2).pointwise_equal is False
        assert DegreeFunctions.constant(3, 2, 2).pointwise_equal is True


class TestDelta:
    def test_single_component(self):
        assert delta(k(4), DegreeBounds(1, 2), (), ()) == -1

    def test_two_components(self):
        assert delta(disjoint_union(k(2), k(2)), DegreeBounds(1, 2), (), ()) == -2

    def test_hnb_hub_witness(self):
        for n, b in [(6, 3), (10, 2), (12, 11)]:
            assert delta(build_hnb(n, b), DegreeBounds(1, b), (), (0,)) == -2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            delta(k(3), DegreeBounds(1, 2), (0,), (0, 1))

    def test_vertex_out_of_range_rejected(self):
        for s, t, v in [((3,), (), 3), ((), (0, 5), 5), ((-1,), (), -1)]:
            with pytest.raises(ValueError, match=f"^vertex {v} out of range for graph on 3 "):
                delta(k(3), DegreeBounds(1, 2), s, t)

    def test_hand_value(self):
        # P_4, a=1, b=2, S={1}, T={3}: 1 - 2 + d_{G-S}(3) - q({0},{2}) = 1 - 2 + 1 - 2
        p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert delta(p4, DegreeBounds(1, 2), (1,), (3,)) == -2


class TestTheta:
    def test_hnb_hub(self):
        value, tset = theta(build_hnb(8, 3), DegreeBounds(1, 3), ())
        assert value == -1 and tset == frozenset({0})

    def test_k3_with_s(self):
        value, tset = theta(k(3), DegreeBounds(1, 2), (0,))
        assert value == -1 and tset == frozenset({1, 2})

    def test_all_degrees_large(self):
        value, tset = theta(k(5), DegreeBounds(1, 2), ())
        assert value == 0 and tset == frozenset()

    def test_vertex_out_of_range_rejected(self):
        for s, v in [((0, 3), 3), ((-2,), -2)]:
            with pytest.raises(ValueError, match=f"^vertex {v} out of range for graph on 3 "):
                theta(k(3), DegreeBounds(1, 2), s)

    def test_empty_t_means_nonnegative(self):
        # T empty forces theta = a|S| >= 0
        for s in [(), (0,), (0, 1)]:
            value, tset = theta(k(6), DegreeBounds(2, 3), s)
            if not tset:
                assert value >= 0


class TestGfFactor:
    """At g = f the all-factors decider decides f-factor existence: there the
    all-(g, f)-factors condition is Lovasz's (g, f)-factor condition."""

    def test_perfect_matching_cases(self):
        assert has_all_gf_factors(k(2), DegreeFunctions.constant(2, 1, 1)).verdict
        report = has_all_gf_factors(k(3), DegreeFunctions.constant(3, 1, 1))
        assert not report.verdict
        assert report.min_value == -1
        assert report.witness_s == frozenset() and report.witness_t == frozenset()

    def test_agrees_with_gadget_oracle(self):
        # with g = f = h the decider matches h-factor existence
        rng = random.Random(21)
        for n in range(2, 6):
            for g in all_graphs(n):
                for _ in range(3):
                    h = tuple(rng.randint(1, 3) for _ in range(n))
                    if any(h[v] > g.degree(v) for v in range(n)):
                        continue
                    funcs = DegreeFunctions(h, h)
                    assert has_all_gf_factors(g, funcs).verdict == has_h_factor(g, h)[0]


class TestAllGfFactors:
    def test_examples(self):
        assert has_all_gf_factors(k(4), DegreeFunctions.constant(4, 1, 2)).verdict
        assert not has_all_gf_factors(build_hnb(6, 3), DegreeFunctions.constant(6, 1, 3)).verdict
        assert not has_all_gf_factors(k(3), DegreeFunctions.constant(3, 1, 1)).verdict

    def test_threshold_differs_when_g_equals_f(self):
        # K_4 has a 1-factor, so all-(1,1)-factors holds with threshold 0
        assert has_all_gf_factors(k(4), DegreeFunctions.constant(4, 1, 1)).verdict

    def test_specialization_to_ab(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                for a, b in [(1, 2), (1, 3), (2, 3)]:
                    lhs = has_all_gf_factors(g, DegreeFunctions.constant(n, a, b)).verdict
                    rhs = has_all_ab_factors(g, DegreeBounds(a, b)).verdict
                    assert lhs == rhs

    def test_agrees_with_subgraph_search_when_box_feasible(self):
        # brute-force side: a demand box holds iff every even-total demand in
        # it is a spanning-subgraph degree sequence
        from test_oracle import spanning_degree_sequences

        rng = random.Random(99)
        for n in range(2, 6):
            for g in all_graphs(n):
                realizable = spanning_degree_sequences(g)
                for _ in range(4):
                    gfun = tuple(rng.randint(1, 3) for _ in range(n))
                    ffun = tuple(x + rng.randint(0, 2) for x in gfun)
                    demands = [
                        h
                        for h in itertools.product(
                            *(range(gfun[v], ffun[v] + 1) for v in range(n))
                        )
                        if sum(h) % 2 == 0
                    ]
                    if not demands:
                        continue  # parity-infeasible box, see test below
                    funcs = DegreeFunctions(gfun, ffun)
                    expected = all(h in realizable for h in demands)
                    assert has_all_gf_factors(g, funcs).verdict == expected

    def test_parity_infeasible_box_convention(self):
        # g = f with odd total admits no demand at all; the characterization
        # reports false there, not the vacuous truth of the empty quantifier
        g = from_edge_list(3, [(0, 2)])
        report = has_all_gf_factors(g, DegreeFunctions((3, 1, 1), (3, 1, 1)))
        assert not report.verdict


class TestAllAbFactors:
    def test_hnb_fails(self):
        report = has_all_ab_factors(build_hnb(7, 3), DegreeBounds(1, 3))
        assert not report.verdict
        assert report.min_value <= -2

    def test_k4(self):
        assert has_all_ab_factors(k(4), DegreeBounds(1, 2)).verdict

    def test_disconnected_fails(self):
        report = has_all_ab_factors(disjoint_union(k(2), k(2)), DegreeBounds(1, 2))
        assert not report.verdict

    def test_a_must_be_less_than_b(self):
        with pytest.raises(ValueError):
            has_all_ab_factors(k(4), DegreeBounds(2, 2))

    def test_cap(self):
        with pytest.raises(CapExceededError, match=r"n=17 exceeds the 3\^n enumeration cap 16"):
            has_all_ab_factors(from_edge_list(17, []), DegreeBounds(1, 2))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            has_all_ab_factors(complete(0), DegreeBounds(1, 2))

    def test_function_length_must_match_graph(self):
        funcs = DegreeFunctions.constant(3, 1, 2)
        with pytest.raises(ValueError):
            has_all_gf_factors(k(4), funcs)
        with pytest.raises(ValueError):
            lu_all_fractional_gf(k(4), funcs)


class TestEnumerationCaps:
    """The caps are read at call time, so lowering them keeps these tests small:
    at 5, every decider runs at n = 5 and refuses n = 6, naming its loop."""

    DECIDERS = (
        (has_all_gf_factors, "funcs", "3^n"),
        (has_all_ab_factors, "bounds", "3^n"),
        (lu_all_fractional_gf, "funcs", "2^n"),
        (has_all_fractional_ab_factors, "bounds", "2^n"),
    )

    @pytest.fixture(autouse=True)
    def caps_at_five(self, monkeypatch):
        monkeypatch.setattr(conditions, "PAIR_ENUM_CAP", 5)
        monkeypatch.setattr(conditions, "SUBSET_ENUM_CAP", 5)

    @pytest.mark.parametrize("decide, arg, loop", DECIDERS,
                             ids=[d.__name__ for d, _, _ in DECIDERS])
    def test_boundary(self, decide, arg, loop):
        for n in (5, 6):
            bound = DegreeBounds(1, 2) if arg == "bounds" else DegreeFunctions.constant(n, 1, 2)
            if n == 5:
                assert decide(k(n), bound).verdict
            else:
                with pytest.raises(CapExceededError) as info:
                    decide(k(n), bound)
                assert str(info.value) == f"n=6 exceeds the {loop} enumeration cap 5"


class TestFractionalDeciders:
    def test_anstee_examples(self):
        # at g = f Lu's condition is Anstee's fractional f-factor condition
        assert lu_all_fractional_gf(k(3), DegreeFunctions.constant(3, 2, 2)).verdict
        report = lu_all_fractional_gf(k(3), DegreeFunctions((2, 2, 1), (2, 2, 1)))
        assert not report.verdict and report.min_value == -1
        assert report.witness_s == frozenset({2})
        report = lu_all_fractional_gf(k(1), DegreeFunctions.constant(1, 1, 1))
        assert not report.verdict and report.min_value == -1

    def test_lu_examples(self):
        assert lu_all_fractional_gf(k(5), DegreeFunctions.constant(5, 1, 2)).verdict
        report = lu_all_fractional_gf(k(3), DegreeFunctions.constant(3, 1, 2))
        assert not report.verdict and len(report.witness_s) == 1

    def test_lu_reduces_to_anstee_when_equal(self):
        # at g = f = p it is Anstee's condition for a fractional p-factor,
        # decided here by max flow on the double cover
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 6)
            graphs = all_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            p = tuple(rng.randint(1, max(1, n - 1)) for _ in range(n))
            funcs = DegreeFunctions(p, p)
            assert lu_all_fractional_gf(g, funcs).verdict == has_fractional_factor(g, p)

    def test_theta_decider(self):
        assert has_all_fractional_ab_factors(k(5), DegreeBounds(1, 2)).verdict
        assert not has_all_fractional_ab_factors(k(3), DegreeBounds(1, 2)).verdict
        report = has_all_fractional_ab_factors(build_hnb(9, 3), DegreeBounds(1, 3))
        assert not report.verdict

    def test_cap(self):
        with pytest.raises(CapExceededError, match=r"n=23 exceeds the 2\^n enumeration cap 22"):
            has_all_fractional_ab_factors(from_edge_list(23, []), DegreeBounds(1, 2))

    def test_theta_decider_validation(self):
        with pytest.raises(ValueError):
            has_all_fractional_ab_factors(k(3), DegreeBounds(2, 2))
        with pytest.raises(CapExceededError):
            has_all_fractional_ab_factors(from_edge_list(23, []), DegreeBounds(1, 2))

    def test_lu_specializes_to_theta_decider(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                for a, b in [(1, 2), (1, 3), (2, 3)]:
                    lhs = lu_all_fractional_gf(g, DegreeFunctions.constant(n, a, b)).verdict
                    rhs = has_all_fractional_ab_factors(g, DegreeBounds(a, b)).verdict
                    assert lhs == rhs


def reeval_delta(g, bounds, report):
    return delta(g, bounds, report.witness_s, report.witness_t)


def reeval_subset(g, gfun, ffun, s):
    """(value, S-tuple, T-tuple) of the subset functional at S, from the
    test-side degrees rather than ``theta``, which shares its evaluator with
    the decider."""
    s = tuple(sorted(s))
    degrees = degrees_excluding(g, s)
    t = tuple(v for v in sorted(degrees) if degrees[v] < ffun[v])
    return sum(gfun[v] for v in s) - sum(ffun[v] - degrees[v] for v in t), s, t


def reeval_gf(g, funcs, d, s):
    dsum = sum(degrees_excluding(g, d)[x] for x in s)
    return sum(funcs.g[v] for v in d) - sum(funcs.f[v] for v in s) + dsum - q_count(g, d, s, funcs)


class TestWitnessSoundness:
    def test_ab_decider_witnesses(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                bounds = DegreeBounds(1, 2)
                report = has_all_ab_factors(g, bounds)
                assert reeval_delta(g, bounds, report) == report.min_value
                if not report.verdict:
                    assert report.min_value < -1

    def test_gf_decider_witnesses(self):
        rng = random.Random(41)
        for n in range(1, 6):
            for g in all_graphs(n):
                gfun = tuple(rng.randint(1, 2) for _ in range(n))
                ffun = tuple(x + rng.randint(0, 1) for x in gfun)
                funcs = DegreeFunctions(gfun, ffun)
                rep = has_all_gf_factors(g, funcs)
                assert reeval_gf(g, funcs, rep.witness_s, rep.witness_t) == rep.min_value

    def test_theta_witnesses(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                bounds = DegreeBounds(1, 3)
                report = has_all_fractional_ab_factors(g, bounds)
                value, _, t = reeval_subset(g, (1,) * n, (3,) * n, report.witness_s)
                assert value == report.min_value
                assert frozenset(t) == report.witness_t

    def test_witness_is_lexicographically_least(self):
        # every graph of order <= 5 on the grid, then seeded graphs and (g, f) to n = 8
        cases = [
            (g, DegreeBounds(a, b), DegreeFunctions.constant(g.n, a, b))
            for n in range(1, 6)
            for g in all_graphs(n)
            for a, b in [(1, 2), (2, 3)]
        ]
        rng = random.Random(73)
        for n in range(1, 9):
            for _ in range(3 if n < 7 else 1):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
                gfun = tuple(rng.randint(1, 3) for _ in range(n))
                ffun = tuple(x + rng.randint(0, 1) for x in gfun)
                a = rng.randint(1, 2)
                cases.append((from_edge_list(n, edges), DegreeBounds(a, a + rng.randint(1, 2)),
                              DegreeFunctions(gfun, ffun)))
        for g, bounds, funcs in cases:
            for report, (threshold, best) in zip(
                (
                    has_all_ab_factors(g, bounds),
                    has_all_gf_factors(g, funcs),
                    has_all_fractional_ab_factors(g, bounds),
                    lu_all_fractional_gf(g, funcs),
                ),
                brute_force_minima(g, bounds, funcs),
            ):
                got = (report.min_value, tuple(sorted(report.witness_s)),
                       tuple(sorted(report.witness_t)))
                assert got == best
                assert report.verdict == (best[0] >= threshold)


def brute_force_minima(g, bounds, funcs):
    """(threshold, least (value, S-tuple, T-tuple)) of the four functionals, in
    the order ab, all-gf, fractional ab, Lu, from ``delta`` and the test's own
    component count and degrees."""
    n = g.n
    vertices = range(n)
    gf, af = funcs.g, funcs.f
    pairs = [
        (s, t)
        for labels in itertools.product((0, 1, 2), repeat=n)
        for s, t in [(tuple(v for v in vertices if labels[v] == 1),
                      tuple(v for v in vertices if labels[v] == 2))]
    ]
    subsets = [tuple(v for v in vertices if (mask >> v) & 1) for mask in range(1 << n)]
    ab = [(delta(g, bounds, d, s), d, s) for d, s in pairs]
    every = [(reeval_gf(g, funcs, d, s), d, s) for d, s in pairs]
    fractional = [reeval_subset(g, (bounds.a,) * n, (bounds.b,) * n, s) for s in subsets]
    lu = [reeval_subset(g, gf, af, s) for s in subsets]
    return [
        (-1, min(ab)),
        (0 if funcs.pointwise_equal else -1, min(every)),
        (0, min(fractional)),
        (0, min(lu)),
    ]


class TestRefutingDemand:
    """The demand a FAIL witness (D, S) gives, checked by Tutte's f-factor
    theorem at (D, S) with the test's own degrees and component parities,
    and by the oracle's matching."""

    def test_every_catalog_fail_is_refuted(self):
        fails = 0
        for g in connected_up_to(7):
            for a, b in [(1, 2), (1, 3), (2, 3), (2, 4)]:
                bounds = DegreeBounds(a, b)
                report = has_all_ab_factors(g, bounds)
                if report.verdict:
                    continue
                fails += 1
                h = refuting_demand(g, bounds, report)
                case = (to_graph6(g), a, b, h)
                assert len(h) == g.n and sum(h) % 2 == 0, case
                assert all(a <= x <= b for x in h), case
                d, s = sorted(report.witness_s), sorted(report.witness_t)
                assert reeval_gf(g, DegreeFunctions(h, h), d, s) <= -1, case
                assert not has_h_factor(g, h)[0], case
        assert fails == 3800  # of 3984 cases: 184 pass

    def test_rejects_a_pass_and_a_point_box(self):
        report = has_all_ab_factors(k(4), DegreeBounds(1, 2))
        assert report.verdict
        with pytest.raises(ValueError, match="failing report"):
            refuting_demand(k(4), DegreeBounds(1, 2), report)
        with pytest.raises(ValueError, match="a < b"):
            refuting_demand(k(4), DegreeBounds(2, 2), report)


class TestVerdictFirst:
    """``verdict_first`` stops the walk at its first pair below the
    threshold.  Its verdict is the full walk's, and a FAIL's witness, not
    always the least, is still a pair at its value, so an [a, b] one has
    delta <= -2 and yields a refuting demand."""

    def test_catalog_verdicts_and_refuted_witnesses(self):
        fails = 0
        for g in connected_up_to(7):
            for a, b in [(1, 2), (1, 3), (2, 3), (2, 4)]:
                bounds = DegreeBounds(a, b)
                report = has_all_ab_factors(g, bounds, verdict_first=True)
                case = (to_graph6(g), a, b)
                assert report.verdict == has_all_ab_factors(g, bounds).verdict, case
                if report.verdict:
                    assert report.min_value >= -1, case
                    continue
                fails += 1
                value = delta(g, bounds, report.witness_s, report.witness_t)
                assert value == report.min_value <= -2, case
                assert not has_h_factor(g, refuting_demand(g, bounds, report))[0], case
        assert fails == 3800

    def test_mixed_functions(self):
        # g = f takes the threshold-0 stop and q's parity path
        rng = random.Random(23)
        for n in range(2, 11):
            for _ in range(4):
                g = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
                gfun = tuple(rng.randint(1, 3) for _ in range(n))
                for ffun in (tuple(gv + rng.choice((0, 0, 1, 2)) for gv in gfun), gfun):
                    funcs = DegreeFunctions(gfun, ffun)
                    threshold = 0 if funcs.pointwise_equal else -1
                    report = has_all_gf_factors(g, funcs, verdict_first=True)
                    full = has_all_gf_factors(g, funcs)
                    d, s = sorted(report.witness_s), sorted(report.witness_t)
                    assert report.verdict == full.verdict == (report.min_value >= threshold)
                    assert reeval_gf(g, funcs, d, s) == report.min_value >= full.min_value
                    assert report.pairs_examined <= full.pairs_examined


class TestGoldenReports:
    """Full reports, pairs_examined included, pinned for fixed inputs; the
    count depends on the pair walk's order, its seed and its two bounds."""

    PETERSEN = from_edge_list(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    PETERSEN_FUNCS = DegreeFunctions((1, 1, 2, 2, 3, 3, 1, 2, 3, 1), (1, 2, 2, 3, 3, 3, 2, 2, 3, 2))
    EQYW = parse_graph6("EQyw")
    EQYW_FUNCS = DegreeFunctions((3, 3, 3, 3, 1, 2), (5, 5, 5, 5, 2, 2))
    CIRCULANT_12 = from_edge_list(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 3)])
    STAR_12 = from_edge_list(13, [(0, i) for i in range(1, 13)])
    STAR_13 = from_edge_list(14, [(0, i) for i in range(1, 14)])
    EDGELESS_16 = from_edge_list(16, [])  # at PAIR_ENUM_CAP; the seed, then one pair of D = {}
    GNP_14, GNP_14_FUNCS = gnp_14_case()  # its witness S holds 0: not in the first block

    @pytest.mark.parametrize(
        "decide, graph, arg, expected",
        [
            (has_all_ab_factors, build_hnb(10, 3), DegreeBounds(2, 3),
             (False, -2, [], [0], 85)),
            (has_all_ab_factors, disjoint_union(complete(2), complete(2)), DegreeBounds(1, 2),
             (False, -4, [], [0, 1, 2], 12)),
            (has_all_gf_factors, EQYW, EQYW_FUNCS, (False, -13, [4], [0, 1, 2, 3], 3)),
            (has_all_gf_factors, PETERSEN, DegreeFunctions.constant(10, 1, 1),
             (True, 0, [], [], 1277)),  # g = f: threshold 0 and q by parity alone
            (has_all_gf_factors, PETERSEN, PETERSEN_FUNCS,
             (False, -3, [0, 2, 6], [1, 3, 4, 5], 2825)),
            (lu_all_fractional_gf, EQYW, EQYW_FUNCS, (False, -13, [4, 5], [0, 1, 2, 3], 64)),
            (lu_all_fractional_gf, PETERSEN, PETERSEN_FUNCS,
             (False, -3, [0, 2, 6, 9], [1, 3, 4, 5, 7, 8], 1024)),
            (has_all_fractional_ab_factors, CIRCULANT_12, DegreeBounds(2, 3),
             (False, -6, [0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11], 4096)),
            (has_all_ab_factors, STAR_12, DegreeBounds(1, 2),
             (False, -23, [0], list(range(1, 13)), 2)),
            (has_all_ab_factors, STAR_13, DegreeBounds(1, 2),
             (False, -25, [0], list(range(1, 14)), 2)),
            (has_all_ab_factors, EDGELESS_16, DegreeBounds(1, 2),
             (False, -32, [], list(range(16)), 2)),
            (has_all_fractional_ab_factors, build_hnb(16, 4), DegreeBounds(1, 4),
             (False, -1, [], [0], 65536)),
            (lu_all_fractional_gf, GNP_14, GNP_14_FUNCS,
             (False, -9, [0, 3, 4, 9, 12, 13], [1, 2, 5, 6, 7, 8, 10, 11], 16384)),
        ],
    )
    def test_report(self, decide, graph, arg, expected):
        report = decide(graph, arg)
        assert (report.verdict, report.min_value, sorted(report.witness_s),
                sorted(report.witness_t), report.pairs_examined) == expected


class TestPairLoopOrder:
    """Full reports of the integer deciders against the loop over every pair
    in ``bruteforce.pair_loop_reference`` (verdict, minimum and witness) and
    the walk's order and bounds, one pair at a time, in
    ``bruteforce.pair_walk_count`` (pairs_examined)."""

    def test_reports_match_reference(self):
        # g = f takes the threshold-0 path and q's parity path; the per-D
        # skip fires on almost every D of an edgeless graph and on few of a
        # complete graph's
        rng = random.Random(97)
        cases = []
        for n in (5, 6, 7, 8, 9, 10):
            for _ in range(2 if n <= 8 else 1):
                g = from_edge_list(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                       if rng.random() < 0.5])
                a = rng.randint(1, 2)
                gfun = tuple(rng.randint(1, 3) for _ in range(n))
                ffun = tuple(gv + rng.choice((0, 0, 1, 2)) for gv in gfun)
                cases += [(g, funcs) for funcs in (
                    DegreeFunctions.constant(n, a, a + rng.randint(1, 2)),
                    DegreeFunctions(gfun, ffun), DegreeFunctions(gfun, gfun))]
        for n in (6, 9):
            for g in (from_edge_list(n, []), complete(n)):
                cases += [(g, DegreeFunctions.constant(n, a, b))
                          for a, b in ((1, 1), (1, 2), (2, 3))]
        for g, funcs in cases:
            expected = pair_loop_reference(g, funcs) + (pair_walk_count(g, funcs),)
            assert report_tuple(has_all_gf_factors(g, funcs)) == expected

    def test_huge_mixed_functions_match_reference(self):
        # g and f up to 10^19, beyond int64: the subset blocks of the seed
        # and of the sieve see them only capped at d(v) + 1
        rng = random.Random(61)
        for n in (5, 7, 9, 11):
            g = random_graph(rng, n)
            gfun = tuple(rng.choice((1, 2, 3, 10**19)) for _ in range(n))
            funcs = DegreeFunctions(gfun, tuple(gv + rng.choice((0, 1, 2, 10**19)) for gv in gfun))
            expected = pair_loop_reference(g, funcs) + (pair_walk_count(g, funcs),)
            assert report_tuple(has_all_gf_factors(g, funcs)) == expected


class TestAdditivity:
    """Every term of the pair functional is a sum over components, so on a
    disjoint union G u H the minimum is min(G) + min(H), and the witness
    restricted to each part minimizes that part.  The union's least witness
    need not be the union of the parts' (sorted tuples compare lengths
    first), so each restriction is only re-evaluated, by the test's own
    degrees and component count.  This ties the seeded walk on the union to
    the walks on its parts without any copy of its bounds."""

    def test_union_minimum_is_the_sum_of_the_parts(self):
        rng = random.Random(12)
        for kind in ("[1,2]", "[2,3]", "mixed"):
            for _ in range(6):
                n1 = rng.randint(4, 8)
                n2 = rng.randint(max(3, 7 - n1), 12 - n1)  # 7 <= n <= 12
                parts = [rng.choice(all_graphs(n1)), rng.choice(all_graphs(n2))]
                n = n1 + n2
                if kind == "mixed":
                    gfun = tuple(rng.randint(1, 3) for _ in range(n))
                    funcs = DegreeFunctions(gfun, tuple(gv + rng.choice((0, 0, 1, 2))
                                                        for gv in gfun))
                else:
                    funcs = DegreeFunctions.constant(n, int(kind[1]), int(kind[3]))
                whole = has_all_gf_factors(disjoint_union(*parts), funcs)
                total = 0
                for part, span in zip(parts, (range(n1), range(n1, n))):
                    part_funcs = DegreeFunctions(funcs.g[span.start:span.stop],
                                                 funcs.f[span.start:span.stop])
                    least = has_all_gf_factors(part, part_funcs).min_value
                    d, s = ([v - span.start for v in witness if v in span]
                            for witness in (whole.witness_s, whole.witness_t))
                    assert reeval_gf(part, part_funcs, d, s) == least, (kind, to_graph6(part))
                    total += least
                assert whole.min_value == total, kind

    def test_fractional_union_minimum_is_the_sum_of_the_parts(self):
        # the subset functional's terms are sums over vertices whose degrees
        # in G - S stay inside their part; unions of two or three catalog
        # graphs, 12 to 18 vertices, at mixed (g, f)
        rng = random.Random(27)
        for i in range(16):
            orders = [rng.randint(6, 8) for _ in range(2)] if i % 2 else [
                rng.randint(4, 6) for _ in range(3)]
            parts = [rng.choice(all_graphs(k)) for k in orders]
            n = sum(orders)
            gfun = tuple(rng.randint(1, 3) for _ in range(n))
            ffun = tuple(gv + rng.choice((0, 0, 1, 2)) for gv in gfun)
            whole = lu_all_fractional_gf(functools.reduce(disjoint_union, parts),
                                         DegreeFunctions(gfun, ffun))
            total, start = 0, 0
            for part in parts:
                span = range(start, start + part.n)
                start = span.stop
                part_g, part_f = gfun[span.start:span.stop], ffun[span.start:span.stop]
                least = lu_all_fractional_gf(part, DegreeFunctions(part_g, part_f)).min_value
                s = [v - span.start for v in whole.witness_s if v in span]
                assert reeval_subset(part, part_g, part_f, s)[0] == least, to_graph6(part)
                total += least
            assert whole.min_value == total, orders

    def test_fractional_oracle_union_passes_iff_both_parts_do(self):
        # a cut's worst slack is the sum of its parts', and the empty cut
        # reads 0, so a union fails iff one of its parts does; half the
        # parts have minimum degree >= b, so both verdicts occur
        rng = random.Random(28)
        verdicts = set()
        for i in range(40):
            a = rng.randint(1, 2)
            bounds = DegreeBounds(a, a + rng.randint(0, 1))
            n1 = rng.randint(1, 8)
            parts = []
            for k in (n1, rng.randint(1, 9 - n1)):
                pool = all_graphs(k)
                if i % 2:
                    pool = [g for g in pool
                            if min(g.degree(v) for v in range(k)) >= bounds.b] or pool
                parts.append(rng.choice(pool))
            whole = all_fractional_oracle(disjoint_union(*parts), bounds)
            assert whole == all(all_fractional_oracle(part, bounds) for part in parts)
            verdicts.add(whole)
        assert verdicts == {True, False}


class TestSubsetLoopOrder:
    """Full reports of the fractional deciders, pairs_examined included,
    against one subset at a time in ``bruteforce.subset_loop_reference``."""

    def test_reports_match_reference(self):
        # every n > 12 spans several blocks; g = f, huge prescriptions (capped
        # at d(v) + 1 inside the decider) and the many ties of the edgeless,
        # complete, star and cocktail-party graphs test the least-witness rule
        # (K_13 at [1, 12] is least at every S of 6 vertices, in both blocks)
        rng = random.Random(29)
        cases = []
        for n in range(1, 15):
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            gfun = tuple(rng.randint(1, 4) for _ in range(n))
            ffun = tuple(gv + rng.choice((0, 0, 1, 2)) for gv in gfun)
            cases += [(g, DegreeFunctions(gfun, ffun)), (g, DegreeFunctions(gfun, gfun))]
        for n in (5, 13):
            g = random_graph(rng, n)
            gfun = tuple(rng.choice((1, 2, 10**19)) for _ in range(n))
            ffun = tuple(gv + rng.choice((0, 1, 10**20)) for gv in gfun)
            cases.append((g, DegreeFunctions(gfun, ffun)))
        star = from_edge_list(13, [(0, i) for i in range(1, 13)])
        for g in (from_edge_list(13, []), complete(13), star):
            cases += [(g, DegreeFunctions.constant(13, a, b))
                      for a, b in ((1, 2), (2, 3), (3, 3), (1, 12))]
        # its least witness lies in the second block, which ties the first
        cases.append((random_graph(random.Random(9), 13, 0.2), DegreeFunctions.constant(13, 1, 2)))
        # seeded G(14, p) draws at [1, 3] whose least witness holds vertex 0
        # while a minimizer of lower mask, without it, lies in another block:
        # the blocks compare by rank, not by mask
        cases += [(parse_graph6(g6), DegreeFunctions.constant(14, 1, 3))
                  for g6 in ("MO`_BIiCaOA?__?A_", "MC_A_@I?AD?O?G?G?", r"MzS_aGv}\O|_cBEM_",
                             "MCAB?Bc}_cXQCD___")]
        for m in (2, 3, 5, 7):
            pairs = itertools.combinations(range(2 * m), 2)
            cocktail = from_edge_list(2 * m, [(u, v) for u, v in pairs if v != u + m])
            cases += [(cocktail, DegreeFunctions.constant(2 * m, a, b))
                      for a, b in ((1, 2), (m, m + 1), (2 * m - 2, 2 * m - 2))]
        for g, funcs in cases:
            assert report_tuple(lu_all_fractional_gf(g, funcs)) == subset_loop_reference(g, funcs)


class TestRank:
    def test_order_of_sorted_tuples(self):
        # the masks in sorted-tuple order rank 0, 1, ..., 2^n - 1: the order
        # is kept and every rank in range is taken once
        for n in range(1, 13):
            order = sorted(range(1 << n), key=lambda m: tuple(v for v in range(n) if m >> v & 1))
            assert [conditions._rank(m, n) for m in order] == list(range(1 << n)), n


class TestSubsetBlocks:
    def test_preorder_of_the_vertex_bit_row(self):
        # summed over the vertex-bit row, column i is the mask of the i-th
        # subset in sorted-tuple order: ranks 0, 1, ..., 2^k - 1 in turn
        for k in range(1, conditions._BLOCK_BITS + 1):
            bits = np.array([[1 << u for u in range(k)]], dtype=np.int64)
            masks = conditions._preorder_sums(bits)[0].tolist()
            assert [conditions._rank(m, k) for m in masks] == list(range(1 << k)), k

    def test_values_are_the_capped_functional(self):
        # n = 13 and 14 span 2 and 4 blocks; the capped functional, with the
        # decider's caps y = min(f, d + 1) and x = min(g + f - y, d + 1), is
        # evaluated here one subset at a time from the rows, and each block
        # lists its subsets by ascending rank
        rng = random.Random(61)
        for n in (13, 14):
            g = random_graph(rng, n, 0.4)
            gfun = [rng.choice((1, 2, 3, 10**19)) for _ in range(n)]
            ffun = [gv + rng.choice((0, 1, 10**20)) for gv in gfun]
            cap = [row.bit_count() + 1 for row in g.rows]
            y = [min(fv, c) for fv, c in zip(ffun, cap)]
            x = [min(gv + fv - yv, c) for gv, fv, yv, c in zip(gfun, ffun, y, cap)]
            checked = []
            for fixed, masks, values in conditions._blocks(g.rows, x, y):
                masks = [fixed | s for s in masks.tolist()]
                ranks = [conditions._rank(s, n) for s in masks]
                assert ranks == sorted(ranks), n
                for s, got in zip(masks, values.tolist()):
                    value = sum(x[v] if s >> v & 1 else
                                min((g.rows[v] & ~s).bit_count() - y[v], 0) for v in range(n))
                    assert got == value, (n, s)
                checked += masks
            assert sorted(checked) == list(range(1 << n))


class TestSubsetMemory:
    def test_report_and_peak_at_the_cap(self):
        # memory stays within one block: an int64 array of all 2^22 subsets
        # by 22 vertices would be 740 MB
        g = random_graph(random.Random(22), conditions.SUBSET_ENUM_CAP)
        tracemalloc.start()
        try:
            report = has_all_fractional_ab_factors(g, DegreeBounds(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report_tuple(report) == (True, 0, (), (), 1 << 22)
        assert peak < 16 * 2**20


class TestMonotonicity:
    def test_edge_addition_never_breaks_ab_property(self):
        rng = random.Random(51)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            graphs = all_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            missing = [
                (u, v) for u in range(n) for v in range(u + 1, n) if not (g.rows[u] >> v) & 1
            ]
            if not missing:
                continue
            bounds = DegreeBounds(1, 2)
            if not has_all_ab_factors(g, bounds).verdict:
                continue
            u, v = missing[rng.randrange(len(missing))]
            bigger = from_edge_list(n, list(edges(g)) + [(u, v)])
            assert has_all_ab_factors(bigger, bounds).verdict
            checked += 1


class TestIntervalNesting:
    def test_pass_on_an_interval_passes_on_its_subintervals(self):
        # every demand of [1, 2] or [2, 3] is one of [1, 3], in both modes
        cases = passes = 0
        for n in range(1, 7):
            for g in connected_graphs(n):
                for decide in (has_all_ab_factors, has_all_fractional_ab_factors):
                    cases += 1
                    if decide(g, DegreeBounds(1, 3)).verdict:
                        passes += 1
                        assert decide(g, DegreeBounds(1, 2)).verdict, (to_graph6(g), decide)
                        assert decide(g, DegreeBounds(2, 3)).verdict, (to_graph6(g), decide)
        assert (cases, passes) == (286, 3)
