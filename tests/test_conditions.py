"""The deficiency functionals and the six exhaustive deciders.

Witness soundness is the load-bearing property: every failing report must
reproduce its minimum when the functional is re-evaluated at the witness
through the public primitives.
"""

import itertools
import random

import pytest

from factorspec import (
    CapExceededError,
    DegreeBounds,
    DegreeFunctions,
    anstee_fractional_gf,
    classify_components,
    complete,
    delta,
    disjoint_union,
    from_edge_list,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    has_all_gf_factors,
    has_gf_factor,
    has_h_factor,
    lu_all_fractional_gf,
    parse_graph6,
    theta,
)
from factorspec import conditions
from factorspec.extremal import build_hnb
from bruteforce import degrees_excluding, pair_loop_reference
from catalogs import all_graphs, connected_graphs


def k(n):
    return complete(n)


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

    def test_empty_t_means_nonnegative(self):
        # T empty forces theta = a|S| >= 0
        for s in [(), (0,), (0, 1)]:
            value, tset = theta(k(6), DegreeBounds(2, 3), s)
            if not tset:
                assert value >= 0


class TestClassifyComponents:
    def test_parity_forced(self):
        assert classify_components(k(3), (), (), DegreeFunctions.constant(3, 1, 1)) == (1, 1)
        assert classify_components(k(4), (), (), DegreeFunctions.constant(4, 1, 1)) == (0, 0)

    def test_definition_split(self):
        assert classify_components(k(4), (), (), DegreeFunctions.constant(4, 1, 2)) == (0, 1)

    def test_edges_to_s_parity(self):
        # path 0-1-2, S={1}: components {0},{2}, each with e(C,S)=1, f(C)=1 -> even
        path = from_edge_list(3, [(0, 1), (1, 2)])
        funcs = DegreeFunctions.constant(3, 1, 1)
        assert classify_components(path, (), (1,), funcs) == (0, 0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            classify_components(k(3), (0,), (0,), DegreeFunctions.constant(3, 1, 1))


class TestGfFactor:
    def test_perfect_matching_cases(self):
        assert has_gf_factor(k(2), DegreeFunctions.constant(2, 1, 1)).verdict
        report = has_gf_factor(k(3), DegreeFunctions.constant(3, 1, 1))
        assert not report.verdict
        assert report.min_value == -1
        assert report.witness_s == frozenset() and report.witness_t == frozenset()

    def test_k4_interval(self):
        assert has_gf_factor(k(4), DegreeFunctions.constant(4, 1, 2)).verdict

    def test_agrees_with_gadget_oracle(self):
        # with g = f = h the single-factor decider matches h-factor existence
        rng = random.Random(21)
        for n in range(2, 6):
            for g in all_graphs(n):
                for _ in range(3):
                    h = tuple(rng.randint(1, 3) for _ in range(n))
                    if any(h[v] > g.degree(v) for v in range(n)):
                        continue
                    funcs = DegreeFunctions(h, h)
                    assert has_gf_factor(g, funcs).verdict == has_h_factor(g, h)[0]


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
            has_gf_factor(k(4), funcs)
        with pytest.raises(ValueError):
            has_all_gf_factors(k(4), funcs)
        with pytest.raises(ValueError):
            anstee_fractional_gf(k(4), funcs)
        with pytest.raises(ValueError):
            lu_all_fractional_gf(k(4), funcs)
        with pytest.raises(ValueError):
            classify_components(k(4), (), (), funcs)


class TestEnumerationCaps:
    """The caps are read at call time, so lowering them keeps these tests small:
    at 5, every decider runs at n = 5 and refuses n = 6, naming its loop."""

    DECIDERS = (
        (has_gf_factor, "funcs", "3^n"),
        (has_all_gf_factors, "funcs", "3^n"),
        (has_all_ab_factors, "bounds", "3^n"),
        (anstee_fractional_gf, "funcs", "2^n"),
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
        assert anstee_fractional_gf(k(3), DegreeFunctions.constant(3, 2, 2)).verdict
        report = anstee_fractional_gf(k(3), DegreeFunctions((2, 2, 1), (2, 2, 1)))
        assert not report.verdict and report.min_value == -1
        assert report.witness_s == frozenset({2})
        report = anstee_fractional_gf(k(1), DegreeFunctions.constant(1, 1, 1))
        assert not report.verdict and report.min_value == -1

    def test_lu_examples(self):
        assert lu_all_fractional_gf(k(5), DegreeFunctions.constant(5, 1, 2)).verdict
        report = lu_all_fractional_gf(k(3), DegreeFunctions.constant(3, 1, 2))
        assert not report.verdict and len(report.witness_s) == 1

    def test_lu_reduces_to_anstee_when_equal(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 6)
            graphs = all_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            p = tuple(rng.randint(1, max(1, n - 1)) for _ in range(n))
            funcs = DegreeFunctions(p, p)
            assert (
                lu_all_fractional_gf(g, funcs).verdict
                == anstee_fractional_gf(g, funcs).verdict
            )

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


def reeval_gf(g, funcs, report, which):
    d, s = report.witness_s, report.witness_t
    degs = degrees_excluding(g, d)
    dsum = sum(degs[x] for x in s)
    q_hat, q_star = classify_components(g, d, s, funcs)
    if which == "single":
        return sum(funcs.f[v] for v in d) - sum(funcs.g[v] for v in s) + dsum - q_hat
    return sum(funcs.g[v] for v in d) - sum(funcs.f[v] for v in s) + dsum - q_star


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
                rep = has_gf_factor(g, funcs)
                assert reeval_gf(g, funcs, rep, "single") == rep.min_value
                rep = has_all_gf_factors(g, funcs)
                assert reeval_gf(g, funcs, rep, "all") == rep.min_value

    def test_theta_witnesses(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                bounds = DegreeBounds(1, 3)
                report = has_all_fractional_ab_factors(g, bounds)
                value, tset = theta(g, bounds, report.witness_s)
                assert value == report.min_value
                assert tset == report.witness_t

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
                    has_gf_factor(g, funcs),
                    has_all_gf_factors(g, funcs),
                    has_all_fractional_ab_factors(g, bounds),
                    anstee_fractional_gf(g, funcs),
                    lu_all_fractional_gf(g, funcs),
                ),
                brute_force_minima(g, bounds, funcs),
            ):
                got = (report.min_value, tuple(sorted(report.witness_s)),
                       tuple(sorted(report.witness_t)))
                assert got == best
                assert report.verdict == (best[0] >= threshold)


def brute_force_minima(g, bounds, funcs):
    """(threshold, least (value, S-tuple, T-tuple)) of the six functionals, in
    the order ab, gf, all-gf, fractional ab, Anstee, Lu, from the public
    primitives alone."""
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
    ab, single, every = [], [], []
    for d, s in pairs:
        ab.append((delta(g, bounds, d, s), d, s))
        dsum = sum(degrees_excluding(g, d)[x] for x in s)
        q_hat, q_star = classify_components(g, d, s, funcs)
        single.append((sum(af[v] for v in d) - sum(gf[v] for v in s) + dsum - q_hat, d, s))
        every.append((sum(gf[v] for v in d) - sum(af[v] for v in s) + dsum - q_star, d, s))
    fractional, anstee, lu = [], [], []
    for s in subsets:
        value, tset = theta(g, bounds, s)
        fractional.append((value, s, tuple(sorted(tset))))
        degs = degrees_excluding(g, s)
        for out, x, y in ((anstee, af, gf), (lu, gf, af)):
            t = tuple(v for v in vertices if v in degs and degs[v] < y[v])
            out.append((sum(x[v] for v in s) - sum(y[v] - degs[v] for v in t), s, t))
    return [
        (-1, min(ab)),
        (0, min(single)),
        (0 if funcs.pointwise_equal else -1, min(every)),
        (0, min(fractional)),
        (0, min(anstee)),
        (0, min(lu)),
    ]


class TestGoldenReports:
    """Full reports, pairs_examined included, pinned for fixed inputs; the
    count depends on the pair loop order and its skip rule."""

    PETERSEN = from_edge_list(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    PETERSEN_FUNCS = DegreeFunctions((1, 1, 2, 2, 3, 3, 1, 2, 3, 1), (1, 2, 2, 3, 3, 3, 2, 2, 3, 2))
    CIRCULANT_12 = from_edge_list(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 3)])
    STAR_12 = from_edge_list(13, [(0, i) for i in range(1, 13)])
    STAR_13 = from_edge_list(14, [(0, i) for i in range(1, 14)])
    EDGELESS_16 = from_edge_list(16, [])  # at PAIR_ENUM_CAP; every D but the empty one skipped

    @pytest.mark.parametrize(
        "decide, graph, arg, expected",
        [
            (has_all_ab_factors, build_hnb(10, 3), DegreeBounds(2, 3),
             (False, -2, [], [0], 436)),
            (has_all_ab_factors, disjoint_union(complete(2), complete(2)), DegreeBounds(1, 2),
             (False, -4, [], [0, 1, 2], 16)),
            (has_gf_factor, PETERSEN, PETERSEN_FUNCS, (False, -1, [0], [4, 5], 4927)),
            (has_gf_factor, parse_graph6("EQyw"),
             DegreeFunctions((3, 3, 3, 3, 1, 2), (5, 5, 5, 5, 2, 2)),
             (False, -4, [4], [0, 1, 2, 3], 89)),
            (has_all_gf_factors, PETERSEN, PETERSEN_FUNCS,
             (False, -3, [0, 2, 6], [1, 3, 4, 5], 6060)),
            (anstee_fractional_gf, PETERSEN, PETERSEN_FUNCS, (False, -1, [0], [4, 5], 1024)),
            (lu_all_fractional_gf, PETERSEN, PETERSEN_FUNCS,
             (False, -3, [0, 2, 6, 9], [1, 3, 4, 5, 7, 8], 1024)),
            (has_all_fractional_ab_factors, CIRCULANT_12, DegreeBounds(2, 3),
             (False, -6, [0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11], 4096)),
            (has_all_ab_factors, STAR_12, DegreeBounds(1, 2),
             (False, -23, [0], list(range(1, 13)), 4098)),
            (has_all_ab_factors, STAR_13, DegreeBounds(1, 2),
             (False, -25, [0], list(range(1, 14)), 8194)),
            (has_all_ab_factors, EDGELESS_16, DegreeBounds(1, 2),
             (False, -32, [], list(range(16)), 1)),
        ],
    )
    def test_report(self, decide, graph, arg, expected):
        report = decide(graph, arg)
        assert (report.verdict, report.min_value, sorted(report.witness_s),
                sorted(report.witness_t), report.pairs_examined) == expected


class TestPairLoopOrder:
    """Full reports of the integer deciders, pairs_examined included, against
    the documented loop order in ``bruteforce.pair_loop_reference``."""

    def test_reports_match_reference(self):
        # g = f takes the threshold-0 path and q_hat's parity path; the per-D
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
            for decide, every in ((has_gf_factor, False), (has_all_gf_factors, True)):
                report = decide(g, funcs)
                assert (report.verdict, report.min_value, tuple(sorted(report.witness_s)),
                        tuple(sorted(report.witness_t)), report.pairs_examined
                        ) == pair_loop_reference(g, funcs, every)


class TestMonotonicity:
    def test_edge_addition_never_breaks_ab_property(self):
        rng = random.Random(51)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 6)
            graphs = all_graphs(n)
            g = graphs[rng.randrange(len(graphs))]
            missing = [
                (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            bounds = DegreeBounds(1, 2)
            if not has_all_ab_factors(g, bounds).verdict:
                continue
            u, v = missing[rng.randrange(len(missing))]
            bigger = from_edge_list(n, list(g.edges()) + [(u, v)])
            assert has_all_ab_factors(bigger, bounds).verdict
            checked += 1
