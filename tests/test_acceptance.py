"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured quantities (visible
with -s or -rA); a failed assertion carries the same data.  Catalog inputs
come from tests/data via the count-checked loader in catalogs.py.
"""

import random
import time

from factorspec import (
    DegreeBounds,
    DegreeFunctions,
    from_edge_list,
    has_all_ab_factors,
    has_all_gf_factors,
    parse_graph6,
    spectral_radius,
    threshold_n,
    to_graph6,
)
from factorspec.harness import (
    equivalence_suite,
    verify_g1_g2_bounds,
    verify_hnb_witnesses,
    verify_hong,
    verify_k1_join_bound,
    verify_quotient_transfer,
)
from factorspec.extremal import layout_charpoly
from factorspec.oracle import perfect_matching
from factorspec.spectral import largest_root
from bruteforce import perfect_matching_bruteforce
from catalogs import all_graphs, complete, connected_up_to, k1_join_cliques


def test_c01_hub_witness_values_exact():
    report = verify_hnb_witnesses(nmax=40)
    assert report.passed, report.failures[:5]
    assert report.elapsed < 1.0, f"took {report.elapsed:.2f}s, budget 1s"
    print(f"PASS criterion 1: hub witness -2/-1 exact on {report.cases_run} cases "
          f"({report.elapsed:.2f}s)")


def test_c02_g1_g2_polynomial_signs_and_spectral_bounds():
    report = verify_g1_g2_bounds(amax=5, bmax=5)
    assert report.passed, report.failures[:5]
    assert report.elapsed < 30.0, f"took {report.elapsed:.2f}s, budget 30s"
    print(f"PASS criterion 2: exact charpoly signs and rho < n-2 by exact root count "
          f"on {report.cases_run} grid points ({report.elapsed:.2f}s)")


def test_c03_integer_decider_vs_gadget_oracle_order_7():
    graphs = connected_up_to(7)
    assert len(graphs) == 996  # 853 at order 7, under 1000 in total
    report = equivalence_suite(graphs, [(1, 2), (1, 3), (2, 3)], "integer", nmax=7)
    assert report.cases_run == len(graphs) * 3
    assert report.passed, report.mismatches[:5]
    assert report.elapsed < 600.0, f"took {report.elapsed:.1f}s, target 600s"
    print(f"PASS criterion 3: integer decider == gadget oracle on {report.cases_run} "
          f"cases ({report.elapsed:.1f}s)")


def test_c04_fractional_decider_vs_per_demand_oracle_order_8():
    graphs = connected_up_to(8)
    assert len(graphs) == 996 + 11117
    report = equivalence_suite(graphs, [(1, 2), (1, 3), (2, 3)], "fractional", nmax=8)
    assert report.cases_run == len(graphs) * 3
    assert report.passed, report.mismatches[:5]
    assert report.elapsed < 600.0, f"took {report.elapsed:.1f}s, target 600s"
    print(f"PASS criterion 4: fractional decider == double-cover cut oracle on "
          f"{report.cases_run} cases ({report.elapsed:.1f}s)")


def test_c05_interval_specialization_of_the_gf_decider():
    t0 = time.perf_counter()
    cases = 0
    for g in connected_up_to(6):
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            cases += 1
            via_gf = has_all_gf_factors(g, DegreeFunctions.constant(g.n, a, b)).verdict
            via_ab = has_all_ab_factors(g, DegreeBounds(a, b)).verdict
            assert via_gf == via_ab, (to_graph6(g), a, b, via_gf, via_ab)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 5: general decider specializes to interval decider on "
          f"{cases} cases ({elapsed:.1f}s)")


def test_c06_edge_bound_on_all_connected_order_8():
    t0 = time.perf_counter()
    report = verify_hong(connected_up_to(8))
    assert report.cases_run == 996 + 11117
    assert report.passed, report.failures[:5]
    print(f"PASS criterion 6: rho <= sqrt(2m-n+1)+1e-9 on {report.cases_run} graphs "
          f"({time.perf_counter() - t0:.1f}s)")


def test_c07_quotient_eigenvalue_transfer():
    report = verify_quotient_transfer(ns=(10, 100, 1000), bs=(2, 3, 5))
    assert report.cases_run == 9
    assert report.passed, report.failures
    print(f"PASS criterion 7: quotient route == dense route within 1e-8 and "
          f"n-2 < rho < n-1 on {report.cases_run} cases ({report.elapsed:.1f}s)")


def test_c08_hub_two_cliques_stay_below_n_minus_2():
    report = verify_k1_join_bound(ns=(10, 20, 50, 100))
    assert report.passed, report.failures[:5]
    assert report.elapsed < 30.0, f"took {report.elapsed:.2f}s, budget 30s"
    # quotient route spot-checked against dense iteration at the smallest order
    for r in range(2, 8):
        dense = spectral_radius(k1_join_cliques(10, r)).rho
        assert abs(largest_root(layout_charpoly(r, 1, 9 - r), 9) - dense) < 1e-8
    print(f"PASS criterion 8: rho(K_1 v (K_r u K_s)) < n-2 by exact root count on "
          f"{report.cases_run} cases ({report.elapsed:.2f}s)")


def test_c09_matching_engine_against_brute_force():
    t0 = time.perf_counter()
    cases = 0
    for n in range(0, 8):
        for g in all_graphs(n):
            cases += 1
            assert (perfect_matching(g) is None) == (perfect_matching_bruteforce(g) is None), \
                to_graph6(g)
    rng = random.Random(90210)
    for _ in range(10**4):
        n = rng.randint(1, 10)
        p = rng.random()
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        cases += 1
        assert (perfect_matching(g) is None) == (perfect_matching_bruteforce(g) is None), \
            to_graph6(g)
    print(f"PASS criterion 9: blossom == brute-force existence on {cases} graphs "
          f"({time.perf_counter() - t0:.1f}s)")


def test_c10_graph6_round_trip_and_goldens():
    t0 = time.perf_counter()
    assert to_graph6(complete(3)) == b"Bw"
    assert to_graph6(complete(2)) == b"A_"
    assert to_graph6(from_edge_list(2, [])) == b"A?"
    assert parse_graph6(b"Bw").rows == complete(3).rows
    assert parse_graph6(b"A_").rows == complete(2).rows
    assert parse_graph6(b"A?").rows == from_edge_list(2, []).rows
    rng = random.Random(31337)
    for _ in range(10**4):
        n = rng.randint(0, 32)
        p = rng.random()
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        assert parse_graph6(to_graph6(g)).rows == g.rows
    print(f"PASS criterion 10: graph6 round-trip on 10^4 random graphs plus goldens "
          f"({time.perf_counter() - t0:.1f}s)")


def test_c11_threshold_formulas_exact():
    assert threshold_n(3, 4, "integer") == 48
    assert threshold_n(1, 2, "fractional") == 31
    print("PASS criterion 11: threshold orders 48 (integer 3,4) and 31 (fractional 1,2)")
