"""Metamorphic relations of the deciders, which need no oracle and no second
copy of either functional.

- Edge monotonicity: for every pair (D, S), adding an edge can only raise the
  degrees in G - D and merge components of G - (D u S), and for every S it can
  only raise the degrees in G - S, so neither minimum falls; in particular
  PASS(G) implies PASS(G + e).  Both verdicts occur among the draws.
- Relabelling: a vertex permutation keeps the minimum, and maps the witness
  to a set (pair) at which ``delta`` (``theta``) re-evaluates to it.
- Both relations under a mixed (g, f), g and f permuted with the vertices:
  the proof of monotonicity holds pair by pair, since a new edge raises
  e(C, S) by one exactly when it raises a degree of S by one, and merging two
  components never raises q.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from factorspec import (
    DegreeBounds,
    DegreeFunctions,
    Graph,
    delta,
    from_edge_list,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    has_all_gf_factors,
    lu_all_fractional_gf,
    theta,
)

INTEGER_MAX_ORDER = 9
FRACTIONAL_MAX_ORDER = 14


@st.composite
def graphs_and_bounds(draw, max_order):
    """A G(n, p) at a uniform order 2..max_order, dense often enough that
    both verdicts occur, and an [a, b] with a < b, all from one drawn seed,
    so that the orders do not crowd at the bottom of the range."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(2, max_order)
    p = rng.choice([0.4, 0.7, 0.9, 1.0])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    a = rng.randint(1, 2)
    return from_edge_list(n, edges), DegreeBounds(a, a + rng.randint(1, 2)), rng


@st.composite
def graphs_and_functions(draw, max_order):
    """A graph drawn as in ``graphs_and_bounds`` and a mixed (g, f): g(v) in
    1..3 and f(v) - g(v) in {0, 1, 2}, or now and then g = f, so that both
    thresholds and q's parity path occur."""
    g, _, rng = draw(graphs_and_bounds(max_order))
    gfun = tuple(rng.randint(1, 3) for _ in range(g.n))
    ffun = gfun if rng.random() < 0.25 else tuple(gv + rng.choice((0, 0, 1, 2)) for gv in gfun)
    return g, DegreeFunctions(gfun, ffun), rng


def with_one_more_edge(g, rng):
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.rows[u] >> v & 1]
    if not missing:
        return g
    u, v = rng.choice(missing)
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def relabelled(g, perm):
    """The graph with vertex v renamed perm[v]."""
    rows = [0] * g.n
    for v, row in enumerate(g.rows):
        rows[perm[v]] = sum(1 << perm[u] for u in range(g.n) if row >> u & 1)
    return Graph(g.n, tuple(rows))


def assert_edge_monotone(decide, case):
    g, bounds, rng = case
    before = decide(g, bounds)
    after = decide(with_one_more_edge(g, rng), bounds)
    assert after.min_value >= before.min_value
    assert after.verdict or not before.verdict


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_bounds(INTEGER_MAX_ORDER))
def test_integer_minimum_never_falls_when_an_edge_is_added(case):
    assert_edge_monotone(has_all_ab_factors, case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_bounds(FRACTIONAL_MAX_ORDER))
def test_fractional_minimum_never_falls_when_an_edge_is_added(case):
    assert_edge_monotone(has_all_fractional_ab_factors, case)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(graphs_and_bounds(INTEGER_MAX_ORDER))
def test_relabelling_keeps_the_pair_minimum(case):
    g, bounds, rng = case
    perm = rng.sample(range(g.n), g.n)
    report = has_all_ab_factors(g, bounds)
    moved = has_all_ab_factors(relabelled(g, perm), bounds)
    assert (moved.verdict, moved.min_value) == (report.verdict, report.min_value)
    d, s = ([perm[v] for v in witness] for witness in (report.witness_s, report.witness_t))
    assert delta(relabelled(g, perm), bounds, d, s) == report.min_value


@settings(max_examples=30, deadline=None, derandomize=True)
@given(graphs_and_bounds(FRACTIONAL_MAX_ORDER))
def test_relabelling_keeps_the_subset_minimum(case):
    g, bounds, rng = case
    perm = rng.sample(range(g.n), g.n)
    report = has_all_fractional_ab_factors(g, bounds)
    moved = has_all_fractional_ab_factors(relabelled(g, perm), bounds)
    assert (moved.verdict, moved.min_value) == (report.verdict, report.min_value)
    value, t = theta(relabelled(g, perm), bounds, [perm[v] for v in report.witness_s])
    assert value == report.min_value
    assert t == {perm[v] for v in report.witness_t}


def permuted(funcs, perm):
    """g and f with vertex v renamed perm[v]."""
    order = sorted(range(len(perm)), key=perm.__getitem__)  # the v with perm[v] = 0, 1, ...
    return DegreeFunctions(tuple(funcs.g[v] for v in order), tuple(funcs.f[v] for v in order))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_functions(INTEGER_MAX_ORDER))
def test_gf_minimum_never_falls_when_an_edge_is_added(case):
    assert_edge_monotone(has_all_gf_factors, case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_functions(FRACTIONAL_MAX_ORDER))
def test_fractional_gf_minimum_never_falls_when_an_edge_is_added(case):
    assert_edge_monotone(lu_all_fractional_gf, case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_functions(INTEGER_MAX_ORDER))
def test_relabelling_keeps_the_gf_minimum(case):
    g, funcs, rng = case
    perm = rng.sample(range(g.n), g.n)
    report = has_all_gf_factors(g, funcs)
    moved = has_all_gf_factors(relabelled(g, perm), permuted(funcs, perm))
    assert (moved.verdict, moved.min_value) == (report.verdict, report.min_value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(graphs_and_functions(FRACTIONAL_MAX_ORDER))
def test_relabelling_keeps_the_fractional_gf_minimum(case):
    g, funcs, rng = case
    perm = rng.sample(range(g.n), g.n)
    report = lu_all_fractional_gf(g, funcs)
    moved = lu_all_fractional_gf(relabelled(g, perm), permuted(funcs, perm))
    assert (moved.verdict, moved.min_value) == (report.verdict, report.min_value)
