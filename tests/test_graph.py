"""Graph construction, graph6 codec, components, and the degree reference."""

import random
import re
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorspec import (
    Graph,
    Graph6Error,
    from_edge_list,
    is_connected,
    parse_graph6,
    to_graph6,
)
from factorspec import graph
from factorspec.extremal import build_hnb
from factorspec.graph import (
    MAX_DENSE_ORDER,
    MIRROR_MATRIX_ORDER,
    bit_matrix,
    component_masks,
    mask_of,
    set_of,
)
from bruteforce import degrees_excluding, mirror_reference
from catalogs import complete, disjoint_union, edges, join


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def assert_asymmetry_named(rng: random.Random, n: int, rows) -> None:
    """Flip one side of one to three vertex pairs of ``rows``: the ``Graph``
    check must name a pair whose two sides differ."""
    rows = list(rows)
    pairs = list(combinations(range(n), 2))
    for pair in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
        u, v = rng.sample(pair, 2)
        rows[u] ^= 1 << v
    with pytest.raises(ValueError, match="adjacency not symmetric") as info:
        Graph(n, tuple(rows))
    u, v = map(int, re.search(r"\((\d+), (\d+)\)", str(info.value)).groups())
    assert (rows[u] >> v) & 1 != (rows[v] >> u) & 1


class TestConstruction:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.rows == complete(3).rows

    def test_empty_edge_set(self):
        g = from_edge_list(2, [])
        assert g.edge_count() == 0 and g.n == 2

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(4, [(0, 1), (0, 1), (1, 0)])
        assert g.edge_count() == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1, ())

    def test_rows_length_must_equal_order(self):
        for n, rows in [(2, (0,)), (1, (0, 0)), (0, (0,))]:
            with pytest.raises(ValueError, match="^rows length must equal vertex count$"):
                Graph(n, rows)

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(2, 0\)$"):
            Graph(3, (0, 0, 0b001))

    def test_asymmetric_message_names_a_differing_pair(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 9)
            assert_asymmetry_named(rng, n, random_graph(rng, n, rng.random()).rows)

    def test_out_of_range_row_rejected(self):
        with pytest.raises(ValueError, match=r"^row 0 references vertices outside 0\.\.2$"):
            Graph(3, (0b1000, 0, 0))
        with pytest.raises(ValueError, match=r"^row 1 references vertices outside 0\.\.1$"):
            Graph(2, (0b10, -1))

    def test_loop_row_rejected(self):
        with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
            Graph(3, (0b010, 0b011, 0))

    @pytest.mark.parametrize("n", [MIRROR_MATRIX_ORDER + 6, 2 * MIRROR_MATRIX_ORDER + 2])
    def test_messages_above_the_mirror_order(self, n):
        """The three messages again, at orders that the bit-matrix mirror serves."""
        rng = random.Random(n)
        rows = list(random_graph(rng, n, 0.5).rows)
        assert Graph(n, tuple(rows)).rows == tuple(rows)
        for _ in range(20):
            assert_asymmetry_named(rng, n, rows)
        edgeless = [0] * n
        for v, bit, message in [(3, 1, r"adjacency not symmetric at \(3, 1\)"),
                                (n - 2, n - 1, rf"adjacency not symmetric at \({n - 2}, {n - 1}\)"),
                                (n - 1, n, rf"row {n - 1} references vertices outside 0\.\.{n - 1}"),
                                (n // 2, n // 2, rf"loop at vertex {n // 2}")]:
            bad = list(edgeless)
            bad[v] |= 1 << bit
            with pytest.raises(ValueError, match=f"^{message}$"):
                Graph(n, tuple(bad))
        full = (1 << n) - 1
        negative = [full ^ (1 << v) for v in range(n - 1)] + [-1]
        with pytest.raises(ValueError, match=rf"^row {n - 1} references vertices outside "):
            Graph(n, tuple(negative))

    def test_rows_as_list_accepted(self):
        assert Graph(2, [0b10, 0b01]).edge_count() == 1

    # the shared test builders in catalogs.py, which many tests rely on
    def test_complete(self):
        assert complete(0).n == 0
        assert complete(1).edge_count() == 0
        k4 = complete(4)
        assert k4.edge_count() == 6
        assert all(k4.degree(v) == 3 for v in range(4))

    def test_disjoint_union(self):
        g = disjoint_union(complete(1), complete(3))
        assert (g.n, g.edge_count()) == (4, 3)
        assert len(component_masks(g.rows, g.n, 0)) == 2
        g = disjoint_union(complete(2), complete(2))
        assert (g.n, g.edge_count()) == (4, 2)
        assert disjoint_union(complete(0), complete(3)).rows == complete(3).rows

    def test_join(self):
        assert join(complete(1), complete(3)).rows == complete(4).rows
        k22 = join(from_edge_list(2, []), from_edge_list(2, []))
        assert k22.edge_count() == 4
        assert sorted(k22.degree(v) for v in range(4)) == [2, 2, 2, 2]

    def test_join_hnb_shape(self):
        # K_{b-1} joined to (K_1 u K_{n-b}) at n=6, b=3: the K_1 vertex has degree b-1
        g = join(complete(2), disjoint_union(complete(1), complete(3)))
        assert g.degree(2) == 2
        assert sorted(g.degree(v) for v in range(6)) == [2, 4, 4, 4, 5, 5]

    def test_edge_arithmetic(self):
        rng = random.Random(1)
        for _ in range(25):
            g1 = random_graph(rng, rng.randint(0, 6))
            g2 = random_graph(rng, rng.randint(0, 6))
            u = disjoint_union(g1, g2)
            j = join(g1, g2)
            assert u.edge_count() == g1.edge_count() + g2.edge_count()
            assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n


class TestGraph6:
    def test_goldens(self):
        assert to_graph6(complete(3)) == b"Bw"
        assert to_graph6(complete(2)) == b"A_"
        assert to_graph6(from_edge_list(2, [])) == b"A?"
        assert to_graph6(complete(1)) == b"@"
        assert parse_graph6(b"Bw").rows == complete(3).rows
        assert parse_graph6(b"A_").rows == complete(2).rows
        assert parse_graph6(b"A?").edge_count() == 0
        assert parse_graph6(b"@").n == 1

    def test_header_and_newline(self):
        assert parse_graph6(b">>graph6<<Bw").rows == complete(3).rows
        assert parse_graph6(b"Bw\n").rows == complete(3).rows
        assert parse_graph6("Bw").rows == complete(3).rows

    def test_long_size_form(self):
        g = from_edge_list(63, [(0, 62), (5, 17)])
        record = to_graph6(g)
        assert record[0] == 126 and record[1] != 126
        back = parse_graph6(record)
        assert back.rows == g.rows

    def test_truncated(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"B")
        with pytest.raises(Graph6Error):
            parse_graph6(bytes([126, 126] + [126] * 6))  # huge n, no body

    def test_size_field_forms(self):
        from factorspec.graph import _decode_size, _encode_size

        for n in (0, 1, 62, 63, 4000, 258047, 258048, (1 << 18) - 1, (1 << 36) - 1):
            encoded = _encode_size(n)
            assert _decode_size(encoded + b"???") == (n, len(encoded))
        assert len(_encode_size(62)) == 1
        assert len(_encode_size(63)) == 4
        assert len(_encode_size(258047)) == 4
        assert len(_encode_size(258048)) == 8  # 4-byte form would collide with the marker
        with pytest.raises(Graph6Error):
            _encode_size(1 << 36)

    @pytest.mark.parametrize("record, message", [
        (bytes([62]), "invalid size byte 62"),
        (bytes([127]) + b"?" * 336, "invalid size byte 127"),  # a body for 64 vertices
        (bytes([126, 126, 63, 63, 63]), "truncated 8-byte size field"),
        (bytes([126, 63, 63]), "truncated 4-byte size field"),
        (bytes([126]), "truncated 4-byte size field"),
        (bytes([126, 63, 20, 63]), "invalid size byte 20"),
        (bytes([126, 126, 63, 63, 63, 63, 200, 63]), "invalid size byte 200"),
    ], ids=["below", "above", "short-8", "short-4", "marker-only", "in-4", "in-8"])
    def test_malformed_size_field(self, record, message):
        with pytest.raises(Graph6Error, match=f"^{message}$"):
            parse_graph6(record)

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"Bww")

    def test_invalid_body_byte(self):
        with pytest.raises(Graph6Error, match="^invalid body byte 20$"):
            parse_graph6(b"B" + bytes([20]))

    def test_first_invalid_body_byte_is_named(self):
        # n = 5 has 10 bits: byte 0 holds data only, byte 1 data and two pad bits
        with pytest.raises(Graph6Error, match="^invalid body byte 20$"):
            parse_graph6(b"D" + bytes([20, 200]))
        with pytest.raises(Graph6Error, match="^invalid body byte 200$"):
            parse_graph6(b"D" + bytes([63, 200]))

    def test_empty_record(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"")

    def test_structured_round_trip(self):
        samples = [complete(0), complete(1), complete(12), from_edge_list(5, []),
                   build_hnb(9, 4), build_hnb(12, 11)]
        for g in samples:
            assert parse_graph6(to_graph6(g)).rows == g.rows

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(min_value=0, max_value=32))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = from_edge_list(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        assert parse_graph6(to_graph6(g)).rows == g.rows


class TestGraph6AgainstNetworkx:
    """The codec against networkx's graph6 reader and writer, which share no
    code with it: a bit-order error made in both directions shows here."""

    @pytest.fixture(scope="class")
    def samples(self) -> list[tuple[Graph, bytes]]:
        """Seeded random graphs and hnb(600, 5), each with networkx's record."""
        rng = random.Random(14)
        graphs = [random_graph(rng, n, p)
                  for n in (1, 2, 3, 62, 63, 64, 65, 128, 200)
                  for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
        out = []
        for g in graphs + [build_hnb(600, 5)]:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(edges(g))
            out.append((g, nx.to_graph6_bytes(h, header=False).rstrip(b"\n")))
        return out

    def test_encode(self, samples):
        for g, record in samples:
            assert to_graph6(g) == record

    def test_decode(self, samples):
        for g, record in samples:
            back = parse_graph6(record)
            assert back.rows == g.rows
            h = nx.from_graph6_bytes(record)
            assert list(edges(back)) == sorted(tuple(sorted(e)) for e in h.edges())


class TestMirrorRoutes:
    """Both routes of the mirror against the plain reference, around the order
    that switches between them, and the switch itself in both callers."""

    @pytest.mark.parametrize("n", [MIRROR_MATRIX_ORDER - 1, MIRROR_MATRIX_ORDER,
                                   MIRROR_MATRIX_ORDER + 1, 200])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
    def test_routes_match_reference(self, n, p):
        rng = random.Random(1000 * n + int(100 * p))
        lower = [sum(1 << u for u in range(v) if rng.random() < p) for v in range(n)]
        expected = mirror_reference(lower)
        assert graph._mirror_loop(lower) == expected
        assert graph._mirror_matrix(lower) == expected
        assert graph._mirror(lower) == expected

    def test_route_by_order(self, monkeypatch):
        routes = []
        for name in ("_mirror_loop", "_mirror_matrix"):
            route = getattr(graph, name)
            monkeypatch.setattr(graph, name,
                                lambda lower, name=name, route=route: routes.append(name) or route(lower))
        for n in (MIRROR_MATRIX_ORDER, MIRROR_MATRIX_ORDER + 1):
            g = from_edge_list(n, [(0, n - 1), (1, 2)])
            parse_graph6(to_graph6(g))
        # above the dense limit decode refuses the order, and the check loops
        n = MAX_DENSE_ORDER + 1
        from_edge_list(n, [(0, n - 1), (1, 2)])
        assert routes == ["_mirror_loop"] * 2 + ["_mirror_matrix"] * 2 + ["_mirror_loop"]


class TestBitMatrix:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 22, 64, 65, 200])
    def test_layout_matches_shifts(self, n):
        """Entry (v, u) is bit u of row v, on full rows and on lower-triangle
        masks, across the byte boundaries of the rows' width."""
        rng = random.Random(n)
        for rows in ([rng.getrandbits(n) for _ in range(n)],
                     [(1 << n) - 1] * n,
                     [rng.getrandbits(n) & ((1 << v) - 1) for v in range(n)]):
            expected = np.array([[(row >> u) & 1 for u in range(n)] for row in rows], np.uint8)
            m = bit_matrix(rows)
            assert m.dtype == np.uint8
            assert np.array_equal(m, expected)


def traced_peak(build):
    """What ``build()`` returns, and the peak bytes it allocated on the way."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestDecodeMemory:
    def test_dense_record_at_the_limit(self):
        """The complete graph at MAX_DENSE_ORDER.  Decode holds the bits
        string (one byte per pair), then the mirror's n x n byte matrix and
        the copy of its transpose that ``m |= m.T`` makes, plus buffers of
        n^2 bits each: the packed lower rows, the packed rows, their bytes
        and the row ints."""
        n = MAX_DENSE_ORDER
        nbits = n * (n - 1) // 2
        record = graph._encode_size(n) + b"~" * ((nbits + 5) // 6)  # pad bits are ignored
        g, peak = traced_peak(lambda: parse_graph6(record))
        assert g.rows == tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
        assert peak < nbits + 2 * n * n + 4 * n * n // 8


class TestCheckMemory:
    """Above MAX_DENSE_ORDER the ``Graph`` check mirrors by the bit loop, so a
    sparse graph there allocates no n x n matrix: the matrix route peaked at
    36-39 MB on these two at n = MAX_DENSE_ORDER + 1, the loop at 4.4 MB."""

    n = MAX_DENSE_ORDER + 1

    def test_path(self):
        n = self.n
        g, peak = traced_peak(lambda: from_edge_list(n, [(v, v + 1) for v in range(n - 1)]))
        assert g.edge_count() == n - 1
        assert peak < 8_000_000

    def test_edgeless(self):
        n = self.n
        g, peak = traced_peak(lambda: Graph(n, (0,) * n))
        assert g.edge_count() == 0
        assert peak < 8_000_000


def components(g: Graph, excluded) -> list[frozenset[int]]:
    """The components of G - X as vertex sets."""
    return [set_of(comp) for comp in component_masks(g.rows, g.n, mask_of(excluded, g.n))]


class TestPrimitives:
    def test_degrees_excluding(self):
        assert degrees_excluding(complete(4), (0,)) == {1: 2, 2: 2, 3: 2}
        assert degrees_excluding(build_hnb(6, 3), ())[0] == 2
        path = from_edge_list(3, [(0, 1), (1, 2)])
        assert degrees_excluding(path, (1,)) == {0: 0, 2: 0}

    def test_handshake(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9))
            assert sum(degrees_excluding(g, ()).values()) == 2 * g.edge_count()

    def test_components(self):
        assert components(complete(5), ()) == [frozenset(range(5))]
        h = build_hnb(6, 3)
        assert components(h, (1, 2)) == [frozenset({0}), frozenset({3, 4, 5})]
        path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert components(path, (1,)) == [frozenset({0}), frozenset({2, 3})]

    def test_components_partition(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.random())
            x = tuple(v for v in range(n) if rng.random() < 0.3)
            comps = components(g, x)
            union = set()
            for comp in comps:
                assert not (union & comp)
                union |= comp
            assert union == set(range(n)) - set(x)
            # sorted by smallest member
            mins = [min(c) for c in comps]
            assert mins == sorted(mins)

    def test_is_connected(self):
        assert is_connected(complete(1))
        assert not is_connected(disjoint_union(complete(2), complete(2)))
        assert is_connected(build_hnb(10, 3))
        with pytest.raises(ValueError):
            is_connected(complete(0))
