"""Immutable simple undirected graphs with dense integer labels.

Vertices are always 0..n-1.  Adjacency is stored as one bitmask per vertex
(``rows[v]`` has bit ``u`` set iff ``uv`` is an edge), which makes the
neighbourhood-minus-a-set operations used by the condition deciders cheap
integer arithmetic.  Graphs are frozen after construction and safe to share
across workers.  A simple graph's rows are the mirror of their bits below the
diagonal: the ``Graph`` check and the graph6 codec read only that triangle,
and graph6 decode builds its rows as that mirror, so it skips the check.

``bit_matrix`` unpacks rows into an n x n 0/1 byte matrix, for the mirror,
the spectral radius and the subset decider alike.  The mirror takes one of two
routes, chosen by order alone.  Up to MIRROR_MATRIX_ORDER vertices, and above
MAX_DENSE_ORDER, a Python loop sets one bit per edge, with no n^2 buffer.  In
between the lower rows go through ``bit_matrix``, are OR-ed with the
transpose and packed back: a few passes over n^2 bytes, not a step per edge.

Vertex sets are plain Python sets/iterables of ints on the public surface;
internally they are bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import Iterable, Iterator, Sequence

import numpy as np


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 data."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int], n: int) -> int:
    """Pack an iterable of vertex ids into a bitmask, range-checking against n."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for graph on {n} vertices")
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex ids."""
    return frozenset(iter_bits(mask))


# Orders above this mirror through the bit matrix.  Measured crossover: the
# loop wins below about n = 24 at p = 1/2 and n = 110 at p = 0.05, and on an
# order-8 graph it takes 2.6-5 us against 10-15 us.  Sparser graphs favour the
# loop further up (n = 200, p = 0.01: 42 against 158 us), but only by
# microseconds, while G(1000, 1/2) takes 76 ms by loop and 3 ms by matrix.
MIRROR_MATRIX_ORDER = 64


def bit_matrix(rows: Sequence[int], n: int | None = None) -> np.ndarray:
    """The len(rows) x n uint8 matrix, n = len(rows) unless given, whose entry
    (v, u) is bit u of ``rows[v]``; every row must lie below bit n.  The rows
    of G graphs of order n, one graph after another, unpack in one call."""
    if n is None:
        n = len(rows)
    width = (n + 7) // 8  # bytes per row, bit u of a row in byte u // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in rows]), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")


def _mirror(lower: list[int]) -> tuple[int, ...]:
    """Rows of the simple graph whose row v has ``lower[v]`` below bit v."""
    if MIRROR_MATRIX_ORDER < len(lower) <= MAX_DENSE_ORDER:
        return _mirror_matrix(lower)
    return _mirror_loop(lower)


def _mirror_loop(lower: list[int]) -> tuple[int, ...]:
    rows = list(lower)
    for v, low in enumerate(lower):
        while low:
            u = low.bit_length() - 1
            rows[u] |= 1 << v
            low ^= 1 << u
    return tuple(rows)


def _mirror_matrix(lower: list[int]) -> tuple[int, ...]:
    n = len(lower)
    width = (n + 7) // 8
    m = bit_matrix(lower)
    m |= m.T  # numpy copies the overlapping transpose first
    data = np.packbits(m, axis=1, bitorder="little").tobytes()
    return tuple([int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width)])


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbour bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError("rows length must equal vertex count")
        rows = self.rows
        mirror = _mirror([row & ((1 << v) - 1) for v, row in enumerate(rows)])
        if tuple(rows) != mirror:  # then rows are out of range, looped or asymmetric
            v = next(v for v in range(self.n) if rows[v] != mirror[v])
            if rows[v] >> self.n:
                raise ValueError(f"row {v} references vertices outside 0..{self.n - 1}")
            if (rows[v] >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            diff = rows[v] ^ mirror[v]  # above bit v only: the lower parts agree
            u = (diff & -diff).bit_length() - 1
            has, lacks = (v, u) if (rows[v] >> u) & 1 else (u, v)
            raise ValueError(f"adjacency not symmetric at ({has}, {lacks})")

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse silently."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop ({u}, {v}) not allowed in a simple graph")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- graph6 encoding --------------------------------------------------------
#
# N(n): one byte n+63 for n <= 62; bytes (126, b1, b2, b3) for 63 <= n < 2^18;
# bytes (126, 126, b1..b6) for 2^18 <= n < 2^36.  Body: columns v = 0..n-1 in
# turn, column v being x(0,v), ..., x(v-1,v), that is row v below bit v written
# lowest bit first; the bits are zero-padded to 6-bit groups, each stored as value+63.

GRAPH6_HEADER = b">>graph6<<"
_SIXES = {value + 63: format(value, "06b") for value in range(64)}  # byte -> its 6 bits
_SIX_BYTE = {six: byte for byte, six in _SIXES.items()}
_SIX_BYTES = bytes(_SIXES)


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # the 4-byte form tops out at 258047: above that its first data byte
    # would be 126 and collide with the 8-byte form's marker
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n < 1 << 36:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise Graph6Error(f"graph6 cannot encode n={n} (needs n < 2^36)")


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, body offset); raises on malformed records."""
    if not data:
        raise Graph6Error("empty graph6 record")
    if data[0] != 126:
        if not 63 <= data[0] <= 125:
            raise Graph6Error(f"invalid size byte {data[0]}")
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        chunk, offset = data[2:8], 8
        if len(chunk) < 6:
            raise Graph6Error("truncated 8-byte size field")
    else:
        chunk, offset = data[1:4], 4
        if len(chunk) < 3:
            raise Graph6Error("truncated 4-byte size field")
    if bad := chunk.translate(None, _SIX_BYTES):
        raise Graph6Error(f"invalid size byte {bad[0]}")
    return int("".join([_SIXES[byte] for byte in chunk]), 2), offset


def to_graph6(g: Graph) -> bytes:
    """Encode to a single graph6 record (no header, no trailing newline)."""
    # bin(column v | 1 << v) is '0b1' and then the column's v bits, top bit first
    bits = "".join([bin(row & ((1 << v) - 1) | 1 << v)[:2:-1] for v, row in enumerate(g.rows)])
    bits += "0" * (-len(bits) % 6)
    return _encode_size(g.n) + bytes([_SIX_BYTE[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def parse_graph6(data: bytes | str) -> Graph:
    """Decode a single graph6 record, optionally preceded by '>>graph6<<'."""
    if isinstance(data, str):
        if not data.isascii():
            raise Graph6Error("non-ascii character in record")
        data = data.encode("ascii")
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    data = data.rstrip(b"\r\n")
    n, offset = _decode_size(data)
    check_dense_order(n, "graph6 record", Graph6Error)
    body = data[offset:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated graph6 body: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing bytes after graph6 body (expected {need}, got {len(body)})")
    if bad := body.translate(None, _SIX_BYTES):  # the pad bits' byte too
        raise Graph6Error(f"invalid body byte {bad[0]}")
    bits = "".join([_SIXES[byte] for byte in body])
    spans = pairwise(accumulate(range(n), initial=0))  # column v: [v(v-1)/2, v(v+1)/2)
    lower = [int(bits[lo:hi][::-1] or "0", 2) for lo, hi in spans]
    g = object.__new__(Graph)  # a mirror is a simple graph, so skip the check
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", _mirror(lower))
    return g


# -- components and the dense-order guard -----------------------------------


def component_masks(rows: tuple[int, ...], n: int, avoid: int) -> list[int]:
    """Connected components of the graph minus ``avoid``, as bitmasks.

    Components come out ordered by smallest member, which keeps every report
    built on top of this byte-stable.
    """
    remaining = ((1 << n) - 1) & ~avoid
    comps = []
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= rows[low.bit_length() - 1]
                m ^= low
            frontier = reach & remaining & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return len(component_masks(g.rows, g.n, 0)) == 1


# Largest order accepted where the input's size does not bound what gets
# allocated: a dense adjacency matrix takes n^2 float64 (128 MB at 4096), and
# bitmask rows built from a bare vertex count take n^2 bits.  ``bit_matrix``
# takes n^2 bytes: the mirror calls it only up to this order, and its other
# callers sit behind this guard or a decider's enumeration cap.
MAX_DENSE_ORDER = 4096


def check_dense_order(n: int, what: str, error: type[ValueError] = ValueError) -> None:
    """Refuse ``n`` above MAX_DENSE_ORDER, before any n^2 allocation."""
    if n > MAX_DENSE_ORDER:
        raise error(f"{what} has order {n}, above the dense limit {MAX_DENSE_ORDER}")
