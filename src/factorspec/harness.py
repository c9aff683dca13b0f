"""Catalog ingestion, extremal mining, equivalence suites, and verification sweeps.

This is the only stateful layer: it streams graph6 catalogs, fans per-graph
evaluation out to a worker pool, and reduces deterministically (max with a
lexicographically-least graph6 tie-break), so worker count never changes a
report.  JSON serialization rounds reals to 12 significant digits and omits
wall-clock fields, making reports byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .conditions import (
    DegreeBounds,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    refuting_demand,
)
from .extremal import (
    g12_min_order,
    g1_join_size,
    build_hnb,
    hnb_witness,
    is_hnb,
    layout_charpoly,
    rho_hnb,
)
from .graph import (GRAPH6_HEADER, Graph, Graph6Error, check_dense_order, is_connected,
                    parse_graph6, to_graph6)
from .oracle import all_ab_factors_oracle, all_fractional_oracle
from .spectral import (RHO_TOL, _poly_eval, _roots_at_least, hong_bound, largest_root,
                       spectral_radius)

MODES = ("integer", "fractional")
QUOTIENT_TOL = 1e-8  # quotient and dense rho(hnb) must agree within this


def stream_graph6(
    source: Iterable[bytes | str], skipped: Optional[list[tuple[int, str]]] = None
) -> Iterator[Graph]:
    """Decode newline-delimited graph6 records lazily, 1-based line numbers.

    A malformed line raises ``Graph6Error`` naming its line when ``skipped``
    is None (strict); otherwise it is skipped and ``(line, reason)`` appended
    to ``skipped``.  A header is accepted once, on line 1, either alone or
    glued to the first record; anywhere else it is a malformed line.
    """
    for lineno, line in enumerate(source, start=1):
        try:
            if isinstance(line, str):
                if not line.isascii():
                    raise Graph6Error("non-ascii character in record")
                line = line.encode("ascii")
            raw = line.rstrip(b"\r\n")
            if not raw or (lineno == 1 and raw == GRAPH6_HEADER):
                continue
            if lineno > 1 and raw.startswith(GRAPH6_HEADER):
                raise Graph6Error("graph6 header is only allowed on line 1")
            yield parse_graph6(raw)
        except Graph6Error as exc:
            if skipped is None:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            skipped.append((lineno, str(exc)))


def load_graph6_file(
    path: str | os.PathLike, skipped: Optional[list[tuple[int, str]]] = None
) -> list[Graph]:
    with open(path, "rb") as fh:
        return list(stream_graph6(fh, skipped))


# -- deterministic parallel sweep ----------------------------------------------


def available_parallelism() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _sweep(fn: Callable, cases: list, workers: Optional[int]) -> list:
    """Order-preserving map, parallel when it pays off; output is identical
    to the sequential run by construction.  ``workers`` (default: the
    available parallelism) is clamped to [1, available parallelism].  Only a
    pool that cannot be created falls back to serial; errors raised by tasks
    propagate."""
    limit = available_parallelism()
    n_workers = limit if workers is None else min(max(1, workers), limit)
    if n_workers <= 1 or len(cases) < 4:
        return [fn(case) for case in cases]
    try:
        pool = multiprocessing.get_context().Pool(n_workers)
    except OSError:  # e.g. sandboxes without /dev/shm
        return [fn(case) for case in cases]
    with pool:
        chunk = max(1, len(cases) // (n_workers * 8))
        return pool.map(fn, cases, chunksize=chunk)


def _decide(g: Graph, a: int, b: int, mode: str) -> bool:
    bounds = DegreeBounds(a, b)
    if mode == "integer":
        return has_all_ab_factors(g, bounds, verdict_first=True).verdict
    return has_all_fractional_ab_factors(g, bounds).verdict


def _mine_case(case: tuple[Graph, int, int, str]) -> Optional[float]:
    """rho of a graph that fails the property; None when it holds."""
    if _decide(*case):
        return None
    return spectral_radius(case[0]).rho


def _suite_case(case: tuple[Graph, int, int, str]) -> tuple[bool, bool]:
    """(decider verdict, oracle verdict).  The integer decider stops at its
    first pair below the threshold, and a FAIL hands the oracle that
    witness's refuting demand to try first, which changes only the oracle's
    search order, not its verdict."""
    g, a, b, mode = case
    bounds = DegreeBounds(a, b)
    if mode == "fractional":
        return has_all_fractional_ab_factors(g, bounds).verdict, all_fractional_oracle(g, bounds)
    report = has_all_ab_factors(g, bounds, verdict_first=True)
    first = None if report.verdict else refuting_demand(g, bounds, report)
    return report.verdict, all_ab_factors_oracle(g, bounds, first)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class MineReport:
    """Spectral-radius maximizer among the graphs lacking the factor property."""

    a: int
    b: int
    n: int
    mode: str
    cases_run: int
    failing_count: int
    max_rho_failing: Optional[float]
    argmax_graph: Optional[str]
    rho_hnb_reference: Optional[float]
    hnb_is_argmax: bool
    elapsed: float


@dataclass(frozen=True)
class SuiteMismatch:
    graph6: str
    a: int
    b: int
    decider: bool
    oracle: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases_run: int
    mismatches: list[SuiteMismatch]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification sweep: empty failures means the claim held."""

    name: str
    cases_run: int
    failures: list[dict]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def mine_extremal(
    graphs: Iterable[Graph],
    bounds: DegreeBounds,
    mode: str,
    workers: Optional[int] = None,
) -> MineReport:
    """Run the exact decider over a same-order catalog and report the
    spectral-radius maximizer among the failing graphs.

    Radii within 2 * RHO_TOL (twice the certified error) of the maximum tie,
    and ties break to the lexicographically-least graph6 record, so the report
    depends neither on scheduling nor on the last bits of the eigensolver.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    t0 = time.perf_counter()
    glist = list(graphs)
    if not glist:
        raise ValueError("empty catalog")
    n = glist[0].n
    if any(g.n != n for g in glist):
        raise ValueError("mine_extremal requires all graphs to have the same order")
    cases = [(g, bounds.a, bounds.b, mode) for g in glist]
    failing = [(rho, g) for rho, g in zip(_sweep(_mine_case, cases, workers), glist)
               if rho is not None]
    max_rho: Optional[float] = None
    argmax: Optional[Graph] = None
    argmax_g6: Optional[str] = None
    if failing:
        top = max(rho for rho, _ in failing)
        tied = [(to_graph6(g).decode("ascii"), rho, g)
                for rho, g in failing if top - rho <= 2 * RHO_TOL]
        argmax_g6, max_rho, argmax = min(tied, key=lambda t: t[0])
    reference = rho_hnb(n, bounds.b) if 2 <= bounds.b <= n - 1 else None
    return MineReport(
        a=bounds.a,
        b=bounds.b,
        n=n,
        mode=mode,
        cases_run=len(glist),
        failing_count=len(failing),
        max_rho_failing=max_rho,
        argmax_graph=argmax_g6,
        rho_hnb_reference=reference,
        hnb_is_argmax=argmax is not None and is_hnb(argmax, bounds.b),
        elapsed=time.perf_counter() - t0,
    )


def equivalence_suite(
    graphs: Iterable[Graph],
    grid: Sequence[tuple[int, int]],
    mode: str,
    nmax: Optional[int] = None,
    workers: Optional[int] = None,
) -> SuiteReport:
    """Decider-versus-oracle agreement over every connected graph of order
    <= nmax in the catalog, for each (a, b) of the grid.

    A catalog and grid that leave zero cases raise ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if nmax is None:
        nmax = 7 if mode == "integer" else 8
    t0 = time.perf_counter()
    kept = [g for g in graphs if 1 <= g.n <= nmax and is_connected(g)]
    cases = [(g, a, b, mode) for g in kept for a, b in grid]
    _require_cases(f"{mode}-equivalence", len(cases))
    mismatches = [
        SuiteMismatch(to_graph6(g).decode("ascii"), a, b, d, o)
        for (g, a, b, _), (d, o) in zip(cases, _sweep(_suite_case, cases, workers))
        if d != o
    ]
    return SuiteReport(
        suite=f"{mode}-equivalence",
        cases_run=len(cases),
        mismatches=mismatches,
        elapsed=time.perf_counter() - t0,
    )


# -- verification sweeps (closed-form values and spectral bounds) --------------


def _require_cases(name: str, cases: int) -> None:
    """A sweep that ran no case shows nothing, so it is a usage error, not a pass."""
    if cases == 0:
        raise ValueError(f"{name}: the sweep ran zero cases")


def _verify_report(name: str, cases: int, failures: list[dict], t0: float) -> VerifyReport:
    _require_cases(name, cases)
    return VerifyReport(name, cases, failures, time.perf_counter() - t0)


def verify_hnb_witnesses(nmax: int) -> VerifyReport:
    """The deficiency functional at S = {} and T = the hub of hnb: exactly -2
    (integer) and -1 (fractional, where the hub is the T the functional
    derives) for every 3 <= b < n <= nmax."""
    check_dense_order(nmax, "construction")  # before the loop builds every smaller order
    t0 = time.perf_counter()
    cases = 0
    failures = []
    for n in range(4, nmax + 1):
        for b in range(3, n):
            for mode, expected in (("integer", -2), ("fractional", -1)):
                if mode == "fractional" and b > n - 2:
                    continue  # the fractional witness needs b <= n - 2
                cases += 1
                value, witness_t = hnb_witness(n, b, mode)
                if value != expected or witness_t != {0}:
                    failures.append({"n": n, "b": b, "mode": mode, "value": value,
                                     "witness_T": sorted(witness_t)})
    return _verify_report("hnb-witnesses", cases, failures, t0)


def verify_g1_g2_bounds(amax: int, bmax: int) -> VerifyReport:
    """At the minimum claimed order: exact signs of the g1 quotient polynomial
    at n - 2 and n - 3, and rho(g1), rho(g2) < n - 2 by exact root counts."""
    t0 = time.perf_counter()
    cases = 0
    failures = []
    for b in range(1, bmax + 1):
        for a in range(1, min(b, amax) + 1):
            n = g12_min_order(a, b)
            cases += 1
            fail: dict = {}
            c = g1_join_size(a, b)
            coeffs = layout_charpoly(2, c, n - c - 2)
            f_nm2 = _poly_eval(coeffs, n - 2)
            f_nm3 = _poly_eval(coeffs, n - 3)
            if not (f_nm2 > 0):
                fail["f_nm2"] = str(f_nm2)
            if f_nm3 != -2 * c * c or not (f_nm3 < 0):
                fail["f_nm3"] = str(f_nm3)
            for key, poly in (("rho_g1", coeffs),
                              ("rho_g2", layout_charpoly(2, 4 * b, n - 4 * b - 2))):
                if _roots_at_least(poly, n - 2):
                    fail[key] = largest_root(poly, n - 1)
            if fail:
                failures.append({"a": a, "b": b, "n": n, **fail})
    return _verify_report("g1-g2-spectral-bounds", cases, failures, t0)


def verify_hong(graphs: Iterable[Graph]) -> VerifyReport:
    """rho(G) <= sqrt(2m - n + 1) + RHO_TOL, rho's certified error, on every
    connected graph supplied, so K_n and K_{1,n-1} (equality) pass."""
    t0 = time.perf_counter()
    cases = 0
    failures = []
    for g in graphs:
        if g.n < 1 or not is_connected(g):
            continue
        cases += 1
        rho = spectral_radius(g).rho
        bound = hong_bound(g)
        if rho > bound + RHO_TOL:
            failures.append({"graph6": to_graph6(g).decode("ascii"), "rho": rho, "bound": bound})
    return _verify_report("hong-bound", cases, failures, t0)


def verify_quotient_transfer(ns: Sequence[int], bs: Sequence[int]) -> VerifyReport:
    """The closed-form rho_hnb equals the dense spectral radius of the built
    hnb within QUOTIENT_TOL, and n - 2 < rho < n - 1 in every case."""
    t0 = time.perf_counter()
    cases = 0
    failures = []
    for n in ns:
        for b in bs:
            if not 2 <= b <= n - 1:
                continue
            cases += 1
            via_quotient = rho_hnb(n, b)
            dense = spectral_radius(build_hnb(n, b)).rho
            fail: dict = {}
            if abs(via_quotient - dense) > QUOTIENT_TOL:
                fail["quotient"] = via_quotient
                fail["dense"] = dense
            if not n - 2 < via_quotient < n - 1:
                fail["rho_out_of_range"] = via_quotient
            if fail:
                failures.append({"n": n, "b": b, **fail})
    return _verify_report("quotient-transfer", cases, failures, t0)


def verify_k1_join_bound(ns: Sequence[int]) -> VerifyReport:
    """rho(K_1 joined to (K_r u K_{n-1-r})) < n - 2 for 2 <= r <= n-3, by an
    exact count: no root of the quotient polynomial is >= n - 2."""
    t0 = time.perf_counter()
    cases = 0
    failures = []
    for n in ns:
        for r in range(2, n - 2):
            cases += 1
            coeffs = layout_charpoly(r, 1, n - 1 - r)
            if _roots_at_least(coeffs, n - 2):
                failures.append({"n": n, "r": r, "rho": largest_root(coeffs, n - 1)})
    return _verify_report("hub-two-cliques-bound", cases, failures, t0)


# -- JSON serialization ---------------------------------------------------------

SCHEMA_VERSION = 4


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def versioned(payload: dict) -> dict:
    """``payload`` as it is printed: schema field added, reals rounded to 12
    significant digits.  Every ``--json`` line goes through here."""
    return {"schema": SCHEMA_VERSION, **_round12(payload)}


def report_to_dict(report) -> dict:
    """Dataclass report -> ``versioned`` dict, wall-clock dropped for
    byte-stable output."""
    data = dataclasses.asdict(report)
    data.pop("elapsed", None)
    return versioned(data)
