"""Catalog streaming, mining, equivalence suites, verification sweeps, JSON."""

import dataclasses
import io
import json
import os

import pytest

from factorspec import harness, oracle, spectral
from factorspec import (
    DegreeBounds,
    Graph6Error,
    build_hnb,
    enumerate_admissible,
    parse_graph6,
    spectral_radius,
    to_graph6,
)
from factorspec.conditions import has_all_fractional_ab_factors
from factorspec.harness import (
    MineReport,
    SuiteMismatch,
    SuiteReport,
    equivalence_suite,
    load_graph6_file,
    mine_extremal,
    report_to_dict,
    stream_graph6,
    verify_g1_g2_bounds,
    verify_hnb_witnesses,
    verify_hong,
    verify_k1_join_bound,
    verify_quotient_transfer,
)
from catalogs import complete, connected_graphs, disjoint_union


class TestStreamGraph6:
    def test_two_records(self):
        graphs = list(stream_graph6(io.BytesIO(b"Bw\nA_\n")))
        assert [g.n for g in graphs] == [3, 2]
        assert graphs[0].rows == complete(3).rows

    def test_empty_input(self):
        assert list(stream_graph6(io.BytesIO(b""))) == []

    def test_strict_error_carries_line_number(self):
        with pytest.raises(Graph6Error, match="line 2"):
            list(stream_graph6(io.BytesIO(b"Bw\nB\n")))

    def test_lenient_skips_and_counts(self):
        skipped = []
        graphs = list(stream_graph6(io.BytesIO(b"Bw\nB\nA_\n"), skipped))
        assert [g.n for g in graphs] == [3, 2]
        assert len(skipped) == 1 and skipped[0][0] == 2

    def test_header_line(self):
        graphs = list(stream_graph6(io.BytesIO(b">>graph6<<\nBw\n")))
        assert len(graphs) == 1
        graphs = list(stream_graph6(io.BytesIO(b">>graph6<<Bw\nA_\n")))
        assert [g.n for g in graphs] == [3, 2]

    def test_header_after_line_one_is_malformed(self):
        reason = "graph6 header is only allowed on line 1"
        # glued to a record, then alone on its line
        for data, line in ((b"Bw\nA_\n>>graph6<<Bw\n", 3), (b"Bw\n>>graph6<<\nA_\n", 2)):
            with pytest.raises(Graph6Error, match=f"line {line}: {reason}"):
                list(stream_graph6(io.BytesIO(data)))
            skipped = []
            assert [g.n for g in stream_graph6(io.BytesIO(data), skipped)] == [3, 2]
            assert skipped == [(line, reason)]

    def test_str_lines_accepted(self):
        assert [g.n for g in stream_graph6(["Bw", "A_"])] == [3, 2]

    def test_non_ascii_rejected(self):
        with pytest.raises(Graph6Error, match="line 1"):
            list(stream_graph6(["Bé"]))
        skipped = []
        assert list(stream_graph6(["Bé", "Bw"], skipped))[0].n == 3
        assert skipped == [(1, "non-ascii character in record")]

    def test_blank_lines_skipped(self):
        assert [g.n for g in stream_graph6(io.BytesIO(b"Bw\n\nA_\n"))] == [3, 2]

    def test_load_file(self, tmp_path):
        path = tmp_path / "cat.g6"
        path.write_bytes(b"Bw\nA_\n")
        assert [g.n for g in load_graph6_file(path)] == [3, 2]
        path.write_bytes(b"Bw\nB\nA_\n")
        with pytest.raises(Graph6Error, match="line 2"):
            load_graph6_file(path)
        skipped = []
        assert [g.n for g in load_graph6_file(path, skipped)] == [3, 2]
        assert [line for line, _ in skipped] == [2]


class TestMineExtremal:
    def test_single_failing_hnb(self):
        report = mine_extremal([build_hnb(8, 3)], DegreeBounds(1, 3), "integer")
        assert report.failing_count == 1
        assert report.hnb_is_argmax
        assert abs(report.max_rho_failing - spectral_radius(build_hnb(8, 3)).rho) < 1e-8
        assert report.rho_hnb_reference is not None

    def test_no_failures(self):
        report = mine_extremal([complete(8)], DegreeBounds(1, 2), "integer")
        assert report.failing_count == 0
        assert report.max_rho_failing is None and report.argmax_graph is None
        assert not report.hnb_is_argmax

    def test_argmax_reproducible(self):
        graphs = connected_graphs(6)
        report = mine_extremal(graphs, DegreeBounds(1, 2), "fractional", workers=1)
        assert report.failing_count > 0
        argmax = parse_graph6(report.argmax_graph)
        assert not has_all_fractional_ab_factors(argmax, DegreeBounds(1, 2)).verdict
        assert abs(spectral_radius(argmax).rho - report.max_rho_failing) < 1e-8
        # hnb(6,2) fails the fractional property, so it is among the failing set
        assert not has_all_fractional_ab_factors(build_hnb(6, 2), DegreeBounds(1, 2)).verdict
        assert report.max_rho_failing >= rho_from_quotient(6, 2) - 1e-8

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            mine_extremal([complete(4), complete(5)], DegreeBounds(1, 2), "integer")
        with pytest.raises(ValueError):
            mine_extremal([], DegreeBounds(1, 2), "integer")
        with pytest.raises(ValueError):
            mine_extremal([complete(4)], DegreeBounds(1, 2), "approximate")

    def test_cospectral_tie_independent_of_order(self):
        # both have rho = 2 and fail fractional [1,2]; their floats need not agree
        first, second = parse_graph6("E?ow"), parse_graph6("EEh_")
        weaker = parse_graph6("ECp_")  # the path P6: fails too, with rho < 2
        reports = [
            mine_extremal(order, DegreeBounds(1, 2), "fractional", workers=1)
            for order in ([first, second, weaker], [weaker, second, first])
        ]
        assert [r.failing_count for r in reports] == [3, 3]
        assert [r.argmax_graph for r in reports] == ["E?ow", "E?ow"]
        assert report_to_dict(reports[0]) == report_to_dict(reports[1])
        assert abs(reports[0].max_rho_failing - 2.0) < 1e-9

    @pytest.mark.parametrize("gap, argmax", [(1.5, "E?ow"), (3.0, "EEh_")])
    def test_ties_within_twice_the_certified_error(self, monkeypatch, gap, argmax):
        # each radius is within RHO_TOL of exact, so radii 2 * RHO_TOL apart
        # may be one exact radius and tie to the least graph6; wider gaps do not
        radii = {"E?ow": 3.0, "EEh_": 3.0 + gap * spectral.RHO_TOL, "ECp_": 1.0}
        monkeypatch.setattr(harness, "spectral_radius", lambda g: spectral.SpectralResult(
            radii[to_graph6(g).decode()], 0.0, 0, "dense-eigh"))
        graphs = [parse_graph6(g6) for g6 in radii]
        report = mine_extremal(graphs, DegreeBounds(1, 2), "fractional", workers=1)
        assert report.failing_count == 3
        assert (report.argmax_graph, report.max_rho_failing) == (argmax, radii[argmax])

    def test_no_graph6_round_trip(self, monkeypatch):
        calls = {"parse": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "parse_graph6", counted("parse", harness.parse_graph6))
        monkeypatch.setattr(harness, "to_graph6", counted("encode", harness.to_graph6))
        graphs = connected_graphs(6)
        report = mine_extremal(graphs, DegreeBounds(1, 2), "fractional", workers=1)
        assert report.failing_count > 0
        assert calls == {"parse": 0, "encode": 1}  # only the single maximizer
        calls["encode"] = 0
        suite = equivalence_suite(graphs, [(1, 2)], "fractional", nmax=6, workers=1)
        assert suite.passed and calls == {"parse": 0, "encode": 0}

    def test_worker_count_does_not_change_report(self):
        graphs = connected_graphs(5)
        one = mine_extremal(graphs, DegreeBounds(1, 2), "integer", workers=1)
        two = mine_extremal(graphs, DegreeBounds(1, 2), "integer", workers=2)
        assert report_to_dict(one) == report_to_dict(two)


def rho_from_quotient(n, b):
    from factorspec import rho_hnb

    return rho_hnb(n, b)


def reported(verdict_of):
    """A stand-in for ``harness.has_all_ab_factors``: the real report, with
    its verdict replaced by ``verdict_of(real verdict)``."""
    decide = harness.has_all_ab_factors

    def wrong(g, bounds, **keywords):
        report = decide(g, bounds, **keywords)
        return dataclasses.replace(report, verdict=verdict_of(report.verdict))

    return wrong


class TestEquivalenceSuite:
    def test_integer_small_catalog_passes(self):
        graphs = [g for k in range(1, 6) for g in connected_graphs(k)]
        report = equivalence_suite(graphs, [(1, 2), (2, 3)], "integer", nmax=5)
        assert report.passed
        assert report.cases_run == len(graphs) * 2

    def test_fractional_small_catalog_passes(self):
        graphs = connected_graphs(5)
        report = equivalence_suite(graphs, [(1, 2)], "fractional", nmax=5)
        assert report.passed

    def test_disconnected_and_oversized_filtered(self):
        graphs = [disjoint_union(complete(2), complete(2)), complete(9), complete(3)]
        report = equivalence_suite(graphs, [(1, 2)], "integer", nmax=7)
        assert report.cases_run == 1

    def test_corrupted_decider_is_caught(self, monkeypatch):
        from factorspec import has_all_ab_factors

        # deliberately wrong on every case: a wrong FAIL carries the real
        # witness, and its refuting demand has a factor
        monkeypatch.setattr(harness, "has_all_ab_factors", reported(lambda verdict: not verdict))
        graphs = connected_graphs(4)
        report = equivalence_suite(graphs, [(1, 2)], "integer", nmax=4, workers=1)
        assert not report.passed
        assert len(report.mismatches) == report.cases_run == len(graphs)
        assert {mism.decider for mism in report.mismatches} == {True, False}
        # every mismatch names its graph, and the oracle sides with the real decider
        for mism in report.mismatches:
            truth = has_all_ab_factors(parse_graph6(mism.graph6), DegreeBounds(mism.a, mism.b))
            assert mism.oracle == truth.verdict != mism.decider

    def test_sweep_path_mismatch_names_its_graph(self, monkeypatch):
        from factorspec import has_all_ab_factors

        monkeypatch.setattr(harness, "has_all_ab_factors", reported(lambda verdict: True))
        report = equivalence_suite(connected_graphs(4), [(1, 2), (2, 3)], "integer",
                                   nmax=4, workers=1)
        assert report.mismatches
        for mism in report.mismatches:
            assert mism.decider and not mism.oracle
            g = parse_graph6(mism.graph6)
            assert not has_all_ab_factors(g, DegreeBounds(mism.a, mism.b)).verdict

    def test_wrong_fail_on_a_passing_graph_falls_back_to_enumeration(self, monkeypatch):
        from factorspec import has_all_ab_factors, has_h_factor
        from factorspec.conditions import refuting_demand

        monkeypatch.setattr(harness, "has_all_ab_factors", reported(lambda verdict: False))
        tried = []
        monkeypatch.setattr(oracle, "has_h_factor", lambda g, h: tried.append(tuple(h))
                            or has_h_factor(g, h))
        g, bounds = complete(5), DegreeBounds(1, 2)
        wrong = dataclasses.replace(has_all_ab_factors(g, bounds), verdict=False)
        first = refuting_demand(g, bounds, wrong)
        assert has_h_factor(g, first)[0]
        report = equivalence_suite([g], [(1, 2)], "integer", nmax=5, workers=1)
        assert report.mismatches == [SuiteMismatch(to_graph6(g).decode("ascii"), 1, 2,
                                                   decider=False, oracle=True)]
        # the certificate first, then every admissible demand
        assert tried == [first, *enumerate_admissible(5, bounds)]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            equivalence_suite([complete(3)], [(1, 2)], "neither")


class TestVerifySweeps:
    def test_hnb_witnesses(self):
        report = verify_hnb_witnesses(nmax=12)
        assert report.passed and report.cases_run > 0

    def test_g1_g2_bounds_small(self):
        report = verify_g1_g2_bounds(amax=2, bmax=2)
        assert report.passed

    def test_hong(self):
        report = verify_hong(connected_graphs(5))
        assert report.passed and report.cases_run == len(connected_graphs(5))

    def test_quotient_transfer(self):
        report = verify_quotient_transfer(ns=(10, 40), bs=(2, 3))
        assert report.passed and report.cases_run == 4

    def test_k1_join(self):
        report = verify_k1_join_bound(ns=(10, 20))
        assert report.passed and report.cases_run == (10 - 4) + (20 - 4)


class TestJsonReports:
    def test_schema_and_rounding(self):
        report = MineReport(
            a=1, b=2, n=5, mode="integer", cases_run=3, failing_count=1,
            max_rho_failing=1.0 / 3.0, argmax_graph="Bw",
            rho_hnb_reference=2.0 / 3.0, hnb_is_argmax=False, elapsed=1.23,
        )
        data = json.loads(json.dumps(report_to_dict(report)))
        assert data["schema"] == 4
        assert data["max_rho_failing"] == 0.333333333333
        assert data["rho_hnb_reference"] == 0.666666666667
        assert "elapsed" not in data

    def test_suite_report_dict(self):
        report = SuiteReport(suite="integer-equivalence", cases_run=2, mismatches=[], elapsed=0.5)
        data = report_to_dict(report)
        assert data["schema"] == 4 and data["mismatches"] == []
        assert report.passed

    def test_json_sorted_keys_stable(self):
        report = SuiteReport(suite="x", cases_run=0, mismatches=[], elapsed=0.0)
        text = json.dumps(report_to_dict(report), sort_keys=True)
        assert text == json.dumps(report_to_dict(report), sort_keys=True)
        assert list(json.loads(text)) == sorted(json.loads(text))


def pin_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class FakeContext:
    """Stands in for a multiprocessing context; no process ever starts."""

    def __init__(self, create_error=None, map_error=None):
        self.create_error = create_error
        self.map_error = map_error
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        if self.create_error is not None:
            raise self.create_error
        return FakePool(self.map_error)


class FakePool:
    def __init__(self, map_error):
        self.map_error = map_error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cases, chunksize=1):
        if self.map_error is not None:
            raise self.map_error
        return [fn(case) for case in cases]


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        # ``workers=`` is the only override; FACTORSPEC_WORKERS is not read.
        pin_cpus(monkeypatch, 8)
        ctx = FakeContext()
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        monkeypatch.setenv("FACTORSPEC_WORKERS", "3")
        assert harness._sweep(abs, [-1, -2, -3, -4], None) == [1, 2, 3, 4]
        assert harness._sweep(abs, [-1, -2, -3, -4], 5) == [1, 2, 3, 4]
        monkeypatch.setenv("FACTORSPEC_WORKERS", "0")
        assert harness._sweep(abs, [-1, -2, -3, -4], 3) == [1, 2, 3, 4]
        assert ctx.sizes == [8, 5, 3]

    def test_env_clamped_to_affinity(self, monkeypatch):
        pin_cpus(monkeypatch, 3)
        ctx = FakeContext()
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        monkeypatch.setenv("FACTORSPEC_WORKERS", "100000")
        assert harness.available_parallelism() == 3
        assert harness._sweep(abs, [-1, -2, -3, -4], None) == [1, 2, 3, 4]
        monkeypatch.delenv("FACTORSPEC_WORKERS")
        assert harness._sweep(abs, [-1, -2, -3, -4], 100000) == [1, 2, 3, 4]
        assert ctx.sizes == [3, 3]

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness.available_parallelism() == 5


class TestSweepPool:
    def test_pool_size_clamped(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        ctx = FakeContext()
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        assert harness._sweep(abs, [-1, -2, -3, -4], 100000) == [1, 2, 3, 4]
        assert harness._sweep(abs, [-1, -2, -3, -4], None) == [1, 2, 3, 4]
        assert harness._sweep(abs, [-1, -2, -3, -4], 0) == [1, 2, 3, 4]  # serial, no pool
        assert ctx.sizes == [2, 2]

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        pin_cpus(monkeypatch, 4)
        ctx = FakeContext(create_error=PermissionError("no /dev/shm"))
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        assert harness._sweep(abs, [-1, -2, -3, -4], 4) == [1, 2, 3, 4]
        assert ctx.sizes == [4]

    def test_task_oserror_propagates(self, monkeypatch):
        pin_cpus(monkeypatch, 4)
        ctx = FakeContext()
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        seen = []

        def task(case):
            seen.append(case)
            if case == 3:
                raise OSError("task failed")
            return case

        with pytest.raises(OSError, match="task failed"):
            harness._sweep(task, [1, 2, 3, 4], 4)
        assert ctx.sizes == [4]
        assert seen == [1, 2, 3]  # no serial re-run of the sweep

    def test_pool_map_oserror_propagates(self, monkeypatch):
        pin_cpus(monkeypatch, 4)
        ctx = FakeContext(map_error=OSError("worker died"))
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: ctx)
        with pytest.raises(OSError, match="worker died"):
            harness._sweep(abs, [-1, -2, -3, -4], 4)
