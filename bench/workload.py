"""One workload in one process: set up, warm up, send the timed requests
through ``factorspec.cli.main`` in-process, and write every output for the
checker.  run.py starts this with PYTHONPATH=src and one thread per library;
see README.md.

    python3 bench/workload.py --workload check --seed 1 --seconds 5 \
        --trace 0 --work .bench_run/check --out .bench_run/check/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402  (stdlib only at import time)

# Each run repeats whole rounds of the same requests until --seconds have
# passed, and at least MIN_ROUNDS of them, so that every run has enough
# requests for its tail percentile (see TAIL_PERCENTILE in run.py).
MIN_ROUNDS = {"suite": 3, "mine-hong": 3, "check": 5}
WARMUP = {"suite": 4, "mine-hong": 8, "check": 4}


def _write(work: str, name: str, lines) -> str:
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write("".join(f"{line}\n" for line in lines))
    return path


def _catalog(n: int) -> list[bytes]:
    with open(os.path.join(inputs.CATALOG_DIR, f"graphs{n}.g6"), "rb") as fh:
        return fh.read().split()


def suite_requests(work: str, seed: int) -> list[dict]:
    from factorspec.graph import is_connected, parse_graph6

    connected = [
        (n, line.decode("ascii"))
        for n in range(1, 9)
        for line in _catalog(n)
        if is_connected(parse_graph6(line))
    ]
    sample_rng = random.Random(inputs.SUITE_SAMPLE_SEED)
    requests = []
    for mode, spec in (("integer", inputs.SUITE_INTEGER), ("fractional", inputs.SUITE_FRACTIONAL)):
        nmax = spec["nmax"]
        sample = sample_rng.sample([line for n, line in connected if n <= nmax], spec["graphs"])
        for i, chunk in enumerate(inputs.chunk_lines(sample, inputs.SUITE_CHUNK)):
            rid = f"suite-{mode}-{i:02d}"
            path = _write(work, rid + ".g6", chunk)
            requests.append({
                "id": rid, "kind": "suite", "mode": mode, "nmax": nmax, "input": path,
                "argv": ["suite", "--input", path, "--mode", mode, "--nmax", str(nmax),
                         "--grid", inputs.GRID_ARG, "--workers", "1", "--json"],
            })
    return requests


def mine_hong_requests(work: str, seed: int) -> list[dict]:
    lines = [line.decode("ascii") for line in _catalog(inputs.MINE_ORDER)]
    requests = []
    every_chunk = []
    for start in inputs.mine_chunk_starts(len(lines)):
        chunk = lines[start:start + inputs.MINE_CHUNK]
        every_chunk += chunk
        path = _write(work, f"mine-{start:05d}.g6", chunk)
        for a, b in inputs.GRID:
            requests.append({
                "id": f"mine-{start:05d}-{a}{b}", "kind": "mine", "input": path,
                "start": start, "size": len(chunk), "a": a, "b": b,
                "argv": ["mine", "--input", path, "--mode", "fractional", "--a", str(a),
                         "--b", str(b), "--workers", "1", "--json"],
            })
    # one verify hong over all the chunks: per chunk it would be a second,
    # much shorter kind of request, and the median would sit on the border
    # between the two kinds
    path = _write(work, "hong.g6", every_chunk)
    requests.append({"id": "hong", "kind": "hong", "input": path,
                     "argv": ["verify", "hong", "--input", path, "--json"]})
    return requests


def check_requests(work: str, seed: int) -> list[dict]:
    from factorspec.extremal import build_hnb
    from factorspec.graph import to_graph6

    requests = []
    for item in inputs.decision_pool():
        g6 = inputs.graph6_from_edges(item["n"], item["edges"])
        argv = ["check", "--g6", g6, "--mode", item["mode"], "--json"]
        req = {"id": item["name"], "kind": "decision", "mode": item["mode"], "graph6": g6}
        if item["mode"] == "gf":
            req["g"], req["f"] = item["g"], item["f"]
            argv += ["--g", _write(work, item["name"] + ".g", [" ".join(map(str, item["g"]))]),
                     "--f", _write(work, item["name"] + ".f", [" ".join(map(str, item["f"]))])]
        else:
            req["a"], req["b"] = item["a"], item["b"]
            argv += ["--a", str(item["a"]), "--b", str(item["b"])]
        requests.append({**req, "argv": argv})
    for name, mode, n, b, a in inputs.HNB_DECISIONS:
        g6 = to_graph6(build_hnb(n, b)).decode("ascii")
        requests.append({
            "id": name, "kind": "decision", "mode": mode, "graph6": g6, "a": a, "b": b,
            "hnb": [n, b],
            "argv": ["check", "--g6", g6, "--mode", mode, "--a", str(a), "--b", str(b), "--json"],
        })
    for name, n, g6 in inputs.rho_random_graphs(seed):
        requests.append({"id": name, "kind": "rho", "graph6": g6, "n": n,
                         "argv": ["rho", "--g6", g6, "--json"]})
    for n, b in inputs.RHO_HNB:
        g6 = to_graph6(build_hnb(n, b)).decode("ascii")
        requests.append({"id": f"rho-hnb-n{n}-b{b}", "kind": "rho", "graph6": g6, "n": n,
                         "hnb": [n, b], "argv": ["rho", "--g6", g6, "--json"]})
    return requests


BUILDERS = {"suite": suite_requests, "mine-hong": mine_hong_requests, "check": check_requests}


class Runner:
    """Sends requests through ``factorspec.cli.main`` and keeps each distinct
    output of each request, with how often the timed phase ran it."""

    def __init__(self, cli):
        self.cli = cli
        self.records: dict[str, dict] = {}

    def run(self, req: dict, timed: bool) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(req["argv"])
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
            except Exception as exc:  # an escaped internal error is a failed request
                rc = f"exception {type(exc).__name__}: {exc}"
        rec = self.records.setdefault(req["id"], {"request": req, "runs": 0, "outputs": []})
        rec["runs"] += timed
        result = [rc, out.getvalue(), err.getvalue()[-2000:]]
        if result not in rec["outputs"]:
            rec["outputs"].append(result)

    def round(self, order: list[dict], latencies: list[float]) -> float:
        clock = time.perf_counter
        begin = clock()
        for req in order:
            start = clock()
            self.run(req, timed=True)
            latencies.append(clock() - start)
        return clock() - begin


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for input files")
    p.add_argument("--out", required=True, help="result file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    t0 = time.perf_counter()
    import factorspec
    import factorspec.cli

    requests = BUILDERS[args.workload](args.work, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    order = list(requests)
    random.Random(args.seed).shuffle(order)
    runner = Runner(factorspec.cli)
    for req in order[:WARMUP[args.workload]]:
        runner.run(req, timed=False)

    latencies: list[float] = []
    result = {"setup_s": setup_s, "requests": len(order)}
    if not args.trace:
        cpu0, begin = time.process_time(), time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS[args.workload] or time.perf_counter() - begin < args.seconds:
            runner.round(order, latencies)
            rounds += 1
        result["wall_s"] = time.perf_counter() - begin
        result["cpu_s"] = time.process_time() - cpu0
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from spans import Tracer

        tracer = Tracer(factorspec)
        plain, traced, cpu = [], [], []
        begin = time.perf_counter()
        while len(traced) < 1 or time.perf_counter() - begin < args.seconds:
            # alternate which of the pair goes first, so drift cancels
            for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced.append(runner.round(order, latencies))
                    finally:
                        tracer.uninstall()
                else:
                    cpu0 = time.process_time()
                    plain.append(runner.round(order, latencies))
                    cpu.append(time.process_time() - cpu0)
        result["rounds"] = len(plain) + len(traced)
        trace = tracer.metrics(len(traced), sum(traced))
        plain_round, traced_round = sum(plain) / len(plain), sum(traced) / len(traced)
        trace["process.cpu_per_wall"] = sum(cpu) / sum(plain)
        trace["trace.overhead_s"] = traced_round - plain_round
        trace["trace.overhead_share"] = (traced_round - plain_round) / plain_round
        trace["trace.round_s"] = plain_round
        result["trace"] = trace
    result["latencies_s"] = latencies
    result["records"] = runner.records
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
