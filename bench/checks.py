"""Checks of every output a workload produced, made apart from the program.

Nothing here imports factorspec.  Graphs are decoded with networkx (or, for
the large rho inputs, with the numpy decoder in inputs.py), functionals are
re-evaluated from their definitions, spectral radii come from
``numpy.linalg.eigvalsh``, and verdicts the workload cannot certify on the
spot are compared with references.json, which references.py rebuilds
through routes apart from the deciders.

Each request ends in one of three states: ``ok``; ``error`` (the program
raised, exited 2, or printed nothing readable: the operation failed); or
``wrong`` (it answered, and the answer is false: the operation failed and the
run is not correct).
"""

from __future__ import annotations

import json
import os

import networkx as nx
import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
RHO_TOL = 1e-9  # relative; JSON keeps 12 significant digits


class Wrong(Exception):
    """The program answered, and the answer is false."""


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _graph(record: str) -> nx.Graph:
    return nx.from_graph6_bytes(record.encode("ascii"))


def _catalog_graphs(path: str) -> list[nx.Graph]:
    with open(path) as fh:
        return [_graph(line) for line in fh.read().split()]


def _largest_eigenvalue(adj: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(adj)[-1])


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= RHO_TOL * max(1.0, abs(y))


def _deg_excluding(g: nx.Graph, v, excluded: set) -> int:
    return sum(1 for u in g[v] if u not in excluded)


def delta_value(g: nx.Graph, a: int, b: int, s: set, t: set) -> int:
    """a|S| - b|T| + sum_{x in T} d_{G-S}(x) - (components of G - S - T)."""
    rest = g.subgraph(set(g) - s - t)
    return (a * len(s) - b * len(t) + sum(_deg_excluding(g, x, s) for x in t)
            - nx.number_connected_components(rest))


def gf_value(g: nx.Graph, gf: list[int], ff: list[int], d: set, s: set) -> int:
    """g(D) - f(S) + sum_{x in S} d_{G-D}(x) - q*, where q* counts components C
    of G - D - S with some g < f on C, or with e(C, S) + f(C) odd."""
    q_star = 0
    for comp in nx.connected_components(g.subgraph(set(g) - d - s)):
        parity = sum(ff[v] for v in comp) + sum(1 for v in comp for u in g[v] if u in s)
        if parity % 2 == 1 or any(gf[v] < ff[v] for v in comp):
            q_star += 1
    return (sum(gf[v] for v in d) - sum(ff[v] for v in s)
            + sum(_deg_excluding(g, x, d) for x in s) - q_star)


def theta_value(g: nx.Graph, a: int, b: int, s: set) -> tuple[int, set]:
    """a|S| - b|T| + sum_{x in T} d_{G-S}(x), T = {v not in S : d_{G-S}(v) < b}."""
    t = {v for v in g if v not in s and _deg_excluding(g, v, s) < b}
    return a * len(s) - b * len(t) + sum(_deg_excluding(g, x, s) for x in t), t


def has_fractional_factor(g: nx.Graph, p: dict) -> bool:
    """Whether G has a [0,1]-edge weighting with weighted degree p(v) at every v.

    That holds exactly when the bipartite double cover has a flow saturating
    source arcs of capacity p(v) into the left copy and sink arcs of capacity
    p(v) out of the right copy, with unit capacity on u_L -> v_R for each
    edge uv in either direction: averaging the two arcs of an edge gives the
    weighting, and a weighting used on both arcs gives the flow.
    """
    cover = nx.DiGraph()
    for v in g:
        cover.add_edge("s", ("L", v), capacity=p[v])
        cover.add_edge(("R", v), "t", capacity=p[v])
    for u, v in g.edges():
        cover.add_edge(("L", u), ("R", v), capacity=1)
        cover.add_edge(("L", v), ("R", u), capacity=1)
    return nx.maximum_flow_value(cover, "s", "t") == sum(p.values())


# -- per-kind checks -----------------------------------------------------------


def _connected_upto(path: str, nmax: int) -> int:
    return sum(1 for g in _catalog_graphs(path)
               if 1 <= len(g) <= nmax and nx.is_connected(g))


def check_suite(req: dict, rc, out: dict, refs: dict) -> None:
    _expect(rc == 0, f"exit {rc} for a passing suite")
    _expect(out["suite"] == f"{req['mode']}-equivalence", f"suite name {out['suite']}")
    _expect(out["mismatches"] == [], f"{len(out['mismatches'])} mismatches")
    expected = _connected_upto(req["input"], req["nmax"]) * len(inputs.GRID)
    _expect(out["cases_run"] == expected, f"cases_run {out['cases_run']} != {expected}")


def check_mine(req: dict, rc, out: dict, refs: dict) -> None:
    ref = refs["mine"][f"{req['start']}:{req['a']},{req['b']}"]
    _expect(rc == 0, f"exit {rc}")
    _expect((out["a"], out["b"], out["n"], out["mode"]) == (req["a"], req["b"], 8, "fractional"),
            "echoed parameters differ")
    _expect(out["cases_run"] == req["size"], f"cases_run {out['cases_run']} != {req['size']}")
    _expect(out["failing_count"] == ref["failing_count"],
            f"failing_count {out['failing_count']} != reference {ref['failing_count']}")
    if ref["max_rho"] is None:
        _expect(out["max_rho_failing"] is None and out["argmax_graph"] is None,
                "a maximizer reported with no failing graph")
        return
    rho = out["max_rho_failing"]
    argmax = _largest_eigenvalue(inputs.matrix_from_graph6(out["argmax_graph"]))
    _expect(_close(rho, argmax), f"max_rho_failing {rho} != eigvalsh(argmax) {argmax}")
    _expect(_close(rho, ref["max_rho"]), f"max_rho_failing {rho} != reference {ref['max_rho']}")


def check_hong(req: dict, rc, out: dict, refs: dict) -> None:
    _expect(rc == 0, f"exit {rc}")
    _expect(out["name"] == "hong-bound" and out["failures"] == [], "hong bound failed")
    expected = _connected_upto(req["input"], 10**9)
    _expect(out["cases_run"] == expected, f"cases_run {out['cases_run']} != {expected}")


def _is_hnb(g: nx.Graph, n: int, b: int) -> bool:
    rest = g.subgraph(range(1, n))
    return (len(g) == n and g.degree(0) == b - 1
            and rest.number_of_edges() == (n - 1) * (n - 2) // 2)


def check_decision(req: dict, rc, out: dict, refs: dict) -> None:
    g = _graph(req["graph6"])
    mode = req["mode"]
    s, t = set(out["witness_S"]), set(out["witness_T"])
    _expect(out["mode"] == mode, f"mode {out['mode']}")
    if mode == "integer":
        value = delta_value(g, req["a"], req["b"], s, t)
        verdict = value >= -1
    elif mode == "gf":
        value = gf_value(g, req["g"], req["f"], s, t)
        verdict = value >= (0 if req["g"] == req["f"] else -1)
    else:
        value, derived = theta_value(g, req["a"], req["b"], s)
        _expect(t == derived, f"witness_T {sorted(t)} != derived T {sorted(derived)}")
        verdict = value >= 0
    _expect(out["min_value"] == value,
            f"min_value {out['min_value']} != functional at the witness {value}")
    _expect(out["verdict"] == verdict, f"verdict {out['verdict']} with min_value {value}")
    _expect(rc == (0 if verdict else 1), f"exit {rc} for verdict {verdict}")
    if "hnb" in req:
        _expect(_is_hnb(g, *req["hnb"]), "input is not hnb(n, b)")
        _expect(not verdict, "hnb(n, b) passes, against the hub lemma")
    else:
        ref = refs["check"][req["id"]]
        _expect(ref["graph6"] == req["graph6"], "pool input differs from the reference's")
        _expect(verdict == ref["verdict"], f"verdict {verdict} != reference {ref['verdict']}")
    if mode == "fractional" and not verdict:
        a, b = req["a"], req["b"]
        demand = {v: b if v in t else a for v in g}
        _expect(not has_fractional_factor(g, demand),
                "the witness's demand has a fractional factor")


def check_rho(req: dict, rc, out: dict, refs: dict) -> None:
    _expect(rc == 0, f"exit {rc}")
    _expect(out["n"] == req["n"], f"n {out['n']}")
    adj = inputs.matrix_from_graph6(req["graph6"])
    exact = _largest_eigenvalue(adj)
    _expect(_close(out["rho"], exact), f"rho {out['rho']} != eigvalsh {exact}")
    if "hnb" in req:
        n, b = req["hnb"]
        _expect(adj[0].sum() == b - 1 and adj[1:, 1:].sum() == (n - 1) * (n - 2),
                "input is not hnb(n, b)")
        _expect(n - 2 < out["rho"] < n - 1, f"rho {out['rho']} outside (n-2, n-1)")


CHECKS = {
    "suite": check_suite, "mine": check_mine, "hong": check_hong,
    "decision": check_decision, "rho": check_rho,
}


def judge(record: dict, refs: dict) -> tuple[str, str]:
    """State of one request over all its runs, with the reason."""
    req, outputs = record["request"], record["outputs"]
    if len(outputs) > 1:
        return "wrong", f"{len(outputs)} different outputs for the same request"
    rc, stdout, stderr = outputs[0]
    if not isinstance(rc, int) or rc not in (0, 1):
        return "error", f"exit {rc}: {stderr.strip()[-300:]}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "error", "output is not JSON"
    try:
        CHECKS[req["kind"]](req, rc, out, refs)
    except Wrong as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError) as exc:
        return "wrong", f"output lacks or mistypes {exc}"
    return "ok", ""


def tally(records: dict, refs: dict) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problems) over the timed runs."""
    attempted = failed = 0
    correct = True
    problems = []
    for rid, record in sorted(records.items()):
        state, why = judge(record, refs)
        attempted += record["runs"]
        if state != "ok":
            failed += record["runs"]
            correct = correct and state != "wrong"
            problems.append(f"{rid}: {state}: {why}")
    return attempted, failed, correct, problems
