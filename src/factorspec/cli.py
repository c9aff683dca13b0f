"""factorspec command line: exact factor checks, spectral radii, extremal
constructions, verification sweeps, mining, and equivalence suites.

Every command, and every ``verify`` target, accepts only the flags it reads;
a flag that belongs to another mode, kind or target is a usage error.  The
tolerances are fixed: ``spectral.RHO_TOL`` certifies every dense radius and
decides ``mine``'s ties and ``verify hong``, ``harness.QUOTIENT_TOL`` bounds
``verify quotient``, and the strict spectral bounds are exact root counts.
Only the sweeps' ranges are flags.

Exit codes: 0 when the queried property holds (or the sweep or suite
passed), 1 when it fails (or a counterexample or mismatch was found), 2 on
usage or input errors (a sweep that ran zero cases among them), 3 on an
internal error (for example a spectral radius that could not be certified).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .conditions import (
    CapExceededError,
    ConditionReport,
    DegreeBounds,
    DegreeFunctions,
    has_all_ab_factors,
    has_all_fractional_ab_factors,
    has_all_gf_factors,
)
from .extremal import build_g1, build_g2, build_hnb, rho_hnb
from .graph import Graph, check_dense_order, from_edge_list, parse_graph6, to_graph6
from .harness import (
    equivalence_suite,
    load_graph6_file,
    mine_extremal,
    report_to_dict,
    verify_g1_g2_bounds,
    verify_hnb_witnesses,
    verify_hong,
    verify_k1_join_bound,
    verify_quotient_transfer,
    versioned,
)
from .spectral import DIRECT_MAX_ORDER, spectral_radius


def _ints(tokens: list[str], where: str) -> list[int]:
    """``tokens`` as integers; a bad token is a ValueError naming ``where`` and it."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"{where}: {tok!r} is not an integer") from None
    return values


def _int_pair(text: str, where: str, shape: str) -> tuple[int, int]:
    """``text`` as the two comma-separated integers that ``shape`` names."""
    tokens = text.split(",")
    if len(tokens) != 2:
        raise ValueError(f"{where}: expected {shape}, got {text!r}")
    first, second = _ints(tokens, where)
    return first, second


def _load_edges_file(path: str) -> Graph:
    """Edge-list file: first line n, then one 'u v' pair per line; # comments."""
    n: Optional[int] = None
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            where = f"edge file {path} line {lineno}"
            if n is None:
                n = _ints([text], where)[0]
                if n < 0:
                    raise ValueError(f"{where}: order {n} is negative")
                check_dense_order(n, f"edge file {path}")
                continue
            tokens = text.split()
            if len(tokens) != 2:
                raise ValueError(f"{where}: expected 'u v', got {text!r}")
            u, v = _ints(tokens, where)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{where}: edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"{where}: loop ({u}, {v}) not allowed in a simple graph")
            edges.append((u, v))
    if n is None:
        raise ValueError(f"edge file {path} is empty")
    return from_edge_list(n, edges)


def _load_graph(args) -> Graph:
    if getattr(args, "g6", None):
        return parse_graph6(args.g6)
    return _load_edges_file(args.edges)


def _load_catalog(args) -> list[Graph]:
    """The ``--input`` catalog.  Under ``--lenient`` malformed lines are
    skipped, and stderr gets their count and the first of them."""
    skipped: Optional[list[tuple[int, str]]] = [] if args.lenient else None
    graphs = load_graph6_file(args.input, skipped)
    if skipped:
        line, reason = skipped[0]
        print(f"warning: skipped {len(skipped)} malformed line(s); first: line {line}: {reason}",
              file=sys.stderr)
    return graphs


def _load_vertex_function(path: str, n: int) -> tuple[int, ...]:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            values.extend(_ints(text.split(), f"{path} line {lineno}"))
    if len(values) != n:
        raise ValueError(f"{path} prescribes {len(values)} values for {n} vertices")
    return tuple(values)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    """Print ``payload``, already ``versioned``, under ``--json``, else the lines."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _condition_payload(report: ConditionReport) -> dict:
    return {
        "verdict": report.verdict,
        "min_value": report.min_value,
        "witness_S": sorted(report.witness_s),
        "witness_T": sorted(report.witness_t),
        "pairs_examined": report.pairs_examined,
    }


# -- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    if args.mode == "gf" and (args.a is not None or args.b is not None):
        raise ValueError("--mode gf takes --g and --f, not --a or --b")
    if args.mode != "gf" and (args.g or args.f):
        raise ValueError(f"--mode {args.mode} takes --a and --b, not --g or --f")
    g = _load_graph(args)
    if args.mode == "gf":
        if not (args.g and args.f):
            raise ValueError("--mode gf needs --g FILE and --f FILE")
        funcs = DegreeFunctions(
            _load_vertex_function(args.g, g.n), _load_vertex_function(args.f, g.n)
        )
        report = has_all_gf_factors(g, funcs)
    else:
        if args.a is None or args.b is None:
            raise ValueError(f"--mode {args.mode} needs --a and --b")
        bounds = DegreeBounds(args.a, args.b)
        if args.mode == "integer":
            report = has_all_ab_factors(g, bounds)
        else:
            report = has_all_fractional_ab_factors(g, bounds)
    payload = _condition_payload(report)
    _emit(args, versioned({"mode": args.mode, **payload}),
          [f"{key}: {json.dumps(value)}" for key, value in payload.items()])
    return 0 if report.verdict else 1


def cmd_rho(args) -> int:
    if args.hnb:
        n, b = _int_pair(args.hnb, "--hnb", "N,B")
        if n - 1 > sys.float_info.max:  # rho lies in (n - 2, n - 1)
            raise ValueError(f"--hnb: N - 1 exceeds the largest double, {sys.float_info.max:.6g}")
        # rho_hnb decides n - 2 < rho exactly, from the quotient polynomial's
        # sign at n - 2, and raises otherwise; the float may round to n - 2
        rho = rho_hnb(n, b)
        payload = {
            "n": n,
            "b": b,
            "rho": rho,
            "n_minus_2": n - 2,
            "exceeds": True,
            "method": "quotient-3x3",
        }
        _emit(args, versioned(payload), [
            f"rho(hnb({n},{b})) = {rho:.12g}",
            f"n - 2 = {n - 2}",
            "exceeds: true",
        ])
        return 0
    g = parse_graph6(args.g6)
    result = spectral_radius(g)
    payload = {
        "n": g.n,
        "rho": result.rho,
        "residual": result.residual,
        "iterations": result.iterations,
        "method": result.method,
    }
    _emit(args, versioned(payload),
          [f"rho = {result.rho:.12g}  (residual {result.residual:.3g}, "
           f"{result.iterations} iterations, {result.method})"])
    return 0


def cmd_construct(args) -> int:
    if args.kind != "g1" and args.a is not None:
        raise ValueError(f"construct {args.kind} does not take --a")
    if args.kind == "hnb":
        g = build_hnb(args.n, args.b)
    elif args.kind == "g1":
        if args.a is None:
            raise ValueError("construct g1 needs --a")
        g = build_g1(args.a, args.b, args.n)
    else:
        g = build_g2(args.b, args.n)
    record = to_graph6(g).decode("ascii")
    _emit(args, versioned({"kind": args.kind, "graph6": record, "n": g.n,
                           "edges": g.edge_count()}),
          [record])
    return 0


def _int_list(text: str, flag: str) -> list[int]:
    return _ints([tok for tok in text.split(",") if tok], flag)


def cmd_verify(args) -> int:
    report = args.sweep(args)
    lines = [
        f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
        f"({report.cases_run} cases, {len(report.failures)} failures, "
        f"{report.elapsed:.2f}s)"
    ]
    lines.extend(f"  failure: {f}" for f in report.failures[:20])
    _emit(args, report_to_dict(report), lines)
    return 0 if report.passed else 1


def cmd_mine(args) -> int:
    report = mine_extremal(
        _load_catalog(args), DegreeBounds(args.a, args.b), args.mode, workers=args.workers
    )
    lines = [
        f"catalog: {report.cases_run} graphs of order {report.n}, mode {report.mode}, "
        f"(a,b)=({report.a},{report.b})",
        f"failing: {report.failing_count}",
        f"max rho among failing: {report.max_rho_failing}",
        f"argmax graph6: {report.argmax_graph}",
        f"rho_hnb reference: {report.rho_hnb_reference}",
        f"hnb is argmax: {str(report.hnb_is_argmax).lower()}",
        f"elapsed: {report.elapsed:.2f}s",
    ]
    _emit(args, report_to_dict(report), lines)
    return 0


def cmd_suite(args) -> int:
    graphs = _load_catalog(args)
    grid = [_int_pair(pair, "--grid", "a,b") for pair in args.grid.split(";") if pair]
    report = equivalence_suite(graphs, grid, args.mode, nmax=args.nmax, workers=args.workers)
    lines = [
        f"{report.suite}: {'PASS' if report.passed else 'FAIL'} "
        f"({report.cases_run} cases, {len(report.mismatches)} mismatches, "
        f"{report.elapsed:.2f}s)"
    ]
    lines.extend(
        f"  mismatch: {m.graph6} (a,b)=({m.a},{m.b}) decider={m.decider} oracle={m.oracle}"
        for m in report.mismatches[:20]
    )
    _emit(args, report_to_dict(report), lines)
    return 0 if report.passed else 1


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorspec",
        description="Exact all-[a,b]-factor deciders, spectral machinery, and "
        "the verification harness around them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a factor property for one graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 record")
    src.add_argument("--edges", help="edge-list file (first line n, then 'u v' lines)")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--mode", choices=["integer", "fractional", "gf"], default="integer")
    p.add_argument("--g", help="per-vertex g file (gf mode)")
    p.add_argument("--f", help="per-vertex f file (gf mode)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rho", help="spectral radius of a graph or of hnb(n,b)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 record (dense: direct eigensolve on components "
                     f"of order <= {DIRECT_MAX_ORDER}, power iteration above)")
    src.add_argument("--hnb", metavar="N,B", help="closed-form quotient route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("construct", help="emit a named extremal graph as graph6")
    p.add_argument("kind", choices=["hnb", "g1", "g2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--a", type=int, help="g1 only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run one verification sweep")
    p.set_defaults(func=cmd_verify)
    targets = p.add_subparsers(dest="target", required=True)
    # each sweep looks its harness function up when it runs, not when the
    # (cached) parser is built
    t = targets.add_parser("lemma24", help="hub witness values of hnb, exact")
    t.add_argument("--nmax", type=int, default=40, help="largest order")
    t.set_defaults(sweep=lambda args: verify_hnb_witnesses(args.nmax))
    t = targets.add_parser("lemma23", help="g1/g2 charpoly signs and spectral bounds")
    t.add_argument("--amax", type=int, default=5, help="largest a")
    t.add_argument("--bmax", type=int, default=5, help="largest b")
    t.set_defaults(sweep=lambda args: verify_g1_g2_bounds(args.amax, args.bmax))
    t = targets.add_parser("hong", help="rho <= sqrt(2m - n + 1) on a catalog")
    t.add_argument("--input", required=True, help="graph6 catalog")
    t.add_argument("--lenient", action="store_true", help="skip malformed catalog lines")
    t.set_defaults(sweep=lambda args: verify_hong(_load_catalog(args)))
    t = targets.add_parser("quotient", help="quotient vs dense rho of hnb")
    t.add_argument("--n-grid", default="10,100,1000", help="orders")
    t.add_argument("--b-grid", default="2,3,5", help="b values")
    t.set_defaults(sweep=lambda args: verify_quotient_transfer(
        _int_list(args.n_grid, "--n-grid"), _int_list(args.b_grid, "--b-grid")))
    t = targets.add_parser("k1join", help="hub-over-two-cliques rho < n - 2")
    t.add_argument("--n-grid", default="10,100,1000", help="orders")
    t.set_defaults(sweep=lambda args: verify_k1_join_bound(_int_list(args.n_grid, "--n-grid")))
    for t in targets.choices.values():
        t.add_argument("--json", action="store_true")

    p = sub.add_parser("mine", help="spectral-radius maximizer among failing graphs")
    p.add_argument("--input", required=True, help="graph6 catalog, one order")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--mode", choices=["integer", "fractional"], required=True)
    p.add_argument("--workers", type=int)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("suite", help="decider-vs-oracle equivalence sweep")
    p.add_argument("--input", required=True, help="graph6 catalog")
    p.add_argument("--nmax", type=int)
    p.add_argument("--grid", default="1,2;1,3;2,3", help="semicolon-separated a,b pairs")
    p.add_argument("--mode", choices=["integer", "fractional"], required=True)
    p.add_argument("--workers", type=int)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never let a fault read as "property fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
