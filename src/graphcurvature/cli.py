"""Command line front end.

Exit codes: 0 on success, 1 when a theorem check or bound is violated,
2 for usage and domain errors (bad spec, unresolved vertex, probe refused
at a truncation boundary, disconnected input).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .bakry_emery import cd_curvature
from .checks import diameter_bounds, gather_facts, run_checks
from .classify import classify_vertex
from .corpus import (
    build_item,
    canonical_key,
    default_corpus_specs,
    expand_spec,
    parse_graph_spec,
)
from .graphs import (
    GraphError,
    diameter,
    extract_ball,
    is_regular,
    render_graph,
    save_graph,
)
from .ollivier import kappa_detail, ollivier_kappa
from .report import (
    CurvatureReport,
    EdgeRow,
    VertexRow,
    format_fraction,
    to_csv,
    to_json,
    to_table,
)


def _split_edge_arg(text: str) -> tuple[str, str]:
    """Split "A,B" honoring parenthesized labels like "(000000,1),(010000,3)"."""
    s = text.strip()
    if s.startswith("("):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    rest = s[i + 1:].lstrip()
                    if not rest.startswith(","):
                        raise GraphError(
                            f"expected ',' between edge endpoints in {text!r}"
                        )
                    return s[:i + 1], rest[1:].strip()
        raise GraphError(f"unbalanced parentheses in edge argument {text!r}")
    parts = s.split(",")
    if len(parts) != 2:
        raise GraphError(f"edge argument must name two vertices, got {text!r}")
    return parts[0].strip(), parts[1].strip()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_report(report: CurvatureReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    return to_table(report)


def cmd_curvature(ns) -> int:
    key = canonical_key(ns.source)
    report = CurvatureReport()
    t0 = time.perf_counter()
    if ns.all:
        facts = gather_facts(build_item(ns.source))
        report.add_facts(facts, run_checks(facts))
    elif ns.vertex is not None:
        g = parse_graph_spec(ns.source)
        x = g.resolve_vertex(ns.vertex)
        if not g.two_ball_complete(x):
            raise GraphError(
                f"refusing to probe {g.label(x)}: its two-ball crosses the "
                f"truncation boundary, so curvature there would be unreliable"
            )
        ball = extract_ball(g, x)
        res = cd_curvature(ball)
        verdict = classify_vertex(g, ball)
        report.vertices.append(VertexRow(
            key, g.label(x), True, res.rho, str(verdict.structure_class),
            verdict.N,
        ))
    else:
        g = parse_graph_spec(ns.source)
        a, b = _split_edge_arg(ns.edge)
        x = g.resolve_vertex(a)
        y = g.resolve_vertex(b)
        res = kappa_detail(g, x, y)
        report.edges.append(EdgeRow(key, g.label(x), g.label(y), True, res.kappa))
    report.timing["seconds"] = round(time.perf_counter() - t0, 6)
    _emit(_render_report(report, ns.format), ns.out)
    return 0


def _artifact_dir() -> str | None:
    return os.environ.get("CURVATURE_CORPUS_DIR") or None


def _safe_filename(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)


def _verify_one(spec: str) -> tuple[str, CurvatureReport, float]:
    t0 = time.perf_counter()
    item = build_item(spec)
    facts = gather_facts(item)
    results = run_checks(facts)
    fragment = CurvatureReport()
    fragment.add_facts(facts, results)
    if not all(r.passed for r in results) and _artifact_dir():
        base = os.path.join(_artifact_dir(), _safe_filename(item.key))
        os.makedirs(_artifact_dir(), exist_ok=True)
        save_graph(item.graph, base + ".json")
        with open(base + ".violations.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spec": spec,
                    "violations": [
                        {"check": r.name, "details": list(r.details)}
                        for r in results if r.applicable and not r.passed
                    ],
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
    return item.key, fragment, time.perf_counter() - t0


def cmd_verify(ns) -> int:
    # one run per report key: specs that name the same graph share rows
    # and timing, so the first of them stands for all
    by_key: dict[str, str] = {}
    for s in (ns.specs or default_corpus_specs()):
        for spec in expand_spec(s):
            by_key.setdefault(canonical_key(spec), spec)
    specs = list(by_key.values())
    if ns.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            outcomes = list(pool.map(_verify_one, specs))
    else:
        outcomes = [_verify_one(spec) for spec in specs]
    report = CurvatureReport()
    for key, fragment, elapsed in outcomes:
        report.vertices.extend(fragment.vertices)
        report.edges.extend(fragment.edges)
        report.checks.extend(fragment.checks)
        report.timing[key] = round(elapsed, 6)
    _emit(_render_report(report, ns.format), ns.out)
    failed = [c for c in report.checks if c.applicable and not c.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_diameter_bound(ns) -> int:
    g = parse_graph_spec(ns.source)
    if g.truncation is not None:
        raise GraphError(
            f"{g.name} is a truncated stand-in for an infinite graph; "
            f"its diameter is not meaningful"
        )
    if not g.edges:
        raise GraphError(f"{g.name} has no edges; no edge curvature bounds "
                         f"its diameter")
    dia = diameter(g)
    if dia is None:
        raise GraphError(f"{g.name} is disconnected; no finite diameter")
    kappas = [(x, y, ollivier_kappa(g, x, y)) for x, y in g.edges]
    kstar = min(k for _, _, k in kappas)
    bounds = diameter_bounds(g, dia, kstar, is_regular(g))
    ok = all(holds for _, _, holds in bounds)
    if ns.format == "json":
        doc = {
            "graph": canonical_key(ns.source),
            "diameter": dia,
            "kappa_star": format_fraction(kstar),
            "kappa_star_decimal": f"{float(kstar):.15g}",
            "bounds": [
                {"name": name, "statement": stmt, "holds": holds}
                for name, stmt, holds in bounds
            ],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"graph: {canonical_key(ns.source)}",
            f"diameter: {dia}",
            f"kappa*: {format_fraction(kstar)} = {float(kstar):.15g}",
        ]
        if not bounds:
            lines.append("bounds: not applicable (kappa* <= 0)")
        for name, stmt, holds in bounds:
            lines.append(f"bound: {name}: {stmt}: {'holds' if holds else 'VIOLATED'}")
        text = "\n".join(lines) + "\n"
    _emit(text, ns.out)
    return 0 if ok else 1


def cmd_gen(ns) -> int:
    g = parse_graph_spec(ns.spec)
    if ns.out:
        save_graph(g, ns.out, ns.format)
    else:
        sys.stdout.write(render_graph(g, ns.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphcurv",
        description="Discrete curvature toolkit: spectral curvature at "
                    "vertices, transport curvature on edges, structure "
                    "classification, and theorem cross-checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmts=("table", "csv", "json")):
        sp.add_argument("--format", choices=fmts, default=fmts[0])
        sp.add_argument("--out", metavar="PATH", default=None)

    pc = sub.add_parser("curvature", help="curvature of a graph, vertex, or edge")
    pc.add_argument("source", help="generator spec (gen:name:params) or file:PATH")
    mode = pc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true",
                      help="sweep every probe-safe vertex and edge")
    mode.add_argument("--vertex", metavar="V", default=None,
                      help="single vertex by label or id")
    mode.add_argument("--edge", metavar="X,Y", default=None,
                      help="single edge by endpoint labels or ids")
    common(pc)
    pc.set_defaults(func=cmd_curvature)

    pv = sub.add_parser("verify", help="run theorem checks over a corpus")
    pv.add_argument("specs", nargs="*",
                    help="generator specs with optional a..b ranges "
                         "(default: the built-in corpus)")
    pv.add_argument("--jobs", type=int, default=1)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("diameter-bound",
                        help="diameter against curvature bounds")
    pd.add_argument("source")
    common(pd, fmts=("table", "json"))
    pd.set_defaults(func=cmd_diameter_bound)

    pg = sub.add_parser("gen", help="emit a generated graph")
    pg.add_argument("spec")
    pg.add_argument("--out", metavar="PATH", default=None)
    pg.add_argument("--format", choices=("json", "edgelist"), default="json")
    pg.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except GraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
