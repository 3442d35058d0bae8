"""Report sections and their table/CSV/JSON renderings.

A report is one `Section` per graph: its vertex and edge rows with every
value already text, and its check results.  `section` formats each value
once per vertex or edge class, because rows of one class hold equal
facts; `vertex_cells` and `edge_cells` are the only places where `rho`
and `kappa` become text.  rho prints correctly rounded to 15
significant digits, and exactly 0 where it is 0.  Edge curvatures are
serialized as exact fraction strings "p/q" next to a
15-significant-digit decimal, so a reader of the output can decide signs
at zero exactly.  Timing lives in
its own field and never influences row content; re-running an identical
corpus reproduces every non-timing byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .bakry_emery import CertifiedRho
from .checks import CheckResult, GraphFacts
from .classify import StructureClass


def _dec(value: float) -> str:
    return f"{value:.15g}"


def vertex_cells(rho: CertifiedRho | None,
                 structure_class: StructureClass | None,
                 N: int | None) -> tuple[str | None, str | None, int | None]:
    """The rho, class and N cells of a vertex row; None where unset.  rho
    prints its correctly rounded 15 significant digits."""
    return (None if rho is None else _dec(rho.value),
            None if structure_class is None else str(structure_class), N)


def edge_cells(kappa: Fraction | None) -> tuple[str | None, str | None]:
    """The exact "p/q" (p alone when q is 1) and decimal kappa cells of an
    edge row; None where the edge was skipped."""
    if kappa is None:
        return None, None
    return str(kappa), _dec(float(kappa))


@dataclass(frozen=True)
class Section:
    """One graph's rows, each value already text.

    Vertex rows are (label, safe, rho, class, N), edge rows are
    (x label, y label, safe, kappa "p/q", kappa decimal), with None in the
    value cells of a skipped row.
    """

    graph: str
    vertices: list[tuple[str, bool, str | None, str | None, int | None]]
    edges: list[tuple[str, str, bool, str | None, str | None]]
    checks: list[CheckResult]


def section(facts: GraphFacts, results: list[CheckResult]) -> Section:
    """The section of one graph, formatting each class's values once."""
    vcells = {}
    for c in dict.fromkeys(facts.vertex_class):
        vf = facts.vertices[c]
        vcells[c] = vertex_cells(vf.rho, vf.structure_class, vf.N)
    ecells = {c: edge_cells(facts.edges[c].kappa)
              for c in dict.fromkeys(facts.edge_class)}
    label = facts.graph.label
    return Section(
        facts.key,
        [(vf.label, vf.safe, *vcells[c])
         for vf, c in zip(facts.vertices, facts.vertex_class)],
        [(label(ef.x), label(ef.y), ef.safe, *ecells[c])
         for ef, c in zip(facts.edges, facts.edge_class)],
        results,
    )


@dataclass
class CurvatureReport:
    sections: list[Section] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)


def to_json(report: CurvatureReport) -> str:
    sections = report.sections
    doc = {
        "vertices": [
            {"graph": s.graph, "vertex": v, "safe": safe, "rho": rho,
             "class": cls, "N": n}
            for s in sections for v, safe, rho, cls, n in s.vertices
        ],
        "edges": [
            {"graph": s.graph, "x": x, "y": y, "safe": safe,
             "kappa": kappa, "kappa_decimal": decimal}
            for s in sections for x, y, safe, kappa, decimal in s.edges
        ],
        "checks": [
            {"graph": s.graph, "check": r.name, "applicable": r.applicable,
             "passed": r.passed, "details": list(r.details)}
            for s in sections for r in s.checks
        ],
        "timing": report.timing,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CSV_HEADER = ["kind", "graph", "a", "b", "safe", "rho", "class", "N",
               "kappa", "kappa_decimal", "applicable", "passed", "details"]


def to_csv(report: CurvatureReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_HEADER)
    sections = report.sections
    for s in sections:
        w.writerows(["vertex", s.graph, v, "", int(safe), rho or "",
                     cls or "", "" if n is None else n, "", "", "", "", ""]
                    for v, safe, rho, cls, n in s.vertices)
    for s in sections:
        w.writerows(["edge", s.graph, x, y, int(safe), "", "", "",
                     kappa or "", decimal or "", "", "", ""]
                    for x, y, safe, kappa, decimal in s.edges)
    for s in sections:
        w.writerows(["check", s.graph, r.name, "", "", "", "", "", "", "",
                     int(r.applicable), int(r.passed), "; ".join(r.details)]
                    for r in s.checks)
    return buf.getvalue()


def to_table(report: CurvatureReport) -> str:
    lines = []
    for s in report.sections:
        lines.append(f"== {s.graph} ==")
        if s.vertices:
            lines.append(f"  {'vertex':<18} {'rho':>22} {'class':<16} {'N':>3}")
            for v, _, rho, cls, n in s.vertices:
                lines.append(
                    f"  {v:<18} {rho or '(skipped)':>22} {cls or '-':<16} "
                    f"{'-' if n is None else n:>3}"
                )
        if s.edges:
            lines.append(f"  {'edge':<30} {'kappa':>12} {'decimal':>22}")
            for x, y, _, kappa, decimal in s.edges:
                if kappa is None:
                    lines.append(f"  ({x}, {y}) skipped: truncation boundary")
                else:
                    lines.append(
                        f"  {f'({x}, {y})':<30} {kappa:>12} {decimal:>22}"
                    )
        for r in s.checks:
            if not r.applicable:
                status = "n/a "
            else:
                status = "ok  " if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name}")
            for d in r.details if (r.applicable and not r.passed) else ():
                lines.append(f"         {d}")
        lines.append("")
    return "\n".join(lines)
