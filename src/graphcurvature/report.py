"""Report rows and their table/CSV/JSON renderings.

Edge curvatures are serialized as exact fraction strings "p/q" next to a
15-significant-digit decimal, so a reader of the output can decide signs
at zero exactly.  Timing lives in its own field and never influences row
content; re-running an identical corpus reproduces every non-timing byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .checks import CheckResult, GraphFacts


def _dec(value: float) -> str:
    return f"{value:.15g}"


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


@dataclass(frozen=True)
class VertexRow:
    graph: str
    vertex: str
    safe: bool
    rho: float | None
    structure_class: str | None
    N: int | None


@dataclass(frozen=True)
class EdgeRow:
    graph: str
    x: str
    y: str
    safe: bool
    kappa: Fraction | None

    @property
    def kappa_str(self) -> str:
        return format_fraction(self.kappa) if self.kappa is not None else ""

    @property
    def kappa_decimal(self) -> str:
        return _dec(float(self.kappa)) if self.kappa is not None else ""


@dataclass(frozen=True)
class CheckRow:
    graph: str
    name: str
    applicable: bool
    passed: bool
    details: tuple[str, ...]


@dataclass
class CurvatureReport:
    vertices: list[VertexRow] = field(default_factory=list)
    edges: list[EdgeRow] = field(default_factory=list)
    checks: list[CheckRow] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)

    def add_facts(self, facts: GraphFacts, results: list[CheckResult]) -> None:
        g = facts.graph
        for vf in facts.vertices:
            self.vertices.append(VertexRow(
                facts.key, vf.label, vf.safe, vf.rho,
                str(vf.structure_class) if vf.structure_class else None,
                vf.N,
            ))
        for ef in facts.edges:
            self.edges.append(EdgeRow(
                facts.key, g.label(ef.x), g.label(ef.y), ef.safe, ef.kappa,
            ))
        for r in results:
            self.checks.append(CheckRow(
                facts.key, r.name, r.applicable, r.passed, r.details,
            ))


def to_json(report: CurvatureReport) -> str:
    doc = {
        "vertices": [
            {"graph": r.graph, "vertex": r.vertex, "safe": r.safe,
             "rho": _dec(r.rho) if r.rho is not None else None,
             "class": r.structure_class, "N": r.N}
            for r in report.vertices
        ],
        "edges": [
            {"graph": r.graph, "x": r.x, "y": r.y, "safe": r.safe,
             "kappa": r.kappa_str or None,
             "kappa_decimal": r.kappa_decimal or None}
            for r in report.edges
        ],
        "checks": [
            {"graph": r.graph, "check": r.name, "applicable": r.applicable,
             "passed": r.passed, "details": list(r.details)}
            for r in report.checks
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
    for r in report.vertices:
        w.writerow(["vertex", r.graph, r.vertex, "", int(r.safe),
                    _dec(r.rho) if r.rho is not None else "",
                    r.structure_class or "", "" if r.N is None else r.N,
                    "", "", "", "", ""])
    for r in report.edges:
        w.writerow(["edge", r.graph, r.x, r.y, int(r.safe), "", "", "",
                    r.kappa_str, r.kappa_decimal, "", "", ""])
    for r in report.checks:
        w.writerow(["check", r.graph, r.name, "", "", "", "", "", "", "",
                    int(r.applicable), int(r.passed), "; ".join(r.details)])
    return buf.getvalue()


def to_table(report: CurvatureReport) -> str:
    lines = []
    graphs = []
    for r in report.vertices + report.edges + report.checks:
        if r.graph not in graphs:
            graphs.append(r.graph)
    for key in graphs:
        lines.append(f"== {key} ==")
        vrows = [r for r in report.vertices if r.graph == key]
        if vrows:
            lines.append(f"  {'vertex':<18} {'rho':>22} {'class':<16} {'N':>3}")
            for r in vrows:
                rho = _dec(r.rho) if r.rho is not None else "(skipped)"
                lines.append(
                    f"  {r.vertex:<18} {rho:>22} "
                    f"{r.structure_class or '-':<16} "
                    f"{'-' if r.N is None else r.N:>3}"
                )
        erows = [r for r in report.edges if r.graph == key]
        if erows:
            lines.append(f"  {'edge':<30} {'kappa':>12} {'decimal':>22}")
            for r in erows:
                if r.kappa is None:
                    lines.append(f"  ({r.x}, {r.y}) skipped: truncation boundary")
                else:
                    lines.append(
                        f"  {f'({r.x}, {r.y})':<30} {r.kappa_str:>12} "
                        f"{r.kappa_decimal:>22}"
                    )
        crows = [r for r in report.checks if r.graph == key]
        for r in crows:
            if not r.applicable:
                status = "n/a "
            else:
                status = "ok  " if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name}")
            for d in r.details if (r.applicable and not r.passed) else ():
                lines.append(f"         {d}")
        lines.append("")
    return "\n".join(lines)
