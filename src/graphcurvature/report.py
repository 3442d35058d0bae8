"""Report rows and their table/CSV/JSON renderings.

Edge curvatures are serialized as exact fraction strings "p/q" next to a
15-significant-digit decimal, so sign decisions at zero survive the round
trip.  Timing lives in its own field and never influences row content;
re-running an identical corpus reproduces every non-timing byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .bakry_emery import RHO_TOLERANCE
from .checks import CheckResult, GraphFacts
from .graphs import GraphError


def _dec(value: float) -> str:
    return f"{value:.15g}"


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GraphError(f"malformed fraction {text!r}") from None


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

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_facts(self, facts: GraphFacts,
                  results: list[CheckResult] | None = None) -> None:
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
        for r in results or []:
            self.checks.append(CheckRow(
                facts.key, r.name, r.applicable, r.passed, r.details,
            ))


def to_json(report: CurvatureReport) -> str:
    doc = {
        "tolerance": RHO_TOLERANCE,
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


def from_json(text: str) -> CurvatureReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphError(f"malformed report JSON: {e}") from None
    rep = CurvatureReport()
    for r in doc.get("vertices", []):
        rep.vertices.append(VertexRow(
            r["graph"], r["vertex"], bool(r["safe"]),
            float(r["rho"]) if r.get("rho") is not None else None,
            r.get("class"), r.get("N"),
        ))
    for r in doc.get("edges", []):
        rep.edges.append(EdgeRow(
            r["graph"], r["x"], r["y"], bool(r["safe"]),
            parse_fraction(r["kappa"]) if r.get("kappa") else None,
        ))
    for r in doc.get("checks", []):
        rep.checks.append(CheckRow(
            r["graph"], r["check"], bool(r["applicable"]), bool(r["passed"]),
            tuple(r.get("details", ())),
        ))
    rep.timing = dict(doc.get("timing", {}))
    return rep


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


def from_csv(text: str) -> CurvatureReport:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_HEADER:
        raise GraphError("malformed report CSV: unexpected header")
    rep = CurvatureReport()
    for row in rows[1:]:
        kind = row[0]
        if kind == "vertex":
            rep.vertices.append(VertexRow(
                row[1], row[2], bool(int(row[4])),
                float(row[5]) if row[5] else None,
                row[6] or None, int(row[7]) if row[7] else None,
            ))
        elif kind == "edge":
            rep.edges.append(EdgeRow(
                row[1], row[2], row[3], bool(int(row[4])),
                parse_fraction(row[8]) if row[8] else None,
            ))
        elif kind == "check":
            rep.checks.append(CheckRow(
                row[1], row[2], bool(int(row[10])), bool(int(row[11])),
                (row[12],) if row[12] else (),
            ))
        else:
            raise GraphError(f"malformed report CSV: unknown kind {kind!r}")
    return rep


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
