"""Report sections and their table/CSV/JSON renderings.

A report is one `Section` per graph: its check results and its vertex
and edge rows, each row a vertex or an edge and the index of its class,
with each class's value cells held once as text.  `section` formats
each value once per vertex or edge class, because rows of one class
hold equal facts; `vertex_cells` and `edge_cells` are the only places
where `rho` and `kappa` become text.  rho prints correctly rounded to 15
significant digits, and exactly 0 where it is 0.  Edge curvatures are
serialized as exact fraction strings "p/q" next to a
15-significant-digit decimal, so a reader of the output can decide signs
at zero exactly.  The table and JSON renderers read the rows through
`Section.vertex_rows` and `edge_rows`; `to_csv` quotes each distinct
label and each class's cells once and joins each row from them.  It
quotes by the rule of RFC 4180: a field holding a comma, a double quote
or a line break is enclosed in double quotes, its own doubled.  Timing
lives in its own field and never influences row content; re-running an
identical corpus reproduces every non-timing byte.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Iterator, Mapping, Sequence
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
class Rows:
    """Report rows of one kind, each naming the value cells of its class.

    Row i is keys[i], a vertex or an (x, y) edge, and its value cells are
    cells[classes[i]]: (safe, rho, class, N) for a vertex and (safe,
    kappa "p/q", kappa decimal) for an edge, every value already text and
    None in a skipped row.
    """

    keys: Sequence = ()
    classes: Sequence[int] = ()
    cells: Mapping[int, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class Section:
    """One graph's rows and check results; labels holds the text of each
    vertex the rows name."""

    graph: str
    labels: Mapping[int, str]
    vertices: Rows
    edges: Rows
    checks: list[CheckResult]

    def vertex_rows(self) -> Iterator[tuple]:
        """(label, safe, rho, class, N) for each vertex row."""
        labels, cells = self.labels, self.vertices.cells
        return ((labels[v], *cells[c])
                for v, c in zip(self.vertices.keys, self.vertices.classes))

    def edge_rows(self) -> Iterator[tuple]:
        """(x label, y label, safe, kappa "p/q", kappa decimal) for each
        edge row."""
        labels, cells = self.labels, self.edges.cells
        return ((labels[x], labels[y], *cells[c])
                for (x, y), c in zip(self.edges.keys, self.edges.classes))


def section(facts: GraphFacts, results: list[CheckResult]) -> Section:
    """The section of one graph, formatting each class's values once."""
    vcells = {c: (vf.safe, *vertex_cells(vf.rho, vf.structure_class, vf.N))
              for c, vf in facts.vertex_heads.items()}
    ecells = {c: (ef.safe, *edge_cells(ef.kappa))
              for c, ef in facts.edge_heads.items()}
    g = facts.graph
    return Section(
        facts.key, dict(zip(g.vertices, map(g.label, g.vertices))),
        Rows(g.vertices, facts.vertex_class, vcells),
        Rows(g.edges, facts.edge_class, ecells), results)


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
            for s in sections for v, safe, rho, cls, n in s.vertex_rows()
        ],
        "edges": [
            {"graph": s.graph, "x": x, "y": y, "safe": safe,
             "kappa": kappa, "kappa_decimal": decimal}
            for s in sections for x, y, safe, kappa, decimal in s.edge_rows()
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


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, its quotes doubled, when it holds a
    comma, a double quote or a line break."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_tail(fields: list) -> str:
    """The cells of a row after its labels, each quoted by the rule."""
    return "," + ",".join(["" if f is None else _csv_field(str(f))
                           for f in fields])


def to_csv(report: CurvatureReport) -> str:
    """The report as CSV rows, byte for byte what one
    csv.writer(lineterminator="\r\n") row per vertex, edge and check
    writes, with each row ended by "\n" instead: each distinct label,
    graph name and class tail is quoted once and each vertex or edge row
    is joined from them."""
    buf = io.StringIO()
    buf.write(",".join(map(_csv_field, _CSV_HEADER)) + "\n")
    sections = report.sections
    quoted = [(_csv_field(s.graph),
               {v: _csv_field(text) for v, text in s.labels.items()})
              for s in sections]
    for s, (graph, labels) in zip(sections, quoted):
        rows = s.vertices
        tails = {c: _csv_tail(["", int(safe), rho, cls, n, "", "", "", "", ""])
                 for c, (safe, rho, cls, n) in rows.cells.items()}
        buf.write("".join([f"vertex,{graph},{labels[v]}{tails[c]}\n"
                           for v, c in zip(rows.keys, rows.classes)]))
    for s, (graph, labels) in zip(sections, quoted):
        rows = s.edges
        tails = {c: _csv_tail([int(safe), "", "", "", kappa, decimal,
                               "", "", ""])
                 for c, (safe, kappa, decimal) in rows.cells.items()}
        buf.write("".join([f"edge,{graph},{labels[x]},{labels[y]}{tails[c]}\n"
                           for (x, y), c in zip(rows.keys, rows.classes)]))
    for s, (graph, _) in zip(sections, quoted):
        buf.write("".join([
            f"check,{graph}" + _csv_tail([
                r.name, "", "", "", "", "", "", "", int(r.applicable),
                int(r.passed), "; ".join(r.details)]) + "\n"
            for r in s.checks]))
    return buf.getvalue()


def to_table(report: CurvatureReport) -> str:
    lines = []
    for s in report.sections:
        lines.append(f"== {s.graph} ==")
        if s.vertices.keys:
            lines.append(f"  {'vertex':<18} {'rho':>22} {'class':<16} {'N':>3}")
            for v, _, rho, cls, n in s.vertex_rows():
                lines.append(
                    f"  {v:<18} {rho or '(skipped)':>22} {cls or '-':<16} "
                    f"{'-' if n is None else n:>3}"
                )
        if s.edges.keys:
            lines.append(f"  {'edge':<30} {'kappa':>12} {'decimal':>22}")
            for x, y, _, kappa, decimal in s.edge_rows():
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
