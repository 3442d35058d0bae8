"""Output gate: sweep CSV rows against the seed-commit reference, probes
against closed forms.

Operations are CSV rows (vertex, edge, check) and probes.  Exact kappa
fractions and every check's (name, applicable, passed) must match the
reference exactly; rho comes from a float eigensolve and must match within
RHO_TOLERANCE.  Check details are free text and are not compared.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"
RHO_TOLERANCE = 1e-9


def parse_rows(text: str) -> list[tuple[str, tuple, tuple]]:
    """(graph, key, value) per row of one `--format csv` report.

    Columns are read by header name, so added columns do not disturb it.
    """
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        kind = row["kind"]
        if kind == "vertex":
            key = ("vertex", row["a"])
            value = (row["safe"], row["rho"], row["class"], row["N"])
        elif kind == "edge":
            key = ("edge", row["a"], row["b"])
            value = (row["safe"], row["kappa"])
        elif kind == "check":
            key = ("check", row["a"])
            value = (row["applicable"], row["passed"])
        else:
            continue  # row kinds the reference does not hold are not gated
        rows.append((row["graph"], key, value))
    return rows


def load_reference() -> dict[str, dict[tuple, tuple]]:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {graph: {tuple(key): tuple(value) for key, value in rows}
            for graph, rows in doc["graphs"].items()}


def _matches(key: tuple, got: tuple, want: tuple) -> bool:
    if key[0] == "vertex":
        if got[0] != want[0] or got[2:] != want[2:]:
            return False
        if not got[1] or not want[1]:
            return got[1] == want[1]
        return abs(float(got[1]) - float(want[1])) <= RHO_TOLERANCE
    if key[0] == "edge":
        if got[0] != want[0] or bool(got[1]) != bool(want[1]):
            return False
        return not got[1] or Fraction(got[1]) == Fraction(want[1])
    return got == want


def compare_sweep(texts, graphs, reference) -> tuple[int, int, list[str]]:
    """Gate the CSV reports of one sweep over `graphs` (canonical keys).

    Returns (attempted, failed, problems).  A missing, mismatched,
    duplicated or unexpected row is one failed operation, and so is a
    graph that the reference does not hold.
    """
    wanted = set(graphs)
    seen: dict[tuple, tuple] = {}
    problems = []
    extra = 0
    for text in texts:
        for graph, key, value in parse_rows(text):
            if (graph not in wanted or key not in reference.get(graph, {})
                    or (graph, key) in seen):
                extra += 1
                problems.append(f"{graph} {key}: unexpected row")
            seen[(graph, key)] = value
    attempted, failed = extra, extra
    for graph in graphs:
        if graph not in reference:
            attempted += 1
            failed += 1
            problems.append(f"{graph}: not in the reference")
            continue
        for key, want in reference[graph].items():
            attempted += 1
            got = seen.get((graph, key))
            if got is None:
                failed += 1
                problems.append(f"{graph} {key}: missing")
            elif not _matches(key, got, want):
                failed += 1
                problems.append(f"{graph} {key}: got {got}, want {want}")
    return attempted, failed, problems


def probe_problems(n: int, x, y, cd, detail) -> list[str]:
    """Closed forms on hypercube:n: rho = 2 at every vertex, and kappa = 1/n
    on every edge, certified with zero duality gap."""
    problems = []
    if abs(cd.rho - 2) > RHO_TOLERANCE:
        problems.append(f"rho at {x} = {cd.rho!r}, want 2")
    if detail.kappa != Fraction(1, n) or detail.certificate.gap != 0:
        problems.append(f"kappa on ({x}, {y}) = {detail.kappa} with gap "
                        f"{detail.certificate.gap}, want 1/{n}")
    return problems
