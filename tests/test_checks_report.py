"""Check battery semantics, fault injection, and report serialization."""

import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcurvature import checks, ollivier
from graphcurvature.bakry_emery import gamma2_form, lowest_eigenvalue
from graphcurvature.checks import (
    ALL_CHECKS,
    gather_facts,
    run_checks,
)
from graphcurvature.corpus import CorpusItem, build_item
from graphcurvature.families import complete_graph
from graphcurvature.graphs import Graph, extract_ball
from graphcurvature.report import (
    CheckRow,
    CurvatureReport,
    format_fraction,
    to_csv,
    to_json,
    to_table,
)

from conftest import perturbed
from oracles import edge_facts_one_by_one, vertex_facts_one_by_one

CHECK_NAMES = [
    "cd-class",
    "ollivier-class",
    "cd-vs-ollivier",
    "linkage-positive-cd",
    "bipartite-transport",
    "transport-upper-bound",
    "test-vector-certificates",
    "witness-bounds",
    "duality",
    "quantization",
    "diameter-bounds",
]


def by_name(results):
    return {r.name: r for r in results}


def all_passed(results):
    return all(r.passed for r in results)


class TestCheckBattery:
    def test_all_checks_named_and_ordered(self):
        facts = gather_facts(build_item("hypercube:3"))
        results = run_checks(facts)
        assert [r.name for r in results] == CHECK_NAMES
        assert len(ALL_CHECKS) == len(CHECK_NAMES)

    def test_hypercube_applicability(self):
        facts = gather_facts(build_item("hypercube:3"))
        res = by_name(run_checks(facts))
        assert all_passed(res.values())
        for name in ("cd-class", "ollivier-class", "cd-vs-ollivier",
                     "linkage-positive-cd", "bipartite-transport",
                     "transport-upper-bound", "witness-bounds", "duality",
                     "quantization", "diameter-bounds"):
            assert res[name].applicable, name
        # no flat or negative class vertices exist here
        assert not res["test-vector-certificates"].applicable

    def test_biclique_graph_classification_sits_out(self):
        # 2x3 bicliques: the class machinery must step aside while the
        # linkage and decomposition statements still apply and pass
        facts = gather_facts(build_item("complete-bipartite:4"))
        res = by_name(run_checks(facts))
        assert all_passed(res.values())
        assert not res["cd-class"].applicable
        assert not res["ollivier-class"].applicable
        assert not res["cd-vs-ollivier"].applicable
        assert res["linkage-positive-cd"].applicable
        assert res["bipartite-transport"].applicable
        assert res["linkage-positive-cd"].passed
        assert res["bipartite-transport"].passed

    def test_triangle_graph_sidelines_triangle_free_checks(self):
        g = complete_graph(4)
        item = CorpusItem("complete:4", g, ((0, 1),))
        facts = gather_facts(item)
        res = by_name(run_checks(facts))
        assert all_passed(res.values())
        for name in ("linkage-positive-cd", "bipartite-transport",
                     "transport-upper-bound", "cd-class"):
            assert not res[name].applicable, name
        assert res["duality"].applicable
        assert res["quantization"].applicable

    def test_flat_and_negative_vertices_get_vectors(self):
        for spec in ("cycle:6", "tree:3:4"):
            facts = gather_facts(build_item(spec))
            res = by_name(run_checks(facts))
            assert res["test-vector-certificates"].applicable, spec
            assert res["test-vector-certificates"].passed, spec

    def test_diameter_check_vacuous_without_positive_curvature(self):
        facts = gather_facts(build_item("petersen"))
        res = by_name(run_checks(facts))
        assert not res["diameter-bounds"].applicable
        assert "vacuous" in res["diameter-bounds"].details[0]

    def test_diameter_check_active_on_positive_graphs(self):
        facts = gather_facts(build_item("hypercube:4"))
        res = by_name(run_checks(facts))
        assert res["diameter-bounds"].applicable
        assert res["diameter-bounds"].passed

    def test_diameter_check_sits_out_on_disconnected_graphs(self):
        # two disjoint edges: kappa = 1 everywhere, yet no finite diameter
        g = Graph(range(4), [(0, 1), (2, 3)])
        facts = gather_facts(CorpusItem("two-edges", g, ((0, 1),)))
        res = by_name(run_checks(facts))
        assert all_passed(res.values())
        assert not res["diameter-bounds"].applicable
        assert res["diameter-bounds"].details == ("graph is disconnected",)

    def test_isolated_vertices_are_skipped(self):
        g = Graph(range(3), [(0, 1)])
        facts = gather_facts(CorpusItem("edge+point", g, ((0, 1),)))
        isolated = facts.vertices[2]
        assert not isolated.safe and isolated.rho is None
        assert [vf.safe for vf in facts.vertices] == [True, True, False]
        assert all_passed(run_checks(facts))

    def test_edgeless_graph_is_regular_yet_passes(self):
        # degree 0 everywhere makes the graph 0-regular, so the curvature
        # comparison's hypotheses hold, but it has no vertex to examine
        facts = gather_facts(build_item("path:1"))
        assert facts.regular == 0
        res = by_name(run_checks(facts))
        assert not res["cd-vs-ollivier"].applicable
        assert res["cd-vs-ollivier"].details == ("no safe vertices",)
        assert all_passed(res.values())


class TestVertexMemo:
    def test_matches_vertex_by_vertex_sweep(self, corpus_items, corpus_facts):
        sweeps = [(key, item.graph, corpus_facts[key])
                  for key, item in corpus_items.items()]
        for spec in ("transpositions:5", "hypercube:8", "flip:8"):
            item = build_item(spec)
            sweeps.append((spec, item.graph, gather_facts(item)))
        for key, g, facts in sweeps:
            expect = vertex_facts_one_by_one(g)
            got = facts.vertices
            assert got == expect, key
            # same neighbor order in every non-link count dict
            assert [list(vf.nonlink_counts or ()) for vf in got] == \
                   [list(vf.nonlink_counts or ()) for vf in expect], key

    def test_nonlink_counts_never_shared(self):
        facts = gather_facts(build_item("hypercube:4"))
        counts = [vf.nonlink_counts for vf in facts.vertices]
        assert len({id(c) for c in counts}) == len(counts)
        counts[0].clear()
        assert counts[1]

    def test_one_form_per_distinct_two_ball(self, monkeypatch):
        calls = []

        def counting(ball):
            calls.append(ball.base)
            return gamma2_form(ball)

        monkeypatch.setattr(checks, "gamma2_form", counting)
        facts = gather_facts(build_item("zigzag:hypercube:6,cycle:6"))
        assert len(facts.vertices) == 384
        assert len(calls) == 1

    def test_one_eigensolve_per_sphere1_labelling(self, monkeypatch):
        # the 128 positional classes of hypercube:8 all give their sphere1
        # the same labels, so they share one permuted reduced matrix
        calls = []

        def counting(form):
            calls.append(form.index)
            return lowest_eigenvalue(form)

        monkeypatch.setattr(checks, "lowest_eigenvalue", counting)
        facts = gather_facts(build_item("hypercube:8"))
        assert len(facts.vertices) == 256
        assert len(calls) == 1

    def test_one_ball_per_safe_vertex(self, monkeypatch):
        # count extract_ball wherever a package module imported it
        calls = []

        def counting(g, x):
            calls.append(x)
            return extract_ball(g, x)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphcurvature") and hasattr(module, "extract_ball"):
                monkeypatch.setattr(module, "extract_ball", counting)
        facts = gather_facts(build_item("flip:6"))
        safe = [vf.vertex for vf in facts.vertices if vf.safe]
        assert len(safe) == 14
        assert calls == safe

    def test_second_sphere_is_part_of_the_key(self):
        # 0 and 10 both have two degree-3 neighbors with the base first in
        # their rows; the neighbors of 0 share their other two neighbors,
        # those of 10 do not, which links them at 0 but not at 10
        g = Graph(
            [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16],
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
             (10, 11), (10, 12), (11, 13), (11, 14), (12, 15), (12, 16)],
        )
        facts = gather_facts(CorpusItem("two-shapes", g, ()))
        assert facts.vertices == vertex_facts_one_by_one(g)
        at = {vf.vertex: vf for vf in facts.vertices}
        assert at[0].nonlink_counts == {1: 0, 2: 0}
        assert at[10].nonlink_counts == {11: 1, 12: 1}
        assert at[0].rho != at[10].rho

    def test_refinement_alone_does_not_decide_the_class(self):
        # 0 hubs a wheel over the 6-cycle 1..6 and 10 is the apex of a
        # cone over the triangles 11-12-13 and 14-15-16: every neighbor of
        # either sees two others, so only individualising one tells the
        # one cycle from the two triangles
        g = Graph(
            [0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 16],
            [(0, v) for v in range(1, 7)]
            + [(v, v % 6 + 1) for v in range(1, 7)]
            + [(10, v) for v in range(11, 17)]
            + [(11, 12), (12, 13), (11, 13), (14, 15), (15, 16), (14, 16)],
        )
        facts = gather_facts(CorpusItem("wheel-and-cone", g, ()))
        assert facts.vertices == vertex_facts_one_by_one(g)
        assert facts.edges == edge_facts_one_by_one(g)
        at = {vf.vertex: vf for vf in facts.vertices}
        assert at[0].rho == pytest.approx(0.5)
        assert at[10].rho == pytest.approx(-1.5)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_graphs_match_one_by_one(self, data):
        # a random graph, an isomorphic copy under a random renaming, and
        # ids shuffled over both: the copies share every refined class
        n = data.draw(st.integers(1, 8), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), label="edges")
        ids = data.draw(st.permutations(range(2 * n)), label="ids")
        copy = data.draw(st.permutations(range(n)), label="copy")
        both = [(ids[u], ids[v]) for u, v in edges]
        both += [(ids[n + copy[u]], ids[n + copy[v]]) for u, v in edges]
        g = Graph(range(2 * n), both)
        facts = gather_facts(CorpusItem("random", g, ()))
        assert facts.vertices == vertex_facts_one_by_one(g)
        assert facts.edges == edge_facts_one_by_one(g)


class TestEdgeMemo:
    def test_matches_edge_by_edge_sweep(self, corpus_items, corpus_facts):
        # repeated edges are no longer certified one by one in a sweep, so
        # every kappa is compared with its own certified ollivier_kappa
        for key, item in corpus_items.items():
            assert corpus_facts[key].edges == \
                   edge_facts_one_by_one(item.graph), key
        for spec in ("transpositions:5", "hypercube:8", "flip:8"):
            item = build_item(spec)
            assert gather_facts(item).edges == \
                   edge_facts_one_by_one(item.graph), spec

    def test_second_sphere_edges_split_edge_classes(self):
        # 0 heads the path 3-1-0-2-4 and 10 the 5-cycle 10-11-13-14-12;
        # the two-balls differ only by the second-sphere edge 13-14, which
        # no vertex fact reads but which brings 12 within 2 of 13
        g = Graph(
            [0, 1, 2, 3, 4, 10, 11, 12, 13, 14],
            [(0, 1), (0, 2), (1, 3), (2, 4),
             (10, 11), (10, 12), (11, 13), (12, 14), (13, 14)],
        )
        facts = gather_facts(CorpusItem("path-and-cycle", g, ()))
        assert facts.vertices == vertex_facts_one_by_one(g)
        assert facts.edges == edge_facts_one_by_one(g)
        kappa = {(ef.x, ef.y): ef.kappa for ef in facts.edges}
        assert kappa[(0, 1)] != kappa[(10, 11)]

    def test_one_problem_per_edge_class(self, monkeypatch):
        built = []
        init = ollivier.TransportProblem.__init__

        def counting(tp, g, x, y):
            built.append((x, y))
            init(tp, g, x, y)

        monkeypatch.setattr(ollivier.TransportProblem, "__init__", counting)
        facts = gather_facts(build_item("zigzag:hypercube:6,cycle:6"))
        assert len(facts.edges) == 768
        assert len(built) == 4


class TestFaultInjection:
    def test_kappa_fault_caught(self):
        facts = perturbed(gather_facts(build_item("hypercube:3")), "kappa")
        res = by_name(run_checks(facts))
        failing = {n for n, r in res.items() if not r.passed}
        assert failing == {"ollivier-class", "bipartite-transport",
                          "transport-upper-bound", "quantization"}

    def test_rho_fault_caught(self):
        facts = perturbed(gather_facts(build_item("hypercube:3")), "rho")
        res = by_name(run_checks(facts))
        failing = {n for n, r in res.items() if not r.passed}
        assert failing == {"cd-class", "linkage-positive-cd"}


class TestFractions:
    def test_format_fraction(self):
        assert format_fraction(Fraction(1, 4)) == "1/4"
        assert format_fraction(Fraction(-3, 7)) == "-3/7"
        assert format_fraction(Fraction(2)) == "2"


def build_report(*specs, perturb=None):
    rep = CurvatureReport()
    for spec in specs:
        facts = gather_facts(build_item(spec))
        if perturb is not None:
            facts = perturbed(facts, perturb)
        rep.add_facts(facts, run_checks(facts))
    return rep


def csv_rows(report, kind):
    rows = list(csv.reader(io.StringIO(to_csv(report))))
    assert rows[0] == ["kind", "graph", "a", "b", "safe", "rho", "class", "N",
                       "kappa", "kappa_decimal", "applicable", "passed",
                       "details"]
    return [row[1:] for row in rows[1:] if row[0] == kind]


class TestReportSerialization:
    def test_json_round_trip(self):
        rep = build_report("cycle:5", "star:3")
        doc = json.loads(to_json(rep))
        assert [r["kappa"] for r in doc["edges"]] == ["1/4"] * 5 + ["1/3"] * 3
        assert [r["kappa_decimal"] for r in doc["edges"]] == \
               ["0.25"] * 5 + ["0.333333333333333"] * 3
        assert [r["class"] for r in doc["vertices"]] == \
               ["one-unlinked"] * 5 + ["inapplicable"] * 4
        # 15 significant digits, even for the float noise at the star center
        assert [r["rho"] for r in doc["vertices"]] == \
               [f"{r.rho:.15g}" for r in rep.vertices]
        assert [r["rho"] for r in doc["vertices"]][-3:] == ["1", "1", "1"]
        assert [(r["check"], r["applicable"], r["passed"])
                for r in doc["checks"]] == \
               [(r.name, r.applicable, r.passed) for r in rep.checks]
        assert ("witness-bounds", False, True) in \
               [(r["check"], r["applicable"], r["passed"])
                for r in doc["checks"] if r["graph"] == "star:3"]

    def test_csv_round_trip(self):
        rep = build_report("cycle:5", "tree:3:4")
        vertices = csv_rows(rep, "vertex")
        assert [(r[0], r[1], r[3]) for r in vertices] == \
               [(r.graph, r.vertex, str(int(r.safe))) for r in rep.vertices]
        # skipped vertices keep their row with every value empty
        skipped = [r for r in vertices if r[3] == "0"]
        assert skipped and all(r[4:7] == ["", "", ""] for r in skipped)
        assert {r[4] for r in vertices if r[0] == "tree:3:4" and r[3] == "1"} \
            == {"-1"}
        edges = csv_rows(rep, "edge")
        assert [r[7] for r in edges] == [r.kappa_str for r in rep.edges]
        assert {r[7] for r in edges if r[0] == "cycle:5"} == {"1/4"}
        checks = csv_rows(rep, "check")
        assert [(r[1], r[9], r[10]) for r in checks] == \
               [(r.name, str(int(r.applicable)), str(int(r.passed)))
                for r in rep.checks]

    def test_csv_joins_details_in_one_cell(self):
        rep = CurvatureReport(checks=[CheckRow(
            "g", "duality", True, False, ("gap 1/2 on (0, 1)", "plan off"))])
        (row,) = csv_rows(rep, "check")
        assert row[-1] == "gap 1/2 on (0, 1); plan off"

    def test_table_markers(self):
        good = to_table(build_report("hypercube:2"))
        assert "[ok  ]" in good
        assert "[FAIL]" not in good
        bad = to_table(build_report("hypercube:3", perturb="kappa"))
        assert "[FAIL]" in bad

    def test_exact_fractions_survive(self):
        rep = build_report("transpositions:4")
        doc = json.loads(to_json(rep))
        assert {(r["kappa"], r["kappa_decimal"]) for r in doc["edges"]} == \
               {("1/6", "0.166666666666667")}

    def test_determinism_across_runs(self):
        a = build_report("petersen", "cycle:5")
        b = build_report("petersen", "cycle:5")
        assert to_json(a) == to_json(b)
        assert to_csv(a) == to_csv(b)
        assert to_table(a) == to_table(b)

    def test_all_passed_flag(self):
        def passed(report):
            return [c["passed"] for c in json.loads(to_json(report))["checks"]]

        assert all(passed(build_report("hypercube:2")))
        assert not all(passed(build_report("hypercube:3", perturb="rho")))
