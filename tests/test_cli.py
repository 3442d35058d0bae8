"""Command line contract: outputs, exit codes, artifacts, determinism."""

import csv
import io
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphcurvature import cli
from graphcurvature.checks import EdgeFact, VertexFact, gather_facts
from graphcurvature.cli import main
from graphcurvature.corpus import default_corpus_specs
from graphcurvature.graphs import _verify_symmetries, load_graph, orbit_parents

from conftest import perturbed

SRC = Path(__file__).resolve().parent.parent / "src"


def unreachable_json(tmp_path):
    """A truncated 5-cycle with an isolated vertex `a` (id 5) that the
    truncation center cannot reach."""
    p = tmp_path / "unreachable.json"
    p.write_text(json.dumps({
        "vertices": [0, 1, 2, 3, 4, 5],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
        "labels": {"5": "a"},
        "truncation": {"center": 0, "radius": 5},
    }))
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perturb_gathered(monkeypatch, kind):
    """Make every `verify` run perturb its gathered facts."""
    gather = cli.gather_facts
    monkeypatch.setattr(cli, "gather_facts",
                        lambda item: perturbed(gather(item), kind))


class TestCurvatureCommand:
    def test_vertex_probe(self, capsys):
        code, out, err = run_cli(
            capsys, "curvature", "gen:petersen", "--vertex", "o0")
        assert code == 0
        assert "-1" in out
        assert "multi-unlinked" in out

    @pytest.mark.parametrize("spec, rhos", [
        ("zigzag:hypercube:6,cycle:6", {"-1.4142135623731"}),
        ("zigzag:hypercube:6,complete:6", {"-0.17579566188592"}),
        ("star:3", {"0", "1"}),
        ("flip:8", {"-3", "-2.30277563773199", "-2.17008648662603",
                    "-1.61803398874989"}),
    ])
    def test_vertex_probe_prints_its_all_row(self, capsys, spec, rhos):
        # rho prints one correctly rounded string per refined class, and
        # --vertex prints the one its --all row prints: -sqrt(2) once
        # printed as -1.4142135623731 and -1.41421356237309 by vertex
        # order, and the triple eigenvalue of the complete:6 zigzag as 35
        # strings, none correctly rounded
        code, out, _ = run_cli(capsys, "curvature", f"gen:{spec}", "--all",
                               "--format", "csv")
        assert code == 0
        rows = {r[2]: r[5] for r in csv.reader(io.StringIO(out))
                if r[0] == "vertex"}
        assert set(rows.values()) == rhos
        for label in list(rows)[::max(1, len(rows) // 6)]:
            code, out, _ = run_cli(capsys, "curvature", f"gen:{spec}",
                                   "--vertex", label, "--format", "csv")
            assert code == 0
            (row,) = [r for r in csv.reader(io.StringIO(out)) if r[0] == "vertex"]
            assert row[5] == rows[label], label

    def test_edge_probe_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "gen:cycle:5", "--edge", "1,2")
        assert code == 0
        assert "1/4" in out

    def test_edge_probe_parenthesized_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "gen:zigzag:hypercube:6,cycle:6",
            "--edge", "(000000,1),(010000,3)")
        assert code == 0
        assert "-1/4" in out

    def test_all_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "gen:hypercube:2", "--all",
            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4
        assert len(doc["edges"]) == 4
        assert all(r["kappa"] == "1/2" for r in doc["edges"])
        assert all(r["rho"] == "2" for r in doc["vertices"])
        assert all(c["passed"] for c in doc["checks"])

    def test_all_sweep_csv_parses_back(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "gen:cycle:5", "--all", "--format", "csv")
        assert code == 0
        kinds = [row[0] for row in csv.reader(io.StringIO(out))]
        assert kinds.count("vertex") == kinds.count("edge") == 5

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "curvature", "gen:hypercube:2", "--all",
            "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        checks = json.loads(target.read_text())["checks"]
        assert checks and all(c["passed"] for c in checks)

    def test_file_source(self, capsys, tmp_path):
        p = tmp_path / "edge.json"
        p.write_text(json.dumps({
            "vertices": [0, 1], "edges": [[0, 1]],
            "labels": {"0": "x", "1": "y"},
        }))
        code, out, _ = run_cli(
            capsys, "curvature", f"file:{p}", "--vertex", "x")
        assert code == 0
        assert "2" in out

    def test_truncation_refusal(self, capsys):
        code, out, err = run_cli(
            capsys, "curvature", "gen:tree:3:4", "--vertex", "r.1.1.1.1")
        assert code == 2
        assert "refusing to probe" in err

    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(capsys, "curvature", "gen:nonsense", "--all")
        assert code == 2
        assert "error:" in err

    def test_non_edge_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "curvature", "gen:cycle:6", "--edge", "1,3")
        assert code == 2
        assert "error:" in err

    def test_non_edge_refusal_names_labels(self, capsys):
        code, _, err = run_cli(
            capsys, "curvature", "gen:petersen", "--edge", "o0,o2")
        assert code == 2
        assert "(o0, o2) is not an edge" in err

    def test_isolated_vertex_refusal_names_label(self, capsys, tmp_path):
        p = tmp_path / "isolated.json"
        p.write_text(json.dumps({
            "vertices": [0, 1, 2, 3, 4, 5],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
            "labels": {"5": "a"},
        }))
        code, _, err = run_cli(
            capsys, "curvature", f"file:{p}", "--vertex", "a")
        assert code == 2
        assert "refusing to probe a: it is isolated" in err

    def test_unreachable_vertex_refusal_names_label(self, capsys, tmp_path):
        p = unreachable_json(tmp_path)
        code, out, err = run_cli(
            capsys, "curvature", f"file:{p}", "--vertex", "a")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "refusing to probe a:" in err
        assert "5" not in err

    @pytest.mark.parametrize("probe, refusal", [
        (("--vertex", "a"), "refusing to probe a: it is not connected to "
                            "the truncation center"),
        (("--edge", "a,b"), "refusing to probe edge (a, b): it is not "
                            "connected to the truncation center"),
    ])
    def test_unreachable_edge_refusal_names_the_center(
            self, capsys, tmp_path, probe, refusal):
        # a-b is an edge of its own, away from the truncated 5-cycle
        p = tmp_path / "unreachable-edge.json"
        p.write_text(json.dumps({
            "vertices": [0, 1, 2, 3, 4, 5, 6],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [5, 6]],
            "labels": {"5": "a", "6": "b"},
            "truncation": {"center": 0, "radius": 5},
        }))
        code, out, err = run_cli(capsys, "curvature", f"file:{p}", *probe)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert refusal in err
        assert "boundary" not in err


class TestVerifyCommand:
    SMALL = ["hypercube:2..3", "cycle:5", "star:3"]

    def test_unreachable_vertex_is_a_skipped_row(self, capsys, tmp_path):
        p = unreachable_json(tmp_path)
        code, out, err = run_cli(capsys, "verify", f"file:{p}",
                                 "--format", "csv")
        assert code == 0
        assert err == ""
        rows = [r for r in csv.DictReader(io.StringIO(out))
                if r["kind"] == "vertex"]
        assert [(r["a"], r["safe"]) for r in rows] == \
            [(str(v), "1") for v in range(5)] + [("a", "0")]

    def test_small_corpus_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", *self.SMALL)
        assert code == 0
        assert "[FAIL]" not in out
        assert err == ""

    def test_range_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "hypercube:2..3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        graphs = {r["graph"] for r in doc["vertices"]}
        assert graphs == {"hypercube:2", "hypercube:3"}
        assert set(doc["timing"]) == {"hypercube:2", "hypercube:3"}

    def test_fault_injection_fails_and_writes_artifacts(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVATURE_CORPUS_DIR", str(tmp_path))
        perturb_gathered(monkeypatch, "kappa")
        code, out, err = run_cli(capsys, "verify", "hypercube:3")
        assert code == 1
        assert "[FAIL]" in out
        assert "check(s) failed" in err
        graph_file = tmp_path / "hypercube_3.json"
        violations_file = tmp_path / "hypercube_3.violations.json"
        assert graph_file.exists() and violations_file.exists()
        # the artifact graph round-trips into the library
        g = load_graph(graph_file)
        assert len(g.vertices) == 8
        doc = json.loads(violations_file.read_text())
        assert doc["spec"] == "hypercube:3"
        # hypercube:3 has one edge class, so every edge is raised to
        # kappa = 10/21, and 1/kappa* < 3, its diameter
        assert {v["check"] for v in doc["violations"]} == {
            "ollivier-class", "bipartite-transport",
            "transport-upper-bound", "quantization", "diameter-bounds",
            "duality"}

    def test_artifact_replays_to_the_same_violations(
            self, capsys, tmp_path, monkeypatch):
        # kappa raised by 1/2 on the class of the worked-out zigzag edge:
        # the deep checks follow the edge classes, not the spec, so the
        # file: replay of the artifact examines the same edges and reports
        # the same violations, detail for detail but for the graph's key
        monkeypatch.setenv("CURVATURE_CORPUS_DIR", str(tmp_path))
        gather = cli.gather_facts

        def raised(item):
            facts = gather(item)
            g = facts.graph
            pair = sorted(map(g.resolve_vertex, ("(000000,1)", "(010000,3)")))
            worked = facts.edge_class[g.edges.index(tuple(pair))]
            return replace(facts, edges=tuple(
                replace(ef, kappa=ef.kappa + Fraction(1, 2)) if c == worked
                else ef for ef, c in zip(facts.edges, facts.edge_class)))

        monkeypatch.setattr(cli, "gather_facts", raised)
        spec = "zigzag:hypercube:6,cycle:6"
        graph_file = tmp_path / "zigzag_hypercube_6_cycle_6.json"
        found = []
        for source in (spec, f"file:{graph_file}"):
            code, _, _ = run_cli(capsys, "verify", source)
            assert code == 1, source
            name = cli._safe_filename(source) + ".violations.json"
            doc = json.loads((tmp_path / name).read_text())
            found.append([(v["check"], [d.replace(source, "<graph>", 1)
                                        for d in v["details"]])
                          for v in doc["violations"]])
        assert [c for c, _ in found[0]] == [
            "ollivier-class", "witness-bounds", "duality"]
        assert found[1] == found[0]

    def test_no_artifacts_without_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CURVATURE_CORPUS_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        perturb_gathered(monkeypatch, "rho")
        code, *_ = run_cli(capsys, "verify", "hypercube:2")
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_padded_spec_keys_rows_and_timing_alike(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", " gen:hypercube:2 ", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        graphs = {r["graph"] for r in doc["vertices"] + doc["checks"]}
        assert graphs == set(doc["timing"]) == {"hypercube:2"}

    def test_specs_sharing_a_key_run_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "hypercube:2", "gen:hypercube:2",
            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4 and len(doc["checks"]) == 11
        assert set(doc["timing"]) == {"hypercube:2"}
        _, out, _ = run_cli(capsys, "verify", "hypercube:2", "gen:hypercube:2")
        assert out.count("== hypercube:2 ==") == 1

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_parallel_matches_sequential(self, capsys, fmt):
        code1, out1, _ = run_cli(
            capsys, "verify", *self.SMALL, "--format", fmt)
        code2, out2, _ = run_cli(
            capsys, "verify", *self.SMALL, "--format", fmt, "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2  # neither carries timing, so byte-identical

    def test_worker_result_holds_no_graph_or_fact(self):
        # a --jobs worker sends back text rows and check results, never a
        # Graph or a fact
        found = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                found.add((module, name))
                return super().find_class(module, name)

        Recording(io.BytesIO(pickle.dumps(cli._verify_one("petersen")))).load()
        assert {c for c in found if c[0].startswith("graphcurvature")} == {
            ("graphcurvature.report", "Section"),
            ("graphcurvature.report", "Rows"),
            ("graphcurvature.checks", "CheckResult")}

    @pytest.mark.parametrize("spec", [
        "zigzag:hypercube:4,complete-bipartite:2",
        "zigzag:hypercube:6,complete:6",
        "zigzag:hypercube:2,path:2",
    ])
    def test_zigzag_beside_a_cycle_factor_verifies(self, capsys, spec):
        # zigzag products over second factors other than a cycle verify
        # too: nothing in the corpus layer reads a factor's labels
        code, _, err = run_cli(capsys, "verify", spec, "--format", "csv")
        assert (code, err) == (0, "")

    def test_pool_never_outnumbers_specs(self, capsys, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            # records the pool size and runs the work in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        code, _, _ = run_cli(capsys, "verify", "cycle:4..5", "--jobs", "8")
        assert code == 0 and sizes == [2]
        code, _, _ = run_cli(capsys, "verify", "cycle:5", "--jobs", "8")
        assert code == 0 and sizes == [2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "cycle:5", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("doc", [
        {"vertices": [0, 1, 2], "edges": [[0, 1]]},
        {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [2, 3]]},
        {"vertices": [], "edges": []},
        # a 4-cycle beside an isolated first vertex still has a safe edge
        # class for the deep checks
        {"vertices": [0, 1, 2, 3, 4],
         "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    ], ids=["isolated-vertex", "two-edges", "empty", "isolated-first-vertex"])
    def test_degenerate_graphs_pass(self, capsys, tmp_path, doc):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        for argv in (["verify", f"file:{p}"],
                     ["curvature", f"file:{p}", "--all"]):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            checks = json.loads(out)["checks"]
            if not doc["vertices"]:
                # nothing to examine, so no check applies
                assert not any(c["applicable"] for c in checks), argv
            if doc["edges"]:
                # every edge of an untruncated graph is transport-safe, so
                # the deep transport checks apply
                (duality,) = [c for c in checks if c["check"] == "duality"]
                assert duality["applicable"] and duality["passed"], argv

    @pytest.mark.parametrize("spec", ["path:1", "lattice:2:1", "tree:3:1"])
    def test_graphs_without_safe_vertices_pass(self, capsys, spec):
        # an isolated vertex, or truncated balls too shallow to probe
        # anywhere: every row is skipped and no check applies
        for argv in (["verify", spec], ["curvature", f"gen:{spec}", "--all"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert "(skipped)" in out
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            doc = json.loads(out)
            assert all(r["rho"] is None for r in doc["vertices"]), argv
            assert all(r["kappa"] is None for r in doc["edges"]), argv
            assert not any(c["applicable"] for c in doc["checks"]), argv

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                           st.integers(0, max(n - 1, 0))),
                 max_size=12),
    )))
    def test_small_graphs_never_fail(self, capsys, tmp_path, case):
        # isolated vertices and disconnected graphs included
        n, pairs = case
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        p = tmp_path / "fuzz.json"
        p.write_text(json.dumps({"vertices": list(range(n)),
                                 "edges": [list(e) for e in edges]}))
        for argv in (["verify", f"file:{p}", "--format", "csv"],
                     ["curvature", f"file:{p}", "--all", "--format", "csv"]):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), (argv, edges)
        for fmt in ("table", "json"):
            argv = ["diameter-bound", f"file:{p}", "--format", fmt]
            code, _, err = run_cli(capsys, *argv)
            assert code in (0, 1, 2), (argv, edges)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (
                    argv, edges, err)
            else:
                assert err == "", (argv, edges)

    def test_each_graph_verifies_its_symmetries_once(self, capsys, monkeypatch):
        # the sweep, contains_k3, contains_k23 and diameter all read the
        # orbit map, yet each graph's declared symmetries are verified
        # once over a default-corpus run
        verified, reads = Counter(), Counter()
        kept = []  # every graph stays alive, so no id is reused

        def counting_verify(g):
            verified[id(g)] += 1
            kept.append(g)
            _verify_symmetries(g)

        def counting_walk(g):
            reads[id(g)] += 1
            return orbit_parents(g)

        monkeypatch.setattr("graphcurvature.graphs._verify_symmetries",
                            counting_verify)
        for module in ("graphs", "checks"):
            monkeypatch.setattr(f"graphcurvature.{module}.orbit_parents",
                                counting_walk)
        code, _, err = run_cli(capsys, "verify", "--jobs", "1",
                               "--format", "csv")
        assert code == 0 and err == ""
        assert len(verified) == len(default_corpus_specs())
        assert set(verified.values()) == {1}
        assert reads.keys() == verified.keys()
        assert min(reads.values()) >= 3

    def test_one_fact_record_per_class(self, capsys, monkeypatch):
        # with every check passing, the checks and the report read each
        # class through its head, so a default-corpus run builds one
        # VertexFact per vertex class and one EdgeFact per edge class
        built, swept = Counter(), []

        def counting(cls):
            init = cls.__init__

            def counted(self, *args):
                built[cls.__name__] += 1
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)

        def sweep(item):
            facts = gather_facts(item)
            swept.append(facts)
            return facts

        counting(VertexFact)
        counting(EdgeFact)
        monkeypatch.setattr(cli, "gather_facts", sweep)
        code, _, err = run_cli(capsys, "verify", "--jobs", "1",
                               "--format", "csv")
        assert code == 0 and err == ""
        assert len(swept) == len(default_corpus_specs())
        assert built["VertexFact"] == sum(
            len(set(f.vertex_class)) for f in swept) == 91
        assert built["EdgeFact"] == sum(
            len(set(f.edge_class)) for f in swept) == 59

    def test_json_differs_only_in_timing(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "cycle:5", "--format", "json")
        _, out2, _ = run_cli(
            capsys, "verify", "cycle:5", "--format", "json", "--jobs", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing"), d2.pop("timing")
        assert d1 == d2


class TestDiameterBoundCommand:
    def test_tight_hypercube(self, capsys):
        code, out, _ = run_cli(capsys, "diameter-bound", "gen:hypercube:4")
        assert code == 0
        assert "diameter: 4" in out
        assert "4 <= 4: holds" in out

    def test_star_uses_irregular_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "diameter-bound", "gen:star:5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diameter"] == 2
        assert doc["kappa_star"] == "1/5"
        names = [b["name"] for b in doc["bounds"]]
        assert any("2d^2-2d" in n for n in names)
        assert all(b["holds"] for b in doc["bounds"])

    def test_nonpositive_curvature_reports_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "diameter-bound", "gen:petersen")
        assert code == 0
        assert "not applicable" in out

    def test_truncated_graph_rejected(self, capsys):
        code, _, err = run_cli(capsys, "diameter-bound", "gen:lattice:2:4")
        assert code == 2
        assert "truncated" in err

    def test_disconnected_raw_graph(self, capsys, tmp_path):
        p = tmp_path / "two.json"
        p.write_text(json.dumps({
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [2, 3]],
        }))
        code, _, err = run_cli(capsys, "diameter-bound", f"file:{p}")
        assert code == 2
        assert "disconnected" in err

    def test_edgeless_graph_rejected(self, capsys):
        code, _, err = run_cli(capsys, "diameter-bound", "gen:path:1")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no edges" in err


class TestGraphInput:
    @pytest.mark.parametrize("endpoint", [1.0, True])
    def test_non_integer_endpoint_refused(self, capsys, tmp_path, endpoint):
        # 1.0 and true equal the id 1 but are not vertex ids
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, endpoint]]}))
        for argv in (["curvature", f"file:{p}", "--all", "--format", "csv"],
                     ["gen", f"file:{p}"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: vertex id {endpoint!r} is not an integer\n"

    @pytest.mark.parametrize("label", [1.7, True, "2", None])
    def test_non_integer_edge_label_refused(self, capsys, tmp_path, label):
        # 1.7 and true once loaded as 1 and "2" as 2; null was blamed on
        # the key
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]],
                                 "edge_labels": {"0,1": label}}))
        code, out, err = run_cli(capsys, "gen", f"file:{p}")
        assert (code, out) == (2, "")
        assert err == (f"error: edge label {label!r} at key '0,1' is not "
                       f"an integer\n")

    def test_nul_in_label_refused(self, capsys, tmp_path):
        # the csv module of Python 3.10 raised on a NUL in a label, so
        # verify --format csv ended in a traceback there
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]],
                                 "labels": {"0": "a\u0000b", "1": "c"}}))
        for argv in (["verify", f"file:{p}", "--format", "csv"],
                     ["gen", f"file:{p}"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == ("error: label 'a\\x00b' for vertex 0 holds a "
                           "NUL\n"), argv

    def test_lone_surrogate_in_label_refused(self, capsys, tmp_path):
        # valid JSON, but no output encoding takes "\ud800": verify and
        # curvature --all ended in a traceback with exit 1 writing it
        p = tmp_path / "g.json"
        p.write_text('{"vertices": [0, 1], "edges": [[0, 1]], '
                     '"labels": {"0": "\\ud800", "1": "b"}}')
        for argv in (["verify", f"file:{p}", "--format", "csv"],
                     ["verify", f"file:{p}"],
                     ["curvature", f"file:{p}", "--all"],
                     ["diameter-bound", f"file:{p}"],
                     ["gen", f"file:{p}"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == ("error: label '\\ud800' for vertex 0 holds a "
                           "lone surrogate\n"), argv

    def test_two_labels_for_one_edge_refused(self, capsys, tmp_path):
        # "1,0" once overwrote the label of "0,1" without a word
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]],
                                 "edge_labels": {"0,1": 1, "1,0": 2}}))
        for argv in (["verify", f"file:{p}"], ["gen", f"file:{p}"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (
                2, "", "error: two edge labels for edge (0, 1)\n"), argv

    def test_out_keeps_a_path_that_is_not_utf8(self, capsys, tmp_path):
        # the report key and an edge list's name hold the path's byte 0xff
        # as "\udcff", which a strict UTF-8 --out file refused with a
        # traceback
        p = tmp_path / "x\udcff.txt"
        p.write_text("0 1\n1 2\n2 0\n")
        report, edges = tmp_path / "out.csv", tmp_path / "out.edges"
        code, out, err = run_cli(capsys, "verify", f"file:{p}", "--format",
                                 "csv", "--out", str(report))
        assert (code, out, err) == (0, "", "")
        assert b"\nvertex,file:" + bytes(p) + b",0," in report.read_bytes()
        code, out, err = run_cli(capsys, "gen", f"file:{p}", "--format",
                                 "edgelist", "--out", str(edges))
        assert (code, out, err) == (0, "", "")
        assert edges.read_bytes().startswith(b"# " + bytes(p) + b"\n")
        # and the edge list reads back, the byte in its comment line
        code, _, err = run_cli(capsys, "verify", f"file:{edges}")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("content, message", [
        (b'{"vertices": [0, 1], "edges": [[0, 1]], '
         b'"labels": {"0": "\xff", "1": "b"}}',
         "label '\\udcff' for vertex 0 holds a lone surrogate"),
        (b"0 1\n1 \xff\n",
         "line 2: vertex ids must be integers, got '1 \\udcff'"),
    ], ids=["json label", "edge list id"])
    def test_content_that_is_not_utf8_refused(self, capsys, tmp_path,
                                              content, message):
        # a strict UTF-8 read ended in a traceback with exit 1
        p = tmp_path / "g.txt"
        p.write_bytes(content)
        code, out, err = run_cli(capsys, "verify", f"file:{p}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize("where", ["labels", "edge_labels", "edge list",
                                       "--vertex"])
    @pytest.mark.parametrize("token", ["1_0", " 0 ", "+3", "٣"])
    def test_ids_must_spell_a_vertex(self, capsys, tmp_path, token, where):
        # int() reads each token as an id: "1_0" once loaded as vertex 10
        # and " 0 " as vertex 0, and both were written back under those ids;
        # --vertex 1_0 probed vertex 10
        if where == "--vertex":
            code, out, err = run_cli(capsys, "curvature", "gen:cycle:12",
                                     "--vertex", token)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: no vertex matches {token!r}")
            return
        if where == "edge list":
            p = tmp_path / "g.edges"
            p.write_text(f"1 3\n1 {token}\n")
            named = f"1 {token}"
        else:
            p = tmp_path / "g.json"
            named = token if where == "labels" else f"1,{token}"
            p.write_text(json.dumps({
                "vertices": [0, 1, 3, 10], "edges": [[0, 1], [1, 3], [1, 10]],
                where: {named: "a" if where == "labels" else 3}}))
        code, out, err = run_cli(capsys, "gen", f"file:{p}")
        if where == "edge list" and token == " 0 ":
            # blanks separate the ids of an edge list line
            assert (code, err) == (0, "")
            assert json.loads(out)["edges"] == [[0, 1], [1, 3]]
            return
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(named) in err

    @pytest.mark.parametrize("key, message", [
        ("1,+3", "edge label key '1,+3': '+3' is not a vertex id"),
        ("1_0,3", "edge label key '1_0,3': '1_0' is not a vertex id"),
        ("1,2,3", "edge label key '1,2,3' is not a \"u,v\" pair"),
        ("13", "edge label key '13' is not a \"u,v\" pair"),
    ])
    def test_edge_label_key_names_what_is_wrong(self, capsys, tmp_path, key,
                                                message):
        # a misspelt id in a pair was once blamed on the pair's shape
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"vertices": [0, 1, 3],
                                 "edges": [[0, 1], [1, 3]],
                                 "edge_labels": {key: 3}}))
        code, out, err = run_cli(capsys, "gen", f"file:{p}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sets(st.tuples(st.integers(-2, 9), st.integers(-2, 9))
                   .filter(lambda e: e[0] < e[1]), min_size=1, max_size=14))
    def test_edge_list_round_trip(self, capsys, tmp_path, edges):
        # written by gen as an edge list and read back through file:, the
        # graph keeps its vertices and edges, and both sweeps run clean;
        # an edge list has no isolated vertices, so none are drawn
        vertices = sorted({v for e in edges for v in e})
        src = tmp_path / "fuzz.json"
        src.write_text(json.dumps({"vertices": vertices,
                                   "edges": [list(e) for e in edges]}))
        target = tmp_path / "fuzz.edges"
        code, _, err = run_cli(capsys, "gen", f"file:{src}", "--format",
                               "edgelist", "--out", str(target))
        assert (code, err) == (0, ""), edges
        g = load_graph(target)
        assert list(g.vertices) == vertices and set(g.edges) == edges
        for argv in (["verify", f"file:{target}", "--format", "csv"],
                     ["curvature", f"file:{target}", "--all", "--format", "csv"]):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), (argv, edges)


class TestGenCommand:
    def test_json_stdout_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "gen:petersen")
        assert code == 0
        p = tmp_path / "g.json"
        p.write_text(out)
        g = load_graph(p)
        assert len(g.vertices) == 10 and len(g.edges) == 15

    def test_edgelist_out(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        code, out, _ = run_cli(
            capsys, "gen", "gen:cycle:6", "--format", "edgelist",
            "--out", str(target))
        assert code == 0
        g = load_graph(target)
        assert len(g.edges) == 6

    @pytest.mark.parametrize("d", [62, 63, 64])
    def test_oversized_hypercube_refused(self, capsys, d):
        # 2**d int64 ids would wrap at d = 63 and numpy refuses the table
        # at 62 and 64; smaller dimensions are not tried, since their
        # tables would be allocated
        code, out, err = run_cli(capsys, "gen", f"gen:hypercube:{d}")
        assert (code, out, err) == (
            2, "", f"error: hypercube of dimension {d} is too large to build\n")

    def test_generated_lattice_keeps_truncation(self, capsys, tmp_path):
        target = tmp_path / "lat.json"
        code, *_ = run_cli(
            capsys, "gen", "gen:lattice:2:4", "--out", str(target))
        assert code == 0
        g = load_graph(target)
        assert g.truncation is not None
        assert g.truncation.host_degree == 4


class TestEntryPoint:
    def test_console_script_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "graphcurvature", "--help"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "curvature" in proc.stdout
