"""Check battery semantics, fault injection, and report serialization."""

import csv
import io
import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcurvature import bakry_emery, checks, ollivier
from graphcurvature.bakry_emery import gamma2_form
from graphcurvature.checks import (
    ALL_CHECKS,
    CheckResult,
    gather_facts,
    run_checks,
)
from graphcurvature.classify import bipartite_decomposition
from graphcurvature.corpus import CorpusItem, build_item, default_corpus_specs
from graphcurvature.families import complete_graph, cycle
from graphcurvature.graphs import (
    Graph,
    GraphError,
    Truncation,
    bfs_distances,
    contains_k3,
    contains_k23,
    diameter,
    effective_degree,
    extract_ball,
    orbit_parents,
)
from graphcurvature.ollivier import kappa_detail
from graphcurvature.report import (
    CurvatureReport,
    Rows,
    Section,
    _csv_field,
    edge_cells,
    section,
    to_csv,
    to_json,
    to_table,
)

from conftest import exact_rho, perturbed
from oracles import (
    ball_key_one_by_one,
    checks_one_by_one,
    csv_one_by_one,
    edge_facts_one_by_one,
    oracle_bipartite_decomposition,
    oracle_contains_k3,
    oracle_contains_k23,
    oracle_diameter,
    orbit_roots,
    section_one_by_one,
    vertex_facts_one_by_one,
)

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
        item = CorpusItem("complete:4", g)
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
        facts = gather_facts(CorpusItem("two-edges", g))
        res = by_name(run_checks(facts))
        assert all_passed(res.values())
        assert not res["diameter-bounds"].applicable
        assert res["diameter-bounds"].details == ("graph is disconnected",)

    def test_isolated_vertices_are_skipped(self):
        g = Graph(range(3), [(0, 1)])
        facts = gather_facts(CorpusItem("edge+point", g))
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
            got = tuple(facts.vertices)
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

    @pytest.mark.parametrize("spec, relabelled", [
        ("complete-bipartite:6", 1), ("tree:5:4", 1), ("star:8", 2)])
    def test_one_relabelling_per_positional_adjacency(
            self, monkeypatch, spec, relabelled):
        # the positional key holds the ball's adjacency by position alone,
        # so roots whose balls match position for position share one
        # relabelling, wherever the base's id falls among its neighbors':
        # one for all leaves of the star and one for its centre
        calls = []

        def counting(key):
            calls.append(key)
            return relabel(key)

        relabel = checks._relabel
        monkeypatch.setattr(checks, "_relabel", counting)
        gather_facts(build_item(spec))
        assert len(calls) == relabelled

    @pytest.mark.parametrize("spec, classes", [
        ("hypercube:8", 1), ("transpositions:5", 1), ("flip:8", 4)])
    def test_one_eigensolve_per_refined_class(self, monkeypatch, spec, classes):
        # rho is certified once per refined class, from one eigh estimate,
        # and every vertex of the class shares that certificate; the
        # dense-sweep graphs have no class with rho = 0, which needs none
        calls = []
        estimate = bakry_emery.lowest_eigenpair

        def counting(form):
            calls.append(form.index)
            return estimate(form)

        monkeypatch.setattr(bakry_emery, "lowest_eigenpair", counting)
        facts = gather_facts(build_item(spec))
        shared = {id(vf.rho): vf for vf in facts.vertices if vf.safe}
        assert len(calls) == len(shared) == classes
        # the class thresholds are decided with the certificate
        for vf in shared.values():
            assert {0, 2, Fraction(-2, vf.degree - 1)} <= set(vf.rho.signs)

    @pytest.mark.parametrize("spec, classes", [
        ("transpositions:5", 1), ("hypercube:8", 1), ("flip:8", 7)])
    def test_vertex_classes_do_not_split_on_rho_bits(self, spec, classes):
        # the float rho of each sphere1 labelling once split
        # transpositions:5 into 9 vertex classes, from 2.0 to
        # 2.0000000000000036; the certified rho is the refined class's own
        facts = gather_facts(build_item(spec))
        assert len(set(facts.vertex_class)) == classes

    @staticmethod
    def _count_balls(monkeypatch):
        # count extract_ball wherever a package module imported it
        calls = []

        def counting(g, x):
            calls.append(x)
            return extract_ball(g, x)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphcurvature") and hasattr(module, "extract_ball"):
                monkeypatch.setattr(module, "extract_ball", counting)
        return calls

    @staticmethod
    def _first_root_of_each_class(g):
        # the roots in order, each kept when its refined class is new
        firsts = {}
        for r in orbit_roots(g):
            if g.two_ball_complete(r) and g.degree(r):
                firsts.setdefault(checks._relabel(checks._ball_key(g, r))[0], r)
        return list(firsts.values())

    def test_one_ball_per_refined_class_on_orbit_roots(self, monkeypatch):
        # the fan, the inner triangle and the zigzag: the three orbits of
        # the hexagon's dihedral group on its 14 triangulations; the keys
        # are read off the graph, and only the two refined classes among
        # the three roots have their two-balls built
        calls = self._count_balls(monkeypatch)
        item = build_item("flip:6")
        facts = gather_facts(item)
        assert sum(vf.safe for vf in facts.vertices) == 14
        assert len(orbit_roots(item.graph)) == 3
        assert calls == self._first_root_of_each_class(item.graph)
        assert len(calls) == 2

    def test_one_ball_per_refined_class_without_symmetries(self, monkeypatch):
        # a graph that declares no symmetry sweeps every vertex as a root,
        # and the Petersen graph's ten two-balls form one refined class
        calls = self._count_balls(monkeypatch)
        item = build_item("petersen")
        assert item.graph.symmetries == ()
        facts = gather_facts(item)
        assert sum(vf.safe for vf in facts.vertices) == 10
        assert calls == self._first_root_of_each_class(item.graph) == [0]

    def test_second_sphere_is_part_of_the_key(self):
        # 0 and 10 both have two degree-3 neighbors with the base first in
        # their rows; the neighbors of 0 share their other two neighbors,
        # those of 10 do not, which links them at 0 but not at 10
        g = Graph(
            [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16],
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
             (10, 11), (10, 12), (11, 13), (11, 14), (12, 15), (12, 16)],
        )
        facts = gather_facts(CorpusItem("two-shapes", g))
        assert tuple(facts.vertices) == vertex_facts_one_by_one(g)
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
        facts = gather_facts(CorpusItem("wheel-and-cone", g))
        assert tuple(facts.vertices) == vertex_facts_one_by_one(g)
        assert tuple(facts.edges) == edge_facts_one_by_one(g)
        at = {vf.vertex: vf for vf in facts.vertices}
        assert at[0].rho.exact == Fraction(1, 2)
        assert at[10].rho.exact == Fraction(-3, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_graphs_match_one_by_one(self, data):
        # a random graph, an isomorphic copy under a random renaming, and
        # ids shuffled over both: the copies share every refined class;
        # at times a truncation cuts some edges of swept vertices
        n = data.draw(st.integers(1, 8), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]), label="edges")
        ids = data.draw(st.permutations(range(2 * n)), label="ids")
        copy = data.draw(st.permutations(range(n)), label="copy")
        truncation = data.draw(st.none() | st.builds(
            Truncation, st.integers(0, 2 * n - 1), st.integers(0, 6)),
            label="truncation")
        both = [(ids[u], ids[v]) for u, v in edges]
        both += [(ids[n + copy[u]], ids[n + copy[v]]) for u, v in edges]
        g = Graph(range(2 * n), both, truncation=truncation)
        facts = gather_facts(CorpusItem("random", g))
        assert tuple(facts.vertices) == vertex_facts_one_by_one(g)
        assert tuple(facts.edges) == edge_facts_one_by_one(g)
        assert_checks_match_one_by_one(facts)


class TestSymmetries:
    # hosts of every kind the families declare symmetries for, and how
    # many orbits those symmetries leave
    DECLARED = {
        **{f"hypercube:{d}": 1 for d in range(1, 6)},
        **{f"transpositions:{n}": 1 for n in range(2, 5)},
        **{f"adjacent-transpositions:{n}": 1 for n in range(2, 6)},
        **{f"interchange:{h}": 1 for h in (
            "matching:1", "matching:2", "matching:3", "paths:2", "paths:2+1",
            "paths:2+2", "paths:3", "star:3", "complete:3", "cycle:4")},
        "flip:4": 1, "flip:5": 1, "flip:6": 3, "flip:7": 4, "flip:8": 12,
        "zigzag:hypercube:4,cycle:4": 4,
        "zigzag:hypercube:6,cycle:6": 6,
    }

    @pytest.mark.parametrize("spec", sorted(DECLARED))
    def test_declared_symmetries_verify(self, spec):
        g = build_item(spec).graph
        assert g.symmetries
        parents = orbit_parents(g)
        roots = [x for x, up in parents.items() if up is None]
        assert roots == orbit_roots(g)
        assert len(roots) == self.DECLARED[spec]
        rank = {x: i for i, x in enumerate(parents)}
        for x, up in parents.items():
            if up is not None:
                p, s = up
                assert s[p] == x and rank[p] < rank[x]

    def test_wrong_symmetry_refused(self):
        # 0 and 3 are at distance two with different neighborhoods
        item = build_item("hypercube:4")
        swap = list(range(16))
        swap[0], swap[3] = 3, 0
        item.graph.symmetries += (tuple(swap),)
        with pytest.raises(GraphError, match="internal: .* not an automorphism"):
            gather_facts(item)

    @pytest.mark.parametrize("change", [
        {1: 0}, {0: -1}, {7: 8}, "short", "long"],
        ids=["repeats an id", "negative id", "names n", "one entry short",
             "one entry long"])
    def test_malformed_symmetry_refused(self, change):
        # the whole-array check must refuse these, never index with them
        g = build_item("hypercube:3").graph
        s = list(range(8))
        if change == "short":
            s.pop()
        elif change == "long":
            s.append(0)
        else:
            for at, value in change.items():
                s[at] = value
        g.symmetries += (tuple(s),)
        with pytest.raises(GraphError, match="internal: .* not an automorphism"):
            orbit_parents(g)

    @pytest.mark.parametrize("s", [(1, 2, 3), (0, 1, 2), (2, 0, 1)])
    def test_symmetry_on_ids_not_from_zero_refused(self, s):
        # symmetries permute range(n), so a graph on other ids has none
        g = Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        g.symmetries = (s,)
        with pytest.raises(GraphError, match="internal: .* not an automorphism"):
            orbit_parents(g)

    def test_symmetry_moving_the_truncation_center_refused(self):
        # a rotation of the 6-cycle is an automorphism, but it moves the
        # center of the truncation and with it every vertex's safety
        g = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)],
                  truncation=Truncation(0, 5))
        g.symmetries = (tuple((i + 1) % 6 for i in range(6)),)
        with pytest.raises(GraphError, match="internal"):
            gather_facts(CorpusItem("rotated", g))

    def test_intransitive_symmetries_match_one_by_one(self):
        # two of the five bit flips leave eight orbits, so eight roots
        item = build_item("hypercube:5")
        item.graph.symmetries = item.graph.symmetries[:2]
        facts = gather_facts(item)
        assert len(orbit_roots(item.graph)) == 8
        assert tuple(facts.vertices) == vertex_facts_one_by_one(item.graph)
        assert tuple(facts.edges) == edge_facts_one_by_one(item.graph)


class TestBallKey:
    """checks._ball_key reads the positional key off the graph's rows; it
    must equal the key scanned from the extracted two-ball."""

    @staticmethod
    def assert_keys_match(g, vertices):
        for x in vertices:
            if g.two_ball_complete(x) and g.degree(x):
                assert checks._ball_key(g, x) == ball_key_one_by_one(g, x), (
                    g.name, x)

    def test_corpus_orbit_roots(self, corpus_items):
        for item in corpus_items.values():
            self.assert_keys_match(item.graph, orbit_roots(item.graph))

    def test_seeded_random_graphs(self):
        # scattered ids, negative ones included, and at times a
        # truncation, which leaves some vertices unswept and cuts the
        # second sphere of others
        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(1, 18)
            ids = rng.sample(range(-20, 40), n)
            p = rng.uniform(0.1, 0.6)
            edges = [(u, v) for u, v in itertools.combinations(ids, 2)
                     if rng.random() < p]
            truncation = (Truncation(rng.choice(ids), rng.randint(0, 6))
                          if seed % 3 == 0 else None)
            g = Graph(ids, edges, truncation=truncation, name=f"random-{seed}")
            self.assert_keys_match(g, orbit_roots(g))


def wrong_swap(g: Graph) -> None:
    """Declare one more symmetry on hypercube:4 that swaps 0 and 3, two
    vertices at distance two with different neighborhoods."""
    swap = list(range(16))
    swap[0], swap[3] = 3, 0
    g.symmetries += (tuple(swap),)


def assert_root_scans_match(g: Graph) -> None:
    assert contains_k3(g) == oracle_contains_k3(g), g.name
    assert contains_k23(g) == oracle_contains_k23(g), g.name
    assert diameter(g) == oracle_diameter(g), g.name


class TestRootScans:
    """contains_k3, contains_k23 and diameter scan from the orbit roots;
    with symmetries declared they must still match the brute-force
    oracles, which read no symmetry."""

    def test_seeded_circulants(self):
        # Z_n with random steps, the rotation and the reflection i -> -i
        # declared: one orbit, so every scan starts at vertex 0 alone
        answers = set()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(3, 24)
            steps = rng.sample(range(1, n // 2 + 1),
                               rng.randint(1, min(4, n // 2)))
            g = Graph(range(n), {tuple(sorted((i, (i + s) % n)))
                                 for i in range(n) for s in steps},
                      name=f"circulant {n} {sorted(steps)}")
            g.symmetries = (tuple((i + 1) % n for i in range(n)),
                            tuple(-i % n for i in range(n)))
            assert len(orbit_roots(g)) == 1
            assert_root_scans_match(g)
            answers.add((contains_k3(g), contains_k23(g),
                         diameter(g) is None))
        # triangles, 2x3 bicliques and disconnected circulants all occur,
        # and so do graphs free of both obstructions
        assert {k3 for k3, _, _ in answers} == {True, False}
        assert {k23 for _, k23, _ in answers} == {True, False}
        assert {split for _, _, split in answers} == {True, False}
        assert (False, False, False) in answers

    @pytest.mark.parametrize("first_two", [False, True],
                             ids=["all generators", "first two"])
    @pytest.mark.parametrize("spec", sorted(TestSymmetries.DECLARED))
    def test_declared_families(self, spec, first_two):
        g = build_item(spec).graph
        if first_two:
            g.symmetries = g.symmetries[:2]
        assert_root_scans_match(g)

    def test_k23_with_both_sides_declared(self):
        # the swap of the 2-side and a rotation of the 3-side leave the
        # roots 0 and 2; the pair (0, 1) is counted only in the rows of
        # 2, 3 and 4, none of them a root
        g = Graph(range(5), [(a, b) for a in (0, 1) for b in (2, 3, 4)],
                  name="K_{2,3}")
        g.symmetries = ((1, 0, 2, 3, 4), (0, 1, 3, 4, 2))
        assert orbit_roots(g) == [0, 2]
        assert contains_k23(g)
        assert_root_scans_match(g)


class TestUnverifiedSymmetries:
    @pytest.mark.parametrize("predicate", [contains_k3, contains_k23, diameter],
                             ids=lambda f: f.__name__)
    def test_each_predicate_refuses_a_wrong_symmetry(self, predicate):
        g = build_item("hypercube:4").graph
        wrong_swap(g)
        with pytest.raises(GraphError, match="internal: .* not an automorphism"):
            predicate(g)

    def test_reassigned_symmetries_are_read(self):
        # the sweep and every predicate first read all five bit flips;
        # two of them leave eight orbits, and a wrong swap is refused
        # by every reader though their answers are cached
        item = build_item("hypercube:5")
        g = item.graph
        gather_facts(item)
        assert diameter(g) == 5
        assert len([x for x, up in orbit_parents(g).items() if up is None]) == 1
        g.symmetries = g.symmetries[:2]
        roots = [x for x, up in orbit_parents(g).items() if up is None]
        assert roots == orbit_roots(g) and len(roots) == 8
        assert_root_scans_match(g)
        facts = gather_facts(item)
        assert tuple(facts.vertices) == vertex_facts_one_by_one(g)
        assert tuple(facts.edges) == edge_facts_one_by_one(g)
        item = build_item("hypercube:4")
        g = item.graph
        gather_facts(item)
        assert_root_scans_match(g)
        wrong_swap(g)
        for read in (orbit_parents, contains_k3, contains_k23, diameter,
                     lambda g: gather_facts(item)):
            with pytest.raises(GraphError, match="internal: .* not an automorphism"):
                read(g)


class TestRowViews:
    def test_rows_index_like_tuples(self):
        facts = gather_facts(build_item("hypercube:3"))
        for rows, n in ((facts.vertices, 8), (facts.edges, 12)):
            whole = tuple(rows)
            assert len(rows) == len(whole) == n
            assert [rows[i] for i in range(-n, n)] == list(whole + whole)
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    rows[i]
            assert list(rows) == list(iter(rows)) == list(whole)

    @pytest.mark.parametrize("spec", ["lattice:2:5", "edge+point"])
    def test_rows_match_one_by_one(self, spec):
        # a truncated lattice, whose unsafe edges cut some classed
        # vertices, and an isolated vertex
        if spec == "edge+point":
            item = CorpusItem(spec, Graph(range(3), [(0, 1)]))
        else:
            item = build_item(spec)
        facts = gather_facts(item)
        assert tuple(facts.vertices) == vertex_facts_one_by_one(item.graph)
        assert tuple(facts.edges) == edge_facts_one_by_one(item.graph)
        assert_checks_match_one_by_one(facts)
        assert not all(vf.safe for vf in facts.vertices)
        if item.graph.truncation is not None:
            assert not all(ef.safe for ef in facts.edges)

    def test_verify_builds_few_fact_records(self, monkeypatch, capsys):
        # a row's fact is built when a check or the report reads it, and
        # they read one row per class but for a failing class; the
        # default corpus has 3,722 vertex rows and 6,719 edge rows
        built = []
        for cls in (checks.VertexFact, checks.EdgeFact):
            def counting(fact, *args, init=cls.__init__):
                built.append(type(fact))
                init(fact, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        from graphcurvature.cli import main
        assert main(["verify", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert (out.count("\nvertex,"), out.count("\nedge,")) == (3722, 6719)
        assert 0 < len(built) < 1500


def random_triangle_free_regular(rng: random.Random, n: int,
                                 d: int) -> Graph:
    """A d-regular graph on n vertices without triangles: points paired
    uniformly at random, redrawn until the pairing is simple and
    triangle-free."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b))
                 for a, b in zip(points[::2], points[1::2])}
        if len(edges) * 2 == n * d and all(a != b for a, b in edges):
            g = Graph(range(n), edges, name=f"random-{d}-regular-{n}")
            if not oracle_contains_k3(g):
                return g


def random_bipartite_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A d-regular bipartite graph with n vertices a side: d perfect
    matchings between the sides, each redrawn until it meets no edge of
    the ones before."""
    edges: set[tuple[int, int]] = set()
    for _ in range(d):
        while True:
            right = rng.sample(range(n, 2 * n), n)
            matching = set(zip(range(n), right))
            if not matching & edges:
                edges |= matching
                break
    return Graph(range(2 * n), edges, name=f"random-bipartite-{d}-{n}")


def assert_orientations_agree(g: Graph) -> None:
    """The premises of the sweep's join of an edge key with its reverse:
    kappa across (x, y) equals kappa across (y, x) at every
    transport-safe edge, and on a triangle-free graph the biclique
    decomposition across (x, y) exists exactly when the one across (y, x)
    does, as the Galois-closure oracle finds too."""
    triangle_free = not oracle_contains_k3(g)
    for x, y in g.edges:
        if g.transport_neighborhood_complete(x, y):
            assert kappa_detail(g, x, y).kappa == \
                   kappa_detail(g, y, x).kappa, (g.name, x, y)
        if triangle_free:
            exists = bipartite_decomposition(g, x, y) is not None
            assert exists == (bipartite_decomposition(g, y, x) is not None) \
                == (oracle_bipartite_decomposition(g, x, y) is not None) \
                == (oracle_bipartite_decomposition(g, y, x) is not None), \
                (g.name, x, y)


class TestEdgeMemo:
    def test_matches_edge_by_edge_sweep(self, corpus_items, corpus_facts):
        # repeated edges are no longer certified one by one in a sweep, so
        # every kappa is compared with its own certified ollivier_kappa
        for key, item in corpus_items.items():
            assert tuple(corpus_facts[key].edges) == \
                   edge_facts_one_by_one(item.graph), key
        for spec in ("transpositions:5", "hypercube:8", "flip:8"):
            item = build_item(spec)
            assert tuple(gather_facts(item).edges) == \
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
        facts = gather_facts(CorpusItem("path-and-cycle", g))
        assert tuple(facts.vertices) == vertex_facts_one_by_one(g)
        assert tuple(facts.edges) == edge_facts_one_by_one(g)
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

    def test_both_orientations_agree_on_the_corpus(self, corpus_items):
        for item in corpus_items.values():
            assert_orientations_agree(item.graph)

    def test_both_orientations_agree_on_random_regular_graphs(self):
        rng = random.Random(32)
        graphs = [random_triangle_free_regular(rng, n, 3)
                  for n in (8, 10, 12, 14, 16, 20)]
        graphs += [random_bipartite_regular(rng, n, d)
                   for n, d in ((5, 3), (6, 4), (8, 4), (9, 5))]
        for g in graphs:
            assert_orientations_agree(g)
            assert tuple(gather_facts(CorpusItem(g.name, g)).edges) == \
                   edge_facts_one_by_one(g), g.name

    @pytest.mark.parametrize("spec", ["lattice:3:4", "tree:4:4", "cycle9"])
    def test_unsafe_edges_never_join(self, spec, monkeypatch):
        # the sweep reads the label of x in the two-ball of y only to join
        # the key of a transport-safe edge (x, y) with its reverse.  On the
        # 9-cycle cut at radius 6 around 0, the edge (4, 5) is unsafe
        # although both its ends are swept
        if spec == "cycle9":
            g = cycle(9)
            g = Graph(g.vertices, g.edges, truncation=Truncation(0, 6),
                      name="cycle:9 cut at 6")
            item = CorpusItem(g.name, g)
        else:
            item = build_item(spec)
            g = item.graph
        assert g.truncation is not None
        owner = {id(g.neighbors(v)): v for v in g.vertices}
        joined = []
        find = checks.bisect_left

        def spying(row, x):
            joined.append((x, owner[id(row)]))
            return find(row, x)

        monkeypatch.setattr(checks, "bisect_left", spying)
        facts = gather_facts(item)
        monkeypatch.undo()
        unsafe = [e for e in g.edges if not g.transport_neighborhood_complete(*e)]
        assert joined and unsafe
        assert all(g.transport_neighborhood_complete(x, y) for x, y in joined)
        assert tuple(facts.edges) == edge_facts_one_by_one(g)
        if spec == "cycle9":
            assert unsafe == [(4, 5)]
            assert g.two_ball_complete(4) and g.two_ball_complete(5)

    def test_one_solve_per_joined_key_set(self, monkeypatch):
        # one ollivier_kappa call per set of edge keys joined with their
        # reverse keys: 10, 8 and 8 on the dense graphs (one per forward
        # key made 10, 8 and 20), and 97 on the default corpus, where one
        # per forward key made 164
        calls = []
        solve = checks.ollivier_kappa

        def counting(g, x, y):
            calls.append((g.name, x, y))
            return solve(g, x, y)

        monkeypatch.setattr(checks, "ollivier_kappa", counting)
        dense = {}
        for spec in ("transpositions:5", "hypercube:8", "flip:8"):
            before = len(calls)
            gather_facts(build_item(spec))
            dense[spec] = len(calls) - before
        assert dense == {"transpositions:5": 10, "hypercube:8": 8,
                         "flip:8": 8}
        assert sum(dense.values()) == 26
        calls.clear()
        for spec in default_corpus_specs():
            gather_facts(build_item(spec))
        assert len(calls) == 97


class TestDeepChecks:
    def test_few_searches_per_deep_edge(self, monkeypatch):
        # every distance the deep checks read comes from a bounded search:
        # on hypercube:8, one per source of the solver's plan and of the
        # lower witness in validate_plan (9 each), one for the extension's
        # two-balls, one for its cone, and one certificate_violations each
        # on the certificate and on the extension; no edge there has an
        # upper witness
        facts = gather_facts(build_item("hypercube:8"))
        radii = []

        def counting(g, starts, radius=None, until=()):
            radii.append(radius)
            return bfs_distances(g, starts, radius, until)

        for name, module in list(sys.modules.items()):
            if name.startswith("graphcurvature") and hasattr(module, "bfs_distances"):
                monkeypatch.setattr(module, "bfs_distances", counting)
        results = [checks.check_duality(facts), checks.check_witness_bounds(facts)]
        assert all(r.applicable and r.passed for r in results)
        # the deep checks run at the first edge of each safe edge class
        safe = [i for i in dict.fromkeys(facts.edge_class)
                if facts.edges[i].kappa is not None]
        assert safe
        assert None not in radii
        assert len(radii) == 22 * len(safe)

    def test_duality_certifies_every_reported_class_kappa(self):
        # a wrong kappa on the last safe edge class of flip:8, which no
        # single probe edge reaches: duality's certificate at that class's
        # first edge gives the true kappa, and the check names that edge
        facts = gather_facts(build_item("flip:8"))
        g = facts.graph
        last = [i for i in dict.fromkeys(facts.edge_class)
                if facts.edges[i].kappa is not None][-1]
        cls = facts.edge_class[last]
        bad = replace(facts, edges=tuple(
            replace(ef, kappa=ef.kappa + Fraction(1, 7)) if c == cls else ef
            for ef, c in zip(facts.edges, facts.edge_class)))
        ef = facts.edges[last]
        true = ef.kappa
        result = checks.check_duality(bad)
        assert not result.passed
        assert result.details == (
            f"flip:8 edge ({g.label(ef.x)}, {g.label(ef.y)}): reported "
            f"kappa = {true + Fraction(1, 7)} but the certified distance "
            f"{1 - true} gives {true}",)
        assert checks.check_duality(facts).passed


def assert_classes_hold_equal_facts(facts):
    """Every fact a check reads is equal across each class: an edge's
    kappa, decomposition and end degrees, and a vertex's own facts with
    the non-link count and kappa it sees at each neighbor, as a multiset.
    The rows the sweep skipped form one class, which no check reads."""
    g = facts.graph
    kappa = {}
    for ef in facts.edges:
        kappa[(ef.x, ef.y)] = kappa[(ef.y, ef.x)] = ef.kappa

    def edge_view(ef):
        if not ef.safe:
            return None
        return (ef.kappa, ef.decomposable,
                sorted((g.degree(ef.x), g.degree(ef.y))))

    def vertex_view(vf):
        if not vf.safe:
            return None
        counts = vf.nonlink_counts or {}
        seen = sorted(((counts.get(y), kappa[(vf.vertex, y)])
                       for y in g.neighbors(vf.vertex)),
                      key=lambda t: (t[0] is None, t[0], t[1] is None, t[1]))
        return (vf.rho, vf.structure_class, vf.N, vf.degree, vf.min_linkage,
                vf.flat_vector_value, vf.negative_vector_value,
                effective_degree(g, vf.vertex), seen)

    for rows, classes, view in ((facts.edges, facts.edge_class, edge_view),
                                (facts.vertices, facts.vertex_class,
                                 vertex_view)):
        for row, c in zip(rows, classes):
            assert view(row) == view(rows[c]), (facts.key, row, rows[c])


def assert_checks_match_one_by_one(facts):
    """run_checks equals the element-by-element replay on facts and on
    both perturbations of them, detail for detail, and the perturbations
    keep every class's facts equal."""
    assert_classes_hold_equal_facts(facts)
    assert run_checks(facts) == checks_one_by_one(facts), facts.key
    for kind, rows in (("kappa", facts.edges), ("rho", facts.vertices)):
        if any(getattr(r, kind) is not None for r in rows):
            bad = perturbed(facts, kind)
            assert_classes_hold_equal_facts(bad)
            assert run_checks(bad) == checks_one_by_one(bad), (facts.key, kind)


def edge_class_count(facts):
    """How many edge classes the rows call for: one per distinct kappa,
    decomposability and sorted pair of end degrees over the safe rows,
    and one more if any row is unsafe."""
    g = facts.graph
    return len({(ef.kappa, ef.decomposable,
                 tuple(sorted((g.degree(ef.x), g.degree(ef.y)))))
                if ef.safe else None for ef in facts.edges})


SWEEP_SPECS = [
    "transpositions:5", "hypercube:8", "flip:8",
    *(f"lattice:{d}:{r}" for d in (1, 2, 3) for r in (3, 4, 5)),
    *(f"tree:{d}:{r}" for d in (3, 4, 5) for r in (3, 4, 5)),
]


class TestChecksPerClass:
    def test_corpus_matches_one_by_one(self, corpus_facts, corpus_checks):
        for key, facts in corpus_facts.items():
            assert corpus_checks[key] == checks_one_by_one(facts), key
            assert_checks_match_one_by_one(facts)

    @pytest.mark.parametrize("spec", SWEEP_SPECS)
    def test_graph_matches_one_by_one(self, spec):
        assert_checks_match_one_by_one(gather_facts(build_item(spec)))

    def test_corpus_edge_classes_are_maximal(self, corpus_facts):
        # each class holds equal facts, so as many classes as distinct
        # facts means rows of equal facts share one class
        for key, facts in corpus_facts.items():
            assert_classes_hold_equal_facts(facts)
            assert len(set(facts.edge_class)) == edge_class_count(facts), key
        assert sum(len(set(f.edge_class)) for f in corpus_facts.values()) == 59

    @pytest.mark.parametrize("spec", SWEEP_SPECS)
    def test_graph_edge_classes_are_maximal(self, spec):
        facts = gather_facts(build_item(spec))
        assert_classes_hold_equal_facts(facts)
        assert len(set(facts.edge_class)) == edge_class_count(facts)

    def test_class_verdicts_read_each_class_once(self, monkeypatch):
        # 2,048 vertices of one class and 11,264 edges of one: the sign
        # comparison runs at one vertex alone
        calls = []
        consistency = checks.cd_ollivier_consistency

        def counting(rho, kappas):
            calls.append(len(kappas))
            return consistency(rho, kappas)

        monkeypatch.setattr(checks, "cd_ollivier_consistency", counting)
        facts = gather_facts(build_item("hypercube:11"))
        assert len(set(facts.vertex_class)) == 1
        assert len(set(facts.edge_class)) == 1
        assert all_passed(run_checks(facts))
        assert calls == [11]


def section_rows(sec):
    """The graph, vertex rows, edge rows and checks of a section."""
    return (sec.graph, list(sec.vertex_rows()), list(sec.edge_rows()),
            sec.checks)


def assert_section_matches_one_by_one(facts, results):
    """report.section equals the row-by-row oracle on facts and on both
    perturbations of them."""
    assert section_rows(section(facts, results)) == \
        section_one_by_one(facts, results), facts.key
    for kind, rows in (("kappa", facts.edges), ("rho", facts.vertices)):
        if any(getattr(r, kind) is not None for r in rows):
            bad = perturbed(facts, kind)
            assert section_rows(section(bad, results)) == \
                section_one_by_one(bad, results), (facts.key, kind)


class TestSectionPerClass:
    def test_corpus_matches_one_by_one(self, corpus_facts, corpus_checks):
        for key, facts in corpus_facts.items():
            assert_section_matches_one_by_one(facts, corpus_checks[key])

    @pytest.mark.parametrize("spec", ["transpositions:5", "hypercube:8",
                                      "flip:8"])
    def test_graph_matches_one_by_one(self, spec):
        facts = gather_facts(build_item(spec))
        assert_section_matches_one_by_one(facts, run_checks(facts))


class TestFaultInjection:
    def test_kappa_fault_caught(self):
        # hypercube:3 has one edge class, so every edge is raised to
        # kappa = 10/21, and 1/kappa* < 3, its diameter
        facts = perturbed(gather_facts(build_item("hypercube:3")), "kappa")
        res = by_name(run_checks(facts))
        failing = {n for n, r in res.items() if not r.passed}
        assert failing == {"ollivier-class", "bipartite-transport",
                          "transport-upper-bound", "quantization",
                          "diameter-bounds", "duality"}
        assert {ef.kappa for ef in facts.edges} == {Fraction(10, 21)}

    def test_rho_fault_caught(self):
        facts = perturbed(gather_facts(build_item("hypercube:3")), "rho")
        res = by_name(run_checks(facts))
        failing = {n for n, r in res.items() if not r.passed}
        assert failing == {"cd-class", "linkage-positive-cd"}
        assert all(vf.rho.exact == Fraction(9, 4) for vf in facts.vertices)

    def test_cd_vs_ollivier_names_labels(self):
        # a positive rho injected at every vertex: each detail names the
        # neighbor by its label, as every other check does, and not by
        # its internal id (12 here)
        facts = gather_facts(build_item("zigzag:hypercube:6,cycle:6"))
        g = facts.graph
        bad = replace(facts, vertices=tuple(
            replace(vf, rho=exact_rho(Fraction(1, 2))) for vf in facts.vertices))
        result = checks.check_cd_vs_ollivier(bad)
        assert not result.passed
        assert g.label(12) == "(010000,1)"
        assert result.details[0] == (
            "zigzag:hypercube:6,cycle:6 vertex (000000,1): cd 0.5 > 0 but "
            "kappa(.,(010000,1)) = 0 <= 0")
        assert all("kappa(.,(" in d for d in result.details if "kappa(." in d)


class TestFractions:
    def test_format_fraction(self):
        assert edge_cells(Fraction(1, 4)) == ("1/4", "0.25")
        assert edge_cells(Fraction(-3, 7)) == ("-3/7", "-0.428571428571429")
        assert edge_cells(Fraction(2)) == ("2", "2")
        assert edge_cells(None) == (None, None)


def gathered(*specs):
    return [gather_facts(build_item(spec)) for spec in specs]


def build_report(*specs, perturb=None):
    rep = CurvatureReport()
    for facts in gathered(*specs):
        if perturb is not None:
            facts = perturbed(facts, perturb)
        rep.sections.append(section(facts, run_checks(facts)))
    return rep


def csv_rows(report, kind):
    rows = list(csv.reader(io.StringIO(to_csv(report))))
    assert rows[0] == ["kind", "graph", "a", "b", "safe", "rho", "class", "N",
                       "kappa", "kappa_decimal", "applicable", "passed",
                       "details"]
    return [row[1:] for row in rows[1:] if row[0] == kind]


# labels the csv module must quote, or must not: a comma, a quote, a
# carriage return, a newline, a leading space, non-ASCII text and the
# empty string
ODD_LABELS = ["a,b", 'say "hi"', "cr\rhere", "line\nbreak", " lead",
              "ünïcødé", "", "plain"]


def odd_labels_file(tmp_path):
    """A graph file of the 8-cycle labelled ODD_LABELS, truncated so that
    some rows are skipped, and the isolated vertex 8, in a file whose
    name holds a comma."""
    doc = {"vertices": list(range(9)),
           "edges": [[i, (i + 1) % 8] for i in range(8)],
           "labels": {str(i): lab for i, lab in enumerate(ODD_LABELS)},
           "truncation": {"center": 0, "radius": 4}}
    path = tmp_path / "odd, labels.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestReportSerialization:
    def test_json_round_trip(self):
        rep = build_report("cycle:5", "star:3")
        facts = gathered("cycle:5", "star:3")
        doc = json.loads(to_json(rep))
        assert [r["kappa"] for r in doc["edges"]] == ["1/4"] * 5 + ["1/3"] * 3
        assert [r["kappa_decimal"] for r in doc["edges"]] == \
               ["0.25"] * 5 + ["0.333333333333333"] * 3
        assert [r["class"] for r in doc["vertices"]] == \
               ["one-unlinked"] * 5 + ["inapplicable"] * 4
        # correctly rounded to 15 significant digits, and exactly 0 at the
        # star center, where eigh gives -4.5e-16
        assert [r["rho"] for r in doc["vertices"]] == \
               [f"{vf.rho.value:.15g}" for f in facts for vf in f.vertices]
        assert [r["rho"] for r in doc["vertices"]][-4:] == ["0", "1", "1", "1"]
        assert [(r["check"], r["applicable"], r["passed"])
                for r in doc["checks"]] == \
               [(r.name, r.applicable, r.passed)
                for f in facts for r in run_checks(f)]
        assert ("witness-bounds", False, True) in \
               [(r["check"], r["applicable"], r["passed"])
                for r in doc["checks"] if r["graph"] == "star:3"]

    def test_no_rho_prints_minus_zero(self, corpus_facts, corpus_checks):
        # rho = 0 is decided before any eigensolve, so it prints 0, and a
        # nonzero rho prints a nonzero decimal
        sections = [section(f, corpus_checks[key])
                    for key, f in corpus_facts.items()]
        sections += [section(f, run_checks(f)) for f in gathered(
            "transpositions:5", "hypercube:8", "flip:8")]
        cells = [rho for s in sections for _, _, rho, _, _ in s.vertex_rows()]
        assert "0" in cells
        assert not [c for c in cells
                    if c is not None and c.startswith("-") and float(c) == 0]

    def test_csv_round_trip(self):
        rep = build_report("cycle:5", "tree:3:4")
        facts = gathered("cycle:5", "tree:3:4")
        vertices = csv_rows(rep, "vertex")
        assert [(r[0], r[1], r[3]) for r in vertices] == \
               [(f.key, vf.label, str(int(vf.safe)))
                for f in facts for vf in f.vertices]
        # skipped vertices keep their row with every value empty
        skipped = [r for r in vertices if r[3] == "0"]
        assert skipped and all(r[4:7] == ["", "", ""] for r in skipped)
        assert {r[4] for r in vertices if r[0] == "tree:3:4" and r[3] == "1"} \
            == {"-1"}
        edges = csv_rows(rep, "edge")
        assert [r[7] for r in edges] == \
               ["" if ef.kappa is None else edge_cells(ef.kappa)[0]
                for f in facts for ef in f.edges]
        assert {r[7] for r in edges if r[0] == "cycle:5"} == {"1/4"}
        checks = csv_rows(rep, "check")
        assert [(r[1], r[9], r[10]) for r in checks] == \
               [(r.name, str(int(r.applicable)), str(int(r.passed)))
                for f in facts for r in run_checks(f)]

    def test_csv_matches_row_by_row_writer(self, tmp_path):
        # the check details hold a comma and a quote
        path = odd_labels_file(tmp_path)
        facts = gathered(f"file:{path}")[0]
        assert facts.graph.label(8) == "8" and facts.graph.degree(8) == 0
        results = run_checks(facts) + [CheckResult(
            "duality", True, False, ('gap 1/2 on ("a,b", x)', "plan, off"))]
        rep = CurvatureReport([section(facts, results),
                               *build_report("zigzag:hypercube:4,cycle:4",
                                             "cycle:5").sections])
        text = to_csv(rep)
        assert text == csv_one_by_one(rep)
        # quoted where the writer quotes, a lone "\r" too, as Python 3.13
        # quotes it whatever ends the rows
        graph = '"file:' + str(path).replace('"', '""') + '"'
        for cell in ('"a,b"', '"say ""hi"""', '"cr\rhere"', '"line\nbreak"',
                     ' lead', 'ünïcødé'):
            assert f"\nvertex,{graph},{cell},," in text
        assert f"\nvertex,{graph},,,1," in text
        assert f"\nvertex,{graph},8,,0,,,,,,,,\n" in text
        assert f"\nedge,{graph},\"a,b\",\"say \"\"hi\"\"\",1,,,,0,0," in text
        assert f"\nedge,{graph}," + '"line\nbreak", lead,0,,,,,,,,\n' in text
        assert (f'\ncheck,{graph},duality,,,,,,,,1,0,'
                f'"gap 1/2 on (""a,b"", x); plan, off"\n') in text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.one_of(
        st.sampled_from(',"\r\n '),
        # from U+0001, since Graph refuses a NUL, and with no surrogate
        st.characters(min_codepoint=1, max_codepoint=0x2FFF,
                      exclude_categories=("Cs",)))), min_size=2, max_size=4))
    def test_csv_field_quotes_as_the_writer(self, fields):
        # a row of two fields or more, since the writer quotes a lone
        # empty field
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        assert ",".join(map(_csv_field, fields)) + "\r\n" == buf.getvalue()

    def test_csv_reads_back_every_label(self, tmp_path):
        path = odd_labels_file(tmp_path)
        g = gathered(f"file:{path}")[0].graph
        rep = build_report(f"file:{path}")
        vertices = csv_rows(rep, "vertex")
        assert [r[:2] for r in vertices] == \
               [[f"file:{path}", lab] for lab in [*ODD_LABELS, "8"]]
        assert [r[1:3] for r in csv_rows(rep, "edge")] == \
               [[g.label(x), g.label(y)] for x, y in g.edges]

    def test_csv_joins_details_in_one_cell(self):
        rep = CurvatureReport([Section("g", {}, Rows(), Rows(), [CheckResult(
            "duality", True, False, ("gap 1/2 on (0, 1)", "plan off"))])])
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
