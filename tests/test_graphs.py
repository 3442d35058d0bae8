"""Graph container, traversal, truncation gating, and serialization."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcurvature import graphs
from graphcurvature.classify import bipartite_decomposition
from graphcurvature.corpus import parse_graph_spec
from graphcurvature.families import (
    complete_bipartite,
    complete_graph,
    cycle,
    hypercube,
    lattice_ball,
    matching_graph,
    path_graph,
    petersen,
    regular_tree,
    star,
)
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
    graph_to_json_dict,
    is_regular,
    load_graph,
    render_graph,
    save_graph,
)
from graphcurvature.ollivier import kappa_lower_witness

from oracles import bfs, oracle_contains_k23, oracle_diameter


@st.composite
def small_graphs(draw):
    """Graphs on up to 12 vertices with scattered ids: empty, one-vertex,
    disconnected and isolated-vertex graphs included; half of them carry
    a random spanning tree, so connected graphs are common too."""
    n = draw(st.integers(0, 12))
    ids = sorted(draw(st.sets(st.integers(-20, 40), min_size=n, max_size=n)))
    index = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=20))
    if n > 1 and draw(st.booleans()):
        pairs += [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    edges = {(ids[min(a, b)], ids[max(a, b)]) for a, b in pairs if a != b}
    return Graph(ids, edges)


def reversed_lattice(tmp_path):
    """lattice:2:6 saved with its vertex ids reversed and loaded back."""
    g = lattice_ball(2, 6)
    top = max(g.vertices)
    data = graph_to_json_dict(g)
    data["vertices"] = [top - v for v in data["vertices"]]
    data["edges"] = [[top - u, top - v] for u, v in data["edges"]]
    data["labels"] = {str(top - int(v)): lab
                      for v, lab in data["labels"].items()}
    data["truncation"]["center"] = top - g.truncation.center
    p = tmp_path / "reversed.json"
    p.write_text(json.dumps(data))
    return load_graph(p)


class TestConstruction:
    def test_sorted_deterministic_ordering(self):
        g = Graph([3, 1, 2], [(3, 1), (2, 3)])
        assert g.vertices == (1, 2, 3)
        assert g.edges == ((1, 3), (2, 3))
        assert g.neighbors(3) == (1, 2)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            Graph([0, 1, 1], [])

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(GraphError, match="not an integer"):
            Graph([0, "a"], [])
        with pytest.raises(GraphError, match="not an integer"):
            Graph([0, True], [])

    def test_non_integer_endpoint_rejected(self):
        # each equals the id 1 and would pass the unknown-endpoint test
        for bad in (1.0, True):
            with pytest.raises(GraphError, match="not an integer"):
                Graph([0, 1], [(0, bad)])
            with pytest.raises(GraphError, match="not an integer"):
                Graph([0, 1], [(bad, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph([0, 1], [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown endpoint"):
            Graph([0, 1], [(0, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(GraphError, match="used for vertices"):
            Graph([0, 1], [(0, 1)], labels={0: "a", 1: "a"})

    def test_nul_in_label_rejected(self):
        with pytest.raises(GraphError, match="holds a NUL"):
            Graph([0, 1], [(0, 1)], labels={0: "a\0b", 1: "c"})

    def test_edge_label_requires_edge(self):
        with pytest.raises(GraphError, match="missing edge"):
            Graph([0, 1, 2], [(0, 1)], edge_labels={(1, 2): 0})

    def test_truncation_center_must_exist(self):
        with pytest.raises(GraphError, match="not a vertex"):
            Graph([0, 1], [(0, 1)], truncation=Truncation(center=5, radius=2))

    # the whole-collection tests fall back to a walk in input order, so
    # each fault keeps its message and the first fault is the one named

    @pytest.mark.parametrize("entry", [5, (0, 1, 2), (0,)])
    def test_non_pair_edge_rejected(self, entry):
        with pytest.raises(GraphError, match=r"edge .* is not a pair"):
            Graph([0, 1, 2], [(0, 1), entry])

    def test_non_string_label_rejected(self):
        with pytest.raises(GraphError, match="label 7 for vertex 1 is not a string"):
            Graph([0, 1], [(0, 1)], labels={0: "a", 1: 7})

    def test_label_for_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="label for unknown vertex 5"):
            Graph([0, 1], [(0, 1)], labels={0: "a", 5: "b"})

    @pytest.mark.parametrize("vertices, edges, labels, message", [
        ([0, 1, 2], [(0, 5), (1, 1)], None, "unknown endpoint"),
        ([0, 1, 2], [(1, 1), (0, 5)], None, "self-loop at vertex 1"),
        ([0, 1, 2], [(0, 1), (1, 0), (2, 2)], None, r"duplicate edge \(0, 1\)"),
        ([0, 1, 2], [(2, 2), (0, 1), (1, 0)], None, "self-loop at vertex 2"),
        ([0, 1, 1, "a"], [], None, "duplicate vertex id 1"),
        ([0, "a", 1, 1], [], None, "vertex id 'a' is not an integer"),
        ([0, 0], [(0, 0)], None, "duplicate vertex id 0"),
        ([0, 1], [(0, 1.0), (0, 0)], None, "vertex id 1.0 is not an integer"),
        ([0, 1], [(0, 1)], {5: "a", 0: 7}, "label for unknown vertex 5"),
        ([0, 1], [(0, 1)], {0: 7, 5: "a"}, "label 7 for vertex 0 is not a string"),
        ([0, 1], [(0, 1)], {0: "a", 1: "a\0"}, "holds a NUL"),
        ([0, 1, 2], [(0, 1)], {0: "a\0", 1: "b", 2: "b"}, "holds a NUL"),
    ])
    def test_first_fault_in_input_order(self, vertices, edges, labels, message):
        with pytest.raises(GraphError, match=message):
            Graph(vertices, edges, labels=labels)

    def test_equal_but_not_int_endpoint_rejected_among_valid_edges(self):
        # 1.0 equals the id 1 and an earlier edge already names 1
        with pytest.raises(GraphError, match="vertex id 1.0 is not an integer"):
            Graph([0, 1, 2], [(0, 1), (1.0, 2)])

    def test_int_subclass_ids_accepted(self):
        class Id(int):
            pass

        g = Graph([Id(0), Id(1), 2], [(Id(1), Id(0)), (2, Id(1))])
        assert g.vertices == (0, 1, 2)
        assert g.edges == ((0, 1), (1, 2))

    def test_edge_generator_faults_named_after_the_bulk_pass(self):
        # the generator is consumed once, and the walk that names the
        # fault reads what it yielded
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            Graph([0, 1, 2], (e for e in [(0, 1), (1, 2), (1, 0)]))
        with pytest.raises(GraphError, match="unknown endpoint"):
            Graph(range(3), ((i, i + 1) for i in range(3)))
        g = Graph(range(4), ((i, i + 1) for i in range(3)))
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    # the bulk pass sorts the normalised pairs and compares neighbours;
    # the walk still names the first fault in input order

    def test_repeat_in_both_orientations_far_apart(self):
        edges = [(5, 2), (0, 9), (3, 7), (8, 1), (4, 6), (2, 0), (7, 3),
                 (9, 5), (1, 4)]
        with pytest.raises(GraphError, match=r"^duplicate edge \(3, 7\)$"):
            Graph(range(10), edges)

    def test_repeat_adjacent_only_after_normalising(self):
        # as given, (1, 0) sorts after (0, 2); normalised, it meets (0, 1)
        with pytest.raises(GraphError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(range(3), [(1, 0), (0, 2), (0, 1)])

    def test_edge_labels_keyed_against_sorted_edges(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)],
                  edge_labels={(1, 0): 7, (3, 2): 8, (2, 1): 9})
        assert list(g.edge_labels.items()) == [((0, 1), 7), ((2, 3), 8),
                                               ((1, 2), 9)]
        with pytest.raises(GraphError,
                           match=r"^edge label on missing edge \(0, 2\)$"):
            Graph(range(4), [(0, 1), (1, 2), (2, 3)],
                  edge_labels={(1, 0): 7, (2, 0): 8})

    @pytest.mark.parametrize("edges", [
        [(0, 1), (True, 2), (2, 3)],
        # equal to the edge before it once normalised
        [(0, 1), (1, 2), (2, True), (2, 3)],
    ])
    def test_true_id_in_a_sorted_edge_list(self, edges):
        with pytest.raises(GraphError,
                           match="^vertex id True is not an integer$"):
            Graph(range(4), edges)

    def test_edge_labels_in_either_orientation(self):
        g = Graph([0, 1, 2], [(0, 1), (1, 2)],
                  edge_labels={(1, 0): 4, (1, 2): 5})
        assert g.edge_labels == {(0, 1): 4, (1, 2): 5}
        # both orientations of one edge: the later one stands
        g = Graph([0, 1], [(0, 1)], edge_labels={(0, 1): 4, (1, 0): 5})
        assert g.edge_labels == {(0, 1): 5}
        with pytest.raises(GraphError, match="self-loop"):
            Graph([0, 1], [(0, 1)], edge_labels={(1, 1): 4})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_sorted_without_a_row_sort(self, data):
        # random edges, shuffled, in both orientations, over scattered
        # ids with negative and isolated ones: every row comes out sorted
        ids = data.draw(st.lists(st.integers(-30, 30), unique=True,
                                 max_size=14), label="ids")
        pairs = [(u, v) for u, v in combinations(sorted(ids), 2)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([]), label="edges")
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)), label="flips")
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]
        edges = data.draw(st.permutations(edges), label="order")
        order = data.draw(st.permutations(ids), label="vertex order")
        g = Graph(order, edges)
        assert g.vertices == tuple(sorted(ids))
        assert g.edges == tuple(sorted(chosen))
        for v in ids:
            assert g.neighbors(v) == tuple(sorted(
                {b for a, b in chosen if a == v} | {a for a, b in chosen if b == v}))


class TestQueries:
    @pytest.mark.parametrize("probe", [
        lambda g, x, y: g.transport_neighborhood_complete(x, y),
        kappa_lower_witness,
        bipartite_decomposition,
    ])
    def test_non_edge_refusal_names_labels(self, probe):
        with pytest.raises(GraphError, match=r"^\(o0, o2\) is not an edge$"):
            probe(petersen(), 0, 2)

    def test_resolve_vertex_by_label_and_id(self):
        g = cycle(5)
        assert g.resolve_vertex("3") == 2      # labels win over raw ids
        unlabelled = Graph([4, 7], [(4, 7)])
        assert unlabelled.resolve_vertex("7") == 7
        with pytest.raises(GraphError, match="no vertex matches"):
            g.resolve_vertex("nope")

    def test_bfs_distances_cycle(self):
        g = cycle(5)
        dist = bfs_distances(g, {0: 0}, 2)
        assert dist == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}

    def test_bfs_radius_cuts(self):
        g = path_graph(6)
        assert set(bfs_distances(g, {0: 0}, 1)) == {0, 1}
        assert bfs_distances(g, {0: 0})[5] == 5

    def test_neighbor_sets_match_neighbors(self):
        g = star(4)
        sets = g.neighbor_sets()
        assert sets == {v: frozenset(g.neighbors(v)) for v in g.vertices}
        assert g.neighbor_sets() is sets

    def test_diameter(self):
        assert diameter(petersen()) == 2
        assert diameter(hypercube(4)) == 4
        assert diameter(matching_graph(2)) is None  # disconnected

    def test_is_regular(self):
        assert is_regular(petersen()) == 3
        assert is_regular(hypercube(5)) == 5
        assert is_regular(star(4)) is None

    def test_subgraph_detectors(self):
        assert contains_k3(complete_graph(3))
        assert not contains_k3(cycle(4))
        assert not contains_k3(petersen())
        k23 = Graph(range(5), [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert contains_k23(k23)
        assert not contains_k23(petersen())
        assert contains_k23(complete_bipartite(3))
        assert not contains_k23(star(6))  # leaves share only the center

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    @example(Graph([], []))
    @example(Graph([5], []))
    def test_k23_matches_pair_intersections(self, g):
        assert contains_k23(g) == oracle_contains_k23(g)

    def test_k23_found_in_a_late_batch(self):
        # the one K_{2,3} hides behind 200 vertices of a long path, past
        # the first batches of the pair count
        edges = [(i, i + 1) for i in range(199)]
        edges += [(a, b) for a in (300, 301) for b in (302, 303, 304)]
        g = Graph(list(range(200)) + list(range(300, 305)), edges)
        assert contains_k23(g) and oracle_contains_k23(g)
        assert not contains_k23(Graph(range(200), edges[:199]))

    def test_k23_matches_pair_intersections_on_corpus(self, corpus_items):
        cases = [item.graph for item in corpus_items.values()]
        cases += [parse_graph_spec(s) for s in
                  ("hypercube:7", "transpositions:5", "flip:8")]
        for g in cases:
            assert contains_k23(g) == oracle_contains_k23(g), g.name


@st.composite
def searches(draw):
    """A nonempty small graph, start values (ints, or Fractions in halves
    and thirds) on some of its vertices, a radius or None, and some
    vertices to search until."""
    g = draw(small_graphs().filter(lambda g: g.vertices))
    points = st.sampled_from(g.vertices)
    value = st.one_of(st.integers(0, 6), st.builds(
        Fraction, st.integers(0, 18), st.sampled_from((2, 3))))
    starts = draw(st.dictionaries(points, value, min_size=1, max_size=4))
    radius = draw(st.one_of(st.none(), st.integers(0, 8), st.builds(
        Fraction, st.integers(0, 24), st.sampled_from((2, 3)))))
    until = draw(st.sets(points, max_size=4))
    return g, starts, radius, until


def cone(g, starts, radius):
    """min over start s of starts[s] + d(s, v) at every vertex v some start
    reaches, kept where it is at most radius, from one oracle BFS per
    start."""
    best = {}
    for s, f in starts.items():
        for v, d in bfs(g, s).items():
            if v not in best or f + d < best[v]:
                best[v] = f + d
    return {v: f for v, f in best.items() if radius is None or f <= radius}


class TestSearch:
    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_values_match_the_oracle_cone(self, case):
        g, starts, radius, _ = case
        assert bfs_distances(g, starts, radius) == cone(g, starts, radius)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs().filter(lambda g: g.vertices), st.data())
    def test_unbounded_search_covers_the_component(self, g, data):
        s = data.draw(st.sampled_from(g.vertices))
        assert bfs_distances(g, {s: 0}) == bfs(g, s)

    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_until_settles_its_vertices_exactly(self, case):
        # the search may stop early, but every vertex it returns has its
        # full value, and every until vertex within radius is returned
        g, starts, radius, until = case
        full = cone(g, starts, radius)
        found = bfs_distances(g, starts, radius, until)
        assert found.items() <= full.items()
        assert {u for u in until if u in full} <= found.keys()

    @settings(max_examples=100, deadline=None)
    @given(searches())
    def test_unknown_start_refused(self, case):
        # also one valued at the radius, or above it, which is never
        # expanded
        g, starts, _, _ = case
        top = max(starts.values())
        unknown = max(g.vertices) + 1
        for f in (0, top, top + 1):
            with pytest.raises(GraphError, match=f"^unknown vertex {unknown}$"):
                bfs_distances(g, {**starts, unknown: f}, top)


class TestDiameter:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    @example(Graph([], []))
    @example(Graph([5], []))
    @example(Graph([0, 1, 2], [(0, 1)]))
    def test_matches_per_vertex_bfs(self, g):
        expected = oracle_diameter(g)
        assert diameter(g) == expected
        # sources in several batches: a skipped batch misses its
        # eccentricities
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_DIAMETER_BATCH", 3)
            assert diameter(g) == expected

    def test_corpus_and_larger_graphs(self, corpus_items):
        cases = [item.graph for item in corpus_items.values()]
        cases += [parse_graph_spec(s) for s in
                  ("hypercube:7", "transpositions:5", "flip:8")]
        for g in cases:
            assert diameter(g) == oracle_diameter(g), g.name


class TestTruncationGates:
    def test_two_ball_complete_plain_graph(self):
        g = petersen()
        assert all(g.two_ball_complete(v) for v in g.vertices)

    def test_two_ball_complete_in_lattice(self):
        g = lattice_ball(2, 4)
        origin = g.resolve_vertex("(0,0)")
        edge_pt = g.resolve_vertex("(2,0)")
        deep_gone = g.resolve_vertex("(3,0)")
        assert g.two_ball_complete(origin)
        assert g.two_ball_complete(edge_pt)
        assert not g.two_ball_complete(deep_gone)

    def test_transport_gate_is_wider(self):
        # kappa needs intact unit balls plus exact pairwise distances,
        # which reach one step further than the two-ball alone
        g = regular_tree(3, 4)
        child = g.resolve_vertex("r.1")
        grand = g.resolve_vertex("r.1.1")
        great = g.resolve_vertex("r.1.1.1")
        assert g.transport_neighborhood_complete(g.resolve_vertex("r"), child)
        assert g.transport_neighborhood_complete(child, grand)
        assert not g.transport_neighborhood_complete(grand, great)
        # the vertex gate is already shut one level higher
        assert not g.two_ball_complete(great)

    @staticmethod
    def _safe_edges_have_safe_ends(g):
        """Assert that both ends of every transport-safe edge of g are
        two-ball-complete; return how many safe edges list the end farther
        from the truncation center first."""
        farther_first = 0
        for x, y in g.edges:
            if g.transport_neighborhood_complete(x, y):
                assert g.two_ball_complete(x) and g.two_ball_complete(y), \
                    (g.name, g.label(x), g.label(y))
                farther_first += g.distance_to_center(x) > g.distance_to_center(y)
        return farther_first

    @pytest.mark.parametrize("radius", range(7))
    def test_transport_safe_edges_have_two_ball_safe_ends(self, radius):
        # the sweep reads the kappa of a safe edge off the two-ball class
        # of its first end, so that end must have been swept
        for g in (*(lattice_ball(dim, radius) for dim in (1, 2, 3)),
                  *(regular_tree(d, radius) for d in (3, 4, 5))):
            self._safe_edges_have_safe_ends(g)

    def test_transport_safe_ends_with_ids_reversed(self, tmp_path):
        h = reversed_lattice(tmp_path)
        assert self._safe_edges_have_safe_ends(h) > 0

    def test_effective_degree(self):
        g = regular_tree(3, 4)
        root = g.resolve_vertex("r")
        leaf = g.resolve_vertex("r.1.1.1.1")
        assert effective_degree(g, root) == 3
        assert effective_degree(g, leaf) is None
        assert effective_degree(petersen(), 0) == 3
        assert effective_degree(star(4), 0) is None  # center vs leaf degrees


class TestExtractBall:
    def test_cycle_ball(self):
        g = cycle(5)
        ball = extract_ball(g, 0)
        assert ball.base == 0
        assert ball.sphere1 == (1, 4)
        assert ball.sphere2 == (2, 3)
        # adjacency within the ball keeps only edges the form needs
        assert ball.adj[2] == (1,)
        assert len(ball.adj[0]) == 2

    def test_ball_near_truncation_marked_incomplete(self):
        g = lattice_ball(1, 4)
        with pytest.raises(GraphError, match=r"probe \(3\): its two-ball "
                                             r"crosses the truncation"):
            extract_ball(g, g.resolve_vertex("(3)"))

    def test_refuses_exactly_cut_or_isolated_vertices(self, tmp_path):
        graphs = [lattice_ball(dim, radius)
                  for dim in (1, 2, 3) for radius in range(7)]
        graphs += [regular_tree(d, depth)
                   for d in (3, 4, 5) for depth in range(7)]
        graphs.append(reversed_lattice(tmp_path))
        graphs.append(Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4)],
                            labels={5: "a"}))
        refused = 0
        for g in graphs:
            for x in g.vertices:
                if g.two_ball_complete(x) and g.degree(x) > 0:
                    assert extract_ball(g, x).base == x
                    continue
                with pytest.raises(GraphError) as info:
                    extract_ball(g, x)
                assert f"refusing to probe {g.label(x)}: " in str(info.value)
                refused += 1
        assert refused > 0


class TestSerialization:
    def test_json_round_trip_keeps_metadata(self, tmp_path):
        g = lattice_ball(2, 3)
        p = tmp_path / "g.json"
        save_graph(g, p, fmt="json")
        h = load_graph(p)
        assert h.vertices == g.vertices
        assert h.edges == g.edges
        assert h.labels == g.labels
        assert h.truncation == g.truncation

    def test_json_round_trip_keeps_edge_labels(self, tmp_path):
        g = hypercube(3)
        p = tmp_path / "q3.json"
        save_graph(g, p, fmt="json")
        assert load_graph(p).edge_labels == g.edge_labels

    def test_edge_list_round_trip(self, tmp_path):
        g = petersen()
        p = tmp_path / "g.edges"
        save_graph(g, p, fmt="edgelist")
        h = load_graph(p)
        assert h.vertices == g.vertices
        assert h.edges == g.edges
        assert is_regular(h) == 3

    def test_edge_list_refuses_isolated_vertices(self):
        g = Graph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphError, match="isolated"):
            render_graph(g, fmt="edgelist")

    def test_edge_list_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n1 2\nonly-one-token\n")
        with pytest.raises(GraphError, match="line 3"):
            load_graph(p)
        p.write_text("0 1\nx y\n")
        with pytest.raises(GraphError, match="line 2.*integers"):
            load_graph(p)

    def test_json_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"vertices": [0, 1]}')
        with pytest.raises(GraphError):
            load_graph(p)

    @pytest.mark.parametrize("field,value", [("radius", "a"),
                                             ("host_degree", "x")])
    def test_json_truncation_fields_must_be_integers(self, tmp_path, field,
                                                     value):
        trunc = {"center": 0, "radius": 2, "host_degree": 1}
        trunc[field] = value
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]],
                                 "truncation": trunc}))
        with pytest.raises(GraphError, match=f'"{field}" must be an integer'):
            load_graph(p)

    @pytest.mark.parametrize("field,name", [("radius", "radius"),
                                            ("host_degree", "host degree")])
    def test_truncation_fields_must_be_nonnegative(self, tmp_path, capsys,
                                                   field, name):
        from graphcurvature.cli import main
        trunc = {"center": 0, "radius": 9, "host_degree": 1}
        trunc[field] = -1
        message = f"truncation {name} must be nonnegative"
        with pytest.raises(GraphError, match=message):
            Graph([0, 1], [(0, 1)], truncation=Truncation(**trunc))
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]],
                                 "truncation": trunc}))
        with pytest.raises(GraphError, match=message):
            load_graph(p)
        assert main(["verify", f"file:{p}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_json_dict_shape(self):
        d = graph_to_json_dict(cycle(4))
        assert set(d) >= {"vertices", "edges"}
        assert d["vertices"] == [0, 1, 2, 3]

    def test_format_sniffing(self, tmp_path):
        p = tmp_path / "noext"
        p.write_text(render_graph(cycle(4), fmt="json"))
        assert load_graph(p).edges == cycle(4).edges
