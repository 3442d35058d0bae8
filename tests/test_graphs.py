"""Graph container, traversal, truncation gating, and serialization."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcurvature import graphs
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

from oracles import oracle_diameter


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

    def test_edge_label_requires_edge(self):
        with pytest.raises(GraphError, match="missing edge"):
            Graph([0, 1, 2], [(0, 1)], edge_labels={(1, 2): 0})

    def test_truncation_center_must_exist(self):
        with pytest.raises(GraphError, match="not a vertex"):
            Graph([0, 1], [(0, 1)], truncation=Truncation(center=5, radius=2))


class TestQueries:
    def test_resolve_vertex_by_label_and_id(self):
        g = cycle(5)
        assert g.resolve_vertex("3") == 2      # labels win over raw ids
        unlabelled = Graph([4, 7], [(4, 7)])
        assert unlabelled.resolve_vertex("7") == 7
        with pytest.raises(GraphError, match="no vertex matches"):
            g.resolve_vertex("nope")

    def test_bfs_distances_cycle(self):
        g = cycle(5)
        dist = bfs_distances(g, 0, radius=2)
        assert dist == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}

    def test_bfs_radius_cuts(self):
        g = path_graph(6)
        assert set(bfs_distances(g, 0, radius=1)) == {0, 1}
        assert bfs_distances(g, 0)[5] == 5

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
        h = load_graph(p)
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
        assert ball.complete
        # adjacency within the ball keeps only edges the form needs
        assert ball.adj[2] == (1,)
        assert len(ball.adj[0]) == 2

    def test_ball_near_truncation_marked_incomplete(self):
        g = lattice_ball(1, 4)
        ball = extract_ball(g, g.resolve_vertex("(3)"))
        assert not ball.complete


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

    def test_json_dict_shape(self):
        d = graph_to_json_dict(cycle(4))
        assert set(d) >= {"vertices", "edges"}
        assert d["vertices"] == [0, 1, 2, 3]

    def test_format_sniffing(self, tmp_path):
        p = tmp_path / "noext"
        p.write_text(render_graph(cycle(4), fmt="json"))
        assert load_graph(p).edges == cycle(4).edges
