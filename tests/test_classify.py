"""Neighborhood structure: link profiles, verdicts, decompositions, hosts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcurvature.bakry_emery import gamma2_form
from graphcurvature.classify import (
    StructureClass,
    bipartite_decomposition,
    cd_ollivier_consistency,
    classify_vertex,
    flat_test_vector,
    interchange_class,
    link_profile,
    negative_test_vector,
)
from graphcurvature.families import (
    complete_bipartite,
    complete_graph,
    cycle,
    dodecahedron,
    flip_graph,
    hypercube,
    interchange_graph,
    lattice_ball,
    matching_graph,
    path_graph,
    path_union,
    petersen,
    regular_tree,
    star,
    transposition_cayley,
)
from graphcurvature.graphs import Graph, GraphError, extract_ball

from conftest import exact_rho
from oracles import oracle_bipartite_decomposition, oracle_link_profile


class TestLinkProfile:
    def test_hypercube_everything_linked(self):
        prof = link_profile(extract_ball(hypercube(4), 0))
        assert prof.N == 0
        assert prof.unlinked_pairs() == ()
        # each neighbor pair shares exactly one flat square corner
        for pair, zs in prof.links.items():
            assert len(zs) == 1
        assert all(l == Fraction(1, 2) for l in prof.linkage.values())

    def test_cycle5_unlinked(self):
        prof = link_profile(extract_ball(cycle(5), 0))
        assert prof.N == 1
        assert prof.unlinked_pairs() == ((1, 4),)

    def test_cycle4_half_weight(self):
        prof = link_profile(extract_ball(cycle(4), 0))
        # the single pair is linked through the antipode, which has two
        # first-sphere neighbors
        assert prof.N == 0
        assert list(prof.linkage.values()) == [Fraction(1, 2)]

    def test_complete_bipartite_weights(self):
        prof = link_profile(extract_ball(complete_bipartite(3), 0))
        assert prof.N == 0
        assert all(l == Fraction(2, 3) for l in prof.linkage.values())

    def test_petersen_all_unlinked(self):
        prof = link_profile(extract_ball(petersen(), 0))
        assert prof.N == 2
        assert all(l == 0 for l in prof.linkage.values())
        assert all(c == 2 for c in prof.nonlink_counts.values())

    def test_linked_iff_half_weight_when_biclique_free(self):
        # without a 2x3 biclique at most one linking vertex exists per
        # pair, and it sees at most two first-sphere vertices
        for g, x in ((hypercube(5), 0), (petersen(), 0), (cycle(6), 0),
                     (flip_graph(6), 0), (dodecahedron(), 0)):
            prof = link_profile(extract_ball(g, x))
            for pair, zs in prof.links.items():
                if zs:
                    assert prof.linkage[pair] >= Fraction(1, 2)
                else:
                    assert prof.linkage[pair] == 0

    def test_matches_pairwise_oracle(self, corpus_items):
        # the corpus plus graphs with triangles (joining vertices inside
        # the first sphere) and a dense biclique
        graphs = [item.graph for item in corpus_items.values()]
        graphs += [complete_graph(5), complete_graph(6), flip_graph(7),
                   complete_bipartite(9), transposition_cayley(4)]
        balls = 0
        for g in graphs:
            for x in g.vertices[:12]:
                if not g.two_ball_complete(x):
                    continue
                ball = extract_ball(g, x)
                got, want = link_profile(ball), oracle_link_profile(ball)
                assert got == want, (g, x)
                assert list(got.links) == list(want.links)
                assert list(got.linkage) == list(want.linkage)
                assert list(got.nonlink_counts) == list(want.nonlink_counts)
                balls += 1
        assert balls > 400


def verdict_at(g, x):
    return classify_vertex(g, extract_ball(g, x))


class TestClassifyVertex:
    def test_hypercube_fully_linked(self):
        v = verdict_at(hypercube(5), 0)
        assert v.structure_class is StructureClass.FULLY_LINKED
        assert v.N == 0
        assert v.cd_prediction == "positive"

    def test_cycle_one_unlinked(self):
        v = verdict_at(cycle(7), 0)
        assert v.structure_class is StructureClass.ONE_UNLINKED
        assert v.cd_prediction == "flat"

    def test_tree_multi_unlinked(self):
        v = verdict_at(regular_tree(4, 4), 0)
        assert v.structure_class is StructureClass.MULTI_UNLINKED
        assert v.N == 3
        assert v.cd_prediction == "negative"

    def test_triangle_inapplicable(self):
        v = verdict_at(complete_graph(4), 0)
        assert v.structure_class is StructureClass.INAPPLICABLE
        assert "triangle" in v.reason

    def test_biclique_inapplicable(self):
        v = verdict_at(complete_bipartite(4), 0)
        assert v.structure_class is StructureClass.INAPPLICABLE
        assert "biclique" in v.reason

    def test_irregular_inapplicable(self):
        v = verdict_at(star(5), 0)
        assert v.structure_class is StructureClass.INAPPLICABLE
        assert "degree" in v.reason

    def test_lattice_boundary_inapplicable(self):
        # a vertex near the cut has no ball to classify
        g = lattice_ball(2, 4)
        with pytest.raises(GraphError, match=r"probe \(3,0\): its two-ball"):
            verdict_at(g, g.resolve_vertex("(3,0)"))

    def test_truncated_but_regular_inapplicable(self):
        # regularity does not let a cut ball through
        from graphcurvature.graphs import Graph, Truncation
        base = cycle(8)
        g = Graph(base.vertices, base.edges,
                  truncation=Truncation(center=0, radius=2))
        with pytest.raises(GraphError, match="probe 4: its two-ball crosses "
                                             "the truncation boundary"):
            verdict_at(g, 4)

    def test_isolated_vertex_inapplicable(self):
        # an isolated vertex has no ball to classify
        with pytest.raises(GraphError, match="probe 0: it is isolated"):
            verdict_at(Graph([0, 1], []), 0)

    def test_inapplicable_verdict_keeps_link_profile(self):
        # a biclique voids the class, not the linkage facts
        g = complete_bipartite(4)
        ball = extract_ball(g, 0)
        v = classify_vertex(g, ball)
        assert v.structure_class is StructureClass.INAPPLICABLE
        assert v.N is None
        assert v.profile == link_profile(ball)
        assert verdict_at(complete_graph(4), 0).profile is None

    def test_lattice_interior_applies(self):
        g = lattice_ball(2, 4)
        v = verdict_at(g, g.resolve_vertex("(0,0)"))
        assert v.structure_class is StructureClass.ONE_UNLINKED


class TestConsistency:
    def test_positive_demands_positive(self):
        ok, problems = cd_ollivier_consistency(exact_rho(2), {1: Fraction(1, 4)})
        assert ok
        ok, problems = cd_ollivier_consistency(exact_rho(2), {1: Fraction(0)})
        assert not ok and "<= 0" in problems[0]

    def test_flat_allows_positive_kappa(self):
        # the 5-cycle: rho = 0 yet every edge curvature is strictly positive
        ok, _ = cd_ollivier_consistency(exact_rho(0),
                                        {1: Fraction(1, 4), 4: Fraction(1, 4)})
        assert ok

    def test_flat_rejects_negative_kappa(self):
        ok, problems = cd_ollivier_consistency(exact_rho(0), {1: Fraction(-1, 3)})
        assert not ok and len(problems) == 1

    def test_negative_needs_some_nonpositive(self):
        ok, problems = cd_ollivier_consistency(
            exact_rho(-1), {1: Fraction(1, 6), 2: Fraction(0)})
        assert ok
        ok, problems = cd_ollivier_consistency(
            exact_rho(-1), {1: Fraction(1, 6), 2: Fraction(1, 6)})
        assert not ok

    def test_empty_kappas_trivially_ok(self):
        assert cd_ollivier_consistency(exact_rho(-2), {})[0]

    def test_sign_is_exact_near_zero(self):
        # 1e-12 is no tolerance's zero: positive rho needs positive kappa
        ok, problems = cd_ollivier_consistency(exact_rho(Fraction(1, 10 ** 12)),
                                               {"a": Fraction(0)})
        assert not ok
        assert problems == ["cd 1e-12 > 0 but kappa(.,a) = 0 <= 0"]
        assert cd_ollivier_consistency(exact_rho(Fraction(-1, 10 ** 12)),
                                       {"a": Fraction(0)})[0]


@st.composite
def random_bipartite_graph(draw):
    """Up to 7 + 7 vertices: random edges, some of them unions of random
    bicliques so that equal-part classes and 2x3 bicliques both turn up;
    vertices may stay isolated."""
    left = draw(st.integers(1, 7))
    right = draw(st.integers(1, 7))
    lefts = st.sets(st.integers(0, left - 1), min_size=1)
    rights = st.sets(st.integers(left, left + right - 1), min_size=1)
    edges = set(draw(st.lists(st.tuples(st.integers(0, left - 1),
                                        st.integers(left, left + right - 1)),
                              max_size=left * right)))
    for _ in range(draw(st.integers(0, 3))):
        a_side, b_side = draw(lefts), draw(rights)
        edges.update((a, b) for a in a_side for b in b_side)
    return Graph(range(left + right), edges)


class TestBipartiteDecomposition:
    def test_hypercube_singletons(self):
        g = hypercube(3)
        classes = bipartite_decomposition(g, 0, 1)
        assert classes is not None
        assert sorted(len(s) for s, _ in classes) == [1, 1]
        for s, t in classes:
            assert len(s) == len(t) == 1
            assert g.has_edge(s[0], t[0])

    def test_complete_bipartite_single_class(self):
        g = complete_bipartite(3)
        classes = bipartite_decomposition(
            g, g.resolve_vertex("l1"), g.resolve_vertex("r1"))
        assert classes is not None
        assert [(len(s), len(t)) for s, t in classes] == [(2, 2)]

    def test_transposition_cayley_mixed_sizes(self):
        g = transposition_cayley(4)
        x = g.resolve_vertex("1234")
        y = g.resolve_vertex("2134")
        classes = bipartite_decomposition(g, x, y)
        assert classes is not None
        assert sorted(len(s) for s, _ in classes) == [1, 2, 2]

    def test_cycle5_has_none(self):
        assert bipartite_decomposition(cycle(5), 0, 1) is None

    def test_overlapping_classes_have_none(self):
        # across (0, 1): neighbors 2, 3 see {5, 6}, neighbor 4 sees {5}, and
        # 7 sees neither; the group sizes match but the classes overlap
        g = Graph(range(8), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6),
                             (1, 7), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5)])
        assert bipartite_decomposition(g, 0, 1) is None
        assert oracle_bipartite_decomposition(g, 0, 1) is None

    def test_tree_has_none(self):
        g = regular_tree(3, 4)
        assert bipartite_decomposition(g, 0, g.resolve_vertex("r.1")) is None

    def test_triangle_is_an_error(self):
        with pytest.raises(GraphError, match="triangle"):
            bipartite_decomposition(complete_graph(3), 0, 1)

    def test_non_edge_is_an_error(self):
        with pytest.raises(GraphError, match="not an edge"):
            bipartite_decomposition(hypercube(3), 0, 3)

    @settings(max_examples=150, deadline=None)
    @given(random_bipartite_graph())
    def test_grouping_matches_closure_oracle(self, g):
        for x, y in g.edges:
            for a, b in ((x, y), (y, x)):
                assert (bipartite_decomposition(g, a, b)
                        == oracle_bipartite_decomposition(g, a, b))


class TestInterchangeRule:
    HOSTS = [
        (matching_graph(1), StructureClass.FULLY_LINKED),
        (matching_graph(2), StructureClass.FULLY_LINKED),
        (matching_graph(3), StructureClass.FULLY_LINKED),
        (path_union([2]), StructureClass.ONE_UNLINKED),
        (path_union([2, 1]), StructureClass.ONE_UNLINKED),
        (path_union([2, 2]), StructureClass.ONE_UNLINKED),
        (path_union([3]), StructureClass.MULTI_UNLINKED),
        (star(3), StructureClass.MULTI_UNLINKED),
        (cycle(4), StructureClass.MULTI_UNLINKED),
        (cycle(5), StructureClass.MULTI_UNLINKED),
        (complete_graph(3), StructureClass.INAPPLICABLE),
    ]

    @pytest.mark.parametrize("host,expect", HOSTS,
                             ids=[h.name for h, _ in HOSTS])
    def test_rule_matches_direct_classification(self, host, expect):
        assert interchange_class(host) is expect
        g = interchange_graph(host)
        identity = 0  # states are sorted, the identity comes first
        direct = verdict_at(g, identity)
        assert direct.structure_class is expect

    def test_edgeless_host_rejected(self):
        from graphcurvature.graphs import Graph
        with pytest.raises(GraphError, match="at least one edge"):
            interchange_class(Graph([0, 1], []))


class TestCertifyingVectors:
    @pytest.mark.parametrize("g,x", [
        (cycle(5), "1"),
        (cycle(8), "1"),
        (lattice_ball(2, 4), "(0,0)"),
        (lattice_ball(3, 4), "(0,0,0)"),
    ])
    def test_flat_vector_evaluates_to_zero(self, g, x):
        x = g.resolve_vertex(x)
        ball = extract_ball(g, x)
        pair = link_profile(ball).first_unlinked_pair(ball.sphere1)
        assert pair is not None
        assert gamma2_form(ball).value(flat_test_vector(ball, pair)) == 0

    @pytest.mark.parametrize("g,x", [
        (petersen(), 0),
        (dodecahedron(), 0),
        (regular_tree(3, 4), 0),
        (regular_tree(5, 4), 0),
        (flip_graph(6), 0),
    ])
    def test_negative_vector_forces_deficit(self, g, x):
        ball = extract_ball(g, x)
        y = link_profile(ball).first_deficient(ball.sphere1)
        assert y is not None
        d = len(ball.sphere1)
        assert gamma2_form(ball).value(negative_test_vector(ball, y)) <= -2 * d

    def test_vectors_absent_when_linked(self):
        ball = extract_ball(hypercube(4), 0)
        prof = link_profile(ball)
        assert prof.first_unlinked_pair(ball.sphere1) is None
        assert prof.first_deficient(ball.sphere1) is None
