"""Generator invariants: sizes, regularity, forbidden subgraphs, labels."""

import itertools
import math

import numpy as np
import pytest

from graphcurvature import corpus
from graphcurvature.corpus import default_corpus_specs, parse_graph_spec
from graphcurvature.families import (
    adjacent_transposition_cayley,
    biplane_incidence,
    complete_bipartite,
    complete_graph,
    cycle,
    dodecahedron,
    flip_graph,
    generalized_petersen,
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
    zigzag,
)
from graphcurvature.graphs import (
    Graph,
    GraphError,
    contains_k3,
    contains_k23,
    is_regular,
)

from oracles import (
    flip_graph_one_by_one,
    hypercube_one_by_one,
    zigzag_one_by_one,
)


def girth(g):
    """Length of the shortest cycle, None for forests."""
    best = None
    for u, w in g.edges:
        # shortest cycle through (u, w) = detour distance + 1
        dist = {u: 0}
        frontier = [u]
        while frontier and w not in dist:
            nxt = []
            for a in frontier:
                for b in g.neighbors(a):
                    if {a, b} == {u, w}:
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if w in dist and (best is None or dist[w] + 1 < best):
            best = dist[w] + 1
    return best


class TestBasicFamilies:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_hypercube(self, d):
        g = hypercube(d)
        assert len(g.vertices) == 2 ** d
        assert is_regular(g) == d
        assert not contains_k3(g)
        assert not contains_k23(g)
        # the edge labelling lists every coordinate once around each vertex
        for a in g.vertices:
            labs = sorted(g.edge_labels[min(a, b), max(a, b)]
                          for b in g.neighbors(a))
            assert labs == list(range(d))

    def test_hypercube_refused_when_its_table_cannot_be_allocated(
            self, monkeypatch):
        # stands in for a dimension whose table passes numpy's size limit
        # but not the memory at hand; a real one would try to allocate
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(GraphError, match="^hypercube of dimension 20 "
                                             "is too large to build$"):
            hypercube(20)

    def test_cycle_and_path(self):
        assert is_regular(cycle(7)) == 2
        assert len(cycle(7).edges) == 7
        assert girth(cycle(5)) == 5
        assert len(path_graph(4).edges) == 3
        with pytest.raises(GraphError):
            cycle(2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_bipartite(self, n):
        g = complete_bipartite(n)
        assert len(g.vertices) == 2 * n
        assert is_regular(g) == n
        assert not contains_k3(g)
        assert contains_k23(g) == (n >= 3)

    def test_star_and_matching(self):
        g = star(6)
        assert g.degree(g.resolve_vertex("c")) == 6
        assert all(g.degree(v) == 1 for v in g.vertices if g.label(v) != "c")
        assert len(matching_graph(3).edges) == 3
        assert is_regular(matching_graph(3)) == 1

    def test_path_union(self):
        g = path_union([2, 1])
        assert g.edges == ((0, 1), (1, 2), (3, 4))
        with pytest.raises(GraphError):
            path_union([])

    @pytest.mark.parametrize("n,r", [(1, 4), (2, 4), (3, 4), (2, 3)])
    def test_lattice_ball_size(self, n, r):
        # |{p in Z^n : |p|_1 <= r}| = sum_k 2^k C(n,k) C(r,k)
        expect = sum(
            2 ** k * math.comb(n, k) * math.comb(r, k)
            for k in range(min(n, r) + 1)
        )
        g = lattice_ball(n, r)
        assert len(g.vertices) == expect
        assert g.truncation is not None and g.truncation.host_degree == 2 * n
        origin = g.resolve_vertex("(" + ",".join(["0"] * n) + ")")
        assert g.degree(origin) == 2 * n

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_regular_tree(self, d):
        depth = 4
        g = regular_tree(d, depth)
        expect = 1 + d * ((d - 1) ** depth - 1) // (d - 2)
        assert len(g.vertices) == expect
        assert len(g.edges) == len(g.vertices) - 1
        root = g.resolve_vertex("r")
        assert g.degree(root) == d
        leaves = [v for v in g.vertices if g.degree(v) == 1]
        assert len(leaves) == d * (d - 1) ** (depth - 1)
        assert not contains_k3(g)


class TestNamedGraphs:
    def test_petersen(self):
        g = petersen()
        assert len(g.vertices) == 10
        assert is_regular(g) == 3
        assert girth(g) == 5
        assert not contains_k3(g) and not contains_k23(g)

    def test_dodecahedron(self):
        g = dodecahedron()
        assert len(g.vertices) == 20
        assert is_regular(g) == 3
        assert girth(g) == 5

    def test_generalized_petersen_validation(self):
        with pytest.raises(GraphError):
            generalized_petersen(3, 2)

    def test_biplane(self):
        g = biplane_incidence()
        assert len(g.vertices) == 14
        assert is_regular(g) == 4
        assert not contains_k3(g)
        assert not contains_k23(g)
        # defining property: any two points lie in exactly two common blocks
        points = [v for v in g.vertices if g.label(v).startswith("p")]
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                common = set(g.neighbors(p)) & set(g.neighbors(q))
                assert len(common) == 2

    def test_registry(self):
        assert parse_graph_spec("petersen").name == "petersen"
        assert len(parse_graph_spec("star:5").vertices) == 6
        with pytest.raises(GraphError, match="unknown generator"):
            parse_graph_spec("nonsense")


class TestPermutationFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transposition_cayley(self, n):
        g = transposition_cayley(n)
        assert len(g.vertices) == math.factorial(n)
        assert is_regular(g) == n * (n - 1) // 2
        assert not contains_k3(g)  # parity-bipartite

    def test_transposition_cayley_3_is_complete_bipartite(self):
        g = transposition_cayley(3)
        evens = {"123", "231", "312"}
        for v in g.vertices:
            mates = {g.label(w) for w in g.neighbors(v)}
            if g.label(v) in evens:
                assert mates == {"213", "132", "321"}
            else:
                assert mates == evens

    @pytest.mark.parametrize("n", [3, 4])
    def test_adjacent_transposition_cayley(self, n):
        g = adjacent_transposition_cayley(n)
        assert len(g.vertices) == math.factorial(n)
        assert is_regular(g) == n - 1
        assert not contains_k3(g)
        if n == 4:
            assert not contains_k23(g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_permutation_cayley_matches_plain_enumeration(self, n):
        # vertex i is the i-th permutation in sorted order, joined to every
        # permutation one generator swap away
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}

        def swap_edges(gens):
            edges = set()
            for p, i in index.items():
                for a, b in gens:
                    q = list(p)
                    q[a], q[b] = q[b], q[a]
                    edges.add(tuple(sorted((i, index[tuple(q)]))))
            return tuple(sorted(edges))

        labels = {i: "".join(str(x + 1) for x in p) for p, i in index.items()}
        for g, name, gens in (
                (transposition_cayley(n), f"transpositions-{n}",
                 list(itertools.combinations(range(n), 2))),
                (adjacent_transposition_cayley(n),
                 f"adjacent-transpositions-{n}",
                 [(i, i + 1) for i in range(n - 1)])):
            assert g.name == name
            assert g.vertices == tuple(range(len(perms)))
            assert g.edges == swap_edges(gens)
            assert g.labels == labels

    def test_interchange_sizes(self):
        # hosts with k independent edges give k commuting swaps
        for k in (1, 2, 3):
            g = interchange_graph(matching_graph(k))
            assert len(g.vertices) == 2 ** k
            assert is_regular(g) == k
        # a 2-edge path generates all of S3, whose graph is a 6-cycle
        g = interchange_graph(path_union([2]))
        assert len(g.vertices) == 6
        assert is_regular(g) == 2
        assert girth(g) == 6
        # the triangle host also generates S3 but with 3 generators
        g = interchange_graph(complete_graph(3))
        assert len(g.vertices) == 6
        assert is_regular(g) == 3
        assert contains_k23(g)
        # a 3-leaf star generates S4
        g = interchange_graph(star(3))
        assert len(g.vertices) == 24
        assert is_regular(g) == 3

    def test_interchange_needs_edges(self):
        with pytest.raises(GraphError, match="at least one edge"):
            interchange_graph(Graph([0, 1], []))


class TestFlipGraphs:
    @pytest.mark.parametrize("n,count", [(4, 2), (5, 5), (6, 14), (7, 42)])
    def test_catalan_counts(self, n, count):
        g = flip_graph(n)
        assert len(g.vertices) == count
        assert is_regular(g) == n - 3

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_flips_are_the_one_diagonal_swaps(self, n):
        # every set of n-3 pairwise non-crossing diagonals is a
        # triangulation, and two triangulations are one flip apart exactly
        # when each has one diagonal the other lacks
        def cross(d, e):
            (a, b), (c, f) = d, e
            return a < c < b < f or c < a < f < b

        diagonals = [(a, b) for a, b in itertools.combinations(range(n), 2)
                     if 1 < b - a < n - 1]
        triangulations = {
            frozenset(ds) for ds in itertools.combinations(diagonals, n - 3)
            if not any(cross(d, e) for d, e in itertools.combinations(ds, 2))}
        g = flip_graph(n)
        sets = {v: frozenset((int(d[0]), int(d[1]))
                             for d in g.label(v).split(".") if d)
                for v in g.vertices}
        assert sorted(sets.values(), key=sorted) == sorted(triangulations,
                                                           key=sorted)
        for u, v in itertools.combinations(g.vertices, 2):
            assert g.has_edge(u, v) == (len(sets[u] - sets[v]) == 1), (u, v)

    def test_flip_5_is_a_cycle(self):
        g = flip_graph(5)
        assert is_regular(g) == 2
        assert girth(g) == 5

    def test_flip_6_shape(self):
        g = flip_graph(6)
        assert not contains_k3(g)
        assert not contains_k23(g)
        # the fan triangulation touches all other fans sharing two diagonals
        fan = g.resolve_vertex("02.03.04")
        assert g.degree(fan) == 3


class TestAgainstReferenceBuilders:
    """Every field of a built graph against the same spec built with the
    reference hypercube, flip-graph and zigzag builders of oracles.py."""

    SPECS = list(dict.fromkeys([
        *(f"hypercube:{d}" for d in range(1, 13)),
        *(f"flip:{n}" for n in range(4, 10)),
        # TestZigzag's pairs
        *(f"zigzag:hypercube:{k},cycle:{k}" for k in (4, 6, 8)),
        "zigzag:hypercube:4,complete-bipartite:2",
        *default_corpus_specs(),
        # the dense sweep of the benchmark
        "transpositions:5", "hypercube:8", "flip:8",
    ]))

    @staticmethod
    def fields(g):
        rows = [g.neighbors(v) for v in g.vertices]
        ids = {type(x) for x in itertools.chain(
            g.vertices, *g.edges, *g.symmetries, *rows)}
        return (g.vertices, g.edges, list(g.labels.items()),
                list(g.edge_labels.items()), g.symmetries, g.name,
                g.truncation, rows, ids <= {int})

    @pytest.mark.parametrize("spec", SPECS)
    def test_fields_match(self, monkeypatch, spec):
        got = self.fields(parse_graph_spec(spec))
        for name, build in (("hypercube", hypercube_one_by_one),
                            ("flip", flip_graph_one_by_one)):
            monkeypatch.setitem(corpus._GENERATORS, name, (build, 1))
        monkeypatch.setitem(corpus._GENERATORS, "zigzag", (
            lambda arg: zigzag_one_by_one(*map(parse_graph_spec,
                                               arg.split(","))), None))
        assert got == self.fields(parse_graph_spec(spec))


class TestZigzag:
    def test_worked_small_case(self):
        g = zigzag(hypercube(6), cycle(6))
        assert len(g.vertices) == 64 * 6
        assert is_regular(g) == 4  # square of the cycle degree
        x1 = g.resolve_vertex("(000000,1)")
        mates = sorted(g.label(w) for w in g.neighbors(x1))
        assert mates == [
            "(000001,1)",
            "(000001,5)",
            "(010000,1)",
            "(010000,3)",
        ]

    @pytest.mark.parametrize("g1, g2", [
        *((hypercube(k), cycle(k)) for k in (4, 6, 8)),
        (hypercube(4), complete_bipartite(2)),
    ], ids=["cycle:4", "cycle:6", "cycle:8", "complete-bipartite:2"])
    def test_matches_the_walk_from_every_vertex(self, g1, g2):
        got, expect = zigzag(g1, g2), zigzag_one_by_one(g1, g2)
        assert got.vertices == expect.vertices
        assert got.edges == expect.edges
        assert got.labels == expect.labels
        assert got.symmetries == expect.symmetries
        assert len(got.symmetries) == len(g1.symmetries)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(GraphError, match="degree"):
            zigzag(hypercube(3), cycle(6))

    def test_rejects_missing_edge_labels(self):
        with pytest.raises(GraphError, match="edge labels"):
            zigzag(cycle(4), path_graph(2))

    def test_rejects_irregular_second_factor(self):
        with pytest.raises(GraphError, match="regular"):
            zigzag(hypercube(3), path_graph(3))
