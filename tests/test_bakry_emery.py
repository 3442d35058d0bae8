"""Vertex curvature: form assembly, elimination, eigenvalue, certificates."""

import random
from fractions import Fraction

import pytest

from graphcurvature.bakry_emery import (
    RHO_TOLERANCE,
    cd_curvature,
    eliminate_second_neighbors,
    gamma2_form,
    second_neighbor_minimizer,
)
from graphcurvature.classify import link_profile
from graphcurvature.corpus import parse_graph_spec
from graphcurvature.families import (
    adjacent_transposition_cayley,
    biplane_incidence,
    complete_bipartite,
    complete_graph,
    cycle,
    dodecahedron,
    flip_graph,
    hypercube,
    lattice_ball,
    petersen,
    regular_tree,
    star,
    transposition_cayley,
)
from graphcurvature.graphs import GraphError, extract_ball

from oracles import fraction_gamma2, fraction_schur


def slow_gamma(g, f, x):
    return Fraction(1, 2) * sum(
        (f.get(y, 0) - f.get(x, 0)) ** 2 for y in g.neighbors(x)
    )


def slow_gamma_bilinear(g, f, h, x):
    return Fraction(1, 2) * sum(
        (f.get(y, 0) - f.get(x, 0)) * (h.get(y, 0) - h.get(x, 0))
        for y in g.neighbors(x)
    )


def slow_laplacian(g, f, x):
    return sum(f.get(y, 0) - f.get(x, 0) for y in g.neighbors(x))


def slow_doubled_gamma2(g, f, x):
    """2 Gamma2 f(x) straight from the iterated difference operators."""
    gamma_f = {v: slow_gamma(g, f, v) for v in g.vertices}
    lap_f = {v: slow_laplacian(g, f, v) for v in g.vertices}
    return slow_laplacian(g, gamma_f, x) - 2 * slow_gamma_bilinear(g, f, lap_f, x)


def random_function(rng, vertices):
    return {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in vertices}


OPERATOR_CASES = [
    ("triangle", complete_graph(3), 0),
    ("k5", complete_graph(5), 2),
    ("c5", cycle(5), 0),
    ("q3", hypercube(3), 5),
    ("petersen", petersen(), 3),
    ("star5", star(5), 0),
    ("star5-leaf", star(5), 1),
    ("flip6", flip_graph(6), 0),
    ("tc4", transposition_cayley(4), 7),
]


class TestFormAssembly:
    @pytest.mark.parametrize("name,g,x", OPERATOR_CASES, ids=[c[0] for c in OPERATOR_CASES])
    def test_matches_iterated_operators(self, name, g, x):
        # the assembled form must agree with the raw definition for any f
        # supported on the punctured two-ball with f(x) = 0
        rng = random.Random(hash(name) & 0xFFFF)
        ball = extract_ball(g, x)
        form = gamma2_form(ball)
        for _ in range(12):
            f = random_function(rng, ball.sphere1 + ball.sphere2)
            f[x] = Fraction(0)
            assert form.value(f) == slow_doubled_gamma2(g, f, x)


class TestIntegerKernels:
    @pytest.mark.parametrize("spec", [
        "complete:5",
        "flip:6",
        "star:6",       # the leaves are the d = 1 case
        "lattice:2:4",
        "zigzag:hypercube:6,cycle:6",
        "transpositions:4",  # sphere2 multiplicities 2 and 3: lcm 6
    ])
    def test_forms_equal_fraction_reference(self, spec):
        g = parse_graph_spec(spec)
        balls = [extract_ball(g, x) for x in g.vertices if g.two_ball_complete(x)]
        assert balls
        for ball in balls:
            form = gamma2_form(ball)
            index, ref = fraction_gamma2(ball)
            assert form.index == index
            for i, row in enumerate(ref):
                for j, expect in enumerate(row):
                    assert Fraction(form.matrix[i][j], form.scale) == expect
            red = eliminate_second_neighbors(form, ball)
            ref_red = fraction_schur(ball, ref)
            assert red.index == ball.sphere1
            n1, s = len(ball.sphere1), red.scale
            for i in range(n1):
                for j in range(n1):
                    assert Fraction(red.matrix[i][j], s) == ref_red[i][j] \
                        == Fraction(red.matrix[j][i], s)


class TestElimination:
    @pytest.mark.parametrize("g,x", [
        (cycle(6), 0),
        (hypercube(4), 0),
        (petersen(), 0),
        (regular_tree(4, 4), 0),
        (biplane_incidence(), 0),
    ])
    def test_schur_equals_exhaustive_minimum(self, g, x):
        rng = random.Random(11)
        ball = extract_ball(g, x)
        full = gamma2_form(ball)
        red = eliminate_second_neighbors(full, ball)
        for _ in range(8):
            s1 = random_function(rng, ball.sphere1)
            best = second_neighbor_minimizer(ball, s1)
            f = dict(s1)
            f.update(best)
            assert red.value(s1) == full.value(f)
            # any perturbation of the closed-form optimum can only increase
            for u in ball.sphere2:
                bumped = dict(f)
                bumped[u] += Fraction(rng.randint(1, 3), 2)
                assert full.value(bumped) >= red.value(s1)

    def test_minimizer_is_twice_the_neighbor_mean(self):
        ball = extract_ball(hypercube(3), 0)
        s1 = {ball.sphere1[0]: Fraction(3)}
        ext = second_neighbor_minimizer(ball, s1)
        for u, val in ext.items():
            nbrs = ball.adj[u]
            assert val == 2 * sum(s1.get(v, Fraction(0)) for v in nbrs) / len(nbrs)


FROZEN_RHO = [
    (hypercube(1), 0, 2.0),
    (hypercube(4), 0, 2.0),
    (complete_bipartite(3), 0, 2.0),
    (cycle(4), 0, 2.0),
    (cycle(5), 0, 0.0),
    (cycle(8), 0, 0.0),
    (petersen(), 0, -1.0),
    (dodecahedron(), 0, -1.0),
    (flip_graph(6), 0, -1.0),
    (transposition_cayley(4), 0, 2.0),
    (adjacent_transposition_cayley(4), 0, -1.0),
    (biplane_incidence(), 0, 2.0),
    (regular_tree(3, 4), 0, -1.0),
    (regular_tree(5, 4), 0, -3.0),
    (star(6), 0, -1.5),     # center: (3 - n) / 2
    (star(6), 1, -0.5),     # leaf: (5 - n) / 2
]


class TestCurvatureValues:
    @pytest.mark.parametrize("g,x,expect", FROZEN_RHO,
                             ids=[f"{g.name}-{x}" for g, x, _ in FROZEN_RHO])
    def test_frozen_values(self, g, x, expect):
        res = cd_curvature(extract_ball(g, x))
        assert res.rho == pytest.approx(expect, abs=1e-9)

    def test_trees_match_closed_form(self):
        for d in (3, 4, 5):
            res = cd_curvature(extract_ball(regular_tree(d, 4), 0))
            assert res.rho == pytest.approx(2 - d, abs=1e-9)

    def test_threshold_behavior(self):
        rho = cd_curvature(extract_ball(hypercube(3), 0)).rho
        assert rho >= 2.0 - RHO_TOLERANCE
        assert not rho >= 2.1 - RHO_TOLERANCE
        assert rho >= -5.0 - RHO_TOLERANCE

    def test_isolated_vertex_rejected(self):
        from graphcurvature.graphs import Graph
        g = Graph([0, 1, 2], [(1, 2)])
        with pytest.raises(GraphError, match="isolated"):
            cd_curvature(extract_ball(g, 0))

    def test_truncation_boundary_rejected(self):
        g = lattice_ball(2, 4)
        boundary = g.resolve_vertex("(3,0)")
        with pytest.raises(GraphError, match="truncation"):
            cd_curvature(extract_ball(g, boundary))

    def test_degree_one_special_case_is_exact(self):
        res = cd_curvature(extract_ball(star(6), 1))
        assert res.rho == -0.5


class TestMinimizerCertificate:
    @pytest.mark.parametrize("g,x", [
        (petersen(), 0),
        (hypercube(3), 0),
        (complete_graph(4), 0),
        (flip_graph(6), 0),
    ])
    def test_random_functions_respect_the_bound(self, g, x):
        rng = random.Random(5)
        ball = extract_ball(g, x)
        res = cd_curvature(ball)
        g2 = gamma2_form(ball)
        for _ in range(25):
            f = random_function(rng, ball.sphere1 + ball.sphere2)
            val2 = float(g2.value(f))
            valg = 2 * float(slow_gamma(g, f, x))
            assert val2 >= (res.rho - 1e-9) * valg - 1e-9


class TestLinkageAssembly:
    @pytest.mark.parametrize("g,x", [
        (hypercube(4), 0),
        (cycle(5), 0),
        (petersen(), 0),
        (complete_bipartite(3), 0),
        (biplane_incidence(), 0),
        (lattice_ball(2, 4), None),
    ])
    def test_reduced_form_matches_linkage_formula(self, g, x):
        # triangle-free regular case: the reduced matrix is determined by
        # the pairwise linkage weights alone
        if x is None:
            x = g.resolve_vertex("(0,0)")
        ball = extract_ball(g, x)
        d = len(ball.sphere1)
        profile = link_profile(ball)
        red = eliminate_second_neighbors(gamma2_form(ball), ball)
        for i, v in enumerate(ball.sphere1):
            for j, w in enumerate(ball.sphere1):
                got = Fraction(red.matrix[i][j], red.scale)
                if i == j:
                    expect = Fraction(3 - d)
                    for u in ball.sphere1:
                        if u != v:
                            expect += 2 * profile.linkage[
                                (min(u, v), max(u, v))]
                else:
                    expect = 1 - 2 * profile.linkage[(min(v, w), max(v, w))]
                assert got == expect
