"""Vertex curvature: form assembly, elimination, eigenvalue, certificates."""

import random
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature import bakry_emery
from graphcurvature.bakry_emery import (
    QuadraticForm,
    cd_curvature,
    certify_rho,
    eliminate_second_neighbors,
    gamma2_form,
    rayleigh_bound,
    rho_sign,
    second_neighbor_minimizer,
)
from graphcurvature.classify import (
    flat_test_vector,
    link_profile,
    negative_test_vector,
)
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
from graphcurvature.graphs import Graph, GraphError, extract_ball

from oracles import fraction_gamma2, fraction_rho_sign, fraction_schur


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


def number_of_kind(rng, kind):
    """A random value of `kind`: an int, a Fraction, a float, which is a
    dyadic rational with a long expansion, or any one of the three."""
    if kind == "mixed":
        kind = rng.choice(["int", "Fraction", "float"])
    if kind == "int":
        return rng.randint(-6, 6)
    if kind == "Fraction":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.uniform(-6, 6)


def fraction_value(ball, f) -> Fraction:
    """f^T M f over the fraction_gamma2 matrix, each value made exact."""
    index, m = fraction_gamma2(ball)
    v = [Fraction(f.get(u, 0)) for u in index]
    return sum(v[i] * m[i][j] * v[j]
               for i in range(len(v)) for j in range(len(v)))


VALUE_KINDS = ["int", "Fraction", "float", "mixed"]


class TestExactValues:
    """QuadraticForm.value and second_neighbor_minimizer sum ints when
    they can; whatever the kind of their inputs, the answer is the exact
    one."""

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    @pytest.mark.parametrize("g,x", [
        (petersen(), 0), (transposition_cayley(4), 0), (flip_graph(6), 0)])
    def test_value_matches_fraction_reference(self, g, x, kind):
        rng = random.Random(f"{g.name}-{kind}")
        ball = extract_ball(g, x)
        form = gamma2_form(ball)
        for _ in range(6):
            f = {v: number_of_kind(rng, kind)
                 for v in ball.sphere1 + ball.sphere2 if rng.random() < 0.8}
            got = form.value(f)
            assert type(got) is Fraction
            assert got == fraction_value(ball, f)
            assert got == slow_doubled_gamma2(
                g, {v: Fraction(val) for v, val in f.items()}, x)

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_minimizer_is_exact_for_every_kind(self, kind):
        rng = random.Random(kind)
        for g in (petersen(), transposition_cayley(4), hypercube(4)):
            ball = extract_ball(g, 0)
            for _ in range(6):
                s1 = {v: number_of_kind(rng, kind) for v in ball.sphere1}
                ext = second_neighbor_minimizer(ball, s1)
                assert list(ext) == list(ball.sphere2)
                for u, val in ext.items():
                    nbrs = ball.adj[u]
                    assert type(val) is Fraction
                    assert val == 2 * sum(Fraction(s1[v]) for v in nbrs) \
                        / len(nbrs)

    def test_float_sum_is_not_rounded(self):
        # 0.1 + 0.2 rounds in floats; the minimizer sums the exact values.
        # On the 4-cycle the vertex opposite 0 sees both its neighbors
        ball = extract_ball(cycle(4), 0)
        v, w = ball.sphere1
        (u,) = ball.sphere2
        ext = second_neighbor_minimizer(ball, {v: 0.1, w: 0.2})
        assert ext[u] == Fraction(0.1) + Fraction(0.2) != Fraction(0.1 + 0.2)

    @pytest.mark.parametrize("g,x", [(g, x) for _, g, x in OPERATOR_CASES],
                             ids=[c[0] for c in OPERATOR_CASES])
    def test_test_vectors_match_iterated_operators(self, g, x):
        # every pair and every neighbor, not just the ones a class picks
        ball = extract_ball(g, x)
        form = gamma2_form(ball)
        s1 = ball.sphere1
        vectors = [flat_test_vector(ball, (y, z))
                   for i, y in enumerate(s1) for z in s1[i + 1:]]
        vectors += [negative_test_vector(ball, y) for y in s1]
        for f in vectors:
            assert all(type(f[v]) is int for v in (ball.base, *s1))
            assert form.value(f) == slow_doubled_gamma2(g, f, x) \
                == fraction_value(ball, f)


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
        # rho = 2 at the cube, decided exactly on both sides
        ball = extract_ball(hypercube(3), 0)
        red = eliminate_second_neighbors(gamma2_form(ball), ball)
        assert rho_sign(red, 2) == 0
        assert rho_sign(red, Fraction(21, 10)) == -1
        assert rho_sign(red, Fraction(19, 10)) == 1
        assert rho_sign(red, -5) == 1

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


def reduced(g, x):
    ball = extract_ball(g, x)
    return eliminate_second_neighbors(gamma2_form(ball), ball)


@st.composite
def small_forms(draw):
    """(form, r): a symmetric integer matrix of size 1 to 5 over a scale,
    and a rational r.  Half are any symmetric matrix; half are G^T G - cI
    for an integer G of at most n rows, singular at c when G has fewer,
    and r is often that eigenvalue c / scale exactly."""
    n = draw(st.integers(1, 5))
    scale = draw(st.integers(1, 6))
    r = draw(st.fractions(-6, 6, max_denominator=8))
    if draw(st.booleans()):
        upper = {(i, j): draw(st.integers(-4, 4))
                 for i in range(n) for j in range(i, n)}
        m = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(st.integers(-2, 2)) for _ in range(n)]
                for _ in range(draw(st.integers(0, n)))]
        c = draw(st.integers(-3, 3))
        m = [[sum(row[i] * row[j] for row in rows) - (c if i == j else 0)
              for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            r = Fraction(-c, scale)
    return QuadraticForm(range(n), m, scale), r


def assert_certified(form):
    """certify_rho's bracket, exact value and rounding against the
    Fraction oracle."""
    rho = certify_rho(form)
    sign = lambda r: fraction_rho_sign(form.matrix, form.scale, r)  # noqa: E731
    if rho.exact is not None:
        assert rho.low == rho.exact == rho.high
        assert sign(rho.exact) == 0
    else:
        assert sign(rho.low) == 1 and sign(rho.high) == -1
    text = f"{rho.value:.15g}"
    assert text != "-0"
    printed = Fraction(Decimal(text))
    if printed == 0:
        assert sign(0) == 0
    else:
        # within half a unit in the 15th significant digit of the printed
        # decimal, on both sides
        exp = Decimal(text).adjusted()
        h = Fraction(10) ** (exp - 14) / 2
        assert sign(printed - h) >= 0 and sign(printed + h) <= 0
    return rho


class TestCertifiedRho:
    @settings(max_examples=300, deadline=None)
    @given(small_forms())
    def test_sign_matches_fraction_oracle(self, case):
        form, r = case
        assert rho_sign(form, r) == fraction_rho_sign(form.matrix, form.scale, r)

    @settings(max_examples=150, deadline=None)
    @given(small_forms())
    def test_bracket_matches_fraction_oracle(self, case):
        form, r = case
        rho = assert_certified(form)
        assert rho.sign(r) == fraction_rho_sign(form.matrix, form.scale, r)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_balls_match_fraction_oracle(self, data):
        # every vertex with a complete two-ball in a random graph on up
        # to 7 vertices: the bracket and the class thresholds
        n = data.draw(st.integers(2, 7), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   min_size=1), label="edges")
        g = Graph(range(n), edges)
        for x in g.vertices:
            if g.degree(x) == 0:
                continue
            form = reduced(g, x)
            rho = assert_certified(form)
            d = g.degree(x)
            for r in (2, 0, *([Fraction(-2, d - 1)] if d > 1 else [])):
                assert rho.sign(r) == \
                    fraction_rho_sign(form.matrix, form.scale, r), (edges, x, r)

    @pytest.mark.parametrize("spec, r", [("complete-bipartite:3", 2),
                                         ("cycle:5", 0)])
    def test_nudging_one_entry_flips_the_decision(self, spec, r):
        # rho = r exactly; one scaled diagonal entry up or down by 1 moves
        # rho off r to either side, and the class statement with it
        form = reduced(parse_graph_spec(spec), 0)
        assert rho_sign(form, r) == 0
        for step in (1, -1):
            m = [row[:] for row in form.matrix]
            m[0][0] += step
            nudged = QuadraticForm(form.index, m, form.scale)
            assert rho_sign(nudged, r) == step
            rho = certify_rho(nudged)
            assert rho.exact is None and rho.sign(r) == step

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_bipartite_is_exactly_two(self, n):
        rho = certify_rho(reduced(complete_bipartite(n), 0))
        assert rho.exact == 2 and rho.sign(2) == 0 and rho.value == 2.0

    def test_star_centre_is_exactly_zero(self):
        # the reduced matrix is [[2, 2, 2]] * 3 over 2, so rho = 0, where
        # eigh gives -4.5e-16
        form = reduced(star(3), 0)
        assert cd_curvature(extract_ball(star(3), 0)).rho != 0
        rho = certify_rho(form)
        assert rho.exact == 0 and rho.sign(0) == 0
        assert f"{rho.value:.15g}" == "0"

    def test_estimate_off_by_many_units(self):
        # a triple eigenvalue: eigh gives -0.17579566188594062 but rho is
        # -0.17579566188592046..., about forty half units away
        g = parse_graph_spec("zigzag:hypercube:6,complete:6")
        rho = certify_rho(reduced(g, 0))
        assert f"{rho.value:.15g}" == "-0.17579566188592"
        assert rho.low <= Fraction("-0.17579566188592") <= rho.high
        assert rho.high - rho.low == Fraction(5, 10 ** 16)

    def test_rayleigh_seed_takes_few_exact_tests(self, monkeypatch):
        # the triple eigenvalue of test_estimate_off_by_many_units: eigh
        # is about forty half units off and took 13 exact tests, where
        # the eigenvector's Rayleigh quotient lands within one half unit
        g = parse_graph_spec("zigzag:hypercube:6,complete:6")
        form = reduced(g, 0)
        calls = []
        sign = bakry_emery.rho_sign

        def counting(form, r):
            calls.append(r)
            return sign(form, r)

        monkeypatch.setattr(bakry_emery, "rho_sign", counting)
        rho = certify_rho(form)
        d = g.degree(0)
        for r in (2, 0, Fraction(-2, d - 1)):
            rho.sign(r)
        assert f"{rho.value:.15g}" == "-0.17579566188592"
        assert len(calls) <= 3

    @settings(max_examples=150, deadline=None)
    @given(small_forms(), st.lists(st.floats(-4, 4), min_size=5, max_size=5))
    def test_rayleigh_bound_is_an_upper_bound(self, case, vector):
        form, _ = case
        bound = rayleigh_bound(form, vector[:len(form.index)])
        if bound is None:
            assert all(round(c * 2.0 ** 53) == 0 for c in vector[:len(form.index)])
        else:
            assert fraction_rho_sign(form.matrix, form.scale, bound) <= 0

    def test_rounding_ties_go_to_even(self):
        # rho = 1.000000000000005 exactly, halfway between two 15-digit
        # decimals, and -1.000000000000015 likewise
        for num, want in ((10 ** 15 + 5, "1"),
                          (-10 ** 15 - 15, "-1.00000000000002")):
            rho = certify_rho(QuadraticForm((0,), [[num]], 10 ** 15))
            assert rho.exact == Fraction(num, 10 ** 15)
            assert f"{rho.value:.15g}" == want

    @settings(max_examples=200, deadline=None)
    @given(num=st.one_of(st.integers(-10 ** 18, 10 ** 18),
                         st.builds(lambda k, d: 10 ** k + d,
                                   st.integers(0, 18), st.integers(-60, 60))),
           scale=st.one_of(st.integers(1, 10 ** 18),
                           st.builds(lambda k: 10 ** k, st.integers(0, 18))),
           skew=st.sampled_from([1.0, 1 + 1e-12, 1.001, 10.0, 0.01, -1.0, 0.0]),
           vector=st.sampled_from([1.0, -0.5, 1e-300, 0.0]))
    def test_rounds_like_decimal_from_any_estimate(self, num, scale, skew,
                                                   vector):
        # rho = num / scale exactly; the estimate is skewed, of the wrong
        # sign or zero, and the printed value is still Decimal's correctly
        # rounded quotient, across decade boundaries too; an eigenvector
        # that rounds to zero leaves the estimate alone to steer
        form = QuadraticForm((0,), [[num]], scale)
        estimate = bakry_emery.lowest_eigenpair(form)[0] * skew
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bakry_emery, "lowest_eigenpair",
                       lambda form: (estimate, [vector]))
            rho = certify_rho(form)
        want = Context(prec=15, rounding=ROUND_HALF_EVEN).divide(num, scale)
        assert rho.value == float(want)
        assert rho.exact in (None, Fraction(num, scale))
        if want == Fraction(num, scale):
            assert rho.exact == want
