"""Edge curvature: exact transport, duality, witnesses, invariances."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphcurvature import ollivier
from graphcurvature.corpus import parse_graph_spec
from graphcurvature.families import (
    biplane_incidence,
    complete_bipartite,
    cycle,
    dodecahedron,
    flip_graph,
    hypercube,
    lattice_ball,
    path_graph,
    petersen,
    regular_tree,
    star,
    transposition_cayley,
    zigzag,
)
from graphcurvature.graphs import Graph, GraphError
from graphcurvature.ollivier import (
    LipschitzCertificate,
    TransportPlan,
    TransportProblem,
    certificate_violations,
    extend_certificate,
    kappa_detail,
    kappa_lower_witness,
    kappa_upper_witness,
    ollivier_kappa,
    validate_plan,
    wasserstein,
)

from oracles import (
    bellman_ford_potential,
    bfs,
    oracle_wasserstein,
    pose_integer_transport,
    reference_min_cost_flow,
    solve_integer_transport,
)


def lazy_masses(g, v):
    """The lazy measure at v straight from its definition."""
    masses = {w: Fraction(1, 2 * g.degree(v)) for w in g.neighbors(v)}
    masses[v] = Fraction(1, 2)
    return masses


def as_fractions(measure, scale):
    return {p: Fraction(units, scale) for p, units in measure}


def all_pairs_violations(g, values):
    """certificate_violations' messages from a full search per point."""
    expected = []
    keys = sorted(values)
    for i, p in enumerate(keys):
        dist = bfs(g, p)
        for q in keys[i + 1:]:
            spread = abs(values[p] - values[q])
            if q in dist and spread > dist[q]:
                expected.append(f"|f({g.label(p)}) - f({g.label(q)})| = "
                                f"{spread} > distance {dist[q]}")
    return expected


def two_balls(g, x, y):
    """The vertices within distance 2 of x or of y."""
    return set(bfs(g, x, radius=2)) | set(bfs(g, y, radius=2))


def safe_edges(g):
    """The edges of g whose transport neighborhood no truncation cuts."""
    return [e for e in g.edges if g.transport_neighborhood_complete(*e)]


class TestMeasures:
    def test_lazy_measure_masses(self):
        g = petersen()
        tp = TransportProblem(g, 0, 1)
        mu = as_fractions(tp.mu, tp.scale)
        assert mu[0] == Fraction(1, 2)
        for y in g.neighbors(0):
            assert mu[y] == Fraction(1, 6)
        assert 9 not in mu
        assert as_fractions(tp.nu, tp.scale) == lazy_masses(g, 1)

    def test_lazy_measure_isolated(self):
        # an isolated vertex is on no edge, so it poses no problem
        g = Graph([0, 1, 2], [(1, 2)])
        with pytest.raises(GraphError, match="not an edge"):
            TransportProblem(g, 0, 1)

    def test_measure_validation(self):
        # both measures are probability measures over the scale, also
        # where the endpoint degrees differ: distinct points, positive
        # units, total mass 1
        for g in (star(4), petersen(), regular_tree(3, 5)):
            for x, y in safe_edges(g):
                tp = TransportProblem(g, x, y)
                for measure in (tp.mu, tp.nu):
                    points = [p for p, _ in measure]
                    assert points == sorted(set(points))
                    assert all(units > 0 for _, units in measure)
                    assert sum(units for _, units in measure) == tp.scale


class TestWasserstein:
    def test_identical_measures_cost_zero(self):
        g = cycle(6)
        mu = {0: 2, 1: 1, 5: 1}
        _, _, _, total, values = solve_integer_transport(g, mu, mu)
        assert total == 0
        assert certificate_violations(g, values) == []

    def test_point_masses_pay_the_distance(self):
        # a general problem: one move of length 4, beyond any edge problem
        g = path_graph(5)
        cost, _, _, total, values = solve_integer_transport(g, {0: 1}, {4: 1})
        assert cost == [[4]]
        assert total == 4
        assert values[4] - values[0] == 4

    def test_cycle_adjacent_lazy_cost(self):
        g = cycle(5)
        res = wasserstein(TransportProblem(g, 0, 1))
        assert res.wasserstein == Fraction(3, 4)

    def test_plan_is_feasible_and_certified(self):
        g = petersen()
        tp = TransportProblem(g, 0, 1)
        res = wasserstein(tp)
        assert validate_plan(g, 0, 1, res.plan) == res.wasserstein
        cert = res.certificate
        assert cert.gap == 0
        assert cert.dual_value == res.wasserstein
        assert all(isinstance(v, int) for v in cert.values.values())
        assert certificate_violations(g, cert.values) == []
        # the dual value really is the integral difference
        diff = (sum(m * cert.values[p] for p, m in lazy_masses(g, 1).items())
                - sum(m * cert.values[p] for p, m in lazy_masses(g, 0).items()))
        assert diff == cert.dual_value


class TestCorpusCertificates:
    def test_every_safe_corpus_edge_is_certified(self, corpus_items):
        # the certificate is the solver's own output, so every plan and
        # potential is checked here against independent references
        edges = 0
        for item in corpus_items.values():
            g = item.graph
            for x, y in g.edges:
                if not g.transport_neighborhood_complete(x, y):
                    continue
                tp = TransportProblem(g, x, y)
                assert as_fractions(tp.mu, tp.scale) == lazy_masses(g, x)
                assert as_fractions(tp.nu, tp.scale) == lazy_masses(g, y)
                # every support point lies within 3 of every other
                dist = {p: bfs(g, p, radius=3)
                        for p in {*tp.sources, *tp.targets}}
                assert tp.cost == tuple(tuple(dist[s][t] for t in tp.targets)
                                        for s in tp.sources)
                res = wasserstein(tp)
                cert = res.certificate
                assert validate_plan(g, x, y, res.plan) == res.wasserstein
                assert cert.gap == 0
                assert certificate_violations(g, cert.values) == []
                assert cert.values == bellman_ford_potential(
                    dist, lambda p, q: dist[p][q], res.plan.flows)
                # the sweep's path, which builds no objects, agrees
                detail = kappa_detail(g, x, y)
                assert ollivier_kappa(g, x, y) == detail.kappa == 1 - res.wasserstein
                assert detail.plan == res.plan
                assert detail.certificate == res.certificate
                edges += 1
        assert edges == 5859


class TestSolveMemo:
    def test_edge_order_does_not_change_results(self):
        spec = "zigzag:hypercube:6,cycle:6"
        forward, backward = parse_graph_spec(spec), parse_graph_spec(spec)
        first = {e: kappa_detail(forward, *e) for e in forward.edges}
        second = {e: kappa_detail(backward, *e)
                  for e in reversed(backward.edges)}
        for e, res in first.items():
            assert res.plan == second[e].plan
            assert res.certificate == second[e].certificate

    def test_symmetric_graph_solves_once(self, monkeypatch):
        calls = []
        solve = ollivier._min_cost_flow

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(ollivier, "_min_cost_flow", counted)
        g = hypercube(6)
        assert len(g.edges) == 192
        for x, y in g.edges:
            assert kappa_detail(g, x, y).kappa == Fraction(1, 6)
        assert len(calls) == 1

    def test_problem_is_its_own_memo_key(self):
        # every edge of the 4-cube poses one problem, laid out identically
        g = hypercube(4)
        problems = {(tp.supply, tp.demand, tp.cost)
                    for tp in (TransportProblem(g, *e) for e in g.edges)}
        assert len(problems) == 1
        for x, y in g.edges:
            assert ollivier_kappa(g, x, y) == Fraction(1, 4)
        assert list(g._transport) == list(problems)

    def test_memo_hits_are_certified_per_edge(self):
        g = hypercube(3)
        first, other = g.edges[0], g.edges[-1]
        assert ollivier_kappa(g, *first) == Fraction(1, 3)
        [(key, (cells, pot))] = g._transport.items()
        tampered = []
        for k in range(len(pot)):
            bumped = list(pot)
            bumped[k] += 1
            tampered.append((cells, tuple(bumped)))
        for k, (a, b, f, mass) in enumerate(cells):
            moved = list(cells)
            moved[k] = (a, b, f + 1, mass)
            tampered.append((tuple(moved), pot))
        for entry in tampered:
            g._transport[key] = entry
            for edge in (first, other):
                with pytest.raises(GraphError, match="internal"):
                    ollivier_kappa(g, *edge)
                with pytest.raises(GraphError, match="internal"):
                    kappa_detail(g, *edge)
        g._transport[key] = (cells, pot)
        assert ollivier_kappa(g, *other) == Fraction(1, 3)
        assert len(g._transport) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(st.integers(1, 3), st.lists(st.integers(0, 3), min_size=n,
                                              max_size=n)),
        min_size=1, max_size=8)))
    def test_canonical_order_sorts_by_cost_multiset(self, lines):
        masses = [a for a, _ in lines]
        costs = [c for _, c in lines]
        assert [i for *_, i in ollivier._order(masses, costs)] == sorted(
            range(len(lines)), key=lambda i: (masses[i], sorted(costs[i])))

    @pytest.mark.parametrize("spec, most", [
        ("hypercube:5", 1), ("petersen", 1), ("dodecahedron", 1),
        ("biplane", 1), ("transpositions:4", 1), ("transpositions:5", 1),
        ("flip:8", 4)])
    def test_one_entry_per_kind_of_edge(self, spec, most):
        # break ties by vertex id alone, and these graphs keep 1, 1, 2,
        # 6, 13, 137 and 8 entries over both orientations of every edge
        g = parse_graph_spec(spec)
        for x, y in g.edges:
            ollivier_kappa(g, x, y)
            ollivier_kappa(g, y, x)
        assert 1 <= len(g._transport) <= most


class TestPlanValidation:
    def _problem(self):
        g = cycle(5)
        return g, TransportProblem(g, 0, 1)

    def test_detects_bad_marginal(self):
        g, tp = self._problem()
        plan = wasserstein(tp).plan
        flows = list(plan.flows)
        s, t, m = flows[0]
        flows[0] = (s, t, m / 2)
        broken = TransportPlan(tuple(flows), plan.total_cost)
        with pytest.raises(GraphError, match="marginal"):
            validate_plan(g, 0, 1, broken)

    def test_detects_bad_cost(self):
        g, tp = self._problem()
        plan = wasserstein(tp).plan
        broken = TransportPlan(plan.flows, plan.total_cost + 1)
        with pytest.raises(GraphError, match="recomputes"):
            validate_plan(g, 0, 1, broken)

    def test_detects_nonpositive_mass(self):
        g, tp = self._problem()
        plan = wasserstein(tp).plan
        flows = plan.flows + ((0, 1, Fraction(0)),)
        with pytest.raises(GraphError, match="nonpositive"):
            validate_plan(g, 0, 1, TransportPlan(flows, plan.total_cost))

    def test_prices_a_length_three_move(self):
        # 7 - 0 - 1 - 2 is the shortest way around cycle:8
        g = cycle(8)
        q = Fraction(1, 4)
        flows = ((0, 0, q), (0, 1, q), (1, 1, q), (7, 2, q))
        assert validate_plan(g, 0, 1, TransportPlan(flows, Fraction(1))) == 1
        with pytest.raises(GraphError, match="recomputes to 1$"):
            validate_plan(g, 0, 1, TransportPlan(flows, Fraction(3, 4)))

    def test_refuses_a_non_edge(self):
        g = path_graph(8)
        plan = kappa_detail(g, 0, 1).plan
        with pytest.raises(GraphError, match=r"\(0, 7\) is not an edge"):
            validate_plan(g, 0, 7, plan)

    def test_failures_name_labels(self):
        g = petersen()
        plan = kappa_detail(g, 0, 1).plan
        outside = plan.flows + ((7, 7, Fraction(1, 100)),)
        with pytest.raises(GraphError, match=r"^plan routes mass outside "
                                             r"the supports: i2->i2$"):
            validate_plan(g, 0, 1, TransportPlan(outside, plan.total_cost))
        flows = list(plan.flows)
        s, t, m = flows[0]
        flows[0] = (s, t, m / 2)
        with pytest.raises(GraphError, match=r"^row marginal at o0: "):
            validate_plan(g, 0, 1, TransportPlan(tuple(flows), plan.total_cost))

    def test_detects_offsupport_route(self):
        g, tp = self._problem()
        plan = wasserstein(tp).plan
        flows = plan.flows + ((3, 3, Fraction(1, 100)),)
        with pytest.raises(GraphError):
            validate_plan(g, 0, 1, TransportPlan(flows, plan.total_cost))


class TestCertificates:
    def test_violations_found(self):
        g = path_graph(4)
        assert certificate_violations(g, {0: 0, 3: 5})
        assert certificate_violations(g, {0: 0, 3: 3}) == []

    def test_fraction_values_compare_exactly(self):
        # f(1) - f(0) exceeds distance 1 by 1/3; f(3) - f(0) meets distance 3
        g = path_graph(4)
        values = {0: Fraction(0), 1: Fraction(4, 3), 3: Fraction(3)}
        assert certificate_violations(g, values) == [
            "|f(0) - f(1)| = 4/3 > distance 1"]

    def test_violations_match_all_pairs_search(self):
        rng = random.Random(7)
        for g in (cycle(12), petersen(), hypercube(5), regular_tree(3, 5),
                  Graph(range(6), [(0, 1), (1, 2), (3, 4)])):
            for _ in range(20):
                points = rng.sample(g.vertices, min(8, len(g.vertices)))
                values = {p: Fraction(rng.randint(0, 12), rng.choice((1, 2)))
                          for p in points}
                assert certificate_violations(g, values) == \
                    all_pairs_violations(g, values)

    def test_raised_extension_names_its_pairs(self):
        # one value of a sound extension raised by 2 breaks the bound, and
        # only a failing certificate is walked in pairs to name it
        g = petersen()
        ext = extend_certificate(g, kappa_detail(g, 0, 1).certificate, 0, 1)
        ext[max(ext)] += 2
        bad = certificate_violations(g, ext)
        assert bad == all_pairs_violations(g, ext)
        assert bad

    def test_fraction_extension_names_its_pairs(self):
        g = cycle(7)
        ext = extend_certificate(g, kappa_detail(g, 0, 1).certificate, 0, 1)
        values = {p: Fraction(2 * f + 1, 2) for p, f in ext.items()}
        assert certificate_violations(g, values) == []
        values[3] -= Fraction(5, 2)
        bad = certificate_violations(g, values)
        assert bad == all_pairs_violations(g, values)
        assert bad

    def test_violations_name_labels(self):
        g = petersen()
        assert certificate_violations(g, {0: 0, 7: 5}) == [
            "|f(o0) - f(i2)| = 5 > distance 2"]

    def test_unknown_vertex_refused(self):
        # also where the unknown point holds the largest value, which the
        # search never expands
        g = path_graph(4)
        for values in ({0: 0, 9: 0}, {0: 0, 9: 5}, {9: Fraction(1, 2)}):
            with pytest.raises(GraphError, match="unknown vertex 9"):
                certificate_violations(g, values)

    def test_extension_covers_and_agrees(self):
        g = petersen()
        res = kappa_detail(g, 0, 1)
        ext = extend_certificate(g, res.certificate, 0, 1)
        for s, f in res.certificate.values.items():
            assert ext[s] == f
        assert certificate_violations(g, ext) == []
        assert set(ext) == two_balls(g, 0, 1)

    @pytest.mark.parametrize("spec", ["petersen", "cycle:7", "hypercube:4",
                                      "tree:3:5", "flip:6"])
    def test_extension_is_the_brute_force_cone(self, spec):
        g = parse_graph_spec(spec)
        edges = safe_edges(g)
        assert edges
        for x, y in edges:
            cert = kappa_detail(g, x, y).certificate
            dist = {s: bfs(g, s) for s in cert.values}
            assert extend_certificate(g, cert, x, y) == {
                p: min(f + dist[s][p] for s, f in cert.values.items())
                for p in two_balls(g, x, y)}

    def test_extension_refusal_names_labels(self):
        g = petersen()
        cert = kappa_detail(g, 0, 1).certificate
        with pytest.raises(GraphError, match=r"^certificate point o1 lies "
                                             r"outside the neighborhoods of "
                                             r"i0 and i2$"):
            extend_certificate(g, cert, 5, 7)

    def test_extension_refuses_a_non_edge(self):
        # the support lies in N[0] and N[7], but the radius-4 argument
        # needs an edge
        g = path_graph(8)
        cert = LipschitzCertificate({0: 0, 1: 1, 6: 1, 7: 0}, Fraction(0),
                                    Fraction(0))
        with pytest.raises(GraphError, match=r"\(0, 7\) is not an edge"):
            extend_certificate(g, cert, 0, 7)


KAPPA_CASES = [
    (hypercube(1), "0", "1", Fraction(1)),
    (hypercube(4), "0000", "1000", Fraction(1, 4)),
    (cycle(5), "1", "2", Fraction(1, 4)),
    (cycle(6), "1", "2", Fraction(0)),
    (cycle(8), "1", "2", Fraction(0)),
    (complete_bipartite(3), "l1", "r1", Fraction(1, 3)),
    (petersen(), "o0", "o1", Fraction(0)),
    (dodecahedron(), "o0", "o1", Fraction(0)),
    (regular_tree(3, 4), "r", "r.1", Fraction(-1, 3)),
    (regular_tree(5, 4), "r", "r.1", Fraction(-3, 5)),
    (star(5), "c", "l1", Fraction(1, 5)),
    (transposition_cayley(4), "1234", "2134", Fraction(1, 6)),
    (biplane_incidence(), "p0", "b1", Fraction(1, 4)),
]


class TestKappaValues:
    @pytest.mark.parametrize("g,a,b,expect", KAPPA_CASES,
                             ids=[c[0].name for c in KAPPA_CASES])
    def test_frozen_values(self, g, a, b, expect):
        x, y = g.resolve_vertex(a), g.resolve_vertex(b)
        assert ollivier_kappa(g, x, y) == expect

    def test_flip6_fan_edges(self):
        g = flip_graph(6)
        fan = g.resolve_vertex("02.03.04")
        kappas = sorted(ollivier_kappa(g, fan, w) for w in g.neighbors(fan))
        assert kappas == [Fraction(0), Fraction(1, 6), Fraction(1, 6)]

    def test_zigzag_probe_edge(self):
        g = zigzag(hypercube(6), cycle(6))
        x = g.resolve_vertex("(000000,1)")
        y = g.resolve_vertex("(010000,3)")
        assert ollivier_kappa(g, x, y) == Fraction(-1, 4)

    def test_symmetry(self):
        for g in (petersen(), cycle(5), flip_graph(6), star(4)):
            for x, y in g.edges[:6]:
                assert ollivier_kappa(g, x, y) == ollivier_kappa(g, y, x)

    def test_quantization(self):
        for g in (petersen(), flip_graph(6), regular_tree(3, 5),
                  transposition_cayley(3)):
            for x, y in safe_edges(g)[:8]:
                k = ollivier_kappa(g, x, y)
                denom = 2 * math.lcm(g.degree(x), g.degree(y))
                assert (k * denom).denominator == 1

    def test_kappa_safe_respects_truncation(self):
        g = lattice_ball(2, 4)
        inner = g.resolve_vertex("(0,0)"), g.resolve_vertex("(1,0)")
        outer = g.resolve_vertex("(2,0)"), g.resolve_vertex("(3,0)")
        assert g.transport_neighborhood_complete(*inner)
        assert ollivier_kappa(g, *inner) == 0
        assert not g.transport_neighborhood_complete(*outer)

    def test_non_edge_rejected(self):
        g = cycle(5)
        with pytest.raises(GraphError, match="not an edge"):
            ollivier_kappa(g, 0, 2)

    def test_edge_cut_by_truncation_refused(self):
        # the farthest vertex of the ball: its neighborhood in Z^2 is cut
        # off, and kappa there would read 1/4 where Z^2 has 0
        g = lattice_ball(2, 4)
        x, y = g.resolve_vertex("(4,0)"), g.resolve_vertex("(3,0)")
        for edge in ((x, y), (y, x)):
            for probe in (ollivier_kappa, kappa_detail, TransportProblem):
                with pytest.raises(GraphError, match="truncation boundary"):
                    probe(g, *edge)
            assert kappa_upper_witness(g, *edge) is None
        # both two-balls are whole, but radius 3 leaves no edge safe
        t = regular_tree(3, 3)
        r, c = t.resolve_vertex("r"), t.resolve_vertex("r.1")
        assert t.two_ball_complete(r) and t.two_ball_complete(c)
        assert kappa_upper_witness(t, r, c) is None


class TestWitnesses:
    def test_cycle_partner_plan_is_tight(self):
        g = cycle(5)
        plan = kappa_lower_witness(g, 0, 1)
        assert plan is not None
        assert plan.total_cost == Fraction(3, 4)
        assert validate_plan(g, 0, 1, plan) == plan.total_cost

    def test_hypercube_partner_plan_is_tight(self):
        g = hypercube(4)
        plan = kappa_lower_witness(g, 0, 1)
        assert plan is not None
        assert 1 - plan.total_cost == Fraction(1, 4)

    def test_biclique_plan_used_for_bipartite(self):
        g = complete_bipartite(3)
        x, y = g.resolve_vertex("l1"), g.resolve_vertex("r1")
        plan = kappa_lower_witness(g, x, y)
        assert plan is not None
        assert 1 - plan.total_cost == Fraction(1, 3)
        assert validate_plan(g, x, y, plan) == plan.total_cost

    def test_tree_has_no_lower_witness(self):
        g = regular_tree(3, 4)
        assert kappa_lower_witness(g, 0, g.resolve_vertex("r.1")) is None

    def test_lower_witness_soundness_sample(self):
        graphs = [hypercube(3), cycle(6), petersen(), flip_graph(6),
                  biplane_incidence(), hypercube(5),
                  zigzag(hypercube(6), cycle(6)), regular_tree(3, 5),
                  lattice_ball(2, 5)]
        graphs += [complete_bipartite(n) for n in range(2, 7)]
        plans = 0
        for g in graphs:
            for u, v in g.edges:
                for x, y in ((u, v), (v, u)):
                    plan = kappa_lower_witness(g, x, y)
                    if plan is None:
                        continue
                    plans += 1
                    assert validate_plan(g, x, y, plan) == plan.total_cost
                    assert 1 - plan.total_cost <= ollivier_kappa(g, x, y)
        assert plans > 1000

    def test_tree_upper_witness(self):
        g = regular_tree(3, 4)
        cert = kappa_upper_witness(g, 0, g.resolve_vertex("r.1"))
        assert cert is not None
        assert cert.dual_value == 1     # N = 2, d = 3
        assert cert.gap >= 0
        assert certificate_violations(g, cert.values) == []

    def test_zigzag_upper_witness(self):
        g = zigzag(hypercube(6), cycle(6))
        x = g.resolve_vertex("(000000,1)")
        y = g.resolve_vertex("(010000,3)")
        cert = kappa_upper_witness(g, x, y)
        assert cert is not None
        # kappa <= 1 - dual = (2 - N) / (2d) <= 0
        assert 1 - cert.dual_value <= 0
        assert 1 - (cert.dual_value + cert.gap) == ollivier_kappa(g, x, y)

    def test_no_upper_witness_when_fully_linked(self):
        g = hypercube(3)
        assert kappa_upper_witness(g, 0, 1) is None

    def test_one_problem_gives_equal_witnesses(self):
        # the edges of a graph that pose one canonical transport problem
        # get witnesses of equal value: the lower witness's cost and the
        # upper witness's dual value, or None for both
        specs = ["petersen", "dodecahedron", "flip:6", "tree:4:4",
                 "lattice:2:4", "lattice:3:4", "hypercube:5",
                 "zigzag:hypercube:6,cycle:6", "cycle:7", "star:5",
                 "complete-bipartite:4", "interchange:paths:2+1"]
        seen = {}
        edges = 0
        for spec in specs:
            g = parse_graph_spec(spec)
            for u, v in safe_edges(g):
                for x, y in ((u, v), (v, u)):
                    tp = TransportProblem(g, x, y)
                    lower = kappa_lower_witness(g, x, y)
                    upper = kappa_upper_witness(g, x, y)
                    values = (None if lower is None else lower.total_cost,
                              None if upper is None else upper.dual_value)
                    key = (spec, tp.supply, tp.demand, tp.cost)
                    assert seen.setdefault(key, (values, spec, x, y))[0] \
                        == values, (spec, x, y, seen[key])
                    edges += 1
        assert edges == 2056
        assert len(seen) == 16

    def test_upper_witness_soundness_sample(self):
        for g, a, b in ((petersen(), "o0", "o1"),
                        (dodecahedron(), "o0", "o1"),
                        (regular_tree(4, 4), "r", "r.2")):
            x, y = g.resolve_vertex(a), g.resolve_vertex(b)
            cert = kappa_upper_witness(g, x, y)
            assert cert is not None
            assert 1 - cert.dual_value >= ollivier_kappa(g, x, y)


class TestAgainstOracle:
    def test_random_instances(self):
        rng = random.Random(202)
        for trial in range(40):
            n = rng.randint(4, 9)
            edges = {(i - 1 if i == 1 else rng.randint(0, i - 1), i)
                     for i in range(1, n)}
            extra = rng.randint(0, n)
            for _ in range(extra):
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            g = Graph(range(n), edges)

            def random_measure():
                size = rng.randint(1, min(4, n))
                verts = rng.sample(range(n), size)
                return {v: rng.randint(1, 5) for v in verts}

            cost, supply, demand, total, _ = solve_integer_transport(
                g, random_measure(), random_measure())
            assert total == oracle_wasserstein(cost, supply, demand)


@st.composite
def connected_graph_and_edge(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    # spanning tree first, then optional extra edges
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((j, i))
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in edges]
    for e in pool:
        if draw(st.booleans()):
            edges.add(e)
    g = Graph(range(n), edges)
    e = draw(st.sampled_from(sorted(edges)))
    return g, e


@st.composite
def connected_graph_and_measures(draw, points=6, cells=20):
    g, _ = draw(connected_graph_and_edge())
    n = len(g.vertices)

    def measure(size):
        verts = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=min(size, n), unique=True))
        raw = draw(st.lists(st.integers(1, 4), min_size=len(verts),
                            max_size=len(verts)))
        return dict(zip(verts, raw))

    mu = measure(points)
    # the exhaustive oracle blows up beyond about 20 plan cells
    return g, mu, measure(min(points, cells // len(mu)))


class TestSolverReference:
    """The flow solver against its previous version, kept as a reference:
    Dijkstra's distances are unique, so the flows and potentials are too."""

    @settings(max_examples=80, deadline=None)
    @given(connected_graph_and_measures(points=8, cells=64))
    def test_general_problems_match(self, case):
        _, _, cost, supply, demand = pose_integer_transport(*case)
        assert ollivier._min_cost_flow(cost, supply, demand) \
            == reference_min_cost_flow(cost, supply, demand)

    def test_every_corpus_edge_problem_matches(self, corpus_items):
        problems = set()
        for item in corpus_items.values():
            g = item.graph
            for u, v in g.edges:
                if g.transport_neighborhood_complete(u, v):
                    for x, y in ((u, v), (v, u)):
                        tp = TransportProblem(g, x, y)
                        problems.add((tp.cost, tp.supply, tp.demand))
        assert len(problems) == 35
        for problem in problems:
            assert ollivier._min_cost_flow(*problem) \
                == reference_min_cost_flow(*problem)

    @pytest.mark.parametrize("cost, flow, pot, dist", [
        # source 0 reaches target 0 at reduced cost 0 + 0 - 1
        ([[0, 5]], [[0, 0]], [0, 1, 0], [0, None, None]),
        # target 0 reaches source 0 back along its flow at 0 - 1 - 5
        ([[1]], [[1]], [5, 0], [None, 0]),
    ])
    def test_negative_reduced_cost_is_refused(self, cost, flow, pot, dist):
        with pytest.raises(GraphError, match="negative reduced cost"):
            ollivier._residual_dijkstra(cost, flow, pot, dist)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(connected_graph_and_edge())
    def test_layout_breaks_ties_by_cost_lines(self, case):
        g, (u, v) = case
        for x, y in ((u, v), (v, u)):
            tp = TransportProblem(g, x, y)
            assert as_fractions(tp.mu, tp.scale) == lazy_masses(g, x)
            assert as_fractions(tp.nu, tp.scale) == lazy_masses(g, y)
            assert tp.cost == tuple(tuple(bfs(g, s)[t] for t in tp.targets)
                                    for s in tp.sources)
            columns = list(zip(*tp.cost))
            row_keys = [(a, sorted(c)) for a, c in zip(tp.supply, tp.cost)]
            col_keys = [(b, sorted(c)) for b, c in zip(tp.demand, columns)]
            assert row_keys == sorted(row_keys)
            assert col_keys == sorted(col_keys)
            # the first stage orders the columns by key, ties by vertex id;
            # tied rows follow their lines under it, tied columns their
            # lines under the rows as laid out, and equal lines vertex ids
            first = sorted(range(len(columns)),
                           key=lambda j: (col_keys[j], tp.targets[j]))
            rows = [([line[j] for j in first], s)
                    for line, s in zip(tp.cost, tp.sources)]
            cols = list(zip(columns, tp.targets))
            for keys, lines in ((row_keys, rows), (col_keys, cols)):
                for k in range(len(keys) - 1):
                    if keys[k] == keys[k + 1]:
                        assert lines[k] < lines[k + 1]

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_and_measures())
    def test_random_measures_match_oracle(self, case):
        g, mu, nu = case
        cost, supply, demand, total, values = solve_integer_transport(g, mu, nu)
        assert total == oracle_wasserstein(cost, supply, demand)
        assert certificate_violations(g, values) == []

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_and_edge())
    def test_kappa_detail_invariants(self, case):
        g, (x, y) = case
        res = kappa_detail(g, x, y)
        tp = TransportProblem(g, x, y)
        assert ollivier_kappa(g, x, y) == res.kappa == 1 - wasserstein(tp).wasserstein
        # bounds, symmetry, certificate tightness, and mass quantization
        assert Fraction(-2) <= res.kappa <= Fraction(1)
        assert res.kappa == kappa_detail(g, y, x).kappa
        assert res.certificate.gap == 0
        assert certificate_violations(g, res.certificate.values) == []
        denom = 2 * math.lcm(g.degree(x), g.degree(y))
        assert (res.kappa * denom).denominator == 1
        assert validate_plan(g, x, y, res.plan) == res.wasserstein
