"""Curvature fact gathering and theorem cross-checks.

gather_facts sweeps a corpus graph: spectral curvature and class at every
non-isolated vertex whose two-ball is complete, exact edge curvature
wherever the transport neighborhood is complete.  Both curvatures depend
on the two-ball alone, so one sweep sorts the vertices into classes of
equal two-balls (renumbered by position) and computes the vertex facts
once per class.  The edge problem across (x, y) lives inside the two-ball
of x, so where x is a swept vertex the edge takes the kappa of the first
edge at the same neighbor position from a vertex of the same class.
Repeated edges in a sweep are therefore no longer posed, solved or
certified one by one; ollivier_kappa still certifies every answer it
computes.  run_checks then replays every applicable classification,
linkage, decomposition, duality and diameter statement against those
facts and reports violations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .bakry_emery import RHO_TOLERANCE, cd_curvature, gamma2_form
from .classify import (
    StructureClass,
    bipartite_decomposition,
    cd_ollivier_consistency,
    classify_vertex,
    flat_test_vector,
    negative_test_vector,
)
from .corpus import CorpusItem
from .graphs import (
    Graph,
    GraphError,
    LocalBall,
    contains_k23,
    contains_k3,
    diameter,
    effective_degree,
    extract_ball,
    is_regular,
)
from .ollivier import (
    certificate_violations,
    extend_certificate,
    kappa_detail,
    kappa_lower_witness,
    kappa_upper_witness,
    ollivier_kappa,
    validate_plan,
)


@dataclass(frozen=True)
class VertexFact:
    vertex: int
    label: str
    degree: int
    safe: bool
    rho: float | None
    structure_class: StructureClass | None
    N: int | None
    nonlink_counts: dict[int, int] | None
    min_linkage: Fraction | None        # None when fewer than two neighbors
    flat_vector_value: Fraction | None
    negative_vector_value: Fraction | None


@dataclass(frozen=True)
class EdgeFact:
    x: int
    y: int
    safe: bool
    kappa: Fraction | None


@dataclass(frozen=True)
class GraphFacts:
    key: str
    graph: Graph
    regular: int | None
    triangle_free: bool
    biclique_free: bool
    truncated: bool
    vertices: tuple[VertexFact, ...]
    edges: tuple[EdgeFact, ...]
    deep_edges: tuple[tuple[int, int], ...]


def _vertex_values(g: Graph, ball: LocalBall) -> tuple:
    """rho, class, N, non-link counts in sphere1 order, minimum linkage and
    the flat and negative test-vector values at a complete, non-isolated
    vertex; the linkage facts stand wherever g is triangle-free."""
    form = gamma2_form(ball)
    rho = cd_curvature(ball, form).rho
    verdict = classify_vertex(g, ball)
    profile = verdict.profile
    min_linkage = None
    counts = None
    flat_val = None
    neg_val = None
    if profile is not None:
        counts = tuple(profile.nonlink_counts[y] for y in ball.sphere1)
        if profile.linkage:
            min_linkage = min(profile.linkage.values())
        cls = verdict.structure_class
        if cls is StructureClass.ONE_UNLINKED:
            vec = flat_test_vector(ball, profile)
            if vec is not None:
                flat_val = form.value(vec)
        elif cls is StructureClass.MULTI_UNLINKED:
            vec = negative_test_vector(ball, profile)
            if vec is not None:
                neg_val = form.value(vec)
    return (rho, verdict.structure_class, verdict.N, counts, min_linkage,
            flat_val, neg_val)


def _ball_key(g: Graph, ball: LocalBall) -> tuple[int, ...]:
    """The two-ball at ball.base with its vertices renumbered by position.

    base becomes 0, sphere1 1..d and sphere2 the positions after that, each
    sphere in its sorted order, so every ordering the kernels use survives
    the renumbering.  The sphere1 rows name every sphere2 neighbor, so they
    fix the sphere2 rows too; the degrees delimit the flattened rows.  The
    effective degree leads the key because classify_vertex reads it from
    the whole graph, not from the ball.

    The key ends with the edges between two sphere2 vertices, as position
    pairs, read from the graph because LocalBall drops them.  No vertex
    fact reads them, but the edge problem across (base, y) does: a
    neighbor s of the base and a neighbor t of y are at distance 2 when
    they share a neighbor, which may lie in sphere2.  Equal keys therefore
    pose the same edge problem, up to relabelling, at every neighbor
    position.
    """
    pos = {ball.base: 0}
    for v in ball.sphere1 + ball.sphere2:
        pos[v] = len(pos)
    rows = [ball.adj[v] for v in ball.sphere1]
    # neighbor rows are sorted, so each pair list comes out in position order
    outer = [k for i, u in enumerate(ball.sphere2, len(rows) + 1)
             for w in g.neighbors(u) if (j := pos.get(w, 0)) > i
             for k in (i, j)]
    return (effective_degree(g, ball.base), len(rows),
            *map(len, rows), *(pos[w] for row in rows for w in row), *outer)


def gather_facts(item: CorpusItem) -> GraphFacts:
    """Sweep one corpus graph."""
    g = item.graph
    vfacts = []
    # vertices whose renumbered two-balls agree share one class index and
    # every vertex fact
    memo: dict[tuple[int, ...], tuple[int, tuple]] = {}
    ball_class: dict[int, int] = {}
    for x in g.vertices:
        if not g.two_ball_complete(x) or g.degree(x) == 0:
            vfacts.append(VertexFact(x, g.label(x), g.degree(x), False,
                                     None, None, None, None, None, None, None))
            continue
        ball = extract_ball(g, x)
        key = _ball_key(g, ball)
        known = memo.get(key)
        if known is None:
            known = memo[key] = (len(memo), _vertex_values(g, ball))
        ball_class[x], values = known
        rho, cls, n, counts, min_linkage, flat_val, neg_val = values
        if counts is not None:
            counts = dict(zip(ball.sphere1, counts))
        vfacts.append(VertexFact(
            x, g.label(x), g.degree(x), True, rho, cls, n, counts,
            min_linkage, flat_val, neg_val,
        ))
    efacts = []
    # (class of x, position of y among the neighbors of x) -> kappa(x, y)
    kappas: dict[tuple[int, int], Fraction] = {}
    for x, y in g.edges:
        if not g.transport_neighborhood_complete(x, y):
            efacts.append(EdgeFact(x, y, False, None))
            continue
        c = ball_class.get(x)
        if c is None:
            kappa = ollivier_kappa(g, x, y)
        else:
            key = (c, bisect_left(g.neighbors(x), y))
            kappa = kappas.get(key)
            if kappa is None:
                kappa = kappas[key] = ollivier_kappa(g, x, y)
        efacts.append(EdgeFact(x, y, True, kappa))
    return GraphFacts(
        item.key, g, is_regular(g), not contains_k3(g), not contains_k23(g),
        g.truncation is not None, tuple(vfacts), tuple(efacts),
        item.deep_edges,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    details: tuple[str, ...]


def _result(name: str, applicable: bool, problems: list[str],
            note: str = "") -> CheckResult:
    if not applicable:
        return CheckResult(name, False, True, (note,) if note else ())
    return CheckResult(name, True, not problems, tuple(problems))


def _kappa_map(facts: GraphFacts) -> dict[tuple[int, int], Fraction]:
    out = {}
    for ef in facts.edges:
        if ef.kappa is not None:
            out[(ef.x, ef.y)] = ef.kappa
            out[(ef.y, ef.x)] = ef.kappa
    return out


def check_cd_class(facts: GraphFacts) -> CheckResult:
    """Class verdict versus the spectral curvature value."""
    tol = RHO_TOLERANCE
    problems = []
    seen = False
    for vf in facts.vertices:
        cls = vf.structure_class
        if cls is None or cls is StructureClass.INAPPLICABLE:
            continue
        seen = True
        tag = f"{facts.key} vertex {vf.label}"
        if cls is StructureClass.FULLY_LINKED and abs(vf.rho - 2) > tol:
            problems.append(f"{tag}: fully linked but rho = {vf.rho!r}")
        elif cls is StructureClass.ONE_UNLINKED and abs(vf.rho) > tol:
            problems.append(f"{tag}: one unlinked but rho = {vf.rho!r}")
        elif cls is StructureClass.MULTI_UNLINKED:
            bound = -2 / (vf.degree - 1)
            if vf.rho >= -tol or vf.rho > bound + tol:
                problems.append(
                    f"{tag}: multi unlinked but rho = {vf.rho!r} "
                    f"(needs < 0 and <= {bound})"
                )
    return _result("cd-class", seen, problems, "no classified vertices")


def check_ollivier_class(facts: GraphFacts) -> CheckResult:
    """Per-neighbor edge curvature signs forced by the non-link counts."""
    kmap = _kappa_map(facts)
    problems = []
    seen = False
    for vf in facts.vertices:
        cls = vf.structure_class
        if cls is None or cls is StructureClass.INAPPLICABLE:
            continue
        for y, miss in sorted(vf.nonlink_counts.items()):
            k = kmap.get((vf.vertex, y))
            if k is None:
                continue
            seen = True
            tag = f"{facts.key} edge ({vf.label}, {facts.graph.label(y)})"
            if miss == 0 and k != Fraction(1, vf.degree):
                problems.append(f"{tag}: all partners linked but kappa = {k} "
                                f"!= 1/{vf.degree}")
            elif miss == 1 and k < 0:
                problems.append(f"{tag}: one missing partner but kappa = {k} < 0")
            elif miss >= 2 and k > 0:
                problems.append(f"{tag}: {miss} missing partners but "
                                f"kappa = {k} > 0")
    return _result("ollivier-class", seen, problems, "no classified edges")


def check_cd_vs_ollivier(facts: GraphFacts) -> CheckResult:
    """Sign relations between the two curvatures at each vertex."""
    applicable = (facts.regular is not None and facts.triangle_free
                  and facts.biclique_free and not facts.truncated)
    if not applicable:
        return _result("cd-vs-ollivier", False, [],
                       "needs a regular graph free of triangles and 2x3 bicliques")
    kmap = _kappa_map(facts)
    problems = []
    seen = False
    for vf in facts.vertices:
        if not vf.safe:
            continue
        seen = True
        kappas = {y: kmap[(vf.vertex, y)]
                  for y in facts.graph.neighbors(vf.vertex)}
        ok, viol = cd_ollivier_consistency(vf.rho, kappas)
        if not ok:
            problems.extend(f"{facts.key} vertex {vf.label}: {v}" for v in viol)
    return _result("cd-vs-ollivier", seen, problems, "no safe vertices")


def check_linkage_positive_cd(facts: GraphFacts) -> CheckResult:
    """Triangle-free ceiling rho <= 2, attained at locally regular
    vertices when every neighbor pair carries linkage weight >= 1/2."""
    if not facts.triangle_free:
        return _result("linkage-positive-cd", False, [], "graph has triangles")
    tol = RHO_TOLERANCE
    problems = []
    seen = False
    for vf in facts.vertices:
        if not vf.safe:
            continue
        seen = True
        tag = f"{facts.key} vertex {vf.label}"
        if vf.rho > 2 + tol:
            problems.append(f"{tag}: triangle-free but rho = {vf.rho!r} > 2")
        # the linkage equality needs the degree shared with all neighbors
        if effective_degree(facts.graph, vf.vertex) is None:
            continue
        heavy = vf.min_linkage is None or vf.min_linkage >= Fraction(1, 2)
        if heavy and abs(vf.rho - 2) > tol:
            problems.append(
                f"{tag}: every pair linkage >= 1/2 but rho = {vf.rho!r} != 2"
            )
    return _result("linkage-positive-cd", seen, problems, "no safe vertices")


def check_bipartite_transport(facts: GraphFacts) -> CheckResult:
    """Where the equal-part biclique decomposition exists, kappa = 1/d."""
    if not facts.triangle_free:
        return _result("bipartite-transport", False, [], "graph has triangles")
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edges:
        if ef.kappa is None:
            continue
        classes = bipartite_decomposition(g, ef.x, ef.y)
        if classes is None:
            continue
        seen = True
        d = g.degree(ef.x)
        if ef.kappa != Fraction(1, d):
            problems.append(
                f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                f"decomposition exists but kappa = {ef.kappa} != 1/{d}"
            )
    return _result("bipartite-transport", seen, problems,
                   "no edge admits the decomposition")


def check_transport_upper_bound(facts: GraphFacts) -> CheckResult:
    """Triangle-free graphs never exceed kappa = 1/degree on an edge."""
    if not facts.triangle_free:
        return _result("transport-upper-bound", False, [], "graph has triangles")
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edges:
        if ef.kappa is None:
            continue
        seen = True
        cap = Fraction(1, max(g.degree(ef.x), g.degree(ef.y)))
        if ef.kappa > cap:
            problems.append(
                f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                f"kappa = {ef.kappa} > {cap}"
            )
    return _result("transport-upper-bound", seen, problems, "no safe edges")


def check_test_vectors(facts: GraphFacts) -> CheckResult:
    """Exact evaluations of the two class-certifying vectors."""
    problems = []
    seen = False
    for vf in facts.vertices:
        tag = f"{facts.key} vertex {vf.label}"
        if vf.structure_class is StructureClass.ONE_UNLINKED:
            seen = True
            if vf.flat_vector_value != 0:
                problems.append(
                    f"{tag}: flat vector evaluates to {vf.flat_vector_value}, not 0"
                )
        elif vf.structure_class is StructureClass.MULTI_UNLINKED:
            seen = True
            if (vf.negative_vector_value is None
                    or vf.negative_vector_value > -2 * vf.degree):
                problems.append(
                    f"{tag}: negative vector evaluates to "
                    f"{vf.negative_vector_value}, needs <= {-2 * vf.degree}"
                )
    return _result("test-vector-certificates", seen, problems,
                   "no flat or negative class vertices")


def check_witness_bounds(facts: GraphFacts) -> CheckResult:
    """Constructed plans and potentials must bracket the exact kappa."""
    g = facts.graph
    kmap = _kappa_map(facts)
    problems = []
    seen = False
    for x, y in facts.deep_edges:
        k = kmap.get((x, y))
        if k is None:
            continue
        tag = f"{facts.key} edge ({g.label(x)}, {g.label(y)})"
        plan = kappa_lower_witness(g, x, y)
        if plan is not None:
            seen = True
            try:
                validate_plan(g, x, y, plan)
            except GraphError as e:
                problems.append(f"{tag}: witness plan invalid: {e}")
            if k < 1 - plan.total_cost:
                problems.append(
                    f"{tag}: witness cost {plan.total_cost} places kappa >= "
                    f"{1 - plan.total_cost} but kappa = {k}"
                )
        cert = kappa_upper_witness(g, x, y)
        if cert is not None:
            seen = True
            bad = certificate_violations(g, cert.values)
            if bad:
                problems.append(f"{tag}: witness potential: {bad[0]}")
            if cert.gap < 0:
                problems.append(f"{tag}: witness dual exceeds the distance "
                                f"(gap {cert.gap})")
            if k > 1 - cert.dual_value:
                problems.append(
                    f"{tag}: witness dual {cert.dual_value} places kappa <= "
                    f"{1 - cert.dual_value} but kappa = {k}"
                )
    return _result("witness-bounds", seen, problems,
                   "no witness applies on probe edges")


def check_duality(facts: GraphFacts) -> CheckResult:
    """Plan cost and potential value must meet exactly on probe edges."""
    g = facts.graph
    problems = []
    seen = False
    for x, y in facts.deep_edges:
        if not g.transport_neighborhood_complete(x, y):
            continue
        seen = True
        tag = f"{facts.key} edge ({g.label(x)}, {g.label(y)})"
        detail = kappa_detail(g, x, y)
        dist, plan, cert = detail.wasserstein, detail.plan, detail.certificate
        try:
            cost = validate_plan(g, x, y, plan)
            if cost != dist:
                problems.append(f"{tag}: plan cost {cost} != distance {dist}")
        except GraphError as e:
            problems.append(f"{tag}: optimal plan invalid: {e}")
        if cert.gap != 0:
            problems.append(f"{tag}: duality gap {cert.gap}")
        bad = certificate_violations(g, cert.values)
        if bad:
            problems.append(f"{tag}: certificate not 1-Lipschitz: {bad[0]}")
        try:
            ext = extend_certificate(g, cert, x, y)
            bad = certificate_violations(g, ext)
            if bad:
                problems.append(f"{tag}: extended certificate: {bad[0]}")
        except GraphError as e:
            problems.append(f"{tag}: extension failed: {e}")
    return _result("duality", seen, problems, "no transport-safe probe edges")


def check_quantization(facts: GraphFacts) -> CheckResult:
    """kappa times twice the degree lcm is an integer on every edge."""
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edges:
        if ef.kappa is None:
            continue
        seen = True
        grain = 2 * math.lcm(g.degree(ef.x), g.degree(ef.y))
        if (ef.kappa * grain).denominator != 1:
            problems.append(
                f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                f"kappa = {ef.kappa} not a multiple of 1/{grain}"
            )
    return _result("quantization", seen, problems, "no safe edges")


def diameter_bounds(g: Graph, dia: int, kstar: Fraction, regular: int | None):
    """The diameter bounds that a positive minimum edge curvature kappa*
    gives, as (name, statement, holds): diameter <= 1/kappa*, and also
    diameter <= 2d when g is d-regular or diameter <= 2d^2-2d when it is
    irregular with max degree d >= 2.  None apply when kappa* <= 0.
    """
    if kstar <= 0:
        return []
    caps = [("diameter <= 1/kappa*", 1 / kstar)]
    if regular is not None:
        caps.append(("regular: diameter <= 2d", 2 * regular))
    else:
        dmax = max(g.degree(v) for v in g.vertices)
        # vacuous at max degree 1 (a single edge)
        if dmax >= 2:
            caps.append(("irregular: diameter <= 2d^2-2d", 2 * dmax * dmax - 2 * dmax))
    return [(name, f"{dia} <= {cap}", dia <= cap) for name, cap in caps]


def check_diameter_bounds(facts: GraphFacts) -> CheckResult:
    """Positive curvature everywhere caps the diameter."""
    if facts.truncated:
        return _result("diameter-bounds", False, [],
                       "truncated graph stands in for an infinite one")
    kappas = [ef.kappa for ef in facts.edges]
    if not kappas or any(k is None for k in kappas):
        return _result("diameter-bounds", False, [], "edge curvatures incomplete")
    kstar = min(kappas)
    if kstar <= 0:
        return _result("diameter-bounds", False, [],
                       f"minimum edge curvature {kstar} <= 0; bound vacuous")
    dia = diameter(facts.graph)
    # positive curvature on every edge does not make a graph connected
    if dia is None:
        return _result("diameter-bounds", False, [], "graph is disconnected")
    problems = [f"{facts.key}: {name} violated: {stmt}"
                for name, stmt, holds in diameter_bounds(
                    facts.graph, dia, kstar, facts.regular) if not holds]
    return _result("diameter-bounds", True, problems)


ALL_CHECKS = (
    check_cd_class,
    check_ollivier_class,
    check_cd_vs_ollivier,
    check_linkage_positive_cd,
    check_bipartite_transport,
    check_transport_upper_bound,
    check_test_vectors,
    check_witness_bounds,
    check_duality,
    check_quantization,
    check_diameter_bounds,
)


def run_checks(facts: GraphFacts) -> list[CheckResult]:
    return [chk(facts) for chk in ALL_CHECKS]
