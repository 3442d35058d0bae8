"""Curvature fact gathering and theorem cross-checks.

gather_facts sweeps a corpus graph: spectral curvature and class at every
non-isolated vertex whose two-ball is complete, exact edge curvature
wherever the transport neighborhood is complete.  Both curvatures depend
on the two-ball alone, so the sweep sorts the vertices into classes of
isomorphic two-balls, in two tiers.  The first key renumbers the ball by
position and is built at every vertex; only a key not seen before is
relabelled by individualise and refine, and the relabelled ball is the
second key.  The Gamma2 form, its reduction and the class verdict are
computed once per relabelled class; each positional class then reads its
rho off the reduced matrix permuted into its own order, the same array
it would have built itself, once per distinct order, and its non-link
counts and test vectors likewise.  The edge problem across (x, y) lives
inside the two-ball of x, and x is a swept vertex wherever the edge is
transport-safe, so the edge takes the kappa of the first edge from a
vertex of the same relabelled class to a neighbor of the same label.
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

from .bakry_emery import (
    RHO_TOLERANCE,
    QuadraticForm,
    eliminate_second_neighbors,
    gamma2_form,
    lowest_eigenvalue,
)
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


class _TwoBall:
    """One refined class of two-balls, solved once at its first vertex.

    Holds the exact work that equal relabelled two-balls share: the
    doubled Gamma2 form, its reduction to sphere1, the class verdict and
    its link profile.  `values` reads the vertex facts of any ball of the
    class off them, given where that ball's sphere1 order sends each label.
    """

    def __init__(self, g: Graph, ball: LocalBall, labels: tuple[int, ...]):
        self.ball = ball
        self.form = gamma2_form(ball)
        self.reduced = eliminate_second_neighbors(self.form, ball)
        self.verdict = verdict = classify_vertex(g, ball)
        self.min_linkage = None
        if verdict.profile is not None and verdict.profile.linkage:
            self.min_linkage = min(verdict.profile.linkage.values())
        # label of a sphere1 vertex -> its position in this ball's sphere1
        self.slot = {lab: i for i, lab in enumerate(labels)}
        # sphere1 labels -> the vertex facts of values
        self.by_labels: dict[tuple[int, ...], tuple] = {}
        # chosen pair or neighbor -> exact value of its test vector
        self.vector_values: dict = {}

    def values(self, labels: tuple[int, ...]) -> tuple:
        """rho, class, N, non-link counts in sphere1 order, minimum linkage
        and the flat and negative test-vector values at a ball of this
        class whose sphere1 vertices carry `labels`, in its own order.

        rho is the eigensolve of the reduced matrix permuted into that
        order, the very array the ball itself would build, so it keeps its
        bits; equal labels permute it alike, so each is solved once.  The
        test vectors are the ones that order picks, moved here and
        evaluated exactly once per class and choice; the linkage facts
        stand wherever g is triangle-free.
        """
        known = self.by_labels.get(labels)
        if known is not None:
            return known
        slots = [self.slot[lab] for lab in labels]
        red = self.reduced.matrix
        order = tuple(self.ball.sphere1[i] for i in slots)
        rho = lowest_eigenvalue(QuadraticForm(
            order, [[red[i][j] for j in slots] for i in slots],
            self.reduced.scale))
        cls, profile = self.verdict.structure_class, self.verdict.profile
        counts = flat_val = neg_val = None
        if profile is not None:
            counts = tuple(profile.nonlink_counts[y] for y in order)
            if cls is StructureClass.ONE_UNLINKED:
                flat_val = self._vector_value(
                    flat_test_vector, profile.first_unlinked_pair(order))
            elif cls is StructureClass.MULTI_UNLINKED:
                neg_val = self._vector_value(
                    negative_test_vector, profile.first_deficient(order))
        known = self.by_labels[labels] = (
            rho, cls, self.verdict.N, counts, self.min_linkage, flat_val,
            neg_val)
        return known

    def _vector_value(self, build, choice) -> Fraction:
        """Value of the test vector that `build` makes at `choice`, once
        per choice: a class has one kind of vector."""
        if choice not in self.vector_values:
            self.vector_values[choice] = self.form.value(build(self.ball, choice))
        return self.vector_values[choice]


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
    adj = g.neighbor_sets()
    s2 = set(ball.sphere2)
    outer = []
    for i, u in enumerate(ball.sphere2, len(rows) + 1):
        near = adj[u] & s2
        if near:
            outer += [k for j in sorted(map(pos.__getitem__, near)) if j > i
                      for k in (i, j)]
    return (effective_degree(g, ball.base), len(rows),
            *map(len, rows), *(pos[w] for row in rows for w in row), *outer)


def _refine(nbrs: list[list[int]], lab: list[int], where: list[int],
            cell: list[int], size: dict[int, int], active: set[int]) -> None:
    """Refine an ordered partition until it is equitable, in place.

    lab lists the vertices cell after cell and where[v] is the index of v
    in lab; a cell is named by its first index, cell[v] names the cell of
    v and size the length of each cell.  The first active cell splits
    every cell by how many neighbors its members have in it: the members
    it misses keep the front of the cell and its name, and the others
    move behind them in groups of rising count.  Each new group becomes
    active, and so does every part but the first largest when the split
    cell was not active itself.  Only counts and cell positions steer the
    refinement, never a vertex id.
    """
    n = len(lab)
    while active and len(size) < n:
        s = min(active)
        active.remove(s)
        if size[s] == 1:
            hits = dict.fromkeys(nbrs[lab[s]], 1)
        else:
            hits = {}
            for u in lab[s:s + size[s]]:
                for w in nbrs[u]:
                    hits[w] = hits.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in hits:
            c = cell[w]
            if size[c] > 1:
                touched.setdefault(c, []).append(w)
        for c in sorted(touched):
            k = size[c]
            hit = sorted(touched[c], key=hits.__getitem__)
            if len(hit) == k and hits[hit[0]] == hits[hit[-1]]:
                continue
            # the hit members go to the back of the cell, in count order
            at = c + k - len(hit)
            bounds = [c] if at > c else []
            last = None
            for i, w in enumerate(hit, at):
                j, u = where[w], lab[i]
                lab[i], lab[j] = w, u
                where[w], where[u] = i, j
                if hits[w] != last:
                    bounds.append(i)
                    last = hits[w]
            bounds.append(c + k)
            skip = None if c in active else max(
                b - a for a, b in zip(bounds, bounds[1:]))
            for a, b in zip(bounds, bounds[1:]):
                size[a] = b - a
                if a != c:
                    for v in lab[a:b]:
                        cell[v] = a
                if b - a == skip:
                    skip = None
                else:
                    active.add(a)


def _relabel(key: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positional two-ball `key` relabelled by individualise and refine.

    Colour refinement (_refine) starts from the cells base, sphere1 and
    sphere2; while a cell holds more than one vertex, the vertex at the
    front of the first such cell is split off to its back and refinement
    runs again.  The order of the discrete partition is the labelling, so
    base keeps label 0 and sphere1 takes labels 1..d.  Which vertex is
    split off is the one choice that follows positions, so isomorphic
    balls may still get different labellings, but never the other way
    round: the returned key is the effective degree and the whole
    relabelled adjacency, sphere2 to sphere2 edges included, so equal
    keys are the same rooted ball.  Returns that key and the labels of
    positions 1..d.
    """
    d = key[1]
    lens = key[2:2 + d]
    flat = key[2 + d:2 + d + sum(lens)]
    outer = key[2 + d + sum(lens):]
    edges = [(0, i) for i in range(1, d + 1)]
    at = 0
    for i, k in enumerate(lens, 1):
        edges += [(i, w) for w in flat[at:at + k] if w > i]
        at += k
    edges += zip(outer[::2], outer[1::2])
    n = 1 + max(w for _, w in edges)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    lab = list(range(n))
    where = list(range(n))
    cell = [0] + [1] * d + [d + 1] * (n - d - 1)
    size = {c: cell.count(c) for c in {0, 1, d + 1} if c < n}
    _refine(nbrs, lab, where, cell, size, set(size))
    while len(size) < n:
        c = min(c for c, k in size.items() if k > 1)
        k = size[c]
        v, u = lab[c], lab[c + k - 1]
        lab[c], lab[c + k - 1] = u, v
        where[u], where[v] = c, c + k - 1
        size[c] = k - 1
        size[c + k - 1] = 1
        cell[v] = c + k - 1
        _refine(nbrs, lab, where, cell, size, {c + k - 1})
    codes = sorted(min(a, b) * n + max(a, b)
                   for a, b in ((where[u], where[w]) for u, w in edges))
    return (key[0], n, *codes), tuple(where[1:d + 1])


def gather_facts(item: CorpusItem) -> GraphFacts:
    """Sweep one corpus graph."""
    g = item.graph
    vfacts = []
    # two tiers: the positional key of a two-ball finds its refined class
    # and sphere1 labels, and only a new positional key is relabelled
    memo: dict[tuple[int, ...], tuple[_TwoBall, tuple[int, ...]]] = {}
    kinds: dict[tuple[int, ...], _TwoBall] = {}
    ball_class: dict[int, tuple[_TwoBall, tuple[int, ...]]] = {}
    for x in g.vertices:
        if not g.two_ball_complete(x) or g.degree(x) == 0:
            vfacts.append(VertexFact(x, g.label(x), g.degree(x), False,
                                     None, None, None, None, None, None, None))
            continue
        ball = extract_ball(g, x)
        key = _ball_key(g, ball)
        known = memo.get(key)
        if known is None:
            rkey, labels = _relabel(key)
            kind = kinds.get(rkey)
            if kind is None:
                kind = kinds[rkey] = _TwoBall(g, ball, labels)
            known = memo[key] = (kind, labels)
        kind, labels = ball_class[x] = known
        rho, cls, n, counts, min_linkage, flat_val, neg_val = kind.values(labels)
        if counts is not None:
            counts = dict(zip(ball.sphere1, counts))
        vfacts.append(VertexFact(
            x, g.label(x), g.degree(x), True, rho, cls, n, counts,
            min_linkage, flat_val, neg_val,
        ))
    efacts = []
    # (refined class of x, label of y in the two-ball of x) -> kappa(x, y);
    # adjacent vertices differ by at most one in their distance from the
    # truncation center, so both ends of a transport-safe edge are classed
    kappas: dict[tuple[_TwoBall, int], Fraction] = {}
    for x, y in g.edges:
        if not g.transport_neighborhood_complete(x, y):
            efacts.append(EdgeFact(x, y, False, None))
            continue
        kind, labels = ball_class[x]
        key = (kind, labels[bisect_left(g.neighbors(x), y)])
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
        dmax = max(g.degree(ef.x), g.degree(ef.y))
        if ef.kappa.numerator * dmax > ef.kappa.denominator:
            problems.append(
                f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                f"kappa = {ef.kappa} > {Fraction(1, dmax)}"
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
        if grain % ef.kappa.denominator:
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
