"""Combinatorial structure around a vertex and the class predictions.

For regular graphs free of triangles and of 2x3 bicliques, the pattern of
linked neighbor pairs at a vertex decides the sign of both curvatures.
This module computes that pattern (LinkProfile), the resulting verdict
(ClassVerdict), the biclique edge decomposition used by the transport
shortcut, the host-graph rules for the interchange process, and the two
explicit test vectors that certify the flat and negative classes.  The
decomposition across an edge (x, y) groups the neighbors of x by the
neighbors of y each one sees: with x added, that set is one side of the
maximal biclique through the neighbor and y, so grouping stands in for
Galois closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bakry_emery import RHO_TOLERANCE, second_neighbor_minimizer
from .graphs import (
    Graph,
    GraphError,
    LocalBall,
    contains_k23,
    contains_k3,
    effective_degree,
)


class StructureClass(Enum):
    FULLY_LINKED = "fully-linked"      # every neighbor pair linked
    ONE_UNLINKED = "one-unlinked"      # worst neighbor misses one partner
    MULTI_UNLINKED = "multi-unlinked"  # some neighbor misses two or more
    INAPPLICABLE = "inapplicable"

    def __str__(self) -> str:
        return self.value


# sign prediction of the CD curvature per class
CD_PREDICTION = {
    StructureClass.FULLY_LINKED: "positive",
    StructureClass.ONE_UNLINKED: "flat",
    StructureClass.MULTI_UNLINKED: "negative",
}


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LinkProfile:
    """Linkage structure among the neighbors of a ball's base.

    links maps each unordered neighbor pair to the tuple of vertices
    joining them (empty = unlinked); linkage weights each joining vertex
    by one over its number of neighbors in sphere1.  nonlink_counts[y] is
    the number of other neighbors not linked to y, and N is its maximum.
    """

    links: dict[tuple[int, int], tuple[int, ...]]
    linkage: dict[tuple[int, int], Fraction]
    nonlink_counts: dict[int, int]
    N: int

    def unlinked_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p, zs in sorted(self.links.items()) if not zs)

    def first_unlinked_pair(self, order) -> tuple[int, int] | None:
        """The unlinked pair met first in `order`, a listing of sphere1,
        as links names it; None if every pair is linked."""
        rank = {v: i for i, v in enumerate(order)}
        return min(self.unlinked_pairs(), default=None,
                   key=lambda p: sorted(map(rank.__getitem__, p)))

    def first_deficient(self, order) -> int | None:
        """The first neighbor in `order`, a listing of sphere1, that
        misses two or more partners; None if there is none."""
        counts = self.nonlink_counts
        return next((y for y in order if counts[y] >= 2), None)


def link_profile(ball: LocalBall) -> LinkProfile:
    if not ball.complete:
        raise GraphError(
            f"two-ball at {ball.base} is cut by a truncation boundary; "
            "link structure would be unreliable"
        )
    s1 = ball.sphere1
    s1_set = set(s1)
    # sphere1 neighbors of each possible joining vertex, counted once: a
    # sphere2 row holds nothing else, a sphere1 row (a triangle) may
    in_s1 = {z: len(ball.adj[z]) for z in ball.sphere2}
    for z in s1:
        in_s1[z] = sum(1 for t in ball.adj[z] if t in s1_set)
    # every weight as a whole number of 1/den, summed per pair in ints
    den = math.lcm(*{c for c in in_s1.values() if c})
    unit = {z: den // c for z, c in in_s1.items() if c}
    links: dict[tuple[int, int], tuple[int, ...]] = {}
    linkage: dict[tuple[int, int], Fraction] = {}
    for a, v in enumerate(s1):
        nv = set(ball.adj[v])
        for w in s1[a + 1:]:
            zs = tuple(
                z for z in ball.adj[w]
                if z != ball.base and z in nv
            )
            links[(v, w)] = zs
            linkage[(v, w)] = Fraction(sum(map(unit.__getitem__, zs)), den)
    nonlink = {
        y: sum(1 for w in s1 if w != y and not links[_pair(y, w)])
        for y in s1
    }
    n = max(nonlink.values(), default=0)
    return LinkProfile(links, linkage, nonlink, n)


@dataclass(frozen=True)
class ClassVerdict:
    structure_class: StructureClass
    N: int | None
    cd_prediction: str | None
    reason: str
    profile: LinkProfile | None


def classify_vertex(g: Graph, ball: LocalBall) -> ClassVerdict:
    """Class verdict at ball.base; inapplicability is a verdict, never an
    error.  The verdict carries the link profile wherever g is
    triangle-free and the ball complete, whatever else fails."""
    k3 = contains_k3(g)
    profile = link_profile(ball) if ball.complete and not k3 else None

    def inapplicable(reason: str) -> ClassVerdict:
        return ClassVerdict(StructureClass.INAPPLICABLE, None, None, reason,
                            profile)

    if k3:
        return inapplicable("graph contains a triangle")
    if contains_k23(g):
        return inapplicable("graph contains a 2x3 biclique")
    if not ball.sphere1:
        return inapplicable("isolated vertex")
    d = effective_degree(g, ball.base)
    if d is None:
        return inapplicable("no certified regular degree at this vertex")
    if not ball.complete:
        return inapplicable("two-ball cut by the truncation boundary")
    if profile.N == 0:
        cls = StructureClass.FULLY_LINKED
    elif profile.N == 1:
        cls = StructureClass.ONE_UNLINKED
    else:
        cls = StructureClass.MULTI_UNLINKED
    return ClassVerdict(cls, profile.N, CD_PREDICTION[cls],
                        f"max non-link count {profile.N} at degree {d}",
                        profile)


def cd_ollivier_consistency(rho: float, kappas):
    """Directional sign relations between the two curvatures at a vertex.

    kappas maps each probed neighbor to its exact edge curvature.  Only
    the sound directions are checked; strictly positive edge curvatures do
    not force positive CD curvature (the 5-cycle is flat with every edge
    curvature 1/4), so no converse is asserted.

    Returns (ok, list of violation strings).
    """
    tol = RHO_TOLERANCE
    problems = []
    items = sorted(kappas.items())
    if rho > tol:
        for y, k in items:
            if k <= 0:
                problems.append(f"cd {rho:.6g} > 0 but kappa(.,{y}) = {k} <= 0")
    if rho >= -tol:
        for y, k in items:
            if k < 0:
                problems.append(f"cd {rho:.6g} >= 0 but kappa(.,{y}) = {k} < 0")
    if rho < -tol and items:
        if min(k for _, k in items) > 0:
            problems.append(f"cd {rho:.6g} < 0 but every probed kappa is positive")
    return (not problems, problems)


# -- biclique decomposition of an edge neighborhood ------------------------


def bipartite_decomposition(g: Graph, x: int, y: int):
    """Equal-part biclique classes pairing N(x) minus y with N(y) minus x.

    Returns a list of (S_i, T_i) with each {y} + S_i, {x} + T_i the parts
    of one maximal complete bipartite subgraph through the edge, or None
    when the structure is absent.  Triangles break the sidedness of the
    construction, so they are a domain error rather than an absence.

    A neighbor w of x sees N(y) minus x only through T(w) = N(w) & N(y)
    minus x, so the Galois closure seeded at {y, w} is the biclique with
    parts {x} + T(w) and {y} + {s : T(s) contains T(w)}.  The classes are
    therefore the neighbors of x grouped by T, in first-member order, and
    they exist exactly when every group has |T| members (so no T is
    empty) and each vertex of N(y) minus x lies in exactly one T.
    """
    if not g.has_edge(x, y):
        raise GraphError(f"({x}, {y}) is not an edge")
    if contains_k3(g):
        raise GraphError("biclique decomposition needs a triangle-free graph")
    adj = g.neighbor_sets()
    rest_y = adj[y] - {x}
    groups: dict[frozenset[int], list[int]] = {}
    for w in g.neighbors(x):
        if w != y:
            groups.setdefault(adj[w] & rest_y, []).append(w)
    if any(len(t) != len(s) for t, s in groups.items()):
        return None
    if sorted(v for t in groups for v in t) != sorted(rest_y):
        return None
    return [(tuple(s), tuple(sorted(t))) for t, s in groups.items()]


# -- interchange process host rules ----------------------------------------


def interchange_class(h: Graph) -> StructureClass:
    """Class of the interchange state graph, read off the host graph.

    Swaps along two host edges commute exactly when the edges are
    vertex-disjoint, and the state graph has a 2x3 biclique exactly when
    the host has a triangle, which gives the rules below.
    """
    if not h.edges:
        raise GraphError("interchange process needs at least one edge")
    if contains_k3(h):
        return StructureClass.INAPPLICABLE
    if any(h.degree(v) >= 3 for v in h.vertices):
        return StructureClass.MULTI_UNLINKED
    # max degree <= 2: components are paths or cycles
    comp_edges: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    for v in h.vertices:
        if v in comp_of:
            continue
        comp = len(comp_edges)
        stack = [v]
        comp_of[v] = comp
        vertices = []
        while stack:
            u = stack.pop()
            vertices.append(u)
            for w in h.neighbors(u):
                if w not in comp_of:
                    comp_of[w] = comp
                    stack.append(w)
        comp_edges[comp] = sum(h.degree(u) for u in vertices) // 2
        if comp_edges[comp] >= len(vertices):
            # a cycle of length >= 4 contains a three-edge path
            return StructureClass.MULTI_UNLINKED
    lengths = [e for e in comp_edges.values() if e > 0]
    if max(lengths) >= 3:
        return StructureClass.MULTI_UNLINKED
    if max(lengths) == 2:
        return StructureClass.ONE_UNLINKED
    return StructureClass.FULLY_LINKED


# -- class-certifying test vectors -----------------------------------------


def flat_test_vector(ball: LocalBall, pair: tuple[int, int]):
    """The +1/-1 vector on the unlinked neighbor pair `pair`, optimally
    extended.

    Evaluates to exactly zero under the doubled Gamma2 form whenever the
    class hypotheses hold; LinkProfile.first_unlinked_pair picks the pair.
    """
    y, z = pair
    values = {v: Fraction(0) for v in ball.sphere1}
    values[y] = Fraction(1)
    values[z] = Fraction(-1)
    out = dict(values)
    out.update(second_neighbor_minimizer(ball, values))
    out[ball.base] = Fraction(0)
    return out


def negative_test_vector(ball: LocalBall, y: int):
    """The (d-1)/-1 vector at a neighbor y missing two or more partners.

    Evaluates to at most -2d under the doubled Gamma2 form whenever the
    class hypotheses hold; LinkProfile.first_deficient picks y.
    """
    d = len(ball.sphere1)
    values = {v: Fraction(-1) for v in ball.sphere1}
    values[y] = Fraction(d - 1)
    out = dict(values)
    out.update(second_neighbor_minimizer(ball, values))
    out[ball.base] = Fraction(0)
    return out
