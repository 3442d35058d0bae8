"""Edge curvature via optimal transport of lazy neighborhood measures.

All arithmetic is exact: measures are rational, costs are graph distances,
and the transport problem is scaled by a common denominator and solved as
an integral min-cost flow.  Every distance comes back with a transport
plan and an integer dual potential whose value matches it exactly, so the
result is certified from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .classify import bipartite_decomposition, link_profile
from .graphs import (
    Graph,
    GraphError,
    bfs_distances,
    contains_k23,
    contains_k3,
    effective_degree,
    extract_ball,
    support_distances,
)


@dataclass(frozen=True)
class Measure:
    """Finitely supported probability measure with rational weights."""

    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        seen = set()
        total = Fraction(0)
        for v, m in self.weights:
            if v in seen:
                raise GraphError(f"duplicate support vertex {v}")
            seen.add(v)
            if m <= 0:
                raise GraphError(f"nonpositive mass {m} at {v}")
            total += m
        if total != 1:
            raise GraphError(f"total mass {total} != 1")

    @classmethod
    def from_dict(cls, masses) -> "Measure":
        return cls(tuple(sorted((v, Fraction(m)) for v, m in masses.items())))

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.weights)

    def mass(self, v: int) -> Fraction:
        for u, m in self.weights:
            if u == v:
                return m
        return Fraction(0)

    def integral(self, values) -> Fraction:
        """Sum of f(v) weighted by mass, f given as a mapping."""
        return sum((m * Fraction(values[v]) for v, m in self.weights),
                   Fraction(0))


def lazy_measure(g: Graph, x: int) -> Measure:
    """Half the mass stays at x, the rest spreads evenly over neighbors."""
    d = g.degree(x)
    if d == 0:
        raise GraphError(f"vertex {x} is isolated; lazy measure undefined")
    masses = {x: Fraction(1, 2)}
    for y in g.neighbors(x):
        masses[y] = Fraction(1, 2 * d)
    return Measure.from_dict(masses)


class TransportProblem:
    """Move mu onto nu at cost = graph distance.

    Precomputes the distance table over the support union: the integer
    cost matrix between the supports and the full table the dual
    certificate's constraint system needs.
    """

    def __init__(self, g: Graph, mu: Measure, nu: Measure):
        self.graph = g
        self.mu = mu
        self.nu = nu
        self.sources = mu.support()
        self.targets = nu.support()
        self.points = tuple(sorted(set(self.sources) | set(self.targets)))
        self._dist = support_distances(g, self.points)
        self.cost = []
        for s in self.sources:
            row = []
            for t in self.targets:
                if t not in self._dist[s]:
                    raise GraphError(
                        f"supports not connected: no path from {s} to {t}"
                    )
                row.append(self._dist[s][t])
            self.cost.append(row)

    def distance(self, p: int, q: int) -> int:
        try:
            return self._dist[p][q]
        except KeyError:
            raise GraphError(
                f"distance {p}->{q} unavailable: not a connected pair of "
                f"support points"
            ) from None


@dataclass(frozen=True)
class TransportPlan:
    """Feasible coupling as (source, target, mass) triples, zero-free."""

    flows: tuple[tuple[int, int, Fraction], ...]
    total_cost: Fraction


@dataclass(frozen=True)
class LipschitzCertificate:
    """Integer potential on the support union proving the distance from
    below.  gap = primal cost minus dual value; zero means both sides
    are exactly optimal."""

    values: dict[int, int]
    dual_value: Fraction
    gap: Fraction


class WassersteinResult(NamedTuple):
    distance: Fraction
    plan: TransportPlan
    certificate: LipschitzCertificate


def _min_cost_flow(cost, supply, demand):
    """Integral min-cost transportation by successive shortest paths.

    Residual arcs can have negative cost (reversed flow), so path search
    is Bellman-Ford from every supply with remaining units.
    """
    m, n = len(supply), len(demand)
    flow = [[0] * n for _ in range(m)]
    rem_s = list(supply)
    rem_t = list(demand)
    nodes = m + n
    while any(rem_s):
        dist = [None] * nodes
        prev = [None] * nodes
        for i in range(m):
            if rem_s[i] > 0:
                dist[i] = 0
        for _ in range(nodes):
            changed = False
            for i in range(m):
                if dist[i] is None:
                    continue
                base = dist[i]
                for j in range(n):
                    nd = base + cost[i][j]
                    if dist[m + j] is None or nd < dist[m + j]:
                        dist[m + j] = nd
                        prev[m + j] = ("f", i, j)
                        changed = True
            for j in range(n):
                if dist[m + j] is None:
                    continue
                base = dist[m + j]
                for i in range(m):
                    if flow[i][j] > 0:
                        nd = base - cost[i][j]
                        if dist[i] is None or nd < dist[i]:
                            dist[i] = nd
                            prev[i] = ("b", i, j)
                            changed = True
            if not changed:
                break
        else:
            raise GraphError("internal: negative cycle in transport residual")
        best = None
        for j in range(n):
            if rem_t[j] > 0 and dist[m + j] is not None:
                if best is None or dist[m + j] < dist[m + best]:
                    best = j
        if best is None:
            raise GraphError("internal: live demand unreachable")
        path = []
        node = m + best
        steps = 0
        while prev[node] is not None:
            kind, i, j = prev[node]
            path.append((kind, i, j))
            node = i if kind == "f" else m + j
            steps += 1
            if steps > nodes:
                raise GraphError("internal: cyclic predecessor chain")
        root = node
        delta = min(rem_s[root], rem_t[best])
        for kind, i, j in path:
            if kind == "b":
                delta = min(delta, flow[i][j])
        for kind, i, j in path:
            if kind == "f":
                flow[i][j] += delta
            else:
                flow[i][j] -= delta
        rem_s[root] -= delta
        rem_t[best] -= delta
    return flow


def _dual_certificate(tp: TransportProblem, flows):
    """Integer potential from the tight/slack constraint system.

    Arcs q -> p of weight d(q, p) enforce the Lipschitz bound in both
    directions; arcs t -> s of weight -d(s, t) per used route force the
    bound tight along the plan.  Any Bellman-Ford solution of the system
    is an optimal dual by complementary slackness.
    """
    pts = tp.points
    idx = {p: k for k, p in enumerate(pts)}
    arcs = []
    for q in pts:
        for p in pts:
            if p != q:
                arcs.append((idx[q], idx[p], tp.distance(q, p)))
    for s, t, _ in flows:
        if s != t:
            arcs.append((idx[t], idx[s], -tp.distance(s, t)))
    dist = [0] * len(pts)
    for _ in range(len(pts) + 1):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    else:
        raise GraphError("internal: infeasible dual constraint system")
    low = min(dist)
    values = {p: dist[idx[p]] - low for p in pts}
    dual = tp.nu.integral(values) - tp.mu.integral(values)
    return values, dual


def wasserstein(tp: TransportProblem) -> WassersteinResult:
    """Exact transport distance with matching plan and dual certificate."""
    denoms = [m.denominator for _, m in tp.mu.weights]
    denoms += [m.denominator for _, m in tp.nu.weights]
    scale = math.lcm(*denoms)
    supply = [int(tp.mu.mass(s) * scale) for s in tp.sources]
    demand = [int(tp.nu.mass(t) * scale) for t in tp.targets]
    flow = _min_cost_flow(tp.cost, supply, demand)
    total = 0
    triples = []
    for i, s in enumerate(tp.sources):
        for j, t in enumerate(tp.targets):
            if flow[i][j] > 0:
                total += flow[i][j] * tp.cost[i][j]
                triples.append((s, t, Fraction(flow[i][j], scale)))
    distance = Fraction(total, scale)
    plan = TransportPlan(tuple(sorted(triples)), distance)
    values, dual = _dual_certificate(tp, plan.flows)
    gap = distance - dual
    if gap != 0:
        raise GraphError(f"internal: duality gap {gap} between plan and potential")
    cert = LipschitzCertificate(values, dual, gap)
    return WassersteinResult(distance, plan, cert)


def validate_plan(tp: TransportProblem, plan: TransportPlan) -> Fraction:
    """Recompute marginals and cost of a plan; raises on any mismatch.

    Returns the recomputed exact cost.
    """
    out: dict[int, Fraction] = {}
    into: dict[int, Fraction] = {}
    cost = Fraction(0)
    for s, t, mass in plan.flows:
        if mass <= 0:
            raise GraphError(f"plan carries nonpositive mass {mass} on {s}->{t}")
        if s not in tp._dist or t not in tp._dist[s]:
            raise GraphError(f"plan routes mass outside the support union: {s}->{t}")
        out[s] = out.get(s, Fraction(0)) + mass
        into[t] = into.get(t, Fraction(0)) + mass
        cost += mass * tp.distance(s, t)
    for s in tp.sources:
        if out.get(s, Fraction(0)) != tp.mu.mass(s):
            raise GraphError(f"row marginal at {s}: {out.get(s, 0)} != {tp.mu.mass(s)}")
    for t in tp.targets:
        if into.get(t, Fraction(0)) != tp.nu.mass(t):
            raise GraphError(f"column marginal at {t}: {into.get(t, 0)} != {tp.nu.mass(t)}")
    if set(out) - set(tp.sources) or set(into) - set(tp.targets):
        raise GraphError("plan touches vertices outside the supports")
    if cost != plan.total_cost:
        raise GraphError(f"plan cost {plan.total_cost} recomputes to {cost}")
    return cost


def certificate_violations(g: Graph, values) -> list[str]:
    """Pairs of valued vertices whose difference exceeds graph distance."""
    keys = sorted(values)
    problems = []
    for i, p in enumerate(keys):
        dists = bfs_distances(g, p)
        for q in keys[i + 1:]:
            if q not in dists:
                continue
            spread = abs(Fraction(values[p]) - Fraction(values[q]))
            if spread > dists[q]:
                problems.append(
                    f"|f({p}) - f({q})| = {spread} > distance {dists[q]}"
                )
    return problems


def extend_certificate(g: Graph, cert: LipschitzCertificate,
                       x: int, y: int) -> dict[int, int]:
    """Extend the potential to both two-balls by the minimal cone rule.

    f(p) = min over support s of f(s) + d(s, p).  The extension stays
    1-Lipschitz and agrees with the certificate on its own support.
    """
    domain = set(bfs_distances(g, x, radius=2)) | set(bfs_distances(g, y, radius=2))
    cones = {s: bfs_distances(g, s) for s in cert.values}
    out: dict[int, int] = {}
    for p in sorted(domain):
        best = None
        for s, f in cert.values.items():
            if p in cones[s]:
                c = f + cones[s][p]
                if best is None or c < best:
                    best = c
        if best is None:
            raise GraphError(f"extension target {p} unreachable from the support")
        out[p] = best
    for s, f in cert.values.items():
        if s in out and out[s] != f:
            raise GraphError(f"internal: extension moved f({s}) from {f} to {out[s]}")
    return out


# -- edge curvature --------------------------------------------------------


@dataclass(frozen=True)
class KappaResult:
    x: int
    y: int
    kappa: Fraction
    wasserstein: Fraction
    plan: TransportPlan
    certificate: LipschitzCertificate


def kappa_detail(g: Graph, x: int, y: int) -> KappaResult:
    if not g.has_edge(x, y):
        raise GraphError(f"({x}, {y}) is not an edge")
    tp = TransportProblem(g, lazy_measure(g, x), lazy_measure(g, y))
    dist, plan, cert = wasserstein(tp)
    return KappaResult(x, y, 1 - dist, dist, plan, cert)


def ollivier_kappa(g: Graph, x: int, y: int) -> Fraction:
    return kappa_detail(g, x, y).kappa


def kappa_safe(g: Graph, x: int, y: int) -> Fraction | None:
    """Edge curvature, or None when a truncation boundary could bias it."""
    if not g.transport_neighborhood_complete(x, y):
        return None
    return ollivier_kappa(g, x, y)


# -- structure-driven witnesses --------------------------------------------


def _stay_flows(x: int, y: int, d: int):
    return [(x, x, Fraction(1, 2 * d)), (y, y, Fraction(1, 2 * d))]


def _linked_partner_plan(g: Graph, x: int, y: int, d: int):
    """Route each linked neighbor of x to its partner beside y.

    Needs every neighbor pair short of at most one to be linked; with no
    triangle and no 2x3 biclique the partners are unique and distinct, so
    the routing is a matching.  Cost is at most 1, giving kappa >= 0.
    """
    profile = link_profile(extract_ball(g, x))
    if profile.nonlink_counts[y] > 1:
        return None
    flows = _stay_flows(x, y, d)
    if d > 1:
        flows.append((x, y, Fraction(d - 1, 2 * d)))
    unit = Fraction(1, 2 * d)
    used = set()
    leftover = None
    for v in g.neighbors(x):
        if v == y:
            continue
        partners = profile.linking_vertices(v, y)
        if partners:
            w = partners[0]
            if w in used:
                return None
            used.add(w)
            flows.append((v, w, unit))
        else:
            if leftover is not None:
                return None
            leftover = v
    if leftover is not None:
        free = [u for u in g.neighbors(y) if u != x and u not in used]
        if len(free) != 1:
            return None
        flows.append((leftover, free[0], unit))
    cost = Fraction(0)
    dists = {}
    for s, t, mass in flows:
        if s == t:
            continue
        if s not in dists:
            dists[s] = bfs_distances(g, s, radius=4)
        if t not in dists[s]:
            return None
        cost += mass * dists[s][t]
    return TransportPlan(tuple(sorted(flows)), cost)


def _biclique_plan(g: Graph, x: int, y: int, d: int):
    """Pair the biclique classes across the edge; every move has length 1."""
    classes = bipartite_decomposition(g, x, y)
    if classes is None:
        return None
    flows = _stay_flows(x, y, d)
    if d > 1:
        flows.append((x, y, Fraction(d - 1, 2 * d)))
    unit = Fraction(1, 2 * d)
    moved = 0
    for s_cls, t_cls in classes:
        for s, t in zip(sorted(s_cls), sorted(t_cls)):
            flows.append((s, t, unit))
            moved += 1
    cost = Fraction(d - 1, 2 * d) + Fraction(moved, 2 * d) if d > 1 else Fraction(0)
    return TransportPlan(tuple(sorted(flows)), cost)


def kappa_lower_witness(g: Graph, x: int, y: int) -> TransportPlan | None:
    """Explicit plan whose cost upper-bounds the transport distance.

    1 - total_cost then lower-bounds the edge curvature.  Tries the
    linked-partner routing first (regular, triangle-free, biclique-free
    neighborhoods), then the biclique-class routing (triangle-free with a
    full equal-part decomposition).  None when neither construction's
    hypotheses hold.
    """
    if not g.has_edge(x, y):
        raise GraphError(f"({x}, {y}) is not an edge")
    dx = effective_degree(g, x)
    dy = effective_degree(g, y)
    if dx is not None and dx == dy and not contains_k3(g):
        if not contains_k23(g) and g.two_ball_complete(x):
            plan = _linked_partner_plan(g, x, y, dx)
            if plan is not None:
                return plan
        plan = _biclique_plan(g, x, y, dx)
        if plan is not None:
            return plan
    return None


def kappa_upper_witness(g: Graph, x: int, y: int) -> LipschitzCertificate | None:
    """Explicit potential forcing the edge curvature nonpositive.

    Defined when both endpoints have the same certified degree, the graph
    has no triangle and no 2x3 biclique, and at least two neighbors of x
    are unlinked from y.  The dual value is 1 + (N - 2) / (2d) where N is
    that non-link count, so the curvature is at most (2 - N) / (2d) <= 0.
    """
    if not g.has_edge(x, y):
        raise GraphError(f"({x}, {y}) is not an edge")
    dx = effective_degree(g, x)
    dy = effective_degree(g, y)
    if dx is None or dx != dy or contains_k3(g) or contains_k23(g):
        return None
    if not (g.two_ball_complete(x) and g.two_ball_complete(y)):
        return None
    profile = link_profile(extract_ball(g, x))
    if profile.nonlink_counts[y] < 2:
        return None
    rest_x = [v for v in g.neighbors(x) if v != y]
    linking = set()
    for v in rest_x:
        linking.update(profile.linking_vertices(v, y))
    values = {x: 0, y: 1}
    for v in rest_x:
        values[v] = 0
    for u in g.neighbors(y):
        if u == x:
            continue
        values[u] = 1 if u in linking else 2
    domain = set(bfs_distances(g, x, radius=2)) | set(bfs_distances(g, y, radius=2))
    for p in sorted(domain):
        if p not in values:
            values[p] = 1
    bad = certificate_violations(g, values)
    if bad:
        raise GraphError("internal: witness potential not 1-Lipschitz: " + bad[0])
    mu = lazy_measure(g, x)
    nu = lazy_measure(g, y)
    dual = nu.integral(values) - mu.integral(values)
    exact = kappa_detail(g, x, y).wasserstein
    return LipschitzCertificate(values, dual, exact - dual)
