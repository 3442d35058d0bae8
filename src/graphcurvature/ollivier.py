"""Edge curvature via optimal transport of lazy neighborhood measures.

The one transport problem here is Ollivier's: across an edge (x, y), move
the lazy measure of x (half its mass at x, the rest spread evenly over
its neighbors) onto that of y at cost = graph distance, and kappa(x, y)
= 1 - W1.  `TransportProblem(g, x, y)` builds it exactly, in integers:
masses over the scale 2 lcm(dx, dy) and costs 0 to 3 read from the
adjacency.  It is solved as an integral min-cost flow by successive
shortest paths.  The flow's own node potentials are the dual
certificate: on every edge they are checked in integers to be dual
feasible, to agree where the supports overlap and to meet the plan's
cost with zero gap, so each distance comes back certified from both
sides.  Each problem lays its rows and columns out in a canonical order,
so its supplies, demands and costs are themselves the key under which a
graph keeps the solution, and every edge that poses the same problem
reuses it index for index: a symmetric graph is solved once per kind of
edge.  `ollivier_kappa` returns the certified fraction alone;
`wasserstein` and `kappa_detail` also build the plan and certificate
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .classify import bipartite_decomposition
from .graphs import (
    Graph,
    GraphError,
    bfs_distances,
    contains_k23,
    contains_k3,
    effective_degree,
)


def _move_lengths(adj, s, targets) -> list[int]:
    """Graph distances from s to each of targets, for s in N[x] and
    targets in N[y] across an edge (x, y), read off the neighbor sets adj.

    0 to s itself, 1 to a neighbor, 2 across a shared neighbor, and 3
    otherwise, because the path s - x - y - t exists.
    """
    near = adj[s]
    return [0 if t == s else 1 if t in near
            else 2 if not near.isdisjoint(adj[t]) else 3
            for t in targets]


class TransportProblem:
    """The lazy transport problem across edge (x, y), in integers.

    Over the scale 2 lcm(dx, dy) the lazy measure of x puts lcm(dx, dy) on
    x and lcm(dx, dy) / dx on each neighbor, and likewise for y.  Sources
    and targets are the closed neighborhoods, and the costs their
    distances, 0 to 3, from `_move_lengths`.  Rows and columns come in
    `_order`'s canonical order, ties by vertex id, and supply, demand and
    cost are tuples, so the problem is its own memo key.  An edge whose
    transport neighborhood a truncation boundary may cut is refused.
    """

    def __init__(self, g: Graph, x: int, y: int):
        if not g.transport_neighborhood_complete(x, y):
            raise GraphError(
                f"refusing to probe edge ({g.label(x)}, {g.label(y)}): the "
                f"transport neighborhood crosses the truncation boundary"
            )
        nx, ny = g.neighbors(x), g.neighbors(y)
        lcm = math.lcm(len(nx), len(ny))
        sources = sorted((x, *nx))
        targets = sorted((y, *ny))
        unit_x, unit_y = lcm // len(nx), lcm // len(ny)
        adj = g.neighbor_sets()
        cost = [_move_lengths(adj, s, targets) for s in sources]
        supply = [lcm if s == x else unit_x for s in sources]
        demand = [lcm if t == y else unit_y for t in targets]
        rows, cols = _order(supply, cost), _order(demand, zip(*cost))
        self.graph, self.x, self.y = g, x, y
        self.scale = 2 * lcm
        self.sources = tuple([sources[i] for i in rows])
        self.targets = tuple([targets[j] for j in cols])
        self.supply = tuple([supply[i] for i in rows])
        self.demand = tuple([demand[j] for j in cols])
        self.cost = tuple([tuple([cost[i][j] for j in cols]) for i in rows])

    @property
    def mu(self) -> tuple[tuple[int, int], ...]:
        """The lazy measure of x as point-sorted (point, units) pairs."""
        return tuple(sorted(zip(self.sources, self.supply)))

    @property
    def nu(self) -> tuple[tuple[int, int], ...]:
        """The lazy measure of y as point-sorted (point, units) pairs."""
        return tuple(sorted(zip(self.targets, self.demand)))


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


@dataclass(frozen=True)
class KappaResult:
    x: int
    y: int
    kappa: Fraction
    wasserstein: Fraction
    plan: TransportPlan
    certificate: LipschitzCertificate


def _min_cost_flow(cost, supply, demand):
    """Integral min-cost transportation by successive shortest paths.

    Returns the flow matrix and node potentials (sources first, then
    targets) with nonnegative reduced cost c(s, t) + p(s) - p(t) on every
    residual arc and zero reduced cost on every arc that carries flow.
    Each phase runs Dijkstra on reduced costs from every source with
    units left; those sources always have potential 0, because nothing
    reaches them at negative reduced cost, so seeding them at distance 0
    is exact.  After the potentials move by those distances, every
    shortest path has zero reduced cost, and the phase augments along
    such paths until none is left.

    The optimal potentials form a lattice that does not depend on which
    optimal flow was found.  The returned one is its normal form: the
    greatest potential that is at most 0 everywhere, shifted up so its
    least value is 0.  That is one more Dijkstra, from a root joined to
    every node at cost 0, and it makes the potentials a function of the
    problem alone, whatever flow or node order the solve used.
    """
    m, n = len(supply), len(demand)
    flow = [[0] * n for _ in range(m)]
    rem_s = list(supply)
    rem_t = list(demand)
    pot = [0] * (m + n)
    while any(rem_s):
        dist = [0 if r > 0 else None for r in rem_s] + [None] * n
        _residual_dijkstra(cost, flow, pot, dist)
        if all(dist[m + j] is None for j in range(n) if rem_t[j] > 0):
            raise GraphError("internal: live demand unreachable")
        for k, d in enumerate(dist):
            if d is not None:
                pot[k] += d
        path = _zero_cost_path(cost, flow, pot, rem_s, rem_t)
        if not path:
            raise GraphError("internal: no zero reduced cost path after "
                             "a potential update")
        while path:
            root, best = path[-1][0], path[0][1] - m
            delta = min(rem_s[root], rem_t[best])
            for a, b in path:
                if a >= m:
                    delta = min(delta, flow[b][a - m])
            for a, b in path:
                if a < m:
                    flow[a][b - m] += delta
                else:
                    flow[b][a - m] -= delta
            rem_s[root] -= delta
            rem_t[best] -= delta
            path = _zero_cost_path(cost, flow, pot, rem_s, rem_t)
    top = max(pot)
    dist = [top - p for p in pot]
    _residual_dijkstra(cost, flow, pot, dist)
    phi = [d + p for d, p in zip(dist, pot)]
    low = min(phi)
    return flow, [f - low for f in phi]


def _residual_dijkstra(cost, flow, pot, dist):
    """Dijkstra on reduced costs over the transport residual graph.

    dist holds the seeds (None elsewhere) and is completed in place.
    Forward arcs s -> t cost c(s, t); an arc carrying flow is also
    residual backwards at -c(s, t).  The graphs are a few dozen nodes, so
    each step scans for the nearest open node instead of keeping a heap.
    """
    m, n = len(flow), len(flow[0])
    open_nodes = [k for k, d in enumerate(dist) if d is not None]
    while open_nodes:
        k = min(open_nodes, key=dist.__getitem__)
        open_nodes.remove(k)
        d = dist[k]
        base = d + pot[k]
        if k < m:
            row = cost[k]
            arcs = ((m + j, base + row[j] - pot[m + j]) for j in range(n))
        else:
            j = k - m
            arcs = ((i, base - cost[i][j] - pot[i])
                    for i in range(m) if flow[i][j] > 0)
        for node, nd in arcs:
            if nd < d:
                raise GraphError("internal: negative reduced cost in "
                                 "transport residual")
            if dist[node] is None:
                open_nodes.append(node)
            elif nd >= dist[node]:
                continue
            dist[node] = nd


def _zero_cost_path(cost, flow, pot, rem_s, rem_t):
    """Breadth-first residual path of zero reduced cost from a source
    with units left to a target with demand left, as (tail, head) arcs
    from the target back to the source; empty when there is none."""
    m, n = len(rem_s), len(rem_t)
    prev = [None] * (m + n)
    queue = [i for i in range(m) if rem_s[i] > 0]
    seen = set(queue)
    for k in queue:
        if k < m:
            row, base = cost[k], pot[k]
            heads = [m + j for j in range(n) if row[j] + base == pot[m + j]]
        else:
            heads = [i for i in range(m) if flow[i][k - m] > 0]
        for h in heads:
            if h in seen:
                continue
            seen.add(h)
            prev[h] = k
            if h >= m and rem_t[h - m] > 0:
                path = []
                while prev[h] is not None:
                    path.append((prev[h], h))
                    h = prev[h]
                    if len(path) > m + n:
                        raise GraphError("internal: cyclic predecessor chain")
                return path
            queue.append(h)
    return []


def _dual_certificate(sources, targets, cost, supply, demand, cells,
                      potentials):
    """Check a solved integer transport problem against its potentials.

    The plan comes as (row, column, units, mass) cells.  Checks that the
    plan's cells are positive and meet supply and demand exactly; dual
    feasibility, v(t) - u(s) <= d(s, t) for every source s and target t;
    that a point which is both a source and a target gets one value; and
    that the plan's cost equals the dual value, sum of
    demand times v less sum of supply times u, so plan and potential are
    both optimal.  With the plan tight where it carries mass, every
    point's value equals min over sources s of u(s) + d(s, p), a minimum
    of 1-Lipschitz functions, so the potential is 1-Lipschitz on the
    union.  Returns the plan's cost in units of the masses' scale and the
    potential by support point.
    """
    m = len(sources)
    out, into = [0] * m, [0] * len(targets)
    total = 0
    for i, j, f, _ in cells:
        if f <= 0:
            raise GraphError(f"internal: plan carries {f} units from "
                             f"{sources[i]} to {targets[j]}")
        out[i] += f
        into[j] += f
        total += f * cost[i][j]
    if out != list(supply) or into != list(demand):
        raise GraphError("internal: plan marginals miss supply or demand")
    u, v = potentials[:m], potentials[m:]
    for i, s in enumerate(sources):
        row = cost[i]
        if max(map(sub, v, row)) > u[i]:
            j = next(j for j, c in enumerate(row) if v[j] - u[i] > c)
            raise GraphError(
                f"internal: potential rises {v[j] - u[i]} from {s} to "
                f"{targets[j]} at distance {row[j]}")
    values = dict(zip(sources, u))
    for t, vt in zip(targets, v):
        if values.setdefault(t, vt) != vt:
            raise GraphError(f"internal: potentials {values[t]} and {vt} "
                             f"disagree at {t}")
    dual = sum(map(mul, demand, v)) - sum(map(mul, supply, u))
    if total != dual:
        gap = Fraction(total - dual, sum(supply))
        raise GraphError(f"internal: duality gap {gap} between plan and potential")
    return total, values


def _order(masses, lines):
    """Indices of the rows (or columns) of a transport problem, sorted by
    mass, then by how many of the line's costs are 0, 1 and 2, each count
    descending; ties keep their order.

    All lines have one length, so where costs run from 0 to 3, as on
    every edge, this orders them exactly as their sorted cost lists do.
    """
    keys = [(a, -c.count(0), -c.count(1), -c.count(2))
            for a, c in zip(masses, lines)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _solve(tp: TransportProblem):
    """Flow and potentials of one transport problem, solved once per graph.

    The problem's supply, demand and cost, laid out in canonical order, are
    the memo key, so a hit is the same problem index for index.  Ties in
    that order cost hits but never correctness.  Returns the (row, column,
    units, mass) cells that carry flow and the potentials, rows first.
    """
    key = (tp.supply, tp.demand, tp.cost)
    solved = tp.graph._transport.get(key)
    if solved is None:
        flow, pot = _min_cost_flow(tp.cost, tp.supply, tp.demand)
        cells = tuple((a, b, f, Fraction(f, tp.scale))
                      for a, row in enumerate(flow)
                      for b, f in enumerate(row) if f > 0)
        solved = tp.graph._transport[key] = (cells, tuple(pot))
    return solved


def _certified_cost(tp: TransportProblem) -> int:
    """The optimal cost in units of tp.scale, certified on this edge,
    without the plan and certificate objects."""
    cells, pot = _solve(tp)
    return _dual_certificate(tp.sources, tp.targets, tp.cost, tp.supply,
                             tp.demand, cells, pot)[0]


def wasserstein(tp: TransportProblem) -> KappaResult:
    """Exact transport distance across tp's edge, with the curvature it
    gives and the matching plan and dual certificate."""
    sources, targets = tp.sources, tp.targets
    cells, pot = _solve(tp)
    total, values = _dual_certificate(sources, targets, tp.cost, tp.supply,
                                      tp.demand, cells, pot)
    distance = Fraction(total, tp.scale)
    plan = TransportPlan(
        tuple(sorted((sources[i], targets[j], mass) for i, j, _, mass in cells)),
        distance)
    cert = LipschitzCertificate({p: values[p] for p in sorted(values)},
                                distance, Fraction(0))
    return KappaResult(tp.x, tp.y, 1 - distance, distance, plan, cert)


def validate_plan(g: Graph, x: int, y: int, plan: TransportPlan) -> Fraction:
    """Recompute marginals and cost of a plan across edge (x, y); raises on
    any mismatch.

    Shares nothing with TransportProblem's arithmetic: the marginals come
    from the lazy definition (1/2 at the endpoint, 1/(2d) at each
    neighbor) and each move's length from a breadth-first search, cut at
    radius 3 because every move runs from N[x] to N[y].  Returns the
    recomputed exact cost.
    """

    def lazy(v):
        masses = dict.fromkeys(g.neighbors(v), Fraction(1, 2 * g.degree(v)))
        masses[v] = Fraction(1, 2)
        return masses

    mu, nu = lazy(x), lazy(y)
    out: dict[int, Fraction] = {}
    into: dict[int, Fraction] = {}
    lengths: dict[int, dict[int, int]] = {}
    cost = Fraction(0)
    for s, t, mass in plan.flows:
        if mass <= 0:
            raise GraphError(f"plan carries nonpositive mass {mass} on {s}->{t}")
        if s not in mu or t not in nu:
            raise GraphError(f"plan routes mass outside the supports: {s}->{t}")
        if s not in lengths:
            lengths[s] = bfs_distances(g, s, radius=3)
        out[s] = out.get(s, Fraction(0)) + mass
        into[t] = into.get(t, Fraction(0)) + mass
        cost += mass * lengths[s][t]
    for s, m in mu.items():
        if out.get(s, Fraction(0)) != m:
            raise GraphError(f"row marginal at {s}: {out.get(s, 0)} != {m}")
    for t, m in nu.items():
        if into.get(t, Fraction(0)) != m:
            raise GraphError(f"column marginal at {t}: {into.get(t, 0)} != {m}")
    if cost != plan.total_cost:
        raise GraphError(f"plan cost {plan.total_cost} recomputes to {cost}")
    return cost


def certificate_violations(g: Graph, values) -> list[str]:
    """Pairs of valued vertices whose difference exceeds graph distance.

    The values must be ints or Fractions, so that each difference is exact
    as it stands; every potential the package builds is int-valued.  No
    two values differ by more than the spread, the largest value less
    the least, so no pair farther apart than that can violate the bound
    and each search stops at that radius.
    """
    keys = sorted(values)
    if not keys:
        return []
    radius = math.floor(max(values.values()) - min(values.values()))
    problems = []
    for i, p in enumerate(keys):
        dists = bfs_distances(g, p, radius=radius)
        for q in keys[i + 1:]:
            if q not in dists:
                continue
            spread = abs(values[p] - values[q])
            if spread > dists[q]:
                problems.append(
                    f"|f({p}) - f({q})| = {spread} > distance {dists[q]}"
                )
    return problems


def extend_certificate(g: Graph, cert: LipschitzCertificate,
                       x: int, y: int) -> dict[int, int]:
    """Extend the potential to both two-balls by the minimal cone rule.

    f(p) = min over support s of f(s) + d(s, p).  The extension stays
    1-Lipschitz and agrees with the certificate on its own support.  The
    support must lie in the closed neighborhoods of x and y, as an edge
    certificate's does; then every point of either two-ball is within
    distance 4 of every support point, so radius-4 cones are exact.
    """
    near = {x, y, *g.neighbors(x), *g.neighbors(y)}
    for s in cert.values:
        if s not in near:
            raise GraphError(f"certificate point {s} lies outside the "
                             f"neighborhoods of {x} and {y}")
    domain = set(bfs_distances(g, x, radius=2)) | set(bfs_distances(g, y, radius=2))
    cones = {s: bfs_distances(g, s, radius=4) for s in cert.values}
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


def kappa_detail(g: Graph, x: int, y: int) -> KappaResult:
    """Exact edge curvature with its optimal plan and dual certificate."""
    return wasserstein(TransportProblem(g, x, y))


def ollivier_kappa(g: Graph, x: int, y: int) -> Fraction:
    """Exact edge curvature, certified like `kappa_detail`'s but without
    building the plan and certificate objects."""
    tp = TransportProblem(g, x, y)
    return Fraction(tp.scale - _certified_cost(tp), tp.scale)


# -- structure-driven witnesses --------------------------------------------


def _partners(g: Graph, x: int, y: int) -> dict[int, list[int]]:
    """Each neighbor v of x other than y mapped to the sorted vertices
    other than x that link it to y: `link_profile`'s links[(v, y)]."""
    adj = g.neighbor_sets()
    beside_y = adj[y] - {x}
    return {v: sorted(adj[v] & beside_y) for v in g.neighbors(x) if v != y}


def _stay_flows(x: int, y: int, d: int):
    return [(x, x, Fraction(1, 2 * d)), (y, y, Fraction(1, 2 * d))]


def _linked_partner_plan(g: Graph, x: int, y: int, d: int):
    """Route each linked neighbor of x to its partner beside y.

    Needs every neighbor pair short of at most one to be linked; with no
    triangle and no 2x3 biclique the partners are unique and distinct, so
    the routing is a matching.  Cost is at most 1, giving kappa >= 0.
    """
    partners = _partners(g, x, y)
    if sum(not zs for zs in partners.values()) > 1:
        return None
    flows = _stay_flows(x, y, d)
    if d > 1:
        flows.append((x, y, Fraction(d - 1, 2 * d)))
    unit = Fraction(1, 2 * d)
    used = set()
    leftover = None
    for v, zs in partners.items():
        if zs:
            w = zs[0]
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
    # every move runs from N[x] to N[y]
    adj = g.neighbor_sets()
    cost = sum((mass * _move_lengths(adj, s, (t,))[0] for s, t, mass in flows),
               Fraction(0))
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

    Defined when no truncation boundary can cut the transport neighborhood
    of the edge, both endpoints have the same certified degree, the graph
    has no triangle and no 2x3 biclique, and at least two neighbors of x
    are unlinked from y.  The dual value is 1 + (N - 2) / (2d) where N is
    that non-link count, so the curvature is at most (2 - N) / (2d) <= 0.
    """
    if not g.transport_neighborhood_complete(x, y):
        return None
    dx = effective_degree(g, x)
    dy = effective_degree(g, y)
    if dx is None or dx != dy or contains_k3(g) or contains_k23(g):
        return None
    partners = _partners(g, x, y)
    if sum(not zs for zs in partners.values()) < 2:
        return None
    linking = set().union(*partners.values())
    values = {x: 0, y: 1}
    for v in partners:
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
    tp = TransportProblem(g, x, y)
    dual = Fraction(sum(u * values[t] for t, u in tp.nu)
                    - sum(u * values[s] for s, u in tp.mu), tp.scale)
    exact = Fraction(_certified_cost(tp), tp.scale)
    return LipschitzCertificate(values, dual, exact - dual)
