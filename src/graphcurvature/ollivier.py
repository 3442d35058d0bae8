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
sides.  Each problem lays its rows and columns out by mass and cost
multiset, ties broken by the cost lines themselves, so its supplies,
demands and costs are the key under which a graph keeps the solution,
and every edge that poses that matrix reuses it index for index.
Isomorphic problems often, but not always, meet under this layout.
`wasserstein` returns the distance with its plan and certificate, and
`ollivier_kappa` is `kappa_detail`'s certified fraction.
`validate_plan`, `certificate_violations` and `extend_certificate` read
distances from `graphs.bfs_distances`, never from `_move_lengths`, and
name vertices by label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import itemgetter, mul, sub

from .classify import bipartite_decomposition, edge_partners
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
    distances, 0 to 3, from `_move_lengths`.  Rows and columns come by
    mass and cost multiset (`_order`), ties broken by cost lines: the rows'
    under the columns so sorted, then the columns' under the rows as laid
    out.  Lines still tied are equal, so their order cannot change the
    matrix.  Supply, demand and cost are tuples, so the problem is its own
    memo key.  An edge whose transport neighborhood a truncation boundary
    may cut, or that the truncation center cannot reach, is refused.
    """

    def __init__(self, g: Graph, x: int, y: int):
        if not g.transport_neighborhood_complete(x, y):
            where = ("it is not connected to the truncation center"
                     if g.distance_to_center(x) is None else
                     "the transport neighborhood crosses the truncation boundary")
            raise GraphError(f"refusing to probe edge ({g.label(x)}, "
                             f"{g.label(y)}): {where}")
        nx, ny = g.neighbors(x), g.neighbors(y)
        lcm = math.lcm(len(nx), len(ny))
        sources = sorted((x, *nx))
        targets = sorted((y, *ny))
        unit_x, unit_y = lcm // len(nx), lcm // len(ny)
        adj = g.neighbor_sets()
        cost = [_move_lengths(adj, s, targets) for s in sources]
        supply = [lcm if s == x else unit_x for s in sources]
        demand = [lcm if t == y else unit_y for t in targets]
        # each stage sorts (mass, multiset, line, index) tuples, and zip
        # turns the sorted rows into columns and back
        demand, multisets, cols = zip(*_order(demand, zip(*cost)))
        lines = map(itemgetter(*cols), cost)
        self.supply, _, lines, rows = zip(*sorted(zip(
            supply, map(sorted, cost), lines, count())))
        self.demand, _, lines, cols = zip(*sorted(zip(
            demand, multisets, zip(*lines), cols)))
        self.graph, self.x, self.y = g, x, y
        self.scale = 2 * lcm
        self.sources = itemgetter(*rows)(sources)
        self.targets = itemgetter(*cols)(targets)
        self.cost = tuple(zip(*lines))

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
    m = len(flow)
    open_nodes = [k for k, d in enumerate(dist) if d is not None]
    while open_nodes:
        k = min(open_nodes, key=dist.__getitem__)
        open_nodes.remove(k)
        d = dist[k]
        base = d + pot[k]
        if k < m:
            for node, c in enumerate(cost[k], m):
                nd = base + c - pot[node]
                if nd < d:
                    raise GraphError("internal: negative reduced cost in "
                                     "transport residual")
                if dist[node] is None:
                    open_nodes.append(node)
                elif nd >= dist[node]:
                    continue
                dist[node] = nd
        else:
            j = k - m
            for node, row in enumerate(flow):
                if row[j] > 0:
                    nd = base - cost[node][j] - pot[node]
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
    """(mass, sorted costs, index) for each row (or column) of a transport
    problem, sorted: by mass, then by the line's cost multiset, then by
    position.

    A line's multiset does not change when the other side is permuted, so
    `TransportProblem` keeps the columns' multisets from this first stage
    when it sorts them again, ties broken by their lines.
    """
    return sorted(zip(masses, map(sorted, lines), count()))


def _solve(tp: TransportProblem):
    """Flow and potentials of one transport problem, solved once per graph.

    The laid-out supply, demand and cost are the memo key, so a hit is the
    same problem index for index; an isomorphic problem laid out otherwise
    costs a solve, never correctness.  Returns the (row, column, units,
    mass) cells that carry flow and the potentials, rows first.
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
    neighbor), and each move's length from a `bfs_distances` search from
    its source that stops once all of that source's plan targets are
    found, at radius 3 at most because every move runs from N[x] to N[y].
    Masses are summed exactly in integers over their common denominator.
    Returns the recomputed exact cost.
    """
    g.require_edge(x, y)
    dx, dy = g.degree(x), g.degree(y)
    den = math.lcm(2 * dx, 2 * dy, *(m.denominator for _, _, m in plan.flows))

    def lazy(v, d):
        masses = dict.fromkeys(g.neighbors(v), den // (2 * d))
        masses[v] = den // 2
        return masses

    mu, nu = lazy(x, dx), lazy(y, dy)
    targets: dict[int, set[int]] = {}
    for s, t, mass in plan.flows:
        if mass <= 0:
            raise GraphError(f"plan carries nonpositive mass {mass} on "
                             f"{g.label(s)}->{g.label(t)}")
        if s not in mu or t not in nu:
            raise GraphError(f"plan routes mass outside the supports: "
                             f"{g.label(s)}->{g.label(t)}")
        targets.setdefault(s, set()).add(t)
    lengths = {s: bfs_distances(g, {s: 0}, 3, ts) for s, ts in targets.items()}
    out = dict.fromkeys(mu, 0)
    into = dict.fromkeys(nu, 0)
    cost = 0
    for s, t, mass in plan.flows:
        units = mass.numerator * (den // mass.denominator)
        out[s] += units
        into[t] += units
        cost += units * lengths[s][t]
    for s, m in mu.items():
        if out[s] != m:
            raise GraphError(f"row marginal at {g.label(s)}: "
                             f"{Fraction(out[s], den)} != {Fraction(m, den)}")
    for t, m in nu.items():
        if into[t] != m:
            raise GraphError(f"column marginal at {g.label(t)}: "
                             f"{Fraction(into[t], den)} != {Fraction(m, den)}")
    cost = Fraction(cost, den)
    if cost != plan.total_cost:
        raise GraphError(f"plan cost {plan.total_cost} recomputes to {cost}")
    return cost


def certificate_violations(g: Graph, values) -> list[str]:
    """Pairs of valued vertices whose difference exceeds graph distance.

    The values must be ints or Fractions, so that each difference is exact
    as it stands; every potential the package builds is int-valued.  The
    values are 1-Lipschitz exactly when the cone min over s of
    f(s) + d(s, p), one `bfs_distances` search from all valued points cut
    at the largest value, gives back f(s) at every valued s, so one search
    decides a sound certificate; it also refuses an unknown point.  Only a
    failing one is walked pair by pair to name its violations, by label:
    no two values differ by more than the spread, the largest value less
    the least, so each pair search stops at that radius.
    """
    if not values:
        return []
    top = max(values.values())
    cone = bfs_distances(g, values, top)
    if all(cone[p] == f for p, f in values.items()):
        return []
    keys = sorted(values)
    radius = math.floor(top - min(values.values()))
    problems = []
    for i, p in enumerate(keys):
        dists = bfs_distances(g, {p: 0}, radius)
        for q in keys[i + 1:]:
            if q not in dists:
                continue
            spread = abs(values[p] - values[q])
            if spread > dists[q]:
                problems.append(f"|f({g.label(p)}) - f({g.label(q)})| = "
                                f"{spread} > distance {dists[q]}")
    return problems


def extend_certificate(g: Graph, cert: LipschitzCertificate,
                       x: int, y: int) -> dict[int, int]:
    """Extend the potential to both two-balls by the minimal cone rule.

    f(p) = min over support s of f(s) + d(s, p).  The extension stays
    1-Lipschitz and agrees with the certificate on its own support.  One
    `bfs_distances` search from both endpoints gives both two-balls and,
    within distance 1, the closed neighborhoods of x and y.  The support
    must lie in those, as an edge certificate's does; then every point of
    either two-ball is within distance 4 of every support point, so one
    search from the support, cut at the least value plus 4, covers both
    two-balls exactly.
    """
    g.require_edge(x, y)
    domain = bfs_distances(g, {x: 0, y: 0}, 2)
    for s in cert.values:
        if domain.get(s, 2) > 1:
            raise GraphError(f"certificate point {g.label(s)} lies outside "
                             f"the neighborhoods of {g.label(x)} and "
                             f"{g.label(y)}")
    cone = bfs_distances(g, cert.values,
                         min(cert.values.values(), default=0) + 4, domain)
    missing = domain.keys() - cone.keys()
    if missing:
        raise GraphError(f"extension target {g.label(min(missing))} "
                         f"unreachable from the support")
    out = {p: cone[p] for p in sorted(domain)}
    for s, f in cert.values.items():
        if out[s] != f:
            raise GraphError(f"internal: extension moved f({g.label(s)}) "
                             f"from {f} to {out[s]}")
    return out


# -- edge curvature --------------------------------------------------------


def kappa_detail(g: Graph, x: int, y: int) -> KappaResult:
    """Exact edge curvature with its optimal plan and dual certificate."""
    return wasserstein(TransportProblem(g, x, y))


def ollivier_kappa(g: Graph, x: int, y: int) -> Fraction:
    """Exact edge curvature, certified by `kappa_detail`."""
    return kappa_detail(g, x, y).kappa


# -- structure-driven witnesses --------------------------------------------


def _plan(g: Graph, x: int, y: int, d: int, moves) -> TransportPlan:
    """The lazy plan across (x, y) at degree d that sends each neighbor
    of x other than y along `moves`, (source, target) pairs.

    1/(2d) stays at x and at y, (d-1)/(2d) goes from x to y, and 1/(2d)
    goes along each move.  Every flow runs from N[x] to N[y], so
    `_move_lengths` prices it.
    """
    unit = Fraction(1, 2 * d)
    flows = [(x, x, unit), (y, y, unit), *((s, t, unit) for s, t in moves)]
    if d > 1:
        flows.append((x, y, Fraction(d - 1, 2 * d)))
    adj = g.neighbor_sets()
    cost = sum((mass * _move_lengths(adj, s, (t,))[0] for s, t, mass in flows),
               Fraction(0))
    return TransportPlan(tuple(sorted(flows)), cost)


def _linked_partner_plan(g: Graph, x: int, y: int, d: int):
    """Route each linked neighbor of x to its partner beside y, and the
    one unlinked neighbor, if any, to the partner left over.

    Needs every neighbor pair short of at most one to be linked; with no
    triangle and no 2x3 biclique the partners are unique and distinct, so
    the routing is a matching.  Cost is at most 1, giving kappa >= 0.
    """
    partners = edge_partners(g, x, y)
    if sum(not zs for zs in partners.values()) > 1:
        return None
    moves, used, leftover = [], set(), None
    for v, zs in partners.items():
        if not zs:
            leftover = v
            continue
        z = min(zs)
        used.add(z)
        moves.append((v, z))
    if leftover is not None:
        # equal degrees leave exactly one neighbor of y unmatched
        free = next(u for u in g.neighbors(y) if u != x and u not in used)
        moves.append((leftover, free))
    return _plan(g, x, y, d, moves)


def _biclique_plan(g: Graph, x: int, y: int, d: int):
    """Pair the biclique classes across the edge; every move has length 1."""
    classes = bipartite_decomposition(g, x, y)
    if classes is None:
        return None
    return _plan(g, x, y, d, [pair for s_cls, t_cls in classes
                              for pair in zip(sorted(s_cls), sorted(t_cls))])


def kappa_lower_witness(g: Graph, x: int, y: int) -> TransportPlan | None:
    """Explicit plan whose cost upper-bounds the transport distance.

    1 - total_cost then lower-bounds the edge curvature.  Tries the
    linked-partner routing first (regular, triangle-free, biclique-free
    neighborhoods), then the biclique-class routing (triangle-free with a
    full equal-part decomposition); `_plan` builds and prices both.  None
    when neither construction's hypotheses hold.
    """
    g.require_edge(x, y)
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
    partners = edge_partners(g, x, y)
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
    for p in sorted(bfs_distances(g, {x: 0, y: 0}, 2)):
        if p not in values:
            values[p] = 1
    bad = certificate_violations(g, values)
    if bad:
        raise GraphError("internal: witness potential not 1-Lipschitz: " + bad[0])
    tp = TransportProblem(g, x, y)
    dual = Fraction(sum(u * values[t] for t, u in tp.nu)
                    - sum(u * values[s] for s, u in tp.mu), tp.scale)
    return LipschitzCertificate(values, dual, wasserstein(tp).wasserstein - dual)
