"""Independent slow implementations used only to cross-check the library.

The transport oracle explores transportation-polytope extreme points by
exhaustive cell saturation, the dual oracle solves the Lipschitz
constraint system by Bellman-Ford, the spectral oracle minimizes the
Rayleigh quotient by projected gradient descent from many random starts,
and the reference Gamma2 kernels assemble and reduce the doubled Gamma2
form entry by entry in Fractions; none of these shares code with the
package.  Two helpers are the exceptions.  The reference vertex sweep
calls the package's kernels, but at every vertex afresh, with nothing
shared between vertices, and the reference edge sweep likewise calls
`ollivier_kappa` and `bipartite_decomposition` on every edge.
`solve_integer_transport` poses general transport problems (costs above
3, supports that are not closed neighborhoods) to the package's flow and
integer certificate, so the transport oracle can check more than the edge
problems the package itself builds.  `reference_min_cost_flow` is the
package's flow solver before its Dijkstra scanned arcs in plain loops,
which the package's must match flow for flow and potential for
potential.  The decomposition oracle finds the biclique classes across
an edge by Galois closures, where the package groups neighbors.
The rho oracle decides the sign of rho - r by Sylvester's minor
criteria, each minor a Fraction Gaussian elimination, where the package
runs one fraction-free elimination with diagonal pivoting.
`bfs` is a plain single-source breadth-first search of its own, the
reference for the package's one multi-source search, `bfs_distances`;
the diameter oracle runs it from every vertex, where the package runs
one bit-parallel multi-source BFS.  The orbit oracle merges each vertex
with its images under the declared symmetries in a union-find, where
the package searches breadth first.  The zigzag oracle walks every
2-walk from every vertex into an edge set and tests each lifted
symmetry edge by edge, where the package emits the edges across each
first-factor edge once.  The hypercube oracle joins each id to its d
flips one by one, where the package reads edges, edge labels and
symmetries off one XOR table; the flip-graph oracle walks triangulations
as frozensets of diagonals, where the package walks bitmasks.  The
ball-key oracle scans whole neighbor sets of an extracted two-ball,
where the package reads the key off the graph's rows.  The link-profile
oracle recounts each joining vertex's first-sphere neighbors for every
pair and adds the linkage weights one `Fraction` at a time.  The section oracle
formats every report row from its own fact, where the package formats
each class's values once, and the CSV oracle writes one csv.writer row
per report row, where the package quotes each label and each class's
cells once.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

from graphcurvature.bakry_emery import (
    certify_rho,
    eliminate_second_neighbors,
    gamma2_form,
)
from graphcurvature.checks import (
    CheckResult,
    EdgeFact,
    VertexFact,
    check_duality,
    check_witness_bounds,
    diameter_bounds,
)
from graphcurvature.classify import (
    LinkProfile,
    StructureClass,
    bipartite_decomposition,
    cd_ollivier_consistency,
    classify_vertex,
    flat_test_vector,
    negative_test_vector,
)
from graphcurvature.graphs import (
    Graph,
    GraphError,
    contains_k3,
    diameter,
    effective_degree,
    extract_ball,
)
from graphcurvature.ollivier import (
    _dual_certificate,
    _min_cost_flow,
    ollivier_kappa,
)


def bfs(g, source, radius=None) -> dict:
    """Distances from source, optionally cut off at radius, by a plain
    breadth-first search over g.neighbors."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if radius is not None and dist[v] >= radius:
            continue
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def oracle_wasserstein(cost, supply, demand) -> Fraction:
    """Exact minimum transport cost by recursive cell saturation.

    Every extreme point of the transportation polytope is reachable by
    repeatedly picking a cell and shipping the full min(row, column)
    remainder through it, so minimizing over all such sequences is exact.
    Masses are scaled to integers first so memo states are cheap to hash,
    and a state with a single live row or column is priced directly (the
    plan there is forced).  Exponential in the supports and in the mass
    scale: on one core of a 2-vCPU host under Python 3.11, 6x4 instances
    with weights 1..4 take 0.1-0.5 s, but a single 6x6 instance with
    weights 1..2 takes 9-13 s.  The tests stay within supports of 4x4
    with weights 1..5, at most 20 plan cells with weights 1..4, and
    supports up to 6x6 only with masses in twelfths.
    """
    supply = [Fraction(x) for x in supply]
    demand = [Fraction(x) for x in demand]
    if sum(supply) != sum(demand):
        raise ValueError(f"mass mismatch {sum(supply)} != {sum(demand)}")
    scale = math.lcm(*(x.denominator for x in supply + demand))
    m, n = len(supply), len(demand)
    memo: dict = {}

    def rec(s, t):
        rows = [i for i in range(m) if s[i]]
        if not rows:
            return 0
        if len(rows) == 1:
            i = rows[0]
            return sum(t[j] * cost[i][j] for j in range(n) if t[j])
        cols = [j for j in range(n) if t[j]]
        if len(cols) == 1:
            j = cols[0]
            return sum(s[i] * cost[i][j] for i in rows)
        key = (s, t)
        if key in memo:
            return memo[key]
        best = None
        for i in rows:
            for j in cols:
                move = min(s[i], t[j])
                ns = s[:i] + (s[i] - move,) + s[i + 1:]
                nt = t[:j] + (t[j] - move,) + t[j + 1:]
                val = move * cost[i][j] + rec(ns, nt)
                if best is None or val < best:
                    best = val
        memo[key] = best
        return best

    raw = rec(tuple(int(x * scale) for x in supply),
              tuple(int(x * scale) for x in demand))
    return Fraction(raw) / scale


def pose_integer_transport(g, mu, nu):
    """Transport between two measures at cost = graph distance, in integers.

    mu and nu map support points to positive integer weights, each read
    as a probability measure, on a connected graph.  The masses go over
    the common scale lcm(total mu, total nu).  Returns the sorted sources
    and targets, the cost matrix, and supply and demand in units of that
    scale.
    """
    total_mu, total_nu = sum(mu.values()), sum(nu.values())
    scale = math.lcm(total_mu, total_nu)
    sources, targets = sorted(mu), sorted(nu)
    cost = [[bfs(g, s)[t] for t in targets] for s in sources]
    supply = [mu[s] * (scale // total_mu) for s in sources]
    demand = [nu[t] * (scale // total_nu) for t in targets]
    return sources, targets, cost, supply, demand


def solve_integer_transport(g, mu, nu):
    """`pose_integer_transport`'s problem, through the package's flow and
    certificate.

    Returns the cost matrix, supply and demand, the certified plan cost
    in units of the masses' scale and the potential by point.
    """
    sources, targets, cost, supply, demand = pose_integer_transport(g, mu, nu)
    flow, pot = _min_cost_flow(cost, supply, demand)
    cells = [(i, j, f, None) for i, row in enumerate(flow)
             for j, f in enumerate(row) if f > 0]
    total, values = _dual_certificate(sources, targets, cost, supply, demand,
                                      cells, pot)
    return cost, supply, demand, total, values


def reference_min_cost_flow(cost, supply, demand):
    """The package's `_min_cost_flow` as it was before its Dijkstra's arc
    scans became plain loops, kept whole as the reference it must match
    flow for flow and potential for potential.

    Integral min-cost transportation by successive shortest paths.

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
        _reference_dijkstra(cost, flow, pot, dist)
        if all(dist[m + j] is None for j in range(n) if rem_t[j] > 0):
            raise GraphError("internal: live demand unreachable")
        for k, d in enumerate(dist):
            if d is not None:
                pot[k] += d
        path = _reference_zero_cost_path(cost, flow, pot, rem_s, rem_t)
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
            path = _reference_zero_cost_path(cost, flow, pot, rem_s, rem_t)
    top = max(pot)
    dist = [top - p for p in pot]
    _reference_dijkstra(cost, flow, pot, dist)
    phi = [d + p for d, p in zip(dist, pot)]
    low = min(phi)
    return flow, [f - low for f in phi]


def _reference_dijkstra(cost, flow, pot, dist):
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


def _reference_zero_cost_path(cost, flow, pot, rem_s, rem_t):
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


def bellman_ford_potential(points, distance, flows) -> dict:
    """Normal-form optimal potential for a plan, by Bellman-Ford.

    Arcs q -> p of weight d(q, p) enforce the Lipschitz bound both ways
    and arcs t -> s of weight -d(s, t) per used route force the bound
    tight along the plan, so the solutions are the optimal potentials.
    Shortest paths from a root joined to every point at cost 0 give the
    greatest one that is at most 0; it is returned shifted to least
    value 0.
    """
    pts = sorted(points)
    arcs = [(q, p, distance(q, p)) for q in pts for p in pts if p != q]
    arcs += [(t, s, -distance(s, t)) for s, t, _ in flows if s != t]
    dist = dict.fromkeys(pts, 0)
    for _ in range(len(pts) + 1):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    else:
        raise ValueError("dual constraint system has a negative cycle")
    low = min(dist.values())
    return {p: d - low for p, d in dist.items()}


def rayleigh_minimum(matrix: np.ndarray, restarts: int = 100,
                     iters: int = 300, seed: int = 0) -> float:
    """Smallest Rayleigh quotient of a symmetric matrix, no eigensolver.

    Batched projected gradient on the unit sphere with an exact 2x2
    subspace line search per step.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(restarts, n))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    for _ in range(iters):
        mf = f @ m
        q = np.sum(f * mf, axis=1)
        r = mf - q[:, None] * f
        nr = np.linalg.norm(r, axis=1)
        live = nr > 1e-14
        if not live.any():
            break
        u = np.zeros_like(f)
        u[live] = r[live] / nr[live, None]
        # minimize the quotient exactly on span{f, u}
        b = np.sum(u * mf, axis=1)
        c = np.sum(u * (u @ m), axis=1)
        half_tr = (q + c) / 2
        rad = np.sqrt(((q - c) / 2) ** 2 + b ** 2)
        lam = half_tr - rad
        # eigenvector of [[q, b], [b, c]] for the smaller eigenvalue
        alpha = lam - c
        beta = b
        norm = np.hypot(alpha, beta)
        flat = norm < 1e-15
        alpha = np.where(flat, 1.0, alpha)
        beta = np.where(flat, 0.0, beta)
        norm = np.where(flat, 1.0, norm)
        newf = (alpha / norm)[:, None] * f + (beta / norm)[:, None] * u
        newf /= np.linalg.norm(newf, axis=1, keepdims=True)
        f = np.where(live[:, None], newf, f)
    mf = f @ m
    q = np.sum(f * mf, axis=1)
    return float(q.min())


def fraction_gamma2(ball) -> tuple[tuple[int, ...], list[list[Fraction]]]:
    """Twice Gamma2 at the base of a complete LocalBall, over sphere1 +
    sphere2, as (index, Fraction matrix)."""
    s1, s2 = ball.sphere1, ball.sphere2
    index = s1 + s2
    pos = {v: i for i, v in enumerate(index)}
    s2_set = set(s2)
    n = len(index)
    m = [[Fraction(0)] * n for _ in range(n)]
    dx = len(ball.adj[ball.base])
    for v in s1:
        i = pos[v]
        for u in ball.adj[v]:
            if u in s2_set:
                j = pos[u]
                m[j][j] += Fraction(1, 2)
                m[i][i] += 2
                m[i][j] -= 1
                m[j][i] -= 1
        # squared neighbor sum
        m[i][i] += 1
        for w in s1:
            if w != v:
                m[i][pos[w]] += 1
        m[i][i] += Fraction(4 - dx - len(ball.adj[v]), 2)
    # adjacent neighbor pairs form triangles with the base
    for a, v in enumerate(s1):
        for w in s1[a + 1:]:
            if w in ball.adj[v]:
                i, j = pos[v], pos[w]
                m[i][i] += Fraction(5, 2)
                m[j][j] += Fraction(5, 2)
                m[i][j] -= 2
                m[j][i] -= 2
    return index, m


def fraction_schur(ball, matrix) -> list[list[Fraction]]:
    """Schur complement of the (diagonal) sphere2 block of a
    fraction_gamma2 matrix, over sphere1."""
    n1, n2 = len(ball.sphere1), len(ball.sphere2)
    red = [[matrix[i][j] for j in range(n1)] for i in range(n1)]
    for a in range(n2):
        d = matrix[n1 + a][n1 + a]
        col = [matrix[i][n1 + a] for i in range(n1)]
        for i in range(n1):
            if col[i] == 0:
                continue
            for j in range(n1):
                if col[j] != 0:
                    red[i][j] -= col[i] * col[j] / d
    return red


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian
    elimination with row swaps."""
    a = [list(map(Fraction, row)) for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
    return det


def fraction_rho_sign(matrix, scale, r) -> int:
    """The sign of rho - r for the least eigenvalue rho of matrix / scale,
    by Sylvester's criteria on A = matrix / scale - r I in Fractions: rho
    > r when every leading principal minor of A is positive, and rho >= r
    when every principal minor is non-negative.  It takes 2^n minors, so
    it is for small matrices only."""
    n = len(matrix)
    a = [[Fraction(x, scale) - (r if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(matrix)]

    def minor(keep):
        return fraction_det([[a[i][j] for j in keep] for i in keep])

    if all(minor(range(k)) > 0 for k in range(1, n + 1)):
        return 1
    if all(minor(keep) >= 0 for k in range(1, n + 1)
           for keep in combinations(range(n), k)):
        return 0
    return -1


def vertex_facts_one_by_one(g) -> tuple[VertexFact, ...]:
    """The vertex facts of checks.gather_facts, each computed from its own
    two-ball with no reuse between vertices: rho is certified from the
    vertex's own reduced form, where the sweep certifies it once per
    class."""
    vfacts = []
    for x in g.vertices:
        if not g.two_ball_complete(x) or g.degree(x) == 0:
            vfacts.append(VertexFact(x, g.label(x), g.degree(x), False,
                                     None, None, None, None, None, None, None))
            continue
        ball = extract_ball(g, x)
        form = gamma2_form(ball)
        rho = certify_rho(eliminate_second_neighbors(form, ball))
        verdict = classify_vertex(g, ball)
        profile = verdict.profile
        min_linkage = None
        counts = None
        flat_val = None
        neg_val = None
        if profile is not None:
            counts = dict(profile.nonlink_counts)
            if profile.linkage:
                min_linkage = min(profile.linkage.values())
            cls = verdict.structure_class
            if cls is StructureClass.ONE_UNLINKED:
                pair = profile.first_unlinked_pair(ball.sphere1)
                flat_val = form.value(flat_test_vector(ball, pair))
            elif cls is StructureClass.MULTI_UNLINKED:
                y = profile.first_deficient(ball.sphere1)
                neg_val = form.value(negative_test_vector(ball, y))
        vfacts.append(VertexFact(
            x, g.label(x), g.degree(x), True, rho,
            verdict.structure_class, verdict.N, counts, min_linkage,
            flat_val, neg_val,
        ))
    return tuple(vfacts)


def edge_facts_one_by_one(g) -> tuple[EdgeFact, ...]:
    """The edge facts of checks.gather_facts, each edge posed, solved and
    certified by its own ollivier_kappa call, and its biclique
    decomposition sought by its own bipartite_decomposition call."""
    triangle_free = not contains_k3(g)
    return tuple(
        EdgeFact(x, y, True, ollivier_kappa(g, x, y),
                 bipartite_decomposition(g, x, y) is not None
                 if triangle_free else None)
        if g.transport_neighborhood_complete(x, y)
        else EdgeFact(x, y, False, None, None)
        for x, y in g.edges
    )


def oracle_link_profile(ball) -> LinkProfile:
    """classify.link_profile pair by pair: the joining vertices of each
    neighbor pair, each weighted by one over its first-sphere neighbors,
    recounted for every pair and summed as Fractions."""
    s1 = ball.sphere1
    s1_set = set(s1)
    links = {}
    linkage = {}
    for a, v in enumerate(s1):
        for w in s1[a + 1:]:
            zs = tuple(z for z in ball.adj[w]
                       if z != ball.base and z in ball.adj[v])
            links[(v, w)] = zs
            total = Fraction(0)
            for z in zs:
                total += Fraction(1, sum(1 for t in ball.adj[z] if t in s1_set))
            linkage[(v, w)] = total
    nonlink = {y: sum(1 for w in s1 if w != y
                      and not links[(y, w) if y < w else (w, y)])
               for y in s1}
    return LinkProfile(links, linkage, nonlink, max(nonlink.values(), default=0))


class _NeighborSets(dict):
    """v -> the set of v's neighbors in g, read from g when first asked
    for, so that an oracle near one edge reads only the rows it needs."""

    def __init__(self, g):
        super().__init__()
        self._g = g

    def __missing__(self, v):
        self[v] = found = set(self._g.neighbors(v))
        return found


def oracle_bipartite_decomposition(g, x, y):
    """Equal-part biclique classes across edge (x, y) of a triangle-free
    graph, by Galois closures.

    Each unassigned neighbor w of x beside y seeds the closure of {y, w},
    which must be an equal-part biclique through the edge with no side
    vertex already in a class.  The classes must tile N(x) - y and
    N(y) - x, and the closure seeded anywhere inside a class must
    reproduce it.  None when any of this fails.
    """
    adj = _NeighborSets(g)

    def closure(seed):
        a_side = set.intersection(*(adj[b] for b in seed))
        return a_side, set.intersection(*(adj[a] for a in a_side))

    rest_x = [w for w in g.neighbors(x) if w != y]
    rest_y = adj[y] - {x}
    classes = []
    assigned = set()
    for w in rest_x:
        if w in assigned:
            continue
        a_side, b_side = closure({y, w})
        if x not in a_side or y not in b_side or w not in b_side:
            return None
        if len(a_side) != len(b_side):
            return None
        s = tuple(sorted(b_side - {y}))
        t = tuple(sorted(a_side - {x}))
        if assigned & set(s) or not set(s) <= set(rest_x) or not set(t) <= rest_y:
            return None
        classes.append((s, t))
        assigned.update(s)
    if len(assigned) != len(rest_x):
        return None
    t_all = [v for _, t in classes for v in t]
    if len(t_all) != len(set(t_all)) or set(t_all) != rest_y:
        return None
    for s, t in classes:
        for w in s:
            if closure({y, w}) != (set(t) | {x}, set(s) | {y}):
                return None
    return classes


def zigzag_one_by_one(g1, g2):
    """The zigzag product of g1 (edge-labelled by V(g2)) with g2, walked
    from every vertex: each 2-walk x ~ y ~ z in g2 at (a, x) adds the
    edge (a, x) ~ (a[y], z) to a set, so each edge is found from both
    ends.  A symmetry s of g1 lifts to (a, x) -> (s(a), x) when it maps
    every labelled edge onto an edge of the same label, tested edge by
    edge.  families.zigzag instead emits the edges across each g1 edge
    once and tests the labels through the partner maps."""
    n1, n2 = len(g1.vertices), len(g2.vertices)
    across = [{} for _ in range(n1)]
    for (u, v), lab in g1.edge_labels.items():
        across[u][lab] = v
        across[v][lab] = u
    edges = set()
    for a in range(n1):
        for x in range(n2):
            for y in g2.neighbors(x):
                b = across[a][y]
                for z in g2.neighbors(y):
                    p, q = a * n2 + x, b * n2 + z
                    if p != q:
                        edges.add((min(p, q), max(p, q)))
    labels = {a * n2 + x: f"({g1.label(a)},{g2.label(x)})"
              for a in range(n1) for x in range(n2)}
    out = Graph(range(n1 * n2), sorted(edges), labels=labels,
                name=f"zigzag-{g1.name or 'g1'}-{g2.name or 'g2'}")
    labelled = g1.edge_labels
    out.symmetries = tuple(
        tuple(s[a] * n2 + x for a in range(n1) for x in range(n2))
        for s in g1.symmetries
        if all(labelled.get((min(s[u], s[v]), max(s[u], s[v]))) == lab
               for (u, v), lab in labelled.items()))
    return out


def hypercube_one_by_one(d: int) -> Graph:
    """The d-cube built id by id: every id a is joined to a ^ (1 << i) for
    each coordinate i, labelled one character per coordinate, with the d
    coordinate flips as symmetries.  families.hypercube reads the same
    from one XOR table."""
    n = 1 << d
    edges = []
    edge_labels = {}
    for a in range(n):
        for i in range(d):
            b = a ^ (1 << i)
            if a < b:
                edges.append((a, b))
                edge_labels[(a, b)] = i
    labels = {a: "".join("1" if a >> i & 1 else "0" for i in range(d))
              for a in range(n)}
    g = Graph(range(n), edges, labels=labels, edge_labels=edge_labels,
              name=f"hypercube-{d}")
    g.symmetries = tuple(tuple(a ^ (1 << i) for a in range(n))
                         for i in range(d))
    return g


def _flip_neighbors(n: int, tri: frozenset) -> list[frozenset]:
    """The triangulations one flip away from tri, one per diagonal: the
    apexes of a diagonal's two triangles are its endpoints' only common
    polygon-or-diagonal neighbors."""
    adj = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    for a, b in tri:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    for a, b in sorted(tri):
        apexes = adj[a] & adj[b]
        assert len(apexes) == 2, (a, b)
        c, d = sorted(apexes)
        out.append((tri - {(a, b)}) | {(c, d)})
    return out


def flip_graph_one_by_one(n: int) -> Graph:
    """The flip graph of the convex n-gon over frozensets of diagonals,
    each triangulation's flips found by set intersections, and its
    rotation and reflection applied diagonal by diagonal.
    families.flip_graph walks the same triangulations as bitmasks."""
    fan = frozenset((0, j) for j in range(2, n - 1))
    flips = {}
    todo = [fan]
    while todo:
        tri = todo.pop()
        if tri not in flips:
            flips[tri] = _flip_neighbors(n, tri)
            todo.extend(flips[tri])
    order = sorted(flips, key=lambda tri: sorted(tri))
    index = {tri: i for i, tri in enumerate(order)}
    edges = {(i, j) for tri, i in index.items()
             for j in map(index.__getitem__, flips[tri]) if i < j}
    labels = {
        i: ".".join(f"{a}{b}" if n <= 10 else f"{a}-{b}" for a, b in sorted(tri))
        for tri, i in index.items()
    }
    g = Graph(range(len(order)), sorted(edges), labels=labels, name=f"flip-{n}")
    g.symmetries = tuple(
        tuple(index[frozenset(tuple(sorted((move(a), move(b)))) for a, b in tri)]
              for tri in order)
        for move in (lambda i: (i + 1) % n, lambda i: -i % n))
    return g


def ball_key_one_by_one(g, x) -> tuple[int, ...]:
    """checks._ball_key at x from the LocalBall extract_ball builds: every
    ball vertex's whole neighbor set is scanned, a vertex outside the
    ball reading as position 0, where the package intersects each sphere2
    row with sphere2."""
    ball = extract_ball(g, x)
    pos = {ball.base: 0}
    for v in ball.sphere1 + ball.sphere2:
        pos[v] = len(pos)
    n = len(pos)
    adj = g.neighbor_sets()
    codes = sorted(i * n + j for v, i in pos.items()
                   for j in (pos.get(w, 0) for w in adj[v]) if j > i)
    return (effective_degree(g, ball.base), n, *codes)


def orbit_roots(g) -> list[int]:
    """The smallest vertex of each orbit of the group that g.symmetries
    generate, in increasing order, by union-find."""
    up = {v: v for v in g.vertices}

    def find(v):
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    for s in g.symmetries:
        for v in g.vertices:
            a, b = find(v), find(s[v])
            if a != b:
                up[max(a, b)] = min(a, b)
    return [v for v in g.vertices if find(v) == v]


def oracle_diameter(g) -> int | None:
    """Largest pairwise distance by one full BFS per vertex, or None when
    the graph is disconnected."""
    n = len(g.vertices)
    best = 0
    for v in g.vertices:
        dist = bfs(g, v)
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best


def oracle_contains_k3(g) -> bool:
    """Whether two neighbors of some vertex are adjacent, vertex by
    vertex and pair by pair."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    return any(c in adj[b] for a in g.vertices
               for b, c in combinations(g.neighbors(a), 2))


def oracle_contains_k23(g) -> bool:
    """Whether two vertices share three neighbors, pair by pair."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    return any(len(adj[u] & adj[v]) >= 3
               for i, u in enumerate(g.vertices) for v in g.vertices[i + 1:])


def _result(name, applicable, problems, note=""):
    if not applicable:
        return CheckResult(name, False, True, (note,) if note else ())
    return CheckResult(name, True, not problems, tuple(problems))


def _kappa_map(facts):
    out = {}
    for ef in facts.edges:
        if ef.kappa is not None:
            out[(ef.x, ef.y)] = ef.kappa
            out[(ef.y, ef.x)] = ef.kappa
    return out


def _cd_class(facts):
    problems = []
    seen = False
    for vf in facts.vertices:
        cls = vf.structure_class
        if cls is None or cls is StructureClass.INAPPLICABLE:
            continue
        seen = True
        tag = f"{facts.key} vertex {vf.label}"
        rho = vf.rho
        if cls is StructureClass.FULLY_LINKED and rho.sign(2) != 0:
            problems.append(f"{tag}: fully linked but rho = {rho.value!r}")
        elif cls is StructureClass.ONE_UNLINKED and rho.sign(0) != 0:
            problems.append(f"{tag}: one unlinked but rho = {rho.value!r}")
        elif cls is StructureClass.MULTI_UNLINKED:
            bound = Fraction(-2, vf.degree - 1)
            if not (rho.sign(0) < 0 and rho.sign(bound) <= 0):
                problems.append(
                    f"{tag}: multi unlinked but rho = {rho.value!r} "
                    f"(needs < 0 and <= {float(bound)})"
                )
    return _result("cd-class", seen, problems, "no classified vertices")


def _ollivier_class(facts):
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


def _cd_vs_ollivier(facts):
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
        g = facts.graph
        kappas = {g.label(y): kmap[(vf.vertex, y)] for y in g.neighbors(vf.vertex)}
        ok, viol = cd_ollivier_consistency(vf.rho, kappas)
        if not ok:
            problems.extend(f"{facts.key} vertex {vf.label}: {v}" for v in viol)
    return _result("cd-vs-ollivier", seen, problems, "no safe vertices")


def _linkage_positive_cd(facts):
    if not facts.triangle_free:
        return _result("linkage-positive-cd", False, [], "graph has triangles")
    problems = []
    seen = False
    for vf in facts.vertices:
        if not vf.safe:
            continue
        seen = True
        tag = f"{facts.key} vertex {vf.label}"
        if vf.rho.sign(2) > 0:
            problems.append(
                f"{tag}: triangle-free but rho = {vf.rho.value!r} > 2")
        if effective_degree(facts.graph, vf.vertex) is None:
            continue
        heavy = vf.min_linkage is None or vf.min_linkage >= Fraction(1, 2)
        if heavy and vf.rho.sign(2) != 0:
            problems.append(
                f"{tag}: every pair linkage >= 1/2 but "
                f"rho = {vf.rho.value!r} != 2"
            )
    return _result("linkage-positive-cd", seen, problems, "no safe vertices")


def _bipartite_transport(facts):
    if not facts.triangle_free:
        return _result("bipartite-transport", False, [], "graph has triangles")
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edges:
        if not ef.decomposable:
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


def _transport_upper_bound(facts):
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


def _test_vectors(facts):
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


def _quantization(facts):
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


def _diameter_bounds(facts):
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
    if dia is None:
        return _result("diameter-bounds", False, [], "graph is disconnected")
    problems = [f"{facts.key}: {name} violated: {stmt}"
                for name, stmt, holds in diameter_bounds(
                    facts.graph, dia, kstar, facts.regular) if not holds]
    return _result("diameter-bounds", True, problems)


def checks_one_by_one(facts) -> list[CheckResult]:
    """checks.run_checks with every statement replayed at every vertex
    and edge."""
    return [chk(facts) for chk in (
        _cd_class, _ollivier_class, _cd_vs_ollivier, _linkage_positive_cd,
        _bipartite_transport, _transport_upper_bound, _test_vectors,
        check_witness_bounds, check_duality, _quantization, _diameter_bounds)]


def section_one_by_one(facts, results) -> tuple:
    """report.section's graph, vertex rows, edge rows and checks, with
    every vertex and edge row formatted from its own fact."""
    label = facts.graph.label
    vertices = [
        (vf.label, vf.safe,
         None if vf.rho is None else f"{vf.rho.value:.15g}",
         None if vf.structure_class is None else vf.structure_class.value,
         vf.N)
        for vf in facts.vertices]
    edges = [
        (label(ef.x), label(ef.y), ef.safe,
         None if ef.kappa is None else str(ef.kappa),
         None if ef.kappa is None else f"{float(ef.kappa):.15g}")
        for ef in facts.edges]
    return facts.key, vertices, edges, list(results)


def csv_one_by_one(report) -> str:
    """report.to_csv with one csv.writer row per vertex, edge and check,
    read off the section row iterators.  Each row is written alone, ended
    in "\r\n" so that the module quotes a field holding a bare "\r" on
    every supported Python, and is then ended in "\n" instead."""
    rows = [["kind", "graph", "a", "b", "safe", "rho", "class", "N",
             "kappa", "kappa_decimal", "applicable", "passed", "details"]]
    sections = report.sections
    for s in sections:
        rows.extend(["vertex", s.graph, v, "", int(safe), rho or "",
                     cls or "", "" if n is None else n, "", "", "", "", ""]
                    for v, safe, rho, cls, n in s.vertex_rows())
    for s in sections:
        rows.extend(["edge", s.graph, x, y, int(safe), "", "", "",
                     kappa or "", decimal or "", "", "", ""]
                    for x, y, safe, kappa, decimal in s.edge_rows())
    for s in sections:
        rows.extend(["check", s.graph, r.name, "", "", "", "", "", "", "",
                     int(r.applicable), int(r.passed), "; ".join(r.details)]
                    for r in s.checks)
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)
