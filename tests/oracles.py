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
`ollivier_kappa` on every edge.  `solve_integer_transport` poses general
transport problems (costs above 3, supports that are not closed
neighborhoods) to the package's flow and integer certificate, so the
transport oracle can check more than the edge problems the package
itself builds.  The decomposition oracle finds the biclique classes
across an edge by Galois closures, where the package groups neighbors.
The diameter oracle runs the package's single-source BFS from every
vertex, where the package runs one bit-parallel multi-source BFS.  The
link-profile oracle recounts each joining vertex's first-sphere
neighbors for every pair and adds the linkage weights one `Fraction` at
a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from graphcurvature.bakry_emery import cd_curvature, gamma2_form
from graphcurvature.checks import EdgeFact, VertexFact
from graphcurvature.classify import (
    LinkProfile,
    StructureClass,
    classify_vertex,
    flat_test_vector,
    negative_test_vector,
)
from graphcurvature.graphs import bfs_distances, extract_ball
from graphcurvature.ollivier import (
    _dual_certificate,
    _min_cost_flow,
    ollivier_kappa,
)


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


def solve_integer_transport(g, mu, nu):
    """Transport between two measures at cost = graph distance, through
    the package's flow and certificate.

    mu and nu map support points to positive integer weights, each read
    as a probability measure, on a connected graph.  The masses go over
    the common scale lcm(total mu, total nu).  Returns the cost matrix,
    supply and demand (sorted supports, in units of that scale), the
    certified plan cost in those units and the potential by point.
    """
    total_mu, total_nu = sum(mu.values()), sum(nu.values())
    scale = math.lcm(total_mu, total_nu)
    sources, targets = sorted(mu), sorted(nu)
    cost = [[bfs_distances(g, s)[t] for t in targets] for s in sources]
    supply = [mu[s] * (scale // total_mu) for s in sources]
    demand = [nu[t] * (scale // total_nu) for t in targets]
    flow, pot = _min_cost_flow(cost, supply, demand)
    cells = [(i, j, f, None) for i, row in enumerate(flow)
             for j, f in enumerate(row) if f > 0]
    total, values = _dual_certificate(sources, targets, cost, supply, demand,
                                      cells, pot)
    return cost, supply, demand, total, values


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


def vertex_facts_one_by_one(g) -> tuple[VertexFact, ...]:
    """The vertex facts of checks.gather_facts, each computed from its own
    two-ball with no reuse between vertices."""
    vfacts = []
    for x in g.vertices:
        if not g.two_ball_complete(x) or g.degree(x) == 0:
            vfacts.append(VertexFact(x, g.label(x), g.degree(x), False,
                                     None, None, None, None, None, None, None))
            continue
        ball = extract_ball(g, x)
        form = gamma2_form(ball)
        rho = cd_curvature(ball).rho
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
    certified by its own ollivier_kappa call."""
    return tuple(
        EdgeFact(x, y, True, ollivier_kappa(g, x, y))
        if g.transport_neighborhood_complete(x, y)
        else EdgeFact(x, y, False, None)
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


def oracle_bipartite_decomposition(g, x, y):
    """Equal-part biclique classes across edge (x, y) of a triangle-free
    graph, by Galois closures.

    Each unassigned neighbor w of x beside y seeds the closure of {y, w},
    which must be an equal-part biclique through the edge with no side
    vertex already in a class.  The classes must tile N(x) - y and
    N(y) - x, and the closure seeded anywhere inside a class must
    reproduce it.  None when any of this fails.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}

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


def oracle_diameter(g) -> int | None:
    """Largest pairwise distance by one full BFS per vertex, or None when
    the graph is disconnected."""
    n = len(g.vertices)
    best = 0
    for v in g.vertices:
        dist = bfs_distances(g, v)
        if len(dist) < n:
            return None
        best = max(best, max(dist.values()))
    return best
