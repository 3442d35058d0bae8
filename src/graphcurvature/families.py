"""Graph family constructors.

Every generator returns a Graph with contiguous 0-based vertex ids,
human-readable labels, and a deterministic vertex order, so curvature
reports are reproducible run to run.  Families standing in for infinite
graphs (lattices, regular trees) carry a Truncation record; everything
else is finite and exact as built.  Some families declare symmetries
(Graph.symmetries) that generate a group acting on their vertices:
the hypercube's bit flips, left multiplication by the generators of a
permutation Cayley graph, the dihedral group of the polygon on its
triangulations, and the label-preserving symmetries of a zigzag
product's first factor.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

import numpy as np

from .graphs import Graph, GraphError, Truncation, is_regular


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube with bitstring labels.

    Character i of a label is coordinate i.  Each edge carries its flip
    coordinate as an edge label; the zigzag construction uses those as
    the per-vertex edge indexing.  The d coordinate flips are declared as
    symmetries; they keep every edge label.  All three come from one
    n x d table of a ^ (1 << i).
    """
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    # refuse a table larger than any numpy array may be; from d = 63
    # numpy would wrap the int64 ids rather than refuse them
    too_large = GraphError(f"hypercube of dimension {d} is too large to build")
    if n * d > np.iinfo(np.intp).max // 8:
        raise too_large
    try:
        ids = np.arange(n, dtype=np.int64)
        table = ids[:, None] ^ (1 << np.arange(d, dtype=np.int64))
    except MemoryError:
        raise too_large from None
    # row-major, so the edges (a, a ^ (1 << i)) with a < a ^ (1 << i)
    # come out sorted, by a and then by i
    rows, cols = np.nonzero(table > ids[:, None])
    edges = list(zip(rows.tolist(), table[rows, cols].tolist()))
    g = Graph(range(n), edges,
              labels={a: format(a, f"0{d}b")[::-1] for a in range(n)},
              edge_labels=dict(zip(edges, cols.tolist())),
              name=f"hypercube-{d}")
    g.symmetries = tuple(map(tuple, table.T.tolist()))
    return g


def cycle(k: int) -> Graph:
    """Cycle on k vertices, labelled "1".."k" in cyclic order."""
    if k < 3:
        raise GraphError("cycle needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    labels = {i: str(i + 1) for i in range(k)}
    return Graph(range(k), edges, labels=labels, name=f"cycle-{k}")


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GraphError("path needs k >= 1 vertices")
    return Graph(range(k), [(i, i + 1) for i in range(k - 1)], name=f"path-{k}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(range(n), itertools.combinations(range(n), 2), name=f"complete-{n}")


def complete_bipartite(n: int) -> Graph:
    """K_{n,n} with parts labelled l1..ln and r1..rn."""
    if n < 1:
        raise GraphError("complete bipartite needs n >= 1")
    edges = [(i, n + j) for i in range(n) for j in range(n)]
    labels = {i: f"l{i + 1}" for i in range(n)}
    labels.update({n + j: f"r{j + 1}" for j in range(n)})
    return Graph(range(2 * n), edges, labels=labels, name=f"complete-bipartite-{n}")


def star(n: int) -> Graph:
    """Star with n leaves; the center is labelled "c"."""
    if n < 1:
        raise GraphError("star needs n >= 1 leaves")
    labels = {0: "c"}
    labels.update({i: f"l{i}" for i in range(1, n + 1)})
    return Graph(range(n + 1), [(0, i) for i in range(1, n + 1)], labels=labels,
                 name=f"star-{n}")


def matching_graph(k: int) -> Graph:
    """k disjoint edges on 2k vertices."""
    if k < 1:
        raise GraphError("matching needs k >= 1 edges")
    return Graph(range(2 * k), [(2 * i, 2 * i + 1) for i in range(k)],
                 name=f"matching-{k}")


def path_union(edge_counts) -> Graph:
    """Disjoint union of paths, one per entry, entry = number of edges."""
    counts = list(edge_counts)
    if not counts or any(c < 1 for c in counts):
        raise GraphError("path union needs positive edge counts")
    edges = []
    base = 0
    for c in counts:
        edges.extend((base + i, base + i + 1) for i in range(c))
        base += c + 1
    name = "paths-" + "+".join(str(c) for c in counts)
    return Graph(range(base), edges, name=name)


def lattice_ball(n: int, radius: int) -> Graph:
    """L1 ball of the integer lattice Z^n, truncated at the given radius.

    Labels are coordinate tuples like "(1,-2)".  The truncation record
    marks the origin; curvature code uses it to refuse probes too close
    to the cut.
    """
    if n < 1:
        raise GraphError("lattice dimension must be >= 1")
    if radius < 0:
        raise GraphError("lattice radius must be >= 0")
    points = sorted(
        p for p in itertools.product(range(-radius, radius + 1), repeat=n)
        if sum(abs(c) for c in p) <= radius
    )
    index = {p: i for i, p in enumerate(points)}
    edges = []
    for p, i in index.items():
        for axis in range(n):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            j = index.get(q)
            if j is not None:
                edges.append((i, j))
    labels = {i: "(" + ",".join(str(c) for c in p) + ")" for p, i in index.items()}
    origin = index[(0,) * n]
    return Graph(range(len(points)), edges, labels=labels,
                 truncation=Truncation(origin, radius, host_degree=2 * n),
                 name=f"lattice-{n}-r{radius}")


def regular_tree(d: int, depth: int) -> Graph:
    """Finite piece of the infinite d-regular tree, all leaves at `depth`.

    Root is labelled "r"; each child appends ".i" (1-based) to its parent
    label.
    """
    if d < 1:
        raise GraphError("tree degree must be >= 1")
    if depth < 0:
        raise GraphError("tree depth must be >= 0")
    labels = {0: "r"}
    edges = []
    next_id = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            fanout = d if level == 0 else d - 1
            for i in range(fanout):
                w = next_id
                next_id += 1
                edges.append((v, w))
                labels[w] = f"{labels[v]}.{i + 1}"
                new_frontier.append(w)
        frontier = new_frontier
    return Graph(range(next_id), edges, labels=labels,
                 truncation=Truncation(0, depth, host_degree=d),
                 name=f"tree-{d}-depth{depth}")


def generalized_petersen(n: int, k: int) -> Graph:
    if n < 3 or not 1 <= k < n / 2:
        raise GraphError("generalized Petersen graph needs n >= 3, 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))            # outer cycle
        edges.append((i, n + i))                  # spokes
        edges.append((n + i, n + (i + k) % n))    # inner star polygon
    labels = {i: f"o{i}" for i in range(n)}
    labels.update({n + i: f"i{i}" for i in range(n)})
    return Graph(range(2 * n), edges, labels=labels, name=f"gpetersen-{n}-{k}")


def petersen() -> Graph:
    g = generalized_petersen(5, 2)
    g.name = "petersen"
    return g


def dodecahedron() -> Graph:
    g = generalized_petersen(10, 2)
    g.name = "dodecahedron"
    return g


def biplane_incidence() -> Graph:
    """Point-block incidence graph of the (7,4,2) biplane.

    Blocks are complements of the Fano lines {i, i+1, i+3} mod 7.  The
    result is 4-regular and bipartite; every pair on one side shares
    exactly two neighbors, so it is an (n,d,k) = (7,4,2) incidence graph.
    """
    edges = []
    for j in range(7):
        line = {j % 7, (j + 1) % 7, (j + 3) % 7}
        for p in range(7):
            if p not in line:
                edges.append((p, 7 + j))
    labels = {p: f"p{p}" for p in range(7)}
    labels.update({7 + j: f"b{j}" for j in range(7)})
    return Graph(range(14), edges, labels=labels, name="biplane-7-4-2")


# -- permutation families --------------------------------------------------


def _perm_label(p: tuple[int, ...]) -> str:
    if len(p) <= 9:
        return "".join(str(x + 1) for x in p)
    return ".".join(str(x + 1) for x in p)


def _swap(p: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def _permutation_cayley(n: int, generators, name: str) -> Graph:
    """Cayley graph, under the given position transpositions, of the
    subgroup of S_n they generate.

    Breadth-first search from the identity finds the subgroup, so the
    construction holds whether or not the generators reach all of S_n.
    Vertices are the permutations in sorted order.  An edge swaps two
    positions, so swapping two values commutes with it: left
    multiplication by each generator, which keeps the subgroup, is
    declared as a symmetry.
    """
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for a, b in generators:
                q = _swap(p, a, b)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    index = {p: i for i, p in enumerate(sorted(seen))}
    edges = set()
    for p, i in index.items():
        for a, b in generators:
            j = index[_swap(p, a, b)]
            if i < j:
                edges.add((i, j))
    labels = {i: _perm_label(p) for p, i in index.items()}
    g = Graph(range(len(index)), sorted(edges), labels=labels, name=name)
    g.symmetries = tuple(
        tuple(index[_swap(p, p.index(a), p.index(b))] for p in index)
        for a, b in generators)
    return g


def transposition_cayley(n: int) -> Graph:
    """Cayley graph of S_n generated by all transpositions."""
    if n < 2:
        raise GraphError("transposition Cayley graph needs n >= 2")
    gens = list(itertools.combinations(range(n), 2))
    return _permutation_cayley(n, gens, f"transpositions-{n}")


def adjacent_transposition_cayley(n: int) -> Graph:
    """Cayley graph of S_n generated by the adjacent transpositions."""
    if n < 2:
        raise GraphError("adjacent transposition Cayley graph needs n >= 2")
    gens = [(i, i + 1) for i in range(n - 1)]
    return _permutation_cayley(n, gens, f"adjacent-transpositions-{n}")


def interchange_graph(h: Graph) -> Graph:
    """State graph of the interchange process on h.

    States are the placements of |V(h)| labels reachable from the identity
    by swapping the two endpoints of an edge of h; equivalently the Cayley
    graph of the subgroup of the symmetric group generated by the edge
    transpositions.
    """
    positions = sorted(h.vertices)
    if not h.edges:
        raise GraphError("interchange process needs at least one edge")
    pos = {v: i for i, v in enumerate(positions)}
    gens = [(pos[u], pos[v]) for u, v in h.edges]
    host = h.name or f"{len(positions)}v"
    return _permutation_cayley(len(positions), gens, f"interchange-{host}")


# -- polygon triangulations ------------------------------------------------


def flip_graph(n: int) -> Graph:
    """Flip graph of triangulations of a convex n-gon.

    Vertices are the diagonal sets, in the order of their sorted diagonal
    lists; two triangulations are adjacent when one diagonal flip maps
    one to the other.  (n-3)-regular with Catalan(n-2) many vertices.
    The polygon's rotation i -> i+1 and reflection i -> -i (mod n),
    applied to every diagonal, are declared as symmetries.

    A triangulation is walked as a bitmask over the n(n-3)/2 diagonals,
    the smallest diagonal at the highest bit, so that of two masks the
    larger has the earlier sorted diagonal list.
    """
    if n < 4:
        raise GraphError("flip graph needs n >= 4")
    ends = [(a, b) for a in range(n) for b in range(a + 2, n) if b - a < n - 1]
    ends.reverse()  # ends[p] is the diagonal at bit p
    bit = {e: 1 << p for p, e in enumerate(ends)}
    ring = [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)]
    fan = sum(bit[(0, j)] for j in range(2, n - 1))
    # each triangulation's set bits, highest first, and its neighbors
    diagonals: dict[int, list[int]] = {}
    flips: dict[int, list[int]] = {}
    todo = [fan]
    while todo:
        tri = todo.pop()
        if tri in flips:
            continue
        ps = []
        adj = ring[:]
        m = tri
        while m:
            p = m.bit_length() - 1
            m ^= 1 << p
            ps.append(p)
            a, b = ends[p]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        out = []
        for p in ps:
            # convex position: the diagonal's two triangles have its only
            # common neighbors as apexes, and the flip joins them
            a, b = ends[p]
            apexes = adj[a] & adj[b]
            low = apexes & -apexes
            high = apexes ^ low
            if not high or high & (high - 1):
                raise GraphError(f"triangulation invariant broken at diagonal ({a},{b})")
            out.append(tri ^ 1 << p | bit[(low.bit_length() - 1, high.bit_length() - 1)])
        diagonals[tri] = ps
        flips[tri] = out
        todo.extend(out)
    order = sorted(flips, reverse=True)
    index = {tri: i for i, tri in enumerate(order)}
    edges = []
    for i, tri in enumerate(order):
        edges.extend((i, j) for j in sorted(index[t] for t in flips[tri]) if j > i)
    text = [f"{a}{b}" if n <= 10 else f"{a}-{b}" for a, b in ends]
    labels = {i: ".".join(map(text.__getitem__, diagonals[tri]))
              for i, tri in enumerate(order)}
    g = Graph(range(len(order)), edges, labels=labels, name=f"flip-{n}")
    g.symmetries = tuple(
        tuple(index[sum(map(image.__getitem__, diagonals[tri]))] for tri in order)
        for image in (
            [bit[tuple(sorted(((a + 1) % n, (b + 1) % n)))] for a, b in ends],
            [bit[tuple(sorted((-a % n, -b % n)))] for a, b in ends]))
    return g


# -- zigzag product --------------------------------------------------------


def zigzag(g1: Graph, g2: Graph) -> Graph:
    """Zigzag product of g1 (edge-labelled by V(g2)) with g2.

    Vertices are pairs (a, x); every 2-walk x ~ y ~ z in g2 contributes the
    edge (a, x) ~ (a[y], z), where a[y] is the g1-neighbor of a across the
    edge labelled y.  Requires the edge labelling to list every g2 vertex
    exactly once around each g1 vertex.  Each declared symmetry s of g1
    that keeps every edge label lifts to the symmetry (a, x) -> (s(a), x).
    """
    n1, n2 = len(g1.vertices), len(g2.vertices)
    if g1.vertices != tuple(range(n1)) or g2.vertices != tuple(range(n2)):
        raise GraphError("zigzag needs contiguous 0-based vertex ids")
    d1 = is_regular(g1)
    if d1 != n2:
        raise GraphError(f"g1 must be regular of degree |V(g2)| = {n2}, got {d1}")
    big_d = is_regular(g2)
    if big_d is None:
        raise GraphError("g2 must be regular")

    across: list[dict[int, int]] = [{} for _ in range(n1)]
    for (u, v), lab in g1.edge_labels.items():
        if lab in across[u] or lab in across[v]:
            raise GraphError(f"edge label {lab} repeats at a vertex of {g1.name or 'g1'}")
        across[u][lab] = v
        across[v][lab] = u
    full = set(range(n2))
    for a in range(n1):
        if set(across[a]) != full:
            raise GraphError(f"vertex {a} of g1 is missing some edge labels")

    # a g1 edge a < b labelled y joins (a, x) to (b, z) for every x and z
    # next to y in g2, the 2-walks x ~ y ~ z; each edge arises once, as
    # the label of a g1 edge is unique
    edges = []
    for (a, b), y in g1.edge_labels.items():
        ring = g2.neighbors(y)
        edges.extend(itertools.product([a * n2 + x for x in ring],
                                       [b * n2 + z for z in ring]))
    left = [g1.label(a) for a in range(n1)]
    right = [g2.label(x) for x in range(n2)]
    labels = dict(enumerate(f"({s},{t})" for s in left for t in right))
    out = Graph(range(n1 * n2), edges, labels=labels,
                name=f"zigzag-{g1.name or 'g1'}-{g2.name or 'g2'}")
    deg = is_regular(out)
    if deg != big_d * big_d:
        raise GraphError(f"zigzag output degree {deg}, expected {big_d * big_d}")
    # s keeps every edge label when it commutes with each partner map
    # a -> a[y]; the tuples compare both composites at C speed
    partner = [tuple(across[a][y] for a in range(n1)) for y in range(n2)]
    out.symmetries = tuple(
        tuple(itertools.chain.from_iterable(range(t * n2, t * n2 + n2) for t in s))
        for s in g1.symmetries
        if all(itemgetter(*col)(s) == itemgetter(*s)(col) for col in partner))
    return out
