"""Finite graph container plus the bookkeeping the curvature code relies on.

Vertices are integers.  Adjacency is kept in sorted tuples so traversals,
matrix indices and report rows come out in a reproducible order, and as
frozensets, built on first use, for edge and distance tests.  A Graph
decides the validity of its input by whole-collection tests (sets of
the ids and of their types, one normalising pass over the edges and a
sort of its pairs, each sorted pair compared with the next, set sizes
and subset tests), and walks the input element by element only after
one fails, to name its first fault.  Its rows come from the
sorted edges with no sort of their own: each row receives its lower
neighbors first, in increasing order, then its upper ones.  A Graph
may carry a Truncation record saying it is a radius-limited piece of a
larger regular host; the predicates that decide whether a curvature
evaluation near the cut boundary is trustworthy live here as well, as
does `bfs_distances`, the package's one graph search.  A family may also
declare symmetries, permutations of the vertex ids that it claims are
automorphisms; they are not serialised, so a graph read from a file
carries none.  `orbit_parents` verifies them, once per assignment and
all at once in whole-array passes, and splits the vertices into orbits;
it is the one place anything reads them.  The whole-graph predicates
`contains_k3`, `contains_k23` and `diameter` scan from the orbit roots
alone, since an automorphism maps each triangle, 2x3 biclique and
eccentricity onto one seen from a root; on a graph without symmetries
every vertex is a root.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from operator import eq

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph data or an unsupported graph shape."""


@dataclass(frozen=True)
class Truncation:
    """Marks a graph as the radius-`radius` BFS ball around `center`.

    host_degree is the common degree of the (possibly infinite) host when
    that is known; vertices near the cut have smaller degree in the stored
    graph than in the host.
    """

    center: int
    radius: int
    host_degree: int | None = None


def _require_id(v) -> None:
    """Refuse a vertex id or edge endpoint that is not an int; a bool or
    a float equal to an id would otherwise pass for it."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise GraphError(f"vertex id {v!r} is not an integer")


_ID_TEXT = re.compile(r"-?[0-9]+")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _parse_id(token: str) -> int:
    """The vertex id a text token spells, raising ValueError unless it is
    -?[0-9]+; int() alone takes blanks, underscores, a plus sign and
    non-ASCII digits, so "1_0" would name vertex 10."""
    if not _ID_TEXT.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


# The loops below run only after a whole-collection test in
# Graph.__init__ has failed: they walk the input in order, so the first
# fault is the one named.


def _all_ids(values) -> bool:
    """Whether every value is an int and none a bool, by one set of their
    types; _require_id decides the same per value."""
    return all(issubclass(t, int) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _bulk_edges(edges: tuple, ids: set[int]) -> list[tuple[int, int]] | None:
    """The edges as sorted (smaller, larger) pairs, or None unless every
    entry is a pair of ids of `ids`, no pair is a loop and none repeats:
    one normalising pass, a sort, which is close to linear on the nearly
    sorted lists the families emit, a comparison of each pair with the
    next and a subset test."""
    try:
        pairs = [(u, v) if u < v else (v, u) for u, v in edges if u != v]
    except (TypeError, ValueError):
        return None
    if len(pairs) != len(edges) or not _all_ids(chain.from_iterable(pairs)):
        return None
    pairs.sort()
    if (any(map(eq, pairs, islice(pairs, 1, None)))
            or not ids.issuperset(chain.from_iterable(pairs))):
        return None
    return pairs


def _checked_vertices(vertices: tuple) -> set[int]:
    seen: set[int] = set()
    for v in vertices:
        _require_id(v)
        if v in seen:
            raise GraphError(f"duplicate vertex id {v}")
        seen.add(v)
    return seen


def _checked_edges(edges: tuple, seen: set[int]) -> set[tuple[int, int]]:
    edge_set: set[tuple[int, int]] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair") from None
        _require_id(u)
        _require_id(v)
        if u not in seen or v not in seen:
            raise GraphError(f"edge ({u}, {v}) has an unknown endpoint")
        pair = _normalize_edge(u, v)
        if pair in edge_set:
            raise GraphError(f"duplicate edge {pair}")
        edge_set.add(pair)
    return edge_set


def _check_labels(labels: dict, seen: set[int]) -> None:
    rev: dict[str, int] = {}
    for v, lab in labels.items():
        if v not in seen:
            raise GraphError(f"label for unknown vertex {v!r}")
        if not isinstance(lab, str):
            raise GraphError(f"label {lab!r} for vertex {v} is not a string")
        # Python 3.10's csv (the tests' oracle, and readers) cannot handle
        # a NUL, and no output encoding takes a lone surrogate
        if "\0" in lab:
            raise GraphError(f"label {lab!r} for vertex {v} holds a NUL")
        if _SURROGATE.search(lab):
            raise GraphError(f"label {lab!r} for vertex {v} holds a lone "
                             f"surrogate")
        if lab in rev:
            raise GraphError(f"label {lab!r} used for vertices {rev[lab]} and {v}")
        rev[lab] = v


def _checked_edge_labels(edge_labels: dict, edge_set: set) -> dict:
    out: dict[tuple[int, int], int] = {}
    for e, lab in edge_labels.items():
        pair = _normalize_edge(*e)
        if pair not in edge_set:
            raise GraphError(f"edge label on missing edge {pair}")
        if pair in out:
            raise GraphError(f"two edge labels for edge {pair}")
        out[pair] = lab
    return out


# a cached graph property not yet computed, where None is a valid result
_UNKNOWN = object()


class Graph:
    """Simple undirected graph with deterministic ordering everywhere.

    `symmetries` holds permutations of range(n), as tuples, that the
    family which built the graph claims are automorphisms; it is empty
    unless a family sets it after construction.  orbit_parents verifies
    each one before anything reads it.
    """

    def __init__(
        self,
        vertices,
        edges,
        labels: dict[int, str] | None = None,
        edge_labels: dict[tuple[int, int], int] | None = None,
        truncation: Truncation | None = None,
        name: str = "",
    ):
        vertices = tuple(vertices)
        seen = set(vertices) if _all_ids(vertices) else set()
        if len(seen) != len(vertices):
            seen = _checked_vertices(vertices)
        self.vertices: tuple[int, ...] = tuple(sorted(seen))

        edges = tuple(edges)
        pairs = _bulk_edges(edges, seen)
        if pairs is None:
            pairs = sorted(_checked_edges(edges, seen))
        self.edges: tuple[tuple[int, int], ...] = tuple(pairs)

        # the sorted edges give each row its lower neighbors first, in
        # increasing order, then its upper ones, so every row is sorted
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._adj = {v: tuple(ns) for v, ns in nbrs.items()}
        self._adj_sets: dict[int, frozenset[int]] | None = None

        self.labels: dict[int, str] = {}
        if labels:
            texts = list(labels.values())
            if not (seen.issuperset(labels)
                    and all(issubclass(t, str) for t in set(map(type, texts)))
                    and "\0" not in (joined := "".join(texts))
                    and (joined.isascii() or not _SURROGATE.search(joined))
                    and len(set(texts)) == len(texts)):
                _check_labels(labels, seen)
            self.labels = dict(labels)
        self._label_to_vertex = {lab: v for v, lab in self.labels.items()}

        self.edge_labels: dict[tuple[int, int], int] = {}
        if edge_labels:
            # keys that are edges are (smaller, larger) pairs already
            edge_set = set(pairs)
            if edge_set.issuperset(edge_labels):
                self.edge_labels = dict(edge_labels)
            else:
                self.edge_labels = _checked_edge_labels(edge_labels, edge_set)

        if truncation is not None:
            if truncation.center not in seen:
                raise GraphError(f"truncation center {truncation.center} is not a vertex")
            if truncation.radius < 0:
                raise GraphError("truncation radius must be nonnegative")
            if truncation.host_degree is not None and truncation.host_degree < 0:
                raise GraphError("truncation host degree must be nonnegative")
        self.truncation = truncation
        self.name = name
        self.symmetries: tuple[tuple[int, ...], ...] = ()

        self._center_dist: dict[int, int] | None = None
        # (the symmetries tuple, its verified orbit_parents map, the roots)
        self._orbits: tuple | None = None
        self._k3: bool | None = None
        self._k23: bool | None = None
        self._regular = _UNKNOWN  # common degree or None, set by is_regular
        # transport problem -> its flow cells and potentials (ollivier._solve)
        self._transport: dict = {}

    # -- basic queries ----------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __repr__(self) -> str:
        tag = self.name or "graph"
        return f"Graph({tag}, n={len(self.vertices)}, m={len(self.edges)})"

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def neighbor_sets(self) -> dict[int, frozenset[int]]:
        """Every vertex's neighbors as a frozenset (built on first use)."""
        if self._adj_sets is None:
            self._adj_sets = {v: frozenset(ns) for v, ns in self._adj.items()}
        return self._adj_sets

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets().get(u, ())

    def label(self, v: int) -> str:
        return self.labels.get(v, str(v))

    def require_edge(self, x: int, y: int) -> None:
        """Refuse a vertex pair that is not an edge, naming both labels."""
        if not self.has_edge(x, y):
            raise GraphError(f"({self.label(x)}, {self.label(y)}) is not an edge")

    def resolve_vertex(self, token: str) -> int:
        """Map a user-supplied token to a vertex id, labels before raw ids."""
        if token in self._label_to_vertex:
            return self._label_to_vertex[token]
        try:
            v = _parse_id(token)
        except ValueError:
            v = None
        if v is not None and v in self._adj:
            return v
        sample = ", ".join(self.label(v) for v in self.vertices[:6])
        raise GraphError(f"no vertex matches {token!r} (known labels start: {sample})")

    # -- truncation safety ------------------------------------------------

    def distance_to_center(self, v: int) -> int | None:
        """BFS distance from the truncation center (0 when untruncated),
        None when the center cannot reach v."""
        if self.truncation is None:
            return 0
        if self._center_dist is None:
            self._center_dist = bfs_distances(self, {self.truncation.center: 0})
        return self._center_dist.get(v)

    def _within_center(self, v: int, radius: int) -> bool:
        """Whether v lies within `radius` of the truncation center; a
        vertex the center cannot reach lies outside the truncation."""
        dist = self.distance_to_center(v)
        return dist is not None and dist <= radius

    def two_ball_complete(self, x: int) -> bool:
        """True when every vertex and edge of the radius-2 ball at x is stored.

        Near the cut of a truncated graph second neighbors may be missing,
        which would silently corrupt the curvature form, hence the radius-2
        margin.
        """
        if x not in self._adj:
            raise GraphError(f"unknown vertex {x}")
        if self.truncation is None:
            return True
        return self._within_center(x, self.truncation.radius - 2)

    def transport_neighborhood_complete(self, x: int, y: int) -> bool:
        """True when optimal transport across edge (x, y) only sees stored data.

        The transported measures live on the closed one-balls of x and y and
        compare points at distance up to three, so a truncated graph needs a
        radius-3 margin from the better endpoint (and radius at least 4 for
        any interior edge to exist).
        """
        self.require_edge(x, y)
        if self.truncation is None:
            return True
        return self.transport_anchor(x) or self.transport_anchor(y)

    def transport_anchor(self, v: int) -> bool:
        """Whether every edge at v is transport-safe: always on an
        untruncated graph, and else when the truncation radius is at least
        4 and v lies within radius - 3 of its center.  An edge is
        transport-safe exactly when one of its ends is an anchor."""
        t = self.truncation
        if t is None:
            return True
        return t.radius >= 4 and self._within_center(v, t.radius - 3)


# -- declared symmetries --------------------------------------------------


def _verify_symmetries(g: Graph) -> None:
    """Refuse the graph unless each declared symmetry permutes range(n),
    maps the edge set onto itself and fixes any truncation center, so
    that it keeps every two-ball and its safety.  Any failure, a wrong
    length or an id out of range included, raises the one internal
    error."""
    if g.symmetries and not _all_automorphisms(g):
        raise GraphError(f"internal: a declared symmetry of "
                         f"{g.name or 'the graph'} is not an automorphism")


def _all_automorphisms(g: Graph) -> bool:
    """Whether every declared symmetry passes, each checked in whole-array
    passes: its array, sorted, must be range(n), and the images of the
    edges, as sorted integer codes u*n + v with u < v, must be the codes
    of the edges themselves.  No id is used as an index before it is
    known to be in range.  One symmetry at a time keeps the arrays at m
    entries."""
    n = len(g.vertices)
    if g.vertices != tuple(range(n)):
        return False
    ends = np.fromiter(chain.from_iterable(g.edges), np.int64,
                       2 * len(g.edges)).reshape(-1, 2)
    # g.edges is sorted, so its codes are too
    codes = ends[:, 0] * n + ends[:, 1]
    ids = np.arange(n)
    t = g.truncation
    for s in g.symmetries:
        perm = np.array(s)
        if (perm.shape != (n,) or (n and perm.dtype.kind != "i")
                or not (np.sort(perm) == ids).all()
                or (t is not None and s[t.center] != t.center)):
            return False
        # 64-bit codes wherever numpy's default int is 32-bit
        perm = perm.astype(np.int64, copy=False)
        u, v = perm[ends[:, 0]], perm[ends[:, 1]]
        images = np.minimum(u, v) * n + np.maximum(u, v)
        images.sort()
        if not (images == codes).all():
            return False
    return True


def orbit_parents(g: Graph) -> dict[int, tuple[int, tuple[int, ...]] | None]:
    """Every vertex of g, parents first, mapped to None at the root of its
    orbit under g.symmetries and else to a parent p and a symmetry s
    with s[p] the vertex.

    The symmetries are verified first (_verify_symmetries).  A
    breadth-first search over them starts from each vertex not yet
    reached, in id order, so each orbit is rooted at its smallest id and
    the roots come in increasing order.  Without symmetries every vertex
    is a root.  The map is cached on the graph with the tuple it was
    built from, so a later assignment to g.symmetries is verified and
    walked afresh.
    """
    cached = g._orbits
    if cached is not None and cached[0] is g.symmetries:
        return cached[1]
    _verify_symmetries(g)
    parents: dict[int, tuple[int, tuple[int, ...]] | None] = {}
    roots = []
    for root in g.vertices:
        if root in parents:
            continue
        parents[root] = None
        roots.append(root)
        queue = [root]
        for p in queue:
            for s in g.symmetries:
                x = s[p]
                if x not in parents:
                    parents[x] = (p, s)
                    queue.append(x)
    g._orbits = (g.symmetries, parents, roots)
    return parents


def _orbit_roots(g: Graph) -> list[int]:
    """The root of each orbit, in increasing order, from the same cache:
    every call verifies a newly assigned g.symmetries first."""
    orbit_parents(g)
    return g._orbits[2]


# -- traversal helpers ----------------------------------------------------


def bfs_distances(g: Graph, starts, radius=None, until=()) -> dict:
    """F(v) = min over start s of starts[s] + d(s, v), for every vertex v
    the starts reach with F(v) <= radius (no cut when radius is None).

    `starts` maps each start vertex to its value; {v: 0} gives the
    distances from v.  One unit-step search settles whole levels of equal
    value, least first, comparing values exactly, so ints and Fractions
    both work; a level is expanded only while the next stays within
    radius.  With `until`, the search stops once all of it is settled.
    An unknown start is refused, also one that is never expanded.
    """
    levels: dict = {}
    for s, f in starts.items():
        if s not in g:
            raise GraphError(f"unknown vertex {s}")
        if radius is None or f <= radius:
            levels.setdefault(f, []).append(s)
    adj = g._adj
    wanted = set(until)
    dist: dict = {}
    while levels:
        f = min(levels)
        fresh = {v: f for v in levels.pop(f) if v not in dist}
        dist.update(fresh)
        if until:
            wanted.difference_update(fresh)
            if not wanted:
                break
        if fresh and (radius is None or f + 1 <= radius):
            step = levels.setdefault(f + 1, [])
            for v in fresh:
                step.extend(adj[v])
    return dist


# sources per pass of the bit-parallel BFS in diameter
_DIAMETER_BATCH = 4096


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance, or None when the graph is disconnected.

    One `bfs_distances` search from the first vertex decides
    connectivity, and since that vertex is the first orbit root, it also
    gives that root's eccentricity.  A connected graph with more orbits
    then runs a multi-source bit-parallel BFS (Then et al., "The More the
    Merrier", PVLDB 2014) from the other orbit roots alone, over batches
    of at most 4,096 sources: each vertex holds a Python int whose bit i
    says source i is within the current level, and one level ORs every
    vertex's int with its neighbours' ints.  The levels taken until every
    int is full are the largest eccentricity among the batch's sources.
    An automorphism keeps eccentricity, so the largest over the roots is
    the largest over all vertices; a vertex-transitive graph runs no
    pass.  A pass holds two lists of V ints of at most 4,096 bits, so
    memory stays at about V x 1 KB whatever the graph's size.
    """
    roots = _orbit_roots(g)
    n = len(g.vertices)
    if n <= 1:
        return 0
    dist = bfs_distances(g, {roots[0]: 0})
    if len(dist) < n:
        return None
    best = max(dist.values())
    if len(roots) == 1:
        return best
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = [[index[w] for w in g.neighbors(v)] for v in g.vertices]
    for start in range(1, len(roots), _DIAMETER_BATCH):
        batch = roots[start:start + _DIAMETER_BATCH]
        full = (1 << len(batch)) - 1
        reach = [0] * n
        for bit, r in enumerate(batch):
            reach[index[r]] = 1 << bit
        levels = 0
        while reach.count(full) < n:
            nxt = []
            for r, ns in zip(reach, adjacency):
                for w in ns:
                    r |= reach[w]
                nxt.append(r)
            reach = nxt
            levels += 1
        best = max(best, levels)
    return best


def is_regular(g: Graph) -> int | None:
    """The common degree, or None if degrees vary or the graph is empty
    (cached on the graph)."""
    if g._regular is _UNKNOWN:
        degs = {len(ns) for ns in g._adj.values()}
        g._regular = degs.pop() if len(degs) == 1 else None
    return g._regular


def effective_degree(g: Graph, x: int) -> int | None:
    """Degree of x as a vertex of the (possibly infinite) host graph.

    For regular graphs this is the common degree.  For a truncated graph it
    is the declared host degree, accepted only when the two-ball at x is
    complete and x and its neighbors all still show that degree.  None means
    no regular-host degree can be certified, so regularity-gated theorems
    must not be applied at x.
    """
    d = is_regular(g)
    if d is not None:
        return d
    t = g.truncation
    if t is None or t.host_degree is None:
        return None
    if not g.two_ball_complete(x):
        return None
    if g.degree(x) != t.host_degree:
        return None
    if any(g.degree(v) != t.host_degree for v in g.neighbors(x)):
        return None
    return t.host_degree


def contains_k3(g: Graph) -> bool:
    """Whether any triangle exists (cached on the graph).

    Tests the edges (r, v), r < v, at each orbit root r for a common
    neighbor.  That is complete: an automorphism maps the triangle vertex
    whose orbit root is least onto that root r, and the other two onto
    ids above r.  When every vertex is a root those edges are g.edges.
    """
    roots = _orbit_roots(g)
    if g._k3 is None:
        adj = g.neighbor_sets()
        g._k3 = any(not adj[r].isdisjoint(adj[v])
                    for r in roots for v in g._adj[r] if v > r)
    return g._k3


def contains_k23(g: Graph) -> bool:
    """Whether some two vertices share three common neighbors (cached).

    That is exactly a complete bipartite 2x3 subgraph, the obstruction the
    linkage analysis cares about.  Subgraph, not induced: extra edges among
    the five vertices do not matter.  Counts the neighbor pairs in the
    rows of the orbit roots' neighbors, in id order, a batch of rows at a
    time, batches doubling from 16, and stops after the first batch that
    brings a pair to three.  A pair counted three times has three common
    neighbors, and the count is complete: an automorphism maps one vertex
    of the biclique's 2-side onto its root, and its three common
    neighbors onto neighbors of that root.  When every vertex is a root
    every row is counted but an isolated vertex's, which adds no pair.
    """
    roots = _orbit_roots(g)
    if g._k23 is None:
        adj = g.neighbor_sets()
        rows = [g._adj[w] for w in sorted(set().union(*(adj[r] for r in roots)))]
        counts: Counter[tuple[int, int]] = Counter()
        start, size = 0, 16
        found = False
        while start < len(rows) and not found:
            counts.update(chain.from_iterable(
                map(combinations, rows[start:start + size], repeat(2))))
            found = max(counts.values(), default=0) >= 3
            start, size = start + size, 2 * size
        g._k23 = found
    return g._k23


# -- two-ball extraction ---------------------------------------------------


@dataclass(frozen=True)
class LocalBall:
    """The radius-2 ball around `base`, trimmed to what curvature reads.

    adj keeps only edges meeting base or sphere1; edges between two second
    neighbors never enter the curvature form and are dropped, so the rows
    of base and sphere1 are whole and their lengths are the host degrees.
    `extract_ball` builds every ball, so sphere1 is never empty and no
    truncation boundary cuts the ball.
    """

    base: int
    sphere1: tuple[int, ...]
    sphere2: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]


def extract_ball(g: Graph, x: int) -> LocalBall:
    """The two-ball at x; refuses, naming x's label, a vertex less than
    two steps inside a truncation boundary, one the truncation center
    cannot reach, or an isolated one, so that every curvature read off
    the ball is defined and trustworthy."""
    if not g.two_ball_complete(x):
        where = ("it is not connected to the truncation center"
                 if g.distance_to_center(x) is None else
                 "its two-ball crosses the truncation boundary")
        raise GraphError(f"refusing to probe {g.label(x)}: {where}, so "
                         f"curvature there would be unreliable")
    s1 = g.neighbors(x)
    if not s1:
        raise GraphError(f"refusing to probe {g.label(x)}: it is isolated, "
                         f"so curvature there is undefined")
    s1_set = set(s1)
    s2 = sorted({u for v in s1 for u in g.neighbors(v)} - s1_set - {x})
    adj: dict[int, tuple[int, ...]] = {x: s1}
    for v in s1:
        adj[v] = g.neighbors(v)
    for u in s2:
        adj[u] = tuple(w for w in g.neighbors(u) if w in s1_set)
    return LocalBall(x, s1, tuple(s2), adj)


# -- serialization ---------------------------------------------------------


def _parse_json_graph(text: str, name: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError("JSON graph must be an object")
    if "vertices" not in obj or "edges" not in obj:
        raise GraphError('JSON graph needs "vertices" and "edges" keys')
    vertices = obj["vertices"]
    edges = obj["edges"]
    if not isinstance(vertices, list):
        raise GraphError('"vertices" must be a list of integers')
    if not isinstance(edges, list):
        raise GraphError('"edges" must be a list of [u, v] pairs')
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphError(f'edge entry {e!r} is not a [u, v] pair')
    labels: dict[int, str] = {}
    raw_labels = obj.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise GraphError('"labels" must map vertex ids to strings')
    for key, lab in raw_labels.items():
        try:
            labels[_parse_id(key)] = lab
        except ValueError:
            raise GraphError(f"label key {key!r} is not a vertex id") from None
    edge_labels: dict[tuple[int, int], int] = {}
    raw_elabels = obj.get("edge_labels", {})
    if not isinstance(raw_elabels, dict):
        raise GraphError('"edge_labels" must map "u,v" keys to integers')
    for key, lab in raw_elabels.items():
        pair = key.split(",")
        if len(pair) != 2:
            raise GraphError(f"edge label key {key!r} is not a \"u,v\" pair")
        try:
            u, v = map(_parse_id, pair)
        except ValueError as exc:
            raise GraphError(f"edge label key {key!r}: {exc.args[0]!r} is "
                             f"not a vertex id") from None
        if not isinstance(lab, int) or isinstance(lab, bool):
            raise GraphError(f"edge label {lab!r} at key {key!r} is not an integer")
        edge_labels[(u, v)] = lab
    truncation = None
    raw_trunc = obj.get("truncation")
    if raw_trunc is not None:
        if not isinstance(raw_trunc, dict) or "center" not in raw_trunc or "radius" not in raw_trunc:
            raise GraphError('"truncation" needs "center" and "radius"')
        fields = {key: raw_trunc.get(key)
                  for key in ("center", "radius", "host_degree")}
        for key, value in fields.items():
            optional = key == "host_degree" and value is None
            if not optional and (not isinstance(value, int)
                                 or isinstance(value, bool)):
                raise GraphError(f'truncation "{key}" must be an integer, '
                                 f'got {value!r}')
        truncation = Truncation(**fields)
    return Graph(vertices, [tuple(e) for e in edges], labels=labels,
                 edge_labels=edge_labels, truncation=truncation, name=name)


def _parse_edge_list(text: str, name: str) -> Graph:
    edges = []
    vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = _parse_id(parts[0]), _parse_id(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: vertex ids must be integers, got {raw!r}") from None
        vertices.update((u, v))
        edges.append((u, v))
    try:
        return Graph(sorted(vertices), edges, name=name)
    except GraphError as exc:
        raise GraphError(f"edge list: {exc}") from None


def load_graph(path) -> Graph:
    """Read a graph from a JSON file or a whitespace edge list.

    The format is sniffed from the content: anything starting with '{' is
    treated as JSON.  A byte that is not UTF-8 reads as a lone surrogate,
    which no label or id takes, so only an edge list's comment may hold it.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    name = str(path)
    if text.lstrip().startswith("{"):
        return _parse_json_graph(text, name)
    return _parse_edge_list(text, name)


def graph_to_json_dict(g: Graph) -> dict:
    out: dict = {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.labels:
        out["labels"] = {str(v): g.labels[v] for v in sorted(g.labels)}
    if g.edge_labels:
        out["edge_labels"] = {f"{u},{v}": g.edge_labels[(u, v)]
                              for u, v in sorted(g.edge_labels)}
    if g.truncation is not None:
        t = g.truncation
        out["truncation"] = {"center": t.center, "radius": t.radius,
                             "host_degree": t.host_degree}
    return out


def render_graph(g: Graph, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(graph_to_json_dict(g), indent=2) + "\n"
    if fmt == "edgelist":
        lines = []
        if g.name:
            lines.append(f"# {g.name}")
        isolated = [v for v in g.vertices if g.degree(v) == 0]
        if isolated:
            raise GraphError(f"edge list cannot express isolated vertices: {isolated[:4]}")
        lines.extend(f"{u} {v}" for u, v in g.edges)
        return "\n".join(lines) + "\n"
    raise GraphError(f"unknown graph format {fmt!r}")


def save_graph(g: Graph, path, fmt: str = "json") -> None:
    payload = render_graph(g, fmt)
    # an edge list's name line keeps the bytes of a path that is not UTF-8
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(payload)
