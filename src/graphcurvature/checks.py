"""Curvature fact gathering and theorem cross-checks.

gather_facts sweeps a corpus graph: spectral curvature and class at every
non-isolated vertex whose two-ball is complete, exact edge curvature
wherever the transport neighborhood is complete.  Both curvatures depend
on the two-ball alone, so the sweep sorts the vertices into classes of
isomorphic two-balls, in three tiers.  The graph's orbit map
(graphs.orbit_parents), which verifies its declared symmetries once per
graph and which the triangle, 2x3 biclique and diameter scans read as
well, splits the vertices into orbits; only the root of an orbit, its
smallest id, is keyed, and every other vertex takes its parent's class
with its sphere1 labels carried through the symmetry.  The positional
key renumbers a root's ball by position, read off the graph's rows with
no LocalBall; only a key not seen before is relabelled by individualise
and refine, and the relabelled ball is the class key.  Only the first
root of a new relabelled class has its two-ball built, and the Gamma2
form, its reduction, the class verdict and rho are computed from it
once per class: rho is certified from one eigensolve and exact tests,
with its class thresholds decided there, and shared by every vertex of
the class; each vertex reads its non-link counts and test vectors off the
class in its own sphere1 order.  The edge problem across (x, y) lives
inside the two-ball of x, and both ends are swept vertices wherever the
edge is transport-safe, so an edge key, the relabelled class of x with
the label of y, fixes the edge's kappa and, on a triangle-free graph,
whether the biclique decomposition across it exists.  So does the
reverse key, the class of y with the label of x: W1 is symmetric, and
the decomposition across (x, y) exists exactly when the one across
(y, x) does.  The sweep joins each new key with its reverse and solves
once per joined set, at the first edge of its first key; a missed join
costs one more solve, never a wrong answer.  Repeated edges in a sweep
are therefore not posed, solved or certified one by one, and
ollivier_kappa still certifies every answer it computes.

The sweep also sorts its rows into classes of equal facts.  An edge
class is every edge row with the same safety, kappa, decomposability
and sorted pair of end degrees, which is all a check reads of an edge;
the transport-unsafe rows form one class.  A vertex class shares the
refined class, and with it rho, the exact test-vector values and, in a
truncated graph, which of its labels lead to unsafe edges.  A row costs
the sweep a class lookup and a label: one pass over the vertices builds
each vertex's row and then the rows of its edges to larger neighbors,
walking its sorted neighbor row once.  GraphFacts holds its rows as
views, VertexRows and EdgeRows, that build a row's VertexFact or
EdgeFact from its class data when it is read, and it reads the first
row of each class, the class head, once.  run_checks then replays every
applicable classification, linkage, decomposition, duality and diameter
statement against those facts and reports violations.  A per-element
statement is decided at each class head, which also reads the kappa at
each label of that vertex's own edges off the heads of their edge
classes; only when a class fails does the check walk every row, so
each violation still names its vertex or edge, in row order.  kappa*
for the diameter bounds is the least kappa over the edge heads.  The
deep checks, witness-bounds and duality, sample the head of each
transport-safe edge class: witness existence can differ between rows of
one class, so a deep check states nothing about the other rows, and
duality rebuilds the plan and certificate there and compares them with
the kappa the report prints.  The report formats each class from its
head as well.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .bakry_emery import (
    CertifiedRho,
    certify_rho,
    eliminate_second_neighbors,
    gamma2_form,
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
    orbit_parents,
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
    rho: CertifiedRho | None
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
    # whether bipartite_decomposition(g, x, y) exists; None at an unsafe
    # edge or in a graph with triangles
    decomposable: bool | None


class VertexRows(Sequence):
    """The vertex facts of a sweep, one row per vertex of g, each built
    when it is read.

    vals[i] is the `_TwoBall.values` result at g.vertices[i], shared by
    the rows of its class and labelling, or None where the sweep skipped
    the vertex; the row adds the vertex's own id, label, degree and
    non-link count dict.
    """

    def __init__(self, g: Graph, vals: list[tuple | None]):
        self._g = g
        self._vals = vals

    def __len__(self) -> int:
        return len(self._vals)

    def __getitem__(self, i: int) -> VertexFact:
        i = operator.index(i)
        return self._fact(self._g.vertices[i], self._vals[i])

    def __iter__(self) -> Iterator[VertexFact]:
        return map(self._fact, self._g.vertices, self._vals)

    def _fact(self, x: int, vals: tuple | None) -> VertexFact:
        g = self._g
        if vals is None:
            return VertexFact(x, g.label(x), g.degree(x), False,
                              None, None, None, None, None, None, None)
        rho, cls, n, counts, min_linkage, flat_val, neg_val = vals
        if counts is not None:
            counts = dict(zip(g.neighbors(x), counts))
        return VertexFact(x, g.label(x), g.degree(x), True, rho, cls, n,
                          counts, min_linkage, flat_val, neg_val)


class EdgeRows(Sequence):
    """The edge facts of a sweep, one row per edge of g, each built when
    it is read: row i is the edge edges[i] with the safety, kappa and
    decomposability cells[classes[i]] of its class."""

    def __init__(self, edges: tuple[tuple[int, int], ...],
                 classes: tuple[int, ...],
                 cells: dict[int, tuple[bool, Fraction | None, bool | None]]):
        self._edges = edges
        self._classes = classes
        self._cells = cells

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, i: int) -> EdgeFact:
        i = operator.index(i)
        x, y = self._edges[i]
        return EdgeFact(x, y, *self._cells[self._classes[i]])

    def __iter__(self) -> Iterator[EdgeFact]:
        cells = self._cells
        return (EdgeFact(x, y, *cells[c])
                for (x, y), c in zip(self._edges, self._classes))


@dataclass(frozen=True)
class GraphFacts:
    key: str
    graph: Graph
    regular: int | None
    triangle_free: bool
    biclique_free: bool
    truncated: bool
    # the facts row by row, in g.vertices and g.edges order: VertexRows
    # and EdgeRows from a sweep, or any sequence of facts
    vertices: Sequence[VertexFact]
    edges: Sequence[EdgeFact]
    # for each row, the index of the first row of its class: the rows of
    # an edge class hold equal safety, kappa and decomposability and equal
    # sorted end degrees, and the rows of a vertex class equal facts and
    # equal kappas at equal labels, so a check decided at the first row of
    # each class is decided at every row; the rows the sweep skips form
    # one class
    vertex_class: tuple[int, ...]
    edge_class: tuple[int, ...]
    # the first row of each class, by its index, in row order: read once
    # from the rows whenever a GraphFacts is made, dataclasses.replace
    # included, so the checks and the report never build a class's
    # record twice
    vertex_heads: dict[int, VertexFact] = field(init=False, repr=False,
                                                compare=False)
    edge_heads: dict[int, EdgeFact] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        for heads, rows, classes in (
                ("vertex_heads", self.vertices, self.vertex_class),
                ("edge_heads", self.edges, self.edge_class)):
            object.__setattr__(self, heads,
                               {i: rows[i] for i in dict.fromkeys(classes)})


class _TwoBall:
    """One refined class of two-balls, solved once at its first vertex.

    Holds the exact work that equal relabelled two-balls share: the
    doubled Gamma2 form, rho certified from its reduction to sphere1 with
    the class thresholds 2, 0 and -2/(d-1) decided, the class verdict and
    its link profile.  `values` reads the vertex facts of any ball of the
    class off them, given where that ball's sphere1 order sends each label.
    """

    def __init__(self, g: Graph, ball: LocalBall, labels: tuple[int, ...]):
        self.ball = ball
        self.form = gamma2_form(ball)
        self.rho = certify_rho(eliminate_second_neighbors(self.form, ball))
        d = len(ball.sphere1)
        for r in (2, 0, *([Fraction(-2, d - 1)] if d > 1 else [])):
            self.rho.sign(r)
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

        rho is the class's own.  The test vectors are the ones that order
        picks, moved here and evaluated exactly once per class and choice;
        the linkage facts stand wherever g is triangle-free.
        """
        known = self.by_labels.get(labels)
        if known is not None:
            return known
        order = tuple(self.ball.sphere1[self.slot[lab]] for lab in labels)
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
            self.rho, cls, self.verdict.N, counts, self.min_linkage, flat_val,
            neg_val)
        return known

    def _vector_value(self, build, choice) -> Fraction:
        """Value of the test vector that `build` makes at `choice`, once
        per choice: a class has one kind of vector."""
        if choice not in self.vector_values:
            self.vector_values[choice] = self.form.value(build(self.ball, choice))
        return self.vector_values[choice]


def _ball_key(g: Graph, x: int) -> tuple[int, ...]:
    """The two-ball at x with its vertices renumbered by position.

    x becomes 0, sphere1 1..d and sphere2 the positions after that, each
    sphere in its sorted order, so every ordering the kernels use survives
    the renumbering.  The key is the effective degree, the number n of
    ball vertices and the sorted codes i*n + j of the ball's edges (i, j),
    i < j, by position: the edges at 0 are the first d codes.  The
    effective degree leads the key because classify_vertex reads it from
    the whole graph, not from the ball.  _relabel returns its class key in
    the same encoding.

    The key is read off the graph's rows in one pass, with no LocalBall:
    a sphere1 row lies wholly in the ball, and a sphere2 row is
    intersected with sphere2, the only part of the ball after it.  The
    edges between two sphere2 vertices are in the key although LocalBall
    drops them.  No vertex fact reads them, but the edge problem across
    (x, y) does: a neighbor s of x and a neighbor t of y are at distance
    2 when they share a neighbor, which may lie in sphere2.  Equal keys
    therefore pose the same edge problem, up to relabelling, at every
    neighbor position.
    """
    adj = g.neighbor_sets()
    s1 = g.neighbors(x)
    far = set().union(*map(adj.__getitem__, s1))
    far.difference_update(s1)
    far.discard(x)
    s2 = sorted(far)
    pos = dict(zip((x, *s1, *s2), range(len(s1) + len(s2) + 1)))
    n = len(pos)
    at = pos.__getitem__
    codes = list(range(1, len(s1) + 1))
    for i, v in enumerate(s1, 1):
        codes.extend(i * n + j for j in map(at, g.neighbors(v)) if j > i)
    for i, u in enumerate(s2, len(s1) + 1):
        codes.extend(i * n + j for j in map(at, adj[u] & far) if j > i)
    codes.sort()
    return (effective_degree(g, x), n, *codes)


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
    round: the returned key is the whole relabelled adjacency, sphere2 to
    sphere2 edges included, in the encoding of the positional key, so
    equal keys are the same rooted ball.  Returns that key and the labels
    of positions 1..d.
    """
    n = key[1]
    edges = [divmod(c, n) for c in key[2:]]
    d = sum(u == 0 for u, _ in edges)
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


def _find(joins: dict, k):
    """The root of k's set in the union-find `joins`, which maps a key to
    its parent, halving the path; a key `joins` does not hold is a set of
    its own."""
    while (p := joins.get(k, k)) != k:
        k = joins[k] = joins.get(p, p)
    return k


def gather_facts(item: CorpusItem) -> GraphFacts:
    """Sweep one corpus graph."""
    g = item.graph
    parents = orbit_parents(g)
    triangle_free = not contains_k3(g)
    # three tiers: an orbit root's positional key, read off the graph,
    # finds its refined class and sphere1 labels; only a new positional
    # key is relabelled, and only a new refined class has its two-ball
    # built.  Every other vertex of the orbit takes its parent's class,
    # with the labels carried through the symmetry
    memo: dict[tuple[int, ...], tuple[_TwoBall, tuple[int, ...]]] = {}
    kinds: dict[tuple[int, ...], _TwoBall] = {}
    ball_class: dict[int, tuple[_TwoBall, tuple[int, ...]]] = {}
    for x, up in parents.items():
        if not g.two_ball_complete(x) or g.degree(x) == 0:
            continue
        if up is not None:
            p, s = up
            kind, labels = ball_class[p]
            carried = dict(zip(map(s.__getitem__, g.neighbors(p)), labels))
            ball_class[x] = (kind, tuple(map(carried.__getitem__,
                                             g.neighbors(x))))
            continue
        key = _ball_key(g, x)
        known = memo.get(key)
        if known is None:
            rkey, labels = _relabel(key)
            kind = kinds.get(rkey)
            if kind is None:
                kind = kinds[rkey] = _TwoBall(g, extract_ball(g, x), labels)
            known = memo[key] = (kind, labels)
        ball_class[x] = known

    # an edge key is (refined class of x, label of y in the two-ball of x)
    # for x < y: its kappa and whether the biclique decomposition across
    # it exists are read inside that two-ball.  Adjacent vertices differ
    # by at most one in their distance from the truncation center, so
    # both ends of a transport-safe edge are classed, and the reverse key
    # (class of y, label of x in the two-ball of y) names the same kappa,
    # decomposability and sorted end degrees: W1 is symmetric, and so is
    # the existence of the decomposition.  The pass records each key's
    # index, first edge and first row, and joins each new key with its
    # reverse in the union-find `joins`; the transport-unsafe rows share
    # the key None, which joins nothing
    anchor = (None if g.truncation is None
              else {v: g.transport_anchor(v) for v in g.vertices})
    key_at: dict = {}
    firsts: list[tuple[int, int, int]] = []
    joins: dict[tuple[_TwoBall, int], tuple[_TwoBall, int]] = {}
    row_key: list[int] = []
    vals: list[tuple | None] = []
    vertex_class: list[int] = []
    # values() returns one tuple per class and labelling, so its refined
    # class and test-vector values are hashed once per tuple: id of the
    # tuple -> index of those facts
    part: dict[int, int] = {}
    parts: dict[tuple, int] = {}
    row_of: dict = {}
    for i, x in enumerate(g.vertices):
        kind, labels = ball_class.get(x, (None, ()))
        if kind is None:
            vals.append(None)
            vertex_class.append(row_of.setdefault(None, i))
        else:
            v = kind.values(labels)
            vals.append(v)
            p = part.get(id(v))
            if p is None:
                p = part[id(v)] = parts.setdefault((kind, v[5], v[6]),
                                                   len(parts))
            # the refined class fixes every other fact and the kappa at
            # each label, but not which labels lead to transport-unsafe edges
            if anchor is not None and not anchor[x]:
                cut = frozenset(lab for y, lab in zip(g.neighbors(x), labels)
                                if not anchor[y])
                if cut:
                    p = (p, cut)
            vertex_class.append(row_of.setdefault(p, i))
        for j, y in enumerate(g.neighbors(x)):
            if y < x:
                continue
            k = (None if anchor is not None and not (anchor[x] or anchor[y])
                 else (kind, labels[j]))
            c = key_at.get(k)
            if c is None:
                c = key_at[k] = len(firsts)
                firsts.append((x, y, len(row_key)))
                if k is not None:
                    back, back_labels = ball_class[y]
                    joins[_find(joins, k)] = _find(joins, (back, back_labels[
                        bisect_left(g.neighbors(y), x)]))
            row_key.append(c)
    # kappa and the decomposition are solved once per joined set, at the
    # first edge of its first key.  An edge class is every row with equal
    # (safe, kappa, decomposable) cells and equal sorted end degrees, which
    # is all a check reads of an edge, so the cells are hashed once per
    # key: cells -> the first row of their class
    solved: dict[tuple[_TwoBall, int], tuple] = {}
    first_row: dict[tuple, int] = {}
    key_class: list[int] = []
    for k, (x, y, row) in zip(key_at, firsts):
        if k is None:
            cells = (False, None, None)
        else:
            root = _find(joins, k)
            cells = solved.get(root)
            if cells is None:
                cells = solved[root] = (
                    True, ollivier_kappa(g, x, y),
                    bipartite_decomposition(g, x, y) is not None
                    if triangle_free else None,
                    *sorted((g.degree(x), g.degree(y))))
        key_class.append(first_row.setdefault(cells, row))
    edge_cells = {c: view[:3] for view, c in first_row.items()}
    edge_class = tuple(map(key_class.__getitem__, row_key))
    return GraphFacts(
        item.key, g, is_regular(g), triangle_free, not contains_k23(g),
        g.truncation is not None, VertexRows(g, vals),
        EdgeRows(g.edges, edge_class, edge_cells), tuple(vertex_class),
        edge_class,
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


def _by_class(rows, heads, at) -> tuple[bool, list[str]]:
    """Whether `at` examines any row, and the problems it finds.

    `at` returns None at a row it does not examine and else the list of
    problems there.  Rows of one class hold equal facts, so `at` runs at
    the head of each class alone; only when one of those fails does it
    run at every row, so that each failing row is named, in order.
    """
    seen = False
    for head in heads.values():
        problems = at(head)
        if problems:
            return True, [p for row in rows for p in at(row) or ()]
        seen = seen or problems is not None
    return seen, []


def _edge_kappas(facts: GraphFacts):
    """A lookup of the kappa of edge (x, y), for a neighbor y of x, read
    off the head of its edge class."""
    edges, classes, heads = (facts.graph.edges, facts.edge_class,
                             facts.edge_heads)
    return lambda x, y: heads[
        classes[bisect_left(edges, (x, y) if x < y else (y, x))]].kappa


def check_cd_class(facts: GraphFacts) -> CheckResult:
    """Class verdict versus the spectral curvature value, decided exactly."""

    def at(vf: VertexFact) -> list[str] | None:
        cls = vf.structure_class
        if cls is None or cls is StructureClass.INAPPLICABLE:
            return None
        tag = f"{facts.key} vertex {vf.label}"
        rho = vf.rho
        if cls is StructureClass.FULLY_LINKED and rho.sign(2):
            return [f"{tag}: fully linked but rho = {rho.value!r}"]
        if cls is StructureClass.ONE_UNLINKED and rho.sign(0):
            return [f"{tag}: one unlinked but rho = {rho.value!r}"]
        if cls is StructureClass.MULTI_UNLINKED:
            bound = Fraction(-2, vf.degree - 1)
            if rho.sign(0) >= 0 or rho.sign(bound) > 0:
                return [f"{tag}: multi unlinked but rho = {rho.value!r} "
                        f"(needs < 0 and <= {float(bound)})"]
        return []

    return _result("cd-class", *_by_class(facts.vertices, facts.vertex_heads, at),
                   "no classified vertices")


def check_ollivier_class(facts: GraphFacts) -> CheckResult:
    """Per-neighbor edge curvature signs forced by the non-link counts."""
    kappa = _edge_kappas(facts)

    def at(vf: VertexFact) -> list[str] | None:
        cls = vf.structure_class
        if cls is None or cls is StructureClass.INAPPLICABLE:
            return None
        problems = []
        seen = False
        for y, miss in sorted(vf.nonlink_counts.items()):
            k = kappa(vf.vertex, y)
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
        return problems if seen else None

    return _result("ollivier-class",
                   *_by_class(facts.vertices, facts.vertex_heads, at),
                   "no classified edges")


def check_cd_vs_ollivier(facts: GraphFacts) -> CheckResult:
    """Sign relations between the two curvatures at each vertex."""
    applicable = (facts.regular is not None and facts.triangle_free
                  and facts.biclique_free and not facts.truncated)
    if not applicable:
        return _result("cd-vs-ollivier", False, [],
                       "needs a regular graph free of triangles and 2x3 bicliques")
    kappa = _edge_kappas(facts)

    def at(vf: VertexFact) -> list[str] | None:
        if not vf.safe:
            return None
        g = facts.graph
        kappas = {g.label(y): kappa(vf.vertex, y)
                  for y in g.neighbors(vf.vertex)}
        _, viol = cd_ollivier_consistency(vf.rho, kappas)
        return [f"{facts.key} vertex {vf.label}: {v}" for v in viol]

    return _result("cd-vs-ollivier",
                   *_by_class(facts.vertices, facts.vertex_heads, at),
                   "no safe vertices")


def check_linkage_positive_cd(facts: GraphFacts) -> CheckResult:
    """Triangle-free ceiling rho <= 2, attained at locally regular
    vertices when every neighbor pair carries linkage weight >= 1/2."""
    if not facts.triangle_free:
        return _result("linkage-positive-cd", False, [], "graph has triangles")

    def at(vf: VertexFact) -> list[str] | None:
        if not vf.safe:
            return None
        tag = f"{facts.key} vertex {vf.label}"
        problems = []
        if vf.rho.sign(2) > 0:
            problems.append(
                f"{tag}: triangle-free but rho = {vf.rho.value!r} > 2")
        # the linkage equality needs the degree shared with all neighbors
        if effective_degree(facts.graph, vf.vertex) is None:
            return problems
        heavy = vf.min_linkage is None or vf.min_linkage >= Fraction(1, 2)
        if heavy and vf.rho.sign(2):
            problems.append(f"{tag}: every pair linkage >= 1/2 but "
                            f"rho = {vf.rho.value!r} != 2")
        return problems

    return _result("linkage-positive-cd",
                   *_by_class(facts.vertices, facts.vertex_heads, at),
                   "no safe vertices")


def check_bipartite_transport(facts: GraphFacts) -> CheckResult:
    """Where the equal-part biclique decomposition exists, kappa = 1/d."""
    if not facts.triangle_free:
        return _result("bipartite-transport", False, [], "graph has triangles")
    g = facts.graph

    def at(ef: EdgeFact) -> list[str] | None:
        if not ef.decomposable:
            return None
        d = g.degree(ef.x)
        if ef.kappa != Fraction(1, d):
            return [f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                    f"decomposition exists but kappa = {ef.kappa} != 1/{d}"]
        return []

    return _result("bipartite-transport",
                   *_by_class(facts.edges, facts.edge_heads, at),
                   "no edge admits the decomposition")


def check_transport_upper_bound(facts: GraphFacts) -> CheckResult:
    """Triangle-free graphs never exceed kappa = 1/degree on an edge."""
    if not facts.triangle_free:
        return _result("transport-upper-bound", False, [], "graph has triangles")
    g = facts.graph

    def at(ef: EdgeFact) -> list[str] | None:
        if ef.kappa is None:
            return None
        dmax = max(g.degree(ef.x), g.degree(ef.y))
        if ef.kappa.numerator * dmax > ef.kappa.denominator:
            return [f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                    f"kappa = {ef.kappa} > {Fraction(1, dmax)}"]
        return []

    return _result("transport-upper-bound",
                   *_by_class(facts.edges, facts.edge_heads, at),
                   "no safe edges")


def check_test_vectors(facts: GraphFacts) -> CheckResult:
    """Exact evaluations of the two class-certifying vectors."""

    def at(vf: VertexFact) -> list[str] | None:
        tag = f"{facts.key} vertex {vf.label}"
        if vf.structure_class is StructureClass.ONE_UNLINKED:
            if vf.flat_vector_value != 0:
                return [f"{tag}: flat vector evaluates to "
                        f"{vf.flat_vector_value}, not 0"]
            return []
        if vf.structure_class is StructureClass.MULTI_UNLINKED:
            if (vf.negative_vector_value is None
                    or vf.negative_vector_value > -2 * vf.degree):
                return [f"{tag}: negative vector evaluates to "
                        f"{vf.negative_vector_value}, needs <= {-2 * vf.degree}"]
            return []
        return None

    return _result("test-vector-certificates",
                   *_by_class(facts.vertices, facts.vertex_heads, at),
                   "no flat or negative class vertices")


def check_witness_bounds(facts: GraphFacts) -> CheckResult:
    """Constructed plans and potentials must bracket the exact kappa, at
    the first edge of each transport-safe edge class."""
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edge_heads.values():
        x, y, k = ef.x, ef.y, ef.kappa
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
    """At the first edge of each transport-safe edge class, the plan and
    certificate rebuilt there meet exactly, and their distance W gives
    the class's reported kappa as 1 - W."""
    g = facts.graph
    problems = []
    seen = False
    for ef in facts.edge_heads.values():
        x, y, k = ef.x, ef.y, ef.kappa
        if k is None:
            continue
        seen = True
        tag = f"{facts.key} edge ({g.label(x)}, {g.label(y)})"
        detail = kappa_detail(g, x, y)
        dist, plan, cert = detail.wasserstein, detail.plan, detail.certificate
        if k != 1 - dist:
            problems.append(f"{tag}: reported kappa = {k} but the certified "
                            f"distance {dist} gives {1 - dist}")
        try:
            cost = validate_plan(g, x, y, plan)
            if cost != dist:
                problems.append(f"{tag}: plan cost {cost} != distance {dist}")
        except GraphError as e:
            problems.append(f"{tag}: optimal plan invalid: {e}")
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

    def at(ef: EdgeFact) -> list[str] | None:
        if ef.kappa is None:
            return None
        grain = 2 * math.lcm(g.degree(ef.x), g.degree(ef.y))
        if grain % ef.kappa.denominator:
            return [f"{facts.key} edge ({g.label(ef.x)}, {g.label(ef.y)}): "
                    f"kappa = {ef.kappa} not a multiple of 1/{grain}"]
        return []

    return _result("quantization", *_by_class(facts.edges, facts.edge_heads, at),
                   "no safe edges")


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


def min_edge_kappa(facts: GraphFacts) -> Fraction | None:
    """kappa*, the least edge curvature, read once per edge class; None
    when the graph has no edge or an edge the sweep skipped."""
    kappas = [ef.kappa for ef in facts.edge_heads.values()]
    if not kappas or any(k is None for k in kappas):
        return None
    return min(kappas)


def check_diameter_bounds(facts: GraphFacts) -> CheckResult:
    """Positive curvature everywhere caps the diameter."""
    if facts.truncated:
        return _result("diameter-bounds", False, [],
                       "truncated graph stands in for an infinite one")
    kstar = min_edge_kappa(facts)
    if kstar is None:
        return _result("diameter-bounds", False, [], "edge curvatures incomplete")
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
