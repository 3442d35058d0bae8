"""Graph addressing mini-language and the default verification corpus.

Specs look like `gen:hypercube:4`, `cycle:5`, `file:graph.json`,
`zigzag:hypercube:6,cycle:6`, or `interchange:paths:2+1`; integer ranges
such as `hypercube:2..6` expand into one spec per value.  The default
corpus is the graph family list the verification harness sweeps.  A
corpus item is a graph and its report key alone: what the checks examine
follows from the classes of the sweep, so no family's vertex labels are
spelled out here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import families
from .graphs import Graph, GraphError, load_graph

_RANGE = re.compile(r"(\d+)\.\.(\d+)")


def expand_spec(spec: str) -> list[str]:
    """Expand the first a..b range; specs use at most one."""
    m = _RANGE.search(spec)
    if not m:
        return [spec]
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise GraphError(f"empty range {m.group(0)} in {spec!r}")
    return [spec[:m.start()] + str(v) + spec[m.end():] for v in range(lo, hi + 1)]


def _int_args(name: str, args: list[str], count: int) -> list[int]:
    if len(args) != count:
        raise GraphError(
            f"generator {name!r} takes {count or 'no'} integer parameter(s), "
            f"got {args!r}"
        )
    try:
        return [int(a) for a in args]
    except ValueError:
        raise GraphError(f"non-integer parameter in {args!r} for {name!r}") from None


def canonical_key(spec: str) -> str:
    """The name a spec's report rows and timing go under."""
    spec = spec.strip()
    return spec[4:] if spec.startswith("gen:") else spec


def _paths(arg: str) -> Graph:
    if not re.fullmatch(r"\d+(\+\d+)*", arg):
        raise GraphError(f"paths takes lengths like 2+1, got {arg!r}")
    return families.path_union([int(t) for t in arg.split("+")])


def _zigzag(arg: str) -> Graph:
    parts = arg.split(",")
    if len(parts) != 2:
        raise GraphError(
            f"zigzag takes exactly two comma-separated sub-specs, got {arg!r}")
    return families.zigzag(parse_graph_spec(parts[0]),
                           parse_graph_spec(parts[1]))


def _interchange(arg: str) -> Graph:
    return families.interchange_graph(parse_graph_spec(arg))


# generator name -> (constructor, number of integer parameters); None
# hands the constructor the rest of the spec as it stands
_GENERATORS = {
    "adjacent-transpositions": (families.adjacent_transposition_cayley, 1),
    "complete": (families.complete_graph, 1),
    "complete-bipartite": (families.complete_bipartite, 1),
    "cycle": (families.cycle, 1),
    "flip": (families.flip_graph, 1),
    "hypercube": (families.hypercube, 1),
    "matching": (families.matching_graph, 1),
    "path": (families.path_graph, 1),
    "star": (families.star, 1),
    "transpositions": (families.transposition_cayley, 1),
    "lattice": (families.lattice_ball, 2),
    "tree": (families.regular_tree, 2),
    "gp": (families.generalized_petersen, 2),
    "petersen": (families.petersen, 0),
    "dodecahedron": (families.dodecahedron, 0),
    "biplane": (families.biplane_incidence, 0),
    "paths": (_paths, None),
    "zigzag": (_zigzag, None),
    "interchange": (_interchange, None),
    "file": (load_graph, None),
}


def parse_graph_spec(spec: str) -> Graph:
    """Build the graph a spec names."""
    name, sep, rest = canonical_key(spec).partition(":")
    if name not in _GENERATORS:
        raise GraphError(
            f"unknown generator {name!r}; known: {', '.join(_GENERATORS)}")
    build, arity = _GENERATORS[name]
    if arity is None:
        return build(rest)
    return build(*_int_args(name, rest.split(":") if sep else [], arity))


@dataclass(frozen=True)
class CorpusItem:
    """A corpus graph under the key its report rows go under.

    The checks choose what they examine from the sweep's classes: every
    per-element statement reads the first row of each class, and the deep
    plan, certificate and witness checks run at the first edge of each
    transport-safe edge class.
    """

    key: str
    graph: Graph


def build_item(spec: str) -> CorpusItem:
    return CorpusItem(canonical_key(spec), parse_graph_spec(spec))


DEFAULT_SPECS = [
    "hypercube:2..6",
    "cycle:4..8",
    "complete-bipartite:2..6",
    "lattice:1..3:4",
    "tree:3..5:4",
    "star:3..8",
    "petersen",
    "dodecahedron",
    "biplane",
    "flip:5..6",
    "transpositions:3..4",
    "adjacent-transpositions:3..4",
    "interchange:matching:1..3",
    "interchange:paths:2",
    "interchange:paths:2+1",
    "interchange:paths:2+2",
    "interchange:paths:3",
    "interchange:star:3",
    "interchange:complete:3",
    "zigzag:hypercube:6,cycle:6",
    "zigzag:hypercube:8,cycle:8",
]


def default_corpus_specs() -> list[str]:
    out: list[str] = []
    for spec in DEFAULT_SPECS:
        out.extend(expand_spec(spec))
    return out
