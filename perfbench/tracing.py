"""Span tracing of graphcurvature layers from outside the package.

Each traced layer is a public function (or method) whose binding is
replaced by a timing wrapper in every loaded ``graphcurvature`` module
namespace that holds it: ``from .x import y`` copies the binding, so
patching the defining module alone would miss ``checks.cd_curvature``,
``ollivier.bfs_distances`` or ``cli.gather_facts``.  Spans stay in memory
as ``[name, start, end, parent, run]`` lists and are written out once,
after the traced iteration.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

CHECKS = (
    "cd_class", "ollivier_class", "cd_vs_ollivier", "linkage_positive_cd",
    "bipartite_transport", "transport_upper_bound", "test_vectors",
    "witness_bounds", "duality", "quantization", "diameter_bounds",
)

# "<module>.<attribute path>"; a class name alone means its constructor
LAYERS = (
    "bakry_emery.gamma2_form",
    "bakry_emery.eliminate_second_neighbors",
    "bakry_emery.QuadraticForm.value",
    "bakry_emery.eigh",
    "bakry_emery.cd_curvature",
    "graphs.extract_ball",
    "graphs.is_regular",
    "graphs.effective_degree",
    "graphs.contains_k3",
    "graphs.contains_k23",
    "graphs.bfs_distances",
    "ollivier.TransportProblem",
    "ollivier._min_cost_flow",
    "ollivier._dual_certificate",
    "ollivier.wasserstein",
    "ollivier.kappa_detail",
    "ollivier.kappa_lower_witness",
    "ollivier.kappa_upper_witness",
    "ollivier.validate_plan",
    "ollivier.certificate_violations",
    "ollivier.extend_certificate",
    "classify.link_profile",
    "classify.classify_vertex",
    "classify.bipartite_decomposition",
    "classify.flat_test_vector",
    "classify.negative_test_vector",
    "checks.gather_facts",
    "checks.run_checks",
    *(f"checks.check_{name}" for name in CHECKS),
    "corpus.build_item",
    "corpus.parse_graph_spec",
    "report.to_csv",
)

# exact work counts, as (metric name, unit)
COUNTERS = (
    ("bakry_emery.gamma2_form.per_vertex", "builds/vertex"),
    ("bakry_emery.gamma2_form.entries", "count"),
    ("ollivier.wasserstein.per_edge", "solves/edge"),
)

OVERHEAD = ("trace.overhead_s", "s")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        names.append((f"{layer}.calls", "count"))
    return names + list(COUNTERS) + [OVERHEAD]


class _Proxy:
    """Attribute view of `target` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Install with `install()`, run traced code, then `uninstall()`."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._ball_keys: dict[int, tuple[str, int]] = {}
        self._gamma2_bases: list[tuple[str, int]] = []
        self._gamma2_entries = 0
        self._wasserstein_pairs: list[tuple[str, frozenset]] = []

    def span(self, name, func, observe=None):
        """Wrap `func` so each call records a span named `name`."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.run]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "graphcurvature" or n.startswith("graphcurvature.")]
        for layer in LAYERS:
            modname, *path = layer.split(".")
            owner = sys.modules.get(f"graphcurvature.{modname}")
            if layer == "bakry_emery.eigh":
                np = getattr(owner, "np", None)
                if np is None:
                    self.absent.append(layer)
                    continue
                eigh = self.span(layer, np.linalg.eigh)
                self._set(owner, "np",
                          _Proxy(np, linalg=_Proxy(np.linalg, eigh=eigh)))
                continue
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.absent.append(layer)
            elif isinstance(original, type):
                self._set(original, "__init__",
                          self.span(layer, original.__init__))
            elif len(path) > 1:
                self._set(owner, path[-1], self.span(layer, original))
            else:
                wrapped = self.span(layer, original, self._observer(layer))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
                        elif (isinstance(value, tuple)
                              and any(v is original for v in value)):
                            # registries such as checks.ALL_CHECKS
                            self._set(mod, key, tuple(
                                wrapped if v is original else v for v in value))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _observer(self, layer):
        # distinct vertices and edges are keyed by graph name, because
        # vertex ids repeat across the graphs of a sweep
        if layer == "graphs.extract_ball":
            def observe(args, ball):
                self._ball_keys[id(ball)] = (args[0].name, args[1])
            return observe
        if layer == "bakry_emery.gamma2_form":
            def observe(args, form):
                ball = args[0]
                self._gamma2_bases.append(
                    self._ball_keys.get(id(ball), ("", ball.base)))
                self._gamma2_entries += len(form.index) ** 2
            return observe
        if layer == "ollivier.wasserstein":
            def observe(args, _):
                tp = args[0]
                self._wasserstein_pairs.append(
                    (tp.graph.name, frozenset((tp.mu, tp.nu))))
            return observe
        return None

    def metrics(self) -> dict[str, float]:
        """Self seconds and calls per layer plus the exact work counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        bases = len(set(self._gamma2_bases))
        pairs = len(set(self._wasserstein_pairs))
        out["bakry_emery.gamma2_form.per_vertex"] = (
            len(self._gamma2_bases) / bases if bases else 0.0)
        out["bakry_emery.gamma2_form.entries"] = self._gamma2_entries
        out["ollivier.wasserstein.per_edge"] = (
            len(self._wasserstein_pairs) / pairs if pairs else 0.0)
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
