"""Benchmark of graphcurvature: exact curvature sweeps and library probes.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one caller in one process and one
thread, with BLAS pinned to one thread.  The sweeps' inputs are fixed by
definition; the seed picks which vertices and edges the probe workload
visits.

  corpus-verify  `verify --jobs 1 --format csv` over the 47 graphs of CORPUS
  dense-sweep    `curvature --all --format csv` on three dense regular graphs
  probe          single-vertex rho and single-edge kappa on hypercube:9

`--trace 0` repeats the workload's iteration, twice and then while a
typical iteration still ends within `--seconds`, and prints the end-to-end
metrics; the probe workload also prints its per-probe latency percentiles
with their sample counts.  The shared host's speed drifts by up to 2x
within a minute, so every timing of an untraced run is taken by a
hostspeed.Sampler and reported at the sampler's reference speed: setup_s
and wall_s are seconds at that speed, and the raw seconds are printed
beside them.  The probe percentiles are raw, less the sampler's time.
`--trace 1` runs one untraced and one traced iteration and prints
per-layer self time and call counts, the exact work counters and the
tracing overhead; the spans are written to .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every output
matches its reference, 1 on a mismatch, 2 when ./src/graphcurvature is
missing.  The self-tests run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 11
BUILD_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import graphcurvature; "
                "print(time.perf_counter() - t)")


# The default corpus of the seed commit, in its order.  Fixed here, not
# read from the package, so that a change to the package's corpus cannot
# change what this workload measures.
CORPUS = (
    "hypercube:2", "hypercube:3", "hypercube:4", "hypercube:5", "hypercube:6",
    "cycle:4", "cycle:5", "cycle:6", "cycle:7", "cycle:8",
    "complete-bipartite:2", "complete-bipartite:3", "complete-bipartite:4",
    "complete-bipartite:5", "complete-bipartite:6",
    "lattice:1:4", "lattice:2:4", "lattice:3:4",
    "tree:3:4", "tree:4:4", "tree:5:4",
    "star:3", "star:4", "star:5", "star:6", "star:7", "star:8",
    "petersen", "dodecahedron", "biplane", "flip:5", "flip:6",
    "transpositions:3", "transpositions:4",
    "adjacent-transpositions:3", "adjacent-transpositions:4",
    "interchange:matching:1", "interchange:matching:2",
    "interchange:matching:3", "interchange:paths:2", "interchange:paths:2+1",
    "interchange:paths:2+2", "interchange:paths:3", "interchange:star:3",
    "interchange:complete:3",
    "zigzag:hypercube:6,cycle:6", "zigzag:hypercube:8,cycle:8",
)


@dataclass(frozen=True)
class Workload:
    """Graph specs built at set-up and, for the probe workload, the number
    of rho/kappa probe pairs in one iteration.  BENCHMARK.json says why
    each workload was chosen."""

    name: str
    specs: tuple[str, ...]
    probe_pairs: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("corpus-verify", CORPUS),
    Workload("dense-sweep", ("transpositions:5", "hypercube:8", "flip:8")),
    Workload("probe", ("hypercube:9",), 100),
)}


def load_package():
    """Import graphcurvature from this checkout's src, never elsewhere."""
    if not (SRC / "graphcurvature" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gc = importlib.import_module("graphcurvature")
    if Path(gc.__file__).resolve().parent != SRC / "graphcurvature":
        print(f"perfbench: graphcurvature came from {gc.__file__}",
              file=sys.stderr)
        raise SystemExit(2)
    importlib.import_module("graphcurvature.cli")
    return gc


def import_seconds() -> float:
    """Import time of graphcurvature (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-s", "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def run_cli(argv) -> tuple[int, str]:
    """`graphcurvature.cli.main(argv)` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["graphcurvature.cli"].main(argv)
    return code, buf.getvalue()


class Bench:
    """One workload in one process: set-up, iterations and their gate."""

    def __init__(self, gc, workload: Workload, seed: int):
        self.gc = gc
        self.workload = workload
        self.seed = seed
        self.specs = list(workload.specs)
        if workload.name == "corpus-verify":
            self.commands = [["verify", *self.specs, "--jobs", "1",
                              "--format", "csv"]]
        elif workload.name == "dense-sweep":
            self.commands = [["curvature", f"gen:{s}", "--all", "--format",
                              "csv"] for s in self.specs]
        else:
            self.commands = []
        self.reference = gate.load_reference() if self.commands else None
        self.graphs = {}
        self.probes = []
        self.clock = perf_counter  # times single probes
        self.rho_ms: list[float] = []
        self.kappa_ms: list[float] = []

    def setup(self) -> None:
        """Build every graph of the workload.

        Only the probe workload keeps its graphs: the sweeps' `cli.main`
        builds its own, so holding these would add to peak_rss_mb."""
        graphs = {s: self.gc.parse_graph_spec(s) for s in self.specs}
        if self.workload.probe_pairs:
            self.graphs = graphs
            g = graphs[self.specs[0]]
            rng = random.Random(self.seed)
            self.probes = []
            for _ in range(self.workload.probe_pairs):
                x = rng.choice(g.vertices)
                self.probes.append((x, rng.choice(g.neighbors(x))))

    def iteration(self, tracer=None) -> list:
        """One unit of work; returns its outputs for `check`."""
        if not self.commands:
            return self.probe(tracer)
        run = tracer.span("bench.cli_main", run_cli) if tracer else run_cli
        outputs = []
        for i, argv in enumerate(self.commands):
            if tracer:
                tracer.run = f"cli:{i}"
            outputs.append(run(argv))
        return outputs

    def check(self, outputs) -> tuple[int, int, list[str]]:
        """Gate one iteration's outputs: (attempted, failed, problems)."""
        if not self.commands:
            n = int(self.specs[0].split(":")[1])
            problems = [p for r in outputs for p in gate.probe_problems(n, *r)]
            return 2 * len(outputs), len(problems), problems
        attempted, failed, problems = gate.compare_sweep(
            [text for _, text in outputs], self.specs, self.reference)
        for argv, (code, _) in zip(self.commands, outputs):
            if code != 0:
                failed += 1
                problems.append(f"{' '.join(argv[:2])}: exit code {code}")
        return attempted, failed, problems

    def probe(self, tracer=None) -> list:
        """The probe sequence on hypercube:n; each probe timed by self.clock."""
        gc = self.gc
        g = self.graphs[self.specs[0]]

        def rho(x):
            return gc.cd_curvature(gc.extract_ball(g, x))

        def kappa(x, y):
            return gc.kappa_detail(g, x, y)

        if tracer:
            rho = tracer.span("bench.rho_probe", rho)
            kappa = tracer.span("bench.kappa_probe", kappa)
        clock = self.clock
        results = []
        for i, (x, y) in enumerate(self.probes):
            if tracer:
                tracer.run = f"probe:{i}"
            t = clock()
            res = rho(x)
            t1 = clock()
            detail = kappa(x, y)
            t2 = clock()
            self.rho_ms.append((t1 - t) * 1e3)
            self.kappa_ms.append((t2 - t1) * 1e3)
            results.append((x, y, res, detail))
        return results


def percentiles(samples) -> str:
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return (f"p50 {statistics.median(samples):.4f} ms, p90 {cuts[8]:.4f} ms "
            f"({len(samples)} samples)")


def measure(bench: Bench, seconds: float):
    """End-to-end metrics of an untraced run, at the reference speed."""
    sampler = hostspeed.Sampler()
    bench.clock = sampler.clock
    with sampler.running():
        builds = [sampler.measure(bench.setup) for _ in range(BUILD_REPEATS)]
        imports = [sampler.measure(import_seconds)
                   for _ in range(IMPORT_REPEATS)]
        raws, walls, laps = [], [], []
        attempted, failed, problems = 0, 0, []
        start = perf_counter()
        # Two iterations at least, so that peak_rss_mb does not depend on
        # whether a slow host fits a second one; then another only while a
        # typical one still ends in time.
        while (len(laps) < 2
               or perf_counter() - start + statistics.median(laps) <= seconds):
            lap = perf_counter()
            outputs, raw, speed = sampler.measure(bench.iteration)
            a, f, p = bench.check(outputs)
            raws.append(raw)
            walls.append(raw * speed)
            laps.append(perf_counter() - lap)
            attempted, failed = attempted + a, failed + f
            problems += p
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import_s = statistics.median(secs * speed for secs, _, speed in imports)
    build_s = statistics.median(raw * speed for _, raw, speed in builds)
    metrics = {
        "setup_s": (import_s + build_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    raw_setup = (statistics.median(secs for secs, _, _ in imports)
                 + statistics.median(raw for _, raw, _ in builds))
    notes = [
        f"setup_s: median of {IMPORT_REPEATS} fresh imports + median of "
        f"{BUILD_REPEATS} builds of {len(bench.specs)} graph(s); "
        f"raw {raw_setup:.4f} s",
        f"wall_s: median of {len(walls)} iteration(s), from {min(walls):.4f} "
        f"to {max(walls):.4f} s; raw median {statistics.median(raws):.4f} s",
        f"host speed: {len(sampler.samples)} kernel samples, median "
        f"{statistics.median(sampler.samples) * 1e3:.4f} ms against "
        f"{hostspeed.REFERENCE_S * 1e3:.4f} ms; sampling took "
        f"{sampler.own_s:.3f} s",
    ]
    if bench.rho_ms:
        notes.append(f"rho probe: {percentiles(bench.rho_ms)}")
        notes.append(f"kappa probe: {percentiles(bench.kappa_ms)}")
    return metrics, attempted, failed, problems, notes


def timed(fn):
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def measure_traced(bench: Bench, out: Path):
    """Per-layer metrics from one traced iteration, next to an untraced one."""
    bench.setup()
    outputs, untraced = timed(bench.iteration)
    a0, f0, p0 = bench.check(outputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run = "setup"
        tracer.span("bench.setup", bench.setup)()
        outputs, traced = timed(lambda: bench.iteration(tracer))
    finally:
        tracer.uninstall()
    a1, f1, p1 = bench.check(outputs)
    tracer.write(out)
    units = dict(tracing.per_layer_names())
    values = tracer.metrics()
    values[tracing.OVERHEAD[0]] = traced - untraced
    metrics = {name: (values[name], units[name]) for name in units}
    notes = [
        f"trace: untraced {untraced:.3f} s, traced {traced:.3f} s, "
        f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}",
        "absent layers: " + (", ".join(tracer.absent) or "none"),
    ]
    return metrics, a0 + a1, f0 + f1, p0 + p1, notes


def provenance(gc) -> str:
    numpy = sys.modules["numpy"]
    blas = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREADS)
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"graphcurvature {gc.__version__}, nproc {os.cpu_count()}, {blas}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    gc = load_package()
    bench = Bench(gc, WORKLOADS[ns.workload], ns.seed)
    if ns.trace:
        out = ROOT / ".perfbench" / f"trace-{ns.workload}-seed{ns.seed}.jsonl.gz"
        metrics, attempted, failed, problems, notes = measure_traced(bench, out)
    else:
        metrics, attempted, failed, problems, notes = measure(bench, ns.seconds)
    print(f"perfbench {ns.workload} seed {ns.seed} trace {ns.trace}: "
          f"{provenance(gc)}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit}")
    print(f"{'error_rate':<44} {failed / attempted:>14.6f} "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
