"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {w.name: w for w in (
    run.Workload("corpus-verify", ("hypercube:3", "cycle:5", "petersen",
                                   "star:4", "complete-bipartite:3")),
    run.Workload("dense-sweep", ("hypercube:4", "flip:5")),
    run.Workload("probe", ("hypercube:4",), 15),
)}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    """Every workload on small graphs, so that a run takes a second."""
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    return code, result, units, lines


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_prints_every_end_to_end_metric(capsys, workload):
    code, result, units, lines = _run(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("error_rate") for line in lines)
    if workload == "probe":
        for kind in ("rho", "kappa"):
            assert any(line.startswith(f"{kind} probe: p50 ")
                       and line.endswith("samples)") for line in lines)


def test_traced_run_prints_every_per_layer_metric(capsys):
    code, result, units, lines = _run(capsys, "dense-sweep", trace=1)
    assert code == 0 and result["correct"]
    assert units == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert "absent layers: none" in lines
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["bakry_emery.eigh.calls"] > 0
    assert values["ollivier._min_cost_flow.calls"] > 0
    assert values["checks.check_duality.calls"] == 2  # once per graph


def test_tracer_records_a_missing_private_layer_as_absent(monkeypatch):
    run.load_package()
    ollivier = sys.modules["graphcurvature.ollivier"]
    monkeypatch.delattr(ollivier, "_min_cost_flow")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ollivier._min_cost_flow"]
    assert tracer.metrics()["ollivier._min_cost_flow.calls"] == 0


def test_gate_rejects_a_perturbed_kappa(capsys, monkeypatch):
    run.load_package()
    checks = sys.modules["graphcurvature.checks"]
    original = checks.ollivier_kappa
    shifted = []

    def perturbed(g, x, y):
        kappa = original(g, x, y)
        if shifted:
            return kappa
        shifted.append((x, y))
        return kappa + Fraction(1, 7)

    monkeypatch.setattr(checks, "ollivier_kappa", perturbed)
    code, result, _, lines = _run(capsys, "corpus-verify")
    assert shifted
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("MISMATCH") and "'edge'" in line
               for line in lines)


def test_gate_counts_a_graph_outside_the_reference_as_failed():
    reference = gate.load_reference()
    assert set(run.CORPUS) <= set(reference)
    row = "kind,graph,a,b,safe,rho,class,N,kappa,applicable,passed\n"
    text = row + "vertex,nope,0,,1,2,A,3,,,\n"
    attempted, failed, problems = gate.compare_sweep(
        [text], ["petersen", "nope"], reference)
    assert failed == 1 + 1 + len(reference["petersen"])
    assert attempted == failed
    assert "nope: not in the reference" in problems


def test_sampler_takes_its_own_time_out_and_stops():
    run.load_package()
    handler = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    t0 = time.perf_counter()
    with sampler.running():
        _, elapsed, speed = sampler.measure(lambda: time.sleep(0.35))
    outer = time.perf_counter() - t0
    assert len(sampler.samples) >= 4  # before, after and during the call
    assert speed > 0
    assert 0 < elapsed and elapsed + sampler.own_s <= outer
    assert outer - elapsed - sampler.own_s < 0.05
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_seed_same_inputs():
    gc = run.load_package()
    for workload in run.WORKLOADS.values():
        a, b = (run.Bench(gc, workload, 7) for _ in range(2))
        a.setup()
        b.setup()
        assert a.specs == b.specs and a.probes == b.probes


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
