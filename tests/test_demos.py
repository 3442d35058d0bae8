"""Every demo script and the README quickstart run against the source tree,
the top-level API they import from stays whole, every layer the
benchmark's tracer wraps by name still exists, `verify` still passes the
benchmark's output gate, every public name of the package has a use
outside the tests, and every third-party module the package and its tests
import is declared in pyproject.toml."""

import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import graphcurvature

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_quickstart() -> str:
    """The python block under the README's "Library quickstart" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def readme_command_lines() -> list[list[str]]:
    """The arguments after `python -m graphcurvature` of each command in
    the code block under the README's "Command line" heading, with
    backslash continuations joined and `#` comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    prefix = ["python", "-m", "graphcurvature"]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    assert lines and all(line[:3] == prefix for line in lines)
    return [line[3:] for line in lines]


# (test id, interpreter arguments)
SCRIPTS = [(d.name, [str(d)]) for d in DEMOS]
SCRIPTS.append(("README-quickstart", ["-c", readme_quickstart()]))


@pytest.mark.parametrize("args", [a for _, a in SCRIPTS],
                         ids=[name for name, _ in SCRIPTS])
def test_demo_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if args[0].endswith("02_transport_anatomy.py"):
        assert "gap 0" in done.stdout


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from graphcurvature.cli import main
    for argv in readme_command_lines():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if "--edge" in argv:
            assert "-1/4" in out


def test_public_names_resolve():
    exported = graphcurvature.__all__
    assert [n for n in exported if not hasattr(graphcurvature, n)] == []
    # the benchmark calls these as graphcurvature.<name>
    assert {"parse_graph_spec", "cd_curvature", "extract_ball",
            "kappa_detail"} <= set(exported)


def load_perfbench(name: str):
    """perfbench/<name>.py as a module of its own, read from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # perfbench/tracing.py wraps package functions by name; a renamed or
    # deleted layer would otherwise fail only the benchmark's own tests
    tracing = load_perfbench("tracing")
    import graphcurvature.cli  # noqa: F401  (loads every traced module)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


def kernel_calls(metrics):
    """The traced call counts of the transport and spectral kernels."""
    return {name: metrics[f"{name}.calls"] for name in (
        "ollivier.TransportProblem", "ollivier.wasserstein",
        "ollivier._min_cost_flow", "classify.bipartite_decomposition",
        "bakry_emery.eigh")}


def test_traced_eigh_counts_one_per_refined_class(capsys):
    # the tracer counts eigh by proxying bakry_emery's numpy, so an eigh
    # called from anywhere else would read 0 calls with every layer
    # present; the dense-sweep graphs have 1, 1 and 4 refined classes.
    # The transport kernels are pinned too: the sweep solves once per set
    # of edge keys joined with their reverse keys (10, 8 and 8) and the
    # deep checks once per safe edge class (1, 1 and 4), so a change to
    # either rule fails here and not only in a benchmark run
    tracing = load_perfbench("tracing")
    from graphcurvature.cli import main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for spec in ("transpositions:5", "hypercube:8", "flip:8"):
            assert main(["curvature", f"gen:{spec}", "--all",
                         "--format", "csv"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.absent == []
    assert kernel_calls(tracer.metrics()) == {
        "ollivier.TransportProblem": 35, "ollivier.wasserstein": 35,
        "ollivier._min_cost_flow": 6, "classify.bipartite_decomposition": 30,
        "bakry_emery.eigh": 6}


def test_traced_corpus_verify_sees_the_moved_layers(capsys):
    # the corpus-verify workload under the tracer: the sweep and the CSV
    # renderer stay where the tracer wraps them, once per graph and once
    # per report
    tracing = load_perfbench("tracing")
    from graphcurvature.cli import main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--jobs", "1", "--format", "csv"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.absent == []
    metrics = tracer.metrics()
    assert metrics["checks.gather_facts.calls"] == 47
    assert metrics["report.to_csv.calls"] == 1
    # the kernel work: the sweep solves once per set of edge keys joined
    # with their reverse keys and certifies rho once per refined class,
    # and the deep checks add their own solves, so a change to the classes
    # that moves kernel work fails here
    assert kernel_calls(metrics) == {
        "ollivier.TransportProblem": 161, "ollivier.wasserstein": 161,
        "ollivier._min_cost_flow": 53, "classify.bipartite_decomposition": 115,
        "bakry_emery.eigh": 40}


def test_verify_rows_match_the_benchmark_reference(capsys):
    # the benchmark's output gate, run here over every graph it holds, so
    # a changed row fails tier-1 and not only a benchmark run
    gate = load_perfbench("gate")
    reference = gate.load_reference()
    graphs = list(reference)
    assert len(graphs) == 50
    from graphcurvature.cli import main
    code = main(["verify", *graphs, "--jobs", "1", "--format", "csv"])
    out = capsys.readouterr().out
    attempted, failed, problems = gate.compare_sweep([out], graphs, reference)
    assert code == 0
    assert problems == []
    assert failed == 0
    assert attempted == sum(map(len, reference.values()))


# public names kept although only tests use them, with the reason
TEST_ONLY_ALLOWED = {
    # the interchange rule itself; acceptance criterion 8 checks it against
    # the classification of every vertex of the interchange graphs
    "interchange_class",
}


def public_definitions():
    """(name, where) for every public top-level def or class of the package
    and every public method of those classes."""
    for path in sorted((ROOT / "src" / "graphcurvature").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield node.name, path.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not sub.name.startswith("_"):
                        yield sub.name, f"{path.name}:{node.name}"


def test_every_public_name_has_a_non_test_use():
    users = (sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "README.md"])
    text = "\n".join(p.read_text(encoding="utf-8") for p in users)
    # a name whose only whole-word occurrence is its own definition
    unused = [f"{where}: {name}" for name, where in public_definitions()
              if name not in TEST_ONLY_ALLOWED
              and len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1]
    assert unused == []


def third_party_imports(paths) -> dict[str, list[str]]:
    """Each module imported from outside the stdlib, the package and the
    files of `paths`' own directories -> the files importing it."""
    local = {"graphcurvature"} | {p.stem for d in {p.parent for p in paths}
                                  for p in d.glob("*.py")}
    found: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, []).append(path.name)
    return found


def test_every_third_party_import_is_declared():
    # CI installs what pyproject.toml declares, so a module the package,
    # the tests or the benchmark's tests import without declaring it
    # would fail there only
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9._-]+", r).group().lower()
                for r in requirements}

    runtime = names(project["dependencies"])
    test_extra = names(project["optional-dependencies"]["test"])
    package = third_party_imports(
        sorted((ROOT / "src" / "graphcurvature").glob("*.py")))
    tests = third_party_imports(sorted((ROOT / "tests").glob("*.py"))
                                + sorted((ROOT / "perfbench").glob("*.py")))
    assert {m: w for m, w in package.items() if m not in runtime} == {}
    assert {m: w for m, w in tests.items()
            if m not in runtime | test_extra} == {}
    assert {"numpy"} <= runtime
    assert {"pytest", "hypothesis"} <= test_extra
    assert {"numpy", "pytest", "hypothesis"} <= set(tests)
