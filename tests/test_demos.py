"""Every demo script and the README quickstart run against the source tree,
and the top-level API they import from stays whole."""

import os
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


def test_public_names_resolve():
    exported = graphcurvature.__all__
    assert [n for n in exported if not hasattr(graphcurvature, n)] == []
    # the benchmark calls these as graphcurvature.<name>
    assert {"parse_graph_spec", "cd_curvature", "extract_ball",
            "kappa_detail"} <= set(exported)
