"""Record the sweep reference the output gate compares against.

    python3 perfbench/record_reference.py

Runs `verify` over run.CORPUS and `curvature --all` over the
dense-sweep graphs, once each in corpus order, and writes every row's
gated fields to perfbench/reference.json.gz.  Record only at a commit
whose outputs are trusted; the committed file comes from the seed commit
named inside it.
"""

from __future__ import annotations

import gzip
import json
import subprocess

import gate
import run


def main() -> None:
    run.load_package()
    dense = [["curvature", f"gen:{s}", "--all", "--format", "csv"]
             for s in run.WORKLOADS["dense-sweep"].specs]
    commands = [["verify", *run.CORPUS, "--jobs", "1", "--format", "csv"],
                *dense]
    graphs: dict[str, list] = {}
    for argv in commands:
        code, text = run.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        for graph, key, value in gate.parse_rows(text):
            graphs.setdefault(graph, []).append([key, value])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit, "rho_tolerance": gate.RHO_TOLERANCE,
           "graphs": graphs}
    with gzip.GzipFile(gate.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode("utf-8"))
    rows = sum(len(v) for v in graphs.values())
    print(f"{rows} rows over {len(graphs)} graphs -> {gate.REFERENCE.name}")


if __name__ == "__main__":
    main()
