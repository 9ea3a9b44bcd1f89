"""List the ``src/`` defs that no recorded command enters.

    python tools/reachability.py run --out DIR -- python -m repro.cli suite
    python tools/reachability.py report --out DIR [--src src]

``run`` executes one command with a profile hook (``sys.setprofile`` and
``threading.setprofile``) installed in every Python process it starts:
a ``sitecustomize`` module placed first on ``PYTHONPATH`` installs it, so
subprocesses (perfbench set-up children, pytest) are recorded too.  Each
process appends the ``(file, first line)`` of every code object under
``--src`` that it entered to ``DIR/<pid>.reach``; runs accumulate, so one
directory collects every entry point.  Keep ``DIR`` outside the checkout.

``report`` parses every ``*.py`` under ``--src`` and lists, per file, the
defs that no recorded process entered, with their line counts.  A def
nested in an unreached def is not listed again.  Exit status is 0.

The entry points a full pass records, each as one ``run`` into the same
``DIR``, from the root of a copy of the checkout (benchmarks rewrite
``BENCH_*.json``) with ``PYTHONPATH=src``; ``P`` is
``python -m repro.cli`` and ``W`` a scratch directory:

* ``P suite``; ``P frontier LU/Small/LUDecomposition``;
  ``P train -o W/m.json``;
  ``P train -o W/m2.json --exclude-benchmark LU --transform log
  --n-clusters 4``; ``P predict -m W/m.json LU/Small/LUDecomposition
  --cap 20``; ``P predict -m W/m.json CoMD/Small/EAMForce --goal
  energy``;
* ``P evaluate --telemetry-out W/t1.json``;
  ``P evaluate --backend biglittle --no-freq-limiting --n-jobs 2``;
  ``P evaluate --telemetry-out W/t2.json --n-jobs 2``;
* for each ``F`` in ``tests/fault_plans/*.json``:
  ``P -q evaluate --backend mpsoc --fault-plan F``,
  ``P runtime "LULESH Large" --cap 18 --fault-plan F`` and
  ``P serve --requests 2000 --rate 5000 --fault-plan F``;
* ``P accuracy``; ``P accuracy --backend mpsoc --n-jobs 2``;
  ``P runtime "CoMD Small" --cap 22``; ``P report -o W/report.md``;
* ``P cluster --n-nodes 256 --epochs 2 --churn 8 --tree``;
  ``P cluster --n-nodes 2000 --tree``;
  ``P cluster --policy maxmin --n-nodes 300``;
  ``P cluster --policy uniform --n-nodes 300 --budget 4000``;
* ``P search --space demo --population 48 --generations 10
  --baseline-budget 1000``; ``P search --space paper --json W/s.json``;
  ``P search --backend biglittle --generations 10``;
* ``P serve --requests 4000 --rate 20000``;
  ``P serve --requests 3000 --rate 2000 --fault-plan
  tests/fault_plans/sensor_dropout.json --monitor-dump W/dump.json
  --monitor-jsonl W/ring.jsonl``;
* ``P transfer --eval-backend mpsoc --ks 0,1 --json W/tr.json``;
  ``P telemetry W/t1.json``; ``P telemetry --diff W/t1.json W/t2.json
  --all``; ``P top --dump W/dump.json``; ``P top --cluster --epochs 4``;
* a live monitor: ``P --log-json serve --requests 20000 --rate 2000
  --monitor-port 9377 --slo-file W/slo.json`` in the background (the
  file holds ``[{"name": "lat", "expr": "server.latency_s p99 <
  0.005"}]``), scraped by ``P top 127.0.0.1:9377 --frames 2 --interval
  0.5`` and one GET of ``/metrics``;
* ``python examples/X.py`` for every example;
* ``python perfbench/run.py --workload X --seed 0 --seconds 3 --trace 1``
  for ``X`` in loocv, offline, serve and fleet;
* ``python -m pytest benchmarks/ --benchmark-only -q`` (every file; the
  hook's slowdown fails the 0.25 s gate of
  ``test_bench_selection_runtime.py``, which passes unhooked).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

_HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg, _add=_seen.add):
    _add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
_cwd = os.getcwd()
@atexit.register
def _dump():
    sys.setprofile(None)
    src = os.environ["REACH_SRC"]
    rows = set()
    for code in list(_seen):
        path = os.path.realpath(os.path.join(_cwd, code.co_filename))
        if path.startswith(src):
            rows.add(f"{path}\\t{code.co_firstlineno}\\n")
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.reach"), "a") as f:
        f.writelines(sorted(rows))
'''


def _run(out: Path, src: Path, cmd: list[str]) -> int:
    hook_dir = out / "_hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(_HOOK)
    env = dict(os.environ, REACH_OUT=str(out), REACH_SRC=str(src) + os.sep)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook_dir), env.get("PYTHONPATH")) if p
    )
    return subprocess.call(cmd, env=env)


def _defs(tree: ast.AST):
    """Yield ``(qualname, first line, last line, parent def)`` per def."""
    stack = [(tree, "", None)]
    while stack:
        node, prefix, parent = stack.pop()
        for child in ast.iter_child_nodes(node):
            name, owner = prefix, parent
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield name, first, child.end_lineno, parent
                    owner = (name, first)
                name += "."
            stack.append((child, name, owner))


def _report(out: Path, src: Path) -> int:
    seen = set()
    for part in out.glob("*.reach"):
        for line in part.read_text().splitlines():
            path, lineno = line.split("\t")
            seen.add((path, int(lineno)))
    total = n_defs = n_lines = 0
    for path in sorted(src.rglob("*.py")):
        real = os.path.realpath(path)
        rows = []
        for name, first, last, parent in _defs(ast.parse(path.read_text())):
            total += 1
            if (real, first) in seen:
                continue
            n_defs += 1
            if parent is None or (real, parent[1]) in seen:
                rows.append((first, name, last - first + 1))
        if rows:
            n_lines += sum(r[2] for r in rows)
            print(f"{path}: {len(rows)} defs, {sum(r[2] for r in rows)} lines")
            for first, name, lines in sorted(rows):
                print(f"  {first:5d}  {name} ({lines})")
    print(f"TOTAL: {n_defs} of {total} defs unreached, {n_lines} lines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("run", "report"))
    parser.add_argument("--out", required=True, type=Path, help="record directory")
    parser.add_argument("--src", default="src", type=Path, help="tree to measure")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args, cmd = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    out, src = args.out.resolve(), Path(os.path.realpath(args.src))
    if args.action == "report":
        return _report(out, args.src)
    if not cmd:
        parser.error("run needs a command after --")
    return _run(out, src, cmd)


if __name__ == "__main__":
    sys.exit(main())
