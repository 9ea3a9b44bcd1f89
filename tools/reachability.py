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
