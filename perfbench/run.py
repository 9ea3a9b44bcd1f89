"""Benchmark of the adaptive configuration-selection pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload loocv --seed 0 --seconds 15 --trace 0

Workloads (see README.md): ``loocv`` (the paper's evaluation, warm),
``offline`` (bringing up three new machines), ``serve`` (the decision
server, closed and open loop), ``fleet`` (frontier search and fleet
budget allocation).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split of a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin the program to its defaults before anything imports it: serial
# folds and search, telemetry on, default server batching.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]
# Fix str hashing too: dict and set layouts, and so their speed, vary
# with the per-process hash seed (search timings spread 40 % across
# processes with random seeds, 24 % with a fixed one).
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402
from common import END_TO_END, PER_LAYER, Context  # noqa: E402

WORKLOADS = ("loocv", "offline", "serve", "fleet")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150


def _module(name: str):
    return __import__(f"wl_{name}")


def _timed_setup(workload: str, seed: int):
    """Import the program, then run the workload's set-up, bracketed by
    reference runs (three on each side: one alone is too noisy).  Returns ``(state, raw_s, calibrated_s)``."""
    refs = [calib.time_reference() for _ in range(3)]
    t0 = time.perf_counter()
    state = _module(workload).setup(seed)
    raw = time.perf_counter() - t0
    refs += [calib.time_reference() for _ in range(3)]
    return state, raw, raw * calib.NOMINAL_S / statistics.median(refs)


def _setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["raw_s"], out["setup_s"]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(ctx: Context) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "ref_raw_ms": round(1e3 * ctx.clock.ref_median(), 3),
        "ref_nominal_ms": 1e3 * calib.NOMINAL_S,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _, raw, cal = _timed_setup(args.workload, args.seed)
        print(json.dumps({"raw_s": raw, "setup_s": cal}))
        return 0

    mod = _module(args.workload)
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()  # imports every wrapped module before set-up
        tracer.uninstall()
        ctx = Context(seed=args.seed, seconds=args.seconds, tracer=tracer)
        state = ctx.traced(lambda: mod.setup(args.seed), setup=True)
    else:
        setups = [_setup_in_child(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        state, raw, cal = _timed_setup(args.workload, args.seed)
        setups.append((raw, cal))
        ctx = Context(seed=args.seed, seconds=args.seconds)
        ctx.row("setup_s", statistics.median(c for _, c in setups), "s",
                len(setups), statistics.median(r for r, _ in setups))
        ctx.note("set-ups (calibrated s): " + ", ".join(f"{c:.4f}" for _, c in setups))
        ctx.e2e["setup_s"] = ctx.rows[-1][1]

    mod.run(state, ctx)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(_environment(ctx), sort_keys=True))
    if ctx.attempted:
        ctx.row("failed_pct", 100.0 * ctx.failed / ctx.attempted, "%", ctx.attempted)
    print(f"{'metric':<28}{'median':>14}  {'unit':<6}{'n':>7}{'raw median':>14}")
    for name, value, unit, n, raw in ctx.rows:
        raw_txt = f"{raw:14.6g}" if raw is not None else ""
        print(f"{name:<28}{value:14.6g}  {unit:<6}{n:>7}{raw_txt}")
    for note in ctx.notes:
        print(f"note: {note}")
    for problem in ctx.problems:
        print(f"problem: {problem}")

    attempted = max(ctx.attempted, 1)
    if args.trace:
        values = ctx.layer_metrics()
        names = PER_LAYER
        for name, unit in names:
            print(f"layer {name:<40}{values[name]:14.6g} {unit}")
    else:
        ctx.e2e["ok_pct"] = 100.0 * (attempted - ctx.failed) / attempted
        values = ctx.e2e
        names = END_TO_END
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        listed = json.loads(spec.read_text())["per_layer" if args.trace else "end_to_end"]
        if [(m["name"], m["unit"]) for m in listed] != list(names):
            raise RuntimeError("BENCHMARK.json does not list the metrics this run reports")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
