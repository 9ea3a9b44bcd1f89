"""Committed reference outputs per seed, and the script that writes them.

Each workload's quality outputs are deterministic per seed: the LOOCV
records, the service's answers to its set-up batch, the NSGA-II
hypervolume of every kernel and the fleet rate, and the predictions of
every model trained in the offline stage's first rounds.  A run compares
its outputs with the values committed in ``expected.json`` and counts a
mismatch as a failed operation, so a change that alters results fails
the benchmark even when it alters them the same way on every
repetition.  A seed with no committed values is only checked for
repeatability within the run, and the report says so.

Regenerate the file only when a change is meant to alter results::

    python3 perfbench/expected.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "expected.json"
WORKLOADS = ("loocv", "offline", "serve", "fleet")

_table: dict | None = None


def lookup(workload: str, seed: int) -> dict | None:
    """The committed outputs of ``workload`` at ``seed``, if any."""
    global _table
    if _table is None:
        _table = json.loads(PATH.read_text()) if PATH.is_file() else {}
    return _table.get(workload, {}).get(str(seed))


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    import run  # importing it pins the environment as a benchmark run does

    parser = argparse.ArgumentParser(description="write perfbench/expected.json")
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,5,7")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    table = {}
    for workload in WORKLOADS:
        mod = run._module(workload)
        table[workload] = {str(seed): mod.reference(seed) for seed in _seeds(args.seeds)}
        print(f"{workload}: {len(table[workload])} seeds", flush=True)
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
