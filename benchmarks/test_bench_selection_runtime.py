"""Array-backed selection-engine runtime: the vectorization receipt.

Times the two hot paths the structure-of-arrays prediction engine
replaced:

* the **evaluate** phase of the cross-validated method comparison,
  split cold (first run of the process, every process-wide cache empty)
  vs warm (ground-truth, profile, and frontier memos hot) — the warm
  number is the acceptance gate for the engine;
* raw **batched cap selection** throughput: whole fig5/fig6-style cap
  sweeps answered by :meth:`Scheduler.select_many`, reported as
  configurations considered per second.

Numbers land in ``BENCH_selection.json`` at the repo root, next to
``BENCH_loocv.json``.
"""

import json
import time
from pathlib import Path

from repro.core import Scheduler
from repro.evaluation import run_loocv
from repro.methods import Oracle

from conftest import train_from_store, write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()

BENCH_PATH = Path(__file__).parent.parent / "BENCH_selection.json"


def test_selection_engine_runtime(benchmark, exact_apu, suite, char_store, loocv_report):
    # -- evaluate split: cold (session's first run) vs warm ------------------
    cold_evaluate_s = loocv_report.timings.evaluate_s
    warm = run_loocv(seed=0)
    assert warm.records == loocv_report.records
    warm_evaluate_s = warm.timings.evaluate_s

    # -- select_many throughput over oracle-cap sweeps -----------------------
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_from_store(char_store, train)
    scheduler = Scheduler()
    oracle = Oracle(exact_apu)

    sweeps = []
    for kernel in suite.for_benchmark("LU"):
        cpu_m = exact_apu.run(kernel, CPU_SAMPLE)
        gpu_m = exact_apu.run(kernel, GPU_SAMPLE)
        prediction = model.predict_kernel(cpu_m, gpu_m, kernel_uid=kernel.uid)
        sweeps.append((prediction, oracle.caps_for(kernel)))

    def run_sweeps():
        return [
            scheduler.select_many(prediction, caps)
            for prediction, caps in sweeps
        ]

    decisions = benchmark(run_sweeps)

    # Every cap of every sweep produced a decision over the whole space.
    n_decisions = sum(len(d) for d in decisions)
    assert n_decisions == sum(len(caps) for _, caps in sweeps)
    n_configs = sum(
        len(caps) * len(prediction.config_tuple) for prediction, caps in sweeps
    )
    mean_s = benchmark.stats.stats.mean
    configs_per_s = n_configs / mean_s
    decisions_per_s = n_decisions / mean_s

    payload = {
        "experiment": "array-backed selection engine",
        "evaluate": {
            "cold_evaluate_s": round(cold_evaluate_s, 4),
            "warm_evaluate_s": round(warm_evaluate_s, 4),
            "records": len(warm.records),
        },
        "select_many": {
            "sweeps": len(sweeps),
            "caps": n_decisions,
            "configs_considered": n_configs,
            "mean_s": round(mean_s, 6),
            "configs_per_s": round(configs_per_s),
            "decisions_per_s": round(decisions_per_s),
        },
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    text = "\n".join(
        [
            "Array-backed selection engine",
            f"  evaluate phase: cold {cold_evaluate_s:.3f} s, "
            f"warm {warm_evaluate_s:.3f} s "
            f"({len(warm.records)} records, bit-identical)",
            f"  select_many: {n_decisions} cap decisions over "
            f"{n_configs} configs in {mean_s * 1e3:.2f} ms "
            f"({configs_per_s / 1e6:.1f} M configs/s)",
        ]
    )
    write_artifact("selection_runtime.txt", text)
    print("\n" + text)

    # The engine's acceptance gate: warm evaluate at least 3x the seed
    # baseline (0.51 s), i.e. within the 0.17 s budget, with slack for
    # machine jitter.
    assert warm_evaluate_s < 0.25
