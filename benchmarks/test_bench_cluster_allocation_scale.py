"""Fleet-scale allocation engine: allocations/s at 1k / 10k / 100k nodes.

The 4-node benchmark (``test_bench_cluster_allocation.py``) checks the
allocation policies on *measured* outcomes; this one checks the
*engine*: the vectorized kernels of :mod:`repro.cluster.allocation`
over synthesized :class:`~repro.cluster.pool.FrontierPool` fleets, at
the scales ROADMAP item 1 calls for.

Measured and written to ``BENCH_cluster.json`` at the repo root:

* warm allocations/s per policy at every scale (the steady state of a
  manager reallocating as the budget moves — pool order caches hot);
* cold allocation time at 100k nodes (view + sorted order rebuilt from
  scratch, the post-membership-change path);
* the pure-Python reference allocators (``tests/allocation_reference.py``)
  at their feasible scales
  (greedy at 10k, maxmin at 1k — the scan reference is quadratic), and
  the vectorized speedup over them.

Gates: vectorized caps must be bit-identical to the references at 1k
nodes, the 10k greedy speedup must be >= 100x, and a cold 100k greedy
allocation must finish in under a second.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.cluster import FrontierPool, allocate_pool
from repro.telemetry import counter, get_tracer

from conftest import write_artifact
from tests.allocation_reference import (
    greedy_marginal_allocation_reference,
    maxmin_allocation_reference,
)

BENCH_PATH = Path(__file__).parent.parent / "BENCH_cluster.json"

SCALES = (1_000, 10_000, 100_000)
POLICIES = ("uniform", "greedy", "maxmin")
BUDGET_FACTOR = 1.35  # of the fleet's summed floors: plenty of steps


def _budget(pool: FrontierPool) -> float:
    return float(np.sum(pool.floors())) * BUDGET_FACTOR


def _warm_rate(pool: FrontierPool, budget: float, policy: str) -> float:
    """Steady-state allocations/s (order caches hot)."""
    allocate_pool(pool, budget, policy)  # prime the caches
    reps = 0
    t0 = time.perf_counter()
    while True:
        allocate_pool(pool, budget, policy)
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed > 0.4 or reps >= 300:
            return reps / elapsed


def _cold_time(pool: FrontierPool, budget: float, policy: str) -> float:
    """Best-of-5 allocation time with the view and sorted orders
    rebuilt from scratch (the post-membership-change path)."""
    name = pool.active_names()[0]
    best = float("inf")
    for _ in range(5):
        pool.deactivate([name])
        pool.activate([name])  # bust the view cache, keep membership
        t0 = time.perf_counter()
        allocate_pool(pool, budget, policy)
        best = min(best, time.perf_counter() - t0)
    return best


def test_cluster_allocation_scale(benchmark):
    pools = {n: FrontierPool.synthesize(n, seed=7) for n in SCALES}

    # -- golden equivalence at 1k: vectorized == pure-Python reference.
    pool1k = pools[1_000]
    fr = pool1k.to_frontiers()
    budget1k = _budget(pool1k)
    names = pool1k.active_names()

    t0 = time.perf_counter()
    ref_greedy = greedy_marginal_allocation_reference(budget1k, fr)
    ref_greedy_1k_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref_maxmin = maxmin_allocation_reference(budget1k, fr)
    ref_maxmin_1k_s = time.perf_counter() - t0

    vec_greedy = dict(
        zip(names, allocate_pool(pool1k, budget1k, "greedy").tolist())
    )
    vec_maxmin = dict(
        zip(names, allocate_pool(pool1k, budget1k, "maxmin").tolist())
    )
    assert vec_greedy == ref_greedy, "greedy kernel diverged from reference"
    assert vec_maxmin == ref_maxmin, "maxmin kernel diverged from reference"

    # -- reference greedy at 10k (the speedup baseline of the issue).
    pool10k = pools[10_000]
    budget10k = _budget(pool10k)
    t0 = time.perf_counter()
    greedy_marginal_allocation_reference(budget10k, pool10k.to_frontiers())
    ref_greedy_10k_s = time.perf_counter() - t0

    # -- warm allocations/s per scale and policy.
    steps_counter = counter("cluster.alloc.steps_taken")
    steps_before = steps_counter.value
    rates: dict[int, dict[str, float]] = {}
    for n, pool in pools.items():
        b = _budget(pool)
        rates[n] = {p: _warm_rate(pool, b, p) for p in POLICIES}
    assert steps_counter.value > steps_before, "telemetry counters not wired"
    spans = {s["name"] for s in get_tracer().snapshot()}
    assert "cluster/allocate" in spans, sorted(spans)

    # -- cold 100k greedy (full order rebuild) and the headline timed op.
    pool100k = pools[100_000]
    budget100k = _budget(pool100k)
    cold_100k_s = _cold_time(pool100k, budget100k, "greedy")
    benchmark(allocate_pool, pool10k, budget10k, "greedy")

    warm_10k_s = 1.0 / rates[10_000]["greedy"]
    speedup_greedy_10k = ref_greedy_10k_s / warm_10k_s
    speedup_maxmin_1k = ref_maxmin_1k_s * rates[1_000]["maxmin"]

    payload = {
        "experiment": "fleet allocation engine, synthesized pools",
        "budget_factor": BUDGET_FACTOR,
        "allocations_per_s": {
            str(n): {p: round(r, 2) for p, r in by_policy.items()}
            for n, by_policy in rates.items()
        },
        "reference_s": {
            "greedy_1k": round(ref_greedy_1k_s, 4),
            "greedy_10k": round(ref_greedy_10k_s, 4),
            "maxmin_1k": round(ref_maxmin_1k_s, 4),
        },
        "speedup": {
            "greedy_10k": round(speedup_greedy_10k, 1),
            "maxmin_1k": round(speedup_maxmin_1k, 1),
        },
        "cold_greedy_100k_s": round(cold_100k_s, 4),
        "bit_identical_at_1k": True,
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = ["Fleet allocation engine (synthesized frontier pools)"]
    for n in SCALES:
        lines.append(
            f"  {n:>7} nodes: "
            + "  ".join(
                f"{p} {rates[n][p]:10.1f} alloc/s" for p in POLICIES
            )
        )
    lines.append(
        f"  reference: greedy 10k {ref_greedy_10k_s * 1e3:8.1f} ms "
        f"(speedup {speedup_greedy_10k:6.0f}x), "
        f"maxmin 1k {ref_maxmin_1k_s * 1e3:8.1f} ms "
        f"(speedup {speedup_maxmin_1k:6.0f}x)"
    )
    lines.append(f"  cold 100k greedy: {cold_100k_s * 1e3:8.1f} ms")
    text = "\n".join(lines)
    write_artifact("cluster_allocation_scale.txt", text)
    print("\n" + text)

    # Acceptance gates.
    assert speedup_greedy_10k >= 100.0, speedup_greedy_10k
    assert speedup_maxmin_1k >= 100.0, speedup_maxmin_1k
    assert cold_100k_s < 1.0, cold_100k_s
