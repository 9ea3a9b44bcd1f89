"""``fleet``: frontier search and fleet budget allocation.

Set-up searches ``demo_space()`` with NSGA-II for a few suite kernels,
replicates the discovered frontiers into a 10k-node
``FrontierPool.from_frontiers``, each node rescaled into the ranges
``FrontierPool.synthesize`` documents, and lays a ``BudgetTree`` over
it.  The timed part alternates between more searches (over a seeded
rotation of all suite kernels) and budget sweeps with ``allocate_pool``
(greedy, maxmin) and ``BudgetTree.allocate``.  Only the search and cluster layers work here.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

import expected
from calib import Series

N_NODES = 10_000
#: Kernels whose frontiers seed the fleet; more of them make the pool's
#: mix of frontier shapes, and so the allocation cost, depend less on the seed.
SETUP_KERNELS = 16
#: Each node gets one of the searched frontiers' shapes, rescaled into
#: the ranges ``FrontierPool.synthesize`` documents for real node
#: frontiers: 12 points, a floor of 8-16 W, a base rate of 0.2-1.0 and
#: an expected power of 92-100 % of the cap.
POINTS_PER_NODE = 12
FLOOR_W = (8.0, 16.0)
BASE_RATE = (0.2, 1.0)
POWER_SHARE = (0.92, 1.0)
SEARCHES_PER_REP = 4
#: Share of ``--seconds`` spent searching; the rest sweeps budgets.
SEARCH_SHARE = 0.4
BUDGET_FACTORS = (1.05, 1.1, 1.2, 1.35, 1.5, 1.75)
RATE_FACTOR = 1.35


def _search(space, kernel, seed: int):
    engine = importlib.import_module("repro.search.engine")
    return engine.nsga2_search(space, kernel, engine.SearchConfig(seed=seed))


def _replicate(archives, rng):
    from repro.cluster.node import NodeFrontier, NodeFrontierPoint

    bases = []
    for archive in archives:
        powers, rates = archive.powers, archive.performances
        order = np.argsort(powers, kind="stable")
        keep = np.unique(np.linspace(0, len(order) - 1, POINTS_PER_NODE).astype(int))
        bases.append((powers[order][keep], rates[order][keep]))
    floors = rng.uniform(*FLOOR_W, N_NODES)
    base_rates = rng.uniform(*BASE_RATE, N_NODES)
    shares = rng.uniform(*POWER_SHARE, (N_NODES, POINTS_PER_NODE))
    frontiers = {}
    for j in range(N_NODES):
        powers, rates = bases[j % len(bases)]
        caps = (powers * (floors[j] / powers[0])).tolist()
        node_rates = (rates * (base_rates[j] / rates[0])).tolist()
        frontiers[f"node{j:05d}"] = NodeFrontier([
            NodeFrontierPoint(cap_w=c, expected_power_w=c * float(share), rate=r)
            for c, r, share in zip(caps, node_rates, shares[j])
        ])
    return frontiers


def setup(seed: int) -> dict:
    from repro.cluster.pool import FrontierPool
    from repro.cluster.tree import BudgetTree
    from repro.search.space import demo_space
    from repro.workloads import build_suite

    rng = np.random.default_rng(seed)
    kernels = list(build_suite())
    order = [kernels[i] for i in rng.permutation(len(kernels))]
    space = demo_space()
    results = [_search(space, k, seed) for k in order[:SETUP_KERNELS]]
    pool = FrontierPool.from_frontiers(_replicate([r.archive for r in results], rng))
    tree = BudgetTree.regular(pool)
    floors = pool.floors()
    state = {
        "space": space,
        "order": order,
        "uids": [k.uid for k in kernels],
        "hypervolume": {k.uid: r.hypervolume for k, r in zip(order, results)},
        "pool": pool,
        "tree": tree,
        "floors": floors,
        "budgets": [float(floors.sum()) * f for f in BUDGET_FACTORS],
    }
    state["fleet_rate"] = _fleet_rate(state, _sweep(state))  # also fills the view and rack caches
    return state


def reference(seed: int) -> dict:
    """This seed's committed outputs (see ``expected.py``): the search
    hypervolume of every suite kernel, in suite order, and the fleet rate."""
    state = setup(seed)
    hypervolume = state["hypervolume"]
    for kernel in state["order"]:
        if kernel.uid not in hypervolume:
            hypervolume[kernel.uid] = _search(state["space"], kernel, seed).hypervolume
    return {"hypervolume": [hypervolume[uid] for uid in state["uids"]], "fleet_rate": state["fleet_rate"]}


def _fleet_rate(state, sweep) -> float:
    """Aggregate rate of the greedy allocation at ``RATE_FACTOR``."""
    from repro.cluster.allocation import pool_allocation_summary

    budget = state["budgets"][BUDGET_FACTORS.index(RATE_FACTOR)]
    caps = next(c for b, policy, c in sweep if policy == "greedy" and b == budget)
    return pool_allocation_summary(state["pool"], caps, budget)["predicted_rate"]


def _sweep(state) -> list:
    allocation = importlib.import_module("repro.cluster.allocation")
    pool, tree = state["pool"], state["tree"]
    out = []
    for budget in state["budgets"]:
        out.append((budget, "greedy", allocation.allocate_pool(pool, budget, "greedy")))
        out.append((budget, "maxmin", allocation.allocate_pool(pool, budget, "maxmin")))
        out.append((budget, "tree", tree.allocate(budget, "greedy")))
    return out


def run(state: dict, ctx) -> None:
    from repro.constants import respects_cap

    order, space = state["order"], state["space"]
    floors = state["floors"] * (1.0 - 1e-9)
    ref = expected.lookup("fleet", ctx.seed)
    if ref is None:
        ctx.note(f"no committed hypervolumes or fleet rate for seed {ctx.seed}")
        hypervolume = state["hypervolume"]
        fleet_rate = state["fleet_rate"]
    else:
        hypervolume = dict(zip(state["uids"], ref["hypervolume"]))
        fleet_rate = ref["fleet_rate"]
        for uid, value in state["hypervolume"].items():
            ctx.check(value == hypervolume[uid], f"hypervolume of {uid} differs from the committed one")
    search_plain, search_traced = Series(), Series()
    sweep_plain, sweep_traced = Series(), Series()
    evals_per_rep: list[int] = []
    archive_sizes: list[int] = []
    fleet_rates: list[float] = []
    searched = dict(state["hypervolume"])
    cursor = 0

    def search_rep():
        nonlocal cursor
        batch = [order[(cursor + i) % len(order)] for i in range(SEARCHES_PER_REP)]
        cursor += SEARCHES_PER_REP
        return [(k, _search(space, k, ctx.seed)) for k in batch]

    end = ctx.deadline(SEARCH_SHARE)
    i = 0
    while time.perf_counter() < end or search_plain.n < 3:
        use_trace = ctx.tracing and i % 2 == 1
        i += 1
        found = ctx.guarded(
            lambda: ctx.timed(search_rep, search_traced if use_trace else search_plain, traced=use_trace),
            "nsga2_search",
        )
        if found is None:
            continue
        evals_per_rep.append(sum(r.evaluations for _, r in found))
        for kernel, result in found:
            archive_sizes.append(len(result.archive))
            searched[kernel.uid] = result.hypervolume
            want = hypervolume.setdefault(kernel.uid, result.hypervolume)
            ctx.check(result.hypervolume == want, f"hypervolume of {kernel.uid} differs from the committed or first search")

    end = ctx.deadline(1.0 - SEARCH_SHARE)
    i = 0
    while time.perf_counter() < end or sweep_plain.n < 3:
        use_trace = ctx.tracing and i % 2 == 1
        i += 1
        sweep = ctx.guarded(
            lambda: ctx.timed(lambda: _sweep(state), sweep_traced if use_trace else sweep_plain, traced=use_trace),
            "allocation sweep",
        )
        if sweep is None:
            continue
        for budget, policy, caps in sweep:
            ctx.check(
                respects_cap(float(np.sum(caps)), budget) and bool(np.all(caps >= floors)),
                f"{policy} allocation breaks the budget or a floor at {budget:.1f} W",
            )
        fleet_rates.append(_fleet_rate(state, sweep))
        ctx.check(fleet_rates[-1] == fleet_rate, "fleet rate differs from the committed or set-up one")

    per_sweep = 3 * len(BUDGET_FACTORS)
    search_s = search_plain.median() / SEARCHES_PER_REP
    evals = statistics.median(evals_per_rep)
    ctx.row("search_s", search_s, "s", search_plain.n, search_plain.raw_median() / SEARCHES_PER_REP)
    ctx.row("search_evals_per_s", evals / search_plain.median(), "1/s", search_plain.n, evals / search_plain.raw_median())
    ctx.row("search_hypervolume", statistics.median(searched.values()), "W*rate", len(searched))
    ctx.row("alloc_per_s", per_sweep / sweep_plain.median(), "1/s", sweep_plain.n, per_sweep / sweep_plain.raw_median())
    ctx.row("fleet_rate", statistics.median(fleet_rates), "rate", len(fleet_rates))
    ctx.e2e["op_ms"] = 1e3 * search_s
    ctx.e2e["rate_per_s"] = per_sweep / sweep_plain.median()
    if ctx.tracing:
        ctx.layer_values["search.evaluations"] = float(sum(evals_per_rep))
        ctx.layer_values["search.archive_size"] = float(statistics.median(archive_sizes))
        overhead = 0.5 * (
            search_traced.median() / search_plain.median() + sweep_traced.median() / sweep_plain.median()
        )
        ctx.layer_values["telemetry.trace_overhead_pct"] = 100.0 * (overhead - 1.0)
