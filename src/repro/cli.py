"""Command-line interface for the reproduction.

Gives the paper's workflow a shell-level surface::

    repro suite                          # list the benchmark suite
    repro frontier LU/Small/LUDecomposition
    repro train -o model.json --exclude-benchmark LU
    repro predict -m model.json LU/Small/LUDecomposition --cap 20
    repro evaluate --seed 0              # Table III end to end
    repro eval --telemetry-out t.json    # ... plus the telemetry report
    repro search --space demo            # DSE over a 1.18M-point space
    repro evaluate --backend biglittle   # ... on another hardware backend
    repro transfer --eval-backend mpsoc  # cross-architecture model transfer
    repro serve --rate 20000             # the concurrent decision server
    repro serve --monitor-port 9109      # ... with live /metrics + SLO alerts
    repro telemetry t.json               # pretty-print a saved report
    repro telemetry --diff a.json b.json # compare two reports
    repro top 127.0.0.1:9109             # ops view of a running monitor

Every command is deterministic given ``--seed``.

Output discipline: stdout carries machine-readable results only
(tables, timelines, artifact listings); progress and diagnostics go
through the structured logger on stderr (``--log-level``,
``--log-json``, ``--quiet`` — see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from repro.core import (
    OnlinePredictor,
    ParetoFrontier,
    Scheduler,
    load_model,
    save_model,
    train_model,
)
from repro.evaluation import (
    render_frontier_table,
    render_table3,
    run_loocv,
    summarize,
)
from repro.hardware import NoiseModel, TrinityAPU
from repro.hardware.backend import create_backend
from repro.profiling import ProfilingLibrary
from repro.server.config import DEFAULT_MAX_BATCH, DEFAULT_MAX_DELAY_US
from repro.telemetry import (
    configure_logging,
    get_logger,
    load_telemetry,
    log_event,
    render_telemetry,
    write_telemetry,
)
from repro.workloads import build_suite

__all__ = ["main", "build_parser"]

_log = get_logger(__name__)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Adaptive configuration selection for power-constrained "
            "heterogeneous systems (Bailey et al., ICPP 2014) - "
            "reproduction CLI"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed (default 0)"
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="stderr log verbosity (default info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of human-readable text",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress logging (errors only); "
        "stdout results are unaffected",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.hardware.backend import backend_names

    backends = backend_names()
    backend_help = (
        "hardware backend to run against (default trinity; "
        "see docs/HARDWARE_BACKENDS.md)"
    )

    sub.add_parser("suite", help="list the 65 benchmark/input kernels")

    p_frontier = sub.add_parser(
        "frontier", help="print a kernel's ground-truth Pareto frontier"
    )
    p_frontier.add_argument("kernel", help="kernel uid, e.g. LU/Small/LUDecomposition")

    p_train = sub.add_parser("train", help="run the offline stage, save the model")
    p_train.add_argument("-o", "--output", required=True, help="model JSON path")
    p_train.add_argument(
        "--exclude-benchmark",
        default=None,
        help="hold out one benchmark (for honest later prediction)",
    )
    p_train.add_argument(
        "--n-clusters", type=int, default=5, help="cluster count (paper: 5)"
    )
    p_train.add_argument(
        "--transform",
        choices=("none", "log"),
        default="none",
        help="variance-stabilizing transform (paper Section VI)",
    )

    p_predict = sub.add_parser(
        "predict", help="two sample runs, prediction, and cap scheduling"
    )
    p_predict.add_argument("-m", "--model", required=True, help="model JSON path")
    p_predict.add_argument("kernel", help="kernel uid")
    p_predict.add_argument(
        "--cap", type=float, default=None, help="power cap in watts"
    )
    p_predict.add_argument(
        "--goal",
        choices=("performance", "energy", "edp"),
        default="performance",
        help="scheduling goal (default: performance)",
    )

    telemetry_help = (
        "write the run's telemetry report (span tree + metrics) to this "
        "JSON path"
    )

    p_eval = sub.add_parser(
        "evaluate",
        aliases=["eval"],
        help="full leave-one-benchmark-out method comparison",
    )
    p_eval.add_argument(
        "--backend", choices=backends, default="trinity", help=backend_help
    )
    p_eval.add_argument(
        "--no-freq-limiting",
        action="store_true",
        help="skip the CPU+FL / GPU+FL baselines",
    )
    p_eval.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="folds to evaluate concurrently (-1 = one per CPU; "
        "default: $REPRO_NJOBS or 1); results are identical for any value",
    )
    p_eval.add_argument(
        "--fault-plan",
        default=None,
        help="inject faults into the online measurement paths from this "
        "scenario JSON (see docs/ROBUSTNESS.md); forces serial folds",
    )

    p_acc = sub.add_parser(
        "accuracy", help="cross-validated prediction accuracy (MAPE, rank tau)"
    )
    p_acc.add_argument(
        "--backend", choices=backends, default="trinity", help=backend_help
    )
    p_acc.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="folds to evaluate concurrently (-1 = one per CPU; "
        "default: $REPRO_NJOBS or 1)",
    )

    p_rt = sub.add_parser(
        "runtime", help="run one application under a power cap, print timeline"
    )
    p_rt.add_argument("group", help='benchmark/input group, e.g. "CoMD Small"')
    p_rt.add_argument("--cap", type=float, default=22.0, help="power cap (W)")
    p_rt.add_argument(
        "--timesteps", type=int, default=6, help="timesteps to execute"
    )
    p_rt.add_argument(
        "--fault-plan",
        default=None,
        help="inject faults into the application's measured runs from "
        "this scenario JSON (training stays clean)",
    )

    p_report = sub.add_parser(
        "report",
        help="regenerate every paper table/figure into a directory",
    )
    p_report.add_argument(
        "-o", "--output-dir", required=True, help="artifact directory"
    )
    p_report.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="cross-validation folds to run concurrently (-1 = one per "
        "CPU; default: $REPRO_NJOBS or 1)",
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="fleet-scale budget allocation over a synthesized node pool",
    )
    p_cluster.add_argument(
        "--policy",
        choices=("uniform", "greedy", "maxmin"),
        default="greedy",
        help="allocation policy (default greedy)",
    )
    p_cluster.add_argument(
        "--budget",
        type=float,
        default=None,
        help="datacenter budget in watts (default: 1.3x the fleet's floors)",
    )
    p_cluster.add_argument(
        "--n-nodes", type=int, default=1024, help="fleet size (default 1024)"
    )
    p_cluster.add_argument(
        "--epochs",
        type=int,
        default=3,
        help="allocation epochs to run (default 3)",
    )
    p_cluster.add_argument(
        "--churn",
        type=int,
        default=0,
        help="nodes that leave the fleet each epoch after the first "
        "(exercises dynamic membership; default 0)",
    )
    p_cluster.add_argument(
        "--tree",
        action="store_true",
        help="split the budget through a node->rack->row->datacenter "
        "BudgetTree instead of one flat allocation",
    )

    p_search = sub.add_parser(
        "search",
        help="discover a near-Pareto frontier of a combinatorial config "
        "space by multi-objective search (no enumeration)",
    )
    p_search.add_argument(
        "--space",
        choices=("paper", "demo"),
        default="demo",
        help="'paper': the 42-point Trinity space (validated against "
        "exact enumeration); 'demo': a generated 1.18M-point space "
        "where enumeration is infeasible (default demo)",
    )
    p_search.add_argument(
        "--backend",
        choices=[b for b in backends if b != "trinity"],
        default=None,
        help="search a registered backend's configuration space instead "
        "of --space (trinity is '--space paper'); validated against "
        "exact enumeration",
    )
    p_search.add_argument(
        "--kernel",
        default="LU/Small/LUDecomposition",
        help="kernel uid to search for (default LU/Small/LUDecomposition)",
    )
    p_search.add_argument(
        "--population",
        type=int,
        default=96,
        help="search population size (default 96)",
    )
    p_search.add_argument(
        "--generations",
        type=int,
        default=40,
        help="search generation budget (default 40)",
    )
    p_search.add_argument(
        "--epsilon",
        type=float,
        default=1e-4,
        help="archive epsilon-dominance resolution (default 1e-4; "
        "0 keeps the exact non-dominated set)",
    )
    p_search.add_argument(
        "--baseline-budget",
        type=int,
        default=0,
        metavar="N",
        help="also run a random-sampling baseline with N evaluations "
        "and report the comparison (default: off)",
    )
    p_search.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="evaluation parallelism (default: $REPRO_NJOBS or serial)",
    )
    p_search.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the discovered frontier and run summary to "
        "this JSON path",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the concurrent decision server over a Poisson "
        "request stream",
    )
    p_serve.add_argument(
        "--requests",
        type=int,
        default=20000,
        help="requests to stream through the server (default 20000)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=20000.0,
        help="offered load in requests/s (default 20000)",
    )
    p_serve.add_argument(
        "--backend", choices=backends, default="trinity", help=backend_help
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH,
        help="requests coalesced into one grouped sweep "
        f"(default {DEFAULT_MAX_BATCH})",
    )
    p_serve.add_argument(
        "--max-delay-us",
        type=float,
        default=DEFAULT_MAX_DELAY_US,
        help="batching window in microseconds "
        f"(default {DEFAULT_MAX_DELAY_US:g})",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        help="inject faults into the serving machine's sample runs from "
        "this scenario JSON (training stays clean)",
    )
    p_serve.add_argument(
        "--monitor-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus /metrics, /monitor.json, and "
        "/healthz on this port (0 = ephemeral); implies continuous "
        "monitoring",
    )
    p_serve.add_argument(
        "--monitor-interval-ms",
        type=float,
        default=200.0,
        help="monitor sampling interval in milliseconds (default 200)",
    )
    p_serve.add_argument(
        "--monitor-dump",
        default=None,
        metavar="PATH",
        help="write the final monitor state (ring buffer, alerts, "
        "exemplar traces) to this JSON path; implies monitoring",
    )
    p_serve.add_argument(
        "--monitor-jsonl",
        default=None,
        metavar="PATH",
        help="append one JSON line per monitor sample to this path",
    )
    p_serve.add_argument(
        "--slo-file",
        default=None,
        metavar="PATH",
        help="JSON list of SLO specs to alert on (default: the server's "
        "built-in latency/shed/error/degradation objectives); implies "
        "monitoring",
    )

    p_transfer = sub.add_parser(
        "transfer",
        help="train on one backend, apply to another with k-sample "
        "recalibration, report accuracy/scheduling vs native and oracle",
    )
    p_transfer.add_argument(
        "--train-backend",
        choices=backends,
        default="trinity",
        help="backend the model is trained on (default trinity)",
    )
    p_transfer.add_argument(
        "--eval-backend",
        choices=backends,
        default="biglittle",
        help="backend the model is transferred to (default biglittle)",
    )
    p_transfer.add_argument(
        "--ks",
        default="0,1,3,5",
        help="comma-separated recalibration budgets per device block "
        "(default 0,1,3,5)",
    )
    p_transfer.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the transfer report as JSON to this path",
    )

    for p in (p_eval, p_acc, p_rt, p_report, p_cluster, p_search, p_serve, p_transfer):
        p.add_argument("--telemetry-out", default=None, help=telemetry_help)

    p_tel = sub.add_parser(
        "telemetry", help="pretty-print or compare saved telemetry reports"
    )
    p_tel.add_argument(
        "path",
        nargs="?",
        default=None,
        help="telemetry JSON path (from --telemetry-out)",
    )
    p_tel.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help="compare two telemetry reports (counter deltas, gauge "
        "shifts, histogram percentile movement) instead of printing one",
    )
    p_tel.add_argument(
        "--all",
        action="store_true",
        help="with --diff: include unchanged rows too",
    )

    p_top = sub.add_parser(
        "top",
        help="ops view of a live monitor (scrape), a saved monitor "
        "dump, or a cluster epoch simulation",
    )
    p_top.add_argument(
        "target",
        nargs="?",
        default="127.0.0.1:9109",
        help="host:port or URL of a 'repro serve --monitor-port' "
        "process (default 127.0.0.1:9109)",
    )
    p_top.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="render a saved --monitor-dump JSON instead of scraping",
    )
    p_top.add_argument(
        "--cluster",
        action="store_true",
        help="run a small managed-cluster epoch simulation in-process "
        "(budget squeeze mid-run) and render its monitor instead of "
        "scraping",
    )
    p_top.add_argument(
        "--epochs",
        type=int,
        default=8,
        help="with --cluster: epochs to simulate (default 8)",
    )
    p_top.add_argument(
        "--frames",
        type=int,
        default=1,
        help="frames to render before exiting (default 1; scrape mode)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frames (default 1.0)",
    )
    p_top.add_argument(
        "--window",
        type=float,
        default=5.0,
        help="rate/percentile window in seconds (default 5.0)",
    )
    return parser


def _cmd_suite(args: argparse.Namespace) -> int:
    suite = build_suite()
    print(f"{len(suite)} benchmark/input kernels "
          f"({suite.distinct_kernel_count()} distinct):")
    for group in suite.groups():
        kernels = suite.for_group(group)
        print(f"\n{group} ({len(kernels)} kernels):")
        for k in kernels:
            print(f"  {k.uid}  (weight {k.time_weight:.3f})")
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    apu = TrinityAPU(noise=NoiseModel.exact(), seed=args.seed)
    kernel = build_suite().get(args.kernel)
    frontier = ParetoFrontier.from_measurements(apu.run_all_configs(kernel))
    print(render_frontier_table(frontier, title=f"Frontier of {args.kernel}"))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    apu = TrinityAPU(seed=args.seed)
    library = ProfilingLibrary(apu, seed=args.seed)
    suite = build_suite()
    kernels = [
        k for k in suite if k.benchmark != args.exclude_benchmark
    ]
    if not kernels:
        print("error: exclusion leaves no training kernels", file=sys.stderr)
        return 2
    log_event(
        _log,
        logging.INFO,
        "characterizing",
        kernels=len(kernels),
        excluded=args.exclude_benchmark,
    )
    model = train_model(
        library,
        kernels,
        n_clusters=args.n_clusters,
        transform=args.transform,
    )
    save_model(model, args.output)
    print(
        f"Model saved to {args.output} "
        f"(clusters {model.clustering.sizes()}, "
        f"silhouette {model.clustering.silhouette:.3f})"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    # The machine the model was trained on (model files record it).
    apu = create_backend(model.config_space.descriptor.name, seed=args.seed)
    library = ProfilingLibrary(apu, seed=args.seed)
    kernel = build_suite().get(args.kernel)
    prediction = OnlinePredictor(model, library).predict(kernel)
    print(f"{args.kernel} -> cluster {prediction.cluster}")

    frontier = prediction.predicted_frontier()
    print(render_frontier_table(frontier, title="Predicted frontier:"))

    if args.cap is not None:
        decision = Scheduler(args.goal).select(prediction, args.cap)
        print(
            f"\nAt {args.cap:.1f} W ({args.goal}): {decision.config.label()}  "
            f"predicted {decision.predicted_power_w:.1f} W, "
            f"perf {decision.predicted_performance:.3f}"
            + ("" if decision.predicted_feasible else "  [cap infeasible]")
        )
        true_p = apu.true_total_power_w(kernel, decision.config)
        print(f"  ground truth at that configuration: {true_p:.1f} W")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    log_event(
        _log,
        logging.INFO,
        "loocv-start",
        seed=args.seed,
        backend=args.backend,
        n_jobs=args.n_jobs,
        freq_limiting=not args.no_freq_limiting,
        fault_plan=args.fault_plan,
    )
    report = run_loocv(
        seed=args.seed,
        backend=args.backend,
        include_freq_limiting=not args.no_freq_limiting,
        n_jobs=args.n_jobs,
        fault_plan=args.fault_plan,
    )
    print(render_table3(summarize(report.records), title="Methods vs oracle:"))
    t = report.timings
    print(
        f"\ntiming: profile {t.profile_s:.1f} s, train {t.train_s:.1f} s, "
        f"evaluate {t.evaluate_s:.1f} s, wall {t.wall_s:.1f} s "
        f"(n_jobs={t.n_jobs})"
    )
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.evaluation import evaluate_prediction_accuracy

    log_event(
        _log,
        logging.INFO,
        "accuracy-start",
        seed=args.seed,
        backend=args.backend,
        n_jobs=args.n_jobs,
    )
    report = evaluate_prediction_accuracy(
        seed=args.seed, n_jobs=args.n_jobs, backend=args.backend
    )
    print(report.summary())
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from repro.runtime import AdaptiveRuntime, Application

    suite = build_suite()
    app = Application.from_suite(suite, args.group)
    benchmark = app.kernels[0].benchmark
    apu = TrinityAPU(seed=args.seed)
    library = ProfilingLibrary(apu, seed=args.seed)
    log_event(_log, logging.INFO, "training-model", excluded=benchmark)
    model = train_model(
        library, [k for k in suite if k.benchmark != benchmark]
    )
    if args.fault_plan is not None:
        # Attached after training so the offline campaign stays clean;
        # only the application's online runs see the faults.
        from repro.faults import FaultPlan

        plan = FaultPlan.from_file(args.fault_plan)
        apu.inject_faults(plan)
        log_event(
            _log,
            logging.INFO,
            "fault-plan-attached",
            plan=plan.name,
            events=len(plan),
        )
    runtime = AdaptiveRuntime(model, ProfilingLibrary(apu, seed=args.seed + 1))
    trace = runtime.run(app, args.timesteps, args.cap)
    print(trace.render_timeline())
    print(trace.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.evaluation import (
        experiment_fig2_table1_frontier,
        experiment_fig3_tree,
        experiment_fig7_lu_frontier,
        experiment_table3_and_figures,
    )

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_event(_log, logging.INFO, "report-start", output_dir=str(out))
    singles = [
        experiment_fig2_table1_frontier(seed=args.seed),
        experiment_fig3_tree(seed=args.seed),
        experiment_fig7_lu_frontier(seed=args.seed),
    ]
    for result in singles:
        (out / f"{result.experiment_id}.txt").write_text(
            result.text + "\n", encoding="utf-8"
        )
    for key, result in experiment_table3_and_figures(
        seed=args.seed, n_jobs=args.n_jobs
    ).items():
        (out / f"{key}.txt").write_text(result.text + "\n", encoding="utf-8")
    written = sorted(p.name for p in out.glob("*.txt"))
    print(f"Wrote {len(written)} artifacts to {out}/:")
    for name in written:
        print(f"  {name}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.cluster import (
        BudgetTree,
        FrontierPool,
        allocate_pool,
        pool_allocation_summary,
    )

    if args.n_nodes < 1:
        print("error: --n-nodes must be >= 1", file=sys.stderr)
        return 2
    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.churn < 0:
        print("error: --churn must be >= 0", file=sys.stderr)
        return 2
    pool = FrontierPool.synthesize(args.n_nodes, seed=args.seed)
    budget = (
        args.budget
        if args.budget is not None
        else float(np.sum(pool.floors())) * 1.3
    )
    tree = BudgetTree.regular(pool) if args.tree else None
    log_event(
        _log,
        logging.INFO,
        "cluster-start",
        n_nodes=args.n_nodes,
        policy=args.policy,
        budget_w=round(budget, 1),
        tree=args.tree,
    )
    print(
        f"fleet of {args.n_nodes} synthesized nodes, policy {args.policy}, "
        f"budget {budget:.1f} W"
        + (" (hierarchical split)" if args.tree else "")
    )
    print(f"{'epoch':>5} {'nodes':>7} {'rate':>12} {'power_w':>12} "
          f"{'slack_w':>10} {'alloc_ms':>9}")
    departed: list[str] = []
    for epoch in range(args.epochs):
        if epoch and args.churn:
            survivors = pool.active_names()
            leaving = survivors[: min(args.churn, max(0, len(survivors) - 1))]
            pool.deactivate(leaving)
            departed.extend(leaving)
        t0 = time.perf_counter()
        if tree is not None:
            caps = tree.allocate(budget, args.policy)
        else:
            caps = allocate_pool(pool, budget, args.policy)
        alloc_ms = (time.perf_counter() - t0) * 1e3
        s = pool_allocation_summary(pool, caps, budget)
        print(
            f"{epoch:>5} {pool.n_active:>7} {s['predicted_rate']:>12.2f} "
            f"{s['predicted_power_w']:>12.1f} {s['slack_w']:>10.1f} "
            f"{alloc_ms:>9.2f}"
        )
    if departed:
        print(f"{len(departed)} nodes departed over the run")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.batching import DecisionServer
    from repro.server.config import ServerConfig
    from repro.server.loadgen import request_pool, run_open_loop
    from repro.server.service import build_default_service
    from repro.telemetry import counter

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.rate <= 0:
        print("error: --rate must be positive", file=sys.stderr)
        return 2
    try:
        config = ServerConfig(
            max_batch=args.max_batch, max_delay_us=args.max_delay_us
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log_event(
        _log,
        logging.INFO,
        "serve-start",
        requests=args.requests,
        rate=args.rate,
        backend=args.backend,
        fault_plan=args.fault_plan,
    )
    monitor = None
    if (
        args.monitor_port is not None
        or args.monitor_dump is not None
        or args.monitor_jsonl is not None
        or args.slo_file is not None
    ):
        from repro.telemetry.monitor import (
            Monitor,
            default_server_slos,
            load_slo_specs,
        )

        if args.monitor_interval_ms <= 0:
            print("error: --monitor-interval-ms must be positive",
                  file=sys.stderr)
            return 2
        slos = (
            load_slo_specs(args.slo_file)
            if args.slo_file is not None
            else default_server_slos()
        )
        monitor = Monitor(slos=slos, jsonl=args.monitor_jsonl)
        # Start before the service is built so the warm phase (where
        # fault-plan degradation happens) is observed too.
        monitor.start(interval_s=args.monitor_interval_ms / 1e3)
        if args.monitor_port is not None:
            port = monitor.serve(args.monitor_port)
            log_event(
                _log,
                logging.INFO,
                "monitor-listening",
                port=port,
                slos=len(slos),
            )
    service = build_default_service(
        seed=args.seed, fault_plan=args.fault_plan, backend=args.backend
    )
    warm_errors = service.warm()
    pool = request_pool(service.kernel_uids, seed=args.seed)
    requests_before = counter("server.requests").value
    batches_before = counter("server.batches").value
    with DecisionServer(service, config) as server:
        report = run_open_loop(
            server,
            pool,
            args.rate,
            args.requests / args.rate,
            seed=args.seed,
        )
    requests_n = counter("server.requests").value - requests_before
    batches_n = counter("server.batches").value - batches_before
    print(
        f"served {report.completed:,} decisions at "
        f"{report.sustained_rps:,.0f}/s sustained "
        f"(offered {report.offered_rps:,.0f}/s)"
    )
    print(
        f"latency p50 {report.p50_us:,.0f} us, p99 {report.p99_us:,.0f} us, "
        f"p999 {report.p999_us:,.0f} us"
    )
    print(
        f"batching: {requests_n:,} requests in {batches_n:,} batches "
        f"(mean {requests_n / max(batches_n, 1):,.1f}/batch, "
        f"max_batch {config.max_batch}, window {config.max_delay_us:.0f} us)"
    )
    print(f"shed {report.shed:,}, per-request errors {report.errors:,}"
          + (f", unservable kernels {len(warm_errors)}" if warm_errors else ""))
    if monitor is not None:
        monitor.stop()
        monitor.tick()  # one final sample so the run's tail is captured
        fired = sum(a.fired for a in monitor.slo_engine.alerts)
        cleared = sum(a.cleared for a in monitor.slo_engine.alerts)
        firing = [
            a.spec.name
            for a in monitor.slo_engine.alerts
            if a.state == "firing"
        ]
        print(
            f"slo: {fired} alerts fired, {cleared} cleared over the run"
            + (f", still firing: {', '.join(firing)}" if firing else "")
        )
        if args.monitor_dump is not None:
            monitor.write_dump(args.monitor_dump)
            log_event(
                _log,
                logging.INFO,
                "monitor-dump-written",
                path=args.monitor_dump,
            )
        monitor.close()
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_telemetry, render_telemetry_diff

    if (args.path is None) == (args.diff is None):
        print(
            "error: give either a telemetry path or --diff A B",
            file=sys.stderr,
        )
        return 2
    try:
        if args.diff is not None:
            a, b = (load_telemetry(p) for p in args.diff)
            print(render_telemetry_diff(
                diff_telemetry(a, b), all_rows=args.all
            ))
        else:
            print(render_telemetry(load_telemetry(args.path)))
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time
    from pathlib import Path
    from urllib.error import URLError

    from repro.telemetry.monitor import fetch_monitor_dump, render_top

    if args.cluster:
        return _run_cluster_top(args)
    if args.dump is not None:
        try:
            dump = _json.loads(
                Path(args.dump).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(render_top(dump, window_s=args.window), end="")
        return 0
    if args.frames < 1:
        print("error: --frames must be >= 1", file=sys.stderr)
        return 2
    for frame in range(args.frames):
        if frame:
            _time.sleep(args.interval)
        try:
            dump = fetch_monitor_dump(args.target)
        except (URLError, OSError, ValueError) as e:
            print(f"error: cannot scrape {args.target}: {e}",
                  file=sys.stderr)
            return 2
        if frame:
            print()
        print(render_top(dump, window_s=args.window), end="")
    return 0


def _run_cluster_top(args: argparse.Namespace) -> int:
    """``repro top --cluster``: a managed epoch simulation with a
    mid-run budget squeeze, monitored per epoch and rendered at the
    end.  The squeeze drives the over-budget SLO through a full
    fire-then-clear cycle on the epoch clock."""
    from repro.cluster import ClusterNode, ClusterPowerManager
    from repro.runtime import Application
    from repro.telemetry.monitor import (
        Monitor,
        default_cluster_slos,
        render_top,
    )

    if args.epochs < 4:
        print("error: --epochs must be >= 4", file=sys.stderr)
        return 2
    suite = build_suite()
    apu = TrinityAPU(seed=args.seed)
    library = ProfilingLibrary(apu, seed=args.seed)
    log_event(_log, logging.INFO, "top-cluster-training")
    model = train_model(library, list(suite))
    nodes = [
        ClusterNode(
            f"n{i}",
            Application.from_suite(suite, group),
            model,
            seed=args.seed + 1 + i,
        )
        for i, group in enumerate(("LU Small", "LU Large", "CoMD Small"))
    ]
    manager = ClusterPowerManager(nodes, policy="greedy")
    floors = sum(
        f.points[0].expected_power_w
        for f in manager.frontiers().values()
    )
    # Generous budget, then a squeeze below the fleet's floor power for
    # two epochs (over-budget is then unavoidable), then generous again.
    squeeze = range(args.epochs // 2, args.epochs // 2 + 2)

    def budgets(epoch: int) -> float:
        return floors * (0.6 if epoch in squeeze else 1.5)

    monitor = Monitor(
        slos=default_cluster_slos(short_window_s=1.0, long_window_s=2.0)
    )
    try:
        report = manager.run(
            budgets,
            n_epochs=args.epochs,
            timesteps_per_epoch=2,
            monitor=monitor,
        )
        print(render_top(monitor.dump(), window_s=args.window), end="")
        print(
            f"\n{len(report.epochs)} epochs simulated, budget "
            f"compliance {report.budget_compliance():.0%}"
        )
    finally:
        monitor.close()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import json as _json

    from repro.search import (
        SearchConfig,
        nsga2_search,
        paper_space,
        random_search,
        validate_against_exact,
    )

    kernel = build_suite().get(args.kernel)
    if args.backend is not None:
        from repro.search import backend_space

        space = backend_space(args.backend)
    elif args.space == "paper":
        space = paper_space()
    else:
        from repro.search import demo_space

        space = demo_space()
    log_event(
        _log,
        logging.INFO,
        "search-start",
        space=space.name,
        size=space.size,
        kernel=args.kernel,
        population=args.population,
        generations=args.generations,
    )
    cfg = SearchConfig(
        population=args.population,
        generations=args.generations,
        seed=args.seed,
        epsilon=args.epsilon,
        n_jobs=args.n_jobs,
    )
    result = nsga2_search(space, kernel, cfg)
    archive = result.archive

    print(f"space {space.name}: {space.size} points, {space.n_axes} axes")
    print(
        f"search: {result.evaluations} evaluations over "
        f"{result.generations} generations in {result.elapsed_s:.2f}s "
        f"({result.evaluations / max(result.elapsed_s, 1e-9):,.0f} eval/s)"
    )
    print(
        f"archive: {len(archive)} points, power "
        f"[{float(archive.powers[0]):.2f}, {float(archive.powers[-1]):.2f}] W, "
        f"hypervolume {result.hypervolume:.4f} "
        f"(ref {result.hypervolume_ref_w:.2f} W)"
    )

    summary: dict = {
        "space": space.name,
        "size": space.size,
        "kernel": args.kernel,
        "seed": args.seed,
        "evaluations": result.evaluations,
        "generations": result.generations,
        "elapsed_s": result.elapsed_s,
        "hypervolume": result.hypervolume,
        "hypervolume_ref_w": result.hypervolume_ref_w,
        "frontier": [
            {"power_w": float(pw), "rate": float(rt)}
            for pw, rt in zip(archive.powers, archive.performances)
        ],
    }

    if args.space == "paper" or args.backend is not None:
        report = validate_against_exact(space, kernel, archive)
        print(
            f"vs exact enumeration: hypervolume ratio "
            f"{report.hypervolume_ratio:.4f}, max per-cap rate regret "
            f"{report.max_cap_regret:.4%} over {report.n_caps} caps"
        )
        summary["validation"] = {
            "hypervolume_ratio": report.hypervolume_ratio,
            "max_cap_regret": report.max_cap_regret,
            "mean_cap_regret": report.mean_cap_regret,
            "n_caps": report.n_caps,
        }

    if args.baseline_budget > 0:
        baseline = random_search(
            space,
            kernel,
            args.baseline_budget,
            seed=args.seed,
            epsilon=args.epsilon,
            n_jobs=args.n_jobs,
            hypervolume_ref_w=result.hypervolume_ref_w,
        )
        matched = next(
            (e for e, hv in result.history if hv >= baseline.hypervolume),
            None,
        )
        print(
            f"random baseline: {baseline.evaluations} evaluations, "
            f"hypervolume {baseline.hypervolume:.4f}; search matched it "
            + (
                f"after {matched} evaluations "
                f"({baseline.evaluations / matched:.1f}x fewer)"
                if matched
                else "never"
            )
        )
        summary["baseline"] = {
            "evaluations": baseline.evaluations,
            "hypervolume": baseline.hypervolume,
            "search_evals_to_match": matched,
        }

    if args.json is not None:
        with open(args.json, "w") as fh:
            _json.dump(summary, fh, indent=2)
        log_event(_log, logging.INFO, "search-json-written", path=args.json)
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    import json as _json

    from repro.evaluation.transfer import run_transfer

    if args.train_backend == args.eval_backend:
        print("error: --train-backend and --eval-backend must differ",
              file=sys.stderr)
        return 2
    try:
        ks = sorted({int(k) for k in args.ks.split(",") if k.strip()})
    except ValueError:
        print(f"error: bad --ks {args.ks!r}", file=sys.stderr)
        return 2
    if not ks or any(k < 0 for k in ks):
        print("error: --ks must be non-negative integers", file=sys.stderr)
        return 2
    log_event(
        _log,
        logging.INFO,
        "transfer-start",
        train_backend=args.train_backend,
        eval_backend=args.eval_backend,
        ks=ks,
        seed=args.seed,
    )
    report = run_transfer(
        args.train_backend, args.eval_backend, ks=ks, seed=args.seed
    )
    print(
        f"transfer {report.train_backend} -> {report.eval_backend} "
        f"({report.n_kernels} kernels, seed {report.seed})"
    )
    header = (
        f"{'model':>14} {'recal/blk':>9} {'pMAPE%':>7} {'fMAPE%':>7} "
        f"{'tau':>6} {'under%':>7} {'perf%':>6} {'energy%':>8}"
    )
    print(header)

    def row(label: str, p) -> str:
        return (
            f"{label:>14} {p.k if p.k is not None else '-':>9} "
            f"{100 * p.power_mape:>7.1f} {100 * p.perf_mape:>7.1f} "
            f"{p.perf_rank_tau:>6.2f} {p.pct_under_limit:>7.1f} "
            f"{p.under_perf_vs_oracle_pct:>6.1f} "
            f"{p.under_energy_vs_oracle_pct:>8.1f}"
        )

    for p in report.transferred:
        print(row(f"transfer k={p.k}", p))
    print(row("native", report.native))
    print(
        "(perf%/energy% are vs the oracle in cap-compliant cases; "
        "the oracle is 100 by definition)"
    )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2)
        log_event(_log, logging.INFO, "transfer-json-written", path=args.json)
    return 0


_COMMANDS = {
    "suite": _cmd_suite,
    "frontier": _cmd_frontier,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "eval": _cmd_evaluate,
    "accuracy": _cmd_accuracy,
    "runtime": _cmd_runtime,
    "report": _cmd_report,
    "cluster": _cmd_cluster,
    "search": _cmd_search,
    "serve": _cmd_serve,
    "transfer": _cmd_transfer,
    "telemetry": _cmd_telemetry,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(
        level=args.log_level, json_mode=args.log_json, quiet=args.quiet
    )
    try:
        code = _COMMANDS[args.command](args)
    except KeyError as e:
        # Unknown kernel uid and similar lookup failures.
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = getattr(args, "telemetry_out", None)
    if code == 0 and out is not None:
        write_telemetry(out)
        log_event(_log, logging.INFO, "telemetry-written", path=out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
