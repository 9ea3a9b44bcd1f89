"""``loocv``: the paper's leave-one-benchmark-out evaluation, warm.

Set-up runs ``run_loocv(seed)`` cold (profiling the suite into the
shared store); each timed repetition runs it again warm on Trinity, so
the evaluation harness, the methods, the frequency limiter, training
and selection do the work and profiling does none.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

import expected
from calib import Series

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "loocv_seed0.sha256"


def setup(seed: int) -> dict:
    loocv = importlib.import_module("repro.evaluation.loocv")
    from repro.evaluation.golden import records_digest

    report = loocv.run_loocv(seed=seed)
    return {"loocv": loocv, "digest": records_digest(report.records), "records": report.records}


def reference(seed: int) -> dict:
    """This seed's committed outputs (see ``expected.py``)."""
    return {"digest": setup(seed)["digest"]}


def run(state: dict, ctx) -> None:
    from repro.evaluation.golden import records_digest
    from repro.evaluation.metrics import summarize

    loocv = state["loocv"]
    if ctx.seed == 0:
        ctx.check(state["digest"] == GOLDEN.read_text().strip(), "seed-0 digest differs from the golden digest")
    ref = expected.lookup("loocv", ctx.seed)
    if ref is None:
        ctx.note(f"no committed LOOCV digest for seed {ctx.seed}")
    else:
        ctx.check(state["digest"] == ref["digest"], "records digest differs from the committed one")

    plain, traced = Series(), Series()
    end = ctx.deadline()
    i = 0
    while time.perf_counter() < end or plain.n < 3:
        use_trace = ctx.tracing and i % 2 == 1
        i += 1
        report = ctx.guarded(
            lambda: ctx.timed(lambda: loocv.run_loocv(seed=ctx.seed), traced if use_trace else plain, traced=use_trace),
            "run_loocv",
        )
        if report is not None:
            ctx.check(records_digest(report.records) == state["digest"], "warm records differ from the cold run")

    records = state["records"]
    model = summarize(records, method="Model")[0]
    n_records = len(records)
    ctx.row("loocv_s", plain.median(), "s", plain.n, plain.raw_median())
    ctx.row("under_limit_pct", model.pct_under_limit, "%", model.n_cases)
    ctx.row("perf_vs_oracle_pct", model.under_perf_pct, "%", model.n_cases)
    ctx.e2e["op_ms"] = 1e3 * plain.median()
    ctx.e2e["rate_per_s"] = n_records / plain.median()
    ctx.row("records_per_s", ctx.e2e["rate_per_s"], "1/s", plain.n, n_records / plain.raw_median())
    if ctx.tracing:
        ctx.layer_values["evaluation.records"] = float(n_records * traced.n)
        ctx.layer_values["telemetry.trace_overhead_pct"] = 100.0 * (traced.median() / plain.median() - 1.0)
