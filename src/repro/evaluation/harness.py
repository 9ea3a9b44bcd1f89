"""Evaluation harness: methods x caps x kernels.

Implements the paper's protocol (Section V-B): for each kernel, the
tested power caps are the power levels of the configurations on the
kernel's oracle frontier; each method commits to a configuration per
cap; the committed configuration's *ground-truth* power and performance
are then compared to the oracle's choice at the same cap, split into
under-limit and over-limit cases.
"""

from __future__ import annotations

import logging
from itertools import cycle, repeat
from typing import Iterable, NamedTuple, Sequence

from repro.constants import respects_cap
from repro.hardware.config import Configuration
from repro.methods.base import PowerLimitMethod
from repro.methods.oracle import Oracle
from repro.telemetry import counter, get_logger, log_event, trace_span
from repro.workloads.kernel import Kernel

__all__ = ["CapEvaluation", "evaluate_kernel", "evaluate_suite"]

_log = get_logger(__name__)


class CapEvaluation(NamedTuple):
    """One (kernel, power cap, method) evaluation record.

    Power and performance are ground truth at the committed
    configuration (the oracle is judged on ground truth, so methods are
    too).  A named tuple, so a kernel's records are built from columns
    by one C-level ``map``.
    """

    kernel_uid: str
    benchmark: str
    group: str
    time_weight: float
    method: str
    power_cap_w: float
    config: Configuration
    power_w: float
    performance: float
    oracle_config: Configuration
    oracle_power_w: float
    oracle_performance: float
    online_runs: int = 0

    @property
    def under_limit(self) -> bool:
        """Whether the method's true power respects the cap (shared
        :data:`repro.constants.CAP_EPSILON` tolerance: a method that
        picks the oracle's own configuration measures power exactly
        equal to the cap and must count as under-limit)."""
        return respects_cap(self.power_w, self.power_cap_w)

    @property
    def perf_vs_oracle(self) -> float:
        """Performance relative to the oracle's (1.0 = parity)."""
        return self.performance / self.oracle_performance

    @property
    def power_vs_oracle(self) -> float:
        """Power relative to the oracle's (1.0 = parity)."""
        return self.power_w / self.oracle_power_w


def evaluate_kernel(
    apu,
    oracle: Oracle,
    methods: Sequence[PowerLimitMethod],
    kernel: Kernel,
    *,
    caps: Iterable[float] | None = None,
) -> list[CapEvaluation]:
    """Evaluate every method on every cap of one kernel.

    Parameters
    ----------
    apu:
        Machine providing ground truth for judging decisions.
    oracle:
        The reference; also supplies the caps when ``caps`` is ``None``.
    methods:
        Methods to evaluate (the oracle itself need not be included —
        its choices appear in every record).
    kernel:
        The kernel under evaluation.
    caps:
        Optional explicit cap list (defaults to the oracle-frontier
        power levels, the paper's protocol).
    """
    cap_list = list(caps) if caps is not None else oracle.caps_for(kernel)
    if not cap_list:
        raise ValueError("no power caps to evaluate")
    if not methods:
        return []

    with trace_span("online/evaluate"):
        for method in methods:
            method.prepare(kernel)

        # Batched cap selection: each method answers the whole sweep at
        # once (model-based methods through the shared batched decision
        # kernel, repro.server.engine.decide_batch — the same path the
        # decision server takes — and the limiter methods through one
        # FrequencyLimiter.limit_many pass).  Per-method decision
        # sequences are identical to a per-cap loop — each method still
        # sees its caps in order on its own noise stream.
        oracle_decisions = oracle.decide_many(kernel, cap_list)
        method_decisions = [
            method.decide_many(kernel, cap_list) for method in methods
        ]

        # Records are laid out cap-major (methods in order within a
        # cap) and built from columns by one C-level map.
        truth = apu.true_table(kernel)
        names = [method.name for method in methods]
        configs, runs = zip(*[d for row in zip(*method_decisions) for d in row])
        powers, perfs = zip(*map(truth.__getitem__, configs))
        record_caps, oracle_cfgs, oracle_powers, oracle_perfs = zip(*[
            (cap, decision.config, *truth[decision.config])
            for cap, decision in zip(cap_list, oracle_decisions)
            for _ in names
        ])
        records = list(map(tuple.__new__, repeat(CapEvaluation), zip(
            repeat(kernel.uid), repeat(kernel.benchmark), repeat(kernel.group),
            repeat(kernel.time_weight), cycle(names), record_caps, configs,
            powers, perfs, oracle_cfgs, oracle_powers, oracle_perfs, runs,
        )))
        violations = dict.fromkeys(names, 0)
        log_debug = _log.isEnabledFor(logging.DEBUG)
        for record, ok in zip(records, map(respects_cap, powers, record_caps)):
            if ok:
                continue
            violations[record.method] += 1
            if log_debug:
                log_event(
                    _log,
                    logging.DEBUG,
                    "cap-violation",
                    kernel=kernel.uid,
                    method=record.method,
                    cap_w=round(record.power_cap_w, 3),
                    power_w=round(record.power_w, 3),
                    config=record.config.label(),
                )
        # Per-method selection and cap-violation accounting (the
        # telemetry view behind the paper's %-under-limit columns),
        # plus per-backend record labels so multi-backend sweeps are
        # attributable in telemetry.json (docs/OBSERVABILITY.md).
        backend_name = getattr(apu, "name", "") or "unknown"
        counter(f"harness.backend.{backend_name}.records").inc(
            len(cap_list) * len(methods)
        )
        for method in methods:
            counter(f"harness.records.{method.name}").inc(len(cap_list))
            over = violations[method.name]
            if over:
                counter(f"harness.cap_violations.{method.name}").inc(over)
    return records


def evaluate_suite(
    apu,
    oracle: Oracle,
    methods: Sequence[PowerLimitMethod],
    kernels: Iterable[Kernel],
) -> list[CapEvaluation]:
    """Evaluate methods over many kernels (caps per the paper's protocol)."""
    records: list[CapEvaluation] = []
    for kernel in kernels:
        records.extend(evaluate_kernel(apu, oracle, methods, kernel))
    return records
