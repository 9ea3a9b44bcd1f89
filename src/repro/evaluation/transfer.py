"""Cross-architecture model transfer with k-sample recalibration.

The offline stage is the expensive part of the paper's pipeline: an
exhaustive characterization of the training suite on the target
machine.  When a *new* architecture arrives, the question is how much
of an already-trained model carries over.  Because every backend's
design rows follow the same width/normalization convention
(:mod:`repro.core.features`), a model's clustering, per-cluster
regression coefficients, and classification tree can be applied to a
different backend's configuration space verbatim — only the
:class:`~repro.core.model.AdaptiveModel.config_space` changes.  Two
mechanisms then adapt the transplanted model to the new machine:

* **Sample anchoring (zero-shot, k = 0).**  Predictions are anchored on
  the two online sample measurements taken *on the target machine*
  (paper Table II), so absolute scale partially corrects for free.
* **k-sample recalibration.**  For ``k > 0`` the harness measures ``k``
  extra configurations per device block on the target machine and fits
  one least-squares-through-origin gain per (block, quantity):
  ``g = sum(meas * pred) / sum(pred ** 2)``.  Predictions for that
  block are scaled by ``g`` — a one-parameter correction of the
  transplanted surface, purchasable with a handful of runs instead of
  a full re-characterization.

The harness reports prediction accuracy (power/performance MAPE,
performance rank correlation) and scheduling quality (cap compliance,
performance and energy vs the oracle at the oracle-frontier caps) for
the transferred model at each ``k``, next to a natively-trained model
and the oracle on the same machine.  Every recalibration run is
counted on the ``transfer.recalibration_samples`` telemetry counter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.constants import respects_cap
from repro.core.model import AdaptiveModel
from repro.core.predictor import KernelPrediction
from repro.core.scheduler import Scheduler
from repro.hardware.backend import HardwareBackend, create_backend
from repro.methods.oracle import Oracle
from repro.profiling.store import CharacterizationStore
from repro.stats.kendall import kendall_tau
import logging

from repro.telemetry import counter, get_logger, log_event, trace_span
from repro.workloads import build_suite

__all__ = [
    "TransferPoint",
    "TransferReport",
    "recalibration_configs",
    "recalibration_gains",
    "recalibrated_prediction",
    "residual_risk_margin",
    "run_transfer",
]

_log = get_logger(__name__)

#: Default recalibration budgets evaluated by :func:`run_transfer`
#: (``k`` extra measured configurations per device block).
DEFAULT_KS: tuple[int, ...] = (0, 1, 3, 5)

# Every configuration measured purely for recalibration (not a sample
# anchor) increments this counter — see docs/OBSERVABILITY.md.
_RECAL_SAMPLES = counter("transfer.recalibration_samples")


def _transplant(model: AdaptiveModel, space) -> AdaptiveModel:
    """The transferred model: source clustering/regressions/classifier
    re-seated on the target backend's configuration space."""
    return AdaptiveModel(
        clustering=model.clustering,
        cluster_models=model.cluster_models,
        classifier=model.classifier,
        config_space=space,
    )


def recalibration_configs(space, k: int) -> tuple[tuple, tuple]:
    """Deterministic per-block recalibration picks.

    Returns ``(primary_configs, secondary_configs)`` — up to ``k``
    configurations per device block, spread evenly across each block's
    enumeration order (which sweeps the frequency ladder), excluding
    the sample anchors (those are always measured anyway).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    configs = tuple(space)
    samples = set(space.descriptor.sample_configs())
    blocks = (
        [c for c in configs if not c.is_gpu and c not in samples],
        [c for c in configs if c.is_gpu and c not in samples],
    )
    picked: list[tuple] = []
    for block in blocks:
        if k == 0 or not block:
            picked.append(())
            continue
        n = min(k, len(block))
        if n == 1:
            idx = [len(block) // 2]
        else:
            idx = sorted({
                round(i * (len(block) - 1) / (n - 1)) for i in range(n)
            })
        picked.append(tuple(block[i] for i in idx))
    return picked[0], picked[1]


def _lsq_gain(pred: Sequence[float], meas: Sequence[float]) -> float:
    """Least-squares-through-origin gain ``argmin_g sum((g*pred - meas)^2)``.

    Falls back to 1.0 (no correction) when the predictions carry no
    energy — an all-zero prediction cannot be rescaled into anything.
    """
    p = np.asarray(pred, dtype=float)
    m = np.asarray(meas, dtype=float)
    denom = float(np.dot(p, p))
    if denom <= 0.0 or not np.isfinite(denom):
        return 1.0
    g = float(np.dot(p, m) / denom)
    return g if np.isfinite(g) and g > 0.0 else 1.0


def recalibration_gains(
    prediction: KernelPrediction,
    measurements: Mapping,
) -> dict[str, float]:
    """Per-(block, quantity) gains from measured recalibration configs.

    ``measurements`` maps recalibration configurations to their
    :class:`~repro.hardware.backend.Measurement` on the target machine.
    Returns gains keyed ``"{cpu,gpu}_{power,perf}"``; blocks with no
    recalibration measurements keep gain 1.0.
    """
    gains = {
        "cpu_power": 1.0, "cpu_perf": 1.0,
        "gpu_power": 1.0, "gpu_perf": 1.0,
    }
    for is_gpu, label in ((False, "cpu"), (True, "gpu")):
        cfgs = [c for c in measurements if c.is_gpu == is_gpu]
        if not cfgs:
            continue
        pred_pw = [prediction.predictions[c][0] for c in cfgs]
        pred_pf = [prediction.predictions[c][1] for c in cfgs]
        meas_pw = [measurements[c].total_power_w for c in cfgs]
        meas_pf = [measurements[c].performance for c in cfgs]
        gains[f"{label}_power"] = _lsq_gain(pred_pw, meas_pw)
        gains[f"{label}_perf"] = _lsq_gain(pred_pf, meas_pf)
    return gains


def residual_risk_margin(
    prediction: KernelPrediction,
    gains: Mapping[str, float],
    measurements: Mapping,
    *,
    cap_fraction: float = 0.45,
) -> float:
    """A guard-band sized from recalibration residuals.

    The per-block gains fix the transplanted power surface's *scale*
    but not its *shape*; the leftover relative error is exactly what a
    scheduler should guard against when judging cap feasibility.  This
    returns the RMS relative power residual over the recalibration
    measurements (post-gain), clamped to ``[0, cap_fraction]`` —
    usable directly as ``Scheduler.select(..., risk_margin=...)``.
    Returns 0.0 with no (or perfectly fitted) measurements.
    """
    errs = []
    for cfg, m in measurements.items():
        g = gains["gpu_power" if cfg.is_gpu else "cpu_power"]
        pred = g * prediction.predictions[cfg][0]
        errs.append((pred - m.total_power_w) / m.total_power_w)
    if not errs:
        return 0.0
    rms = float(np.sqrt(np.mean(np.square(errs))))
    return min(max(rms, 0.0), cap_fraction)


def recalibrated_prediction(
    prediction: KernelPrediction, gains: Mapping[str, float]
) -> KernelPrediction:
    """Apply per-block gains to a prediction, preserving config order."""
    scaled = {
        cfg: (
            pw * gains["gpu_power" if cfg.is_gpu else "cpu_power"],
            pf * gains["gpu_perf" if cfg.is_gpu else "cpu_perf"],
        )
        for cfg, (pw, pf) in prediction.predictions.items()
    }
    return KernelPrediction(
        kernel_uid=prediction.kernel_uid,
        cluster=prediction.cluster,
        predictions=scaled,
        cpu_sample=prediction.cpu_sample,
        gpu_sample=prediction.gpu_sample,
    )


@dataclass(frozen=True)
class TransferPoint:
    """Aggregate quality of one model variant on the target machine.

    ``k`` is the per-block recalibration budget; ``None`` marks the
    natively-trained baseline (no transfer, no recalibration).
    Percentages follow Table III conventions; MAPE/tau are computed
    against the deterministic ground truth over the full space.
    ``fallback_pct`` is the share of cases in which no configuration
    was predicted feasible, so the scheduler fell back to the
    lowest-predicted-power one; ``top_config`` is the label of the
    most-picked configuration and ``top_config_share_pct`` its share of
    all cases.
    """

    k: int | None
    power_mape: float
    perf_mape: float
    perf_rank_tau: float
    pct_under_limit: float
    under_perf_vs_oracle_pct: float
    under_energy_vs_oracle_pct: float
    recalibration_runs: int
    n_cases: int
    mean_risk_margin: float = 0.0
    fallback_pct: float = 0.0
    top_config: str = ""
    top_config_share_pct: float = 0.0


@dataclass(frozen=True)
class TransferReport:
    """Everything :func:`run_transfer` measured for one backend pair."""

    train_backend: str
    eval_backend: str
    seed: int
    n_kernels: int
    transferred: tuple[TransferPoint, ...]
    native: TransferPoint
    ks: tuple[int, ...] = field(default=DEFAULT_KS)

    def point(self, k: int) -> TransferPoint:
        """The transferred-model point for recalibration budget ``k``."""
        for p in self.transferred:
            if p.k == k:
                return p
        raise KeyError(f"no transfer point for k={k}")

    def to_dict(self) -> dict:
        """JSON-ready form (consumed by BENCH_backends.json)."""
        def row(p: TransferPoint) -> dict:
            return {
                "k": p.k,
                "power_mape": p.power_mape,
                "perf_mape": p.perf_mape,
                "perf_rank_tau": p.perf_rank_tau,
                "pct_under_limit": p.pct_under_limit,
                "under_perf_vs_oracle_pct": p.under_perf_vs_oracle_pct,
                "under_energy_vs_oracle_pct": p.under_energy_vs_oracle_pct,
                "recalibration_runs": p.recalibration_runs,
                "n_cases": p.n_cases,
                "mean_risk_margin": p.mean_risk_margin,
                "fallback_pct": p.fallback_pct,
                "top_config": p.top_config,
                "top_config_share_pct": p.top_config_share_pct,
            }

        return {
            "train_backend": self.train_backend,
            "eval_backend": self.eval_backend,
            "seed": self.seed,
            "n_kernels": self.n_kernels,
            "transferred": [row(p) for p in self.transferred],
            "native": row(self.native),
        }


@dataclass
class _Accumulator:
    """Running sums for one model variant across kernels and caps."""

    power_err: list = field(default_factory=list)
    perf_err: list = field(default_factory=list)
    taus: list = field(default_factory=list)
    under: int = 0
    cases: int = 0
    under_perf: list = field(default_factory=list)
    under_energy: list = field(default_factory=list)
    recal_runs: int = 0
    margins: list = field(default_factory=list)
    fallbacks: int = 0
    picks: Counter = field(default_factory=Counter)

    def point(self, k: int | None) -> TransferPoint:
        top, top_count = self.picks.most_common(1)[0]
        return TransferPoint(
            k=k,
            power_mape=float(np.mean(self.power_err)),
            perf_mape=float(np.mean(self.perf_err)),
            perf_rank_tau=float(np.mean(self.taus)),
            pct_under_limit=100.0 * self.under / self.cases,
            under_perf_vs_oracle_pct=(
                100.0 * float(np.mean(self.under_perf))
                if self.under_perf else float("nan")
            ),
            under_energy_vs_oracle_pct=(
                100.0 * float(np.mean(self.under_energy))
                if self.under_energy else float("nan")
            ),
            recalibration_runs=self.recal_runs,
            n_cases=self.cases,
            mean_risk_margin=(
                float(np.mean(self.margins)) if self.margins else 0.0
            ),
            fallback_pct=100.0 * self.fallbacks / self.cases,
            top_config=top.label(),
            top_config_share_pct=100.0 * top_count / self.cases,
        )


def _score(
    acc: _Accumulator,
    prediction: KernelPrediction,
    kernel,
    apu: HardwareBackend,
    oracle: Oracle,
    scheduler: Scheduler,
    caps: Sequence[float],
    risk_margin: float = 0.0,
) -> None:
    """Score one kernel's prediction against ground truth and oracle."""
    configs = prediction.config_tuple
    true_pw = np.array([apu.true_total_power_w(kernel, c) for c in configs])
    true_pf = np.array([apu.true_performance(kernel, c) for c in configs])
    acc.power_err.extend(
        np.abs(prediction.power_array - true_pw) / true_pw
    )
    acc.perf_err.extend(
        np.abs(prediction.performance_array - true_pf) / true_pf
    )
    acc.taus.append(
        kendall_tau(prediction.performance_array, true_pf, variant="b")
    )
    truth = {c: (float(p), float(f)) for c, p, f in zip(configs, true_pw, true_pf)}
    acc.margins.append(risk_margin)
    decisions = scheduler.select_many(prediction, caps, risk_margin=risk_margin)
    for cap, decision, pick in zip(
        caps, decisions, oracle.decide_many(kernel, caps)
    ):
        pw, pf = truth[decision.config]
        o_pw, o_pf = truth[pick.config]
        acc.cases += 1
        acc.fallbacks += not decision.predicted_feasible
        acc.picks[decision.config] += 1
        if respects_cap(pw, cap):
            acc.under += 1
            acc.under_perf.append(pf / o_pf)
            # Energy per unit of work = power / performance; < 100%
            # means the pick spends less energy than the oracle's.
            acc.under_energy.append((pw / pf) / (o_pw / o_pf))


def run_transfer(
    train_backend: str = "trinity",
    eval_backend: str = "biglittle",
    *,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 0,
    suite=None,
) -> TransferReport:
    """Train on one backend, evaluate (with recalibration) on another.

    Parameters
    ----------
    train_backend, eval_backend:
        Registered backend names (:func:`repro.hardware.backend.backend_names`).
    ks:
        Recalibration budgets to evaluate (extra measured
        configurations per device block; 0 = zero-shot transfer).
    seed:
        Noise seed for both machines' characterizations.
    suite:
        Kernel suite (defaults to the paper suite); the source model is
        trained on it and the transfer is evaluated over it on the
        target machine.
    """
    if train_backend == eval_backend:
        raise ValueError("transfer needs two distinct backends")
    kernels = list(suite if suite is not None else build_suite())

    with trace_span("transfer/train"):
        apu_a = create_backend(train_backend, seed=seed)
        store_a = CharacterizationStore.shared(
            kernels, seed=seed, backend=train_backend
        )
        model_a = AdaptiveModel.train(
            store_a.characterize(kernels), config_space=apu_a.config_space
        )

        apu_b = create_backend(eval_backend, seed=seed)
        store_b = CharacterizationStore.shared(
            kernels, seed=seed, backend=eval_backend
        )
        model_native = AdaptiveModel.train(
            store_b.characterize(kernels), config_space=apu_b.config_space
        )

    transferred = _transplant(model_a, apu_b.config_space)
    oracle = Oracle(apu_b)
    scheduler = Scheduler()
    ks = tuple(ks)
    recal_blocks = {k: recalibration_configs(apu_b.config_space, k) for k in ks}

    accs = {k: _Accumulator() for k in ks}
    native_acc = _Accumulator()
    with trace_span("transfer/evaluate"):
        for kernel in kernels:
            chars = store_b.characterization(kernel)
            caps = oracle.caps_for(kernel)
            base = transferred.predict_kernel(
                chars.cpu_sample, chars.gpu_sample, kernel_uid=kernel.uid
            )
            s_cpu, s_gpu = apu_b.descriptor.sample_configs()
            anchors = {s_cpu: chars.cpu_sample, s_gpu: chars.gpu_sample}
            for k in ks:
                cpu_cfgs, gpu_cfgs = recal_blocks[k]
                recal = {
                    c: chars.measurements[c] for c in (*cpu_cfgs, *gpu_cfgs)
                }
                margin = 0.0
                if recal:
                    _RECAL_SAMPLES.inc(len(recal))
                    accs[k].recal_runs += len(recal)
                    # The sample anchors are measured anyway (they are
                    # the online stage's two runs), so they join the fit
                    # for free — and regularize the gain toward 1 when a
                    # recalibration config's prediction is degenerate.
                    fit = {**anchors, **recal}
                    gains = recalibration_gains(base, fit)
                    margin = residual_risk_margin(base, gains, fit)
                    pred = recalibrated_prediction(base, gains)
                else:
                    pred = base
                _score(
                    accs[k], pred, kernel, apu_b, oracle, scheduler, caps,
                    risk_margin=margin,
                )
            native_pred = model_native.predict_kernel(
                chars.cpu_sample, chars.gpu_sample, kernel_uid=kernel.uid
            )
            _score(
                native_acc, native_pred, kernel, apu_b, oracle, scheduler, caps
            )

    report = TransferReport(
        train_backend=train_backend,
        eval_backend=eval_backend,
        seed=seed,
        n_kernels=len(kernels),
        transferred=tuple(accs[k].point(k) for k in ks),
        native=native_acc.point(None),
        ks=ks,
    )
    log_event(
        _log,
        logging.INFO,
        "transfer-report",
        train_backend=train_backend,
        eval_backend=eval_backend,
        seed=seed,
        zero_shot_under_pct=report.transferred[0].pct_under_limit
        if report.transferred
        else None,
        native_under_pct=report.native.pct_under_limit,
    )
    return report
