"""Per-cluster power and performance regression models.

Paper Section III-B defines two model families per cluster:

* **performance** — a ratio to the same-device sample configuration,
  with no intercept::

      P_perf = (a1*x1 + ... + an*xn) * S_perf

  where ``S_perf`` is the kernel's measured performance on the sample
  configuration of the relevant device, and the ``x_i`` are the
  configuration variables and their first-order interactions
  (:mod:`repro.core.features`);

* **power** — predicted directly, with intercept::

      P_power = b0 + b1*x1 + ... + bn*xn

  The power design uses voltage-aware configuration variables
  (:func:`repro.core.features.power_design_row`).  We additionally
  include the kernel's measured *sample-configuration power* as a
  regressor, plus its first-order interactions with the configuration
  variables (``power_anchor``, on by default).  Both sample iterations
  measure power, so this uses no information beyond the paper's
  two-iteration budget, and it lets one cluster model serve kernels
  whose absolute power levels differ (the paper reports
  best-configuration power from 19 W to 55 W across kernels): the
  anchor carries each kernel's activity level, and the interactions let
  that level scale the dynamic-power terms.  The ablation benchmark
  ``test_bench_ablation_anchor`` quantifies the effect;
  ``power_anchor=False`` recovers the narrowest literal reading of the
  paper.

As the paper notes, these linear models exist "to rank configurations in
performance and power in a computationally efficient manner" — ranking
quality, not absolute accuracy, is what the scheduler needs.

The optional ``transform="log"`` applies the variance-stabilizing
transformation the paper lists as future work (Section VI): targets are
fitted in log space and predictions exponentiated, de-emphasizing the
extremes of the fitted range.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from repro.core.characterization import KernelCharacterization
from repro.core.configspace import ConfigTable
from repro.core.features import (
    CPU_FEATURE_NAMES,
    CPU_POWER_FEATURE_NAMES,
    GPU_FEATURE_NAMES,
    GPU_POWER_FEATURE_NAMES,
    design_row,
    power_design_row,
)
from repro.hardware.config import Configuration, Device
from repro.stats.ols import GramStats, OLSModel, fit_ols, fit_ols_from_gram
from repro.telemetry import counter

__all__ = [
    "DeviceModels",
    "ClusterModels",
    "KernelGramBlocks",
    "RegressionGramPool",
    "fit_cluster_models",
    "kernel_gram_blocks",
]

# Sufficient-statistic accounting (see docs/TRAINING_ENGINE.md):
# per-kernel Gram blocks are built once suite-wide and re-served to
# every fold; cluster-level sums are cached and, when a seeded superset
# is known, derived by downdating it instead of re-summing.
_GRAM_HITS = counter("train.gram.hits")
_GRAM_MISSES = counter("train.gram.misses")
_GRAM_SUM_HITS = counter("train.gram.sum_hits")
_GRAM_DOWNDATES = counter("train.gram.downdates")

#: Scale (watts) normalizing the power-anchor regressor.
_POWER_ANCHOR_SCALE_W: float = 30.0

Transform = Literal["none", "log"]


@dataclass(frozen=True)
class DeviceModels:
    """The fitted (performance-ratio, power) model pair for one device."""

    device: Device
    perf_ratio: OLSModel
    power: OLSModel
    transform: Transform
    power_anchor: bool

    def predict_performance(self, cfg: Configuration, sample_perf: float) -> float:
        """Predicted absolute performance of ``cfg`` given the kernel's
        measured sample performance on this device."""
        self._check_device(cfg)
        ratio = float(self.perf_ratio.predict(design_row(cfg))[0])
        if self.transform == "log":
            ratio = float(np.exp(ratio))
        return max(ratio, 1e-9) * sample_perf

    def predict_power(self, cfg: Configuration, sample_power_w: float) -> float:
        """Predicted total power (watts) of ``cfg`` given the kernel's
        measured sample power on this device."""
        self._check_device(cfg)
        x = self._anchored(power_design_row(cfg)[np.newaxis], sample_power_w)
        p = float(self.power.predict(x)[0])
        if self.transform == "log":
            p = float(np.exp(p))
        return max(p, 1e-6)

    def _check_device(self, cfg: Configuration) -> None:
        if cfg.device is not self.device:
            raise ValueError(
                f"model for {self.device} applied to {cfg.device} configuration"
            )

    # -- vectorized prediction over precomputed design matrices --------------
    # The paper's online-overhead argument (Section IV-C): "model
    # application requires a simple matrix-vector product of the
    # configuration space with the model coefficients".  These batch
    # entry points are that product; AdaptiveModel precomputes the
    # design matrices once per machine.

    def predict_performance_from_matrix(
        self, X: np.ndarray, sample_perf: float
    ) -> np.ndarray:
        """Batch :meth:`predict_performance` over a precomputed
        performance design matrix (rows = configurations)."""
        ratios = self.perf_ratio.predict(X)
        if self.transform == "log":
            ratios = np.exp(ratios)
        return np.maximum(ratios, 1e-9) * sample_perf

    def predict_power_from_matrix(
        self, X_power: np.ndarray, sample_power_w: float
    ) -> np.ndarray:
        """Batch :meth:`predict_power` over a precomputed power design
        matrix (rows = configurations, anchor columns appended here)."""
        p = self.power.predict(self._anchored(X_power, sample_power_w))
        if self.transform == "log":
            p = np.exp(p)
        return np.maximum(p, 1e-6)

    def _anchored(self, X_power: np.ndarray, sample_power_w: float) -> np.ndarray:
        return _anchor(X_power, sample_power_w) if self.power_anchor else X_power

    # -- prediction uncertainty (paper Section VI) ----------------------------

    def predict_performance_std_from_matrix(
        self, X: np.ndarray, sample_perf: float
    ) -> np.ndarray:
        """Prediction standard deviation of the performance estimates.

        For the log transform the delta method is applied:
        ``std(exp(y)) ~ exp(mean) * std(y)``.
        """
        std = self.perf_ratio.predict_std(X)
        if self.transform == "log":
            mean = np.exp(self.perf_ratio.predict(X))
            std = mean * std
        return std * sample_perf

    def predict_power_std_from_matrix(
        self, X_power: np.ndarray, sample_power_w: float
    ) -> np.ndarray:
        """Prediction standard deviation of the power estimates (watts)."""
        Xa = self._anchored(X_power, sample_power_w)
        std = self.power.predict_std(Xa)
        if self.transform == "log":
            mean = np.exp(self.power.predict(Xa))
            std = mean * std
        return std


@dataclass(frozen=True)
class ClusterModels:
    """The four fitted regressions of one kernel cluster."""

    cpu: DeviceModels
    gpu: DeviceModels

    def for_device(self, device: Device) -> DeviceModels:
        """The model pair serving one device."""
        return self.gpu if device is Device.GPU else self.cpu

    def predict(
        self,
        cfg: Configuration,
        *,
        sample_perf_cpu: float,
        sample_perf_gpu: float,
        sample_power_cpu_w: float,
        sample_power_gpu_w: float,
    ) -> tuple[float, float]:
        """Predicted ``(power_w, performance)`` of one configuration,
        anchored to the kernel's two sample measurements."""
        if cfg.device is Device.GPU:
            return (
                self.gpu.predict_power(cfg, sample_power_gpu_w),
                self.gpu.predict_performance(cfg, sample_perf_gpu),
            )
        return (
            self.cpu.predict_power(cfg, sample_power_cpu_w),
            self.cpu.predict_performance(cfg, sample_perf_cpu),
        )


def _anchor(X_power: np.ndarray, sample_power_w: float) -> np.ndarray:
    """``[X, s, s*X]``: power design rows joined by the sample-power
    anchor ``s`` and its interactions with every column."""
    s = sample_power_w / _POWER_ANCHOR_SCALE_W
    n = X_power.shape[0]
    return np.hstack([X_power, np.full((n, 1), s), s * X_power])


def _power_feature_names(device: Device, power_anchor: bool) -> tuple[str, ...]:
    base = (
        GPU_POWER_FEATURE_NAMES if device is Device.GPU else CPU_POWER_FEATURE_NAMES
    )
    if not power_anchor:
        return base
    return base + ("sample_power",) + tuple(f"sample_power*{n}" for n in base)


@functools.cache
def _design_table(descriptor) -> ConfigTable:
    """The process-wide :class:`ConfigTable` of one machine's whole
    configuration space."""
    return ConfigTable.for_space(descriptor.config_space())


def _kernel_design(
    char: KernelCharacterization,
    device: Device,
    transform: Transform,
    power_anchor: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The design rows one kernel contributes to its cluster's fits:
    ``(X_perf, y_perf, X_power, y_power)``, without intercept columns,
    in the kernel's measurement order.  Shared by the direct-design and
    sufficient-statistics paths so both see identical rows.

    The rows are gathered from the machine's :class:`ConfigTable`
    design matrices, and the anchor block and targets are array ops, so
    a kernel costs a fixed number of array passes, not one
    :func:`design_row` per configuration; every value is the one the
    per-configuration rows gave."""
    sample = char.gpu_sample if device is Device.GPU else char.cpu_sample
    cfgs, ms = [], []
    for cfg, m in char.measurements.items():
        if cfg.device is device:
            cfgs.append(cfg)
            ms.append(m)
    table = _design_table(next(iter(char.measurements)).descriptor)
    rows = table.rows_for(cfgs)
    if device is Device.GPU:
        rows -= table.n_cpu
        X_perf, X_power = table.X_perf_gpu[rows], table.X_power_gpu[rows]
    else:
        X_perf, X_power = table.X_perf_cpu[rows], table.X_power_cpu[rows]
    time_s = np.array([m.time_s for m in ms])
    y_perf = 1.0 / time_s / sample.performance
    y_power = np.array([m.cpu_plane_w for m in ms])
    y_power += np.array([m.nbgpu_plane_w for m in ms])
    if transform == "log":
        y_perf, y_power = np.log(y_perf), np.log(y_power)
    if power_anchor:
        X_power = _anchor(X_power, sample.total_power_w)
    return X_perf, y_perf, X_power, y_power


@dataclass(frozen=True)
class KernelGramBlocks:
    """One kernel's sufficient statistics for one device's model pair.

    ``power``'s statistics are taken over the full power design —
    intercept column of ones included — so cluster sums feed
    :func:`~repro.stats.ols.fit_ols_from_gram` directly.
    """

    perf: GramStats
    power: GramStats

    def __add__(self, other: "KernelGramBlocks") -> "KernelGramBlocks":
        return KernelGramBlocks(
            perf=self.perf + other.perf, power=self.power + other.power
        )

    def __sub__(self, other: "KernelGramBlocks") -> "KernelGramBlocks":
        return KernelGramBlocks(
            perf=self.perf - other.perf, power=self.power - other.power
        )


def kernel_gram_blocks(
    char: KernelCharacterization,
    device: Device,
    *,
    transform: Transform = "none",
    power_anchor: bool = True,
) -> KernelGramBlocks:
    """Accumulate one kernel's per-device sufficient statistics."""
    X_perf, y_perf, X_power, y_power = _kernel_design(
        char, device, transform, power_anchor
    )
    if X_perf.shape[0] == 0:
        raise ValueError(
            f"kernel {char.kernel_uid!r} has no {device} measurements"
        )
    A_power = np.hstack([np.ones((X_power.shape[0], 1)), X_power])
    return KernelGramBlocks(
        perf=GramStats.from_design(X_perf, y_perf),
        power=GramStats.from_design(A_power, y_power),
    )


class RegressionGramPool:
    """Suite-wide cache of per-kernel Gram blocks and cluster sums.

    The pool implements the training engine's sufficient-statistics
    economy (``docs/TRAINING_ENGINE.md``):

    * each kernel's per-device :class:`KernelGramBlocks` is built
      exactly once per ``(transform, power_anchor)`` pool and re-served
      to every cross-validation fold (``train.gram.{hits,misses}``);
    * cluster-level sums are cached by member-uid set
      (``train.gram.sum_hits``), so a cluster untouched by a fold's
      holdout is free on every later fold;
    * :meth:`seed_cluster_sums` registers reference cluster sums
      (the full-suite clustering); a fold cluster that is a strict
      subset of a seeded cluster is then computed by *downdating* —
      subtracting the held-out kernels' blocks from the seeded sum
      (``train.gram.downdates``) — instead of re-summing.

    Determinism: downdates only ever subtract from *seeded* sums, which
    are fixed before folds run, so the statistics served for a given
    member set are a pure function of that set — identical for any fold
    ordering or ``n_jobs``.  All methods are thread-safe.
    """

    _MAX_SUMS = 1024  # FIFO bound on cached cluster sums

    def __init__(
        self, *, transform: Transform = "none", power_anchor: bool = True
    ) -> None:
        self.transform: Transform = transform
        self.power_anchor = power_anchor
        self._lock = threading.RLock()
        self._blocks: dict[tuple[str, Device], KernelGramBlocks] = {}
        self._sums: OrderedDict[
            tuple[Device, frozenset], KernelGramBlocks
        ] = OrderedDict()
        self._seeded: dict[tuple[Device, frozenset], KernelGramBlocks] = {}

    def _block(
        self, char: KernelCharacterization, device: Device
    ) -> KernelGramBlocks:
        key = (char.kernel_uid, device)
        cached = self._blocks.get(key)
        if cached is not None:
            _GRAM_HITS.inc()
            return cached
        _GRAM_MISSES.inc()
        block = kernel_gram_blocks(
            char, device, transform=self.transform, power_anchor=self.power_anchor
        )
        self._blocks[key] = block
        return block

    def _sum_blocks(
        self, chars: Sequence[KernelCharacterization], device: Device
    ) -> KernelGramBlocks:
        blocks = [self._block(c, device) for c in chars]
        return KernelGramBlocks(
            perf=GramStats.sum([b.perf for b in blocks]),
            power=GramStats.sum([b.power for b in blocks]),
        )

    def seed_cluster_sums(
        self,
        clusters: Iterable[Iterable[str]],
        chars_by_uid: Mapping[str, KernelCharacterization],
    ) -> None:
        """Register reference cluster sums as downdate bases.

        ``clusters`` are uid groups (typically the full-suite
        clustering's members); every kernel named must appear in
        ``chars_by_uid``.  Seeding is idempotent and must happen before
        concurrent fold workers query the pool for downdates to apply
        deterministically.
        """
        with self._lock:
            for group in clusters:
                uids = list(group)
                if not uids:
                    continue
                chars = [chars_by_uid[u] for u in uids]
                key_set = frozenset(uids)
                for device in (Device.CPU, Device.GPU):
                    key = (device, key_set)
                    if key not in self._seeded:
                        self._seeded[key] = self._sum_blocks(chars, device)

    def cluster_stats(
        self, chars: Sequence[KernelCharacterization], device: Device
    ) -> KernelGramBlocks:
        """The summed sufficient statistics of one cluster's members."""
        if not chars:
            raise ValueError("cannot sum Gram blocks of zero kernels")
        key_set = frozenset(c.kernel_uid for c in chars)
        key = (device, key_set)
        with self._lock:
            cached = self._seeded.get(key)
            if cached is None:
                cached = self._sums.get(key)
            if cached is not None:
                _GRAM_SUM_HITS.inc()
                return cached

            # Downdate path: a seeded superset minus the few held-out
            # kernels' blocks.  Restricted to seeded (pre-fold) sums so
            # the served value is a pure function of the member set.
            result = None
            best: tuple[int, frozenset] | None = None
            for (dev, seeded_set) in self._seeded:
                if dev is not device or not key_set < seeded_set:
                    continue
                extra = len(seeded_set) - len(key_set)
                if best is None or extra < best[0]:
                    best = (extra, seeded_set)
            if best is not None:
                extras = best[1] - key_set
                blocks = [self._blocks.get((u, device)) for u in sorted(extras)]
                if all(b is not None for b in blocks):
                    result = self._seeded[(device, best[1])]
                    for b in blocks:
                        result = result - b
                    _GRAM_DOWNDATES.inc()
            if result is None:
                result = self._sum_blocks(chars, device)
            self._sums[key] = result
            while len(self._sums) > self._MAX_SUMS:
                self._sums.popitem(last=False)
            return result


def _fit_device(
    chars: Sequence[KernelCharacterization],
    device: Device,
    transform: Transform,
    power_anchor: bool,
    ridge: float,
    gram_pool: RegressionGramPool | None = None,
) -> DeviceModels:
    names = GPU_FEATURE_NAMES if device is Device.GPU else CPU_FEATURE_NAMES
    power_names = _power_feature_names(device, power_anchor)
    if gram_pool is not None:
        stats = gram_pool.cluster_stats(chars, device)
        perf_model = fit_ols_from_gram(
            stats.perf, intercept=False, feature_names=names, ridge=ridge
        )
        power_model = fit_ols_from_gram(
            stats.power, intercept=True, feature_names=power_names, ridge=ridge
        )
    else:
        X_perf, y_perf, X_power, y_power = [], [], [], []
        for c in chars:
            Xp, yp, Xw, yw = _kernel_design(c, device, transform, power_anchor)
            X_perf.append(Xp)
            y_perf.append(yp)
            X_power.append(Xw)
            y_power.append(yw)
        perf_model = fit_ols(
            np.concatenate(X_perf),
            np.concatenate(y_perf),
            intercept=False,
            feature_names=names,
            ridge=ridge,
        )
        power_model = fit_ols(
            np.concatenate(X_power),
            np.concatenate(y_power),
            intercept=True,
            feature_names=power_names,
            ridge=ridge,
        )
    return DeviceModels(
        device=device,
        perf_ratio=perf_model,
        power=power_model,
        transform=transform,
        power_anchor=power_anchor,
    )


def fit_cluster_models(
    chars: Sequence[KernelCharacterization],
    *,
    transform: Transform = "none",
    power_anchor: bool = True,
    ridge: float = 0.0,
    gram_pool: RegressionGramPool | None = None,
) -> ClusterModels:
    """Fit one cluster's regressions from its member kernels'
    characterizations (pooled across kernels, per device).

    ``ridge`` adds L2 regularization to both model families — useful
    when a cluster is small (few kernels pool few rows) and the
    interaction columns would otherwise overfit measurement noise.

    ``gram_pool`` switches the fit to the sufficient-statistics path:
    per-kernel Gram blocks are drawn from (and cached in) the pool and
    summed, and the models are solved from the normal equations
    (:func:`~repro.stats.ols.fit_ols_from_gram`) instead of a fresh
    ``lstsq`` over a rebuilt design matrix.  Coefficients agree with
    the direct path to floating-point reassociation (≤1e-9; see
    ``docs/TRAINING_ENGINE.md``).  The pool's ``transform`` and
    ``power_anchor`` must match the fit's.

    Raises
    ------
    ValueError
        If ``chars`` is empty, a device has no measurements, or
        ``gram_pool`` was built for different model settings.
    """
    if not chars:
        raise ValueError("cannot fit cluster models without kernels")
    if transform not in ("none", "log"):
        raise ValueError(f"unknown transform {transform!r}")
    if gram_pool is not None and (
        gram_pool.transform != transform or gram_pool.power_anchor != power_anchor
    ):
        raise ValueError(
            "gram_pool was accumulated for "
            f"(transform={gram_pool.transform!r}, "
            f"power_anchor={gram_pool.power_anchor}) but the fit requests "
            f"(transform={transform!r}, power_anchor={power_anchor})"
        )
    return ClusterModels(
        cpu=_fit_device(chars, Device.CPU, transform, power_anchor, ridge, gram_pool),
        gpu=_fit_device(chars, Device.GPU, transform, power_anchor, ridge, gram_pool),
    )
