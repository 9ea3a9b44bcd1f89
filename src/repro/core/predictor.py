"""Online prediction: two sample iterations to a full predicted frontier.

Paper Section III-C: "we use the first two iterations of the kernel to
run on the sample configurations, with one iteration on each device
(CPU and GPU).  Once the classification tree selects a cluster, we apply
the selected cluster's models to predict power and performance for the
new kernel at all machine configurations across all available devices.
From the predicted power and performance for all configurations for a
new kernel, we derive a predicted Pareto frontier."

:class:`KernelPrediction` is that output; :class:`OnlinePredictor` is
the runtime driver that produces it from a live kernel via the
profiling library.

The prediction is *array-backed*: power, performance, and (optional)
uncertainty live in numpy vectors indexed by the configuration order of
a :class:`~repro.core.configspace.ConfigTable` (or whatever order an
ad-hoc mapping supplied).  The historical
``Mapping[Configuration, tuple[float, float]]`` API is preserved as a
lazy view over those vectors, so dict-shaped callers keep working while
the scheduler, frontier construction, and cap sweeps read the arrays
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.core.frontier import ParetoFrontier
from repro.faults import (
    SampleRunError,
    measurement_is_finite,
    sanitize_measurement,
)
from repro.hardware.apu import Measurement
from repro.hardware.config import Configuration
from repro.profiling.library import ProfilingLibrary
from repro.telemetry import counter, get_logger, log_event, trace_span

import logging

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.model import AdaptiveModel

__all__ = ["KernelPrediction", "OnlinePredictor", "classifiable_anchors"]

_log = get_logger(__name__)

# Degradation accounting for the online sample stage
# (docs/ROBUSTNESS.md): retried sample runs, samples abandoned after the
# retry budget (replaced by conservative synthetic anchors), and sample
# pairs whose readings were corrupt and sanitized before classification.
_SAMPLE_RETRIES = counter("faults.retries")
_SAMPLE_FALLBACKS = counter("faults.sample_fallbacks")
_CORRUPT_SAMPLES = counter("faults.corrupt_samples")

#: Default retry budget for failed sample runs (mirrors
#: :class:`repro.runtime.AdaptiveRuntime`; the predictor models no wall
#: clock, so only the count matters here).
DEFAULT_SAMPLE_RETRY_LIMIT: int = 3


def classifiable_anchors(
    model: "AdaptiveModel",
    cpu_m: Measurement,
    gpu_m: Measurement,
    *,
    kernel_uid: str,
    event: str,
) -> tuple[Measurement, Measurement, int | None]:
    """The online stage's corrupt-sample rule, shared by
    :class:`OnlinePredictor` and :class:`repro.runtime.AdaptiveRuntime`.

    Returns the anchors to predict from and the cluster override for
    :meth:`~repro.core.model.AdaptiveModel.predict_kernel`.  A pair
    whose fields are all finite and which both carry counters passes
    through with ``None`` (the tree classifies).  Otherwise — a
    dropout/NaN reading, or the counter-less conservative stand-in for
    a sample run that exhausted its retries — both anchors are
    sanitized and the kernel takes the model's default cluster, logged
    as ``event``.
    """
    if (
        cpu_m.counters
        and gpu_m.counters
        and measurement_is_finite(cpu_m)
        and measurement_is_finite(gpu_m)
    ):
        return cpu_m, gpu_m, None
    with trace_span("online/degraded"):
        _CORRUPT_SAMPLES.inc()
        cluster = model.default_cluster
        log_event(
            _log,
            logging.WARNING,
            event,
            kernel=kernel_uid,
            fallback_cluster=cluster,
        )
        return sanitize_measurement(cpu_m), sanitize_measurement(gpu_m), cluster


class _ArrayPairView(Mapping):
    """Read-only ``{config: (a[i], b[i])}`` view over parallel vectors.

    This is the compatibility contract of the array-backed prediction
    engine: existing callers that iterate ``prediction.predictions``
    see a mapping in configuration order, while the arrays stay the
    single source of truth (see docs/PREDICTION_ENGINE.md).
    """

    __slots__ = ("_configs", "_index", "_a", "_b")

    def __init__(
        self,
        configs: tuple[Configuration, ...],
        index: Mapping[Configuration, int],
        a: np.ndarray,
        b: np.ndarray,
    ) -> None:
        self._configs = configs
        self._index = index
        self._a = a
        self._b = b

    def __getitem__(self, cfg: Configuration) -> tuple[float, float]:
        i = self._index[cfg]
        return (float(self._a[i]), float(self._b[i]))

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, cfg: object) -> bool:
        return cfg in self._index

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ArrayPairView):
            return (
                self._configs == other._configs
                and np.array_equal(self._a, other._a)
                and np.array_equal(self._b, other._b)
            )
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<_ArrayPairView of {len(self._configs)} configurations>"


def _extract_arrays(
    mapping: Mapping[Configuration, tuple[float, float]],
) -> tuple[tuple[Configuration, ...], dict[Configuration, int], np.ndarray, np.ndarray]:
    """Split an ad-hoc ``{config: (a, b)}`` mapping into parallel arrays
    in the mapping's iteration order."""
    configs = tuple(mapping)
    index = {cfg: i for i, cfg in enumerate(configs)}
    a = np.empty(len(configs))
    b = np.empty(len(configs))
    for i, (va, vb) in enumerate(mapping.values()):
        a[i] = va
        b[i] = vb
    return configs, index, a, b


@dataclass(frozen=True)
class KernelPrediction:
    """Model output for one kernel: predictions over the whole space.

    Attributes
    ----------
    kernel_uid:
        Which kernel was predicted.
    cluster:
        Cluster the classification tree assigned.
    predictions:
        ``{config: (predicted power W, predicted performance)}`` for
        every machine configuration.  A lazy view over the backing
        arrays when built through :meth:`from_arrays` (the model path);
        any mapping passed directly is accepted and converted to
        backing arrays in its iteration order.
    cpu_sample, gpu_sample:
        The two sample measurements the prediction is anchored to.
    uncertainties:
        Optional ``{config: (power std W, performance std)}`` prediction
        standard deviations (the paper's Section VI confidence idea) —
        consumed by ``Scheduler.select(..., risk_averse=True)``.
    """

    kernel_uid: str
    cluster: int
    predictions: Mapping[Configuration, tuple[float, float]]
    cpu_sample: Measurement
    gpu_sample: Measurement
    uncertainties: Mapping[Configuration, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if not self.predictions:
            raise ValueError("prediction must cover at least one configuration")
        preds = self.predictions
        if isinstance(preds, _ArrayPairView):
            configs, index = preds._configs, preds._index
            power, perf = preds._a, preds._b
        else:
            configs, index, power, perf = _extract_arrays(preds)
        power_std = perf_std = None
        unc = self.uncertainties
        if unc is not None:
            if isinstance(unc, _ArrayPairView) and unc._configs is configs:
                power_std, perf_std = unc._a, unc._b
            elif set(unc) != set(preds):
                raise ValueError("uncertainties must cover the same configurations")
            else:
                power_std = np.empty(len(configs))
                perf_std = np.empty(len(configs))
                for i, cfg in enumerate(configs):
                    power_std[i], perf_std[i] = unc[cfg]
        object.__setattr__(self, "_configs", configs)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_power", power)
        object.__setattr__(self, "_perf", perf)
        object.__setattr__(self, "_power_std", power_std)
        object.__setattr__(self, "_perf_std", perf_std)
        object.__setattr__(self, "_frontier", None)

    @classmethod
    def from_arrays(
        cls,
        *,
        kernel_uid: str,
        cluster: int,
        configs: Sequence[Configuration],
        index: Mapping[Configuration, int],
        power_w: np.ndarray,
        performance: np.ndarray,
        cpu_sample: Measurement,
        gpu_sample: Measurement,
        power_std_w: np.ndarray | None = None,
        performance_std: np.ndarray | None = None,
    ) -> "KernelPrediction":
        """Build a prediction directly from configuration-ordered
        vectors (the model's hot path — no per-config dict is built;
        the mapping API becomes a lazy view)."""
        configs = tuple(configs)
        predictions = _ArrayPairView(configs, index, power_w, performance)
        uncertainties = None
        if power_std_w is not None or performance_std is not None:
            if power_std_w is None or performance_std is None:
                raise ValueError(
                    "power and performance stds must be given together"
                )
            uncertainties = _ArrayPairView(
                configs, index, power_std_w, performance_std
            )
        return cls(
            kernel_uid=kernel_uid,
            cluster=cluster,
            predictions=predictions,
            cpu_sample=cpu_sample,
            gpu_sample=gpu_sample,
            uncertainties=uncertainties,
        )

    # -- array views (the scheduling/frontier hot path) -------------------------

    @property
    def config_tuple(self) -> tuple[Configuration, ...]:
        """Configurations in backing-array order."""
        return self._configs  # type: ignore[attr-defined]

    @property
    def power_array(self) -> np.ndarray:
        """Predicted power (watts) per configuration, in array order."""
        return self._power  # type: ignore[attr-defined]

    @property
    def performance_array(self) -> np.ndarray:
        """Predicted performance per configuration, in array order."""
        return self._perf  # type: ignore[attr-defined]

    @property
    def power_std_array(self) -> np.ndarray | None:
        """Prediction power stds in array order (``None`` without
        ``with_uncertainty``)."""
        return self._power_std  # type: ignore[attr-defined]

    @property
    def performance_std_array(self) -> np.ndarray | None:
        """Prediction performance stds in array order (``None`` without
        ``with_uncertainty``)."""
        return self._perf_std  # type: ignore[attr-defined]

    def config_at(self, i: int) -> Configuration:
        """The configuration at backing-array row ``i``."""
        return self._configs[i]  # type: ignore[attr-defined]

    # -- queries ----------------------------------------------------------------

    def predicted_frontier(self) -> ParetoFrontier:
        """Pareto frontier of the predicted (power, performance) points
        (computed once and cached — predictions are immutable)."""
        if self._frontier is None:  # type: ignore[attr-defined]
            object.__setattr__(
                self,
                "_frontier",
                ParetoFrontier.from_arrays(
                    self._configs, self._power, self._perf  # type: ignore[attr-defined]
                ),
            )
        return self._frontier  # type: ignore[attr-defined]


class OnlinePredictor:
    """Runtime driver of the online stage.

    Runs a kernel's first two iterations on the sample configurations
    (through the profiling library, so the runs land in the measurement
    history), classifies the kernel, and returns the model's
    whole-space prediction.

    Parameters
    ----------
    model:
        A trained :class:`repro.core.model.AdaptiveModel`.
    library:
        The profiling library to execute and record the sample runs.
    retry_limit:
        Graceful-degradation budget: how many times to retry a sample
        run that fails with :class:`repro.faults.SampleRunError` before
        substituting a conservative synthetic anchor.
    """

    def __init__(
        self,
        model: "AdaptiveModel",
        library: ProfilingLibrary,
        *,
        retry_limit: int = DEFAULT_SAMPLE_RETRY_LIMIT,
    ) -> None:
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        self.model = model
        self.library = library
        self.retry_limit = retry_limit

    def predict(self, kernel, *, with_uncertainty: bool = False) -> KernelPrediction:
        """Run the two sample iterations of ``kernel`` and predict power
        and performance for every configuration.

        Degrades gracefully under injected faults: failed sample runs
        are retried up to ``retry_limit`` times and then replaced by a
        conservative synthetic anchor; corrupt readings (dropout/NaN)
        and synthetic anchors are sanitized and classification falls
        back to the model's default cluster (:func:`classifiable_anchors`).
        Without faults this path is byte-identical to the clean protocol.
        """
        cpu_sample, gpu_sample = self.model.config_space.descriptor.sample_configs()
        with trace_span("online/sample"):
            cpu_m = self._sample(kernel, cpu_sample)
            gpu_m = self._sample(kernel, gpu_sample)
        uid = getattr(kernel, "uid", "unknown")
        cpu_m, gpu_m, cluster = classifiable_anchors(
            self.model,
            cpu_m,
            gpu_m,
            kernel_uid=uid,
            event="predictor-corrupt-samples",
        )
        with trace_span("online/predict"):
            return self.model.predict_kernel(
                cpu_m,
                gpu_m,
                kernel_uid=uid,
                with_uncertainty=with_uncertainty,
                cluster=cluster,
            )

    def _sample(self, kernel, config: Configuration) -> Measurement:
        """One sample run, retried on injected failure; falls back to a
        conservative synthetic measurement when the budget runs out."""
        try:
            return self.library.profile(kernel, config).measurement
        except SampleRunError:
            pass
        with trace_span("online/degraded"):
            for _ in range(self.retry_limit):
                _SAMPLE_RETRIES.inc()
                try:
                    return self.library.profile(kernel, config).measurement
                except SampleRunError:
                    continue
            _SAMPLE_FALLBACKS.inc()
            log_event(
                _log,
                logging.WARNING,
                "predictor-sample-failed",
                kernel=getattr(kernel, "uid", "unknown"),
                config=config.label(),
                retries=self.retry_limit,
            )
            return sanitize_measurement(None, config)
