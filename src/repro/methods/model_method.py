"""The paper's methods: ``Model`` and ``Model+FL``.

* **Model** — the adaptive model alone: two sample iterations, tree
  classification, whole-space prediction, and scheduler selection of
  the best *predicted*-feasible configuration.
* **Model+FL** — the model's selection followed by hardware frequency
  limiting (Section V-A: "the combination of our model with a
  frequency-limiting system").  The model chooses device and thread
  count — the dimensions frequency limiting cannot reach — and the
  limiter then walks frequency down if the measured power still
  violates the cap.  Table III shows this combination dominating the
  trade-off between cap compliance and performance.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import AdaptiveModel
from repro.core.predictor import KernelPrediction, OnlinePredictor
from repro.core.scheduler import Scheduler
from repro.hardware.rapl import FrequencyLimiter
from repro.methods.base import MethodDecision, PowerLimitMethod
from repro.profiling.library import ProfilingLibrary

__all__ = ["ModelMethod", "ModelPlusFL"]


class ModelMethod(PowerLimitMethod):
    """Configuration selection from the adaptive model's predictions.

    Parameters
    ----------
    model:
        A trained :class:`AdaptiveModel` (the kernel under evaluation
        must not have contributed to its training — the harness
        enforces this through leave-one-benchmark-out CV).
    library:
        Profiling library used for the two sample iterations.
    scheduler:
        Selection policy (defaults to maximize-performance, the paper's
        goal).
    """

    name = "Model"

    def __init__(
        self,
        model: AdaptiveModel,
        library: ProfilingLibrary,
        *,
        scheduler: Scheduler | None = None,
    ) -> None:
        self.predictor = OnlinePredictor(model, library)
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self._predictions: dict[str, KernelPrediction] = {}

    def prepare(self, kernel) -> None:
        """Run the kernel's two sample iterations and cache the
        whole-space prediction (once per kernel, reused for every cap)."""
        uid = kernel.uid
        if uid not in self._predictions:
            self._predictions[uid] = self.predictor.predict(kernel)

    def prediction_for(self, kernel) -> KernelPrediction:
        """The kernel's cached whole-space prediction."""
        self.prepare(kernel)
        return self._predictions[kernel.uid]

    def decide_many(self, kernel, power_caps_w) -> list[MethodDecision]:
        """Whole cap sweep answered through the shared batched decision
        kernel (:func:`repro.server.engine.decide_batch`) — the same
        path the decision server takes, so harness and server decisions
        cannot drift."""
        from repro.server.engine import decide_batch

        prediction = self.prediction_for(kernel)
        caps = np.asarray(power_caps_w, dtype=np.float64)
        batch = decide_batch(
            self.scheduler,
            {kernel.uid: prediction},
            [kernel.uid] * caps.size,
            caps,
        )
        return [
            MethodDecision(config=config, online_runs=2)
            for config in batch.configs()
        ]


class ModelPlusFL(PowerLimitMethod):
    """Model selection refined by RAPL-style frequency limiting."""

    name = "Model+FL"

    def __init__(
        self,
        model: AdaptiveModel,
        library: ProfilingLibrary,
        *,
        scheduler: Scheduler | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        self._model_method = ModelMethod(model, library, scheduler=scheduler)
        self.limiter = FrequencyLimiter(library.apu)
        self._rng = np.random.default_rng(seed)

    def prepare(self, kernel) -> None:
        """Run/caches the underlying model method's sample iterations."""
        self._model_method.prepare(kernel)

    def decide_many(self, kernel, power_caps_w) -> list[MethodDecision]:
        """Batched model selection, then one limiter pass over the whole
        sweep (the limiter is a measurement feedback loop: caps are
        walked in order, so its noise stream is unchanged)."""
        picks = self._model_method.decide_many(kernel, power_caps_w)
        starts = [pick.config for pick in picks]
        sweep = self.limiter.limit_many(kernel, starts, power_caps_w, rng=self._rng)
        return [MethodDecision(cfg, 2 + runs) for cfg, runs in sweep]
