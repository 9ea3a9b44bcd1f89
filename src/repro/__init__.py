"""repro — reproduction of Bailey et al., "Adaptive Configuration
Selection for Power-Constrained Heterogeneous Systems" (ICPP 2014).

A production-quality Python library implementing the paper's adaptive
power/performance model and every substrate it depends on:

* :mod:`repro.hardware` — a simulated AMD Trinity APU (timing, two-plane
  power, counters, RAPL-style frequency limiting);
* :mod:`repro.workloads` — the 36-kernel / 65-combination synthetic
  benchmark suite (LULESH, CoMD, SMC, LU);
* :mod:`repro.profiling` — 1 kHz power sampling and the instrumented
  profiling library;
* :mod:`repro.stats` — from-scratch OLS, Kendall tau, relational
  clustering (PAM / average linkage), and a CART classification tree;
* :mod:`repro.core` — the paper's contribution: frontier derivation,
  kernel clustering, per-cluster regression, tree-based cluster
  assignment, online two-iteration prediction, and power-cap
  scheduling;
* :mod:`repro.methods` — the compared power-limiting strategies (Model,
  Model+FL, CPU+FL, GPU+FL, and the oracle);
* :mod:`repro.evaluation` — the paper's experimental harness
  (leave-one-benchmark-out cross-validation, under/over-limit metrics,
  and renderers for every table and figure);
* :mod:`repro.telemetry` — pipeline observability: metrics registry,
  hierarchical span tracing, structured logging, and the
  ``telemetry.json`` report (see ``docs/OBSERVABILITY.md``).

Quickstart::

    from repro import (
        TrinityAPU, ProfilingLibrary, build_suite, train_model,
        OnlinePredictor, Scheduler,
    )

    apu = TrinityAPU(seed=0)
    library = ProfilingLibrary(apu, seed=0)
    suite = build_suite()

    train = [k for k in suite if k.benchmark != "LU"]
    model = train_model(library, train)

    new_kernel = suite.get("LU/Small/LUDecomposition")
    prediction = OnlinePredictor(model, library).predict(new_kernel)
    decision = Scheduler().select(prediction, power_cap_w=20.0)
    print(decision.config.label())
"""

from repro.core import (
    AdaptiveModel,
    KernelCharacterization,
    KernelPrediction,
    OnlinePredictor,
    ParetoFrontier,
    Scheduler,
    SchedulerDecision,
    characterize_kernels,
    train_model,
)
from repro.hardware import (
    Configuration,
    Device,
    FrequencyLimiter,
    KernelCharacteristics,
    Measurement,
    NoiseModel,
    TrinityAPU,
)
from repro.profiling import ProfileDatabase, ProfilingLibrary
from repro.workloads import Kernel, Suite, build_suite

__version__ = "1.0.0"

__all__ = [
    "AdaptiveModel",
    "Configuration",
    "Device",
    "FrequencyLimiter",
    "Kernel",
    "KernelCharacteristics",
    "KernelCharacterization",
    "KernelPrediction",
    "Measurement",
    "NoiseModel",
    "OnlinePredictor",
    "ParetoFrontier",
    "ProfileDatabase",
    "ProfilingLibrary",
    "Scheduler",
    "SchedulerDecision",
    "Suite",
    "TrinityAPU",
    "build_suite",
    "characterize_kernels",
    "train_model",
    "__version__",
]
