"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
program with timing wrappers while it is installed, and restores the
originals on :meth:`LayerTracer.uninstall`.  Nothing is added inside the
program's sources.  A wrapper's *self time* is its call's duration minus
the time spent in wrapped calls nested inside it (per thread), so the
self times of all layers plus the unwrapped remainder add up to the
traced wall time.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: (layer, module, owner, attribute).  ``owner`` is a class name in the
#: module, or ``None`` for a module-level function.  A function imported
#: by name into another module is listed once per namespace that calls
#: it.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("hardware.run", "repro.hardware.apu", "TrinityAPU", "run"),
    ("hardware.run", "repro.hardware.backend", "AnalyticalBackend", "run"),
    ("hardware.limiter", "repro.hardware.rapl", "FrequencyLimiter", "limit"),
    ("hardware.limiter", "repro.hardware.rapl", "FrequencyLimiter", "limit_gpu_with_headroom"),
    ("hardware.limiter", "repro.hardware.rapl", "FrequencyLimiter", "limit_cpu_all_cores"),
    ("profiling.profile", "repro.profiling.library", "ProfilingLibrary", "profile"),
    ("profiling.sampler", "repro.profiling.sampler", "PowerSampler", "sample"),
    ("profiling.store", "repro.profiling.store", "CharacterizationStore", "characterize"),
    ("profiling.dissimilarity", "repro.profiling.store", "CharacterizationStore", "dissimilarity_submatrix"),
    ("core.train", "repro.core.model", "AdaptiveModel", "train"),
    ("core.cluster", "repro.core.model", None, "cluster_kernels"),
    ("core.cluster", "repro.evaluation.loocv", None, "cluster_kernels"),
    ("core.regression", "repro.core.model", None, "fit_cluster_models"),
    ("core.classifier", "repro.core.classifier", "ClusterClassifier", "fit"),
    ("core.predict", "repro.core.predictor", "OnlinePredictor", "predict"),
    ("core.sweep_table", "repro.core.scheduler", "Scheduler", "sweep_table"),
    ("methods.model", "repro.methods.model_method", "ModelMethod", "decide_many"),
    ("methods.model_fl", "repro.methods.model_method", "ModelPlusFL", "decide_many"),
    ("methods.cpu_fl", "repro.methods.freq_limit", "CpuFrequencyLimiting", "decide_many"),
    ("methods.gpu_fl", "repro.methods.freq_limit", "GpuFrequencyLimiting", "decide_many"),
    ("methods.oracle", "repro.methods.oracle", "Oracle", "decide_many"),
    ("evaluation.evaluate_suite", "repro.evaluation.loocv", None, "evaluate_suite"),
    ("evaluation.loocv", "repro.evaluation.loocv", None, "run_loocv"),
    ("server.engine", "repro.server.engine", None, "decide_batch"),
    ("server.engine", "repro.server.service", None, "decide_batch"),
    ("server.service", "repro.server.service", "DecisionService", "decide_batch"),
    ("server.warm", "repro.server.service", "DecisionService", "warm"),
    ("search.evaluate", "repro.search.space", "GeneratedConfigSpace", "evaluate"),
    ("search.archive", "repro.search.archive", "EpsilonArchive", "insert"),
    ("search.nsga2", "repro.search.engine", None, "nsga2_search"),
    ("cluster.pool_build", "repro.cluster.pool", "FrontierPool", "from_frontiers"),
    ("cluster.pool_build", "repro.search.adapters", None, "pool_from_archives"),
    ("cluster.view", "repro.cluster.pool", "FrontierPool", "view"),
    ("cluster.allocate", "repro.cluster.allocation", None, "allocate_pool"),
    ("cluster.allocate", "repro.cluster.tree", None, "allocate_pool"),
    ("cluster.tree", "repro.cluster.tree", "BudgetTree", "allocate"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


class _ThreadStats:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, child_seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # (layer, enclosing layer) -> calls; "" = called from outside.
        self.calls_in: dict[tuple[str, str], int] = defaultdict(int)
        self.last_s: dict[str, float] = {}
        self.last_self_s: dict[str, float] = {}


class LayerTracer:
    """Install timing wrappers around :data:`TARGETS`."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._all: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._tls, "stats", None)
        if stats is None:
            stats = _ThreadStats()
            self._tls.stats = stats
            with self._lock:
                self._all.append(stats)
        return stats

    def _wrap(self, layer: str, fn):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stats()
            stack = st.stack
            frame = [layer, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                st.self_s[layer] += elapsed - frame[1]
                st.last_self_s[layer] = elapsed - frame[1]
                st.calls[layer] += 1
                st.calls_in[(layer, parent)] += 1
                st.last_s[layer] = elapsed
                if stack:
                    stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        for layer, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, raw.__func__))
            else:
                new = self._wrap(layer, raw)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches = []

    def last_s(self, layer: str) -> float:
        """Duration of this thread's most recent call into ``layer``."""
        return self._stats().last_s.get(layer, 0.0)

    def last_self_s(self, layer: str) -> float:
        """Self time of this thread's most recent call into ``layer``."""
        return self._stats().last_self_s.get(layer, 0.0)

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[tuple[str, str], int]]:
        """Self seconds, calls, and calls by enclosing layer, summed
        over every thread."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        calls_in: dict[tuple[str, str], int] = defaultdict(int)
        with self._lock:
            for st in self._all:
                for k, v in st.self_s.items():
                    self_s[k] += v
                for k, v in st.calls.items():
                    calls[k] += v
                for k, v in st.calls_in.items():
                    calls_in[k] += v
        return self_s, calls, calls_in
