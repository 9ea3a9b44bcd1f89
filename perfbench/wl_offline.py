"""``offline``: bringing up new machines.

Each repetition draws a fresh seed and runs the offline stage --
``CharacterizationStore.characterize``, ``dissimilarity_submatrix`` and
``AdaptiveModel.train`` -- once on each of the three backends.  The
profiling sampler and the hardware models do most of the work; there is
no limiter, server or evaluation.  Every store starts empty, so this
fills the profiling caches that ``loocv`` only reads.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

import expected
from calib import Series

BACKENDS = ("trinity", "biglittle", "mpsoc")
#: Rounds whose models are compared with committed predictions; a
#: 15-second run makes four to six.  Later rounds, on a faster machine,
#: are checked only for finite predictions.
CHECKED_ROUNDS = 6


def setup(seed: int) -> dict:
    from repro.core.model import AdaptiveModel  # noqa: F401 - part of the import cost
    from repro.hardware.backend import create_backend
    from repro.profiling.store import CharacterizationStore  # noqa: F401
    from repro.workloads import build_suite

    kernels = list(build_suite())
    for name in BACKENDS:
        create_backend(name, seed=seed)
    return {"kernels": kernels}


def _bring_up(name: str, kernels, rep_seed: int):
    from repro.core.model import AdaptiveModel
    from repro.hardware.backend import create_backend
    from repro.profiling.store import CharacterizationStore

    apu = create_backend(name, seed=rep_seed)
    store = CharacterizationStore(apu, seed=rep_seed)
    chars = store.characterize(kernels)
    dissimilarity = store.dissimilarity_submatrix(kernels)
    return AdaptiveModel.train(chars, dissimilarity=dissimilarity, config_space=apu.config_space)


def _prediction_digest(name: str, model, kernel, rep_seed: int) -> str | None:
    """Digest of the model's power and performance predictions for
    ``kernel``; ``None`` unless both are finite for every configuration."""
    from repro.core.predictor import OnlinePredictor
    from repro.hardware.backend import create_backend
    from repro.profiling.library import ProfilingLibrary

    apu = create_backend(name, seed=rep_seed)
    prediction = OnlinePredictor(model, ProfilingLibrary(apu, seed=rep_seed)).predict(kernel)
    power = np.asarray(prediction.power_array, dtype=np.float64)
    perf = np.asarray(prediction.performance_array, dtype=np.float64)
    if len(power) != len(apu.config_space) or not (np.all(np.isfinite(power)) and np.all(np.isfinite(perf))):
        return None
    return hashlib.sha256(power.tobytes() + perf.tobytes()).hexdigest()[:16]


def _round_seed(seed: int, round_: int) -> int:
    return seed * 1000 + round_


def reference(seed: int) -> dict:
    """This seed's committed outputs (see ``expected.py``): the
    prediction digest of every model of the first ``CHECKED_ROUNDS``."""
    kernels = setup(seed)["kernels"]
    digests = {}
    for round_ in range(CHECKED_ROUNDS):
        rep_seed = _round_seed(seed, round_)
        probe = kernels[rep_seed % len(kernels)]
        for name in BACKENDS:
            model = _bring_up(name, kernels, rep_seed)
            digests[f"{round_}/{name}"] = _prediction_digest(name, model, probe, rep_seed)
    return {"predictions": digests}


def run(state: dict, ctx) -> None:
    # Each backend's bring-up is timed on its own (about 1 s) so that its
    # calibration brackets it closely; a round is the sum of the three
    # per-backend medians.
    kernels = state["kernels"]
    ref = expected.lookup("offline", ctx.seed)
    if ref is None:
        ctx.note(f"no committed model predictions for seed {ctx.seed}")
    committed = ref["predictions"] if ref else {}
    plain = {name: Series() for name in BACKENDS}
    traced = {name: Series() for name in BACKENDS}
    end = ctx.deadline()
    rounds = 0
    while time.perf_counter() < end or rounds < 3:
        round_ = rounds
        rounds += 1
        rep_seed = _round_seed(ctx.seed, round_)
        use_trace = ctx.tracing and round_ % 2 == 1
        probe = kernels[rep_seed % len(kernels)]
        for name in BACKENDS:
            series = traced[name] if use_trace else plain[name]
            model = ctx.guarded(
                lambda: ctx.timed(lambda: _bring_up(name, kernels, rep_seed), series, traced=use_trace),
                f"{name} bring-up",
            )
            if model is None:
                continue
            digest = _prediction_digest(name, model, probe, rep_seed)
            if ctx.check(digest is not None, f"{name} model predicts non-finite values (seed {rep_seed})"):
                want = committed.get(f"{round_}/{name}", digest)
                ctx.check(digest == want, f"{name} model predictions differ from the committed ones (seed {rep_seed})")

    per_round = len(kernels) * len(BACKENDS)
    round_s = sum(plain[name].median() for name in BACKENDS)
    round_raw = sum(plain[name].raw_median() for name in BACKENDS)
    n = min(plain[name].n for name in BACKENDS)
    ctx.row("offline_s", round_s, "s", n, round_raw)
    for name in BACKENDS:
        ctx.row(f"offline_{name}_s", plain[name].median(), "s", plain[name].n, plain[name].raw_median())
    ctx.e2e["op_ms"] = 1e3 * round_s
    ctx.e2e["rate_per_s"] = per_round / round_s
    ctx.row("characterizations_per_s", ctx.e2e["rate_per_s"], "1/s", n, per_round / round_raw)
    if ctx.tracing:
        ratio = statistics.median(traced[name].median() / plain[name].median() for name in BACKENDS)
        ctx.layer_values["telemetry.trace_overhead_pct"] = 100.0 * (ratio - 1.0)
