"""Ablation: variance-stabilizing transform (paper Section VI).

"One idea is to apply a variance-stabilizing transformation to model
inputs and outputs during the training phase.  This would give less
weight to both very small and very large fitted model values."

We implement the transform as log-space fitting
(``AdaptiveModel.train(transform="log")``) and compare held-out
prediction error against the paper's baseline linear fit.  The
assertion is deliberately weak — the paper proposes, but never
evaluates, this feature — we only require the transform not to be
catastrophically worse, and we report both numbers.

The timed operation is offline training with the transform enabled.
"""

import numpy as np

from repro.core import AdaptiveModel

from conftest import write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


def test_ablation_variance_stabilizing_transform(
    benchmark, exact_apu, suite, char_store
):
    train = [k for k in suite if k.benchmark != "LU"]
    chars = char_store.characterize(train)
    test = suite.for_benchmark("LU")
    samples = {
        k.uid: (exact_apu.run(k, CPU_SAMPLE), exact_apu.run(k, GPU_SAMPLE))
        for k in test
    }

    model_log = benchmark(
        lambda: AdaptiveModel.train(chars, transform="log")
    )
    model_lin = AdaptiveModel.train(chars, transform="none")

    def errors(model):
        perf_errs, power_errs = [], []
        for k in test:
            cm, gm = samples[k.uid]
            pred = model.predict_kernel(cm, gm)
            for cfg, (pw, pf) in pred.predictions.items():
                tp = exact_apu.true_total_power_w(k, cfg)
                tf = exact_apu.true_performance(k, cfg)
                power_errs.append(abs(pw - tp) / tp)
                perf_errs.append(abs(pf - tf) / tf)
        return float(np.mean(perf_errs)), float(np.mean(power_errs))

    lin_perf, lin_power = errors(model_lin)
    log_perf, log_power = errors(model_log)

    text = (
        "Ablation: variance-stabilizing (log) transform, held-out LU\n"
        f"  linear fit:  perf err {lin_perf:.4f}  power err {lin_power:.4f}\n"
        f"  log fit:     perf err {log_perf:.4f}  power err {log_power:.4f}"
    )
    write_artifact("ablation_vst.txt", text)
    print("\n" + text)

    # Both variants produce usable models (positive, finite predictions
    # with bounded held-out error).
    assert lin_perf < 0.4 and log_perf < 0.4
    assert lin_power < 0.15 and log_power < 0.15
    # The transform changes the fit (it is not a no-op).
    assert abs(log_perf - lin_perf) + abs(log_power - lin_power) > 1e-6
