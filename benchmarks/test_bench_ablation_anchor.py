"""Ablation: the sample-power anchor in the power regression.

The paper's power model is ``P_power = b0 + b1 x1 + ... + bn xn`` over
configuration variables.  Our implementation additionally feeds the
kernel's measured sample-configuration power (information the two
sample iterations already provide) into the regression, plus its
first-order interactions — see ``repro.core.regression``.  This
ablation quantifies that choice: without the anchor, one cluster-level
power model must serve kernels whose absolute power differs by tens of
watts (the paper reports a 19-55 W spread), and held-out power error
grows accordingly.

The timed operation is offline training without the anchor.
"""

import numpy as np

from repro.core import AdaptiveModel

from conftest import write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


def test_ablation_power_anchor(benchmark, exact_apu, suite, char_store):
    train = [k for k in suite if k.benchmark != "SMC"]
    chars = char_store.characterize(train)
    test = suite.for_benchmark("SMC")
    samples = {
        k.uid: (exact_apu.run(k, CPU_SAMPLE), exact_apu.run(k, GPU_SAMPLE))
        for k in test
    }

    dissim = char_store.dissimilarity_submatrix(train)
    model_plain = benchmark(
        lambda: AdaptiveModel.train(chars, power_anchor=False, dissimilarity=dissim)
    )
    model_anchored = AdaptiveModel.train(chars, power_anchor=True, dissimilarity=dissim)

    def power_error(model):
        errs = []
        for k in test:
            cm, gm = samples[k.uid]
            pred = model.predict_kernel(cm, gm)
            for cfg, (pw, _) in pred.predictions.items():
                tp = exact_apu.true_total_power_w(k, cfg)
                errs.append(abs(pw - tp) / tp)
        return float(np.mean(errs))

    err_plain = power_error(model_plain)
    err_anchored = power_error(model_anchored)

    text = (
        "Ablation: sample-power anchor in the power regression "
        "(held-out SMC)\n"
        f"  without anchor (paper-literal): power err {err_plain:.4f}\n"
        f"  with anchor (+interactions):    power err {err_anchored:.4f}\n"
        f"  improvement: {err_plain / max(err_anchored, 1e-9):.1f}x"
    )
    write_artifact("ablation_anchor.txt", text)
    print("\n" + text)

    # The anchor must help substantially on a power-diverse benchmark.
    assert err_anchored < err_plain
    assert err_anchored < 0.10
    # And the paper-literal variant still produces a sane model.
    assert err_plain < 0.60
