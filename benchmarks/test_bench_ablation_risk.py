"""Ablation: variance-aware (risk-averse) selection (paper Section VI).

"Taking variance into account when predicting best configurations could
also improve model accuracy when applied to new applications.  If the
confidence interval for a prediction is large, it may be wise to choose
another configuration with smaller confidence interval and lower
expected performance."

We run the Model method's cap sweep over held-out LU kernels three
ways — plain, fixed 5% risk margin, and confidence-bound risk-averse
(z=2) — and report cap violations and mean under-limit performance for
each.  Risk-aware variants must not violate more often than plain
selection.

The timed operation is one risk-averse selection.
"""

import numpy as np

from repro.core import (
    Scheduler,
)
from repro.methods import Oracle

from conftest import train_from_store, write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


def test_ablation_risk_aware_selection(benchmark, exact_apu, suite, char_store):
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_from_store(char_store, train)
    oracle = Oracle(exact_apu)
    sched = Scheduler()
    test = suite.for_benchmark("LU")

    preds = {}
    for k in test:
        cm = exact_apu.run(k, CPU_SAMPLE)
        gm = exact_apu.run(k, GPU_SAMPLE)
        preds[k.uid] = model.predict_kernel(cm, gm, with_uncertainty=True)

    k0 = test[0]
    benchmark(
        sched.select, preds[k0.uid], 20.0, risk_averse=True, confidence_z=2.0
    )

    def sweep(**kw):
        violations, perf_ratios = 0, []
        total = 0
        for k in test:
            for cap in oracle.caps_for(k):
                total += 1
                cfg = sched.select(preds[k.uid], cap, **kw).config
                true_p = exact_apu.true_total_power_w(k, cfg)
                o_cfg = oracle.decide(k, cap).config
                if true_p > cap * (1 + 1e-9):
                    violations += 1
                else:
                    perf_ratios.append(
                        exact_apu.true_performance(k, cfg)
                        / exact_apu.true_performance(k, o_cfg)
                    )
        return violations, total, float(np.mean(perf_ratios))

    plain = sweep()
    margin = sweep(risk_margin=0.05)
    averse = sweep(risk_averse=True, confidence_z=2.0)

    def fmt(name, r):
        v, t, p = r
        return f"  {name:<22} violations {v}/{t}  under-limit perf {p:.3f}"

    text = "\n".join(
        [
            "Ablation: risk-aware selection on held-out LU",
            fmt("plain", plain),
            fmt("risk margin 5%", margin),
            fmt("risk-averse (z=2)", averse),
        ]
    )
    write_artifact("ablation_risk.txt", text)
    print("\n" + text)

    # Risk-aware variants never violate more than plain selection.
    assert margin[0] <= plain[0]
    assert averse[0] <= plain[0]
    # And they pay at most a modest performance price.
    assert margin[2] > plain[2] - 0.15
    assert averse[2] > plain[2] - 0.15
