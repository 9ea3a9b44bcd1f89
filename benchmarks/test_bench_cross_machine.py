"""Cross-machine transfer: why the offline stage is per-machine.

Paper Section III: "the offline stage is conducted only once to
characterize a new system" — i.e., models are machine-specific.  This
experiment quantifies that: a model trained on the paper's Trinity
calibration is applied, unmodified, to a different part (the ``leaky``
preset: high static power), and compared with a model retrained on that
machine.

Shape assertions:

* native models achieve high cap compliance on their own machines;
* the transplanted model's power predictions degrade by a large factor
  (it learned the wrong machine's power surface);
* retraining on the new machine restores accuracy — the offline stage,
  run once per machine, is necessary and sufficient.

The timed operation is retraining on the new machine.
"""

import numpy as np

from repro.core import train_model
from repro.hardware.presets import leaky_apu, trinity
from repro.profiling import ProfilingLibrary

from conftest import write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


def _power_mape(model, apu, kernels):
    errs = []
    for k in kernels:
        cm = apu.run(k, CPU_SAMPLE)
        gm = apu.run(k, GPU_SAMPLE)
        pred = model.predict_kernel(cm, gm, kernel_uid=k.uid)
        for cfg, (pw, _) in pred.predictions.items():
            tp = apu.true_total_power_w(k, cfg)
            errs.append(abs(pw - tp) / tp)
    return float(np.mean(errs))


def test_cross_machine_transfer(benchmark, suite):
    machine_a = trinity(seed=0)
    machine_b = leaky_apu(seed=0)
    train = [k for k in suite if k.benchmark != "LU"]
    test = suite.for_benchmark("LU")

    model_a = train_model(ProfilingLibrary(machine_a, seed=0), train)
    model_b = benchmark.pedantic(
        train_model,
        args=(ProfilingLibrary(machine_b, seed=1), train),
        rounds=1,
        iterations=1,
    )

    native_a = _power_mape(model_a, machine_a, test)
    native_b = _power_mape(model_b, machine_b, test)
    transplanted = _power_mape(model_a, machine_b, test)

    text = "\n".join(
        [
            "Cross-machine transfer (power MAPE on held-out LU)",
            f"  trinity model on trinity:   {100 * native_a:5.1f}%",
            f"  leaky model on leaky:       {100 * native_b:5.1f}%",
            f"  trinity model on leaky:     {100 * transplanted:5.1f}%  "
            f"(transplanted, no retraining)",
        ]
    )
    write_artifact("cross_machine.txt", text)
    print("\n" + text)

    # Native models are accurate on their own machines.
    assert native_a < 0.08
    assert native_b < 0.08
    # The transplant degrades noticeably; retraining recovers it.
    assert transplanted > native_b * 1.5
    assert transplanted > 0.05