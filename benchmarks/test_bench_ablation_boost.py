"""Ablation: opportunistic overclocking (paper Section VI).

"Few hardware features are exposed that directly affect power
consumption, but one that we did not yet include in our machine
configuration space is opportunistic overclocking.  This feature allows
the CPU to increase its frequency beyond user-selectable levels, but
only when there is enough thermal headroom; if the chip is too hot,
such frequency boosting will not engage."

This ablation enables the boost capability on the simulated machine and
measures, across the suite:

* how many kernels boost at all (thermal gating must bite — hot kernels
  get nothing);
* the CPU top-P-state speedup distribution;
* the effect on the CPU-vs-GPU crossover: boost narrows — but must not
  erase — the GPU's advantage on GPU-friendly kernels.

The timed operation is a boosted ground-truth sweep of one kernel.
"""

import numpy as np

from repro.hardware import BoostPolicy, Configuration, NoiseModel, TrinityAPU
from repro.hardware.kernelmodel import amdahl_speedup, memory_bandwidth_factor

from conftest import write_artifact

TOP = Configuration.cpu(3.7, 4)


def _boost_outcome(policy, exact_apu, kernel):
    """The policy's outcome at TOP, from the unboosted truth and the
    kernel's frequency-sensitive runtime share."""
    c = kernel.characteristics
    compute = (1.0 - c.mem_fraction) / amdahl_speedup(4, c.parallel_fraction)
    memory = c.mem_fraction / memory_bandwidth_factor(4)
    return policy.evaluate(
        exact_apu.true_total_power_w(kernel, TOP), 4, compute / (compute + memory)
    )


def test_ablation_opportunistic_boost(benchmark, exact_apu, suite):
    boosted = TrinityAPU(noise=NoiseModel.exact(), seed=0, boost=BoostPolicy())

    kernel0 = suite.get("LULESH/Large/CalcFBHourglassForce")
    benchmark(
        lambda: [boosted.true_time_s(kernel0, c) for c in boosted.config_space]
    )

    speedups, duties, power_deltas = [], [], []
    for k in suite:
        t_base = exact_apu.true_time_s(k, TOP)
        t_boost = boosted.true_time_s(k, TOP)
        speedups.append(t_base / t_boost)
        out = _boost_outcome(boosted.boost, exact_apu, k)
        duties.append(out.duty_cycle)
        power_deltas.append(
            boosted.true_total_power_w(k, TOP) - exact_apu.true_total_power_w(k, TOP)
        )

    speedups = np.array(speedups)
    duties = np.array(duties)
    n_boosting = int(np.sum(duties > 0.01))
    n_gated = int(np.sum(duties < 0.01))
    n_partial = int(np.sum((duties > 0.01) & (duties < 0.99)))

    text = "\n".join(
        [
            "Ablation: opportunistic overclocking at CPU 3.7GHz x4",
            f"  kernels boosting:      {n_boosting}/{len(suite)}",
            f"  thermally gated (off): {n_gated}/{len(suite)}",
            f"  partial duty cycle:    {n_partial}/{len(suite)}",
            f"  speedup: mean {speedups.mean():.3f}, max {speedups.max():.3f}",
            f"  extra power: mean {np.mean(power_deltas):.2f} W, "
            f"max {np.max(power_deltas):.2f} W",
        ]
    )
    write_artifact("ablation_boost.txt", text)
    print("\n" + text)

    # Thermal gating bites: some kernels boost, some cannot.
    assert n_boosting > 0
    assert n_gated > 0
    # Boost never slows a kernel and never exceeds the hardware ratio.
    assert np.all(speedups >= 1.0 - 1e-12)
    assert np.all(speedups <= 4.2 / 3.7 + 1e-9)
    # Boost costs power exactly when it engages.
    for duty, delta in zip(duties, power_deltas):
        if duty > 0.01:
            assert delta > 0
        else:
            assert delta == 0

    # The GPU still wins on a strongly GPU-friendly kernel even with
    # CPU boost enabled (boost narrows, not erases, the gap).
    k = suite.get("LULESH/Large/CalcFBHourglassForce")
    gpu_best = min(
        boosted.true_time_s(k, c)
        for c in boosted.config_space.gpu_configs()
    )
    assert boosted.true_time_s(k, TOP) > gpu_best
