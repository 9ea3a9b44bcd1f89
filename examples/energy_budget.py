#!/usr/bin/env python
"""Minimize completion time under an ENERGY budget (not a power cap).

The paper's model predicts both power and time for every configuration,
which makes the classic energy-budget problem (Springer et al., the
paper's reference [15]) solvable directly on predictions: choose one
configuration per kernel so a timestep finishes as fast as possible
without exceeding a Joule budget.

This example sweeps the budget from the floor (every kernel at its
most-frugal configuration) upward and prints the predicted-vs-actual
time/energy trade-off curve for one CoMD Small timestep.

Run:  python examples/energy_budget.py
"""

from repro import ProfilingLibrary, TrinityAPU, build_suite, train_model
from repro.runtime import optimize_energy_budget

GROUP = "CoMD Small"


def main() -> None:
    apu = TrinityAPU(seed=0)
    suite = build_suite()
    kernels = suite.for_group(GROUP)
    benchmark = kernels[0].benchmark

    library = ProfilingLibrary(apu, seed=0)
    print(f"Training model without {benchmark} ...")
    model = train_model(library, [k for k in suite if k.benchmark != benchmark])

    predictions = {}
    cpu_sample, gpu_sample = apu.descriptor.sample_configs()
    for k in kernels:
        cm = library.profile(k, cpu_sample).measurement
        gm = library.profile(k, gpu_sample).measurement
        predictions[k.uid] = model.predict_kernel(cm, gm, kernel_uid=k.uid)

    floor = sum(
        min(pw / pf for pw, pf in p.predictions.values())
        for p in predictions.values()
    )
    by_uid = {k.uid: k for k in kernels}

    print(f"\nOne {GROUP} timestep ({len(kernels)} kernels); "
          f"minimum possible energy ~ {floor:.1f} J\n")
    print(f"{'budget':>8} {'pred time':>10} {'pred J':>8} "
          f"{'true time':>10} {'true J':>8} {'devices':>12}")
    for scale in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0):
        budget = floor * scale
        schedule = optimize_energy_budget(predictions, budget)
        true_t = true_e = 0.0
        gpu_count = 0
        for uid, cfg in schedule.assignments.items():
            k = by_uid[uid]
            t = apu.true_time_s(k, cfg)
            true_t += t
            true_e += apu.true_total_power_w(k, cfg) * t
            gpu_count += cfg.is_gpu
        print(
            f"{budget:7.1f}J {schedule.predicted_time_s:9.3f}s "
            f"{schedule.predicted_energy_j:7.1f}J "
            f"{true_t:9.3f}s {true_e:7.1f}J "
            f"{gpu_count:3d} GPU/{len(kernels) - gpu_count} CPU"
        )

    print("\nLoosening the energy budget buys time by moving kernels to "
          "faster (hungrier) configurations; the model's predictions track "
          "ground truth closely enough to spend the budget safely.")


if __name__ == "__main__":
    main()
