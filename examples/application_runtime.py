#!/usr/bin/env python
"""Run a whole application under a changing power cap (Section III-D).

Executes 12 timesteps of CoMD Small through three runtimes — the
adaptive model runtime, a static all-cores CPU baseline, and the
oracle — while a cluster power manager tightens the node's cap halfway
through the run (28 W -> 16 W).  The adaptive runtime spends its first
two invocations per kernel on the sample configurations (ordinary
application work), then schedules every kernel from its cached
predicted frontier; the mid-run cap change costs one frontier lookup
per kernel.

Run:  python examples/application_runtime.py
"""

from repro import Device, ProfilingLibrary, TrinityAPU, build_suite, train_model
from repro.runtime import AdaptiveRuntime, Application, OracleRuntime, StaticRuntime

GROUP = "CoMD Small"
TIMESTEPS = 12


def cap_schedule(timestep: int) -> float:
    """The power manager halves the node budget mid-run."""
    return 28.0 if timestep < TIMESTEPS // 2 else 16.0


def main() -> None:
    apu = TrinityAPU(seed=0)
    suite = build_suite()
    app = Application.from_suite(suite, GROUP)

    # Honest model: CoMD never seen during training.
    library = ProfilingLibrary(apu, seed=0)
    train = [k for k in suite if k.benchmark != "CoMD"]
    print(f"Training model without CoMD ({len(train)} kernels) ...")
    model = train_model(library, train)

    d = apu.descriptor

    def cpu_at(freq_ghz: float):
        """All four cores at one P-state, the GPU idling."""
        return d.config(Device.CPU, freq_ghz, 4, d.secondary.min_freq_ghz)

    runs = {
        "Adaptive (model)": AdaptiveRuntime(
            model, ProfilingLibrary(apu, seed=1)
        ).run(app, TIMESTEPS, cap_schedule),
        "Static CPU 3.7x4": StaticRuntime(
            ProfilingLibrary(apu, seed=2), cpu_at(3.7)
        ).run(app, TIMESTEPS, cap_schedule),
        "Static CPU 1.4x4": StaticRuntime(
            ProfilingLibrary(apu, seed=3), cpu_at(1.4)
        ).run(app, TIMESTEPS, cap_schedule),
        "Oracle": OracleRuntime(ProfilingLibrary(apu, seed=4)).run(
            app, TIMESTEPS, cap_schedule
        ),
    }

    print(f"\n{GROUP}, {TIMESTEPS} timesteps, cap 28 W then 16 W:\n")
    oracle_time = runs["Oracle"].total_time_s
    header = (f"{'runtime':<18} {'time':>8} {'energy':>9} {'avg W':>7} "
              f"{'% over cap':>11} {'vs oracle':>10}")
    print(header)
    for name, trace in runs.items():
        print(
            f"{name:<18} {trace.total_time_s:7.2f}s "
            f"{trace.total_energy_j:8.0f}J {trace.mean_power_w:6.1f}W "
            f"{100 * trace.violation_rate:10.1f}% "
            f"{oracle_time / trace.total_time_s:9.2f}x"
        )

    adaptive = runs["Adaptive (model)"]
    print("\nAdaptive runtime device choices per cap phase:")
    for phase_name, caps in (("28 W phase", 28.0), ("16 W phase", 16.0)):
        scheduled = [
            e for e in adaptive.executions
            if e.phase == "scheduled" and e.power_cap_w == caps
        ]
        devices = {}
        for e in scheduled:
            devices[e.config.device.value] = devices.get(e.config.device.value, 0) + 1
        print(f"  {phase_name}: {devices}")


if __name__ == "__main__":
    main()
