"""Application-level experiment: whole-program adaptation under caps.

The paper evaluates per-kernel decisions; its profiling library is
explicitly "a foundation for dynamic scheduling" (Section III-D).  This
benchmark runs that foundation end to end: 10 timesteps of CoMD Small
under a mid-run cap drop (28 W -> 16 W), comparing the adaptive runtime
against static-configuration baselines and the oracle.

Shape assertions:

* the adaptive runtime completes within 25% of oracle wall time;
* it beats the low-power static CPU baseline on time and the high-power
  static baseline on cap compliance (the static max-power run violates
  essentially always once the cap drops);
* after the cap drops, the adaptive runtime's scheduled kernels move off
  the GPU (the device whose power floor exceeds the new cap).

The timed operation is one adaptive timestep (all kernels, scheduled
phase).
"""

from repro.hardware import Device
from repro.hardware.backend import TRINITY_DESCRIPTOR
from repro.profiling import ProfilingLibrary
from repro.runtime import AdaptiveRuntime, Application, OracleRuntime, StaticRuntime

from conftest import train_from_store, write_artifact

TIMESTEPS = 10


def _caps(t: int) -> float:
    return 28.0 if t < TIMESTEPS // 2 else 16.0


def test_application_level_adaptation(benchmark, exact_apu, suite, char_store):
    app = Application.from_suite(suite, "CoMD Small")
    model = train_from_store(
        char_store, [k for k in suite if k.benchmark != "CoMD"]
    )

    adaptive_rt = AdaptiveRuntime(model, ProfilingLibrary(exact_apu, seed=1))
    adaptive = adaptive_rt.run(app, TIMESTEPS, _caps)
    static_hot = StaticRuntime(
        ProfilingLibrary(exact_apu, seed=2),
        TRINITY_DESCRIPTOR.config(Device.CPU, 3.7, 4, 0.311),
    ).run(app, TIMESTEPS, _caps)
    static_cold = StaticRuntime(
        ProfilingLibrary(exact_apu, seed=3),
        TRINITY_DESCRIPTOR.config(Device.CPU, 1.4, 4, 0.311),
    ).run(app, TIMESTEPS, _caps)
    oracle = OracleRuntime(ProfilingLibrary(exact_apu, seed=4)).run(
        app, TIMESTEPS, _caps
    )

    # Timed: one steady-state adaptive timestep (predictions all cached).
    benchmark(
        lambda: [adaptive_rt._invoke(k, TIMESTEPS, 16.0) for k in app.kernels]
    )

    lines = ["Application runtime: CoMD Small, cap 28W -> 16W"]
    for name, tr in (
        ("adaptive", adaptive),
        ("static 3.7x4", static_hot),
        ("static 1.4x4", static_cold),
        ("oracle", oracle),
    ):
        lines.append(
            f"  {name:<13} time {tr.total_time_s:7.2f}s  "
            f"energy {tr.total_energy_j:6.0f}J  "
            f"over-cap {100 * tr.violation_rate:5.1f}%"
        )
    text = "\n".join(lines)
    write_artifact("application_runtime.txt", text)
    print("\n" + text)

    # Near-oracle wall time.
    assert adaptive.total_time_s <= oracle.total_time_s * 1.25
    # Faster than the cap-safe static baseline.
    assert adaptive.total_time_s < static_cold.total_time_s
    # Far better compliance than the max-power static baseline.
    assert adaptive.violation_rate < static_hot.violation_rate - 0.3

    # Scheduled kernels abandon the GPU once the cap drops below its floor.
    low_cap_scheduled = [
        e
        for e in adaptive.executions
        if e.phase == "scheduled" and e.power_cap_w == 16.0
    ]
    assert low_cap_scheduled
    assert all(not e.config.is_gpu for e in low_cap_scheduled)
