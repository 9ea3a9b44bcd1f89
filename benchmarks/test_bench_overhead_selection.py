"""Online-overhead benchmark (paper Sections II and IV-C).

The paper claims its system "requires less than one millisecond to make
each configuration selection", with online overheads limited to tree
classification (time proportional to tree depth) and model application
(one matrix-vector product per configuration).  This benchmark times the
complete online decision — tree classification + whole-space prediction
+ scheduler selection — from already-measured sample runs, and asserts
the sub-millisecond claim holds for our implementation too.
"""

from repro.core import Scheduler

from conftest import train_from_store, write_artifact
from repro.hardware.backend import TRINITY_DESCRIPTOR

CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()


def test_online_selection_under_one_millisecond(
    benchmark, exact_apu, suite, char_store
):
    train = [k for k in suite if k.benchmark != "LU"]
    model = train_from_store(char_store, train)
    scheduler = Scheduler()

    kernel = suite.get("LU/Small/LUDecomposition")
    cpu_m = exact_apu.run(kernel, CPU_SAMPLE)
    gpu_m = exact_apu.run(kernel, GPU_SAMPLE)

    def online_decision():
        prediction = model.predict_kernel(cpu_m, gpu_m, kernel_uid=kernel.uid)
        return scheduler.select(prediction, power_cap_w=20.0)

    decision = benchmark(online_decision)
    assert decision.config in exact_apu.config_space

    mean_s = benchmark.stats.stats.mean
    write_artifact(
        "overhead_selection.txt",
        f"Online selection (classify + predict 42 configs + schedule): "
        f"{mean_s * 1e3:.3f} ms mean\nPaper claim: < 1 ms per selection",
    )
    assert mean_s < 1e-3, f"selection took {mean_s * 1e3:.2f} ms (claim: < 1 ms)"
