"""Performance-counter synthesis.

The paper collects, per kernel execution (Section III-B): L2 and L1 data
cache misses, TLB misses, conditional branches, vector instructions,
stalled core cycles, total core cycles, reference cycles, idle FPU
cycles, interrupts, and DRAM accesses — all *normalized* to cycles,
reference cycles, or instructions.  Those normalized counters (plus the
two power-domain readings) are the only features its classification tree
may use to assign an unseen kernel to a cluster.

On our simulated machine, counters are derived from the same latent
:class:`~repro.hardware.kernelmodel.KernelCharacteristics` that drive the
timing and power models, with configuration-dependent effects (cache
sharing raises L2 misses with thread count; stall fraction follows the
memory-boundedness and bandwidth contention of the timing model).  This
preserves the causal structure the tree exploits on real hardware:
counters correlate with — but do not reveal — the kernel's
power/performance scaling behaviour.

The synthesized values are deterministic; measurement noise is applied by
the profiling layer, not here.
"""

from __future__ import annotations

from repro.hardware.config import Device
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    memory_bandwidth_factor,
)

__all__ = ["COUNTER_NAMES", "synthesize_counters"]

#: Names of the normalized counter metrics reported per execution.
COUNTER_NAMES: tuple[str, ...] = (
    "l1_miss_per_inst",
    "l2_miss_per_inst",
    "tlb_miss_per_inst",
    "branch_per_inst",
    "vector_per_inst",
    "stall_frac",
    "idle_fpu_frac",
    "dram_per_cycle",
    "ipc",
    "interrupts_per_mcycle",
)


def synthesize_counters(k: KernelCharacteristics, cfg) -> dict[str, float]:
    """Ground-truth normalized counter metrics for ``k`` on ``cfg``.

    Returns a dict keyed by :data:`COUNTER_NAMES`.  All values are
    normalized rates (per instruction, per cycle, or fractions), like the
    paper's normalization of raw counts.

    The synthesis is descriptor-parametrized: frequency and thread count
    normalize to the primary block's ladder maxima (Trinity's 3.7 GHz
    and four cores).
    """
    primary = cfg.descriptor.primary
    max_freq_ghz = primary.max_freq_ghz
    max_units = primary.max_threads
    if cfg.device is Device.CPU:
        n = cfg.n_threads
        # Shared L2 within a PileDriver module: co-resident threads evict
        # each other, raising L2 (and downstream) miss rates.
        sharing = 1.0 + 0.15 * (n - 1)
        l1 = k.l1_miss_rate * sharing
        l2 = l1 * k.l2_miss_ratio * sharing
        # Stall fraction mirrors the timing model's memory share at this
        # thread count and frequency.
        s = cfg.cpu_freq_ghz / max_freq_ghz
        mem_time = k.mem_fraction / memory_bandwidth_factor(n)
        comp_time = (1.0 - k.mem_fraction) / s
        stall = mem_time / (mem_time + comp_time)
        ipc = (1.0 - stall) * (1.0 + 1.5 * k.vector_fraction)
        dram_per_cycle = (
            k.dram_intensity
            * memory_bandwidth_factor(n)
            / memory_bandwidth_factor(max_units)
            / s
        )
    else:
        # Host-side counters while the GPU executes: the driver thread is
        # branchy, scalar, and cache-light; DRAM traffic reflects the
        # GPU's appetite on the shared controller.
        l1 = 0.2 * k.l1_miss_rate
        l2 = l1 * 0.5 * k.l2_miss_ratio
        stall = 0.8 * k.gpu_mem_fraction
        ipc = 0.4
        dram_per_cycle = 1.5 * k.dram_intensity
    return {
        "l1_miss_per_inst": l1,
        "l2_miss_per_inst": l2,
        "tlb_miss_per_inst": k.tlb_miss_rate,
        "branch_per_inst": k.branch_rate
        if cfg.device is Device.CPU
        else min(0.5, k.branch_rate + 0.1),
        "vector_per_inst": k.vector_fraction if cfg.device is Device.CPU else 0.02,
        "stall_frac": stall,
        "idle_fpu_frac": 1.0 - k.vector_fraction * (0.9 if not cfg.is_gpu else 0.05),
        "dram_per_cycle": dram_per_cycle,
        "ipc": ipc,
        "interrupts_per_mcycle": 0.5 if cfg.device is Device.CPU else 2.0,
    }
