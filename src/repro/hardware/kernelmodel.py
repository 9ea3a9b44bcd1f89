"""Latent kernel characteristics and the ground-truth timing model.

The real paper measured OpenMP/OpenCL kernels on silicon.  Our substitute
(see DESIGN.md Section 2) gives every kernel a vector of *latent*
characteristics — quantities a kernel objectively has but that the
modeling pipeline is never shown directly — and derives execution time on
any configuration analytically from them:

CPU time (Amdahl × roofline decomposition)::

    t_cpu(f, n) = work * [ (1 - beta) / (amdahl(n) * s(f))  +  beta / bw(n) ]

    amdahl(n) = 1 / ((1 - p) + p / n)           thread-scaling of compute
    s(f)      = f / f_max                       frequency-scaling of compute
    bw(n)     = n / (1 + c * (n - 1))           saturating memory bandwidth

where ``beta`` is the memory-bound fraction: memory time does not scale
with CPU frequency (the classic reason DVFS is cheap for memory-bound
codes) and saturates with thread count.

GPU time (offload + host-side launch overhead)::

    t_gpu(fg, fc) = (work / g) * [ (1 - beta_g) * (fg_max / fg) + beta_g ]
                    + launch_s * (f_max / fc)

``g`` is the kernel's GPU affinity — its GPU speedup over the
single-thread max-frequency CPU execution; ``beta_g`` is the GPU
memory-bound fraction, which flattens the benefit of higher GPU P-states
(Table I shows a kernel that gains nothing from the top GPU P-state);
``launch_s`` is driver/launch overhead executed on the *host* CPU, which
is why GPU-device frontier configurations differ in CPU frequency.

:func:`repro.hardware.apu.trinity_physics` evaluates this model over
configuration arrays.  The two scaling helpers below work elementwise
and are shared by every machine's physics.

All characteristic values live in documented ranges validated at
construction, so workload generators cannot silently produce
out-of-model kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "KernelCharacteristics",
    "amdahl_speedup",
    "memory_bandwidth_factor",
]

#: Memory-bandwidth contention coefficient: bw(4) ~ 2.29x one thread.
BW_CONTENTION: float = 0.25


@dataclass(frozen=True)
class KernelCharacteristics:
    """Latent, ground-truth properties of one computational kernel.

    Attributes
    ----------
    work_s:
        Execution time (seconds) of the kernel on the reference CPU
        configuration: one thread at maximum frequency with no memory
        stalls; all other times are derived from it.
    parallel_fraction:
        Amdahl parallel fraction ``p`` of the compute part, in
        ``[0, 1]``.
    mem_fraction:
        CPU memory-bound fraction ``beta`` in ``[0, 1)``: share of
        single-thread runtime stalled on memory at max frequency.
    gpu_affinity:
        GPU speedup ``g`` over the reference CPU execution (``> 0``).
        Values below ~1 mean the kernel is a poor GPU fit.
    gpu_mem_fraction:
        GPU memory-bound fraction ``beta_g`` in ``[0, 1)``; high values
        flatten GPU P-state scaling.
    launch_overhead_s:
        Host-side kernel-launch/driver time per invocation at maximum
        host CPU frequency (scales inversely with host frequency).
    activity:
        Switching-activity factor scaling dynamic power (dimensionless,
        ``(0, 2]``); compute-dense kernels burn more power per cycle.
    gpu_activity:
        GPU switching-activity factor (same convention).
    vector_fraction:
        Fraction of instructions that are vector ops, in ``[0, 1]``
        (feeds counters and CPU activity).
    branch_rate:
        Conditional branches per instruction, in ``[0, 0.5]``.
    l1_miss_rate:
        L1D misses per instruction, in ``[0, 0.2]``.
    l2_miss_ratio:
        Fraction of L1 misses that also miss L2, in ``[0, 1]``.
    tlb_miss_rate:
        TLB misses per instruction, in ``[0, 0.02]``.
    dram_intensity:
        DRAM accesses per unit work (dimensionless, ``[0, 1]``); drives
        northbridge power.
    """

    work_s: float
    parallel_fraction: float
    mem_fraction: float
    gpu_affinity: float
    gpu_mem_fraction: float
    launch_overhead_s: float
    activity: float
    gpu_activity: float
    vector_fraction: float
    branch_rate: float
    l1_miss_rate: float
    l2_miss_ratio: float
    tlb_miss_rate: float
    dram_intensity: float

    _RANGES = {
        "work_s": (1e-6, 1e3),
        "parallel_fraction": (0.0, 1.0),
        "mem_fraction": (0.0, 0.999),
        "gpu_affinity": (1e-3, 100.0),
        "gpu_mem_fraction": (0.0, 0.999),
        "launch_overhead_s": (0.0, 10.0),
        "activity": (0.05, 2.0),
        "gpu_activity": (0.05, 2.0),
        "vector_fraction": (0.0, 1.0),
        "branch_rate": (0.0, 0.5),
        "l1_miss_rate": (0.0, 0.2),
        "l2_miss_ratio": (0.0, 1.0),
        "tlb_miss_rate": (0.0, 0.02),
        "dram_intensity": (0.0, 1.0),
    }

    def __post_init__(self) -> None:
        values = []
        for f in fields(self):
            lo, hi = self._RANGES[f.name]
            v = getattr(self, f.name)
            if not lo <= v <= hi:
                raise ValueError(
                    f"{f.name}={v} outside valid range [{lo}, {hi}]"
                )
            values.append(v)
        # Characteristics key the machine's ground-truth memo caches,
        # hit once per simulated measurement; the generated dataclass
        # hash would rebuild this 14-tuple on every lookup.
        object.__setattr__(self, "_hash", hash(tuple(values)))

    def __hash__(self) -> int:
        return self._hash

    # Keep the cached hash out of pickles (derived state; payloads stay
    # byte-identical to pre-cache pickles) and rebuild it on load.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state: dict) -> None:
        for k, v in state.items():
            object.__setattr__(self, k, v)
        object.__setattr__(
            self,
            "_hash",
            hash(tuple(getattr(self, f.name) for f in fields(self))),
        )


def _require_units(n_threads) -> None:
    # Scalars are compared in Python: the counter synthesis calls the
    # helpers once per profiled run, where a numpy reduction would cost
    # more than the formula.
    if isinstance(n_threads, np.ndarray):
        bad = bool((n_threads < 1).any())
    else:
        bad = n_threads < 1
    if bad:
        raise ValueError("n_threads must be >= 1")


def amdahl_speedup(n_threads, parallel_fraction: float):
    """Amdahl's-law speedup of the compute part at ``n_threads``
    (elementwise over an array of thread counts)."""
    _require_units(n_threads)
    return 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / n_threads)


def memory_bandwidth_factor(n_threads, contention: float = BW_CONTENTION):
    """Effective memory bandwidth relative to one thread (elementwise
    over an array of thread counts).

    Saturating: ``bw(n) = n / (1 + c (n-1))`` with contention ``c`` —
    additional threads help until the shared memory controller saturates
    (the CPU and GPU share it on Trinity).  Each machine passes its own
    block's coefficient.
    """
    _require_units(n_threads)
    return n_threads / (1.0 + contention * (n_threads - 1))
