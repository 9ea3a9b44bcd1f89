"""Idealized hybrid (CPU+GPU simultaneous) execution model.

The paper deliberately excludes hybrid codes from its configuration
space and gives an argument (Section III-A): load imbalance and extra
parallel overhead often make hybrid execution slower in practice, and
even when it helps, "it will strictly lower power-efficiency compared
to the best single device ... In the best possible case, hybrid
execution will increase performance by a factor of two over the best
single device, but will increase power consumption at least as much."

This module models hybrid execution *optimistically* so the paper's
argument can be tested quantitatively (see
``benchmarks/test_bench_hybrid_analysis.py``):

* work splits between the devices in the ratio of their throughputs
  (perfect load balance — the best case the paper concedes);
* an optional efficiency factor models the realistic overheads
  (synchronization, input splitting, output merging) the paper cites;
* power is the sum of both devices' active draws, minus the
  double-counted shared components (northbridge static, DRAM — charged
  once at the higher of the two rates).

If even this optimistic model is Pareto-dominated under power caps, the
paper's exclusion is justified a fortiori.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import respects_cap
from repro.hardware import pstates
from repro.hardware.apu import trinity_physics
from repro.hardware.config import Configuration
from repro.hardware.kernelmodel import KernelCharacteristics
from repro.hardware.power import PowerModelConstants
from repro.telemetry import counter, gauge

__all__ = [
    "HybridPoint",
    "hybrid_execution",
    "enumerate_hybrid_points",
    "best_hybrid_under_cap",
]

# Process-wide hybrid-enumeration memo.  The 72-point cross product is a
# pure function of (characteristics, efficiency, power constants), and
# the hybrid-analysis benchmark plus the search-validation reruns
# re-enumerate identical tables constantly — same memo family as the
# truth-table caches of PR 2 (see docs/OBSERVABILITY.md).
_POINTS_CACHE: dict[tuple, tuple[HybridPoint, ...]] = {}
_HP_HITS = counter("cache.hybrid_points.hits")
_HP_MISSES = counter("cache.hybrid_points.misses")
_HP_SIZE = gauge("cache.hybrid_points.size")


@dataclass(frozen=True)
class HybridPoint:
    """One hybrid operating point.

    Attributes
    ----------
    cpu_config, gpu_config:
        The single-device configurations combined (the CPU side runs
        the CPU portion; the GPU side runs the GPU portion with its
        host thread on the same P-state as the CPU side).
    time_s:
        Hybrid execution time under the model.
    power_w:
        Hybrid average power.
    cpu_share:
        Fraction of the work assigned to the CPU.
    """

    cpu_config: Configuration
    gpu_config: Configuration
    time_s: float
    power_w: float
    cpu_share: float

    @property
    def performance(self) -> float:
        """Throughput of the hybrid point (invocations per second)."""
        return 1.0 / self.time_s


def hybrid_execution(
    k: KernelCharacteristics,
    cpu_freq_ghz: float,
    n_threads: int,
    gpu_freq_ghz: float,
    *,
    efficiency: float = 1.0,
    constants: PowerModelConstants | None = None,
) -> HybridPoint:
    """Evaluate one hybrid operating point for kernel ``k``.

    Parameters
    ----------
    cpu_freq_ghz, n_threads:
        The CPU side's P-state and thread count.  One of the threads
        doubles as the GPU's host thread.
    gpu_freq_ghz:
        The GPU side's P-state.
    efficiency:
        Fraction of the ideal overlap actually achieved (1.0 = the
        paper's conceded best case; realistic hybrid runtimes land well
        below).
    """
    (point,) = _hybrid_points(
        k, [(cpu_freq_ghz, n_threads, gpu_freq_ghz)], efficiency, constants
    )
    return point


def _hybrid_points(
    k: KernelCharacteristics,
    triples: list[tuple[float, int, float]],
    efficiency: float,
    constants: PowerModelConstants | None,
) -> list[HybridPoint]:
    """Hybrid points of ``(cpu_freq_ghz, n_threads, gpu_freq_ghz)``
    triples, from one :func:`~repro.hardware.apu.trinity_physics` call
    over each triple's CPU and GPU configuration."""
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    c = constants if constants is not None else PowerModelConstants()
    configs = [Configuration.cpu(f, n) for f, n, _ in triples] + [
        Configuration.gpu(g, f) for f, _, g in triples
    ]
    t, cpu_w, nbgpu_w = (
        column.tolist()
        for column in trinity_physics(
            k,
            c,
            np.array([cfg.is_gpu for cfg in configs]),
            np.array([cfg.cpu_freq_ghz for cfg in configs]),
            np.array([float(cfg.n_threads) for cfg in configs]),
            np.array([cfg.gpu_freq_ghz for cfg in configs]),
        )
    )
    m = len(triples)
    points = []
    for i in range(m):
        j = m + i
        # Perfect load balance: split so both sides finish together.
        # share/t_cpu' = (1-share)/t_gpu'  ->  share = t_gpu / (t_cpu + t_gpu)
        # (t_x is the full-work time on device x; a fraction s of the
        # work takes s * t_x).
        cpu_share = t[j] / (t[i] + t[j])
        ideal_time = cpu_share * t[i]  # == (1 - cpu_share) * t_gpu
        # Power: both devices active simultaneously.  Shared NB/DRAM/
        # static components must not be double counted: take the
        # CPU-side report and add only the GPU side's *GPU-specific*
        # increment (its NB+GPU plane minus the idle-GPU NB+GPU plane
        # the CPU side already pays).
        gpu_increment = nbgpu_w[j] - nbgpu_w[i]
        points.append(
            HybridPoint(
                cpu_config=configs[i],
                gpu_config=configs[j],
                time_s=ideal_time / efficiency,
                power_w=(cpu_w[i] + nbgpu_w[i]) + max(gpu_increment, 0.0),
                cpu_share=cpu_share,
            )
        )
    return points


def enumerate_hybrid_points(
    k: KernelCharacteristics,
    *,
    efficiency: float = 1.0,
    constants: PowerModelConstants | None = None,
) -> list[HybridPoint]:
    """Every hybrid operating point for kernel ``k`` (the full CPU
    frequency x thread count x GPU frequency cross product).

    The set is independent of any power cap, so callers comparing one
    kernel against many caps should enumerate once and reuse (see
    :func:`best_hybrid_under_cap`'s ``points`` parameter).

    Memoized process-wide: the enumeration is pure in ``(k, efficiency,
    constants)`` and every :class:`HybridPoint` is frozen, so cache
    entries are shared safely; each call returns a fresh list over the
    shared points (``cache.hybrid_points.*`` counters account for it).
    """
    c = constants if constants is not None else PowerModelConstants()
    key = (k, efficiency, c)
    points = _POINTS_CACHE.get(key)
    if points is None:
        _HP_MISSES.inc()
        points = tuple(
            _hybrid_points(
                k,
                [
                    (f, n, g)
                    for f in pstates.CPU_FREQS_GHZ
                    for n in range(1, pstates.N_CORES + 1)
                    for g in pstates.GPU_FREQS_GHZ
                ],
                efficiency,
                c,
            )
        )
        _POINTS_CACHE[key] = points
        _HP_SIZE.set(len(_POINTS_CACHE))
    else:
        _HP_HITS.inc()
    return list(points)


def best_hybrid_under_cap(
    k: KernelCharacteristics,
    power_cap_w: float,
    *,
    efficiency: float = 1.0,
    constants: PowerModelConstants | None = None,
    points: list[HybridPoint] | None = None,
) -> HybridPoint | None:
    """The best hybrid operating point whose power respects the cap, or
    ``None`` when no hybrid point fits (hybrid runs both devices, so its
    power floor is high).

    ``points`` short-circuits the sweep with a precomputed enumeration
    (from :func:`enumerate_hybrid_points` with the same kernel,
    efficiency, and constants).
    """
    if points is None:
        points = enumerate_hybrid_points(
            k, efficiency=efficiency, constants=constants
        )
    best: HybridPoint | None = None
    for point in points:
        if not respects_cap(point.power_w, power_cap_w):
            continue
        if best is None or point.performance > best.performance:
            best = point
    return best
