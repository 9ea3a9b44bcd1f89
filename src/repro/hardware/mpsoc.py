"""Simulated technology-node-scaled MPSoC (lumos-style).

Models the machine class of the lumos dark/dim-silicon studies (see
SNIPPETS.md): one fast serial core plus a sea of small *throughput*
cores that can be run "dim" — many cores at low frequency and
near-threshold voltage — with the whole design transplantable across
technology nodes via per-node voltage/frequency/power scaling factors.

Mapping onto the reproduction's two-block machine shape
(:mod:`repro.hardware.backend`):

* **primary block** — the serial core: an out-of-order core with a
  6-point DVFS ladder and 2-way SMT;
* **secondary block** — the throughput-core array: 8-64 active small
  cores on a 4-point DVFS ladder whose lowest states sit near the
  threshold voltage (dim silicon).

Technology scaling follows the lumos idiom: the machine is calibrated
at a 45 nm reference; a target node scales every frequency by
``FREQ_SCALE[node]`` and every power plane by ``POWER_SCALE[node]``
(the combined dynamic-capacitance and supply-voltage shrink, with
``VDD_SCALE`` recording the voltage component).  Because both scalings
are *uniform* over the configuration space, a kernel's
Pareto-dominance ordering is preserved across nodes exactly — the
property suite pins this.

DVFS points are expressed *relative* to each block's nominal state and
must sit inside the lumos-style bounds ``[v_th / (VDD * vdd_scale),
DVFS_UPPER_BOUND]`` at every supported node; the constructor enforces
this, so near-threshold states are reachable but never below
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.backend import (
    AnalyticalBackend,
    BackendDescriptor,
    BlockDescriptor,
    register_backend,
    register_descriptor,
)
from repro.hardware.kernelmodel import amdahl_speedup, memory_bandwidth_factor
from repro.hardware.noise import NoiseModel

__all__ = [
    "MPSoCConstants",
    "MPSoC",
    "MPSOC_DESCRIPTOR",
    "TECH_NODES_NM",
    "FREQ_SCALE",
    "VDD_SCALE",
    "POWER_SCALE",
    "dvfs_bounds",
    "mpsoc_descriptor",
]

#: Supported technology nodes (nm), newest last.
TECH_NODES_NM: tuple[int, ...] = (45, 32, 22, 16)

#: Per-node nominal frequency scaling (45 nm = 1.0).
FREQ_SCALE: dict[int, float] = {45: 1.0, 32: 1.33, 22: 1.77, 16: 2.22}

#: Per-node nominal supply-voltage scaling.
VDD_SCALE: dict[int, float] = {45: 1.0, 32: 0.93, 22: 0.88, 16: 0.84}

#: Per-node power scaling of one core at nominal VF (capacitance shrink
#: x vdd^2; conservative-roadmap flavored).
POWER_SCALE: dict[int, float] = {45: 1.0, 32: 0.72, 22: 0.52, 16: 0.39}

#: Nominal supply voltage (V) at the 45 nm reference.
VDD_NOMINAL_V: float = 1.0

#: Threshold voltage (V) — the floor below which dim states may not go.
V_THRESHOLD: float = 0.22

#: Upper relative DVFS bound (overdrive ceiling).
DVFS_UPPER_BOUND: float = 1.25

#: Relative DVFS ladders (fraction of the block's nominal frequency).
SERIAL_DVFS: tuple[float, ...] = (0.5, 0.65, 0.8, 0.9, 1.0, 1.1)
TPUT_DVFS: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)

#: Nominal block frequencies (GHz) at the 45 nm reference.
SERIAL_F0_GHZ: float = 2.0
TPUT_F0_GHZ: float = 1.0

#: Relative IPC of the serial core and of one throughput core.
SERIAL_IPC: float = 1.3
#: SMT uplift per extra serial hardware thread (scaled by the kernel's
#: parallel fraction).
SMT_UPLIFT: float = 0.35
#: Throughput-array bandwidth contention per active core.
TPUT_BW_CONTENTION: float = 0.02
#: Fraction of a kernel's launch/setup cost paid to dispatch work onto
#: the throughput array.
DISPATCH_SCALE: float = 0.6


def dvfs_bounds(tech_nm: int) -> tuple[float, float]:
    """The lumos-style relative DVFS window at a node:
    ``(v_th / vdd(node), DVFS_UPPER_BOUND)``."""
    return (V_THRESHOLD / (VDD_NOMINAL_V * VDD_SCALE[tech_nm]), DVFS_UPPER_BOUND)


@dataclass(frozen=True)
class MPSoCConstants:
    """Calibration constants of the MPSoC machine model.

    ``tech_nm`` is part of the record, so machines at different nodes
    key disjoint ground-truth caches automatically.
    """

    tech_nm: int = 22
    serial_static_base_w: float = 0.9
    serial_static_v2_w: float = 1.6
    serial_dyn_per_thread_w: float = 3.2
    serial_host_w: float = 0.7
    tput_static_base_w: float = 0.6
    tput_static_v2_w: float = 1.1
    tput_dyn_per_core_w: float = 0.13
    tput_idle_w: float = 0.5
    uncore_static_w: float = 1.1
    dram_max_w: float = 3.2

    def __post_init__(self) -> None:
        if self.tech_nm not in TECH_NODES_NM:
            raise ValueError(
                f"unsupported node {self.tech_nm} nm; "
                f"supported: {TECH_NODES_NM}"
            )


def _ladder_ghz(rel: tuple[float, ...], f0: float, tech_nm: int) -> tuple[float, ...]:
    """Absolute GHz ladder of a block at a node."""
    lo, hi = dvfs_bounds(tech_nm)
    for r in rel:
        if not lo <= r <= hi:
            raise ValueError(
                f"relative DVFS point {r} outside node-{tech_nm} bounds "
                f"[{lo:.3f}, {hi}]"
            )
    scale = FREQ_SCALE[tech_nm]
    return tuple(r * f0 * scale for r in rel)


def mpsoc_descriptor(tech_nm: int = 22) -> BackendDescriptor:
    """Descriptor of the MPSoC at one technology node.

    The voltage curves are expressed in *relative* volts (fraction of
    the node's nominal VDD as an affine function of the relative DVFS
    point); the throughput curve's low intercept is the dim-silicon
    near-threshold regime.
    """
    scale = FREQ_SCALE[tech_nm]
    # v = v0 + v1 * f_ghz must reproduce v_rel = a + b * f_rel with
    # f_ghz = f_rel * f0 * scale, so fold the frequency scaling into v1.
    return BackendDescriptor(
        name="mpsoc" if tech_nm == 22 else f"mpsoc{tech_nm}",
        primary=BlockDescriptor(
            label="serial",
            freqs_ghz=_ladder_ghz(SERIAL_DVFS, SERIAL_F0_GHZ, tech_nm),
            thread_counts=(1, 2),
            v0=0.55,
            v1=0.45 / (SERIAL_F0_GHZ * scale),
        ),
        secondary=BlockDescriptor(
            label="tput",
            freqs_ghz=_ladder_ghz(TPUT_DVFS, TPUT_F0_GHZ, tech_nm),
            thread_counts=(8, 16, 32, 64),
            v0=0.42,
            v1=0.58 / (TPUT_F0_GHZ * scale),
        ),
    )


# Every node's descriptor is built once, so configurations of equal
# nodes compare and hash identically across machine instances, and is
# resolvable from its configurations' ``arch`` ("mpsoc45", ...) without
# a backend name of its own.
_NODE_DESCRIPTORS: dict[int, BackendDescriptor] = {
    nm: mpsoc_descriptor(nm) for nm in TECH_NODES_NM
}
for _node_descriptor in _NODE_DESCRIPTORS.values():
    register_descriptor(_node_descriptor)

#: The default machine's descriptor (22 nm, registered as ``"mpsoc"``).
MPSOC_DESCRIPTOR = _NODE_DESCRIPTORS[22]


def _relative_dvfs(
    block: BlockDescriptor, rel: tuple[float, ...], freqs_ghz: np.ndarray
) -> np.ndarray:
    """The relative DVFS point of each frequency, looked up exactly on
    the block's ladder; an off-ladder frequency raises."""
    ladder = np.array(block.freqs_ghz)
    i = np.minimum(np.searchsorted(ladder, freqs_ghz), len(ladder) - 1)
    if not np.array_equal(ladder[i], freqs_ghz):
        off = sorted(set(np.asarray(freqs_ghz)[ladder[i] != freqs_ghz].tolist()))
        raise ValueError(
            f"{off} GHz not on the {block.label} ladder {block.freqs_ghz}"
        )
    return np.array(rel)[i]


class MPSoC(AnalyticalBackend):
    """The simulated technology-node-scaled MPSoC (registered as
    ``"mpsoc"`` at its default 22 nm node).

    The analytical model is evaluated at the 45 nm reference in
    *relative* DVFS coordinates (recovered from the ladder index, so
    base values are bit-identical across nodes) and then scaled
    uniformly: time by ``1 / FREQ_SCALE[node]``, both power planes by
    ``POWER_SCALE[node]``.
    """

    name = "mpsoc"

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        constants: MPSoCConstants | None = None,
        tech_nm: int | None = None,
        seed: int = 0,
    ) -> None:
        if constants is None:
            constants = MPSoCConstants(
                tech_nm=tech_nm if tech_nm is not None else 22
            )
        elif tech_nm is not None and tech_nm != constants.tech_nm:
            raise ValueError("tech_nm conflicts with constants.tech_nm")
        super().__init__(
            _NODE_DESCRIPTORS[constants.tech_nm], constants, noise=noise, seed=seed
        )

    def _physics(self, k, is_gpu, cpu_freq_ghz, n_threads, gpu_freq_ghz):
        c = self.power_constants
        d = self.descriptor
        s = _relative_dvfs(d.primary, SERIAL_DVFS, cpu_freq_ghz)
        g = _relative_dvfs(d.secondary, TPUT_DVFS, gpu_freq_ghz)
        n = n_threads

        # Serial core (primary block); the throughput array idles.
        smt = 1.0 + SMT_UPLIFT * k.parallel_fraction * (n - 1)
        compute = (1.0 - k.mem_fraction) / (smt * s * SERIAL_IPC)
        t_serial = k.work_s * (compute + k.mem_fraction)
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)
        v_s = 0.55 + 0.45 * s
        serial = (
            c.serial_static_base_w
            + c.serial_static_v2_w * v_s * v_s
            + n * c.serial_dyn_per_thread_w * act * s * v_s * v_s
        )
        uncore_s = c.uncore_static_w + c.dram_max_w * k.dram_intensity

        # Throughput array (secondary block), its parallel efficiency and
        # bandwidth normalized to the full 64 cores (so a full array at
        # nominal frequency matches the kernel's throughput affinity);
        # the serial core hosts.
        eff = amdahl_speedup(n, k.parallel_fraction) / amdahl_speedup(
            64, k.parallel_fraction
        )
        traffic = memory_bandwidth_factor(
            n, TPUT_BW_CONTENTION
        ) / memory_bandwidth_factor(64, TPUT_BW_CONTENTION)
        device = (k.work_s / k.gpu_affinity) * (
            (1.0 - k.gpu_mem_fraction) / (g * eff) + k.gpu_mem_fraction / traffic
        )
        t_tput = device + DISPATCH_SCALE * k.launch_overhead_s
        v_t = 0.42 + 0.58 * g
        tput = (
            c.tput_static_base_w
            + c.tput_static_v2_w * v_t * v_t
            + n * c.tput_dyn_per_core_w * k.gpu_activity * g * v_t * v_t
        )
        uncore_t = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic

        # Uniform node scaling of the 45 nm reference.
        power_scale = POWER_SCALE[c.tech_nm]
        return (
            np.where(is_gpu, t_tput, t_serial) / FREQ_SCALE[c.tech_nm],
            np.where(is_gpu, c.serial_host_w, serial) * power_scale,
            np.where(is_gpu, tput + uncore_t, c.tput_idle_w + uncore_s) * power_scale,
        )


register_backend(
    "mpsoc",
    lambda *, seed=0, noise=None: MPSoC(seed=seed, noise=noise),
    MPSOC_DESCRIPTOR,
)
