"""The scalar ground-truth models each machine carried before its
array ``_physics`` became the only implementation, kept verbatim as the
test oracle.

Every function below is the code that used to live in ``src/``:
Trinity's timing model (``hardware/kernelmodel.py``), its two-plane
power model (``hardware/power.py``), its boost hooks
(``hardware/apu.py``), the big.LITTLE and MPSoC physics hooks
(``hardware/biglittle.py``, ``hardware/mpsoc.py``) and the hybrid
operating point (``hardware/hybrid.py``).  They evaluate one
``(kernel, configuration)`` pair with Python floats.  The array physics
must reproduce them bit for bit: ``tests/test_physics_reference.py``
compares time and both power planes with ``==``.

:func:`reference_truth` maps a live machine onto its reference model.
"""

from __future__ import annotations

from repro.hardware import pstates
from repro.hardware.biglittle import (
    BIG_BW_CONTENTION,
    BIG_IPC,
    LITTLE_BW_CONTENTION,
    LITTLE_IPC,
    BigLittleSoC,
    migration_cost_s,
)
from repro.hardware.config import Configuration, Device
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    amdahl_speedup,
    memory_bandwidth_factor,
)
from repro.hardware.mpsoc import (
    DISPATCH_SCALE,
    FREQ_SCALE,
    POWER_SCALE,
    SERIAL_DVFS,
    SERIAL_IPC,
    SMT_UPLIFT,
    TPUT_BW_CONTENTION,
    TPUT_DVFS,
    MPSoC,
)
from repro.hardware.power import PowerBreakdown, PowerModelConstants

__all__ = [
    "cpu_time_s",
    "gpu_time_s",
    "gpu_busy_fraction",
    "true_time_s",
    "power_w",
    "hybrid_execution",
    "reference_truth",
]


# -- Trinity timing (hardware/kernelmodel.py) --------------------------------


def cpu_time_s(k: KernelCharacteristics, freq_ghz: float, n_threads: int) -> float:
    """Ground-truth CPU execution time of one kernel invocation."""
    s = freq_ghz / pstates.CPU_MAX_FREQ_GHZ
    compute = (1.0 - k.mem_fraction) / (
        amdahl_speedup(n_threads, k.parallel_fraction) * s
    )
    memory = k.mem_fraction / memory_bandwidth_factor(n_threads)
    return k.work_s * (compute + memory)


def gpu_time_s(
    k: KernelCharacteristics, gpu_freq_ghz: float, host_cpu_freq_ghz: float
) -> float:
    """Ground-truth GPU execution time (device time + host launch time)."""
    fg = gpu_freq_ghz / pstates.GPU_MAX_FREQ_GHZ
    device = (k.work_s / k.gpu_affinity) * (
        (1.0 - k.gpu_mem_fraction) / fg + k.gpu_mem_fraction
    )
    launch = k.launch_overhead_s * (
        pstates.CPU_MAX_FREQ_GHZ / host_cpu_freq_ghz
    )
    return device + launch


def gpu_busy_fraction(k: KernelCharacteristics, gpu_freq_ghz: float) -> float:
    """Fraction of GPU device time spent computing (vs memory stalls)."""
    fg = gpu_freq_ghz / pstates.GPU_MAX_FREQ_GHZ
    compute = (1.0 - k.gpu_mem_fraction) / fg
    return compute / (compute + k.gpu_mem_fraction)


def true_time_s(k: KernelCharacteristics, cfg: Configuration) -> float:
    """Ground-truth execution time of ``k`` on configuration ``cfg``."""
    if cfg.device is Device.CPU:
        return cpu_time_s(k, cfg.cpu_freq_ghz, cfg.n_threads)
    return gpu_time_s(k, cfg.gpu_freq_ghz, cfg.cpu_freq_ghz)


# -- Trinity power (hardware/power.py) ----------------------------------------


def _cpu_plane_w(
    k: KernelCharacteristics, cfg: Configuration, c: PowerModelConstants
) -> float:
    v = pstates.cpu_voltage(cfg.cpu_freq_ghz)
    static = c.cpu_static_base + c.cpu_static_v2 * v * v
    if cfg.device is Device.CPU:
        # Vector-dense kernels switch more silicon per cycle.
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)
        n_active = cfg.n_threads
    else:
        act = c.host_activity
        n_active = 1
    dynamic = n_active * c.cpu_dyn_per_core * act * cfg.cpu_freq_ghz * v * v
    return static + dynamic


def _dram_w(
    k: KernelCharacteristics, cfg: Configuration, c: PowerModelConstants
) -> float:
    if cfg.device is Device.CPU:
        # Traffic grows with delivered memory bandwidth, saturating with
        # thread count exactly as the timing model's bw() does.
        traffic = memory_bandwidth_factor(cfg.n_threads) / memory_bandwidth_factor(
            pstates.N_CORES
        )
    else:
        # The GPU's wide SIMD units drive the shared memory controller
        # harder than the CPU cores can.
        traffic = min(c.gpu_traffic_scale, 2.0)
    return c.dram_max_w * k.dram_intensity * traffic


def _gpu_w(
    k: KernelCharacteristics, cfg: Configuration, c: PowerModelConstants
) -> float:
    if cfg.device is Device.CPU:
        return c.gpu_idle_w
    vg = pstates.gpu_voltage(cfg.gpu_freq_ghz)
    static = c.gpu_static_base + c.gpu_static_v2 * vg * vg
    busy = gpu_busy_fraction(k, cfg.gpu_freq_ghz)
    dynamic = c.gpu_dyn * k.gpu_activity * cfg.gpu_freq_ghz * vg * vg * busy
    return static + dynamic


def power_w(
    k: KernelCharacteristics,
    cfg: Configuration,
    constants: PowerModelConstants | None = None,
) -> PowerBreakdown:
    """Ground-truth per-plane average power of ``k`` running on ``cfg``."""
    c = constants if constants is not None else PowerModelConstants()
    cpu_plane = _cpu_plane_w(k, cfg, c)
    nbgpu = c.nb_static + _dram_w(k, cfg, c) + _gpu_w(k, cfg, c)
    return PowerBreakdown(cpu_plane_w=cpu_plane, nbgpu_plane_w=nbgpu)


# -- Trinity hooks with boost (hardware/apu.py) ------------------------------


class TrinityReference:
    """``TrinityAPU``'s former physics hooks over a live machine's
    constants and boost policy."""

    def __init__(self, machine) -> None:
        self.power_constants = machine.power_constants
        self.boost = machine.boost

    def _boost_applies(self, cfg: Configuration) -> bool:
        return (
            self.boost is not None
            and cfg.device is Device.CPU
            and abs(cfg.cpu_freq_ghz - pstates.CPU_MAX_FREQ_GHZ) < 1e-9
        )

    def _boost_outcome(self, chars: KernelCharacteristics, cfg: Configuration):
        base_power = power_w(chars, cfg, self.power_constants).total_w
        # Frequency-sensitive share of runtime at the top P-state.
        compute = (1.0 - chars.mem_fraction) / amdahl_speedup(
            cfg.n_threads, chars.parallel_fraction
        )
        memory = chars.mem_fraction / memory_bandwidth_factor(cfg.n_threads)
        compute_fraction = compute / (compute + memory) if compute + memory else 0.0
        return self.boost.evaluate(base_power, cfg.n_threads, compute_fraction)

    def _model_time_s(self, chars: KernelCharacteristics, cfg: Configuration) -> float:
        t = true_time_s(chars, cfg)
        if self._boost_applies(cfg):
            t *= self._boost_outcome(chars, cfg).time_scale
        return t

    def _model_power(
        self, chars: KernelCharacteristics, cfg: Configuration
    ) -> PowerBreakdown:
        pb = power_w(chars, cfg, self.power_constants)
        if self._boost_applies(cfg):
            delta = self._boost_outcome(chars, cfg).power_delta_w
            pb = PowerBreakdown(
                cpu_plane_w=pb.cpu_plane_w + delta,
                nbgpu_plane_w=pb.nbgpu_plane_w,
            )
        return pb


# -- big.LITTLE hooks (hardware/biglittle.py) --------------------------------


def _bw_factor(n: float, contention: float) -> float:
    """Effective bandwidth scaling of ``n`` cores under a cluster's
    contention coefficient."""
    return n / (1.0 + contention * (n - 1))


class BigLittleReference:
    """``BigLittleSoC``'s former physics hooks over a live machine."""

    def __init__(self, machine) -> None:
        self.descriptor = machine.descriptor
        self.power_constants = machine.power_constants

    def _model_time_s(self, k: KernelCharacteristics, cfg) -> float:
        c = self.power_constants
        if cfg.is_gpu:  # big cluster
            s = cfg.gpu_freq_ghz / self.descriptor.secondary.max_freq_ghz
            n = cfg.n_threads
            compute = (1.0 - k.mem_fraction) / (
                amdahl_speedup(n, k.parallel_fraction) * s * BIG_IPC
            )
            memory = k.mem_fraction / _bw_factor(n, BIG_BW_CONTENTION)
            return k.work_s * (compute + memory) + migration_cost_s(k, c)
        s = cfg.cpu_freq_ghz / self.descriptor.primary.max_freq_ghz
        n = cfg.n_threads
        compute = (1.0 - k.mem_fraction) / (
            amdahl_speedup(n, k.parallel_fraction) * s * LITTLE_IPC
        )
        memory = k.mem_fraction / _bw_factor(n, LITTLE_BW_CONTENTION)
        return k.work_s * (compute + memory)

    def _model_power(self, k: KernelCharacteristics, cfg) -> PowerBreakdown:
        c = self.power_constants
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)
        if cfg.is_gpu:  # big cluster active, LITTLE idling
            f = cfg.gpu_freq_ghz
            v = self.descriptor.secondary.voltage(f)
            n = cfg.n_threads
            big = (
                c.big_static_base_w
                + c.big_static_v2_w * v * v
                + n * c.big_dyn_per_core_w * act * f * v * v
            )
            traffic = _bw_factor(n, BIG_BW_CONTENTION) / _bw_factor(
                self.descriptor.secondary.max_threads, BIG_BW_CONTENTION
            )
            uncore = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic
            return PowerBreakdown(
                cpu_plane_w=c.little_idle_w, nbgpu_plane_w=big + uncore
            )
        f = cfg.cpu_freq_ghz
        v = self.descriptor.primary.voltage(f)
        n = cfg.n_threads
        little = (
            c.little_static_base_w
            + c.little_static_v2_w * v * v
            + n * c.little_dyn_per_core_w * act * f * v * v
        )
        traffic = _bw_factor(n, LITTLE_BW_CONTENTION) / _bw_factor(
            self.descriptor.primary.max_threads, LITTLE_BW_CONTENTION
        )
        uncore = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic
        return PowerBreakdown(
            cpu_plane_w=little, nbgpu_plane_w=c.big_idle_w + uncore
        )


# -- MPSoC hooks (hardware/mpsoc.py) ------------------------------------------


def _tput_bw_factor(m: float) -> float:
    """Effective bandwidth of ``m`` active throughput cores."""
    return m / (1.0 + TPUT_BW_CONTENTION * (m - 1))


class MPSoCReference:
    """``MPSoC``'s former physics hooks over a live machine."""

    def __init__(self, machine) -> None:
        self.descriptor = machine.descriptor
        self.power_constants = machine.power_constants
        self._rel_serial = {
            f: SERIAL_DVFS[i]
            for i, f in enumerate(self.descriptor.primary.freqs_ghz)
        }
        self._rel_tput = {
            f: TPUT_DVFS[i]
            for i, f in enumerate(self.descriptor.secondary.freqs_ghz)
        }

    @staticmethod
    def _serial_time_base(k: KernelCharacteristics, s: float, n: int) -> float:
        smt = 1.0 + SMT_UPLIFT * k.parallel_fraction * (n - 1)
        compute = (1.0 - k.mem_fraction) / (smt * s * SERIAL_IPC)
        return k.work_s * (compute + k.mem_fraction)

    @staticmethod
    def _tput_time_base(k: KernelCharacteristics, g: float, m: int) -> float:
        eff = amdahl_speedup(m, k.parallel_fraction) / amdahl_speedup(
            64, k.parallel_fraction
        )
        traffic = _tput_bw_factor(m) / _tput_bw_factor(64)
        device = (k.work_s / k.gpu_affinity) * (
            (1.0 - k.gpu_mem_fraction) / (g * eff)
            + k.gpu_mem_fraction / traffic
        )
        return device + DISPATCH_SCALE * k.launch_overhead_s

    def _planes_base(
        self, k: KernelCharacteristics, cfg
    ) -> tuple[float, float]:
        """(primary plane, secondary plane) at the 45 nm reference."""
        c = self.power_constants
        if cfg.is_gpu:
            g = self._rel_tput[cfg.gpu_freq_ghz]
            m = cfg.n_threads
            v = 0.42 + 0.58 * g
            tput = (
                c.tput_static_base_w
                + c.tput_static_v2_w * v * v
                + m * c.tput_dyn_per_core_w * k.gpu_activity * g * v * v
            )
            traffic = _tput_bw_factor(m) / _tput_bw_factor(64)
            uncore = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic
            return c.serial_host_w, tput + uncore
        s = self._rel_serial[cfg.cpu_freq_ghz]
        n = cfg.n_threads
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)
        v = 0.55 + 0.45 * s
        serial = (
            c.serial_static_base_w
            + c.serial_static_v2_w * v * v
            + n * c.serial_dyn_per_thread_w * act * s * v * v
        )
        uncore = c.uncore_static_w + c.dram_max_w * k.dram_intensity
        return serial, c.tput_idle_w + uncore

    def _model_time_s(self, k: KernelCharacteristics, cfg) -> float:
        if cfg.is_gpu:
            base = self._tput_time_base(
                k, self._rel_tput[cfg.gpu_freq_ghz], cfg.n_threads
            )
        else:
            base = self._serial_time_base(
                k, self._rel_serial[cfg.cpu_freq_ghz], cfg.n_threads
            )
        return base / FREQ_SCALE[self.power_constants.tech_nm]

    def _model_power(self, k: KernelCharacteristics, cfg) -> PowerBreakdown:
        primary, secondary = self._planes_base(k, cfg)
        scale = POWER_SCALE[self.power_constants.tech_nm]
        return PowerBreakdown(
            cpu_plane_w=primary * scale, nbgpu_plane_w=secondary * scale
        )


def reference_truth(
    machine, k: KernelCharacteristics, cfg
) -> tuple[float, float, float]:
    """``(time_s, primary_w, secondary_w)`` of ``k`` on ``cfg`` under the
    reference model of ``machine``'s class."""
    if isinstance(machine, BigLittleSoC):
        ref = BigLittleReference(machine)
    elif isinstance(machine, MPSoC):
        ref = MPSoCReference(machine)
    else:
        ref = TrinityReference(machine)
    pb = ref._model_power(k, cfg)
    return ref._model_time_s(k, cfg), pb.cpu_plane_w, pb.nbgpu_plane_w


# -- hybrid operating point (hardware/hybrid.py) -----------------------------


def hybrid_execution(
    k: KernelCharacteristics,
    cpu_freq_ghz: float,
    n_threads: int,
    gpu_freq_ghz: float,
    *,
    efficiency: float = 1.0,
    constants: PowerModelConstants | None = None,
) -> tuple[float, float, float]:
    """``(time_s, power_w, cpu_share)`` of one hybrid operating point."""
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    c = constants if constants is not None else PowerModelConstants()

    cpu_cfg = Configuration.cpu(cpu_freq_ghz, n_threads)
    gpu_cfg = Configuration.gpu(gpu_freq_ghz, cpu_freq_ghz)

    t_cpu = cpu_time_s(k, cpu_freq_ghz, n_threads)
    t_gpu = gpu_time_s(k, gpu_freq_ghz, cpu_freq_ghz)

    cpu_share = t_gpu / (t_cpu + t_gpu)
    ideal_time = cpu_share * t_cpu  # == (1 - cpu_share) * t_gpu
    time_s = ideal_time / efficiency

    pb_cpu = power_w(k, cpu_cfg, c)
    pb_gpu = power_w(k, gpu_cfg, c)
    gpu_increment = pb_gpu.nbgpu_plane_w - pb_cpu.nbgpu_plane_w
    total_power = pb_cpu.total_w + max(gpu_increment, 0.0)

    return time_s, total_power, cpu_share
