"""The hardware-backend interface and registry.

The paper's method is machine-agnostic: nothing in the clustering,
regression, classification, or scheduling layers depends on *which*
machine produced the measurements — only on the protocol every machine
satisfies (an enumerable configuration space split into two device
blocks, ground-truth time/power per configuration, and noisy measured
``run``\\ s).  :class:`HardwareBackend` captures that protocol, and the
paper's Trinity APU is one of several registered backends rather than
the hard-coded machine.

Four ingredients live here:

* :class:`HardwareBackend` — the abstract machine interface every
  backend implements (ground truth, measured runs, fault attach,
  vectorized batch evaluation);
* :class:`AnalyticalBackend` — its one implementation: memoized
  ground truth, the noisy measurement path and the limiter's
  ``observe``, so a machine is a descriptor plus one array physics
  hook;
* :class:`BackendDescriptor` / :class:`BlockDescriptor` — the static
  description of a machine's two device blocks (P-state ladders,
  thread counts, voltage curves, sample configurations, design-row
  features) that lets :mod:`repro.core` build design matrices and
  sample anchors without knowing the machine;
* the registry — ``register_backend`` / :func:`create_backend` /
  :func:`descriptor_for`, mapping names (``"trinity"``,
  ``"biglittle"``, ``"mpsoc"``) to factories so evaluation drivers and
  the CLI select machines by flag; :func:`register_descriptor` makes a
  variant's descriptor (an MPSoC at another node) resolvable from its
  configurations without adding a backend name.

Every backend keeps the *two-block* shape of the paper's Trinity
machine: a primary block playing the CPU role (rows ``device=CPU``) and
a secondary block playing the GPU role (rows ``device=GPU``).  On the
big.LITTLE backend those are the LITTLE and big clusters; on the MPSoC
they are the serial core and the dim-silicon throughput cores.  Keeping
the role split means the entire modeling pipeline — per-device design
matrices, sample anchors, per-cluster regressions — applies unchanged,
which is precisely what makes cross-architecture transfer
(:mod:`repro.evaluation.transfer`) well-posed: coefficient vectors
carry across backends because every backend exposes feature rows of the
same width and normalization convention.
"""

from __future__ import annotations

import abc
import functools
import importlib
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Mapping

import numpy as np

from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.config import ConfigSpace, Configuration, Device
from repro.hardware.kernelmodel import KernelCharacteristics
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerBreakdown
from repro.telemetry import counter, gauge

__all__ = [
    "Measurement",
    "BlockDescriptor",
    "BackendDescriptor",
    "BlockConfig",
    "BlockConfigSpace",
    "HardwareBackend",
    "AnalyticalBackend",
    "TRINITY_DESCRIPTOR",
    "register_backend",
    "register_descriptor",
    "create_backend",
    "descriptor_for",
    "backend_names",
    "characteristics_of",
]


@dataclass(frozen=True)
class Measurement:
    """One measured kernel execution.

    Attributes
    ----------
    config:
        The configuration the kernel executed on.
    time_s:
        Measured wall time of one kernel invocation (seconds).
    cpu_plane_w:
        Measured average power of the primary power domain (CPU cores
        on Trinity; LITTLE cluster on the HMP; serial core on the
        MPSoC), in watts.
    nbgpu_plane_w:
        Measured average power of the secondary domain (northbridge+GPU
        on Trinity; big cluster + uncore on the HMP; throughput cores +
        uncore on the MPSoC), in watts.
    counters:
        Normalized performance-counter metrics
        (see :data:`repro.hardware.counters.COUNTER_NAMES`).
    """

    config: Configuration
    time_s: float
    cpu_plane_w: float
    nbgpu_plane_w: float
    counters: Mapping[str, float] = field(default_factory=dict)

    @property
    def total_power_w(self) -> float:
        """Whole-chip average power (sum of both domains)."""
        return self.cpu_plane_w + self.nbgpu_plane_w

    @property
    def performance(self) -> float:
        """Throughput: kernel invocations per second."""
        return 1.0 / self.time_s

    @property
    def energy_j(self) -> float:
        """Energy of one invocation (joules)."""
        return self.total_power_w * self.time_s


def characteristics_of(kernel: object) -> KernelCharacteristics:
    """Accept either raw characteristics or any object exposing them via
    a ``characteristics`` attribute (e.g. :class:`repro.workloads.Kernel`)."""
    if isinstance(kernel, KernelCharacteristics):
        return kernel
    chars = getattr(kernel, "characteristics", None)
    if isinstance(chars, KernelCharacteristics):
        return chars
    raise TypeError(
        f"expected KernelCharacteristics or an object with a "
        f".characteristics attribute, got {type(kernel).__name__}"
    )


# -- static machine description ---------------------------------------------


@dataclass(frozen=True)
class BlockDescriptor:
    """One device block of a backend: its P-state ladder, allowed
    active-unit counts, and affine voltage curve ``v = v0 + v1 * f``.

    ``label`` names the block in human-readable output (``"cpu"``,
    ``"little"``, ``"serial"``, ...).
    """

    label: str
    freqs_ghz: tuple[float, ...]
    thread_counts: tuple[int, ...]
    v0: float
    v1: float

    def __post_init__(self) -> None:
        if not self.freqs_ghz or list(self.freqs_ghz) != sorted(self.freqs_ghz):
            raise ValueError(f"{self.label}: frequency ladder must ascend")
        if len(set(self.freqs_ghz)) != len(self.freqs_ghz):
            raise ValueError(f"{self.label}: duplicate ladder frequencies")
        if not self.thread_counts or list(self.thread_counts) != sorted(
            self.thread_counts
        ):
            raise ValueError(f"{self.label}: thread counts must ascend")
        if any(f <= 0 for f in self.freqs_ghz) or any(
            n < 1 for n in self.thread_counts
        ):
            raise ValueError(f"{self.label}: ladder values must be positive")

    @property
    def max_freq_ghz(self) -> float:
        return self.freqs_ghz[-1]

    @property
    def min_freq_ghz(self) -> float:
        return self.freqs_ghz[0]

    @property
    def max_threads(self) -> int:
        return self.thread_counts[-1]

    def voltage(self, freq_ghz: float) -> float:
        """Core voltage at a ladder frequency (affine curve)."""
        return self.v0 + self.v1 * freq_ghz

    def index(self, freq_ghz: float) -> int:
        """Position of a frequency in the ladder (1e-9 tolerance)."""
        for i, f in enumerate(self.freqs_ghz):
            if abs(f - freq_ghz) < 1e-9:
                return i
        raise ValueError(
            f"{freq_ghz} GHz is not on the {self.label} ladder {self.freqs_ghz}"
        )


@dataclass(frozen=True, order=True)
class BlockConfig:
    """A configuration of a non-Trinity backend.

    Duck-types :class:`~repro.hardware.config.Configuration`: the same
    field names with the same roles (``device`` selects the block;
    ``cpu_freq_ghz`` is the primary block's frequency domain — the
    *host* anchor on secondary-block rows; ``gpu_freq_ghz`` the
    secondary block's), so every container, cache, and design-matrix
    consumer downstream handles both classes uniformly.  ``arch`` (the
    owning backend's registry name) leads the field order so configs of
    different backends never compare equal and never collide in
    process-wide caches.
    """

    arch: str
    device: Device
    cpu_freq_ghz: float
    n_threads: int
    gpu_freq_ghz: float

    def __post_init__(self) -> None:
        key = (self.arch, self.device, self.cpu_freq_ghz, self.n_threads)
        object.__setattr__(self, "_hash", hash(key + (self.gpu_freq_ghz,)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state: dict) -> None:
        for k, v in state.items():
            object.__setattr__(self, k, v)
        self.__post_init__()

    @property
    def is_gpu(self) -> bool:
        """Whether this configuration runs on the secondary block."""
        return self.device is Device.GPU

    def label(self) -> str:
        desc = descriptor_for(self.arch)
        if self.is_gpu:
            block = desc.secondary
            return (
                f"{block.label} {self.gpu_freq_ghz:.2f}GHz "
                f"x{self.n_threads}"
            )
        return f"{desc.primary.label} {self.cpu_freq_ghz:.2f}GHz x{self.n_threads}"


@dataclass(frozen=True)
class BackendDescriptor:
    """Static description of a backend's two device blocks.

    Provides everything :mod:`repro.core` historically pulled from the
    Trinity modules directly: configuration enumeration, sample
    configurations (the paper's Table II anchors, generalized to "both
    blocks fully powered"), and the per-block design rows.  The design
    rows follow one shared convention so regression coefficients are
    portable across backends (the transfer harness's premise):

    * primary performance — ``[f, n, f*n]`` (frequency and active-unit
      count, normalized to block maxima);
    * primary power — ``[f, n, f*n, v^2, n*f*v^2]``;
    * secondary performance — ``[g, h, g*h]`` where ``h`` is the
      block's second factor (host frequency on Trinity, active-unit
      count elsewhere);
    * secondary power — ``[g, h, g*h, vg^2, g*vg^2, h*vh^2]``.
    """

    name: str
    primary: BlockDescriptor
    secondary: BlockDescriptor

    # -- configuration enumeration -----------------------------------------

    def enumerate_configs(self) -> tuple[BlockConfig, ...]:
        """All configurations in deterministic order: the primary block
        (by frequency, then unit count), then the secondary block."""
        primary = [
            BlockConfig(
                arch=self.name,
                device=Device.CPU,
                cpu_freq_ghz=f,
                n_threads=n,
                gpu_freq_ghz=self.secondary.min_freq_ghz,
            )
            for f in self.primary.freqs_ghz
            for n in self.primary.thread_counts
        ]
        secondary = [
            BlockConfig(
                arch=self.name,
                device=Device.GPU,
                cpu_freq_ghz=self.host_freq_ghz(),
                n_threads=m,
                gpu_freq_ghz=g,
            )
            for g in self.secondary.freqs_ghz
            for m in self.secondary.thread_counts
        ]
        return tuple(primary + secondary)

    def host_freq_ghz(self) -> float:
        """Primary-block frequency recorded on secondary-block rows (the
        host/orchestrating domain; its idle-governed maximum here)."""
        return self.primary.max_freq_ghz

    def host_freqs_ghz(self) -> tuple[float, ...]:
        """The host rungs secondary-block rows take, ascending: only
        :meth:`host_freq_ghz` here, so the frequency limiter and P-state
        faults leave a secondary run's host alone."""
        return (self.host_freq_ghz(),)

    def config_space(self) -> "BlockConfigSpace":
        """A fresh configuration space over :meth:`enumerate_configs`."""
        return BlockConfigSpace(self)

    def sample_configs(self) -> tuple[BlockConfig, BlockConfig]:
        """The two online sample configurations, primary first: each
        block fully powered, matching the paper's "common execution
        configurations in environments without power constraints"."""
        space = self.enumerate_configs()
        primary = [c for c in space if not c.is_gpu]
        secondary = [c for c in space if c.is_gpu]
        return (primary[-1], secondary[-1])

    # -- design rows --------------------------------------------------------

    def perf_row(self, cfg) -> np.ndarray:
        """Performance regressors of one configuration (width 3)."""
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / self.secondary.max_freq_ghz
            h = cfg.n_threads / self.secondary.max_threads
            return np.array([g, h, g * h])
        f = cfg.cpu_freq_ghz / self.primary.max_freq_ghz
        n = cfg.n_threads / self.primary.max_threads
        return np.array([f, n, f * n])

    def power_row(self, cfg) -> np.ndarray:
        """Power regressors of one configuration (width 5 primary /
        6 secondary, voltage-aware like the Trinity rows)."""
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / self.secondary.max_freq_ghz
            h = cfg.n_threads / self.secondary.max_threads
            vg = self.secondary.voltage(cfg.gpu_freq_ghz) / self.secondary.voltage(
                self.secondary.max_freq_ghz
            )
            vg2 = vg * vg
            return np.array([g, h, g * h, vg2, g * vg2, h * vg2])
        f = cfg.cpu_freq_ghz / self.primary.max_freq_ghz
        n = cfg.n_threads / self.primary.max_threads
        v = self.primary.voltage(cfg.cpu_freq_ghz) / self.primary.voltage(
            self.primary.max_freq_ghz
        )
        v2 = v * v
        return np.array([f, n, f * n, v2, n * f * v2])

    # -- validation ---------------------------------------------------------

    def validate(self, cfg) -> None:
        """Raise if ``cfg`` is not a point of this backend's space."""
        if getattr(cfg, "arch", None) != self.name:
            raise ValueError(f"{cfg!r} does not belong to backend {self.name!r}")
        block = self.secondary if cfg.is_gpu else self.primary
        freq = cfg.gpu_freq_ghz if cfg.is_gpu else cfg.cpu_freq_ghz
        block.index(freq)  # validates the ladder frequency
        if cfg.n_threads not in block.thread_counts:
            raise ValueError(
                f"{cfg.n_threads} active units outside {block.label} "
                f"counts {block.thread_counts}"
            )


class _TrinityDescriptor(BackendDescriptor):
    """The Trinity APU expressed as a descriptor.

    Enumeration, samples, and design rows delegate to the original
    Trinity definitions so descriptor consumers see exactly the
    configurations (and float-identical feature rows) the pre-extraction
    code produced.  Trinity's secondary block varies the *host* CPU
    frequency rather than a unit count, so the generic second factor is
    overridden accordingly.
    """

    def enumerate_configs(self) -> tuple[Configuration, ...]:
        return tuple(ConfigSpace())

    def host_freqs_ghz(self) -> tuple[float, ...]:
        return self.primary.freqs_ghz

    def config_space(self) -> ConfigSpace:
        return ConfigSpace()

    def sample_configs(self) -> tuple[Configuration, Configuration]:
        return (
            Configuration.cpu(pstates.CPU_MAX_FREQ_GHZ, pstates.N_CORES),
            Configuration.gpu(pstates.GPU_MAX_FREQ_GHZ, pstates.CPU_MAX_FREQ_GHZ),
        )

    def perf_row(self, cfg) -> np.ndarray:
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / pstates.GPU_MAX_FREQ_GHZ
            h = cfg.cpu_freq_ghz / pstates.CPU_MAX_FREQ_GHZ
            return np.array([g, h, g * h])
        f = cfg.cpu_freq_ghz / pstates.CPU_MAX_FREQ_GHZ
        n = cfg.n_threads / pstates.N_CORES
        return np.array([f, n, f * n])

    def power_row(self, cfg) -> np.ndarray:
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / pstates.GPU_MAX_FREQ_GHZ
            h = cfg.cpu_freq_ghz / pstates.CPU_MAX_FREQ_GHZ
            vg = pstates.gpu_voltage(cfg.gpu_freq_ghz) / pstates.gpu_voltage(
                pstates.GPU_MAX_FREQ_GHZ
            )
            vh = pstates.cpu_voltage(cfg.cpu_freq_ghz) / pstates.cpu_voltage(
                pstates.CPU_MAX_FREQ_GHZ
            )
            vg2, vh2 = vg * vg, vh * vh
            return np.array([g, h, g * h, vg2, g * vg2, h * vh2])
        f = cfg.cpu_freq_ghz / pstates.CPU_MAX_FREQ_GHZ
        n = cfg.n_threads / pstates.N_CORES
        v = pstates.cpu_voltage(cfg.cpu_freq_ghz) / pstates.cpu_voltage(
            pstates.CPU_MAX_FREQ_GHZ
        )
        v2 = v * v
        return np.array([f, n, f * n, v2, n * f * v2])

    def validate(self, cfg) -> None:
        if not isinstance(cfg, Configuration):
            raise ValueError(f"{cfg!r} does not belong to backend {self.name!r}")
        # Configuration.__post_init__ already validated the ladders.


#: Descriptor of the paper's machine (registered as ``"trinity"``).
TRINITY_DESCRIPTOR = _TrinityDescriptor(
    name="trinity",
    primary=BlockDescriptor(
        label="cpu",
        freqs_ghz=pstates.CPU_FREQS_GHZ,
        thread_counts=tuple(range(1, pstates.N_CORES + 1)),
        v0=pstates._CPU_V0,
        v1=pstates._CPU_V1,
    ),
    secondary=BlockDescriptor(
        label="gpu",
        freqs_ghz=pstates.GPU_FREQS_GHZ,
        thread_counts=(1,),
        v0=pstates._GPU_V0,
        v1=pstates._GPU_V1,
    ),
)


class BlockConfigSpace:
    """Enumerable configuration space of a descriptor-defined backend.

    Satisfies the same container protocol as
    :class:`~repro.hardware.config.ConfigSpace` (deterministic order:
    the primary block, then the secondary block) and carries its
    :attr:`descriptor` so downstream layers can recover sample
    configurations and ladders without backend-specific imports.
    """

    def __init__(self, descriptor: BackendDescriptor) -> None:
        self.descriptor = descriptor
        self._configs = descriptor.enumerate_configs()
        self._index = {cfg: i for i, cfg in enumerate(self._configs)}

    def __iter__(self) -> Iterator:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, cfg) -> bool:
        return cfg in self._index

    def __getitem__(self, i: int):
        return self._configs[i]

    def index(self, cfg) -> int:
        """Position of ``cfg`` in the deterministic enumeration order."""
        try:
            return self._index[cfg]
        except KeyError:
            raise ValueError(f"{cfg} is not in the configuration space") from None

    def cpu_configs(self) -> list:
        """All primary-block configurations."""
        return [c for c in self._configs if not c.is_gpu]

    def gpu_configs(self) -> list:
        """All secondary-block configurations."""
        return [c for c in self._configs if c.is_gpu]

    def for_device(self, device: Device) -> list:
        """All configurations executing on ``device``'s block."""
        return [c for c in self._configs if c.device is device]


# -- the machine interface ---------------------------------------------------


class HardwareBackend(abc.ABC):
    """Abstract machine interface of the reproduction.

    A backend exposes two views of its machine:

    * deterministic ground truth (:meth:`true_time_s`,
      :meth:`true_power`, :meth:`true_table`) — oracle-only;
    * noisy measured executions (:meth:`run`, and :meth:`observe` for
      control loops that read only each step's total power) — the only
      view the modeling pipeline sees.

    Instances carry ``descriptor``, ``config_space``, ``noise``,
    ``power_constants`` (a frozen, hashable calibration record keying
    the process-wide memo caches), ``boost`` (``None`` when the machine
    has no opportunistic overclocking), and ``fault_injector``.
    """

    #: Registry name of the backend class (e.g. ``"trinity"``).
    name: ClassVar[str] = ""

    # -- ground truth -------------------------------------------------------

    @abc.abstractmethod
    def true_time_s(self, kernel: object, cfg) -> float:
        """Deterministic execution time (seconds) of one invocation."""

    @abc.abstractmethod
    def true_power(self, kernel: object, cfg) -> PowerBreakdown:
        """Deterministic per-plane average power."""

    def true_total_power_w(self, kernel: object, cfg) -> float:
        """Deterministic whole-chip average power (watts)."""
        return self.true_power(kernel, cfg).total_w

    def true_performance(self, kernel: object, cfg) -> float:
        """Deterministic throughput (invocations per second)."""
        return 1.0 / self.true_time_s(kernel, cfg)

    @abc.abstractmethod
    def true_table(self, kernel: object) -> dict:
        """Per-configuration ground truth ``{config: (total power W,
        performance)}`` over the whole space."""

    # -- measurement --------------------------------------------------------

    @abc.abstractmethod
    def run(self, kernel: object, cfg, *, rng=None) -> Measurement:
        """Execute one kernel invocation and return a noisy measurement."""

    def run_all_configs(self, kernel: object, *, rng=None) -> list[Measurement]:
        """Measure a kernel on every configuration (the paper's offline
        exhaustive characterization of training kernels)."""
        return [self.run(kernel, cfg, rng=rng) for cfg in self.config_space]

    def observe(
        self, kernel: object, ladder: Iterable, *, rng=None
    ) -> Iterator[tuple[object, float, object]]:
        """Measure ``kernel`` on each configuration of ``ladder`` in turn,
        yielding ``(config, measured total power, reading)`` per run.

        The frequency limiter's primitive.  :meth:`measurement` turns a
        step's ``reading`` into the :class:`Measurement` :meth:`run`
        returned; a failed run yields a NaN power and a ``None``
        reading.  Stop iterating whenever the walk is done: no step is
        drawn before it is asked for.
        """
        for cfg in ladder:
            try:
                m = self.run(kernel, cfg, rng=rng)
            except SampleRunError:
                yield cfg, math.nan, None
            else:
                yield cfg, m.total_power_w, m

    def measurement(self, cfg, reading: object) -> Measurement:
        """The full :class:`Measurement` of one :meth:`observe` step on
        ``cfg`` (``reading`` must not be ``None``)."""
        return reading

    # -- batch evaluation ---------------------------------------------------

    @abc.abstractmethod
    def batch_rate_power(
        self,
        kernel: object,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ground-truth ``(rate, total power)`` per row.

        Row semantics mirror the configuration fields; results are
        bit-identical to :meth:`true_table` (the backend conformance
        suite pins this for every registered backend).
        """

    # -- fault injection ----------------------------------------------------

    def inject_faults(self, faults) -> object | None:
        """Attach (or detach, with ``None``) a fault plan to the machine.

        ``faults`` may be a :class:`repro.faults.FaultPlan` or an
        existing :class:`repro.faults.FaultInjector` (to share one run
        clock across machines).  Returns the active injector.  Only
        *measured* runs are perturbed; ground truth stays exact, so
        oracle baselines and harness judgments are unaffected.
        """
        if faults is None:
            self.fault_injector = None
            return None
        from repro.faults import FaultInjector, FaultPlan

        if isinstance(faults, FaultInjector):
            self.fault_injector = faults
        elif isinstance(faults, FaultPlan):
            self.fault_injector = FaultInjector(faults)
        else:
            raise TypeError(
                f"expected FaultPlan or FaultInjector, got {type(faults).__name__}"
            )
        return self.fault_injector


# Process-wide memo caches, keyed by each backend's frozen constants
# record (and, for measurement templates, its noise model).  With boost
# off, ground truth is a pure function of the characteristics given the
# constants, so every machine with equal constants shares one set of
# dicts: run_loocv and the evaluation harness build fresh machines
# constantly (fresh noise streams, same physics).  Constants records of
# different machine types never compare equal, so the caches of
# different backends never collide.  Keyspace is bounded:
# kernels-in-process x configurations.
_TRUTH_CACHES: dict[object, tuple[dict, dict]] = {}
_TRUTH_TABLE_CACHES: dict[object, dict] = {}
_TEMPLATE_CACHES: dict[tuple[object, NoiseModel], dict] = {}

# Hit/miss accounting for the two memo families (see
# docs/OBSERVABILITY.md).  Instruments are fetched once here; their
# .inc() is a flag check when telemetry is disabled.
_TT_HITS = counter("cache.truth_table.hits")
_TT_MISSES = counter("cache.truth_table.misses")
_TT_SIZE = gauge("cache.truth_table.size")
_TPL_HITS = counter("cache.measurement_template.hits")
_TPL_MISSES = counter("cache.measurement_template.misses")
_TPL_SIZE = gauge("cache.measurement_template.size")


def _lognormal(mean: float, sigma: float, z: float) -> float:
    """A ``Generator.lognormal(mean, sigma)`` draw rebuilt from the
    standard-normal draw ``z`` it would have consumed.

    numpy computes the lognormal as libm ``exp(mean + sigma * z)``;
    ``math.exp`` calls the same libm routine, so the result is
    bit-identical.  ``np.exp`` is *not*: its SIMD implementation differs
    in the last ulp on some inputs.
    """
    return math.exp(mean + sigma * z)


@functools.cache
def _space_columns(descriptor: BackendDescriptor) -> tuple[tuple, tuple]:
    """A descriptor's configurations and their ``_physics`` columns
    (device mask, primary frequency, unit count, secondary frequency)."""
    configs = descriptor.enumerate_configs()
    columns = (
        np.array([cfg.is_gpu for cfg in configs]),
        np.array([cfg.cpu_freq_ghz for cfg in configs]),
        np.array([float(cfg.n_threads) for cfg in configs]),
        np.array([cfg.gpu_freq_ghz for cfg in configs]),
    )
    for column in columns:  # shared by every machine of the descriptor
        column.flags.writeable = False
    return configs, columns


def _power_perf(truth: dict) -> dict:
    """``{config: (total power W, performance)}`` from a truth table."""
    return {cfg: (p + s, 1.0 / t) for cfg, (t, p, s) in truth.items()}


class AnalyticalBackend(HardwareBackend):
    """The one implementation of an analytical (closed-form) machine.

    A machine is a ``descriptor``, a frozen ``power_constants`` record
    and one physics hook, :meth:`_physics`, over configuration arrays.
    This base supplies everything else: ground truth evaluated once per
    kernel over the whole space and memoized process-wide, the
    vectorized :meth:`batch_rate_power`, the noisy measurement path
    (fused measurement templates, fault-injection plumbing) and the
    limiter's :meth:`observe` primitive.

    ``boost`` (``None`` unless the machine's physics has opportunistic
    overclocking) keeps truth in a per-machine memo keyed by the policy,
    away from the process-wide caches, and bypasses the template path.
    """

    def __init__(
        self,
        descriptor: BackendDescriptor,
        constants,
        *,
        noise: NoiseModel | None = None,
        seed: int = 0,
    ) -> None:
        self.descriptor = descriptor
        self.noise = noise if noise is not None else NoiseModel()
        self.power_constants = constants
        self.boost = None
        self.config_space = descriptor.config_space()
        # Optional fault injector (repro.faults): when attached, every
        # measured run passes through it — ground truth is unaffected.
        self.fault_injector = None
        self._rng = np.random.default_rng(seed)
        caches = _TRUTH_CACHES.get(constants)
        if caches is None:
            caches = _TRUTH_CACHES[constants] = ({}, {})
        self._truth_cache, self._counter_cache = caches
        self._boost_truth: dict = {}
        # Fused measurement templates: (counter names, true time, true
        # primary-plane W, true secondary-plane W, true counter values)
        # per (characteristics, config).  Lets :meth:`run` and
        # :meth:`observe` replace three cache lookups and four RNG calls
        # with one lookup and one standard-normal draw.  Only valid when
        # every noise axis is nonzero (a zero axis skips its draw in the
        # scalar path, so the fused draw would desynchronize the stream)
        # — ``_noise_mode`` records which regime applies.
        self._meas_cache: dict = _TEMPLATE_CACHES.setdefault(
            (constants, self.noise), {}
        )
        rels = (self.noise.time_rel, self.noise.power_rel, self.noise.counter_rel)
        if all(r > 0.0 for r in rels):
            self._noise_mode = "vector"
        elif all(r == 0.0 for r in rels):
            self._noise_mode = "exact"
        else:
            self._noise_mode = "scalar"
        # Lognormal parameters of each noise axis, precomputed exactly as
        # NoiseModel._scale computes them (python-float arithmetic).
        self._ln_time = (-0.5 * rels[0] * rels[0], rels[0])
        self._ln_power = (-0.5 * rels[1] * rels[1], rels[1])
        self._ln_counter = (-0.5 * rels[2] * rels[2], rels[2])

    # -- physics ------------------------------------------------------------

    @abc.abstractmethod
    def _physics(
        self,
        chars: KernelCharacteristics,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The machine's ground truth: ``(time_s, primary-plane W,
        secondary-plane W)`` per configuration row (``is_gpu`` is the
        device mask; the other columns mirror the configuration fields).
        Raises :class:`ValueError` on a row the machine cannot run."""

    # -- ground truth -------------------------------------------------------

    def _truth(self, chars: KernelCharacteristics) -> dict:
        """``{config: (time_s, primary W, secondary W)}`` over the whole
        space as Python floats: one :meth:`_physics` call per kernel,
        memoized (process-wide without boost, per machine and policy
        with it)."""
        if self.boost is None:
            cache, key = self._truth_cache, chars
        else:
            cache, key = self._boost_truth, (self.boost, chars)
        truth = cache.get(key)
        if truth is None:
            configs, columns = _space_columns(self.descriptor)
            t, primary, secondary = self._physics(chars, *columns)
            truth = cache[key] = dict(
                zip(configs, zip(t.tolist(), primary.tolist(), secondary.tolist()))
            )
        return truth

    def _truth_of(self, kernel: object, cfg) -> tuple[float, float, float]:
        try:
            return self._truth(characteristics_of(kernel))[cfg]
        except KeyError:
            raise ValueError(
                f"{cfg} is not a valid configuration for this machine"
            ) from None

    def true_time_s(self, kernel: object, cfg) -> float:
        return self._truth_of(kernel, cfg)[0]

    def true_power(self, kernel: object, cfg) -> PowerBreakdown:
        _, primary, secondary = self._truth_of(kernel, cfg)
        return PowerBreakdown(cpu_plane_w=primary, nbgpu_plane_w=secondary)

    def true_table(self, kernel: object) -> dict:
        """Per-configuration ground truth ``{config: (total power W,
        performance)}``, memoized process-wide.

        The evaluation harness judges every decision against ground
        truth; one dict lookup per record beats two truth reads.
        """
        chars = characteristics_of(kernel)
        if self.boost is not None:
            return _power_perf(self._truth(chars))
        tables = _TRUTH_TABLE_CACHES.get(self.power_constants)
        if tables is None:
            tables = _TRUTH_TABLE_CACHES[self.power_constants] = {}
        table = tables.get(chars)
        if table is None:
            _TT_MISSES.inc()
            table = tables[chars] = _power_perf(self._truth(chars))
            _TT_SIZE.set(len(tables))
        else:
            _TT_HITS.inc()
        return table

    def batch_rate_power(
        self,
        kernel: object,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        t, primary, secondary = self._physics(
            characteristics_of(kernel),
            np.asarray(is_gpu, dtype=bool),
            np.asarray(cpu_freq_ghz, dtype=np.float64),
            np.asarray(n_threads, dtype=np.float64),
            np.asarray(gpu_freq_ghz, dtype=np.float64),
        )
        return 1.0 / t, primary + secondary

    def _true_counters(self, chars: KernelCharacteristics, cfg) -> dict:
        counters = self._counter_cache.get((chars, cfg))
        if counters is None:
            # Imported here: repro.hardware.counters imports this module.
            from repro.hardware.counters import synthesize_counters

            counters = self._counter_cache[(chars, cfg)] = synthesize_counters(
                chars, cfg
            )
        return counters

    # -- measurement --------------------------------------------------------

    def run(self, kernel: object, cfg, *, rng=None) -> Measurement:
        """Execute one kernel invocation and return a noisy measurement.

        With a fault injector attached (:meth:`inject_faults`), the run
        first passes through :meth:`repro.faults.FaultInjector.begin_run`
        — which may raise :class:`repro.faults.SampleRunError` or
        substitute the executed P-state — and the readings through the
        run's sensor faults.  ``rng`` overrides the machine's internal
        noise stream.
        """
        inj = self.fault_injector
        if inj is None:
            return self._run_clean(kernel, cfg, rng=rng)
        ctx = inj.begin_run(cfg)
        return ctx.apply(self._run_clean(kernel, ctx.config, rng=rng))

    def observe(
        self, kernel: object, ladder: Iterable, *, rng=None
    ) -> Iterator[tuple[object, float, object]]:
        """See :meth:`HardwareBackend.observe`.

        The walk reads only the total power of each step, so the clean
        template modes draw the step's full noise row (one
        ``standard_normal`` call, consuming the stream exactly like
        :meth:`run`) but compute only the two power factors.
        Fault-injected, boosted and scalar-noise machines delegate each
        step to :meth:`run`, so fault semantics are unchanged.
        """
        if (
            self.fault_injector is not None
            or self.boost is not None
            or self._noise_mode == "scalar"
        ):
            yield from super().observe(kernel, ladder, rng=rng)
            return
        chars = characteristics_of(kernel)
        cache = self._meas_cache
        r = rng if rng is not None else self._rng
        noisy = self._noise_mode == "vector"
        mp, sp = self._ln_power
        hits = 0  # template reads are counted once per walk, not per step
        try:
            for cfg in ladder:
                tpl = cache.get((chars, cfg))
                if tpl is None:
                    tpl = self._new_template(chars, cfg)
                else:
                    hits += 1
                _, _, cpu_w, nbgpu_w, vals = tpl
                if noisy:
                    z = r.standard_normal(3 + len(vals)).tolist()
                    cpu_factor = _lognormal(mp, sp, z[1])
                    power = cpu_w * cpu_factor + nbgpu_w * _lognormal(mp, sp, z[2])
                else:
                    z = ()
                    power = cpu_w + nbgpu_w
                yield cfg, power, (tpl, z)
        finally:
            _TPL_HITS.inc(hits)

    def measurement(self, cfg, reading: object) -> Measurement:
        if isinstance(reading, Measurement):
            return reading
        tpl, z = reading
        return self._noisy_measurement(tpl, cfg, z)

    def _noisy_measurement(self, tpl: tuple, cfg, z) -> Measurement:
        """Apply one step's standard-normal row ``z`` (time, two power
        planes, then the counter block; empty in the exact noise mode)
        to a measurement template."""
        names, t, cpu_w, nbgpu_w, vals = tpl
        if not z:
            return Measurement(
                config=cfg,
                time_s=t,
                cpu_plane_w=cpu_w,
                nbgpu_plane_w=nbgpu_w,
                counters=dict(zip(names, vals)),
            )
        mt, st = self._ln_time
        mp, sp = self._ln_power
        mc, sc = self._ln_counter
        return Measurement(
            config=cfg,
            time_s=t * _lognormal(mt, st, z[0]),
            cpu_plane_w=cpu_w * _lognormal(mp, sp, z[1]),
            nbgpu_plane_w=nbgpu_w * _lognormal(mp, sp, z[2]),
            counters={
                name: v * _lognormal(mc, sc, x)
                for name, v, x in zip(names, vals, z[3:])
            },
        )

    def _run_clean(self, kernel: object, cfg, *, rng=None) -> Measurement:
        """The fault-free measurement path (ground truth + noise)."""
        chars = characteristics_of(kernel)

        if self.boost is None and self._noise_mode != "scalar":
            tpl = self._meas_cache.get((chars, cfg))
            if tpl is None:
                tpl = self._new_template(chars, cfg)
            else:
                _TPL_HITS.inc()
            if self._noise_mode == "vector":
                # One standard-normal row in the scalar path's order —
                # time, two power planes, the counter block — so
                # measurements are bit-identical to per-axis lognormal
                # draws.
                r = rng if rng is not None else self._rng
                z = r.standard_normal(3 + len(tpl[4])).tolist()
                return self._noisy_measurement(tpl, cfg, z)
            # exact: measurements equal ground truth, no draws
            return self._noisy_measurement(tpl, cfg, ())

        true_t, primary, secondary = self._truth_of(chars, cfg)
        r = rng if rng is not None else self._rng
        t = self.noise.perturb_time(true_t, r)
        cpu_w = self.noise.perturb_power(primary, r)
        nbgpu_w = self.noise.perturb_power(secondary, r)
        counters = self.noise.perturb_counters(self._true_counters(chars, cfg), r)
        return Measurement(
            config=cfg,
            time_s=t,
            cpu_plane_w=cpu_w,
            nbgpu_plane_w=nbgpu_w,
            counters=counters,
        )

    def _new_template(self, chars: KernelCharacteristics, cfg) -> tuple:
        """Build and memoize the fused ground-truth template for one pair
        (a template-cache miss; callers count their own hits)."""
        _TPL_MISSES.inc()
        t, primary, secondary = self._truth_of(chars, cfg)
        true_counters = self._true_counters(chars, cfg)
        tpl = (
            tuple(true_counters),
            t,
            primary,
            secondary,
            tuple(float(v) for v in true_counters.values()),
        )
        self._meas_cache[(chars, cfg)] = tpl
        _TPL_SIZE.set(len(self._meas_cache))
        return tpl


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., HardwareBackend]] = {}
_DESCRIPTORS: dict[str, BackendDescriptor] = {}

#: Modules whose import registers the built-in backends.
_BUILTIN_MODULES: tuple[str, ...] = (
    "repro.hardware.apu",
    "repro.hardware.biglittle",
    "repro.hardware.mpsoc",
)


def register_backend(
    name: str,
    factory: Callable[..., HardwareBackend],
    descriptor: BackendDescriptor,
) -> None:
    """Register a backend factory (``factory(seed=..., noise=...)``)
    and its descriptor under ``name``."""
    _REGISTRY[name] = factory
    _DESCRIPTORS[name] = descriptor


def register_descriptor(descriptor: BackendDescriptor) -> None:
    """Make ``descriptor`` resolvable by :func:`descriptor_for` (and so
    from its configurations' ``arch``) without registering a backend
    name: a machine variant such as an MPSoC at a non-default node."""
    _DESCRIPTORS[descriptor.name] = descriptor


_builtins_imported = False


def _ensure_builtins() -> None:
    """Import the built-in backend modules (registering them) once."""
    global _builtins_imported
    if _builtins_imported:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_imported = True


def create_backend(
    name: str, *, seed: int = 0, noise: NoiseModel | None = None
) -> HardwareBackend:
    """Instantiate a registered backend by name."""
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {backend_names()}"
        ) from None
    return factory(seed=seed, noise=noise)


def descriptor_for(name: str) -> BackendDescriptor:
    """The registered descriptor of a backend name or machine variant."""
    _ensure_builtins()
    try:
        return _DESCRIPTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {backend_names()}"
        ) from None


def backend_names() -> list[str]:
    """Names of every registered backend, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def descriptor_of_config(cfg) -> BackendDescriptor:
    """The descriptor owning a configuration (Trinity for
    :class:`~repro.hardware.config.Configuration`, registry lookup for
    :class:`BlockConfig`)."""
    if isinstance(cfg, Configuration):
        return TRINITY_DESCRIPTOR
    return descriptor_for(cfg.arch)


def sample_configs_of_space(space) -> tuple:
    """The two sample configurations of any configuration space (its
    descriptor's: Trinity's Table II anchors for
    :class:`~repro.hardware.config.ConfigSpace`)."""
    descriptor = getattr(space, "descriptor", None)
    if descriptor is None:
        raise TypeError(
            f"cannot derive sample configurations from {type(space).__name__}"
        )
    return descriptor.sample_configs()
