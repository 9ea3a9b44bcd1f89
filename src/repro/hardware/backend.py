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
  :class:`NoiseBlock`, so a machine is a descriptor plus one array
  physics hook;
* :class:`BackendDescriptor` / :class:`BlockDescriptor` — the static
  description of a machine's two device blocks (P-state ladders,
  thread counts, voltage curves, sample configurations, design-row
  features) that builds, validates and enumerates the machine's
  :class:`~repro.hardware.config.Configuration`\\ s and lets
  :mod:`repro.core` build design matrices and sample anchors without
  knowing the machine;
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
from repro.hardware.config import Configuration, Device
from repro.hardware.kernelmodel import KernelCharacteristics
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerBreakdown
from repro.telemetry import counter, gauge

__all__ = [
    "Measurement",
    "BlockDescriptor",
    "BackendDescriptor",
    "BlockConfigSpace",
    "HardwareBackend",
    "AnalyticalBackend",
    "NoiseBlock",
    "TRINITY_DESCRIPTOR",
    "register_backend",
    "register_descriptor",
    "create_backend",
    "descriptor_for",
    "backend_names",
    "characteristics_of",
    "max_ladder_depth",
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
    ``"little"``, ``"serial"``, ...).  ``host_axis`` marks a secondary
    block whose second axis is the host (primary) ladder rather than a
    unit count: Trinity's GPU rows keep one host thread and vary the
    host CPU's P-state.
    """

    label: str
    freqs_ghz: tuple[float, ...]
    thread_counts: tuple[int, ...]
    v0: float
    v1: float
    host_axis: bool = False

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
        if self.host_axis and len(self.thread_counts) != 1:
            raise ValueError(f"{self.label}: a host-ladder block has one unit count")

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


@dataclass(frozen=True)
class BackendDescriptor:
    """Static description of a backend's two device blocks.

    Provides everything :mod:`repro.core` needs without knowing the
    machine: configuration construction and enumeration, sample
    configurations (the paper's Table II anchors, generalized to "both
    blocks fully powered"), and the per-block design rows.  The design
    rows follow one shared convention so regression coefficients are
    portable across backends (the transfer harness's premise):

    * primary performance — ``[f, n, f*n]`` (frequency and active-unit
      count, normalized to block maxima);
    * primary power — ``[f, n, f*n, v^2, n*f*v^2]``;
    * secondary performance — ``[g, h, g*h]`` where ``h`` is the
      block's second factor: host frequency over host maximum on a
      host-ladder block, active-unit count over its maximum elsewhere;
    * secondary power — ``[g, h, g*h, vg^2, g*vg^2, h*vh^2]``, where
      ``vh`` is the host's voltage on a host-ladder block and the
      block's own (``vg``) elsewhere.
    """

    name: str
    primary: BlockDescriptor
    secondary: BlockDescriptor

    def __post_init__(self) -> None:
        if self.primary.host_axis:
            raise ValueError(f"{self.name}: only the secondary block has a host")

    # -- configurations -----------------------------------------------------

    @functools.cache
    def enumerate_configs(self) -> tuple[Configuration, ...]:
        """All configurations in deterministic order: the primary block
        (by frequency, then unit count), then the secondary block (by
        frequency, then host frequency, then unit count)."""
        p, s = self.primary, self.secondary
        return tuple(
            [
                Configuration(self.name, Device.CPU, f, n, s.min_freq_ghz)
                for f in p.freqs_ghz
                for n in p.thread_counts
            ]
            + [
                Configuration(self.name, Device.GPU, h, m, g)
                for g in s.freqs_ghz
                for h in self.host_freqs_ghz()
                for m in s.thread_counts
            ]
        )

    @functools.cache
    def _rungs(self) -> dict[Configuration, Configuration]:
        """``{config: config}`` over the space, so a built configuration
        is the space's own instance (memo caches then hit by identity);
        shared by every caller, so read-only."""
        return {cfg: cfg for cfg in self.enumerate_configs()}

    def config(
        self,
        device: Device,
        cpu_freq_ghz: float,
        n_threads: int,
        gpu_freq_ghz: float,
    ) -> Configuration:
        """The configuration with these fields, by one rule for every
        machine: a frequency within 1e-9 of a rung of its block's ladder
        snaps to that rung; any other frequency raises
        :class:`ValueError`, and so does a point the space does not
        enumerate (a unit count outside its block, a primary row whose
        secondary is not at its minimum, a host the machine keeps
        fixed)."""
        p, s = self.primary, self.secondary
        cfg = Configuration(
            self.name,
            device,
            p.freqs_ghz[p.index(cpu_freq_ghz)],
            n_threads,
            s.freqs_ghz[s.index(gpu_freq_ghz)],
        )
        try:
            return self._rungs()[cfg]
        except KeyError:
            raise ValueError(
                f"{cfg!r} is not a configuration of {self.name!r}"
            ) from None

    def host_freqs_ghz(self) -> tuple[float, ...]:
        """The host rungs secondary-block rows take, ascending: the whole
        primary ladder on a host-ladder block, else only its maximum (the
        idle-governed host), so the frequency limiter and P-state faults
        leave such a run's host alone."""
        if self.secondary.host_axis:
            return self.primary.freqs_ghz
        return (self.primary.max_freq_ghz,)

    def config_space(self) -> "BlockConfigSpace":
        """A fresh configuration space over :meth:`enumerate_configs`."""
        return BlockConfigSpace(self)

    @functools.cache
    def sample_configs(self) -> tuple[Configuration, Configuration]:
        """The two online sample configurations, primary first: each
        block fully powered, matching the paper's "common execution
        configurations in environments without power constraints"."""
        space = self.enumerate_configs()
        primary = [c for c in space if not c.is_gpu]
        secondary = [c for c in space if c.is_gpu]
        return (primary[-1], secondary[-1])

    def label(self, cfg: Configuration) -> str:
        """Compact label of one configuration.  A host-ladder machine
        names its rows as the paper's Table I does (``CPU 2.4GHz x3``,
        ``GPU 649MHz (host 1.4GHz)``); elsewhere a row names its block,
        clock and unit count (``big 2.20GHz x4``)."""
        if self.secondary.host_axis:
            if cfg.is_gpu:
                return (
                    f"GPU {cfg.gpu_freq_ghz * 1000:.0f}MHz "
                    f"(host {cfg.cpu_freq_ghz:.1f}GHz)"
                )
            return f"CPU {cfg.cpu_freq_ghz:.1f}GHz x{cfg.n_threads}"
        if cfg.is_gpu:
            return f"{self.secondary.label} {cfg.gpu_freq_ghz:.2f}GHz x{cfg.n_threads}"
        return f"{self.primary.label} {cfg.cpu_freq_ghz:.2f}GHz x{cfg.n_threads}"

    # -- design rows --------------------------------------------------------

    def _second_factor(self, cfg: Configuration) -> float:
        """``h`` of a secondary-block row (see the class docstring)."""
        if self.secondary.host_axis:
            return cfg.cpu_freq_ghz / self.primary.max_freq_ghz
        return cfg.n_threads / self.secondary.max_threads

    def perf_row(self, cfg: Configuration) -> np.ndarray:
        """Performance regressors of one configuration (width 3)."""
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / self.secondary.max_freq_ghz
            h = self._second_factor(cfg)
            return np.array([g, h, g * h])
        f = cfg.cpu_freq_ghz / self.primary.max_freq_ghz
        n = cfg.n_threads / self.primary.max_threads
        return np.array([f, n, f * n])

    def power_row(self, cfg: Configuration) -> np.ndarray:
        """Power regressors of one configuration (width 5 primary /
        6 secondary, voltage-aware)."""
        p, s = self.primary, self.secondary
        if cfg.is_gpu:
            g = cfg.gpu_freq_ghz / s.max_freq_ghz
            h = self._second_factor(cfg)
            vg = s.voltage(cfg.gpu_freq_ghz) / s.voltage(s.max_freq_ghz)
            vh = (
                p.voltage(cfg.cpu_freq_ghz) / p.voltage(p.max_freq_ghz)
                if s.host_axis
                else vg
            )
            vg2 = vg * vg
            return np.array([g, h, g * h, vg2, g * vg2, h * (vh * vh)])
        f = cfg.cpu_freq_ghz / p.max_freq_ghz
        n = cfg.n_threads / p.max_threads
        v = p.voltage(cfg.cpu_freq_ghz) / p.voltage(p.max_freq_ghz)
        v2 = v * v
        return np.array([f, n, f * n, v2, n * f * v2])


#: Descriptor of the paper's machine (registered as ``"trinity"``): GPU
#: rows keep one host thread and vary the host CPU's P-state.
TRINITY_DESCRIPTOR = BackendDescriptor(
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
        host_axis=True,
    ),
)


class BlockConfigSpace:
    """Enumerable configuration space of a machine.

    Deterministic order: the primary block, then the secondary block.
    Carries its :attr:`descriptor` so downstream layers can recover
    sample configurations and ladders without backend-specific imports.
    """

    def __init__(self, descriptor: BackendDescriptor) -> None:
        self.descriptor = descriptor
        self._configs = descriptor.enumerate_configs()
        self._index = {cfg: i for i, cfg in enumerate(self._configs)}

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, cfg) -> bool:
        return cfg in self._index

    def __getitem__(self, i: int) -> Configuration:
        return self._configs[i]

    def index(self, cfg: Configuration) -> int:
        """Position of ``cfg`` in the deterministic enumeration order."""
        try:
            return self._index[cfg]
        except KeyError:
            raise ValueError(f"{cfg} is not in the configuration space") from None

    def gpu_configs(self) -> list[Configuration]:
        """All secondary-block configurations."""
        return [c for c in self._configs if c.is_gpu]


# -- the machine interface ---------------------------------------------------


class HardwareBackend(abc.ABC):
    """Abstract machine interface of the reproduction.

    A backend exposes two views of its machine:

    * deterministic ground truth (:meth:`truth`, :meth:`true_time_s`,
      :meth:`true_power`, :meth:`true_table`, :meth:`true_counters`) —
      oracle-only, apart from the profiling library that measures it;
    * noisy measured executions (:meth:`run`, and :meth:`noise_block`
      or :meth:`observe` for control loops that read only each step's
      total power) — the only view the modeling pipeline sees.

    Instances carry ``descriptor``, ``config_space``, ``noise``,
    ``power_constants`` (a frozen, hashable calibration record keying
    the process-wide memo caches), ``boost`` (``None`` when the machine
    has no opportunistic overclocking), and ``fault_injector``.
    """

    #: Registry name of the backend class (e.g. ``"trinity"``).
    name: ClassVar[str] = ""

    # -- ground truth -------------------------------------------------------

    @abc.abstractmethod
    def truth(self, kernel: object, cfg) -> tuple[float, float, float]:
        """Deterministic ``(time_s, primary-plane W, secondary-plane W)``
        of one invocation; raises :class:`ValueError` for a
        configuration outside the machine's space."""

    def true_time_s(self, kernel: object, cfg) -> float:
        """Deterministic execution time (seconds) of one invocation."""
        return self.truth(kernel, cfg)[0]

    def true_power(self, kernel: object, cfg) -> PowerBreakdown:
        """Deterministic per-plane average power."""
        _, primary, secondary = self.truth(kernel, cfg)
        return PowerBreakdown(cpu_plane_w=primary, nbgpu_plane_w=secondary)

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

    @abc.abstractmethod
    def true_counters(self, kernel: object, cfg) -> dict[str, float]:
        """Deterministic normalized counter metrics of one invocation
        (:func:`repro.hardware.counters.synthesize_counters`); callers
        must not mutate the returned dict."""

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

        The frequency limiter's per-step primitive, for machines without
        a :meth:`noise_block`.  :meth:`measurement` turns a
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

    def noise_block(self, kernel: object, *, rng=None, steps: int = 0):
        """A :class:`NoiseBlock` for one limiter sweep of about ``steps``
        steps, or ``None``: step through :meth:`observe` (the default)."""
        return None

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


# Process-wide memo caches — truth, counters, truth tables and
# measurement templates — keyed by each backend's frozen constants
# record and boost policy.  Ground truth is a pure function of the
# characteristics given the constants and the policy, so every machine
# with equal ones shares one set of dicts: run_loocv and the evaluation
# harness build fresh machines constantly (fresh noise streams, same
# physics).  Constants records of different machine types never compare
# equal, so the caches of different backends never collide.  Keyspace is
# bounded: kernels-in-process x configurations.
_MEMOS: dict[tuple, tuple[dict, dict, dict, dict]] = {}

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


class NoiseBlock:
    """One limiter sweep's steps on a clean template machine.

    :meth:`read` measures a step's total power from its template and the
    next noise row of one block of standard normals drawn ahead from the
    stream.  :meth:`close` rewinds the stream and redraws exactly the
    rows read: ``standard_normal`` fills sequentially, so rows and final
    stream equal one draw per step bit for bit.  Template reads count
    one per step, as :meth:`AnalyticalBackend.run` counts them.
    """

    __slots__ = (
        "_apu", "_chars", "_tpls", "_rng", "_state", "_z", "_pos", "_steps", "_hits",
        "_fixed", "_per", "_power",
    )

    def __init__(self, apu, chars: KernelCharacteristics, rng, steps: int) -> None:
        self._apu, self._chars, self._tpls = apu, chars, {}  # templates by config
        self._rng, self._state = rng, rng.bit_generator.state
        self._fixed, self._per = apu._row
        lt, lp, _ = apu._ln
        # (row offset, lognormal mean, sigma) of the two power draws.
        self._power = None if lp is None else (int(lt is not None), *lp)
        self._z: list[float] = []
        self._pos, self._steps, self._hits = 0, max(steps, 1), 0

    def read(self, cfg) -> tuple[object, float, int]:
        """``(cfg, measured total power, reading)`` of the next step."""
        tpl = self._tpls.get(cfg)
        if tpl is None:
            tpl = self._apu._meas_cache.get((self._chars, cfg))
            if tpl is None:
                tpl = self._apu._new_template(self._chars, cfg)
            else:
                self._hits += 1
            self._tpls[cfg] = tpl
        else:
            self._hits += 1
        _, _, cpu_w, nbgpu_w, vals = tpl
        pos = self._pos
        row = self._fixed + self._per * len(vals)
        end = self._pos = pos + row
        z = self._z
        if end > len(z):
            z += self._rng.standard_normal(max(end - len(z), self._steps * row)).tolist()
        if self._power is None:  # noiseless power planes
            return cfg, cpu_w + nbgpu_w, pos
        i, mp, sp = self._power
        i += pos
        # _lognormal inlined: the same math.exp of the same argument.
        cpu_factor = math.exp(mp + sp * z[i])
        return cfg, cpu_w * cpu_factor + nbgpu_w * math.exp(mp + sp * z[i + 1]), pos

    def measurement(self, cfg, reading: int) -> Measurement:
        """The full :class:`Measurement` of the :meth:`read` step on
        ``cfg`` whose noise row starts at ``reading``."""
        tpl = self._tpls[cfg]
        z = self._z[reading : reading + self._fixed + self._per * len(tpl[4])]
        return self._apu._noisy_measurement(tpl, cfg, z)

    def close(self) -> None:
        """Count the template reads and rewind the stream to the rows read."""
        _TPL_HITS.inc(self._hits)
        if len(self._z) > self._pos:
            self._rng.bit_generator.state = self._state
            if self._pos:
                self._rng.standard_normal(self._pos)


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
    limiter's :meth:`noise_block` primitive.

    ``boost`` (``None`` unless the machine's physics has opportunistic
    overclocking) is part of the physics: assigning it binds the memos
    of ``(constants, boost)``.
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
        # Each noise axis's lognormal (``None``: draws nothing), and a
        # measurement's standard-normal row length as (fixed part, per
        # counter).
        self._ln = lt, lp, lc = self.noise.lognormals
        self._row = ((lt is not None) + 2 * (lp is not None), int(lc is not None))

    @property
    def boost(self):
        """The opportunistic-overclocking policy (``None``: none)."""
        return self._boost

    @boost.setter
    def boost(self, policy) -> None:
        # Bound here, not looked up per access: the truth, counter and
        # truth-table memos of (constants, boost), and its fused
        # measurement templates — (counter names, true time, true
        # primary-plane W, true secondary-plane W, true counter values)
        # per (characteristics, config), which let :meth:`run` and the
        # limiter's NoiseBlock make one lookup and one standard-normal
        # row per measurement.
        self._boost = policy
        self._truth_cache, self._counter_cache, self._tables, self._meas_cache = (
            _MEMOS.setdefault((self.power_constants, policy), ({}, {}, {}, {}))
        )

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
        memoized process-wide."""
        truth = self._truth_cache.get(chars)
        if truth is None:
            configs, columns = _space_columns(self.descriptor)
            t, primary, secondary = self._physics(chars, *columns)
            truth = self._truth_cache[chars] = dict(
                zip(configs, zip(t.tolist(), primary.tolist(), secondary.tolist()))
            )
        return truth

    def truth(self, kernel: object, cfg) -> tuple[float, float, float]:
        try:
            return self._truth(characteristics_of(kernel))[cfg]
        except KeyError:
            raise ValueError(
                f"{cfg} is not a valid configuration for this machine"
            ) from None

    def true_table(self, kernel: object) -> dict:
        """Per-configuration ground truth ``{config: (total power W,
        performance)}``, memoized process-wide.

        The evaluation harness judges every decision against ground
        truth; one dict lookup per record beats two truth reads.
        """
        chars = characteristics_of(kernel)
        tables = self._tables
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

    def true_counters(self, kernel: object, cfg) -> dict[str, float]:
        """Memoized process-wide per (constants, kernel, configuration)."""
        chars = characteristics_of(kernel)
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

    def noise_block(self, kernel: object, *, rng=None, steps: int = 0):
        """See :meth:`HardwareBackend.noise_block`: a :class:`NoiseBlock`,
        or ``None`` on a fault-injected machine (whose run clock is
        state, so each step runs through :meth:`run`)."""
        if self.fault_injector is not None:
            return None
        r = rng if rng is not None else self._rng
        return NoiseBlock(self, characteristics_of(kernel), r, steps)

    def _noisy_measurement(self, tpl: tuple, cfg, z) -> Measurement:
        """Apply one step's standard-normal row ``z`` to a measurement
        template: one draw per reading of each nonzero noise axis, in
        :class:`NoiseModel`'s order (time, two power planes, the counter
        block), so measurements are bit-identical to per-axis lognormal
        draws.  A zero axis draws nothing and reads ground truth."""
        names, t, cpu_w, nbgpu_w, vals = tpl
        lt, lp, lc = self._ln
        i = 0
        if lt is not None:
            t *= _lognormal(*lt, z[0])
            i = 1
        if lp is not None:
            cpu_w *= _lognormal(*lp, z[i])
            nbgpu_w *= _lognormal(*lp, z[i + 1])
            i += 2
        if lc is not None:
            mc, sc = lc
            vals = [v * _lognormal(mc, sc, x) for v, x in zip(vals, z[i:])]
        return Measurement(cfg, t, cpu_w, nbgpu_w, dict(zip(names, vals)))

    def _run_clean(self, kernel: object, cfg, *, rng=None) -> Measurement:
        """The fault-free measurement path (ground truth + noise)."""
        chars = characteristics_of(kernel)
        tpl = self._meas_cache.get((chars, cfg))
        if tpl is None:
            tpl = self._new_template(chars, cfg)
        else:
            _TPL_HITS.inc()
        fixed, per = self._row
        n = fixed + per * len(tpl[4])
        z = (rng if rng is not None else self._rng).standard_normal(n).tolist() if n else ()
        return self._noisy_measurement(tpl, cfg, z)

    def _new_template(self, chars: KernelCharacteristics, cfg) -> tuple:
        """Build and memoize the fused ground-truth template for one pair
        (a template-cache miss; callers count their own hits)."""
        _TPL_MISSES.inc()
        t, primary, secondary = self.truth(chars, cfg)
        true_counters = self.true_counters(chars, cfg)
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


def max_ladder_depth() -> int:
    """The most rungs any registered descriptor's block ladder has."""
    _ensure_builtins()
    return max(len(b.freqs_ghz) for d in _DESCRIPTORS.values() for b in (d.primary, d.secondary))


def backend_names() -> list[str]:
    """Names of every registered backend, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)
