"""Hardware configurations and the enumerable configuration space.

A *configuration* in the paper (Section I) is "a device selection (CPU
or GPU), number of cores, voltage and frequency for both the CPU and
GPU, and process/core mapping".  On the simulated Trinity APU this
reduces to:

* ``device`` — which device executes the kernel;
* ``cpu_freq_ghz`` — the CPU P-state.  On GPU configurations this is the
  *host* thread's P-state, which matters because kernel-launch/driver
  overhead runs on the CPU (Table I's GPU rows differ only in CPU
  frequency);
* ``n_threads`` — CPU thread count (1–4).  GPU configurations always use
  one host thread;
* ``gpu_freq_ghz`` — the GPU P-state.  On CPU configurations the GPU
  idles at its minimum P-state, exactly how the paper ran CPU
  experiments.

The full space enumerated by :class:`ConfigSpace` has
``6 freqs × 4 threads = 24`` CPU configurations plus
``3 GPU freqs × 6 host freqs = 18`` GPU configurations — 42 in total,
comparable to the per-kernel scatter of the paper's Figure 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.hardware import pstates

__all__ = ["Device", "Configuration", "ConfigSpace"]


class Device(enum.Enum):
    """Execution device for a kernel (one device at a time; the paper
    deliberately excludes hybrid CPU+GPU execution, Section III-A)."""

    CPU = "cpu"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


@dataclass(frozen=True, order=True)
class Configuration:
    """One point in the machine configuration space.

    Instances are immutable, hashable, and totally ordered (device, then
    CPU frequency, thread count, GPU frequency) so they can key
    dictionaries and be sorted deterministically.
    """

    device: Device
    cpu_freq_ghz: float
    n_threads: int
    gpu_freq_ghz: float

    def __post_init__(self) -> None:
        # Store the rung each frequency matched (validating it), so a
        # value within the ladder's tolerance is the same configuration:
        # equal, with the same hash, and in the space.
        cpu = pstates.CPU_FREQS_GHZ[pstates.cpu_pstate_index(self.cpu_freq_ghz)]
        gpu = pstates.GPU_FREQS_GHZ[pstates.gpu_pstate_index(self.gpu_freq_ghz)]
        object.__setattr__(self, "cpu_freq_ghz", cpu)
        object.__setattr__(self, "gpu_freq_ghz", gpu)
        if not 1 <= self.n_threads <= pstates.N_CORES:
            raise ValueError(
                f"n_threads={self.n_threads} outside 1..{pstates.N_CORES}"
            )
        if self.device is Device.GPU and self.n_threads != 1:
            raise ValueError("GPU configurations use exactly one host thread")
        if self.device is Device.CPU and gpu != pstates.GPU_MIN_FREQ_GHZ:
            raise ValueError(
                "CPU configurations idle the GPU at its minimum P-state"
            )
        # Configurations key every hot-path dict (ground-truth caches,
        # config-space indices, prediction views); the generated
        # dataclass hash rebuilds a field tuple per lookup, so cache it.
        object.__setattr__(
            self,
            "_hash",
            hash((self.device, self.cpu_freq_ghz, self.n_threads, self.gpu_freq_ghz)),
        )

    def __hash__(self) -> int:
        return self._hash

    # The cached hash is derived state: keep it out of the pickle
    # payload (byte-identical to pre-cache pickles) and rebuild it on
    # load, where ``__init__``/``__post_init__`` never run.

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
            hash((self.device, self.cpu_freq_ghz, self.n_threads, self.gpu_freq_ghz)),
        )

    # -- convenient constructors -------------------------------------------

    # Instances are immutable, so the factories memoize: the valid space
    # has only 42 points and hot paths (the frequency limiter, scheduler
    # fallbacks) rebuild the same configurations constantly.

    @staticmethod
    @lru_cache(maxsize=None)
    def cpu(freq_ghz: float, n_threads: int) -> "Configuration":
        """A CPU configuration (GPU idling at minimum frequency)."""
        return Configuration(
            device=Device.CPU,
            cpu_freq_ghz=freq_ghz,
            n_threads=n_threads,
            gpu_freq_ghz=pstates.GPU_MIN_FREQ_GHZ,
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def gpu(gpu_freq_ghz: float, host_cpu_freq_ghz: float) -> "Configuration":
        """A GPU configuration with one host thread at the given P-state."""
        return Configuration(
            device=Device.GPU,
            cpu_freq_ghz=host_cpu_freq_ghz,
            n_threads=1,
            gpu_freq_ghz=gpu_freq_ghz,
        )

    # -- introspection -------------------------------------------------------

    @property
    def is_gpu(self) -> bool:
        """Whether this configuration executes on the GPU."""
        return self.device is Device.GPU

    def label(self) -> str:
        """Compact human-readable label, e.g. ``CPU 2.4GHz x3`` or
        ``GPU 649MHz (host 1.4GHz)``."""
        if self.is_gpu:
            return (
                f"GPU {self.gpu_freq_ghz * 1000:.0f}MHz "
                f"(host {self.cpu_freq_ghz:.1f}GHz)"
            )
        return f"CPU {self.cpu_freq_ghz:.1f}GHz x{self.n_threads}"


class ConfigSpace:
    """The enumerable set of valid configurations on the machine.

    Iteration order is deterministic: all CPU configurations (by
    frequency, then threads), then all GPU configurations (by GPU
    frequency, then host frequency).
    """

    def __init__(self) -> None:
        cpu_cfgs = [
            Configuration.cpu(f, n)
            for f in pstates.CPU_FREQS_GHZ
            for n in range(1, pstates.N_CORES + 1)
        ]
        gpu_cfgs = [
            Configuration.gpu(g, f)
            for g in pstates.GPU_FREQS_GHZ
            for f in pstates.CPU_FREQS_GHZ
        ]
        self._configs: tuple[Configuration, ...] = tuple(cpu_cfgs + gpu_cfgs)
        self._index = {cfg: i for i, cfg in enumerate(self._configs)}

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, cfg: Configuration) -> bool:
        return cfg in self._index

    def __getitem__(self, i: int) -> Configuration:
        return self._configs[i]

    def index(self, cfg: Configuration) -> int:
        """Position of ``cfg`` in the deterministic enumeration order."""
        try:
            return self._index[cfg]
        except KeyError:
            raise ValueError(f"{cfg} is not in the configuration space") from None

    @property
    def descriptor(self):
        """The Trinity backend descriptor, so ``ConfigSpace`` satisfies
        the same protocol as
        :class:`~repro.hardware.backend.BlockConfigSpace` (imported
        lazily: :mod:`repro.hardware.backend` imports this module)."""
        from repro.hardware.backend import TRINITY_DESCRIPTOR

        return TRINITY_DESCRIPTOR

    def cpu_configs(self) -> list[Configuration]:
        """All CPU-device configurations."""
        return [c for c in self._configs if not c.is_gpu]

    def gpu_configs(self) -> list[Configuration]:
        """All GPU-device configurations."""
        return [c for c in self._configs if c.is_gpu]

    def for_device(self, device: Device) -> list[Configuration]:
        """All configurations executing on ``device``."""
        return [c for c in self._configs if c.device is device]
