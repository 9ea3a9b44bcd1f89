"""Hardware configurations: one record type for every machine.

A *configuration* in the paper (Section I) is "a device selection (CPU
or GPU), number of cores, voltage and frequency for both the CPU and
GPU, and process/core mapping".  Every backend describes its machine as
two device blocks (:mod:`repro.hardware.backend`), so one record holds
any machine's configuration:

* ``arch`` — the owning machine's descriptor name, so configurations of
  different machines never compare equal;
* ``device`` — which block executes the kernel (``CPU`` is the primary
  block, ``GPU`` the secondary);
* ``cpu_freq_ghz`` — the primary block's P-state.  On secondary-block
  rows this is the *host* P-state (kernel-launch and driver overhead
  run there; Table I's GPU rows differ only in CPU frequency);
* ``n_threads`` — active units of the executing block (one host thread
  on Trinity's GPU rows);
* ``gpu_freq_ghz`` — the secondary block's P-state; primary-block rows
  idle it at its minimum, exactly how the paper ran CPU experiments.

Configurations are built by their machine's descriptor
(:meth:`~repro.hardware.backend.BackendDescriptor.config`), which snaps
each frequency to its rung or raises.  On the Trinity APU the space has
``6 freqs × 4 threads = 24`` CPU configurations plus ``3 GPU freqs × 6
host freqs = 18`` GPU configurations — 42 in total, comparable to the
per-kernel scatter of the paper's Figure 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Device", "Configuration"]


class Device(enum.Enum):
    """Execution device for a kernel (one device at a time; the paper
    deliberately excludes hybrid CPU+GPU execution, Section III-A)."""

    CPU = "cpu"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


@dataclass(frozen=True, order=True)
class Configuration:
    """One point in a machine's configuration space.

    Instances are immutable, hashable, and ordered field by field so
    they can key dictionaries and be sorted deterministically.  ``arch``
    is left out of the ``repr``: a Trinity configuration prints exactly
    as it did before other machines shared the type.
    """

    arch: str = field(repr=False)
    device: Device
    cpu_freq_ghz: float
    n_threads: int
    gpu_freq_ghz: float

    def __post_init__(self) -> None:
        # Configurations key every hot-path dict (ground-truth caches,
        # config-space indices, prediction views); the generated
        # dataclass hash rebuilds a field tuple per lookup, so cache it.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.arch,
                    self.device,
                    self.cpu_freq_ghz,
                    self.n_threads,
                    self.gpu_freq_ghz,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    # The cached hash is derived state: keep it out of the pickle
    # payload and rebuild it on load, where ``__init__`` never runs.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state: dict) -> None:
        for k, v in state.items():
            object.__setattr__(self, k, v)
        self.__post_init__()

    # -- introspection -------------------------------------------------------

    @property
    def descriptor(self):
        """The descriptor of the machine this configuration belongs to
        (imported lazily: :mod:`repro.hardware.backend` imports this
        module)."""
        from repro.hardware.backend import descriptor_for

        return descriptor_for(self.arch)

    @property
    def is_gpu(self) -> bool:
        """Whether this configuration executes on the secondary block."""
        return self.device is Device.GPU

    def label(self) -> str:
        """Compact human-readable label, e.g. ``CPU 2.4GHz x3``,
        ``GPU 649MHz (host 1.4GHz)`` or ``big 2.20GHz x4``."""
        return self.descriptor.label(self)

    def replace(self, **changes: Any) -> "Configuration":
        """This configuration with some fields changed, rebuilt by its
        machine's descriptor (so validated, and the space's own
        instance)."""
        fields = {
            "device": self.device,
            "cpu_freq_ghz": self.cpu_freq_ghz,
            "n_threads": self.n_threads,
            "gpu_freq_ghz": self.gpu_freq_ghz,
        }
        return self.descriptor.config(**{**fields, **changes})
