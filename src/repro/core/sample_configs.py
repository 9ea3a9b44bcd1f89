"""The paper's sample configurations (Table II).

When an unknown kernel is encountered, its first two iterations run on
one *sample configuration per device* — chosen "to match common
execution configurations in environments without power constraints":

=======  =============  ===========  =============
Device   CPU frequency  CPU threads  GPU frequency
=======  =============  ===========  =============
CPU      3.7 GHz        4            311 MHz (idle)
GPU      3.7 GHz        1 (host)     819 MHz
=======  =============  ===========  =============

Everything the online stage knows about a new kernel comes from these
two runs: its performance and power on each, and the performance
counters recorded during them.
"""

from __future__ import annotations

from repro.hardware.backend import TRINITY_DESCRIPTOR, sample_configs_of_space
from repro.hardware.config import Configuration

__all__ = ["CPU_SAMPLE", "GPU_SAMPLE", "SAMPLE_CONFIGS", "sample_configs_for"]

#: CPU-device sample configuration (all cores at maximum frequency) and
#: GPU-device sample configuration (GPU and host both at maximum
#: frequency): the Trinity descriptor's sample pair.
CPU_SAMPLE, GPU_SAMPLE = TRINITY_DESCRIPTOR.sample_configs()

#: Both sample configurations, CPU first (the paper's Table II order).
SAMPLE_CONFIGS: tuple[Configuration, Configuration] = (CPU_SAMPLE, GPU_SAMPLE)


def sample_configs_for(space) -> tuple:
    """Table II generalized to any backend: the two sample
    configurations of a configuration space (primary device first).

    For Trinity's :class:`~repro.hardware.config.ConfigSpace` this is
    exactly :data:`SAMPLE_CONFIGS`; descriptor-defined backends
    (:class:`~repro.hardware.backend.BlockConfigSpace`) answer "both
    blocks fully powered" from their own ladders.
    """
    return sample_configs_of_space(space)
