"""Structure-of-arrays view of the machine configuration space.

The online stage's cost argument (paper Section IV-C) is that "model
application requires a simple matrix-vector product of the
configuration space with the model coefficients".  For that product to
be all the online stage pays, everything *around* it must also be
array-shaped: the design matrices must exist before the first kernel
arrives, and predictions must stay in configuration-space order so
frontier construction and cap selection are array passes rather than
per-``Configuration`` dict walks.

:class:`ConfigTable` is that substrate: one immutable, process-wide
table per configuration space holding

* the configurations in deterministic space order (all CPU
  configurations, then all GPU configurations — contiguous device
  blocks);
* a configuration -> row-index mapping;
* the per-device performance and power design matrices
  (:func:`repro.core.features.design_row` /
  :func:`~repro.core.features.power_design_row` stacked once).

It is built on first use and shared by every :class:`~repro.core.model.
AdaptiveModel`, :class:`~repro.core.predictor.OnlinePredictor`, and the
evaluation harness: tables are cached per distinct configuration tuple,
so the hundreds of models a cross-validated sweep trains all reuse one
table (and its design matrices) instead of rebuilding them per model.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.features import design_row, power_design_row
from repro.hardware.backend import BlockConfigSpace
from repro.hardware.config import Configuration

__all__ = ["ConfigTable"]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as float64 with the writeable flag cleared."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


class ConfigTable:
    """Immutable structure-of-arrays index of one configuration space.

    Attributes
    ----------
    configs:
        Configurations in space order (CPU block then GPU block).
    n_cpu, n_gpu:
        Sizes of the device blocks; rows ``[0, n_cpu)`` are CPU
        configurations, rows ``[n_cpu, n_cpu + n_gpu)`` are GPU.
    cpu_slice, gpu_slice:
        The corresponding row slices.
    X_perf_cpu, X_perf_gpu:
        Performance design matrices (one row per configuration of the
        device block).
    X_power_cpu, X_power_gpu:
        Power design matrices (voltage-aware regressors; the
        sample-power anchor columns are appended at prediction time).
    """

    def __init__(self, configs: Sequence[Configuration]) -> None:
        if not configs:
            raise ValueError("config table needs at least one configuration")
        cpu = [c for c in configs if not c.is_gpu]
        gpu = [c for c in configs if c.is_gpu]
        ordered = tuple(cpu + gpu)
        if ordered != tuple(configs):
            raise ValueError(
                "configurations must come as a contiguous CPU block "
                "followed by a contiguous GPU block (space order)"
            )
        self.configs: tuple[Configuration, ...] = ordered
        self.index: Mapping[Configuration, int] = {
            cfg: i for i, cfg in enumerate(ordered)
        }
        self.n_cpu: int = len(cpu)
        self.n_gpu: int = len(gpu)
        self.cpu_slice = slice(0, self.n_cpu)
        self.gpu_slice = slice(self.n_cpu, self.n_cpu + self.n_gpu)
        self.X_perf_cpu = _frozen(np.vstack([design_row(c) for c in cpu]))
        self.X_power_cpu = _frozen(np.vstack([power_design_row(c) for c in cpu]))
        if gpu:
            self.X_perf_gpu = _frozen(np.vstack([design_row(c) for c in gpu]))
            self.X_power_gpu = _frozen(
                np.vstack([power_design_row(c) for c in gpu])
            )
        else:  # pragma: no cover - the simulated machine always has a GPU
            self.X_perf_gpu = _frozen(np.empty((0, 3)))
            self.X_power_gpu = _frozen(np.empty((0, 6)))

    # -- shared construction ---------------------------------------------------

    _CACHE: dict[tuple[Configuration, ...], "ConfigTable"] = {}

    @classmethod
    def for_space(cls, space: BlockConfigSpace) -> "ConfigTable":
        """The process-wide table for ``space``.

        Tables are cached by the space's configuration tuple, so every
        space instance enumerating the same machine maps
        to one shared table.
        """
        key = tuple(space)
        table = cls._CACHE.get(key)
        if table is None:
            table = cls._CACHE.setdefault(key, cls(key))
        return table

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.configs)

    def __getitem__(self, i: int) -> Configuration:
        return self.configs[i]

    def rows_for(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Row indices of ``configs`` in table order (raises on a
        configuration outside the table)."""
        try:
            return np.fromiter(
                (self.index[c] for c in configs), dtype=np.intp, count=len(configs)
            )
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"{exc.args[0]} is not in the table") from None

    def assemble(
        self, cpu_values: np.ndarray, gpu_values: np.ndarray
    ) -> np.ndarray:
        """Join per-device prediction vectors into one space-ordered
        vector (CPU block then GPU block)."""
        out = np.empty(len(self.configs))
        out[self.cpu_slice] = cpu_values
        out[self.gpu_slice] = gpu_values
        return out
