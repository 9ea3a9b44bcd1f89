"""Adapters: discovered archives into the online/cluster/server stack.

A search archive's ``powers`` / ``performances`` arrays are strictly
increasing, like a :class:`~repro.core.frontier.ParetoFrontier`'s (and
:meth:`~repro.search.archive.EpsilonArchive.to_frontier` makes it one);
these helpers package them into the *owner* types of each layer so
discovered frontiers are drop-in:

* :func:`archive_to_prediction` — a real :class:`~repro.core.predictor.
  KernelPrediction` (array-backed, with conservative synthetic sample
  anchors), consumable by :class:`~repro.core.scheduler.Scheduler`
  ``select`` / ``select_many`` / ``sweep_table`` and publishable into a
  :class:`~repro.server.service.DecisionService` via
  ``publish_predictions``;
* :func:`pool_from_archives` — a :class:`~repro.cluster.pool.
  FrontierPool` with one node per archive, for the fleet allocators.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.search.archive import EpsilonArchive

__all__ = [
    "archive_to_prediction",
    "pool_from_archives",
]

#: Cluster id attached to search-derived predictions: no classification
#: tree produced them, and nothing downstream branches on the value.
SEARCH_CLUSTER_ID: int = -1


def archive_to_prediction(
    archive: EpsilonArchive, kernel_uid: str
) -> "KernelPrediction":
    """Package an archive as an array-backed kernel prediction.

    The sample measurements — mandatory anchors of a prediction — are
    the same deterministic conservative synthetics the fault path uses
    when real sample runs are exhausted, attributed to the sample
    configurations of the archived configurations' machine.
    """
    from repro.core.predictor import KernelPrediction
    from repro.faults import conservative_measurement

    if not len(archive):
        raise ValueError("archive is empty")
    configs = tuple(archive.configs())
    cpu_sample, gpu_sample = configs[0].descriptor.sample_configs()
    return KernelPrediction.from_arrays(
        kernel_uid=kernel_uid,
        cluster=SEARCH_CLUSTER_ID,
        configs=configs,
        index={cfg: i for i, cfg in enumerate(configs)},
        power_w=archive.powers.copy(),
        performance=archive.performances.copy(),
        cpu_sample=conservative_measurement(cpu_sample),
        gpu_sample=conservative_measurement(gpu_sample),
    )


def pool_from_archives(
    archives: Mapping[str, EpsilonArchive],
) -> "FrontierPool":
    """A fleet frontier pool with one node per named archive.

    Each archived point becomes an operating point whose cap and
    expected power are its power level — the same identification the
    per-kernel frontier uses when a node runs one kernel steady-state.
    Archives are strictly increasing in both power and rate, so their
    arrays are already valid node segments.
    """
    from repro.cluster.pool import FrontierPool

    parts = list(archives.values())
    caps = np.concatenate([np.empty(0)] + [a.powers for a in parts])
    return FrontierPool(
        list(archives),
        caps,
        np.concatenate([np.empty(0)] + [a.performances for a in parts]),
        caps,
        np.cumsum([0] + [len(a) for a in parts]),
    )
