"""Adapter: discovered archives into the cluster stack.

A search archive's ``powers`` / ``performances`` arrays are strictly
increasing, like a :class:`~repro.core.frontier.ParetoFrontier`'s (and
:meth:`~repro.search.archive.EpsilonArchive.to_frontier` makes it one).
:func:`pool_from_archives` packs them into a
:class:`~repro.cluster.pool.FrontierPool` with one node per archive,
for the fleet allocators.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.search.archive import EpsilonArchive

__all__ = ["pool_from_archives"]


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
