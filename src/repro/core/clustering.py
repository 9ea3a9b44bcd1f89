"""Relational clustering of kernels by frontier shape.

Paper Section III-B: from the frontier dissimilarity matrix "we perform
relational clustering via the R Fossil package.  This groups the kernels
into clusters according to similarities between the order of
configurations along the kernels' respective power-performance
frontiers."  The paper found five clusters optimal for its suite —
"using fewer clusters resulted in over-generalized models, and using
more clusters resulted in over-specialized models" — a trade-off probed
by the cluster-count ablation benchmark.

The relational clusterer is PAM k-medoids: it consumes only the
dissimilarity matrix, never coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from repro.core.dissimilarity import dissimilarity_matrix
from repro.core.frontier import ParetoFrontier
from repro.stats.kmedoids import pam, silhouette_score

__all__ = [
    "ClusteringResult",
    "cluster_kernels",
    "resolve_warm_medoids",
]

#: The paper's empirically chosen cluster count.
DEFAULT_N_CLUSTERS: int = 5


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of clustering the training kernels.

    Attributes
    ----------
    labels:
        Cluster index per kernel uid.
    n_clusters:
        Number of clusters requested.
    silhouette:
        Mean silhouette width of the clustering (NaN for one cluster).
    medoid_uids:
        Medoid kernel per cluster.
    """

    labels: Mapping[str, int]
    n_clusters: int
    silhouette: float
    medoid_uids: tuple[str, ...]

    def members(self, cluster: int) -> list[str]:
        """Kernel uids assigned to one cluster."""
        return [uid for uid, c in self.labels.items() if c == cluster]

    def sizes(self) -> list[int]:
        """Cluster sizes, indexed by cluster id."""
        return [len(self.members(c)) for c in range(self.n_clusters)]


def cluster_kernels(
    frontiers: Mapping[str, ParetoFrontier] | Sequence[str],
    *,
    n_clusters: int = DEFAULT_N_CLUSTERS,
    composition_weight: float | None = None,
    dissimilarity: np.ndarray | None = None,
    initial_medoid_uids: Sequence[str] | None = None,
) -> ClusteringResult:
    """Group kernels into clusters by frontier similarity.

    Parameters
    ----------
    frontiers:
        Per-kernel Pareto frontiers, keyed by kernel uid (insertion
        order defines matrix order) — or, when ``dissimilarity`` is
        precomputed, just the kernel uids in matrix order (the frontier
        values are only ever consumed to build the matrix).
    n_clusters:
        Cluster count (paper default: 5).
    composition_weight:
        Blend between frontier-composition and frontier-order terms in
        the dissimilarity (see
        :func:`repro.core.dissimilarity.frontier_dissimilarity`);
        ``None`` uses the package default.
    dissimilarity:
        Optional precomputed dissimilarity matrix in ``frontiers``
        iteration order (e.g. a
        :class:`~repro.core.dissimilarity.DissimilarityCache`
        submatrix).  When given, ``composition_weight`` is assumed to be
        already baked in and the matrix is used as-is.
    initial_medoid_uids:
        Optional warm-start seeding for PAM (see
        :func:`resolve_warm_medoids`).  Ignored unless every uid is
        present and distinct and exactly ``n_clusters`` are given —
        anything else falls back to the cold BUILD phase, so a stale or
        partial seeding can never fail a clustering that would
        otherwise succeed.
    """
    if isinstance(frontiers, Mapping):
        uids = list(frontiers.keys())
    else:
        uids = list(frontiers)
        if dissimilarity is None:
            raise ValueError(
                "clustering by uids alone requires a precomputed "
                "dissimilarity matrix"
            )
    if n_clusters < 1 or n_clusters > len(uids):
        raise ValueError(
            f"n_clusters={n_clusters} invalid for {len(uids)} kernels"
        )
    if dissimilarity is not None:
        D = np.asarray(dissimilarity, dtype=float)
        if D.shape != (len(uids), len(uids)):
            raise ValueError(
                f"dissimilarity shape {D.shape} does not match "
                f"{len(uids)} kernels"
            )
    else:
        kwargs = {}
        if composition_weight is not None:
            kwargs["composition_weight"] = composition_weight
        D = dissimilarity_matrix(frontiers, **kwargs)

    init = None
    if initial_medoid_uids is not None and len(initial_medoid_uids) == n_clusters:
        pos = {u: i for i, u in enumerate(uids)}
        seeds = [pos[u] for u in initial_medoid_uids if u in pos]
        if len(seeds) == n_clusters and len(set(seeds)) == n_clusters:
            init = seeds
    result = pam(D, n_clusters, init_medoids=init)
    labels = result.labels
    medoids = tuple(uids[m] for m in result.medoids)

    sil = silhouette_score(D, labels) if n_clusters > 1 else float("nan")
    return ClusteringResult(
        labels={uid: int(c) for uid, c in zip(uids, labels)},
        n_clusters=n_clusters,
        silhouette=float(sil) if not np.isnan(sil) else float("nan"),
        medoid_uids=medoids,
    )


def resolve_warm_medoids(
    reference: ClusteringResult,
    reference_uids: Sequence[str],
    reference_dissimilarity: np.ndarray,
    present_uids: Collection[str],
) -> tuple[str, ...] | None:
    """Project a reference clustering's medoids onto a kernel subset.

    For each reference cluster, the seeding keeps its medoid when the
    subset retains it; otherwise the *best present member* of that
    cluster stands in — the member minimizing total dissimilarity to
    the cluster's other present members (the medoid of the surviving
    sub-cluster), which is exactly the point SWAP would have promoted.
    Used by the leave-one-out driver to seed every fold's PAM from the
    full-suite clustering.

    Returns ``None`` when no valid seeding exists (a cluster lost all
    members to the holdout, or replacements collide), in which case the
    caller should let PAM run its cold BUILD phase.
    """
    present = set(present_uids)
    pos = {u: i for i, u in enumerate(reference_uids)}
    D = np.asarray(reference_dissimilarity, dtype=float)
    by_cluster: dict[int, list[str]] = {}
    for uid, c in reference.labels.items():
        by_cluster.setdefault(c, []).append(uid)

    seeds: list[str] = []
    for c in range(reference.n_clusters):
        medoid = reference.medoid_uids[c] if c < len(reference.medoid_uids) else None
        if medoid is not None and medoid in present:
            seeds.append(medoid)
            continue
        members = [u for u in by_cluster.get(c, ()) if u in present]
        if not members:
            return None
        rows = np.array([pos[u] for u in members])
        sub = D[np.ix_(rows, rows)]
        seeds.append(members[int(np.argmin(sub.sum(axis=1)))])
    if len(set(seeds)) != len(seeds):
        return None
    return tuple(seeds)
