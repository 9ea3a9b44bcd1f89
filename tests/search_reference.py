"""Front-by-front reference for :func:`repro.search.engine.nsga2_search`.

The engine ranks with one sort, stops peeling once the kept fronts fill
the population, carries survivor ranks into the next generation,
computes crowding for all fronts in one segmented pass and breaks
archive ties on genome columns.  This module keeps the straightforward
generation loop those steps replaced — a full O(n²) ranking of every
population, one crowding loop per front, an archive that ranks genomes
with ``np.unique`` and a hypervolume recomputed from the raw point set —
as the oracle the engine must reproduce bit for bit: same archive, same
``(evaluations, hypervolume)`` history, same generation count.
"""

from __future__ import annotations

import numpy as np

from repro.search.archive import EpsilonArchive, _box_indices
from repro.search.engine import (
    SearchConfig,
    SearchResult,
    _make_offspring,
    _resolve_jobs,
    hypervolume,
)


def _non_dominated_rank_reference(
    powers: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """O(n²) Pareto front rank per point (0 = non-dominated)."""
    n = len(powers)
    dominated_by = np.zeros((n, n), dtype=bool)
    for i in range(n):
        dominated_by[i] = (
            (powers <= powers[i])
            & (rates >= rates[i])
            & ((powers < powers[i]) | (rates > rates[i]))
        )
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    front = 0
    while remaining.any():
        on_front = remaining & ~np.any(
            dominated_by[:, :] & remaining[None, :], axis=1
        )
        ranks[on_front] = front
        remaining &= ~on_front
        front += 1
    return ranks


def crowding_distance_reference(
    powers: np.ndarray, rates: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """NSGA-II crowding distance per point, computed front by front."""
    n = len(powers)
    crowd = np.zeros(n, dtype=np.float64)
    for front in range(int(ranks.max()) + 1 if n else 0):
        idx = np.flatnonzero(ranks == front)
        if len(idx) <= 2:
            crowd[idx] = np.inf
            continue
        for values in (powers[idx], rates[idx]):
            order = np.argsort(values, kind="stable")
            span = values[order[-1]] - values[order[0]]
            crowd[idx[order[0]]] = np.inf
            crowd[idx[order[-1]]] = np.inf
            if span > 0:
                gaps = (values[order[2:]] - values[order[:-2]]) / span
                crowd[idx[order[1:-1]]] += gaps
    return crowd


class ReferenceArchive(EpsilonArchive):
    """:class:`EpsilonArchive` whose genome tie-break ranks rows with
    ``np.unique(axis=0)``."""

    def insert(self, genomes, powers, rates) -> int:
        genomes = self.space.validate_genomes(genomes)
        g = np.concatenate([self._genomes, genomes])
        pw = np.concatenate([self._powers, np.asarray(powers, dtype=np.float64)])
        rt = np.concatenate([self._rates, np.asarray(rates, dtype=np.float64)])
        if not len(g):
            return 0
        if self.epsilon > 0.0:
            bp = _box_indices(pw, self.epsilon)
            br = _box_indices(rt, self.epsilon)
        else:
            bp, br = pw, rt
        grank = np.unique(g, axis=0, return_inverse=True)[1].reshape(-1)
        order = np.lexsort((grank, pw, -rt, br, bp))
        bp_s, br_s = bp[order], br[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (bp_s[1:] != bp_s[:-1]) | (br_s[1:] != br_s[:-1])
        reps = order[first]
        rp, rr = bp[reps], br[reps]
        sweep = np.lexsort((-rr, rp))
        rr_s = rr[sweep]
        keep = np.empty(len(sweep), dtype=bool)
        keep[0] = True
        if len(sweep) > 1:
            keep[1:] = rr_s[1:] > np.maximum.accumulate(rr_s)[:-1]
        kept = reps[sweep[keep]]
        self._genomes = np.ascontiguousarray(g[kept])
        self._powers = np.ascontiguousarray(pw[kept])
        self._rates = np.ascontiguousarray(rt[kept])
        return len(kept)


def reference_nsga2_search(
    space,
    kernel,
    config: SearchConfig | None = None,
    *,
    hypervolume_ref_w: float | None = None,
) -> SearchResult:
    """``nsga2_search(space, kernel, config)``, ranking and crowding
    every population in full, one front at a time."""
    cfg = config if config is not None else SearchConfig()
    n_jobs = _resolve_jobs(cfg.n_jobs, None)
    archive = ReferenceArchive(space, epsilon=cfg.epsilon)
    children_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.generations + 1)
    history: list[tuple[int, float]] = []

    rng = np.random.default_rng(children_seeds[0])
    pop = space.sample_genomes(rng, cfg.population)
    rates, powers = space.evaluate(kernel, pop, n_jobs=n_jobs)
    evaluations = len(pop)
    archive.insert(pop, powers, rates)
    ref = (
        hypervolume_ref_w
        if hypervolume_ref_w is not None
        else float(powers.max()) * 1.05
    )
    history.append((evaluations, hypervolume(archive.powers, archive.performances, ref)))

    generations_run = 0
    for gen in range(cfg.generations):
        if (
            cfg.max_evaluations is not None
            and evaluations + cfg.population > cfg.max_evaluations
        ):
            break
        rng = np.random.default_rng(children_seeds[gen + 1])
        ranks = _non_dominated_rank_reference(powers, rates)
        crowd = crowding_distance_reference(powers, rates, ranks)
        children = _make_offspring(rng, space, pop, ranks, crowd, cfg)
        c_rates, c_powers = space.evaluate(kernel, children, n_jobs=n_jobs)
        evaluations += len(children)
        generations_run += 1
        archive.insert(children, c_powers, c_rates)

        all_pop = np.concatenate([pop, children])
        all_rates = np.concatenate([rates, c_rates])
        all_powers = np.concatenate([powers, c_powers])
        all_ranks = _non_dominated_rank_reference(all_powers, all_rates)
        all_crowd = crowding_distance_reference(all_powers, all_rates, all_ranks)
        order = np.lexsort((np.arange(len(all_pop)), -all_crowd, all_ranks))
        take = order[: cfg.population]
        pop = all_pop[take]
        rates = all_rates[take]
        powers = all_powers[take]
        history.append(
            (evaluations, hypervolume(archive.powers, archive.performances, ref))
        )

    return SearchResult(
        archive=archive,
        evaluations=evaluations,
        generations=generations_run,
        history=history,
        hypervolume_ref_w=ref,
    )
