"""Vectorized multi-objective search over generated config spaces.

Two engines, one contract: feed genomes through
:meth:`~repro.search.space.GeneratedConfigSpace.evaluate` and stream
every evaluated point into an :class:`~repro.search.archive.
EpsilonArchive`.

* :func:`nsga2_search` — NSGA-II-style (μ+λ) evolution: vectorized
  2-D non-dominated ranking (one sort, then peeling only the fronts
  selection keeps), segmented crowding-distance diversity, binary
  tournaments, uniform crossover and neighbour-step mutation over
  integer genome matrices.
  All inner loops are numpy over ``(n, n_axes)`` arrays.
* :func:`random_search` — the bounded random-sampling baseline the
  benchmark compares against (same archive, same evaluation path).

Determinism: one :class:`numpy.random.SeedSequence` per run, spawned
into one child generator per generation, each consumed in a fixed call
order — archives are bit-identical per seed regardless of evaluation
parallelism (chunked threads only split pure row ranges).

Parallelism: ``n_jobs`` resolves through the same ``REPRO_NJOBS``
convention as LOOCV (:func:`repro.evaluation.loocv.resolve_n_jobs`);
an attached fault plan forces the serial path, mirroring
``run_loocv``'s fault semantics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.frontier import pareto_staircase
from repro.search.archive import EpsilonArchive
from repro.search.space import GeneratedConfigSpace
from repro.telemetry import counter, gauge, trace_span

__all__ = [
    "SearchConfig",
    "SearchResult",
    "hypervolume",
    "nsga2_search",
    "random_search",
]

_GENERATIONS = counter("search.generations")
_EVALUATIONS = counter("search.evaluations")
_ARCHIVE_SIZE = gauge("search.archive_size")
_HYPERVOLUME = gauge("search.hypervolume")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run (see docs/SEARCH.md for guidance).

    Attributes
    ----------
    population:
        Parent population size μ (λ offspring per generation equals μ).
    generations:
        Generation budget; the run may stop earlier on
        ``max_evaluations``.
    seed:
        Root of the run's ``SeedSequence``; same seed → bit-identical
        archive.
    epsilon:
        Archive ε-dominance resolution (0 = exact archive).
    crossover_rate:
        Per-offspring probability of uniform crossover (else clone).
    mutation_rate:
        Per-gene mutation probability; ``None`` → ``1 / n_axes``.
    max_evaluations:
        Hard evaluation budget across init + all generations.
    n_jobs:
        Evaluation parallelism; ``None`` → ``REPRO_NJOBS`` or serial.
    """

    population: int = 96
    generations: int = 40
    seed: int = 0
    epsilon: float = 1e-4
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    max_evaluations: int | None = None
    n_jobs: int | None = None

    def __post_init__(self) -> None:
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")
        if self.max_evaluations is not None and self.max_evaluations < self.population:
            raise ValueError("max_evaluations must be >= population")


@dataclass
class SearchResult:
    """Outcome of one search run."""

    archive: EpsilonArchive
    evaluations: int
    generations: int
    #: ``(cumulative evaluations, archive hypervolume)`` per generation.
    history: list[tuple[int, float]] = field(default_factory=list)
    #: Reference power (watts) used for the hypervolume series.
    hypervolume_ref_w: float = 0.0
    elapsed_s: float = 0.0

    @property
    def hypervolume(self) -> float:
        """Final archive hypervolume against the run's reference."""
        return self.history[-1][1] if self.history else 0.0


# -- scalarized helpers --------------------------------------------------------


def hypervolume(
    powers: np.ndarray, rates: np.ndarray, ref_power_w: float
) -> float:
    """2-D hypervolume of a point set against ``(ref_power_w, 0)``.

    Power is minimized, rate maximized: the dominated region is the
    union of rectangles ``[power_i, ref] × [0, rate_i]``.  Points at or
    beyond the reference power contribute nothing.
    """
    powers = np.asarray(powers, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    inside = powers < ref_power_w
    if not inside.any():
        return 0.0
    pw, rt = powers[inside], rates[inside]
    keep = pareto_staircase(pw, rt)
    return _staircase_area(pw[keep], rt[keep], ref_power_w)


def _staircase_area(
    powers: np.ndarray, rates: np.ndarray, ref_power_w: float
) -> float:
    """Area under a staircase whose powers (all below the reference)
    and rates both strictly increase."""
    steps = rates - np.concatenate(([0.0], rates[:-1]))
    return float(np.sum((ref_power_w - powers) * steps))


def _archive_hypervolume(archive: EpsilonArchive, ref_power_w: float) -> float:
    """:func:`hypervolume` of an archive, which already is a strictly
    increasing staircase: only the points beyond the reference drop
    (all of them for a NaN reference, as in :func:`hypervolume`)."""
    inside = int(np.count_nonzero(archive.powers < ref_power_w))
    return _staircase_area(
        archive.powers[:inside], archive.performances[:inside], ref_power_w
    )


def non_dominated_rank(
    powers: np.ndarray, rates: np.ndarray, stop_at: int | None = None
) -> np.ndarray:
    """Pareto front rank per point (0 = non-dominated), vectorized.

    Sorts once by (power asc, rate desc) and peels fronts over that
    fixed order (what remains of a sorted sequence stays sorted), one
    sweep per front instead of the classic O(n²) dominance matrix.
    With ``stop_at``, peeling stops once the ranked fronts hold at
    least that many points; every point left shares the next rank.
    """
    n = len(powers)
    order = np.lexsort((-rates, powers))
    pw, rt = powers[order], rates[order]
    ranks = np.empty(n, dtype=np.int64)
    remaining = np.arange(n)
    front = 0
    while len(remaining) and (stop_at is None or n - len(remaining) < stop_at):
        mask = _front_membership(pw[remaining], rt[remaining])
        ranks[order[remaining[mask]]] = front
        remaining = remaining[~mask]
        front += 1
    ranks[order[remaining]] = front
    return ranks


def _front_membership(pw: np.ndarray, rt: np.ndarray) -> np.ndarray:
    """Non-dominated mask over points sorted by (power asc, rate desc)
    (weak dominance: duplicates of a frontier point count as members)."""
    # Group points by equal power; each group's first element carries
    # the group's max rate.
    new_power = np.empty(len(pw), dtype=bool)
    new_power[0] = True
    new_power[1:] = pw[1:] != pw[:-1]
    group_id = np.cumsum(new_power) - 1
    group_best = rt[new_power]
    # Best rate over all strictly cheaper groups.
    prev_best = np.concatenate(
        [[-np.inf], np.maximum.accumulate(group_best)[:-1]]
    )
    # A point survives iff no strictly cheaper point matches its rate
    # (rate > cheaper_best: equality loses — strict in power) and no
    # equal-power point strictly beats it (rate == group leader's;
    # exact duplicates of the leader survive — weak dominance needs one
    # strict objective).
    return (rt > prev_best[group_id]) & (rt == group_best[group_id])


def crowding_distance(
    powers: np.ndarray, rates: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """NSGA-II crowding distance per point, all fronts in one pass.

    Per objective, one stable sort by (rank, value) lays the fronts out
    back to back with equal values in index order.  Each front's first
    and last point get ``inf`` (so fronts of <= 2 points are all
    ``inf``); interior points add ``(next - prev) / span``, or nothing
    when the front's span is 0.  The power pass is added before the rate
    pass, the order a front-by-front loop adds them in.
    """
    n = len(ranks)
    crowd = np.zeros(n, dtype=np.float64)
    if not n:
        return crowd
    for values in (powers, rates):
        order = np.lexsort((values, ranks))
        v, r = values[order], ranks[order]
        first = np.concatenate(([True], r[1:] != r[:-1]))
        last = np.concatenate((first[1:], [True]))
        span = (v[last] - v[first])[np.cumsum(first) - 1]
        inner = ~(first | last)
        gaps = np.full(n, np.inf)
        gaps[inner] = np.divide(
            (v[2:] - v[:-2])[inner[1:-1]],
            span[inner],
            out=np.zeros(np.count_nonzero(inner)),
            where=span[inner] > 0,
        )
        crowd[order] += gaps
    return crowd


# -- the engines ---------------------------------------------------------------


def _resolve_jobs(n_jobs: int | None, fault_plan) -> int:
    if fault_plan is not None:
        return 1  # fault plans pin the serial path, as in run_loocv
    from repro.evaluation.loocv import resolve_n_jobs

    return max(1, resolve_n_jobs(n_jobs))


def _tournament(
    rng: np.random.Generator,
    n_pick: int,
    ranks: np.ndarray,
    crowd: np.ndarray,
) -> np.ndarray:
    """Binary tournament winners: lower rank, then higher crowding,
    then the lower index (deterministic)."""
    a = rng.integers(0, len(ranks), size=n_pick)
    b = rng.integers(0, len(ranks), size=n_pick)
    a_wins = (ranks[a] < ranks[b]) | (
        (ranks[a] == ranks[b]) & (crowd[a] >= crowd[b])
    )
    return np.where(a_wins, a, b)


def _make_offspring(
    rng: np.random.Generator,
    space: GeneratedConfigSpace,
    parents: np.ndarray,
    ranks: np.ndarray,
    crowd: np.ndarray,
    cfg: SearchConfig,
) -> np.ndarray:
    n = len(parents)
    mothers = parents[_tournament(rng, n, ranks, crowd)]
    fathers = parents[_tournament(rng, n, ranks, crowd)]
    # Uniform crossover per gene, gated per offspring.
    take_father = rng.random(mothers.shape) < 0.5
    cross = rng.random(n) < cfg.crossover_rate
    children = np.where(take_father & cross[:, None], fathers, mothers)
    # Mutation: mostly ±1 neighbour steps (axes order their levels), an
    # occasional uniform resample for long jumps.
    pm = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / space.n_axes
    mutate = rng.random(children.shape) < pm
    steps = rng.integers(0, 2, size=children.shape) * 2 - 1  # ±1
    resample = rng.integers(0, space.radices, size=children.shape)
    jump = rng.random(children.shape) < 0.2
    stepped = np.clip(children + steps, 0, space.radices - 1)
    mutated = np.where(jump, resample, stepped)
    children = np.where(mutate, mutated, children)
    return space.canonicalize(children)


def nsga2_search(
    space: GeneratedConfigSpace,
    kernel,
    config: SearchConfig | None = None,
    *,
    fault_plan=None,
    hypervolume_ref_w: float | None = None,
) -> SearchResult:
    """Discover a near-Pareto (rate, power) frontier of ``space``.

    Returns a :class:`SearchResult` whose archive is bit-identical for
    a given ``(space, kernel, config)`` — see the module docstring.
    """
    cfg = config if config is not None else SearchConfig()
    n_jobs = _resolve_jobs(cfg.n_jobs, fault_plan)
    archive = EpsilonArchive(space, epsilon=cfg.epsilon)
    children_seeds = np.random.SeedSequence(cfg.seed).spawn(
        cfg.generations + 1
    )
    start = time.perf_counter()
    history: list[tuple[int, float]] = []
    evaluations = 0
    generations_run = 0

    with trace_span("search/run"):
        with trace_span("search/init"):
            rng = np.random.default_rng(children_seeds[0])
            pop = space.sample_genomes(rng, cfg.population)
            rates, powers = space.evaluate(kernel, pop, n_jobs=n_jobs)
            evaluations += len(pop)
            _EVALUATIONS.inc(len(pop))
            archive.insert(pop, powers, rates)
        ref = (
            hypervolume_ref_w
            if hypervolume_ref_w is not None
            else float(powers.max()) * 1.05
        )
        history.append((evaluations, _archive_hypervolume(archive, ref)))
        _ARCHIVE_SIZE.set(len(archive))
        _HYPERVOLUME.set(history[-1][1])
        ranks = non_dominated_rank(powers, rates)

        for gen in range(cfg.generations):
            if (
                cfg.max_evaluations is not None
                and evaluations + cfg.population > cfg.max_evaluations
            ):
                break
            with trace_span("search/generation"):
                rng = np.random.default_rng(children_seeds[gen + 1])
                crowd = crowding_distance(powers, rates, ranks)
                children = _make_offspring(rng, space, pop, ranks, crowd, cfg)
                with trace_span("search/evaluate"):
                    c_rates, c_powers = space.evaluate(
                        kernel, children, n_jobs=n_jobs
                    )
                evaluations += len(children)
                _EVALUATIONS.inc(len(children))
                _GENERATIONS.inc()
                generations_run += 1
                archive.insert(children, c_powers, c_rates)

                # (μ+λ) environmental selection over parents+children.
                all_pop = np.concatenate([pop, children])
                all_rates = np.concatenate([rates, c_rates])
                all_powers = np.concatenate([powers, c_powers])
                # The first μ by (rank, -crowd, index) all lie in the
                # fewest whole fronts holding μ points: ranking stops
                # there and crowding skips the rest.  Survivors hold every
                # lower front whole, so their ranks carry over.
                all_ranks = non_dominated_rank(
                    all_powers, all_rates, stop_at=cfg.population
                )
                cut = np.partition(all_ranks, cfg.population - 1)[cfg.population - 1]
                kept = np.flatnonzero(all_ranks <= cut)
                all_crowd = crowding_distance(
                    all_powers[kept], all_rates[kept], all_ranks[kept]
                )
                take = kept[np.lexsort((-all_crowd, all_ranks[kept]))[: cfg.population]]
                pop = all_pop[take]
                rates = all_rates[take]
                powers = all_powers[take]
                ranks = all_ranks[take]

            history.append((evaluations, _archive_hypervolume(archive, ref)))
            _ARCHIVE_SIZE.set(len(archive))
            _HYPERVOLUME.set(history[-1][1])

    return SearchResult(
        archive=archive,
        evaluations=evaluations,
        generations=generations_run,
        history=history,
        hypervolume_ref_w=ref,
        elapsed_s=time.perf_counter() - start,
    )


def random_search(
    space: GeneratedConfigSpace,
    kernel,
    budget: int,
    *,
    seed: int = 0,
    epsilon: float = 1e-4,
    batch: int = 4096,
    n_jobs: int | None = None,
    fault_plan=None,
    hypervolume_ref_w: float | None = None,
) -> SearchResult:
    """Bounded uniform random sampling — the baseline the search engine
    must beat on evaluations-to-hypervolume (same archive semantics)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n_jobs_r = _resolve_jobs(n_jobs, fault_plan)
    archive = EpsilonArchive(space, epsilon=epsilon)
    seeds = np.random.SeedSequence(seed).spawn(
        (budget + batch - 1) // batch
    )
    start = time.perf_counter()
    history: list[tuple[int, float]] = []
    evaluations = 0
    ref = hypervolume_ref_w

    with trace_span("search/run"):
        for i, child_seed in enumerate(seeds):
            n = min(batch, budget - evaluations)
            rng = np.random.default_rng(child_seed)
            genomes = space.sample_genomes(rng, n)
            with trace_span("search/evaluate"):
                rates, powers = space.evaluate(kernel, genomes, n_jobs=n_jobs_r)
            evaluations += n
            _EVALUATIONS.inc(n)
            archive.insert(genomes, powers, rates)
            if ref is None:
                ref = float(powers.max()) * 1.05
            history.append((evaluations, _archive_hypervolume(archive, ref)))
            _ARCHIVE_SIZE.set(len(archive))
            _HYPERVOLUME.set(history[-1][1])

    return SearchResult(
        archive=archive,
        evaluations=evaluations,
        generations=0,
        history=history,
        hypervolume_ref_w=float(ref),
        elapsed_s=time.perf_counter() - start,
    )
