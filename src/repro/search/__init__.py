"""Design-space exploration: search-based Pareto frontier discovery.

Scales frontier construction past exhaustive enumeration (docs/
SEARCH.md): describe a combinatorial space lazily
(:class:`GeneratedConfigSpace`), search it with a vectorized
multi-objective engine (:func:`nsga2_search`, :func:`random_search`),
collect the result in a deterministic ε-dominance archive
(:class:`EpsilonArchive`), validate against exact enumeration where
that is feasible (:func:`validate_against_exact`), and pack discovered
frontiers into a fleet pool (:func:`pool_from_archives`).
"""

from repro.search.adapters import pool_from_archives
from repro.search.archive import EpsilonArchive
from repro.search.engine import (
    SearchConfig,
    SearchResult,
    hypervolume,
    nsga2_search,
    random_search,
)
from repro.search.space import (
    ENUMERATION_LIMIT,
    FactorAxis,
    GeneratedConfig,
    GeneratedConfigSpace,
    SpaceTooLargeError,
    backend_space,
    demo_space,
    paper_space,
)
from repro.search.validate import ValidationReport, validate_against_exact

__all__ = [
    "ENUMERATION_LIMIT",
    "EpsilonArchive",
    "FactorAxis",
    "GeneratedConfig",
    "GeneratedConfigSpace",
    "SearchConfig",
    "SearchResult",
    "SpaceTooLargeError",
    "ValidationReport",
    "backend_space",
    "demo_space",
    "hypervolume",
    "nsga2_search",
    "paper_space",
    "pool_from_archives",
    "random_search",
    "validate_against_exact",
]
