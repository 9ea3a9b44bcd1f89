"""Validation of discovered frontiers against exact enumerated ones.

Two metrics, chosen to match how frontiers are actually *used* by the
rest of the stack (docs/SEARCH.md):

* **Hypervolume ratio** — archive hypervolume over exact-frontier
  hypervolume, shared reference point (5% past the exact frontier's
  maximum power).  Measures overall frontier quality in one number.
* **Per-cap rate regret** — the paper's cap convention (Section V-B:
  caps are the power levels of the exact frontier's own points): for
  every cap, compare the best rate the archive selects against the best
  rate the exact frontier selects.  This is the quantity the
  :class:`~repro.core.scheduler.Scheduler` ultimately cares about — a
  frontier with perfect hypervolume but a hole at one cap level fails
  here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.search.archive import EpsilonArchive
from repro.search.engine import hypervolume
from repro.search.space import GeneratedConfigSpace

__all__ = ["ValidationReport", "validate_against_exact"]


@dataclass(frozen=True)
class ValidationReport:
    """Quality of a discovered frontier vs the exact enumerated one."""

    hypervolume_ratio: float
    max_cap_regret: float
    mean_cap_regret: float
    n_caps: int
    ref_power_w: float
    exact_points: int
    archive_points: int

    def meets(self, *, min_hv_ratio: float, max_regret: float) -> bool:
        """Whether the discovered frontier clears both gates."""
        return (
            self.hypervolume_ratio >= min_hv_ratio
            and self.max_cap_regret <= max_regret
        )


def validate_against_exact(
    space: GeneratedConfigSpace,
    kernel,
    archive: EpsilonArchive,
    *,
    caps: np.ndarray | None = None,
    force: bool = False,
) -> ValidationReport:
    """Score ``archive`` against the space's exact frontier.

    ``caps`` defaults to the exact frontier's own power levels (the
    paper's cap sweep).  ``force`` forwards to
    :meth:`GeneratedConfigSpace.exact_frontier` for spaces above the
    enumeration gate.
    """
    exact = space.exact_frontier(kernel, force=force)
    ref = float(exact.powers[-1]) * 1.05
    hv_exact = hypervolume(exact.powers, exact.performances, ref)
    hv_archive = hypervolume(archive.powers, archive.performances, ref)
    ratio = hv_archive / hv_exact if hv_exact > 0 else 0.0

    sweep = exact.powers if caps is None else np.asarray(caps, dtype=np.float64)

    def rates_under(frontier) -> np.ndarray:
        idx = frontier.indices_under_caps(sweep)
        return np.where(idx >= 0, frontier.performances[np.maximum(idx, 0)], 0.0)

    e_rates = rates_under(exact)
    a_rates = rates_under(archive.to_frontier())
    # Regret only where the exact frontier is feasible at all; an
    # archive that misses a feasible cap entirely scores full regret.
    feasible = e_rates > 0
    regret = np.zeros(len(sweep), dtype=np.float64)
    regret[feasible] = np.clip(
        1.0 - a_rates[feasible] / e_rates[feasible], 0.0, 1.0
    )
    return ValidationReport(
        hypervolume_ratio=float(ratio),
        max_cap_regret=float(regret.max()) if len(regret) else 0.0,
        mean_cap_regret=float(regret.mean()) if len(regret) else 0.0,
        n_caps=int(len(sweep)),
        ref_power_w=ref,
        exact_points=len(exact),
        archive_points=len(archive),
    )
