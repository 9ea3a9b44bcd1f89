"""Deterministic ε-dominance archive for (rate, power) search.

The archive is the search engine's answer store: every genome the
engine ever evaluates streams through :meth:`EpsilonArchive.insert`,
and what survives is a bounded, non-dominated approximation of the
space's Pareto frontier.  Its ``powers`` / ``performances`` arrays keep
:class:`~repro.core.frontier.ParetoFrontier`'s strictly-increasing
invariants, so adapters pack them straight into the other layers'
types; cap queries go through :meth:`EpsilonArchive.to_frontier`.

ε-dominance (Laumanns et al.): objective space is cut into geometric
boxes of width ``(1+ε)`` — box index ``floor(ln v / ln(1+ε))`` per
objective — and at most one point survives per box, with boxes that are
dominated *at box level* removed entirely.  This bounds archive size
independently of how many points the search evaluates, while
guaranteeing every seen point is within a factor ``(1+ε)`` of some
archived point in both objectives.  ``ε = 0`` degrades to an exact
non-dominated archive with duplicate collapsing.

Search archives hit ties constantly (canonicalization collapses axes,
mutation revisits points), so determinism cannot lean on insertion
order: the archive **recomputes its contents from the full union** on
every insert with order-free tie-breaks — within a box the
representative is the (max rate, then min power, then lexicographically
smallest genome) — making final contents a pure function of the *set*
of points seen, bit-identical across runs and insertion orders.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.frontier import pareto_staircase

__all__ = ["EpsilonArchive"]


def _box_indices(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Geometric ε-box index per strictly-positive objective value."""
    return np.floor(np.log(values) / np.log1p(epsilon)).astype(np.int64)


class EpsilonArchive:
    """Bounded non-dominated archive over genomes of one space.

    Parameters
    ----------
    space:
        The :class:`~repro.search.space.GeneratedConfigSpace` the
        genomes belong to (used for decoding payloads on export).
    epsilon:
        ε-dominance resolution; ``0`` keeps the exact non-dominated set.
    """

    def __init__(self, space, *, epsilon: float = 0.0) -> None:
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError(f"epsilon={epsilon} must be finite and >= 0")
        self.space = space
        self.epsilon = float(epsilon)
        self._genomes = np.empty((0, space.n_axes), dtype=np.int64)
        self._powers = np.empty(0, dtype=np.float64)
        self._rates = np.empty(0, dtype=np.float64)

    # -- maintenance -----------------------------------------------------------

    def insert(
        self, genomes: np.ndarray, powers: np.ndarray, rates: np.ndarray
    ) -> int:
        """Fold a batch of evaluated genomes in; returns archive size.

        Finite, positive objectives are required (both are physical
        rates and watts); violations indicate a broken evaluation model.
        """
        genomes = self.space.validate_genomes(genomes)
        powers = np.asarray(powers, dtype=np.float64).reshape(-1)
        rates = np.asarray(rates, dtype=np.float64).reshape(-1)
        if not (len(genomes) == len(powers) == len(rates)):
            raise ValueError("genomes/powers/rates length mismatch")
        if not (np.isfinite(powers).all() and np.isfinite(rates).all()):
            raise ValueError("powers and rates must be finite")
        if len(powers) and (powers.min() <= 0 or rates.min() <= 0):
            raise ValueError("powers and rates must be strictly positive")

        g = np.concatenate([self._genomes, genomes])
        pw = np.concatenate([self._powers, powers])
        rt = np.concatenate([self._rates, rates])
        if not len(g):
            return 0

        if self.epsilon > 0.0:
            bp = _box_indices(pw, self.epsilon)
            br = _box_indices(rt, self.epsilon)
        else:
            bp, br = pw, rt  # exact: each distinct (power, rate) is a box

        # Stage 1 — one representative per box, order-free tie-break:
        # highest rate, then lowest power, then smallest genome (its
        # columns as trailing keys, first column most significant).
        order = np.lexsort((*g.T[::-1], pw, -rt, br, bp))
        bp_s, br_s = bp[order], br[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (bp_s[1:] != bp_s[:-1]) | (br_s[1:] != br_s[:-1])
        reps = order[first]

        # Stage 2 — box-level dominance sweep: a box survives iff its
        # rate box strictly exceeds every cheaper box's (same-power-box
        # lower-rate boxes fall to the leader of their column).
        kept = reps[pareto_staircase(bp[reps], br[reps])]

        self._genomes = np.ascontiguousarray(g[kept])
        self._powers = np.ascontiguousarray(pw[kept])
        self._rates = np.ascontiguousarray(rt[kept])
        return len(kept)

    # -- invariant views -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._powers)

    @property
    def genomes(self) -> np.ndarray:
        """Archived genomes, ascending in power."""
        return self._genomes

    @property
    def powers(self) -> np.ndarray:
        """Archived power levels (watts), strictly increasing."""
        return self._powers

    @property
    def performances(self) -> np.ndarray:
        """Archived rates, strictly increasing (with powers)."""
        return self._rates

    # -- exports ---------------------------------------------------------------

    def configs(self) -> list:
        """Decoded config payloads, ascending in power."""
        return self.space.payloads(self._genomes)

    def to_frontier(self):
        """The archive as a real :class:`~repro.core.frontier.
        ParetoFrontier` (payloads decoded once)."""
        from repro.core.frontier import ParetoFrontier

        if not len(self):
            raise ValueError("archive is empty")
        return ParetoFrontier.from_arrays(
            self.configs(), self._powers.copy(), self._rates.copy()
        )
