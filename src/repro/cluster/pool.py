"""Array-backed frontier pools: the fleet-scale allocation substrate.

``repro.cluster`` was designed around per-node Python objects — a
``dict[str, NodeFrontier]`` per cluster and a Python loop per allocation
step.  That is the right *interface* at 4 nodes and the wrong *engine*
at 100k.  This module packs every node frontier of a fleet into flat
structure-of-arrays storage — the same treatment the prediction engine
gave configuration tables: one ``caps`` / ``rates`` / ``powers`` triple
of float64 arrays holding all frontier points back to back, with
CSR-style ``offsets`` marking where each node's segment starts.

On top of that layout:

* :meth:`FrontierPool.at_caps` answers "best operating point under this
  cap" for *every* node with one segmented cap search, through the
  same :class:`~repro.core.frontier.CapSweepTable` the scheduler uses;
* the allocation kernels (:mod:`repro.cluster.allocation`) read the
  pool's precomputed *step* arrays — marginal ``(extra power, extra
  rate)`` increments — and sorted consumption orders, turning
  water-filling into one argsort plus a prefix-sum budget cut;
* membership is dynamic: nodes leave (:meth:`FrontierPool.deactivate`)
  or rejoin (:meth:`FrontierPool.activate`) without rebuilding the
  packed arrays — derived views are invalidated by a version counter
  and recomputed lazily on the next allocation.

Pools come from real :class:`~repro.cluster.node.NodeFrontier`\\ s
(:meth:`FrontierPool.from_frontiers`) or are synthesized in bulk for
fleet-scale benchmarks (:meth:`FrontierPool.synthesize`), grounding the
hierarchical node → rack → row → datacenter topology of
:class:`~repro.cluster.tree.BudgetTree`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.cluster.node import NodeFrontier, NodeFrontierPoint
from repro.constants import CAP_EPSILON
from repro.core.frontier import CapSweepTable

__all__ = ["FrontierPool"]


class StepBatch(NamedTuple):
    """A CSR batch of allocation groups for the water-filling kernel.

    Group ``g`` owns nodes ``node_off[g]:node_off[g + 1]`` and sorted
    steps ``step_off[g]:step_off[g + 1]``; each group's pieces (step
    order, prefix sums, floor sum ``spent``) are its own view's, laid
    back to back with indices shifted to global positions.  The uniform
    policy needs no step fields and leaves them ``None``.
    """

    node_off: np.ndarray
    node_group: np.ndarray
    caps: np.ndarray
    floor_idx: np.ndarray
    spent: np.ndarray
    step_off: np.ndarray | None = None
    sp: np.ndarray | None = None
    sn: np.ndarray | None = None
    cum: np.ndarray | None = None
    cut_keys: np.ndarray | None = None
    grouped: np.ndarray | None = None
    goff: np.ndarray | None = None
    gkeys: np.ndarray | None = None
    node_band: np.ndarray | None = None


def step_batch(views: Sequence["_PoolView"], policy: str) -> StepBatch:
    """Pack active views, one group each, into a :class:`StepBatch`."""
    sizes = [v.n_nodes for v in views]
    node_off = np.cumsum([0] + sizes)
    point_off = np.cumsum([0] + [v.caps.size for v in views])
    head = (
        node_off,
        np.repeat(np.arange(len(views)), sizes),
        np.concatenate([v.caps for v in views]),
        np.concatenate([v.offsets[:-1] + o for v, o in zip(views, point_off)]),
        np.array([np.sum(v.floors()) for v in views]),
    )
    if policy == "uniform":
        return StepBatch(*head)
    bundles = [v.order_bundle(policy) for v in views]
    step_off = np.cumsum([0] + [b[1].size for b in bundles])
    cum = np.concatenate([b[3] for b in bundles])
    grouped = np.concatenate([b[4] + o for b, o in zip(bundles, step_off)])
    goff = np.concatenate([b[5][:-1] + o for b, o in zip(bundles, step_off)] + [step_off[-1:]])
    # Integer node bands: node j's sorted positions live in
    # [j * span, j * span + n_steps], so "first pending step of every
    # node" is one searchsorted of ``cut + node_band``.
    node_band = (int(step_off[-1]) + 1) * np.arange(node_off[-1])
    return StepBatch(
        *head,
        step_off,
        np.concatenate([b[1] for b in bundles]),
        np.concatenate([b[2] + o for b, o in zip(bundles, node_off)]),
        cum,
        np.repeat(np.arange(len(views)), np.diff(step_off)) + 1j * cum,
        grouped,
        goff,
        grouped + np.repeat(node_band, np.diff(goff)),
        node_band,
    )


def _segmented_cummin(values: np.ndarray, seg_rank: np.ndarray) -> np.ndarray:
    """Running minimum of ``values`` within segments.

    ``seg_rank`` is each element's 0-based position inside its segment;
    segments are contiguous.  Hillis-Steele doubling: O(S log L) for S
    elements and maximum segment length L, all vectorized.
    """
    out = values.copy()
    if out.size == 0:
        return out
    max_rank = int(seg_rank.max())
    length = max_rank + 1
    if out.size % length == 0 and np.array_equal(
        seg_rank, np.tile(np.arange(length), out.size // length)
    ):
        # Uniform contiguous segments (synthesized fleets): a reshape
        # and one accumulate beat the doubling loop's fancy indexing.
        return np.minimum.accumulate(
            values.reshape(-1, length), axis=1
        ).reshape(-1)
    d = 1
    while d <= max_rank:
        idx = np.nonzero(seg_rank >= d)[0]
        # RHS gathers are evaluated before assignment (Jacobi update),
        # and over-wide windows are harmless for min, so this is exact.
        out[idx] = np.minimum(out[idx], out[idx - d])
        d *= 2
    return out


class _PoolView:
    """Immutable compacted view of a pool's *active* nodes.

    Holds the flat point arrays plus every derived structure the
    allocation kernels need — step arrays, per-policy sorted consumption
    orders with prefix sums, and the per-node cap table behind
    :meth:`at_caps_indices`.  All derived pieces are computed lazily and
    cached; the owning pool throws the whole view away when membership
    changes.
    """

    __slots__ = (
        "names",
        "caps",
        "rates",
        "powers",
        "offsets",
        "point_node",
        "name_rank",
        "_steps",
        "_orders",
        "_batches",
        "_table",
    )

    def __init__(
        self,
        names: list[str],
        caps: np.ndarray,
        rates: np.ndarray,
        powers: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.names = names
        self.caps = caps
        self.rates = rates
        self.powers = powers
        self.offsets = offsets
        counts = np.diff(offsets)
        self.point_node = np.repeat(np.arange(len(names)), counts)
        # Heap/scan tie-breaks in the reference allocators compare node
        # *names* lexicographically; precompute each node's rank in
        # name-sorted order so the kernels can match them exactly.
        rank = np.empty(len(names), dtype=np.int64)
        rank[np.argsort(np.array(names, dtype=object), kind="stable")] = np.arange(
            len(names)
        )
        self.name_rank = rank
        self._steps: tuple[np.ndarray, ...] | None = None
        self._orders: dict[str, tuple] = {}
        self._batches: dict[str, StepBatch] = {}
        self._table: CapSweepTable | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    # -- floors -------------------------------------------------------------

    def floors(self) -> np.ndarray:
        """Each node's floor cap (its smallest honourable cap)."""
        return self.caps[self.offsets[:-1]]

    # -- steps --------------------------------------------------------------

    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pool's marginal menu as flat arrays.

        Returns ``(node, power, rate, pre_rate, rank)``: owning node id,
        extra power and extra rate of the step, the node's rate *before*
        the step, and the step's 0-based position within its node.
        Steps of one node are contiguous and in frontier order.
        """
        if self._steps is None:
            counts = np.diff(self.offsets)
            if counts.size and bool(np.all(counts == counts[0])):
                # Uniform per-node point counts (every synthesized
                # fleet): pure reshape arithmetic, no fancy gathers.
                n, k = counts.size, int(counts[0])
                caps2d = self.caps.reshape(n, k)
                rates2d = self.rates.reshape(n, k)
                node = np.repeat(np.arange(n), k - 1)
                self._steps = (
                    node,
                    (caps2d[:, 1:] - caps2d[:, :-1]).reshape(-1),
                    (rates2d[:, 1:] - rates2d[:, :-1]).reshape(-1),
                    rates2d[:, :-1].reshape(-1),
                    np.tile(np.arange(k - 1), n),
                )
            else:
                intra = np.ones(self.caps.size, dtype=bool)
                intra[self.offsets[:-1]] = False
                idx = np.nonzero(intra)[0]
                node = self.point_node[idx]
                self._steps = (
                    node,
                    self.caps[idx] - self.caps[idx - 1],
                    self.rates[idx] - self.rates[idx - 1],
                    self.rates[idx - 1],
                    idx - self.offsets[node] - 1,
                )
        return self._steps

    def order_bundle(self, policy: str) -> tuple:
        """Sorted step consumption order for ``policy`` plus its prefix
        sums: ``(perm, power, node, cum_power, grouped, group_offsets)``.

        * ``greedy`` sorts by descending *exposure utility* — the running
          minimum of marginal rate-per-watt along each node's frontier —
          which provably reproduces the reference heap's pop order
          (ties: node name, then step position; zero-cost steps inherit
          their predecessor's key, or +inf at the segment head, matching
          the heap's take-immediately rule);
        * ``maxmin`` sorts by the rate each node has *before* the step —
          the reference always lifts the lowest-rate node, so the taken
          sequence is exactly the pre-step rates in ascending order
          (ties by name).
        """
        bundle = self._orders.get(policy)
        if bundle is None:
            node, power, rate, pre_rate, rank = self.steps()
            if policy == "greedy":
                utility = np.where(
                    power > 0.0,
                    rate / np.where(power > 0.0, power, 1.0),
                    np.inf,
                )
                key = -_segmented_cummin(utility, rank)
            elif policy == "maxmin":
                key = pre_rate
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown step order {policy!r}")
            # Both tie-break levels (name rank, then step position) fold
            # into one integer key: rank < max_rank + 1 by definition,
            # and the product stays far below 2**63 for any pool that
            # fits in memory.
            rank_span = int(rank.max()) + 1 if rank.size else 1
            tie = self.name_rank[node] * rank_span + rank
            perm = np.lexsort((tie, key))
            sp = power[perm]
            sn = node[perm]
            cum = np.cumsum(sp)
            # Node-grouped positions for the fix-up kernel: each node's
            # step positions in the sorted order, ascending.  Within a
            # node the sort keys are non-increasing with position-order
            # tie-breaks, so perm keeps step order — the plain inverse
            # permutation, laid out node-major like the step arrays, IS
            # the grouped table (no extra sort).
            grouped = np.empty(sp.size, dtype=np.int64)
            grouped[perm] = np.arange(sp.size)
            group_offsets = (self.offsets - np.arange(self.offsets.size)).astype(
                np.int64
            )
            bundle = (perm, sp, sn, cum, grouped, group_offsets)
            self._orders[policy] = bundle
        return bundle

    def step_batch(self, policy: str) -> StepBatch:
        """This view as a one-group :class:`StepBatch` (cached)."""
        batch = self._batches.get(policy)
        if batch is None:
            batch = self._batches[policy] = step_batch([self], policy)
        return batch

    # -- cap lookup ---------------------------------------------------------

    def at_caps_indices(self, caps_w: np.ndarray) -> np.ndarray:
        """Flat point index of the best operating point per node.

        One :class:`~repro.core.frontier.CapSweepTable` lookup with a
        segment per node, whose thresholds are the node's caps scaled by
        ``respects_cap``'s tolerance: each node gets its last point whose
        cap respects the query.  Queries below a node's floor fall back
        to the floor (a node cannot turn off).
        """
        if caps_w.shape != (self.n_nodes,):
            raise ValueError(
                f"expected one cap per active node "
                f"({self.n_nodes}), got shape {caps_w.shape}"
            )
        if self._table is None:
            self._table = CapSweepTable(
                sorted_power_w=self.caps,
                best_at=np.arange(self.caps.size),
                offsets=self.offsets,
                fallback_index=self.offsets[:-1],
                cap_scale=np.full(self.n_nodes, 1.0 + CAP_EPSILON),
            )
        # NaN caps behave like the scalar scan: nothing is feasible, so
        # the floor wins.
        caps_w = np.where(np.isnan(caps_w), -np.inf, caps_w)
        return self._table.lookup(caps_w, np.arange(self.n_nodes))[0]


class FrontierPool:
    """All node frontiers of a fleet, packed into flat numpy arrays.

    Parameters are trusted arrays; use :meth:`from_frontiers` or
    :meth:`synthesize` instead of the constructor.  Per-node segments
    must be sorted by cap with strictly increasing rates — exactly the
    invariant :class:`~repro.cluster.node.NodeFrontier` enforces.
    """

    def __init__(
        self,
        names: Sequence[str],
        caps: np.ndarray,
        rates: np.ndarray,
        powers: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        caps = np.asarray(caps, dtype=np.float64)
        rates = np.asarray(rates, dtype=np.float64)
        powers = np.asarray(powers, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size != len(names) + 1 or (offsets[0] != 0 if offsets.size else False):
            raise ValueError("offsets must have n_nodes + 1 entries starting at 0")
        if caps.shape != rates.shape or caps.shape != powers.shape:
            raise ValueError("caps, rates, and powers must have equal shapes")
        if offsets.size and int(offsets[-1]) != caps.size:
            raise ValueError("offsets must cover the point arrays")
        if np.any(np.diff(offsets) < 1):
            raise ValueError("every node needs at least one frontier point")
        if caps.size and (not np.all(np.isfinite(caps)) or float(caps.min()) < 0.0):
            raise ValueError("caps must be finite and non-negative")
        if caps.size and not (np.all(np.isfinite(rates)) and np.all(np.isfinite(powers))):
            raise ValueError("rates and powers must be finite")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._caps = caps
        self._rates = rates
        self._powers = powers
        self._offsets = offsets
        self._active = np.ones(len(names), dtype=bool)
        self._version = 0
        self._view_cache: tuple[int, _PoolView] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_frontiers(cls, frontiers: Mapping[str, NodeFrontier]) -> "FrontierPool":
        """Pack existing node frontiers (in mapping order) into a pool."""
        names = list(frontiers)
        counts = np.array([len(frontiers[n]) for n in names], dtype=np.int64)
        total = int(counts.sum()) if names else 0
        caps = np.empty(total)
        rates = np.empty(total)
        powers = np.empty(total)
        i = 0
        for name in names:
            for p in frontiers[name].points:
                caps[i] = p.cap_w
                rates[i] = p.rate
                powers[i] = p.expected_power_w
                i += 1
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls(names, caps, rates, powers, offsets)

    @classmethod
    def synthesize(
        cls,
        n_nodes: int,
        *,
        seed: int = 0,
        points_per_node: int = 12,
        concavity: float = 0.85,
    ) -> "FrontierPool":
        """Generate a deterministic fleet of plausible node frontiers.

        Floors, step powers, and marginal utilities are drawn from the
        ranges the 4-node benchmark's real frontiers occupy; utilities
        are mostly decreasing along each frontier (``concavity`` is the
        probability a step keeps the concave trend — the remainder get a
        utility bump, exercising the kernels' non-concave handling).
        All generation is array arithmetic: no Python loop over nodes.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if points_per_node < 1:
            raise ValueError("points_per_node must be >= 1")
        rng = np.random.default_rng(seed)
        k = points_per_node
        floors = rng.uniform(8.0, 16.0, n_nodes)
        base_rate = rng.uniform(0.2, 1.0, n_nodes)
        if k > 1:
            step_p = rng.uniform(0.4, 2.5, (n_nodes, k - 1))
            utility = np.sort(rng.uniform(0.005, 0.06, (n_nodes, k - 1)), axis=1)[
                :, ::-1
            ]
            bump = rng.random((n_nodes, k - 1)) >= concavity
            utility = np.where(bump, utility * rng.uniform(1.5, 3.0, bump.shape), utility)
            caps2d = floors[:, None] + np.concatenate(
                [np.zeros((n_nodes, 1)), np.cumsum(step_p, axis=1)], axis=1
            )
            rates2d = base_rate[:, None] + np.concatenate(
                [np.zeros((n_nodes, 1)), np.cumsum(step_p * utility, axis=1)], axis=1
            )
        else:
            caps2d = floors[:, None]
            rates2d = base_rate[:, None]
        powers2d = caps2d * rng.uniform(0.92, 1.0, (n_nodes, k))
        width = max(6, len(str(n_nodes - 1)))
        names = [f"node{i:0{width}d}" for i in range(n_nodes)]
        offsets = np.arange(n_nodes + 1, dtype=np.int64) * k
        return cls(
            names,
            caps2d.reshape(-1),
            rates2d.reshape(-1),
            powers2d.reshape(-1),
            offsets,
        )

    # -- introspection ------------------------------------------------------

    @property
    def n_active(self) -> int:
        """Nodes currently participating in allocation."""
        return int(self._active.sum())

    @property
    def version(self) -> int:
        """Membership version; bumps on every leave/rejoin."""
        return self._version

    def active_names(self) -> list[str]:
        """Names of active nodes, in pool (insertion) order."""
        return [n for n, a in zip(self._names, self._active) if a]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return self.n_active

    # -- dynamic membership -------------------------------------------------

    def _resolve(self, names: Iterable[str]) -> list[int]:
        unknown = [n for n in names if n not in self._index]
        if unknown:
            raise ValueError(f"unknown nodes: {unknown}")
        return [self._index[n] for n in names]

    def deactivate(self, names: Iterable[str]) -> int:
        """Drop nodes from allocation (dead or departed); returns how
        many actually changed state.  Points stay packed — rejoining is
        :meth:`activate`, not a rebuild."""
        idx = self._resolve(list(names))
        changed = int(np.count_nonzero(self._active[idx]))
        if changed:
            self._active[idx] = False
            self._version += 1
        return changed

    def activate(self, names: Iterable[str]) -> int:
        """Re-admit previously deactivated nodes."""
        idx = self._resolve(list(names))
        changed = int(np.count_nonzero(~self._active[idx]))
        if changed:
            self._active[idx] = True
            self._version += 1
        return changed

    def subpool(self, names: Iterable[str]) -> "FrontierPool":
        """A new pool holding copies of the named nodes' frontiers, in
        the given order (the :class:`~repro.cluster.tree.BudgetTree`
        uses this to carve racks out of the fleet)."""
        idx = self._resolve(list(names))
        counts = np.diff(self._offsets)
        sub_names = [self._names[i] for i in idx]
        pieces_c = [
            self._caps[self._offsets[i] : self._offsets[i + 1]] for i in idx
        ]
        pieces_r = [
            self._rates[self._offsets[i] : self._offsets[i + 1]] for i in idx
        ]
        pieces_p = [
            self._powers[self._offsets[i] : self._offsets[i + 1]] for i in idx
        ]
        offsets = np.concatenate(([0], np.cumsum(counts[idx]))).astype(np.int64)
        return FrontierPool(
            sub_names,
            np.concatenate(pieces_c) if pieces_c else np.empty(0),
            np.concatenate(pieces_r) if pieces_r else np.empty(0),
            np.concatenate(pieces_p) if pieces_p else np.empty(0),
            offsets,
        )

    # -- views --------------------------------------------------------------

    def view(self) -> _PoolView:
        """The compacted active-node view (cached per membership
        version) that the allocation kernels consume."""
        cached = self._view_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if self.n_active == 0:
            raise ValueError("no active nodes in the pool")
        if bool(self._active.all()):
            view = _PoolView(
                list(self._names),
                self._caps,
                self._rates,
                self._powers,
                self._offsets,
            )
        else:
            counts = np.diff(self._offsets)
            sel = self._active
            point_mask = np.repeat(sel, counts)
            offsets = np.concatenate(
                ([0], np.cumsum(counts[sel]))
            ).astype(np.int64)
            view = _PoolView(
                self.active_names(),
                self._caps[point_mask],
                self._rates[point_mask],
                self._powers[point_mask],
                offsets,
            )
        self._view_cache = (self._version, view)
        return view

    # -- queries ------------------------------------------------------------

    def floors(self) -> np.ndarray:
        """Active nodes' floor caps, aligned with :meth:`active_names`."""
        return self.view().floors().copy()

    def at_caps(self, caps_w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best operating point of every active node under per-node caps.

        Returns ``(point_caps, expected_powers, rates)`` arrays aligned
        with :meth:`active_names`; a cap below a node's floor gets the
        floor point.
        """
        view = self.view()
        idx = view.at_caps_indices(np.asarray(caps_w, dtype=np.float64))
        return view.caps[idx], view.powers[idx], view.rates[idx]

    def to_frontiers(self) -> dict[str, NodeFrontier]:
        """Materialize active nodes back into per-node frontiers (the
        interop and reference-validation path; O(points) objects)."""
        view = self.view()
        out: dict[str, NodeFrontier] = {}
        for i, name in enumerate(view.names):
            lo, hi = int(view.offsets[i]), int(view.offsets[i + 1])
            out[name] = NodeFrontier(
                [
                    NodeFrontierPoint(
                        cap_w=float(view.caps[j]),
                        expected_power_w=float(view.powers[j]),
                        rate=float(view.rates[j]),
                    )
                    for j in range(lo, hi)
                ]
            )
        return out
