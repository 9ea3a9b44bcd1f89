"""Multi-node cluster power management — the paper's motivating scenario.

The paper's node-level model is framed as "a key ingredient to
maximizing performance on a multi-node cluster" (Section I): system-wide
power budgets filter down to per-node caps, and a cluster-level
allocator should hand each node the power where it buys the most
performance.  This subpackage builds that layer on top of the node-level
system:

* :class:`~repro.cluster.node.ClusterNode` — a node (own APU, profiling,
  adaptive runtime) exposing a predicted application-level
  rate-vs-cap :class:`~repro.cluster.node.NodeFrontier`;
* :class:`~repro.cluster.pool.FrontierPool` — every frontier of a fleet
  packed into flat structure-of-arrays storage with dynamic membership,
  the substrate the vectorized kernels run on;
* :func:`~repro.cluster.allocation.allocate_pool` — uniform (state of
  the practice), greedy marginal water-filling, and max-min fair budget
  splitting, vectorized from 4 nodes to 100k (validated against
  pure-Python references kept in ``tests/allocation_reference.py``);
* :class:`~repro.cluster.tree.BudgetTree` — hierarchical node → rack →
  row → datacenter budget splitting over aggregated child frontiers;
* :class:`~repro.cluster.manager.ClusterPowerManager` — epoch loop:
  allocate, run, account, reallocate when the budget moves.
"""

from repro.cluster.allocation import allocate_pool, pool_allocation_summary
from repro.cluster.manager import ClusterPowerManager, ClusterReport, EpochResult
from repro.cluster.node import ClusterNode, NodeFrontier, NodeFrontierPoint
from repro.cluster.pool import FrontierPool
from repro.cluster.tree import BudgetTree

__all__ = [
    "BudgetTree",
    "ClusterNode",
    "ClusterPowerManager",
    "ClusterReport",
    "EpochResult",
    "FrontierPool",
    "NodeFrontier",
    "NodeFrontierPoint",
    "allocate_pool",
    "pool_allocation_summary",
]
