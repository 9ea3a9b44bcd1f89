"""Interface shared by all power-limiting methods.

The paper compares four strategies against an oracle (Section V):
``CPU+FL``, ``GPU+FL``, ``Model``, and ``Model+FL``.  Each is a policy
that, given a kernel and a power cap, commits to a configuration.  The
harness then judges the *ground-truth* power and performance of that
configuration against the oracle's choice at the same cap.

A method may carry per-kernel state (the model methods run their two
sample iterations once per kernel, not once per cap), managed through
:meth:`PowerLimitMethod.prepare`.

:meth:`PowerLimitMethod.decide_many` is the one decision primitive: a
method answers a kernel's whole cap sweep in one call (the model
methods from one sweep table, the limiters in one pass on their noise
stream), and :meth:`PowerLimitMethod.decide` is its one-cap case.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Sequence

from repro.hardware.config import Configuration

__all__ = ["MethodDecision", "PowerLimitMethod"]


class MethodDecision(NamedTuple):
    """A method's committed configuration for one (kernel, cap) pair.

    ``online_runs`` counts kernel executions the method spent reaching
    the decision (sample iterations, limiter steps) — the adaptation
    cost the paper argues must stay small.  A named tuple, so a sweep's
    decisions are built by one C-level ``map``.
    """

    config: Configuration
    online_runs: int = 0


class PowerLimitMethod(abc.ABC):
    """A policy selecting a configuration under a power cap."""

    #: Display name, e.g. ``"Model+FL"`` (matches the paper's tables).
    name: str = "abstract"

    def prepare(self, kernel) -> None:
        """Per-kernel setup before any cap is evaluated (default: none).

        Model-based methods run the kernel's two sample iterations here,
        mirroring the paper's "first two iterations" protocol — the
        samples are reused across all caps tested on the kernel.
        """

    @abc.abstractmethod
    def decide_many(
        self, kernel, power_caps_w: Sequence[float]
    ) -> list[MethodDecision]:
        """Commit to a configuration per cap of a sweep, in cap order.

        The primitive every method implements: a call with one cap is
        the single decision (:meth:`decide`), and a sweep must equal
        those calls made in cap order.
        """

    def decide(self, kernel, power_cap_w: float) -> MethodDecision:
        """Commit to a configuration for ``kernel`` under ``power_cap_w``:
        the one-cap case of :meth:`decide_many`."""
        return self.decide_many(kernel, (power_cap_w,))[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
