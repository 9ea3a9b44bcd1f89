"""Server tuning knobs.

The batching window is set by constructor arguments only; ``repro
serve --max-batch/--max-delay-us`` pass their values straight into
:class:`ServerConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY_US",
    "DEFAULT_QUEUE_FACTOR",
    "ServerConfig",
]

DEFAULT_MAX_BATCH = 1024
DEFAULT_MAX_DELAY_US = 200.0
# Admission queue bound, as a multiple of max_batch: enough backlog to
# keep the dispatcher saturated without unbounded memory growth under
# overload (excess arrivals shed with ServerOverloadError).
DEFAULT_QUEUE_FACTOR = 8


@dataclass(frozen=True)
class ServerConfig:
    """Frozen batching-front-end configuration.

    Attributes
    ----------
    max_batch:
        Most requests dispatched as one grouped sweep.  A full batch is
        dispatched immediately without waiting out the window.
    max_delay_us:
        Longest a dequeued request waits for co-batchees (microseconds;
        ``0`` disables coalescing-by-waiting entirely).
    max_queue:
        Admission-queue bound; arrivals beyond it are shed with
        :class:`repro.server.batching.ServerOverloadError`.  Defaults to
        :data:`DEFAULT_QUEUE_FACTOR` × ``max_batch``.
    """

    max_batch: int = DEFAULT_MAX_BATCH
    max_delay_us: float = DEFAULT_MAX_DELAY_US
    max_queue: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        # NaN and inf windows would leave a lone request waiting forever.
        if not 0 <= self.max_delay_us < math.inf:
            raise ValueError(
                f"max_delay_us must be finite and >= 0, got {self.max_delay_us}"
            )
        if self.max_queue is None:
            object.__setattr__(
                self, "max_queue", self.max_batch * DEFAULT_QUEUE_FACTOR
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")

    @property
    def max_delay_s(self) -> float:
        """The batching window in seconds."""
        return self.max_delay_us * 1e-6
