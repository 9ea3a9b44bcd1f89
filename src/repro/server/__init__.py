"""Prediction-as-a-service: the concurrent decision server.

The paper's runtime makes one sample→classify→predict→select decision
per kernel arrival; at fleet scale those arrivals form a high-rate
concurrent stream.  This package turns the array engine's batched
``select_many`` kernel into a long-lived service:

* :mod:`repro.server.engine` — :func:`decide_batch`, the pure batched
  decision kernel shared with the LOOCV harness (one segmented lookup
  over the stacked cap tables), and the :class:`BatchDecisions`
  structure-of-arrays result;
* :mod:`repro.server.service` — :class:`DecisionService`, the facade
  owning immutable engine state published atomically via snapshot
  swap, with per-request error degradation;
* :mod:`repro.server.batching` — :class:`DecisionServer`, whose one
  dispatcher thread coalesces concurrent arrivals within a bounded
  ``max_batch``/``max_delay_us`` window into one grouped sweep, with
  bounded-queue admission and explicit shed, and
  :class:`AsyncDecisionServer`, an asyncio interface over it;
* :mod:`repro.server.config` — :class:`ServerConfig`, the batching
  knobs;
* :mod:`repro.server.loadgen` — open-loop Poisson load generation
  behind ``repro serve``, and the admission benchmark behind
  ``BENCH_server.json``.

See ``docs/SERVER.md`` for the architecture, batching semantics, and
the ``server.*`` telemetry catalogue.
"""

from repro.server.batching import (
    AsyncDecisionServer,
    DecisionServer,
    ServerClosedError,
    ServerOverloadError,
)
from repro.server.config import ServerConfig
from repro.server.engine import BatchDecisions, DecisionRequest, decide_batch
from repro.server.loadgen import (
    LoadReport,
    admission_benchmark,
    render_reports,
    request_pool,
    run_open_loop,
)
from repro.server.service import (
    DecisionResult,
    DecisionService,
    EngineSnapshot,
    build_default_service,
)

__all__ = [
    "AsyncDecisionServer",
    "BatchDecisions",
    "DecisionRequest",
    "DecisionResult",
    "DecisionServer",
    "DecisionService",
    "EngineSnapshot",
    "LoadReport",
    "ServerClosedError",
    "ServerConfig",
    "ServerOverloadError",
    "admission_benchmark",
    "build_default_service",
    "decide_batch",
    "render_reports",
    "request_pool",
    "run_open_loop",
]
