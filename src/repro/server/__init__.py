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
  bounded-queue admission and explicit shed;
* :mod:`repro.server.config` — :class:`ServerConfig`, the batching
  knobs;
* :mod:`repro.server.loadgen` — open-loop Poisson load generation
  behind ``repro serve``, and the admission benchmark behind
  ``BENCH_server.json``.

See ``docs/SERVER.md`` for the architecture, batching semantics, and
the ``server.*`` telemetry catalogue.

Import from the submodules: this package module re-exports nothing, so
importing :mod:`repro.server.engine` (as the LOOCV harness and the
adaptive runtime do) loads neither the batching front end nor the
monitor.
"""

__all__: list[str] = []
