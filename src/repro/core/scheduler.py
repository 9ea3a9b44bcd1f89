"""Configuration selection under a power constraint.

Paper Section III-C: "The resulting frontier allows a scheduler to
select specific devices and configurations depending on the scheduling
goal at hand.  In this paper, we focus on maximizing attainable
performance under an imposed power constraint, but the predicted values
could be used to select configurations for energy efficiency,
energy-delay product, or any other scheduling goal."

This scheduler supports all three goals, plus the paper's future-work
idea (Section VI) of risk-aware selection: with ``risk_margin > 0`` the
scheduler treats the cap as proportionally tighter, trading expected
performance for fewer violations when predictions are uncertain.

Selection has one implementation.  :meth:`Scheduler.select_many`
answers an entire cap sweep in a single sorted pass: the per-config
scores (on the risk-averse sigma-inflated bounds where asked) are
prefix-scanned once in ascending-power order, then every cap resolves
with one binary search.  :meth:`Scheduler.select` is its one-cap case.
Ties break as the historical scalar loop did: the earliest
configuration in prediction order wins.  NaN scores follow the scalar
prefix scan :func:`_prefix_best_reference`, whose comparisons are all
False on NaN: a NaN-score configuration that is the lowest-power
candidate wins every cap that admits it, and any other one wins none.
NaN power is never cap-feasible.

The prefix scan itself is reified as a
:class:`~repro.core.frontier.CapSweepTable`, which
:meth:`Scheduler.sweep_table` builds and :meth:`Scheduler.select_many`
wraps.  Tables stack into one CSR table, so the decision server in
:mod:`repro.server` answers a whole mixed batch with one lookup.

When selection has no runnable candidate at all — an empty frontier, or
every configuration quarantined under ``strict_quarantine=True`` — the
scheduler raises the typed :class:`NoFeasibleConfigError` instead of an
accidental ``IndexError``, so callers (the server maps it to a
per-request error response) can tell "nothing to run" apart from a bug.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.frontier import CapSweepTable
from repro.core.predictor import KernelPrediction
from repro.hardware.config import Configuration
from repro.telemetry import counter, get_logger, log_event, trace_span

__all__ = [
    "NoFeasibleConfigError",
    "Scheduler",
    "SchedulerDecision",
    "SchedulingGoal",
]

_log = get_logger(__name__)

# Selection accounting (see docs/OBSERVABILITY.md): every committed
# decision counts once; fallbacks are the subset where no configuration
# was predicted cap-feasible.
_SELECTIONS = counter("scheduler.selections")
_FALLBACKS = counter("scheduler.infeasible_fallbacks")

# Degradation accounting (docs/ROBUSTNESS.md): configurations reported
# stuck by the hardware and quarantined from future selection.
_QUARANTINED = counter("faults.quarantined_configs")

SchedulingGoal = Literal["performance", "energy", "edp"]


@dataclass(frozen=True)
class SchedulerDecision:
    """A scheduling outcome.

    Attributes
    ----------
    config:
        The selected configuration.
    predicted_power_w, predicted_performance:
        The model's predictions for the selection.
    predicted_feasible:
        Whether the selection's *predicted* power met the cap.  False
        means no configuration was predicted feasible and the scheduler
        fell back to the lowest-predicted-power configuration.
    """

    config: Configuration
    predicted_power_w: float
    predicted_performance: float
    predicted_feasible: bool


def _objective(goal: SchedulingGoal, power_w, perf):
    """Score to *maximize* for candidate (power, performance) values:
    floats or elementwise over arrays."""
    if goal == "performance":
        return perf
    if goal == "energy":
        # Energy per invocation = power / throughput; maximize its negative.
        return -power_w / perf
    if goal == "edp":
        # Energy-delay product = power / throughput^2.
        return -power_w / (perf * perf)
    raise ValueError(f"unknown scheduling goal {goal!r}")


class NoFeasibleConfigError(RuntimeError):
    """Selection had no runnable candidate at all.

    Raised when the candidate set is empty or every configuration's
    bounded power is non-finite — an empty frontier, or a full
    quarantine under ``strict_quarantine=True``.  Distinct from the
    infeasible-*cap* case, which still has runnable configurations and
    falls back to the lowest-power one.
    """


def require_positive_caps(caps: np.ndarray) -> None:
    """Reject any cap that is not ``> 0`` (NaN included), naming it."""
    if not (caps > 0).all():
        bad = float(caps[~(caps > 0)][0])
        raise ValueError(f"power_cap_w must be positive, got {bad!r}")


def _prefix_best_reference(order: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Scalar prefix scan: ``best_at[p]`` is the original index of the
    best-scoring configuration among the ``p + 1`` lowest-power ones,
    breaking score ties toward the earliest prediction index.

    This is the historical loop, kept as the executable specification
    for :func:`_prefix_best` — and as the fallback when scores contain
    NaN, whose comparison quirks (``s > best`` is False both ways) the
    rank-key vectorization does not reproduce.
    """
    best_at = np.empty(order.size, dtype=np.intp)
    best_i = -1
    best_score = -np.inf
    for pos, j in enumerate(order):
        s = scores[j]
        if best_i < 0 or s > best_score or (s == best_score and j < best_i):
            best_i, best_score = int(j), s
        best_at[pos] = best_i
    return best_at


def _prefix_best(order: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_prefix_best_reference` (element-identical).

    Scores are densified to integer ranks, combined with the reversed
    original index into a single key that is strictly monotone in
    (score asc, index desc), and the running argmax falls out of two
    ``maximum.accumulate`` passes.
    """
    n = order.size
    s_sorted = scores[order]
    if n == 0 or np.isnan(s_sorted).any():
        return _prefix_best_reference(order, scores)
    _, ranks = np.unique(s_sorted, return_inverse=True)
    key = ranks.astype(np.int64) * n + (n - 1 - order.astype(np.int64))
    running = np.maximum.accumulate(key)
    best_pos = np.maximum.accumulate(
        np.where(key == running, np.arange(n), 0)
    )
    return order[best_pos].astype(np.intp, copy=False)


class Scheduler:
    """Selects configurations from model predictions.

    Parameters
    ----------
    goal:
        What to optimize among cap-feasible configurations
        (``"performance"`` — the paper's focus — ``"energy"``, or
        ``"edp"``).
    risk_margin:
        Default cap-tightening fraction applied by :meth:`select` when
        no per-call value is given.
    strict_quarantine:
        By default a quarantine that would eliminate *every* candidate
        is ignored — the runtime must still run the kernel somewhere.
        Strict mode honors it and raises
        :class:`NoFeasibleConfigError` instead, for callers (the
        decision server) that can report "nothing to run" per request
        rather than execute a known-stuck configuration.
    """

    def __init__(
        self,
        goal: SchedulingGoal = "performance",
        *,
        risk_margin: float = 0.0,
        strict_quarantine: bool = False,
    ) -> None:
        _objective(goal, 1.0, 1.0)  # validates
        if not 0.0 <= risk_margin < 1.0:
            raise ValueError("risk_margin must be in [0, 1)")
        self.goal = goal
        self.risk_margin = risk_margin
        self.strict_quarantine = strict_quarantine
        self._quarantined: set[Configuration] = set()

    # -- quarantine (graceful degradation, docs/ROBUSTNESS.md) -------------------

    @property
    def quarantined(self) -> frozenset[Configuration]:
        """Configurations excluded from selection (reported stuck)."""
        return frozenset(self._quarantined)

    def quarantine(self, config: Configuration) -> None:
        """Exclude a configuration from future selections.

        The runtime calls this when the hardware reports a different
        P-state than the one scheduled (stuck or persistently
        throttled): the prediction for that configuration no longer
        describes what would actually execute, so the scheduler
        re-selects from the surviving candidates instead.
        """
        if config not in self._quarantined:
            self._quarantined.add(config)
            _QUARANTINED.inc()
            log_event(
                _log,
                logging.WARNING,
                "scheduler-quarantine",
                config=config.label(),
                quarantined=len(self._quarantined),
            )

    def clear_quarantine(self) -> None:
        """Re-admit every quarantined configuration."""
        self._quarantined.clear()

    def _mask_quarantined(
        self, prediction: KernelPrediction, pw_bound: np.ndarray
    ) -> np.ndarray:
        """Power bounds with quarantined configurations forced to +inf
        (never feasible, never the fallback).  No-op — and zero overhead
        — while the quarantine set is empty.  If quarantine would
        eliminate *every* candidate, it is ignored (the runtime must
        still run the kernel somewhere) unless ``strict_quarantine`` is
        set, in which case the all-inf bounds make the subsequent
        :meth:`_require_selectable` check raise
        :class:`NoFeasibleConfigError`.
        """
        if not self._quarantined:
            return pw_bound
        mask = np.fromiter(
            (cfg in self._quarantined for cfg in prediction.config_tuple),
            dtype=bool,
            count=len(prediction.config_tuple),
        )
        if not mask.any():
            return pw_bound
        if mask.all() and not self.strict_quarantine:
            return pw_bound
        return np.where(mask, np.inf, pw_bound)

    # -- shared machinery --------------------------------------------------------

    def _resolve_margin(self, risk_margin: float | None) -> float:
        if risk_margin is None:
            return self.risk_margin
        if not 0.0 <= risk_margin < 1.0:
            raise ValueError("risk_margin must be in [0, 1)")
        return risk_margin

    @staticmethod
    def _bounds(
        prediction: KernelPrediction,
        risk_averse: bool,
        confidence_z: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (power, performance) vectors selection judges: raw
        predictions, or sigma-inflated confidence bounds (Section VI)."""
        pw = prediction.power_array
        perf = prediction.performance_array
        if not risk_averse:
            return pw, perf
        pw_std = prediction.power_std_array
        perf_std = prediction.performance_std_array
        pw_bound = np.where(np.isnan(pw_std), pw, pw + confidence_z * pw_std)
        perf_bound = np.where(
            np.isnan(perf_std),
            perf,
            np.maximum(perf - confidence_z * perf_std, 1e-9),
        )
        return pw_bound, perf_bound

    @staticmethod
    def _validate_selection_args(
        prediction: KernelPrediction,
        risk_averse: bool,
        confidence_z: float,
    ) -> None:
        if confidence_z < 0:
            raise ValueError("confidence_z must be non-negative")
        if risk_averse and prediction.uncertainties is None:
            raise ValueError(
                "risk_averse selection needs a prediction built with "
                "with_uncertainty=True"
            )

    @staticmethod
    def _require_selectable(
        pw_bound: np.ndarray, prediction: KernelPrediction
    ) -> None:
        """Raise :class:`NoFeasibleConfigError` when no candidate has a
        finite bounded power — nothing is runnable at *any* cap, so even
        the lowest-power fallback would be meaningless."""
        if pw_bound.size == 0 or not np.isfinite(pw_bound).any():
            raise NoFeasibleConfigError(
                f"no selectable configuration for kernel "
                f"{prediction.kernel_uid!r}: every candidate is "
                f"quarantined or has non-finite predicted power"
            )

    # -- selection ---------------------------------------------------------------

    def select(
        self,
        prediction: KernelPrediction,
        power_cap_w: float,
        *,
        risk_margin: float | None = None,
        risk_averse: bool = False,
        confidence_z: float = 1.0,
    ) -> SchedulerDecision:
        """Pick the best configuration predicted to respect the cap: the
        one-cap case of :meth:`select_many`.

        If no configuration is predicted feasible, fall back to the one
        with the lowest predicted power (the least-bad violation — a
        real runtime must still run the kernel somewhere).

        Parameters
        ----------
        prediction:
            Whole-space model prediction for the kernel.
        power_cap_w:
            The imposed power constraint (watts); any real number
            ``float()`` accepts (a ``Decimal``, a numpy scalar).
        risk_margin:
            Fraction in ``[0, 1)`` by which to tighten the cap during
            selection, guarding against under-predicted power
            (defaults to the scheduler's configured margin).
        risk_averse:
            The paper's Section VI idea: judge feasibility on the power
            prediction's *upper* confidence bound and rank candidates
            by the performance prediction's *lower* bound, so
            high-variance predictions lose to confident ones.  Requires
            a prediction built with ``with_uncertainty=True``.
        confidence_z:
            Number of prediction standard deviations used for the
            risk-averse bounds.

        Raises
        ------
        NoFeasibleConfigError
            If no candidate is runnable at any cap — an empty candidate
            set, or a full quarantine under ``strict_quarantine=True``.
        """
        return self.select_many(
            prediction,
            [float(power_cap_w)],
            risk_margin=risk_margin,
            risk_averse=risk_averse,
            confidence_z=confidence_z,
        )[0]

    def sweep_table(
        self,
        prediction: KernelPrediction,
        *,
        risk_margin: float | None = None,
        risk_averse: bool = False,
        confidence_z: float = 1.0,
    ) -> CapSweepTable:
        """Build the reusable cap-sweep structure for a prediction.

        The table bakes in this scheduler's goal, the resolved risk
        settings, and the quarantine state *at build time*; afterwards
        any cap vector resolves via :meth:`CapSweepTable.lookup` with
        no reference back to the scheduler.  :meth:`select_many` builds
        one per call; the decision server stacks one per warm kernel.

        Raises
        ------
        NoFeasibleConfigError
            If no candidate is runnable at any cap (see :meth:`select`).
        """
        risk_margin = self._resolve_margin(risk_margin)
        self._validate_selection_args(prediction, risk_averse, confidence_z)
        pw_bound, perf_bound = self._bounds(prediction, risk_averse, confidence_z)
        pw_bound = self._mask_quarantined(prediction, pw_bound)
        self._require_selectable(pw_bound, prediction)
        scores = _objective(self.goal, pw_bound, perf_bound)
        order = np.argsort(pw_bound, kind="stable")
        return CapSweepTable(
            sorted_power_w=pw_bound[order],
            best_at=_prefix_best(order, scores),
            offsets=np.array([0, order.size]),
            # The lowest non-NaN bounded power (one exists, see above).
            fallback_index=np.array([np.nanargmin(pw_bound)]),
            cap_scale=np.array([1.0 - risk_margin]),
        )

    def select_many(
        self,
        prediction: KernelPrediction,
        power_caps_w: Sequence[float] | np.ndarray,
        *,
        risk_margin: float | None = None,
        risk_averse: bool = False,
        confidence_z: float = 1.0,
    ) -> list[SchedulerDecision]:
        """Answer an entire cap sweep in one pass.

        The per-config scores are prefix-scanned once
        (:meth:`sweep_table`) in ascending bounded-power order, after
        which every cap costs two binary searches; caps with no
        predicted-feasible configuration fall back to the lowest
        bounded power.  Every other selection entry point (one cap, the
        decision server's batches) resolves through this table.
        """
        caps = np.asarray(power_caps_w, dtype=np.float64)
        if caps.ndim != 1:
            raise ValueError("power_caps_w must be one-dimensional")
        require_positive_caps(caps)

        with trace_span("online/select"):
            table = self.sweep_table(
                prediction,
                risk_margin=risk_margin,
                risk_averse=risk_averse,
                confidence_z=confidence_z,
            )
            index, feasible = table.lookup(caps)
            # Counters update in bulk (one lock acquisition per sweep, not
            # per cap) so instrumentation stays off the per-decision path.
            log_debug = _log.isEnabledFor(logging.DEBUG)
            decisions = []
            for i, f in zip(index.tolist(), feasible.tolist()):
                decision = SchedulerDecision(
                    config=prediction.config_at(i),
                    predicted_power_w=float(prediction.power_array[i]),
                    predicted_performance=float(prediction.performance_array[i]),
                    predicted_feasible=f,
                )
                decisions.append(decision)
                if log_debug:
                    log_event(
                        _log,
                        logging.DEBUG,
                        "scheduler-decision",
                        kernel=prediction.kernel_uid,
                        goal=self.goal,
                        config=decision.config.label(),
                        predicted_power_w=round(decision.predicted_power_w, 3),
                        predicted_performance=round(
                            decision.predicted_performance, 4
                        ),
                        feasible=f,
                    )
            _SELECTIONS.inc(int(caps.size))
            infeasible = int(np.count_nonzero(~feasible))
            if infeasible:
                _FALLBACKS.inc(infeasible)
            return decisions
