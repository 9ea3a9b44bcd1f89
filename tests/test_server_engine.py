"""The segmented decision engine against its grouped reference.

``CapSweepTable.stack`` concatenates per-kernel sweep tables and
``lookup`` answers every cap in its own segment with two binary
searches over rank keys.  These tests pin that to the path it
replaced (``tests/engine_reference.py``: group by kernel, one search
per table) on tie-heavy inputs — duplicate thresholds, ±0.0,
quarantined (+inf) and NaN predicted power, caps on a threshold and
one ulp either side, per-segment risk margins — and end to end through
the decision service, whose batch answers must equal its answers to
batches of one field for field, and whose gathered configurations must be the
predictions' own objects.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .engine_reference import (
    assert_same_decisions,
    reference_decide_batch,
    reference_lookup,
)
from repro.core import (
    CapSweepTable,
    KernelPrediction,
    NoFeasibleConfigError,
    Scheduler,
)
from repro.hardware import Measurement
from repro.server.engine import DecisionRequest, decide_batch
from repro.server.service import build_default_service
from repro.server.engine import DecisionIndex
from repro.server.service import (
    ERROR_INVALID_CAP,
    ERROR_UNKNOWN_KERNEL,
    DecisionResult,
)
from repro.hardware.backend import TRINITY_DESCRIPTOR

_FIELDS = (
    "kernel_uid", "power_cap_w", "config", "predicted_power_w",
    "predicted_performance", "feasible", "error",
)

_SPACE = list(TRINITY_DESCRIPTOR.config_space())
#: Few distinct values, so thresholds tie within and across segments.
_TIES = (-0.0, 0.0, 5.0, 10.0, 10.0, 12.5, 20.0, 40.0, math.inf, math.nan)
_SCALES = (1.0, 0.8)  # risk margins 0 and 0.2


def _thresholds():
    return st.one_of(
        st.sampled_from(_TIES),
        st.floats(min_value=1.0, max_value=50.0),
    )


def _near(value: float, scale: float) -> list[float]:
    """Positive caps on ``value``, on ``value / scale`` (which scales
    back onto it, or one rounding away), and one ulp either side."""
    out = []
    for v in (value, value / scale):
        out += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return [c for c in out if c > 0]


@st.composite
def stacked_tables(draw):
    """Hand-built sweep tables plus caps aimed at their thresholds."""
    tables = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        powers = np.sort(
            np.array(draw(st.lists(_thresholds(), min_size=1, max_size=10)))
        )
        n = powers.size
        tables.append(CapSweepTable(
            sorted_power_w=powers,
            best_at=np.array(
                draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
                dtype=np.intp,
            ),
            offsets=np.array([0, n]),
            fallback_index=np.array([draw(st.integers(0, n - 1))]),
            cap_scale=np.array([draw(st.sampled_from(_SCALES))]),
        ))
    candidates = [1e-3, 7.5, 100.0, math.inf]
    for table in tables:
        for value in table.sorted_power_w.tolist():
            if math.isfinite(value) and value > 0:
                candidates += _near(value, table.cap_scale[0])
    n_caps = draw(st.integers(min_value=0, max_value=40))
    segments = np.array(
        draw(st.lists(st.integers(0, len(tables) - 1), min_size=n_caps,
                      max_size=n_caps)),
        dtype=np.intp,
    )
    caps = np.array(
        draw(st.lists(st.sampled_from(candidates), min_size=n_caps,
                      max_size=n_caps)),
        dtype=np.float64,
    )
    return tables, segments, caps


class TestStackedLookup:
    @settings(max_examples=300, deadline=None)
    @given(stacked_tables())
    def test_stacked_equals_per_table_lookups(self, case):
        tables, segments, caps = case
        index, feasible = CapSweepTable.stack(tables).lookup(caps, segments)
        for s, table in enumerate(tables):
            rows = segments == s
            want_index, want_feasible = reference_lookup(table, caps[rows])
            assert np.array_equal(index[rows], want_index)
            assert np.array_equal(feasible[rows], want_feasible)

    @settings(max_examples=100, deadline=None)
    @given(stacked_tables())
    def test_one_segment_lookup_equals_reference(self, case):
        tables, _, caps = case
        got = tables[0].lookup(caps)
        want = reference_lookup(tables[0], caps)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_stack_of_one_is_the_table(self):
        table = CapSweepTable(
            sorted_power_w=np.array([1.0, 2.0]),
            best_at=np.array([0, 1]),
            offsets=np.array([0, 2]),
            fallback_index=np.array([0]),
            cap_scale=np.array([1.0]),
        )
        assert CapSweepTable.stack([table]) is table

    def test_empty_stack_answers_empty_batches(self):
        index, feasible = CapSweepTable.stack([]).lookup(
            np.empty(0), np.empty(0, dtype=np.intp)
        )
        assert index.size == 0 and feasible.size == 0


# -- through the scheduler: synthetic predictions ------------------------------

_DUMMY = Measurement(
    config=_SPACE[0], time_s=1.0, cpu_plane_w=10.0, nbgpu_plane_w=5.0
)


@st.composite
def prediction_batches(draw):
    """Tie-heavy predictions, a quarantine, per-kernel risk margins and
    a batch of caps aimed at the predicted powers."""
    predictions = {}
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        n = draw(st.integers(min_value=2, max_value=12))
        powers = draw(st.lists(
            st.one_of(st.sampled_from((5.0, 10.0, 10.0, 20.0, math.nan)),
                      st.floats(min_value=1.0, max_value=50.0)),
            min_size=n, max_size=n,
        ))
        perfs = draw(st.lists(
            st.sampled_from((0.5, 1.0, 1.0, 2.0)), min_size=n, max_size=n
        ))
        predictions[f"k{k}"] = KernelPrediction(
            kernel_uid=f"k{k}",
            cluster=0,
            predictions={
                _SPACE[i]: (powers[i], perfs[i]) for i in range(n)
            },
            cpu_sample=_DUMMY,
            gpu_sample=_DUMMY,
        )
    quarantined = draw(st.lists(st.integers(0, 11), max_size=3))
    margins = {
        uid: draw(st.sampled_from((0.0, 0.2))) for uid in predictions
    }
    candidates = [0.5, 100.0]
    for uid, p in predictions.items():
        for value in p.power_array.tolist():
            if math.isfinite(value):
                candidates += _near(value, 1.0 - margins[uid])
    n_req = draw(st.integers(min_value=0, max_value=30))
    uids = draw(st.lists(st.sampled_from(sorted(predictions)),
                         min_size=n_req, max_size=n_req))
    caps = draw(st.lists(st.sampled_from(candidates),
                         min_size=n_req, max_size=n_req))
    return predictions, quarantined, margins, uids, caps


class TestEngineMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(prediction_batches())
    def test_tie_heavy_batches(self, case):
        predictions, quarantined, margins, uids, caps = case
        scheduler = Scheduler()
        for i in quarantined:
            scheduler.quarantine(_SPACE[i])
        try:
            tables = {
                uid: scheduler.sweep_table(p, risk_margin=margins[uid])
                for uid, p in predictions.items()
            }
        except NoFeasibleConfigError:
            return  # some kernel has only NaN-powered candidates
        want = reference_decide_batch(
            scheduler, predictions, uids, caps, tables=tables
        )
        got = decide_batch(scheduler, predictions, uids, caps, tables=tables)
        assert_same_decisions(got, want)
        index = DecisionIndex(predictions, tables)
        got = decide_batch(scheduler, predictions, uids, caps, index=index)
        assert_same_decisions(got, want)

    @settings(max_examples=60, deadline=None)
    @given(prediction_batches())
    def test_tables_built_on_the_fly(self, case):
        predictions, _, _, uids, caps = case
        scheduler = Scheduler(risk_margin=0.2)
        if any(np.isnan(p.power_array).all() for p in predictions.values()):
            return  # some kernel has only NaN-powered candidates
        assert_same_decisions(
            decide_batch(scheduler, predictions, uids, caps),
            reference_decide_batch(scheduler, predictions, uids, caps),
        )


# -- the full suite ------------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    svc = build_default_service(seed=0)
    assert svc.warm() == {}
    return svc


def _pool(service, n, seed):
    rng = np.random.default_rng(seed)
    uids = service.kernel_uids
    picks = rng.integers(0, len(uids), n)
    caps = rng.uniform(6.0, 60.0, n)
    return [uids[int(k)] for k in picks], caps


class TestSuiteBatches:
    @pytest.mark.parametrize("n_kernels", [0, 1, 65])
    def test_batches_match_reference(self, service, n_kernels):
        snap = service.snapshot
        uids = service.kernel_uids[:n_kernels] * 7
        caps = np.linspace(6.0, 60.0, len(uids))
        want = reference_decide_batch(
            snap.scheduler, snap.predictions, uids, caps, tables=snap.tables
        )
        for kwargs in ({"index": snap.index}, {"tables": snap.tables}, {}):
            got = decide_batch(
                snap.scheduler, snap.predictions, uids, caps, **kwargs
            )
            assert_same_decisions(got, want)

    def test_mixed_pool_with_infeasible_caps(self, service):
        snap = service.snapshot
        uids, caps = _pool(service, 3000, seed=5)
        caps[::7] = 0.5  # below every configuration: fallbacks
        got = decide_batch(
            snap.scheduler, snap.predictions, uids, caps, index=snap.index
        )
        assert not got.feasible.all()
        assert_same_decisions(got, reference_decide_batch(
            snap.scheduler, snap.predictions, uids, caps, tables=snap.tables
        ))

    @pytest.mark.parametrize("with_index", [True, False])
    def test_unknown_uid_raises_keyerror(self, service, with_index):
        snap = service.snapshot
        kwargs = {"index": snap.index} if with_index else {}
        uids = [service.kernel_uids[0], "no/such/kernel"]
        with pytest.raises(KeyError, match="no/such/kernel"):
            decide_batch(
                snap.scheduler, snap.predictions, uids, [20.0, 20.0], **kwargs
            )

    def test_service_returns_reference_results(self, service):
        snap = service.snapshot
        uids, caps = _pool(service, 500, seed=9)
        requests = [DecisionRequest(u, float(c)) for u, c in zip(uids, caps)]
        requests[3] = DecisionRequest("no/such/kernel", 20.0)
        requests[10] = DecisionRequest(uids[10], math.nan)
        requests[11] = DecisionRequest(uids[11], -1.0)
        live = [i for i in range(len(requests)) if i not in (3, 10, 11)]
        ref = reference_decide_batch(
            snap.scheduler,
            snap.predictions,
            [requests[i].kernel_uid for i in live],
            [requests[i].power_cap_w for i in live],
            tables=snap.tables,
        )
        results = service.decide_batch(requests)
        assert [results[i].error for i in (3, 10, 11)] == [
            ERROR_UNKNOWN_KERNEL, ERROR_INVALID_CAP, ERROR_INVALID_CAP
        ]
        configs = ref.configs()
        for j, i in enumerate(live):
            assert results[i] == DecisionResult(
                kernel_uid=requests[i].kernel_uid,
                power_cap_w=requests[i].power_cap_w,
                config=configs[j],
                predicted_power_w=float(ref.predicted_power_w[j]),
                predicted_performance=float(ref.predicted_performance[j]),
                feasible=bool(ref.feasible[j]),
            )


class TestNanCapsRejected:
    """A NaN cap is invalid at every selection entry point."""

    def test_select(self, service):
        prediction = service.snapshot.predictions[service.kernel_uids[0]]
        with pytest.raises(ValueError, match="positive, got nan"):
            Scheduler().select(prediction, math.nan)

    def test_select_many(self, service):
        prediction = service.snapshot.predictions[service.kernel_uids[0]]
        with pytest.raises(ValueError, match="positive, got nan"):
            Scheduler().select_many(prediction, [20.0, math.nan])

    def test_decide_batch(self, service):
        snap = service.snapshot
        uid = service.kernel_uids[0]
        with pytest.raises(ValueError, match="positive, got nan"):
            decide_batch(
                snap.scheduler, snap.predictions, [uid, uid], [20.0, math.nan],
                index=snap.index,
            )


# -- the service's mixed batches against batches of one ------------------------


def _caps():
    """Valid caps plus every kind of invalid one the per-request rule
    sees: non-positive, non-finite, and values numpy would coerce
    (``"3.0"`` to 3.0, ``None`` to NaN) but the rule rejects."""
    return st.one_of(
        st.floats(min_value=1e-3, max_value=80.0),
        st.sampled_from([
            0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 1e-300, 1e300,
            True, np.float32(2), np.float64(25.0), Decimal("2"), "3.0", None,
        ]),
    )


def _same_field(a, b) -> bool:
    nan = isinstance(a, float) and isinstance(b, float) and a != a and b != b
    return type(a) is type(b) and (nan or a == b)


class TestBatchMatchesSingle:
    """A mixed batch answers every request exactly as a batch of one
    (``decide``) does: batch composition changes no answer."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 64),
                    st.sampled_from(["no/such/kernel", ""]),
                ),
                _caps(),
            ),
            max_size=24,
        )
    )
    # numpy would coerce "3.0" to 3.0 and None to NaN; the rule rejects
    # both.  Decimal passes the rule but fails float arithmetic.
    @example([(0, "3.0"), (0, None), (1, Decimal("2")), ("no/such", 20.0)])
    def test_batch_equals_per_request(self, service, picks):
        uids = service.kernel_uids
        batch = [
            DecisionRequest(uids[k] if isinstance(k, int) else k, cap)
            for k, cap in picks
        ]
        got = service.decide_batch(batch)
        want = [service.decide(r) for r in batch]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is DecisionResult
            for name, a, b in zip(_FIELDS, g, w):
                assert _same_field(a, b), (name, a, b)


class TestDecisionResultRecord:
    def _result(self, service):
        uid = service.kernel_uids[0]
        return service.decide_batch([DecisionRequest(uid, 20.0)])[0]

    def test_field_order_and_ok(self, service):
        result = self._result(service)
        assert DecisionResult._fields == _FIELDS
        assert tuple(result) == tuple(getattr(result, f) for f in _FIELDS)
        assert result.ok and result.error is None
        assert tuple(result) == result  # compares like its plain tuple
        failed = service.decide_batch([DecisionRequest("no/such", 20.0)])[0]
        assert not failed.ok and failed.error == ERROR_UNKNOWN_KERNEL

    def test_immutable_and_hashable(self, service):
        result = self._result(service)
        with pytest.raises(AttributeError):
            result.config = None  # type: ignore[misc]
        assert hash(result) == hash(tuple(result))
        assert {result, self._result(service)} == {result}


@pytest.mark.parametrize("backend", ["trinity", "biglittle", "mpsoc"])
def test_index_rows_hold_the_predictions_configurations(backend):
    """Every row the batch gathers is the prediction's own object."""
    svc = build_default_service(seed=0, backend=backend)
    assert svc.warm() == {}
    snap = svc.snapshot
    uids, caps = _pool(svc, 600, seed=3)
    caps[::5] = 0.5  # fallbacks too
    batch = decide_batch(
        snap.scheduler, snap.predictions, uids, caps, index=snap.index
    )
    configs = batch.configs()
    for i, (uid, row, c) in enumerate(
        zip(uids, batch.at.tolist(), batch.config_index.tolist())
    ):
        want = snap.predictions[uid].config_at(c)
        assert snap.index.configs[row] is want
        assert configs[i] is want and batch.config(i) is want
    assert len(snap.index.configs) == snap.index.power_w.size
