"""End-to-end integration: every layer in one scenario.

Walks a complete operational story — offline training, model
persistence, online prediction in a fresh process (simulated by
reloading from JSON), application execution under a dynamic cap, and
cluster-level budget allocation — asserting cross-layer consistency at
each step.
"""

import pytest

from repro import (
    Configuration,
    OnlinePredictor,
    ProfilingLibrary,
    Scheduler,
    TrinityAPU,
    build_suite,
    train_model,
)
from repro.cluster import ClusterNode, ClusterPowerManager
from repro.core import load_model, save_model
from repro.runtime import AdaptiveRuntime, Application


@pytest.fixture(scope="module")
def story(tmp_path_factory):
    """Shared state for the integration story (runs once)."""
    tmp = tmp_path_factory.mktemp("integration")
    apu = TrinityAPU(seed=42)
    suite = build_suite()

    # Act 1: offline training (LU never seen) and persistence.
    library = ProfilingLibrary(apu, seed=42)
    model = train_model(library, [k for k in suite if k.benchmark != "LU"])
    model_path = tmp / "model.json"
    save_model(model, model_path)

    # Act 2: a "new process" loads the model from disk.
    reloaded = load_model(model_path)
    return apu, suite, model, reloaded


class TestEndToEnd:
    def test_act2_reloaded_model_predicts_identically(self, story):
        apu, suite, model, reloaded = story
        kernel = suite.get("LU/Medium/LUDecomposition")
        online_a = ProfilingLibrary(apu, seed=7)
        online_b = ProfilingLibrary(apu, seed=7)
        pred_a = OnlinePredictor(model, online_a).predict(kernel)
        pred_b = OnlinePredictor(reloaded, online_b).predict(kernel)
        assert pred_a.cluster == pred_b.cluster
        for cfg in pred_a.predictions:
            assert pred_a.predictions[cfg] == pytest.approx(
                pred_b.predictions[cfg]
            )

    def test_act3_scheduling_consistency_with_runtime(self, story):
        """The runtime's scheduled configuration equals a standalone
        scheduler decision on the same prediction and cap."""
        apu, suite, model, _ = story
        kernel = suite.get("LU/Small/LUDecomposition")
        cap = 21.0

        online = ProfilingLibrary(apu, seed=11)
        runtime = AdaptiveRuntime(model, online)
        app = Application(name="one", kernels=(kernel,))
        trace = runtime.run(app, n_timesteps=3, power_cap_w=cap)
        runtime_choice = trace.executions[2].config  # first scheduled step

        standalone = Scheduler().select(
            runtime._predictions[kernel.uid], cap
        )
        assert runtime_choice == standalone.config

    def test_act4_dynamic_cap_reuses_samples(self, story):
        apu, suite, model, _ = story
        app = Application.from_suite(suite, "LU Small")
        online = ProfilingLibrary(apu, seed=13)
        runtime = AdaptiveRuntime(model, online)
        caps = lambda t: [25.0, 14.0, 30.0, 18.0][t % 4]  # noqa: E731
        trace = runtime.run(app, n_timesteps=8, power_cap_w=caps)
        # Exactly two sample invocations per kernel across the whole run.
        samples = [e for e in trace.executions if e.phase.startswith("sample")]
        assert len(samples) == 2 * len(app)
        # Different caps produced different scheduled configurations.
        scheduled_configs = {
            e.power_cap_w: e.config
            for e in trace.executions
            if e.phase == "scheduled"
        }
        assert len(set(scheduled_configs.values())) >= 2

    def test_act5_cluster_manager_uses_same_model(self, story):
        apu, suite, model, reloaded = story
        nodes = [
            ClusterNode(
                "a", Application.from_suite(suite, "LU Small"), reloaded, seed=1
            ),
            ClusterNode(
                "b", Application.from_suite(suite, "LU Large"), reloaded, seed=2
            ),
        ]
        mgr = ClusterPowerManager(nodes, policy="greedy")
        caps = mgr.allocate(45.0)
        assert sum(caps.values()) <= 45.0 + 1e-9
        report = mgr.run([45.0], n_epochs=1, timesteps_per_epoch=2)
        traces = report.epochs[0].traces.values()
        assert sum(t.timesteps() for t in traces) == 4

    def test_act6_oracle_never_loses_to_the_model(self, story):
        """Global sanity: for any kernel and cap, the oracle's true
        performance under the cap bounds the model's compliant picks."""
        apu, suite, model, _ = story
        from repro.methods import Oracle

        oracle = Oracle(apu)
        kernel = suite.get("LU/Medium/LUDecomposition")
        online = ProfilingLibrary(apu, seed=17)
        prediction = OnlinePredictor(model, online).predict(kernel)
        for cap in oracle.caps_for(kernel):
            model_cfg = Scheduler().select(prediction, cap).config
            oracle_cfg = oracle.decide(kernel, cap).config
            model_power = apu.true_total_power_w(kernel, model_cfg)
            if model_power <= cap * (1 + 1e-9):
                assert apu.true_performance(kernel, model_cfg) <= (
                    apu.true_performance(kernel, oracle_cfg) * (1 + 1e-9)
                )
