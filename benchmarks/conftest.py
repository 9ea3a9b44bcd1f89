"""Shared fixtures for the per-table/figure benchmark harness.

Heavy artifacts (the cross-validated evaluation behind Table III and
Figures 4-9) are computed once per session and shared; each benchmark
file then times the operation specific to its artifact and asserts the
paper's shape properties.

Rendered artifacts are written to ``benchmarks/artifacts/`` so a
benchmark run leaves the regenerated tables/figures on disk.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The repository root, so a benchmark can time the pure-Python reference
# implementations kept under ``tests/`` when run from this directory.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.core import AdaptiveModel, ParetoFrontier
from repro.evaluation import run_loocv
from repro.hardware import NoiseModel, TrinityAPU
from repro.profiling import CharacterizationStore
from repro.workloads import build_suite

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure next to the benchmarks."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / name).write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def exact_apu():
    """Noise-free machine (ground truth == measurement)."""
    return TrinityAPU(noise=NoiseModel.exact(), seed=0)


@pytest.fixture(scope="session")
def suite():
    return build_suite()


@pytest.fixture(scope="session")
def loocv_report():
    """The paper's full cross-validated evaluation (Table III + Figs 4-9)."""
    return run_loocv(seed=0)


@pytest.fixture(scope="session")
def suite_frontiers(exact_apu, suite):
    """Ground-truth Pareto frontier of every suite kernel."""
    return {
        k.uid: ParetoFrontier.from_measurements(exact_apu.run_all_configs(k))
        for k in suite
    }


@pytest.fixture(scope="session")
def char_store(exact_apu):
    """Profile-once characterization store over the noise-free machine.

    Benchmarks that need exhaustive characterizations slice them from
    this shared store instead of each re-profiling the suite on all 42
    configurations.
    """
    return CharacterizationStore(exact_apu, seed=0)


def train_from_store(store, kernels, **train_kwargs):
    """Train an :class:`AdaptiveModel` from store-served
    characterizations and a cached dissimilarity submatrix."""
    return AdaptiveModel.train(
        store.characterize(kernels),
        dissimilarity=store.dissimilarity_submatrix(
            kernels,
            composition_weight=train_kwargs.get("composition_weight"),
        ),
        **train_kwargs,
    )
