"""A fresh interpreter imports only what its process runs.

Importing ``scipy.signal`` costs about 1.5 s, and the power sampler's
AR(1) recursion is numpy and plain floats, so nothing in the package
loads scipy.  This test runs a new interpreter that imports the package
entry points a searching, allocating or serving process uses, checks
that no ``scipy`` module is loaded, samples one run and a two-run batch,
checks again that no ``scipy`` module is loaded, and then compares both
results with the per-plane reference sampler (which uses
``scipy.signal.lfilter``) bit for bit.

The HTTP server and the URL client are imported only by the calls that
use them (``serve_monitor_http``, ``fetch_monitor_dump``), and the
monitor package only by what monitors or serves.  ``repro.server``
re-exports nothing, so the batched decision engine that the LOOCV
harness and the adaptive runtime import (``repro.server.engine``) comes
without the batching front end and its monitor hooks.  A second
interpreter imports what an offline bring-up imports and checks that
no monitor module is loaded, then the decision engine and checks that
no batching or monitor module is, then the entry points above and
checks that no network or async module is.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import repro
import repro.cli
import repro.cluster.allocation
import repro.cluster.tree
import repro.search.engine
import repro.server.service

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), f"importing repro loaded {scipy_modules()}"

import numpy as np

from repro.profiling import PowerSampler

one = PowerSampler().sample([21.5, 7.25], 0.0437, np.random.default_rng(1))
means = np.array([[21.5, 7.25], [4.0, 11.0]])
durations = np.array([0.0437, 0.0012])
batch = PowerSampler().sample(
    means, durations, [np.random.default_rng(2), np.random.default_rng(3)]
)
assert not scipy_modules(), f"sampling loaded {scipy_modules()}"

from tests.profile_reference import ReferencePowerSampler

reference = ReferencePowerSampler()
assert one == reference.sample([21.5, 7.25], 0.0437, np.random.default_rng(1))
for i, seed in enumerate((2, 3)):
    runs = reference.sample(list(means[i]), durations[i], np.random.default_rng(seed))
    for p, run in enumerate(runs):
        assert batch.mean_power_w[i, p] == run.mean_power_w
        assert batch.energy_j[i, p] == run.energy_j
        assert batch.n_samples[i] == run.n_samples
        assert batch.overhead_s[i] == run.overhead_s
"""


NETWORK_AND_ASYNC_SCRIPT = """
import sys

NETWORK_AND_ASYNC = ("http.server", "urllib.request", "asyncio")

def loaded(*prefixes):
    return sorted(m for m in sys.modules if m in NETWORK_AND_ASYNC or m.startswith(prefixes))

import repro.core.model
import repro.hardware.backend
import repro.profiling.store
import repro.workloads

assert not loaded("repro.telemetry.monitor"), f"an offline bring-up loaded {loaded('repro.telemetry.monitor')}"

import repro.server.engine

lean = ("repro.server.batching", "repro.telemetry.monitor")
assert not loaded(*lean), f"importing the decision engine loaded {loaded(*lean)}"

import repro.cli
import repro.cluster.tree
import repro.search.engine
import repro.server.service

assert not loaded(), f"importing the entry points loaded {loaded()}"
"""


def _run_fresh(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_fresh_interpreter_imports_repro_without_scipy():
    _run_fresh(SCRIPT)


def test_fresh_interpreter_loads_no_network_async_or_monitor_module():
    _run_fresh(NETWORK_AND_ASYNC_SCRIPT)
