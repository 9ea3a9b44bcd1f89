"""``core/regression.py::_kernel_design`` against its per-configuration loop.

The design rows of one kernel are gathered from the machine's
:class:`~repro.core.configspace.ConfigTable` and the anchor block and
targets are built with array ops.  :func:`reference_kernel_design` is
the loop it replaced, one :func:`design_row` and one ``_power_features``
call per configuration, kept here verbatim as the oracle: every array
must be equal with ``==`` on every backend, for both transforms, with
the power anchor on and off, and for a kernel whose measurements come
in a shuffled order and cover only part of the space.  One-configuration
power predictions, which anchored ``_power_features`` rows before, must
also be unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import KernelCharacterization, design_row
from repro.core.characterization import characterize_kernels
from repro.core.features import power_design_row
from repro.core.regression import (
    _POWER_ANCHOR_SCALE_W,
    _kernel_design,
    fit_cluster_models,
)
from repro.hardware import Device
from repro.hardware.backend import create_backend
from repro.profiling import ProfilingLibrary
from repro.workloads import build_suite

BACKENDS = ("trinity", "biglittle", "mpsoc")


def _power_features(cfg, sample_power_w, power_anchor):
    x = power_design_row(cfg)
    if not power_anchor:
        return x
    s = sample_power_w / _POWER_ANCHOR_SCALE_W
    return np.concatenate([x, [s], s * x])


def reference_kernel_design(char, device, transform, power_anchor):
    sample = char.gpu_sample if device is Device.GPU else char.cpu_sample
    s_perf = sample.performance
    s_power = sample.total_power_w
    X_perf, y_perf, X_power, y_power = [], [], [], []
    for cfg, m in char.measurements.items():
        if cfg.device is not device:
            continue
        ratio = m.performance / s_perf
        X_perf.append(design_row(cfg))
        y_perf.append(np.log(ratio) if transform == "log" else ratio)
        X_power.append(_power_features(cfg, s_power, power_anchor))
        y_power.append(
            np.log(m.total_power_w) if transform == "log" else m.total_power_w
        )
    return (
        np.asarray(X_perf),
        np.asarray(y_perf),
        np.asarray(X_power),
        np.asarray(y_power),
    )


@pytest.fixture(scope="module", params=BACKENDS)
def chars(request):
    library = ProfilingLibrary(create_backend(request.param, seed=3), seed=3)
    kernels = list(build_suite())[::9][:4]
    chars = characterize_kernels(library, kernels)
    # A partial characterization in shuffled order: the two samples and
    # every third other configuration.
    full = chars[0]
    samples = {full.cpu_sample.config, full.gpu_sample.config}
    items = [
        (cfg, m)
        for i, (cfg, m) in enumerate(full.measurements.items())
        if cfg in samples or i % 3 == 0
    ]
    order = np.random.default_rng(0).permutation(len(items))
    partial = KernelCharacterization(
        kernel_uid=full.kernel_uid,
        measurements={items[i][0]: items[i][1] for i in order},
    )
    return chars + [partial]


@pytest.mark.parametrize("device", [Device.CPU, Device.GPU])
@pytest.mark.parametrize("transform", ["none", "log"])
@pytest.mark.parametrize("power_anchor", [True, False])
def test_kernel_design_equals_per_configuration_loop(
    chars, device, transform, power_anchor
):
    for char in chars:
        got = _kernel_design(char, device, transform, power_anchor)
        want = reference_kernel_design(char, device, transform, power_anchor)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert (g == w).all()


@pytest.mark.parametrize("power_anchor", [True, False])
def test_predict_power_equals_anchored_feature_row(chars, power_anchor):
    models = fit_cluster_models(chars[:-1], power_anchor=power_anchor)
    char = chars[0]
    for device in (Device.CPU, Device.GPU):
        model = models.for_device(device)
        s = (char.gpu_sample if device is Device.GPU else char.cpu_sample).total_power_w
        for cfg in char.measurements:
            if cfg.device is device:
                x = _power_features(cfg, s, power_anchor)
                want = max(float(model.power.predict(x)[0]), 1e-6)
                assert model.predict_power(cfg, s) == want
