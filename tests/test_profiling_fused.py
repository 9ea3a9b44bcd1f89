"""The batched profiling pass against the per-plane, per-run reference.

:class:`~repro.profiling.ProfilingLibrary` profiles a whole
characterization sweep as one batch: one draw call per run, every run's
power planes sampled in bucketed array passes, noise streams derived in
one vectorized step, and the time and counter noise of all runs applied
in one array product.  These tests pin that all of it is an
optimisation and nothing more: against
:class:`tests.profile_reference.ReferenceProfilingLibrary` every
profile, the database, the repetition counters and the profile memo's
hit/miss counts agree on every backend, under each noise setting (exact,
default and scalar, where some noise axes are zero), each committed
fault plan (a run failure mid-sweep included), with boost on and off,
and over repeated single- and multi-kernel sweeps interleaved with
single profiles.  The kernels include runs of two samples and runs of
more than 8192.  The stream derivation itself is pinned to numpy's
``SeedSequence``.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults import FaultPlan
from repro.faults.errors import SampleRunError
from repro.hardware import BoostPolicy, NoiseModel, TrinityAPU
from repro.hardware.backend import create_backend
from repro.profiling import CharacterizationStore, PowerSampler, ProfilingLibrary
from repro.profiling import library as library_module
from repro.profiling import sampler as sampler_module
from repro.profiling.library import _base_pool, _seed_words
from repro.profiling.store import _STORE_STREAM_TAG
from repro.workloads import Kernel, build_suite
from tests.conftest import make_kernel
from tests.profile_reference import (
    ReferencePowerSampler,
    ReferenceProfilingLibrary,
    reference_run_rng,
)

PLAN_DIR = Path(__file__).parent / "fault_plans"
PLANS = (None,) + tuple(sorted(p.name for p in PLAN_DIR.glob("*.json")))
BACKENDS = ("trinity", "biglittle", "mpsoc")
#: name -> (machine noise, sampler); "jitter-free" is the noiseless
#: machine and sampler of tests/test_faults.py.
NOISE = {
    "default": (NoiseModel(), None),
    "exact": (NoiseModel.exact(), None),
    "jitter-free": (
        NoiseModel.exact(),
        PowerSampler(sample_noise_rel=0.0, fluctuation_rel=0.0),
    ),
    # Scalar noise: a zero axis draws nothing from the run's stream.
    "scalar-counters": (NoiseModel(time_rel=0.0, counter_rel=0.03), None),
    "scalar-time": (NoiseModel(time_rel=0.015, counter_rel=0.0), None),
}
COUNTERS = ("cache.profile.hits", "cache.profile.misses")
#: A run fails only by plan, on every backend (the injector resolves
#: P-states on each configuration's own ladders).  A failure must abort
#: a sweep at the same run in the reference and the library.
FAILURES = (SampleRunError,)
#: Three suite kernels, then one whose runs all take two samples and one
#: with runs of more than 8192 samples on every backend.
KERNELS = tuple(build_suite())[:3] + (
    Kernel("Tiny", "Probe", "Edge", make_kernel(work_s=1e-5, launch_overhead_s=1e-6)),
    Kernel("Long", "Probe", "Edge", make_kernel(work_s=9.0)),
)
#: Repeated sweeps (repetition > 0) interleaved with single profiles;
#: ("single", kernel, i) profiles the i-th configuration (mod size), and
#: ("sweeps", kernel, i) sweeps i + 1 kernels from ``kernel`` on (mod
#: the kernel count) in one batch.
SCRIPT = (
    ("sweep", 0, None),
    ("single", 0, 5),
    ("sweep", 1, None),
    ("sweeps", 0, 4),
    ("single", 0, 5),
    ("single", 2, 0),
    ("sweep", 2, None),
    ("sweeps", 3, 2),
    ("sweep", 0, None),
)


def _sweep_kernels(kernel: int, index: int) -> list:
    return [KERNELS[(kernel + j) % len(KERNELS)] for j in range(index % len(KERNELS) + 1)]


def _machine(backend: str, noise: str, plan: str | None, boost: bool, seed: int):
    policy = BoostPolicy() if boost else None
    if backend == "trinity":
        apu = TrinityAPU(noise=NOISE[noise][0], seed=seed, boost=policy)
    else:
        apu = create_backend(backend, seed=seed, noise=NOISE[noise][0])
        # The analytical backends model no boost; a policy here only
        # keys the machine's and the library's memos.
        apu.boost = policy
    if plan is not None:
        apu.inject_faults(FaultPlan.from_file(PLAN_DIR / plan))
    return apu


def _replay(library_cls, backend, noise, plan, boost, seed, ops, warmup=0):
    """Run ``ops`` on a fresh machine and library; everything observable."""
    apu = _machine(backend, noise, plan, boost, seed)
    configs = list(apu.config_space)
    for i in range(warmup):  # advance the fault clock into the plan
        try:
            apu.run(KERNELS[0], configs[i % len(configs)])
        except FAILURES:
            pass
    library = library_cls(apu, sampler=NOISE[noise][1], seed=seed)
    before = {name: telemetry.counter(name).value for name in COUNTERS}
    outcomes = []
    with mock.patch.dict(library_module._PROFILE_CACHE, clear=True):
        for op, kernel, index in ops:
            try:
                if op == "sweep":
                    outcomes.append(library.profile_sweeps([KERNELS[kernel]])[0])
                elif op == "sweeps":
                    sweeps = library.profile_sweeps(_sweep_kernels(kernel, index))
                    outcomes.append([p for sweep in sweeps for p in sweep])
                else:
                    config = configs[index % len(configs)]
                    outcomes.append([library.profile(KERNELS[kernel], config)])
            except FAILURES as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
    counts = {name: telemetry.counter(name).value - before[name] for name in COUNTERS}
    return outcomes, list(library.database), dict(library._rep_counts), counts


def _same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def assert_same_profile(got, ref) -> None:
    assert got.kernel_uid == ref.kernel_uid
    assert got.iteration == ref.iteration
    assert _same_float(got.sampling_overhead_s, ref.sampling_overhead_s)
    m, r = got.measurement, ref.measurement
    assert m.config == r.config
    for name in ("time_s", "cpu_plane_w", "nbgpu_plane_w"):
        assert _same_float(getattr(m, name), getattr(r, name)), name
    assert list(m.counters) == list(r.counters)
    for name, value in r.counters.items():
        assert _same_float(m.counters[name], value), name


def assert_replays_match(*args, **kwargs) -> list:
    ref = _replay(ReferenceProfilingLibrary, *args, **kwargs)
    got = _replay(ProfilingLibrary, *args, **kwargs)
    ref_outcomes, ref_db, ref_reps, ref_counts = ref
    outcomes, db, reps, counts = got
    assert len(outcomes) == len(ref_outcomes)
    for out, ref_out in zip(outcomes, ref_outcomes):
        if isinstance(ref_out, str):
            assert out == ref_out
            continue
        assert len(out) == len(ref_out)
        for profile, ref_profile in zip(out, ref_out):
            assert_same_profile(profile, ref_profile)
    assert len(db) == len(ref_db)
    for profile, ref_profile in zip(db, ref_db):
        assert_same_profile(profile, ref_profile)
    assert reps == ref_reps
    assert counts == ref_counts
    return ref_outcomes


class TestFusedProfilingMatchesReference:
    @pytest.mark.parametrize(
        "backend,noise,plan,boost",
        list(itertools.product(BACKENDS, sorted(NOISE), PLANS, (False, True))),
    )
    def test_script(self, backend, noise, plan, boost):
        outcomes = assert_replays_match(backend, noise, plan, boost, 7, SCRIPT)
        if plan == "mixed_chaos.json":
            # The plan's first run failure (runs 30-33) lands mid-sweep.
            assert any(out.startswith("SampleRunError") for out in outcomes if isinstance(out, str))

    @settings(max_examples=30, deadline=None)
    @given(
        backend=st.sampled_from(BACKENDS),
        noise=st.sampled_from(sorted(NOISE)),
        plan=st.sampled_from(PLANS),
        boost=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        warmup=st.integers(min_value=0, max_value=300),
        ops=st.lists(
            st.tuples(
                st.sampled_from(("sweep", "single", "sweeps")),
                st.integers(min_value=0, max_value=len(KERNELS) - 1),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_random_sequences(self, backend, noise, plan, boost, seed, warmup, ops):
        assert_replays_match(backend, noise, plan, boost, seed, ops, warmup=warmup)


#: Sampler layouts: the defaults, and small ones that put every
#: boundary the batch's time-major recursion has inside a test batch.
_LAYOUTS = (
    {"_STEP_ROWS": sampler_module._STEP_ROWS},  # the defaults
    {"_GROUP_SAMPLES": 1, "_STEP_ROWS": 1, "_VECTOR_MIN": 1},
    {"_GROUP_SAMPLES": 3000, "_STEP_ROWS": 7, "_VECTOR_MIN": 5},
    {"_GROUP_SAMPLES": 20000, "_STEP_ROWS": 64, "_VECTOR_MIN": 3,
     "_BUCKET_SPREAD": 2.0, "_BUCKET_ELEMENTS": 5000},
    {"_VECTOR_MIN": 1000},
)


@st.composite
def _sampled_batches(draw):
    """``(means, durations, extras)``: many short runs, among them runs
    of two samples, and up to three long ones, in any order."""
    planes = draw(st.integers(min_value=1, max_value=2))
    durations = draw(st.lists(
        st.one_of(
            st.floats(min_value=1e-6, max_value=5e-4),  # n = 2
            st.floats(min_value=1e-6, max_value=0.4),
        ),
        min_size=1,
        max_size=60,
    ))
    durations += draw(st.lists(st.floats(min_value=1.0, max_value=15.0), max_size=3))
    durations = draw(st.permutations(durations))
    runs = len(durations)
    plane_means = st.lists(
        st.floats(min_value=1e-3, max_value=500.0), min_size=planes, max_size=planes
    )
    means = draw(st.lists(plane_means, min_size=runs, max_size=runs))
    extras = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=runs,
                           max_size=runs))
    return means, durations, extras


class TestFusedSampler:
    @settings(max_examples=200, deadline=None)
    @given(
        means=st.lists(
            st.floats(min_value=1e-3, max_value=500.0), min_size=1, max_size=4
        ),
        duration=st.floats(min_value=1e-6, max_value=3.0),
        noise=st.sampled_from(sorted(NOISE)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_planes_match_per_plane_sampling(self, means, duration, noise, seed):
        sampler = NOISE[noise][1] or PowerSampler()
        reference = ReferencePowerSampler(**vars(sampler))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sampler.sample(means, duration, rng) == reference.sample(
            means, duration, ref_rng
        )
        assert sampler.sample(means[0], duration, rng) == reference.sample(
            means[0], duration, ref_rng
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        batch=_sampled_batches(),
        layout=st.sampled_from(_LAYOUTS),
        noise=st.sampled_from(sorted(NOISE)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_matches_run_by_run_sampling(self, batch, layout, noise, seed):
        # Many short runs (n = 2 among them) with a few long ones (n up
        # to 15,001), on one or two planes, sampled under the default
        # layout and under small ones that put group, slice, bucket and
        # vector-to-float boundaries inside the batch.
        means, durations, extras = batch
        sampler = NOISE[noise][1] or PowerSampler()
        reference = ReferencePowerSampler(**vars(sampler))
        rngs = [np.random.default_rng([seed, i]) for i in range(len(durations))]
        with mock.patch.multiple(sampler_module, **layout):
            got = sampler.sample(
                np.array(means), np.array(durations), rngs, extra_draws=extras
            )
        for i, (run_means, duration, extra) in enumerate(zip(means, durations, extras)):
            ref_rng = np.random.default_rng([seed, i])
            ref = reference.sample(run_means, duration, ref_rng)
            assert got.mean_power_w[i].tolist() == [p.mean_power_w for p in ref]
            assert got.energy_j[i].tolist() == [p.energy_j for p in ref]
            assert got.n_samples[i] == ref[0].n_samples
            assert got.overhead_s[i] == ref[0].overhead_s
            assert np.array_equal(got.extra[i], ref_rng.standard_normal(extra))
            assert rngs[i].bit_generator.state == ref_rng.bit_generator.state

    def test_full_trinity_characterization_batch_matches_reference(self):
        # The batch a Trinity bring-up samples (every suite kernel on
        # every configuration: several groups, vector steps and a float
        # tail under the default layout), replayed run by run.
        calls = []
        sample = PowerSampler.sample

        def record(sampler, means, durations, rngs, *, extra_draws=0):
            before = [copy.deepcopy(rng) for rng in rngs]
            got = sample(sampler, means, durations, rngs, extra_draws=extra_draws)
            calls.append((sampler, means, durations, before, extra_draws, got))
            return got

        with mock.patch.object(PowerSampler, "sample", record), mock.patch.dict(
            library_module._PROFILE_CACHE, clear=True
        ):
            CharacterizationStore(TrinityAPU(seed=3), seed=3).characterize(build_suite())
        (sampler, means, durations, rngs, extras, got), = calls
        assert len(durations) == len(build_suite()) * len(TrinityAPU().config_space)
        assert got.n_samples.max() > 8192 and got.n_samples.min() < 100
        reference = ReferencePowerSampler(**vars(sampler))
        for i, extra in enumerate(np.broadcast_to(extras, len(durations)).tolist()):
            ref = reference.sample(tuple(means[i]), durations[i], rngs[i])
            assert got.mean_power_w[i].tolist() == [p.mean_power_w for p in ref]
            assert got.energy_j[i].tolist() == [p.energy_j for p in ref]
            assert np.array_equal(got.extra[i], rngs[i].standard_normal(extra))


class TestStoreBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("noise", ["default", "exact", "scalar-counters"])
    def test_characterize_matches_reference_sweeps(self, backend, noise):
        # One batch over the missing kernels (a duplicate and a cached
        # kernel among them) records what sweeping them one after
        # another with the reference records.
        seed = 11
        apu = _machine(backend, noise, None, False, seed)
        with mock.patch.dict(library_module._PROFILE_CACHE, clear=True):
            store = CharacterizationStore(apu, seed=seed)
            store.characterization(KERNELS[1])
            chars = store.characterize([KERNELS[0], KERNELS[1], KERNELS[3], KERNELS[0], KERNELS[4]])
        reference = ReferenceProfilingLibrary(
            _machine(backend, noise, None, False, seed),
            seed=np.random.SeedSequence([seed, _STORE_STREAM_TAG]),
        )
        with mock.patch.dict(library_module._PROFILE_CACHE, clear=True):
            for kernel in (KERNELS[1], KERNELS[0], KERNELS[3], KERNELS[4]):
                reference.profile_all_configs(kernel)
        assert len(store.library.database) == len(reference.database)
        for profile, ref_profile in zip(store.library.database, reference.database):
            assert_same_profile(profile, ref_profile)
        assert [c.kernel_uid for c in chars] == [
            KERNELS[i].uid for i in (0, 1, 3, 0, 4)
        ]
        assert chars[0] is chars[3]
        assert (store.hits, store.misses) == (2, 4)

    def test_conflicting_uid_raises_before_profiling(self):
        store = CharacterizationStore(seed=0)
        imposter = Kernel("Tiny", "Probe", "Edge", make_kernel(work_s=2e-5))
        with pytest.raises(ValueError, match="conflicts"):
            store.characterize([KERNELS[0], KERNELS[3], imposter])
        assert len(store.library.database) == 0
        assert (store.hits, store.misses) == (0, 0)


def test_round_synthesizes_counters_once_per_pair():
    # Three-machine rounds on fresh machines and stores (as the offline
    # bring-up runs them, one seed per round) read every run's counters
    # from the machines' process-wide memo: one synthesis per (kernel,
    # configuration) and machine, however many rounds.  The profiling
    # library's own namespace is patched too, so a direct call from it
    # would be counted.
    from repro.hardware import backend as backend_module
    from repro.hardware import counters as counters_module

    calls = Counter()
    synthesize = counters_module.synthesize_counters

    def counting(chars, cfg):
        calls[(chars, cfg)] += 1
        return synthesize(chars, cfg)

    kernels = list(build_suite())
    with mock.patch.dict(backend_module._MEMOS, clear=True), mock.patch.dict(
        library_module._PROFILE_CACHE, clear=True
    ), mock.patch.object(counters_module, "synthesize_counters", counting), mock.patch.object(
        library_module, "synthesize_counters", counting, create=True
    ):
        for seed in (5, 6):
            for backend in BACKENDS:
                apu = create_backend(backend, seed=seed)
                CharacterizationStore(apu, seed=seed).characterize(kernels)
    assert max(calls.values()) == 1
    assert sum(calls.values()) == len(kernels) * sum(
        len(create_backend(backend).config_space) for backend in BACKENDS
    )


WORD = st.one_of(
    st.sampled_from((0, 2**32 - 1)), st.integers(min_value=0, max_value=2**32 - 1)
)


class TestStreamDerivation:
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.lists(WORD, min_size=4, max_size=4),
        keys=st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=5),
    )
    def test_matches_seed_sequence(self, base, keys):
        words = _seed_words(_base_pool(base), np.array(keys, dtype=np.uint32))
        assert words.shape == (len(keys), 4)
        for key, row in zip(keys, words):
            ref = np.random.default_rng(np.random.SeedSequence(base + key))
            got = np.random.Generator(
                np.random.PCG64(library_module._SeedWords(row))
            )
            assert got.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(got.standard_normal(8), ref.standard_normal(8))

    def test_library_streams_match_seed_sequence(self):
        library = ProfilingLibrary(TrinityAPU(seed=0), seed=12345)
        kernel = KERNELS[0]
        config = next(iter(library.apu.config_space))
        runs = [(kernel.uid, config, repetition) for repetition in range(3)]
        for (uid, cfg, repetition), got in zip(runs, library._run_rngs(runs)):
            ref = reference_run_rng(library._base_entropy, uid, cfg, repetition)
            assert got.bit_generator.state == ref.bit_generator.state
