"""Lazily-described combinatorial configuration spaces.

Every layer built before this one — :class:`~repro.core.frontier.
ParetoFrontier`, :class:`~repro.core.frontier.CapSweepTable`,
:class:`~repro.cluster.pool.FrontierPool` — assumes the configuration
space is small enough to materialize and evaluate exhaustively (the
paper's Trinity space: 42 points).  Production spaces are combinatorial:
per-core DVFS × uncore × memory frequency × GPU clock multiplies into
millions of points, and *enumeration* becomes the dominant cost of
frontier construction.

A :class:`GeneratedConfigSpace` describes such a space without
materializing it:

* each :class:`FactorAxis` is a named, ordered tuple of levels (CPU
  frequency, thread count, ...);
* a candidate configuration is a **genome** — one integer index per
  axis; a population is an ``(n, n_axes)`` int matrix;
* an attached evaluation model decodes genome *columns* straight into
  ground-truth ``(rate, power)`` arrays in one vectorized pass (the
  machine's ``batch_rate_power``), so the space's cost is the number
  of genomes *evaluated*, never the number of points it *contains*.

Exhaustive enumeration stays available for small spaces (it is how the
search engine is validated against the exact frontier) but is gated:
:meth:`GeneratedConfigSpace.all_genomes` raises
:class:`SpaceTooLargeError` beyond :data:`ENUMERATION_LIMIT` unless
explicitly forced, which is exactly the regime :mod:`repro.search.
engine` exists for.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.telemetry import counter, gauge

__all__ = [
    "ENUMERATION_LIMIT",
    "FactorAxis",
    "GeneratedConfig",
    "GeneratedConfigSpace",
    "SpaceTooLargeError",
    "backend_space",
    "demo_space",
    "paper_space",
]

#: Above this many points a space is considered non-enumerable and
#: ``all_genomes`` / ``exact_frontier`` must be forced explicitly.
ENUMERATION_LIMIT: int = 200_000

#: Rows per evaluation chunk when parallel evaluation is enabled.
EVAL_CHUNK_ROWS: int = 16_384


class SpaceTooLargeError(RuntimeError):
    """Raised when exhaustive enumeration of a space is infeasible."""


@dataclass(frozen=True)
class FactorAxis:
    """One named factor of a combinatorial space: an ordered value list.

    Genome integers index into ``values``; adjacent indices should be
    physically adjacent operating points (the search engine's mutation
    steps prefer neighbouring levels).
    """

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no levels")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate levels")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"axis {self.name!r} has non-finite level {v}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GeneratedConfig:
    """A decoded point of a generated space (the frontier payload).

    Plays the role :class:`~repro.hardware.config.Configuration` plays
    for the enumerated Trinity space: an immutable, hashable identity
    for one operating point.  Spaces that map onto a real machine (the
    paper space) can substitute genuine ``Configuration`` objects via
    their model's ``payloads`` hook instead.
    """

    space: str
    names: tuple[str, ...]
    values: tuple[float, ...]

    def label(self) -> str:
        """Compact human-readable identity, stable across runs."""
        inner = ",".join(
            f"{n}={v:g}" for n, v in zip(self.names, self.values)
        )
        return f"{self.space}[{inner}]"


class SpaceModel(Protocol):
    """Evaluation model attached to a :class:`GeneratedConfigSpace`.

    ``key`` must be hashable and capture everything the evaluation
    depends on besides the kernel (e.g. power constants) — it keys the
    process-wide exact-frontier memo.
    """

    key: tuple

    def canonicalize(self, space: "GeneratedConfigSpace", genomes: np.ndarray) -> np.ndarray:
        """Map genomes onto canonical representatives (idempotent)."""

    def evaluate(
        self, chars, columns: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode value columns into per-row ``(rates, powers)``."""

    def payloads(
        self, space: "GeneratedConfigSpace", genomes: np.ndarray
    ) -> list | None:
        """Optional: native config objects for genome rows (or None)."""


# Process-wide exact-frontier memo for generated spaces.  Validation
# reruns (every search-vs-exact gate, every benchmark repetition)
# re-derive the same enumerated table; with the space key and kernel
# characteristics in the key the build is pure, same memo family as the
# truth-table caches of PR 2 (see docs/OBSERVABILITY.md).
_EXACT_CACHE: dict[tuple, object] = {}
_EXACT_HITS = counter("cache.search_space.hits")
_EXACT_MISSES = counter("cache.search_space.misses")
_EXACT_SIZE = gauge("cache.search_space.size")
_EXACT_LOCK = threading.Lock()


def _characteristics(kernel):
    chars = getattr(kernel, "characteristics", None)
    return chars if chars is not None else kernel


class GeneratedConfigSpace:
    """A combinatorial configuration space described by factor axes.

    Parameters
    ----------
    name:
        Space identity (used in payload labels and memo keys).
    axes:
        The factor axes; genome column ``j`` indexes ``axes[j].values``.
    model:
        The evaluation model (see :class:`SpaceModel`).
    """

    def __init__(
        self, name: str, axes: Sequence[FactorAxis], model: SpaceModel
    ) -> None:
        if not axes:
            raise ValueError("a space needs at least one axis")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        self.name = name
        self.axes = tuple(axes)
        self.model = model
        self._radices = np.array([len(a) for a in self.axes], dtype=np.int64)
        self._value_tables = [
            np.asarray(a.values, dtype=np.float64) for a in self.axes
        ]

    # -- shape -----------------------------------------------------------------

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    @property
    def radices(self) -> np.ndarray:
        """Number of levels per axis (genome column bounds)."""
        return self._radices

    @property
    def size(self) -> int:
        """Total number of points described (never materialized)."""
        return int(math.prod(int(r) for r in self._radices))

    @property
    def key(self) -> tuple:
        """Hashable identity of the space + model (memo key component)."""
        return (
            self.name,
            tuple((a.name, a.values) for a in self.axes),
            self.model.key,
        )

    # -- genomes ---------------------------------------------------------------

    def validate_genomes(self, genomes: np.ndarray) -> np.ndarray:
        g = np.ascontiguousarray(genomes, dtype=np.int64)
        if g.ndim != 2 or g.shape[1] != self.n_axes:
            raise ValueError(
                f"genomes must be (n, {self.n_axes}), got {g.shape}"
            )
        if g.size and (g.min() < 0 or np.any(g >= self._radices)):
            raise ValueError("genome indices out of axis bounds")
        return g

    def sample_genomes(
        self, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """``n`` canonical uniform-random genomes."""
        raw = rng.integers(0, self._radices, size=(n, self.n_axes))
        return self.canonicalize(raw)

    def canonicalize(self, genomes: np.ndarray) -> np.ndarray:
        """Model-defined canonical form (collapses don't-care axes)."""
        g = self.validate_genomes(genomes)
        return self.model.canonicalize(self, g)

    def decode_columns(self, genomes: np.ndarray) -> dict[str, np.ndarray]:
        """Genome columns decoded to axis-value arrays, keyed by name."""
        g = self.validate_genomes(genomes)
        return {
            a.name: self._value_tables[j][g[:, j]]
            for j, a in enumerate(self.axes)
        }

    def payloads(self, genomes: np.ndarray) -> list:
        """Config payloads per row: native objects when the model maps
        to a real machine, :class:`GeneratedConfig` otherwise."""
        g = self.validate_genomes(genomes)
        native = self.model.payloads(self, g)
        if native is not None:
            return native
        names = tuple(a.name for a in self.axes)
        cols = [self._value_tables[j][g[:, j]] for j in range(self.n_axes)]
        return [
            GeneratedConfig(
                space=self.name,
                names=names,
                values=tuple(float(c[i]) for c in cols),
            )
            for i in range(len(g))
        ]

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self, kernel, genomes: np.ndarray, *, n_jobs: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth ``(rates, powers)`` for genome rows.

        ``n_jobs > 1`` splits rows into chunks evaluated on a thread
        pool (numpy releases the GIL inside ufuncs); results are
        identical to the serial path because chunks are pure row slices.
        """
        g = self.canonicalize(genomes)
        chars = _characteristics(kernel)
        if n_jobs > 1 and len(g) > EVAL_CHUNK_ROWS:
            chunks = [
                g[i : i + EVAL_CHUNK_ROWS]
                for i in range(0, len(g), EVAL_CHUNK_ROWS)
            ]
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                parts = list(
                    pool.map(
                        lambda c: self.model.evaluate(
                            chars, self._columns_of(c)
                        ),
                        chunks,
                    )
                )
            rates = np.concatenate([p[0] for p in parts])
            powers = np.concatenate([p[1] for p in parts])
            return rates, powers
        return self.model.evaluate(chars, self._columns_of(g))

    def _columns_of(self, g: np.ndarray) -> dict[str, np.ndarray]:
        return {
            a.name: self._value_tables[j][g[:, j]]
            for j, a in enumerate(self.axes)
        }

    # -- enumeration (gated) ---------------------------------------------------

    def all_genomes(self, *, force: bool = False) -> np.ndarray:
        """Every genome of the space, canonicalized (duplicates possible
        where canonicalization collapses axes).

        Raises :class:`SpaceTooLargeError` above
        :data:`ENUMERATION_LIMIT` unless ``force=True`` — enumeration on
        such spaces is the cost this subsystem exists to avoid.
        """
        if self.size > ENUMERATION_LIMIT and not force:
            raise SpaceTooLargeError(
                f"space {self.name!r} has {self.size} points; exhaustive "
                f"enumeration is gated above {ENUMERATION_LIMIT} "
                f"(use search, or pass force=True)"
            )
        grids = np.meshgrid(
            *[np.arange(int(r), dtype=np.int64) for r in self._radices],
            indexing="ij",
        )
        raw = np.stack([grid.reshape(-1) for grid in grids], axis=1)
        return self.canonicalize(raw)

    def exact_frontier(self, kernel, *, force: bool = False):
        """The exhaustively-enumerated exact Pareto frontier (memoized).

        Pure in ``(space key, kernel characteristics)``; repeated
        validation runs hit the process-wide memo instead of re-decoding
        and re-evaluating the full table (``cache.search_space.*``
        counters account for it).
        """
        from repro.core.frontier import ParetoFrontier

        chars = _characteristics(kernel)
        memo_key = (self.key, chars)
        with _EXACT_LOCK:
            frontier = _EXACT_CACHE.get(memo_key)
        if frontier is not None:
            _EXACT_HITS.inc()
            return frontier
        _EXACT_MISSES.inc()
        genomes = self.all_genomes(force=force)
        rates, powers = self.evaluate(kernel, genomes)
        frontier = ParetoFrontier.from_arrays(
            self.payloads(genomes), powers, rates
        )
        with _EXACT_LOCK:
            _EXACT_CACHE[memo_key] = frontier
            _EXACT_SIZE.set(len(_EXACT_CACHE))
        return frontier


# -- registered-backend spaces (search over any HardwareBackend) ---------------


class _BackendModel:
    """Vectorized truth for a registered :class:`HardwareBackend`.

    Decoded rows are bit-identical to the machine's ``true_table``:
    both read its one physics hook.  The genome carries both blocks'
    knobs; canonicalization collapses the inactive block exactly like
    the descriptor's enumeration does (primary configs
    park the secondary at its minimum frequency with one unit;
    secondary configs pin the host at the descriptor's fixed host
    frequency unless the machine varies it, as Trinity does), so
    canonical genomes map one-to-one onto
    ``descriptor.enumerate_configs()``.
    """

    def __init__(self, name: str) -> None:
        from repro.hardware.backend import create_backend

        self.backend = create_backend(name)
        self.descriptor = self.backend.descriptor
        self.key = ("backend", name)

    def canonicalize(self, space, genomes: np.ndarray) -> np.ndarray:
        g = genomes.copy()
        is_gpu = g[:, 0] == 1
        # Axis order: device, cpu_freq_ghz, n_threads, gpu_freq_ghz,
        # gpu_units.  A fixed host is the primary block's maximum — the
        # last level of its ladder.
        if not self.descriptor.secondary.host_axis:
            g[is_gpu, 1] = len(self.descriptor.primary.freqs_ghz) - 1
        g[is_gpu, 2] = 0
        g[~is_gpu, 3] = 0
        g[~is_gpu, 4] = 0
        return g

    def evaluate(self, chars, columns):
        is_gpu = columns["device"] == 1.0
        n = np.where(is_gpu, columns["gpu_units"], columns["n_threads"])
        return self.backend.batch_rate_power(
            chars,
            is_gpu,
            columns["cpu_freq_ghz"],
            n,
            columns["gpu_freq_ghz"],
        )

    def payloads(self, space, genomes: np.ndarray) -> list:
        from repro.hardware.config import Device

        d = self.descriptor
        cols = space.decode_columns(genomes)
        return [
            d.config(Device.GPU, float(f), int(units), float(fg))
            if dev == 1.0
            else d.config(Device.CPU, float(f), int(n), float(fg))
            for dev, f, n, fg, units in zip(
                cols["device"],
                cols["cpu_freq_ghz"],
                cols["n_threads"],
                cols["gpu_freq_ghz"],
                cols["gpu_units"],
            )
        ]


def backend_space(name: str) -> GeneratedConfigSpace:
    """A registered backend's two-block space as a generated space.

    Small enough for exact validation, and the bridge that lets the
    search engine drive any backend in the registry.  Its exact
    frontier equals the oracle's ground-truth frontier bit for bit.
    """
    model = _BackendModel(name)
    d = model.descriptor
    axes = (
        FactorAxis("device", (0.0, 1.0)),
        FactorAxis("cpu_freq_ghz", d.primary.freqs_ghz),
        FactorAxis(
            "n_threads", tuple(float(n) for n in d.primary.thread_counts)
        ),
        FactorAxis("gpu_freq_ghz", d.secondary.freqs_ghz),
        FactorAxis(
            "gpu_units", tuple(float(n) for n in d.secondary.thread_counts)
        ),
    )
    return GeneratedConfigSpace(name, axes, model)


def paper_space() -> GeneratedConfigSpace:
    """The paper's Trinity space as a generated space (144 genomes, 42
    canonical points) — the validation anchor: its exact frontier equals
    the oracle's ground-truth frontier bit for bit."""
    return backend_space("trinity")


# -- the demo space (>1M points, enumeration-infeasible by design) -------------


@dataclass(frozen=True)
class _BigIronModel:
    """Analytic (rate, power) model for a many-axis server-class node.

    Extends the Trinity physics shapes — Amdahl × roofline timing,
    voltage-squared dynamic power — to five axes (core DVFS, core
    count, uncore, memory frequency, GPU clock) so the space is
    combinatorial while every term stays dimensionally plausible.  The
    model is *self-contained and deterministic*: the point of the demo
    space is scale, not machine fidelity.
    """

    cpu_fmax_ghz: float = 4.0
    gpu_fmax_ghz: float = 1.5
    uncore_fmax_ghz: float = 3.0
    mem_fmax_ghz: float = 3.2

    @property
    def key(self) -> tuple:
        return (
            "bigiron",
            self.cpu_fmax_ghz,
            self.gpu_fmax_ghz,
            self.uncore_fmax_ghz,
            self.mem_fmax_ghz,
        )

    def canonicalize(self, space, genomes: np.ndarray) -> np.ndarray:
        return genomes  # every axis always matters: already canonical

    def payloads(self, space, genomes: np.ndarray) -> None:
        return None  # GeneratedConfig payloads

    def evaluate(self, chars, columns):
        f = columns["cpu_freq_ghz"]
        n = columns["n_cores"]
        u = columns["uncore_ghz"]
        m = columns["mem_ghz"]
        g = columns["gpu_freq_ghz"]

        p = chars.parallel_fraction
        beta = chars.mem_fraction
        beta_g = chars.gpu_mem_fraction
        # Work splits between host and accelerator by GPU affinity; the
        # offloaded share is bounded by the parallel fraction.
        off = p * (chars.gpu_affinity / (1.0 + chars.gpu_affinity))

        s = f / self.cpu_fmax_ghz
        amdahl = 1.0 / ((1.0 - p) + p / n)
        bw = n / (1.0 + 0.25 * (n - 1))
        # Memory subsystem speed: DRAM frequency dominates, uncore
        # clock gates how much of it the cores can consume.
        mem_scale = (0.35 + 0.65 * (m / self.mem_fmax_ghz)) * (
            0.6 + 0.4 * (u / self.uncore_fmax_ghz)
        )
        t_cpu = (chars.work_s * (1.0 - off)) * (
            (1.0 - beta) / (amdahl * s) + beta / (bw * mem_scale)
        )

        fg = g / self.gpu_fmax_ghz
        t_gpu = (chars.work_s * off / chars.gpu_affinity) * (
            (1.0 - beta_g) / fg + beta_g / mem_scale
        ) + chars.launch_overhead_s * (self.cpu_fmax_ghz / f)
        # Host and device overlap; a small synchronization tax scales
        # with the offloaded share.
        t = np.maximum(t_cpu, t_gpu) * (1.0 + 0.05 * off)
        rates = 1.0 / t

        v = 0.55 + 0.12 * f
        act = chars.activity * (1.0 + 0.25 * chars.vector_fraction)
        cpu_w = 4.0 + 3.0 * v * v + n * 0.9 * act * f * v * v

        vu = 0.60 + 0.10 * u
        uncore_w = 1.5 + 4.0 * u * vu * vu * (
            0.3 + 0.7 * chars.dram_intensity
        )
        mem_w = 1.0 + 6.0 * chars.dram_intensity * (m / self.mem_fmax_ghz) * (
            bw / (16.0 / (1.0 + 0.25 * 15.0))
        )

        vg = 0.60 + 0.35 * g
        busy_num = (1.0 - beta_g) / fg
        busy = busy_num / (busy_num + beta_g)
        gpu_w = 3.0 + 5.0 * vg * vg + (
            40.0 * chars.gpu_activity * g * vg * vg * busy * off
        )

        powers = cpu_w + uncore_w + mem_w + gpu_w + 3.0
        return rates, powers


def _levels(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(round(float(x), 4) for x in np.linspace(lo, hi, n))


def demo_space() -> GeneratedConfigSpace:
    """A 1,179,648-point generated space (32×16×12×12×16): per-core
    DVFS × core count × uncore × memory frequency × GPU clock.  Big
    enough that :meth:`GeneratedConfigSpace.all_genomes` refuses to
    enumerate it — the search engine's demonstration target."""
    model = _BigIronModel()
    axes = (
        FactorAxis("cpu_freq_ghz", _levels(0.8, model.cpu_fmax_ghz, 32)),
        FactorAxis("n_cores", tuple(float(n) for n in range(1, 17))),
        FactorAxis("uncore_ghz", _levels(0.8, model.uncore_fmax_ghz, 12)),
        FactorAxis("mem_ghz", _levels(0.933, model.mem_fmax_ghz, 12)),
        FactorAxis("gpu_freq_ghz", _levels(0.15, model.gpu_fmax_ghz, 16)),
    )
    return GeneratedConfigSpace("bigiron-demo", axes, model)
