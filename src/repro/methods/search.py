"""Online search-based baselines: exhaustive and hill climbing.

The paper's abstract claims its two-iteration model "provides a
significant advantage over exhaustive search-based strategies".  These
baselines make the comparison concrete:

* :class:`ExhaustiveSearch` — measure the kernel on *every*
  configuration, then pick the best measured configuration under the
  cap.  Decision quality approaches the oracle's (limited only by
  measurement noise), but each kernel pays one online iteration per
  configuration (42 on Trinity), mostly at suboptimal (sometimes
  cap-violating) operating points, before the decision lands.
* :class:`HillClimbing` — greedy local search over the configuration
  neighbourhood graph (change one knob at a time: device, CPU P-state,
  thread count, GPU P-state, or the GPU's second axis — host P-state
  on Trinity, unit count elsewhere), starting from the machine's CPU
  sample configuration.  Far fewer iterations than exhaustive, but it gets
  stuck in local optima — notably on kernels whose frontier jumps
  devices (LU Small's cliff).

Both respect the measurement-only discipline: they see the machine
through :meth:`HardwareBackend.run`, never ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.constants import respects_cap
from repro.hardware.backend import HardwareBackend
from repro.hardware.config import Configuration, Device
from repro.methods.base import MethodDecision, PowerLimitMethod

__all__ = ["ExhaustiveSearch", "HillClimbing"]


class ExhaustiveSearch(PowerLimitMethod):
    """Measure everything once per kernel, then look decisions up.

    The 42 measurement iterations are charged to the *first* cap
    evaluated for a kernel; subsequent caps reuse the table (the most
    favourable possible accounting for this baseline).
    """

    name = "Exhaustive"

    def __init__(self, apu: HardwareBackend, *, seed: int = 0) -> None:
        self.apu = apu
        self._rng = np.random.default_rng(seed)
        self._tables: dict[str, dict[Configuration, tuple[float, float]]] = {}

    def prepare(self, kernel) -> None:
        """Measure the kernel on every configuration (once)."""
        uid = kernel.uid
        if uid in self._tables:
            return
        table = {}
        for cfg in self.apu.config_space:
            m = self.apu.run(kernel, cfg, rng=self._rng)
            table[cfg] = (m.total_power_w, m.performance)
        self._tables[uid] = table

    def decide_many(self, kernel, power_caps_w) -> list[MethodDecision]:
        return [self._decide_one(kernel, cap) for cap in power_caps_w]

    def _decide_one(self, kernel, power_cap_w: float) -> MethodDecision:
        """Best measured-feasible configuration under the cap."""
        first_time = kernel.uid not in self._tables
        self.prepare(kernel)
        table = self._tables[kernel.uid]
        feasible = {
            cfg: perf
            for cfg, (pw, perf) in table.items()
            if respects_cap(pw, power_cap_w)
        }
        if feasible:
            cfg = max(feasible, key=feasible.get)
        else:
            cfg = min(table, key=lambda c: table[c][0])
        return MethodDecision(
            config=cfg, online_runs=len(table) if first_time else 0
        )


def _steps(ladder: tuple, value) -> list:
    """The rungs of ``ladder`` one step below and above ``value``."""
    i = ladder.index(value)
    return [ladder[j] for j in (i - 1, i + 1) if 0 <= j < len(ladder)]


def _neighbours(cfg: Configuration) -> list[Configuration]:
    """Single-knob moves from a configuration (the search graph), along
    the ladders of its own machine."""
    d = cfg.descriptor
    p, s = d.primary, d.secondary
    if cfg.device is Device.CPU:
        out = [
            cfg.replace(cpu_freq_ghz=f) for f in _steps(p.freqs_ghz, cfg.cpu_freq_ghz)
        ]
        out += [
            cfg.replace(n_threads=n) for n in _steps(p.thread_counts, cfg.n_threads)
        ]
        # Device switch: hop to the secondary block's lowest rung (at
        # this host frequency where the machine varies the host).
        host = cfg.cpu_freq_ghz if s.host_axis else d.host_freqs_ghz()[0]
        out.append(d.config(Device.GPU, host, s.thread_counts[0], s.min_freq_ghz))
        return out
    out = [
        cfg.replace(gpu_freq_ghz=g) for g in _steps(s.freqs_ghz, cfg.gpu_freq_ghz)
    ]
    # The secondary block's second axis: the host ladder or unit counts.
    if s.host_axis:
        out += [
            cfg.replace(cpu_freq_ghz=h)
            for h in _steps(d.host_freqs_ghz(), cfg.cpu_freq_ghz)
        ]
    else:
        out += [
            cfg.replace(n_threads=n) for n in _steps(s.thread_counts, cfg.n_threads)
        ]
    # Device switch: hop back to the primary block at one unit.
    out.append(
        d.config(Device.CPU, cfg.cpu_freq_ghz, p.thread_counts[0], s.min_freq_ghz)
    )
    return out


class HillClimbing(PowerLimitMethod):
    """Greedy neighbourhood search from the CPU sample configuration.

    At each step, measure all unvisited neighbours of the current
    configuration and move to the best cap-feasible one; stop when no
    neighbour improves.  Measurements are cached per kernel, but the
    search restarts per cap (feasibility depends on the cap).
    """

    name = "HillClimb"

    def __init__(
        self, apu: HardwareBackend, *, seed: int = 0, max_steps: int = 12
    ) -> None:
        self.apu = apu
        self.max_steps = max_steps
        self._rng = np.random.default_rng(seed)
        self._measured: dict[str, dict[Configuration, tuple[float, float]]] = {}

    def _measure(self, kernel, cfg: Configuration) -> tuple[tuple[float, float], bool]:
        cache = self._measured.setdefault(kernel.uid, {})
        if cfg in cache:
            return cache[cfg], False
        m = self.apu.run(kernel, cfg, rng=self._rng)
        cache[cfg] = (m.total_power_w, m.performance)
        return cache[cfg], True

    def decide_many(self, kernel, power_caps_w) -> list[MethodDecision]:
        return [self._decide_one(kernel, cap) for cap in power_caps_w]

    def _decide_one(self, kernel, power_cap_w: float) -> MethodDecision:
        """Greedy ascent on measured performance within the cap."""
        runs = 0
        start = self.apu.descriptor.sample_configs()[0]
        (pw, perf), fresh = self._measure(kernel, start)
        runs += fresh
        current, current_perf = start, perf
        current_feasible = respects_cap(pw, power_cap_w)

        best_feasible: tuple[Configuration, float] | None = (
            (current, current_perf) if current_feasible else None
        )
        fallback: tuple[Configuration, float] = (current, pw)

        for _ in range(self.max_steps):
            best_move = None
            for nb in _neighbours(current):
                (npw, nperf), fresh = self._measure(kernel, nb)
                runs += fresh
                if npw < fallback[1]:
                    fallback = (nb, npw)
                if not respects_cap(npw, power_cap_w):
                    continue
                if best_feasible is None or nperf > best_feasible[1]:
                    best_feasible = (nb, nperf)
                if best_move is None or nperf > best_move[1]:
                    best_move = (nb, nperf)
            if best_move is None:
                # No feasible neighbour: walk toward lower power.
                cheaper = min(
                    _neighbours(current),
                    key=lambda c: self._measured[kernel.uid].get(
                        c, (float("inf"),)
                    )[0],
                )
                if cheaper == current:
                    break
                current = cheaper
                continue
            if best_move[1] <= current_perf and current_feasible:
                break  # local optimum
            current, current_perf = best_move
            current_feasible = True

        if best_feasible is not None:
            return MethodDecision(config=best_feasible[0], online_runs=runs)
        return MethodDecision(config=fallback[0], online_runs=runs)
