"""Execution traces: what an application run actually did.

The paper's profiling library keeps "a history of performance and power
measurements ... accessible to the application or runtime" (Section
III-D).  :class:`ApplicationTrace` is the runtime-level counterpart:
one record per kernel invocation, with aggregate views (total time,
energy, cap-violation rate) used by the application-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import respects_cap
from repro.hardware.config import Configuration

__all__ = ["KernelExecution", "ApplicationTrace"]

@dataclass(frozen=True)
class KernelExecution:
    """One kernel invocation inside an application run.

    ``phase`` records the online-protocol stage this invocation served:
    ``"sample-cpu"`` / ``"sample-gpu"`` for the first two iterations,
    ``"scheduled"`` afterwards.
    """

    timestep: int
    kernel_uid: str
    config: Configuration
    time_s: float
    power_w: float
    power_cap_w: float
    phase: str

    @property
    def energy_j(self) -> float:
        """Energy of this invocation (joules)."""
        return self.power_w * self.time_s

    @property
    def under_cap(self) -> bool:
        """Whether this invocation's power respected its cap (shared
        :data:`repro.constants.CAP_EPSILON` tolerance)."""
        return respects_cap(self.power_w, self.power_cap_w)


@dataclass
class ApplicationTrace:
    """All invocations of one application run, with aggregates."""

    application: str
    executions: list[KernelExecution] = field(default_factory=list)

    def record(self, execution: KernelExecution) -> None:
        """Append one invocation to the trace."""
        self.executions.append(execution)

    def __len__(self) -> int:
        return len(self.executions)

    # -- aggregates ------------------------------------------------------------

    @property
    def total_time_s(self) -> float:
        """Wall time of the run (kernels execute sequentially)."""
        return sum(e.time_s for e in self.executions)

    @property
    def total_energy_j(self) -> float:
        """Total energy of the run (joules)."""
        return sum(e.energy_j for e in self.executions)

    @property
    def mean_power_w(self) -> float:
        """Time-weighted average power over the run."""
        t = self.total_time_s
        return self.total_energy_j / t if t > 0 else float("nan")

    @property
    def violation_rate(self) -> float:
        """Fraction of invocations whose power exceeded the cap."""
        if not self.executions:
            return float("nan")
        over = sum(not e.under_cap for e in self.executions)
        return over / len(self.executions)

    def timesteps(self) -> int:
        """Number of timesteps executed."""
        if not self.executions:
            return 0
        return max(e.timestep for e in self.executions) + 1

    def for_timestep(self, timestep: int) -> list[KernelExecution]:
        """All invocations of one timestep, in execution order."""
        return [e for e in self.executions if e.timestep == timestep]

    def summary(self) -> str:
        """One-paragraph human-readable account of the run."""
        return (
            f"{self.application}: {self.timesteps()} timesteps, "
            f"{len(self.executions)} kernel invocations, "
            f"{self.total_time_s:.2f} s, {self.total_energy_j:.0f} J, "
            f"mean {self.mean_power_w:.1f} W, "
            f"{100 * self.violation_rate:.1f}% invocations over cap"
        )

    def render_timeline(self, *, width: int = 60) -> str:
        """Text timeline of the run: one row per timestep showing the
        cap, the devices used, time, average power, and violations.

        ``#`` marks time on the CPU, ``%`` time on the GPU; a trailing
        ``!`` flags a timestep containing an over-cap invocation.
        """
        steps = self.timesteps()
        if steps == 0:
            return f"{self.application}: (empty trace)"
        rows = [f"{self.application} timeline ({steps} timesteps):"]
        max_t = max(
            sum(e.time_s for e in self.for_timestep(t)) for t in range(steps)
        )
        for t in range(steps):
            execs = self.for_timestep(t)
            total_t = sum(e.time_s for e in execs)
            cpu_t = sum(e.time_s for e in execs if not e.config.is_gpu)
            energy = sum(e.energy_j for e in execs)
            cap = execs[0].power_cap_w
            over = any(not e.under_cap for e in execs)
            bar_len = max(1, int(round(total_t / max_t * width)))
            cpu_len = int(round(bar_len * (cpu_t / total_t))) if total_t else 0
            bar = "#" * cpu_len + "%" * (bar_len - cpu_len)
            rows.append(
                f"  t{t:<3} cap {cap:5.1f}W  {total_t:7.3f}s "
                f"{energy / total_t if total_t else 0:5.1f}W "
                f"|{bar}{'!' if over else ''}"
            )
        rows.append("  (#: CPU time, %: GPU time, !: over-cap invocation)")
        return "\n".join(rows)
