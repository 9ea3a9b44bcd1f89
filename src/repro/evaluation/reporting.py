"""Text renderers for the paper's tables and figures.

Every table and figure in the paper's evaluation has a renderer here
producing the same rows/series as monospaced text, so benchmark runs
print directly comparable artifacts (the harness does not attempt to
match absolute numbers — the substrate is a simulator — only the
shape: who wins, by roughly what factor, where crossovers fall).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.frontier import ParetoFrontier
from repro.evaluation.metrics import MethodSummary

__all__ = [
    "render_frontier_table",
    "render_table3",
    "render_fig4_scatter",
    "render_group_bars",
]


def _fmt(x: float, width: int = 6, decimals: int = 0) -> str:
    if math.isnan(x):
        return "-".rjust(width)
    return f"{x:.{decimals}f}".rjust(width)


def render_frontier_table(frontier: ParetoFrontier, title: str = "") -> str:
    """Table I-style rendering of a Pareto frontier.

    A host-ladder machine (Trinity) prints the paper's columns: device,
    GPU frequency, threads, CPU frequency, power, normalized
    performance.  Any other machine prints each row's block, clock and
    unit count as :meth:`Configuration.label` names them, then power
    and normalized performance.
    """
    rows = frontier.normalized()
    lines = [title] if title else []
    if not rows or rows[0][0].descriptor.secondary.host_axis:
        lines.append(
            f"{'Device':<7} {'GPU f.':>8} {'Threads':>8} {'CPU f.':>8} "
            f"{'Power':>8} {'Perf.*':>7}"
        )
        for cfg, power, norm in rows:
            lines.append(
                f"{str(cfg.device):<7} "
                f"{cfg.gpu_freq_ghz:>6.3f}G "
                f"{cfg.n_threads:>8d} "
                f"{cfg.cpu_freq_ghz:>6.1f}G "
                f"{power:>6.1f} w "
                f"{norm:>7.2f}"
            )
    else:
        lines.append(
            f"{'Block':<7} {'Clock':>8} {'Units':>8} {'Power':>8} {'Perf.*':>7}"
        )
        for cfg, power, norm in rows:
            d = cfg.descriptor
            block, freq = (
                (d.secondary, cfg.gpu_freq_ghz)
                if cfg.is_gpu
                else (d.primary, cfg.cpu_freq_ghz)
            )
            lines.append(
                f"{block.label:<7} "
                f"{freq:>5.2f}GHz "
                f"{cfg.n_threads:>8d} "
                f"{power:>6.1f} w "
                f"{norm:>7.2f}"
            )
    lines.append("*Normalized performance")
    return "\n".join(lines)


def render_table3(summaries: Sequence[MethodSummary], title: str = "") -> str:
    """Table III: the five-column method comparison vs the oracle."""
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{'Method':<10} {'% Under':>8} "
        f"{'U %Perf':>8} {'U %Power':>9} "
        f"{'O %Power':>9} {'O %Perf':>8}"
    )
    # Paper's row order where present.
    order = {"Model": 0, "Model+FL": 1, "GPU+FL": 2, "CPU+FL": 3}
    for s in sorted(summaries, key=lambda s: order.get(s.method, 99)):
        lines.append(
            f"{s.method:<10} {_fmt(s.pct_under_limit, 8)} "
            f"{_fmt(s.under_perf_pct, 8)} {_fmt(s.under_power_pct, 9)} "
            f"{_fmt(s.over_power_pct, 9)} {_fmt(s.over_perf_pct, 8)}"
        )
    return "\n".join(lines)


def render_fig4_scatter(
    summaries: Sequence[MethodSummary], title: str = ""
) -> str:
    """Figure 4: each method as a point (% under limit, % oracle perf in
    under-limit cases), rendered as a labelled list plus an ASCII grid."""
    lines = []
    if title:
        lines.append(title)
    for s in sorted(summaries, key=lambda s: s.method):
        lines.append(
            f"  {s.method:<10} under-limit {_fmt(s.pct_under_limit, 5, 1)}%  "
            f"perf {_fmt(s.under_perf_pct, 5, 1)}% of oracle"
        )
    # Small ASCII scatter: x = % under limit, y = % oracle perf.
    width, height = 52, 12
    grid = [[" "] * width for _ in range(height)]
    for s in summaries:
        if math.isnan(s.pct_under_limit) or math.isnan(s.under_perf_pct):
            continue
        x = min(width - 1, max(0, int(s.pct_under_limit / 100 * (width - 1))))
        y = min(
            height - 1, max(0, int((100 - min(s.under_perf_pct, 100)) / 100 * (height - 1)))
        )
        grid[y][x] = s.method[0]  # first letter marks the method
    lines.append("  perf^")
    for row in grid:
        lines.append("      |" + "".join(row))
    lines.append("      +" + "-" * width + "> % under limit")
    return "\n".join(lines)


def render_group_bars(
    values: Mapping[str, Mapping[str, float]],
    *,
    title: str = "",
    unit: str = "%",
    bar_scale: float = 100.0,
    bar_width: int = 40,
) -> str:
    """Figures 5/6/8/9: grouped per-benchmark bars as text.

    Parameters
    ----------
    values:
        ``{group: {method: value}}`` (NaN values render as ``-``).
    bar_scale:
        Value corresponding to a full-width bar (values beyond it are
        clipped with a ``+`` marker, like the paper's clipped GPU+FL
        bars in Figure 9).
    """
    lines = []
    if title:
        lines.append(title)
    for group, per_method in values.items():
        lines.append(f"{group}:")
        for method in sorted(per_method):
            v = per_method[method]
            if math.isnan(v):
                lines.append(f"  {method:<10} {'-':>8}")
                continue
            filled = int(min(v, bar_scale) / bar_scale * bar_width)
            clipped = "+" if v > bar_scale else ""
            lines.append(
                f"  {method:<10} {v:>7.1f}{unit} "
                f"|{'#' * filled}{clipped}"
            )
    return "\n".join(lines)
