"""Rendering helpers for power results."""

from __future__ import annotations

from repro import units
from repro.power.leakage import LeakageBreakdown

_CATEGORY_LABELS = (
    ("lvt_logic_nw", "Low-Vth logic"),
    ("hvt_logic_nw", "High-Vth logic"),
    ("sequential_nw", "Flip-flops"),
    ("mt_residual_nw", "MT-cell residual"),
    ("conventional_mt_nw", "Conventional MT (embedded switch)"),
    ("switch_nw", "Shared switch transistors"),
    ("holder_nw", "Output holders"),
)


def render_leakage_table(breakdown: LeakageBreakdown,
                         title: str = "Standby leakage") -> str:
    """Format a leakage breakdown as an aligned text table."""
    lines = [title, "-" * len(title)]
    shares = breakdown.shares_pct()
    for key, label in _CATEGORY_LABELS:
        value = getattr(breakdown, key)
        if value == 0.0:
            continue
        lines.append(f"{label:<36} {units.pretty_power(value):>14} "
                     f"({shares[key]:5.1f}%)")
    lines.append(f"{'Total':<36} "
                 f"{units.pretty_power(breakdown.total_nw):>14}")
    lines.append(f"{'Instances':<36} {breakdown.instance_count:>14d}")
    return "\n".join(lines)
