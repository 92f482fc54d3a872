"""Event-level schedule of a plan under synchronous pipeline training.

The fill-drain replay itself, and the stage-cost rule it charges sends by,
live in `stages` next to `Plan`, where the planner ranks its candidates with
them. `simulate` validates a plan, replays it, and spreads each stage lane
over the stage's devices as one `Event` per device and phase, for reporting
and `render_gantt`.
"""

from __future__ import annotations

from typing import NamedTuple

from .blocks import BlockSet
from .stages import InvalidPlan, Plan, replay, validate_plan


class Event(NamedTuple):
    device: int
    stage: int
    microbatch: int   # 0-based; -1 for the gradient sync
    phase: str
    start_sec: float
    end_sec: float


class Schedule(NamedTuple):
    events: tuple[Event, ...]
    iteration_time_sec: float
    bubble_fraction: float
    n_devices: int
    samples_per_sec: float


def simulate(plan: Plan, blocks: BlockSet) -> Schedule:
    violations = validate_plan(plan, blocks)
    if violations:
        raise InvalidPlan(violations)
    iteration, lanes = replay(plan, blocks)

    events = []
    busy = 0.0
    d1 = 0
    for s, st in enumerate(plan.stages):
        d0, d1 = d1, d1 + st.devices
        for dev in range(d0, d1):
            for mb, phase, start, end in lanes[s]:
                events.append(Event(device=dev, stage=s, microbatch=mb,
                                    phase=phase, start_sec=start, end_sec=end))
                busy += end - start
    n_devices = d1
    bubble = 1.0 - busy / (n_devices * iteration) if iteration > 0 else 0.0
    return Schedule(events=tuple(events), iteration_time_sec=iteration,
                    bubble_fraction=bubble, n_devices=n_devices,
                    samples_per_sec=(plan.batch_size / iteration
                                     if iteration > 0 else 0.0))


_TEXT_CHARS = {"fwd": "F", "recompute": "R", "bwd": "B", "comm": "~",
               "allreduce": "A"}

_SVG_COLORS = {"fwd": "#4c86c6", "recompute": "#9bb8d9", "bwd": "#c2643f",
               "comm": "#999999", "allreduce": "#8559a5"}


def render_gantt(schedule: Schedule, mode: str = "text") -> str:
    """Device-lane timeline of a schedule, one row per device."""
    if mode not in ("text", "svg"):
        raise ValueError(f"unknown gantt mode {mode!r}")
    per_device: dict[int, list[Event]] = {d: [] for d in range(schedule.n_devices)}
    for ev in schedule.events:
        per_device[ev.device].append(ev)
    for evs in per_device.values():
        evs.sort(key=lambda e: e.start_sec)
    total = schedule.iteration_time_sec or 1.0

    if mode == "text":
        width = 80
        lines = [f"iteration {schedule.iteration_time_sec:.6g}s  "
                 f"bubble {schedule.bubble_fraction:.1%}"]
        for dev in range(schedule.n_devices):
            row = ["."] * width
            for ev in per_device[dev]:
                lo = int(ev.start_sec / total * width)
                hi = max(lo + 1, int(ev.end_sec / total * width))
                ch = _TEXT_CHARS[ev.phase]
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            lines.append(f"dev {dev:>3d} |{''.join(row)}|")
        legend = "  ".join(f"{c}={p}" for p, c in _TEXT_CHARS.items())
        lines.append(legend)
        return "\n".join(lines) + "\n"

    row_h, gap, left = 22, 4, 60
    w = 900
    height = schedule.n_devices * (row_h + gap) + gap + 20
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{height}" font-family="monospace" font-size="11">']
    for dev in range(schedule.n_devices):
        y = gap + dev * (row_h + gap)
        parts.append(f'<text x="2" y="{y + row_h - 7}">dev {dev}</text>')
        parts.append(f'<rect class="lane" x="{left}" y="{y}" '
                     f'width="{w - left - 4}" height="{row_h}" fill="#f0f0f0"/>')
        for ev in per_device[dev]:
            x = left + ev.start_sec / total * (w - left - 4)
            bw = max(1.0, (ev.end_sec - ev.start_sec) / total * (w - left - 4))
            parts.append(
                f'<rect class="ev phase-{ev.phase}" x="{x:.2f}" y="{y + 2}" '
                f'width="{bw:.2f}" height="{row_h - 4}" '
                f'fill="{_SVG_COLORS[ev.phase]}">'
                f'<title>stage {ev.stage} mb {ev.microbatch} {ev.phase} '
                f'[{ev.start_sec:.6g}, {ev.end_sec:.6g}]</title></rect>')
    parts.append(f'<text x="{left}" y="{height - 6}">iteration '
                 f'{schedule.iteration_time_sec:.6g}s, bubble '
                 f'{schedule.bubble_fraction:.1%}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
