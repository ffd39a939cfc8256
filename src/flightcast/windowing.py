"""Slice minute-aligned trajectories into fixed-shape prediction windows.

A window is 16 input waypoints plus ``horizon`` target waypoints taken
from the same trajectory with exact 60 s spacing throughout. The input
length is a constant, not a knob, so prompt templates stay stable.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .domain import Trajectory, Waypoint

INPUT_LENGTH = 16
SUPPORTED_HORIZONS = (1, 4, 8)
STEP_SECONDS = 60


@dataclass(frozen=True)
class Window:
    """16 input waypoints and the targets that immediately follow them."""

    callsign: str
    inputs: tuple[Waypoint, ...]
    targets: tuple[Waypoint, ...]

    @property
    def horizon(self) -> int:
        return len(self.targets)

    def waypoints(self) -> tuple[Waypoint, ...]:
        return self.inputs + self.targets


def default_stride(horizon: int) -> int:
    """Smallest stride strictly larger than the window size."""
    return INPUT_LENGTH + horizon + 1


def sample_windows(
    traj: Trajectory,
    horizon: int,
    stride: int | None = None,
    *,
    allow_any_horizon: bool = False,
) -> list[Window]:
    """Scan a trajectory left to right and emit continuous windows.

    A window is emitted at offset k only if the 16 + horizon timestamps
    starting at k are exactly 60 s apart. After an emission the scan
    advances by ``stride``; after a continuity break it resumes at the
    first waypoint past the break, which maximizes yield without ever
    spanning a gap. Only the rows of emitted windows become ``Waypoint``s.
    """
    if horizon not in SUPPORTED_HORIZONS and not allow_any_horizon:
        raise ValueError(
            f"unsupported horizon {horizon}: expected one of {SUPPORTED_HORIZONS}"
        )
    if horizon < 1:
        raise ValueError(f"unsupported horizon {horizon}: must be >= 1")
    window_size = INPUT_LENGTH + horizon
    if stride is None:
        stride = default_stride(horizon)
    if stride < window_size:
        raise ValueError(f"stride too small: {stride} < window size {window_size}")

    # Breaks: indexes whose successor is not exactly one step later.
    breaks = np.flatnonzero(np.diff(traj.timestamps) != STEP_SECONDS).tolist()
    windows: list[Window] = []
    k = 0
    while k + window_size <= len(traj):
        at = bisect_left(breaks, k)
        if at < len(breaks) and breaks[at] < k + window_size - 1:
            k = breaks[at] + 1
            continue
        waypoints = traj.waypoints_between(k, k + window_size)
        windows.append(Window(traj.callsign, waypoints[:INPUT_LENGTH], waypoints[INPUT_LENGTH:]))
        k += stride
    return windows


# --- JSON Lines interchange --------------------------------------------------


def _waypoint_to_row(w: Waypoint) -> list[float]:
    return [w.timestamp, w.longitude, w.latitude, w.altitude, w.velocity, w.heading]


def _waypoint_from_row(row: list[float]) -> Waypoint:
    return Waypoint(int(row[0]), float(row[1]), float(row[2]), float(row[3]), float(row[4]), float(row[5]))


def window_to_obj(window: Window) -> dict:
    return {
        "callsign": window.callsign,
        "horizon": window.horizon,
        "input": [_waypoint_to_row(w) for w in window.inputs],
        "target": [_waypoint_to_row(w) for w in window.targets],
    }


def window_from_obj(obj: dict) -> Window:
    return Window(
        callsign=obj["callsign"],
        inputs=tuple(_waypoint_from_row(r) for r in obj["input"]),
        targets=tuple(_waypoint_from_row(r) for r in obj["target"]),
    )


def write_jsonl(objs: Iterable, target: str | Path | TextIO) -> None:
    """Write each object as one line of JSON."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_jsonl(objs, fh)
            return
    for obj in objs:
        target.write(json.dumps(obj))
        target.write("\n")


def read_jsonl(source: str | Path | TextIO) -> Iterator:
    """Yield the object on each non-blank line."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from read_jsonl(fh)
        return
    for line in source:
        if line.strip():
            yield json.loads(line)


def write_windows_jsonl(windows: Iterable[Window], target: str | Path | TextIO) -> None:
    write_jsonl(map(window_to_obj, windows), target)


def read_windows_jsonl(source: str | Path | TextIO) -> list[Window]:
    return list(map(window_from_obj, read_jsonl(source)))
