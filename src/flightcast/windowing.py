"""Slice minute-aligned trajectories into fixed-shape prediction windows.

A window is 16 input waypoints plus ``horizon`` target waypoints taken
from the same trajectory with exact 60 s spacing throughout. The input
length is a constant, not a knob, so prompt templates stay stable.
Windows are trajectories: ``sample_windows`` cuts their columns as views
of the trajectory's, and no stage after sampling needs a ``Waypoint``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .domain import Trajectory, Waypoint

INPUT_LENGTH = 16
SUPPORTED_HORIZONS = (1, 4, 8)
STEP_SECONDS = 60


class Window(Trajectory):
    """16 input rows (columns ``[:, :16]``) and the target rows that follow them, if any.

    Pipeline code reads the columns; ``targets`` builds the target rows' ``Waypoint``s,
    which only the benchmark's input code reads.
    """

    __slots__ = ()

    def _init(self, callsign, timestamps, values, waypoints) -> None:
        if len(timestamps) < INPUT_LENGTH:
            raise ValueError(f"window of {len(timestamps)} rows, expected at least {INPUT_LENGTH}")
        super()._init(callsign, timestamps, values, waypoints)

    @property
    def horizon(self) -> int:
        return len(self) - INPUT_LENGTH

    @property
    def targets(self) -> tuple[Waypoint, ...]:
        return self.waypoints[INPUT_LENGTH:]


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
    spanning a gap. Each window's columns are views of the trajectory's.
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
        rows = slice(k, k + window_size)
        windows.append(Window.from_columns(traj.callsign, traj.timestamps[rows], traj.values[:, rows]))
        k += stride
    return windows


# --- JSON Lines interchange --------------------------------------------------


def window_to_obj(window: Window) -> dict:
    """The JSON object of a window: ``[timestamp, lon, lat, alt, vel, hdg]`` rows."""
    rows = [[t, *v] for t, v in zip(window.timestamps.tolist(), window.values.T.tolist())]
    return {
        "callsign": window.callsign,
        "horizon": window.horizon,
        "input": rows[:INPUT_LENGTH],
        "target": rows[INPUT_LENGTH:],
    }


def window_from_obj(obj: dict) -> Window:
    """Read :func:`window_to_obj`'s form back; ValueError unless 16 input rows and some target."""
    inputs, targets = obj["input"], obj["target"]
    if len(inputs) != INPUT_LENGTH:
        raise ValueError(f"window input holds {len(inputs)} rows, expected {INPUT_LENGTH}")
    if not targets:
        raise ValueError("window target is empty")
    values = np.array([row[1:] for row in inputs + targets])
    if values.dtype.kind not in "iuf":  # a null or text cell; float64 would read null as NaN
        raise ValueError(f"window holds a non-numeric cell ({values.dtype})")
    return Window.from_columns(obj["callsign"], [row[0] for row in inputs + targets], values.T)


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
