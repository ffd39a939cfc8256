"""Slice minute-aligned trajectories into fixed-shape prediction windows.

A window is 16 input waypoints plus ``horizon`` target waypoints taken
from the same trajectory with exact 60 s spacing throughout. The input
length is a constant, not a knob, so prompt templates stay stable.
Windows are trajectories: ``sample_windows`` cuts their columns as views
of the trajectory's, and no stage after sampling needs a ``Waypoint``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .domain import ATTRIBUTES, Trajectory, Waypoint, check_integer, check_object

INPUT_LENGTH = 16
STEP_SECONDS = 60


class Window(Trajectory):
    """16 input rows (columns ``[:, :16]``) and the target rows that follow them, if any.

    Pipeline code reads the columns; ``targets`` builds the target rows' ``Waypoint``s,
    which only the benchmark's input code reads.
    """

    __slots__ = ()

    def _init(self, callsign, timestamps, values) -> None:
        if len(timestamps) < INPUT_LENGTH:
            raise ValueError(f"window of {len(timestamps)} rows, expected at least {INPUT_LENGTH}")
        super()._init(callsign, timestamps, values)

    @property
    def horizon(self) -> int:
        return len(self) - INPUT_LENGTH

    @property
    def targets(self) -> tuple[Waypoint, ...]:
        return self.waypoints[INPUT_LENGTH:]


def default_stride(horizon: int) -> int:
    """Smallest stride strictly larger than the window size."""
    return INPUT_LENGTH + horizon + 1


def sample_windows(traj: Trajectory, horizon: int, stride: int | None = None) -> list[Window]:
    """Scan a trajectory left to right and emit continuous windows.

    A window is emitted at offset k only if the 16 + horizon timestamps
    starting at k are exactly 60 s apart. After an emission the scan
    advances by ``stride``; after a continuity break it resumes at the
    first waypoint past the break, which maximizes yield without ever
    spanning a gap. Each window's columns are views of the trajectory's.
    """
    check_integer("horizon", horizon, 1)
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
    """Read :func:`window_to_obj`'s form back.

    Raises ValueError naming the defect unless the row is an object with a
    string callsign, 16 input rows, some target rows (as many as its ``horizon``
    says, if it has that key), every row an array of a timestamp and five
    attributes, finite number cells (not ``true`` or ``false``, nor an integer
    past 64 bits), and int64 timestamps exactly ``STEP_SECONDS`` apart, as
    :func:`sample_windows` cuts them.
    """
    check_object("window row", obj, "callsign", "input", "target")
    callsign = obj["callsign"]
    if not isinstance(callsign, str):
        raise ValueError(f"window callsign {callsign!r} is not a string")
    inputs, targets = obj["input"], obj["target"]
    if not isinstance(inputs, list) or not isinstance(targets, list):
        raise ValueError("window input and target must be arrays of waypoint rows")
    if len(inputs) != INPUT_LENGTH:
        raise ValueError(f"window input holds {len(inputs)} rows, expected {INPUT_LENGTH}")
    if not targets:
        raise ValueError("window target is empty")
    rows = inputs + targets
    if not all(isinstance(row, list) and len(row) == 1 + len(ATTRIBUTES) for row in rows):
        raise ValueError(f"window holds a waypoint row that is not an array of {1 + len(ATTRIBUTES)} cells")
    horizon = obj.get("horizon", len(targets))
    if type(horizon) is not int or horizon != len(targets):  # a bool is an int too
        raise ValueError(f"window horizon {horizon!r} does not match its {len(targets)} target rows")
    cells = [row[1:] for row in rows]
    # float64 would read null as NaN and true as 1.0; only an int or a float is a number here.
    if not set(map(type, chain.from_iterable(cells))) <= {int, float}:
        cell = next(c for c in chain.from_iterable(cells) if type(c) not in (int, float))
        raise ValueError(f"window holds a non-numeric cell ({cell!r})")
    values = np.array(cells)
    if values.dtype.kind not in "iuf":  # object: some int fits no 64-bit integer
        cell = next(c for c in chain.from_iterable(cells) if type(c) is int and not -(2**63) <= c < 2**63)
        raise ValueError(f"window holds integer cell {cell} outside the int64 range")
    if not np.isfinite(values).all():  # JSON NaN or Infinity
        raise ValueError("window holds a non-finite cell")
    timestamps = [row[0] for row in rows]
    for t in timestamps:
        if type(t) is not int:  # a bool is an int too, and int64 would truncate a float
            raise ValueError(f"window timestamp {t!r} is not an integer")
    for a, b in zip(timestamps, timestamps[1:]):
        if b - a != STEP_SECONDS:
            raise ValueError(f"window timestamps {a} and {b} are not {STEP_SECONDS} s apart")
    for t in (timestamps[0], timestamps[-1]):  # the rest lie between them
        if not -(2**63) <= t < 2**63:
            raise ValueError(f"window timestamp {t} outside the int64 range")
    return Window.from_columns(callsign, timestamps, values.T)


#: ``json.dumps(window_to_obj(window))`` of the window :func:`window_from_obj` reads from a
#: matching row: json's layout, a callsign json leaves unescaped, and cells ``repr`` writes
#: back as they are (plain notation, no superfluous zero, 0 or >= 1e-4, <= 15 digits: DBL_DIG).
_CELL = r"-?(?:[1-9][0-9]{0,5}\.(?:0|[0-9]{0,8}[1-9])|0\.(?:0|(?!0000)[0-9]{0,8}[1-9]))"
_ROW = rf"\[(?:0|-?[1-9][0-9]*)(?:, {_CELL}){{5}}\]"
CANONICAL_ROW = re.compile(rf'\{{"callsign": "[ !#-\[\]-~]*", "horizon": [1-9][0-9]*, '
                           rf'"input": \[{_ROW}(?:, {_ROW}){{15}}\], "target": \[{_ROW}(?:, {_ROW})*\]\}}')
_ENCODER = json.JSONEncoder(check_circular=False)  # json.dumps's; every row is built fresh


def row_with(text: str, window: Window, keys: dict) -> str:
    """``json.dumps({**window_to_obj(window), **keys})``, reusing ``text`` if it is canonical.

    ``text`` is the row ``window`` was read from; ``keys`` is non-empty and shares none of its keys.
    """
    if CANONICAL_ROW.fullmatch(text):
        return text[:-1] + ", " + _ENCODER.encode(keys)[1:]
    return _ENCODER.encode({**window_to_obj(window), **keys})


def write_jsonl(objs: Iterable, target: str | Path | TextIO) -> None:
    """Write each object as one line of JSON."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            write_jsonl(objs, fh)
            return
    for obj in objs:
        target.write(_ENCODER.encode(obj))
        target.write("\n")


def numbered_lines(source: str | Path | TextIO) -> Iterator[tuple[int, str]]:
    """Yield each non-blank line with its row number, counting non-blank lines from 1."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from numbered_lines(fh)
        return
    yield from enumerate(filter(str.strip, source), start=1)


def write_windows_jsonl(windows: Iterable[Window], target: str | Path | TextIO) -> None:
    write_jsonl(map(window_to_obj, windows), target)


def _window_lines(source: str | Path | TextIO) -> Iterator[tuple[str, Window]]:
    """Each windows line beside its window; a bad row raises ValueError starting ``row N: ``."""
    for number, line in numbered_lines(source):
        try:
            yield line, window_from_obj(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"row {number}: {exc}") from exc


def read_window_rows(source: str | Path | TextIO) -> list[tuple[str, Window]]:
    """Each windows row's text, stripped, beside the window :func:`window_from_obj` reads from it."""
    return [(line.strip(), window) for line, window in _window_lines(source)]


def read_windows_jsonl(source: str | Path | TextIO) -> list[Window]:
    return [window for _, window in _window_lines(source)]
