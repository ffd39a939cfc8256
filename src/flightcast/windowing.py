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


def _waypoint_rows(obj) -> list:
    """A row's input rows and then its target rows, if the row has a window's shape; else ValueError."""
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
    return rows


def _decode(objs: list) -> tuple[list[Window], ValueError | None]:
    """The windows of the rows of ``objs`` up to the first that breaks a rule of
    :func:`window_from_obj`, and the error naming that row's defect (None if none does).

    Each rule after the row's shape runs once, over one stack of the rows still in
    question, in the order :func:`window_from_obj` states them. The first row a rule
    refuses ends the rows in question, so the row refused last is the first bad row, and
    it broke no rule before the one that names it. Each window's columns are views of the stack.
    """
    rows, error = [], None
    for obj in objs:
        try:
            rows.append(_waypoint_rows(obj))
        except ValueError as exc:
            error = exc
            break
    ends = np.cumsum([len(r) for r in rows], dtype=np.int64)
    width = len(ATTRIBUTES)
    cells = list(chain.from_iterable(chain.from_iterable(rows)))
    stamps = cells[:: 1 + width]
    del cells[:: 1 + width]

    def refuse(waypoint: int, message: str) -> int:
        """Keep the rows before the one holding ``waypoint``; return how many waypoints they hold."""
        nonlocal rows, ends, error
        rows = rows[: int(np.searchsorted(ends, waypoint, side="right"))]
        ends = ends[: len(rows)]
        error = ValueError(message)
        return int(ends[-1]) if rows else 0

    types = set(map(type, cells))
    # float64 would read null as NaN and true as 1.0; only an int or a float is a number here.
    if not types <= {int, float}:
        k = next(k for k, c in enumerate(cells) if type(c) not in (int, float))
        del cells[refuse(k // width, f"window holds a non-numeric cell ({cells[k]!r})") * width :]
    if int in types:  # an int fits a 64-bit integer, signed or not, as numpy reads it
        k = next((k for k, c in enumerate(cells) if type(c) is int and not -(2**63) <= c < 2**64), None)
        if k is not None:
            del cells[refuse(k // width, f"window holds integer cell {cells[k]} outside the int64 range") * width :]
    values = np.array(cells, dtype=np.float64).reshape(-1, width)
    finite = np.isfinite(values).all(axis=1)  # JSON NaN or Infinity
    if not finite.all():
        values = values[: refuse(int(finite.argmin()), "window holds a non-finite cell")]
    del stamps[len(values) :]
    if not set(map(type, stamps)) <= {int}:  # a bool is an int too, and int64 would truncate a float
        k = next(k for k, t in enumerate(stamps) if type(t) is not int)
        del stamps[refuse(k, f"window timestamp {stamps[k]!r} is not an integer") :]
    try:
        timestamps = np.array(stamps, dtype=np.int64)
    except OverflowError:  # past int64: compared as Python ints, and refused below
        timestamps = np.array(stamps, dtype=object)
    # An int64 difference can wrap round to STEP_SECONDS; a real step also rises.
    gaps = (np.diff(timestamps) != STEP_SECONDS) | (timestamps[1:] < timestamps[:-1])
    gaps[ends[:-1] - 1] = False  # from one window to the next
    if gaps.any():
        k = int(gaps.argmax())
        refuse(k, f"window timestamps {stamps[k]} and {stamps[k + 1]} are not {STEP_SECONDS} s apart")
    if timestamps.dtype == object:
        for k in np.stack([ends - [len(r) for r in rows], ends - 1], axis=1).ravel():
            if not -(2**63) <= stamps[k] < 2**63:  # the first and last of each window; the rest lie between
                refuse(k, f"window timestamp {stamps[k]} outside the int64 range")
                break
    windows = [
        Window.from_columns(obj["callsign"], timestamps[end - len(r) : end], values[end - len(r) : end].T)
        for obj, r, end in zip(objs, rows, ends.tolist())
    ]
    return windows, error


def window_from_obj(obj: dict) -> Window:
    """Read :func:`window_to_obj`'s form back.

    Raises ValueError naming the defect unless the row is an object with a
    string callsign, 16 input rows, some target rows (as many as its ``horizon``
    says, if it has that key), every row an array of a timestamp and five
    attributes, finite number cells (not ``true`` or ``false``, nor an integer
    past 64 bits), and int64 timestamps exactly ``STEP_SECONDS`` apart, as
    :func:`sample_windows` cuts them. It is the one-row case of the readers' decoder.
    """
    windows, error = _decode([obj])
    if error is not None:
        raise error
    return windows[0]


#: ``json.dumps(window_to_obj(window))`` of the window :func:`window_from_obj` reads from a
#: matching row: json's layout, a callsign json leaves unescaped, and cells ``repr`` writes
#: back as they are (plain notation, no superfluous zero, 0 or >= 1e-4, <= 15 digits: DBL_DIG).
#: A lookbehind checks that fraction digits do not end in 0, and a row's five cells are written
#: out, so no repeat gives back a digit on a matching row (possessive repeats need Python 3.11).
_CELL = r"-?(?:[1-9][0-9]{0,5}\.(?:[0-9]{1,9}(?<=[1-9])|0)|0\.(?:(?!0000)[0-9]{1,9}(?<=[1-9])|0))"
_ROW = rf"\[(?:0|-?[1-9][0-9]*){(', ' + _CELL) * 5}\]"
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


def write_windows_jsonl(windows: Iterable[Window], target: str | Path | TextIO) -> None:
    write_jsonl(map(window_to_obj, windows), target)


#: Rows decoded as one stack. It bounds the decoded JSON rows a reader holds at once.
_GROUP_ROWS = 64


def _decoded(group: list) -> Iterator[tuple[int, str, object, Window | ValueError]]:
    """Each ``(number, line, obj)`` of ``group`` with its window or the error that refuses it."""
    while group:
        windows, error = _decode([obj for _, _, obj in group])
        yield from ((*row, window) for row, window in zip(group, windows))
        if error is None:
            return
        yield (*group[len(windows)], error)
        group = group[len(windows) + 1 :]


def window_rows(source: str | Path | TextIO) -> Iterator[tuple[int, str, object, Window | ValueError]]:
    """Each non-blank line of a windows or predictions file: its row number (counting non-blank lines
    from 1), its text, the JSON value it holds (None if it is not JSON), and the window
    :func:`window_from_obj` reads from it, or in its place the ValueError naming why
    it reads none. Rows are decoded ``_GROUP_ROWS`` at a time, as one stack.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from window_rows(fh)
        return
    group = []
    for number, line in enumerate(filter(str.strip, source), start=1):
        try:
            group.append((number, line, json.loads(line)))
        except ValueError as exc:  # the rows before it come first
            yield from _decoded(group)
            group = []
            yield number, line, None, exc
        if len(group) == _GROUP_ROWS:
            yield from _decoded(group)
            group = []
    yield from _decoded(group)


def _window_lines(source: str | Path | TextIO) -> Iterator[tuple[str, Window]]:
    """Each windows line beside its window; a bad row raises ValueError starting ``row N: ``."""
    for number, line, _, window in window_rows(source):
        if isinstance(window, ValueError):
            raise ValueError(f"row {number}: {window}") from window
        yield line, window


def read_window_rows(source: str | Path | TextIO) -> list[tuple[str, Window]]:
    """Each windows row's text, stripped, beside the window :func:`window_from_obj` reads from it."""
    return [(line.strip(), window) for line, window in _window_lines(source)]


def read_windows_jsonl(source: str | Path | TextIO) -> list[Window]:
    return [window for _, window in _window_lines(source)]
