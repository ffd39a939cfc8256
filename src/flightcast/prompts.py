"""Serialize windows into chat prompts and parse model completions back.

The text format is the contract here: one "(lon, lat, alt, vel, hdg)"
tuple per line with fixed decimal counts 5/5/3/3/2, so that serializing
canonically rounded values and parsing the text back is lossless.
Completions from real models are messy; parsing never raises and sorts
every outcome into a (5, horizon) block, the layout of a window's target
columns, or one of three failure classes.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .domain import DECIMAL_RE, validate_columns
from .windowing import INPUT_LENGTH, Window, read_jsonl, write_jsonl

TEMPLATE_VERSION = "v1"

#: Parsed steps whose longitude or latitude strays farther than this from the
#: last observed position are treated as severe deviations. Five degrees is
#: far beyond any few-minute airliner displacement, so only pathological
#: output trips it.
DEFAULT_PLAUSIBILITY_RADIUS_DEG = 5.0

_SYSTEM_TEMPLATE = (
    "You are an expert in flight prediction. You are given the recent "
    "trajectory of an aircraft as a sequence of waypoints, one per minute. "
    "Each waypoint has the form (longitude, latitude, altitude, velocity, "
    "heading): longitude and latitude in degrees, altitude in meters, "
    "velocity in kilometers per hour, and heading in degrees clockwise "
    "from north, in [0, 360). "
    "Predict the next {horizon} waypoint{plural} of the flight. "
    "Output only coordinate tuples, one per line, in exactly the input "
    "format with 5, 5, 3, 3, and 2 decimal places; no explanations and "
    "no extra text."
)

_ROW_FORMAT = "({:.5f}, {:.5f}, {:.3f}, {:.3f}, {:.2f})"
_HORIZON_RE = re.compile(r"[Pp]redict the next (\d+) waypoint")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class PromptRecord:
    """System/user/assistant text triple; assistant is empty at inference."""

    system: str
    user: str
    assistant: str
    template_version: str = TEMPLATE_VERSION


class FailureKind(Enum):
    MISSING_TRAJECTORY = "missing-trajectory"
    UNEXPECTED_FORMAT = "unexpected-format"
    SEVERE_DEVIATION = "severe-deviation"


@dataclass(frozen=True, eq=False)
class ParseOutcome:
    """Either a parsed (5, horizon) block, kept as a read-only float64 copy, or a failure."""

    values: np.ndarray | None = None
    failure: FailureKind | None = None
    diagnostic: str = ""

    def __post_init__(self) -> None:
        if (self.values is None) == (self.failure is None):
            raise ValueError("exactly one of values/failure must be set")
        if self.values is not None:
            block = np.array(self.values, dtype=np.float64)
            block.flags.writeable = False
            object.__setattr__(self, "values", block)

    @property
    def ok(self) -> bool:
        return self.values is not None

    @classmethod
    def success(cls, values: np.ndarray, diagnostic: str = "") -> "ParseOutcome":
        return cls(values=values, diagnostic=diagnostic)

    @classmethod
    def failed(cls, kind: FailureKind, diagnostic: str) -> "ParseOutcome":
        return cls(failure=kind, diagnostic=diagnostic)


def serialize_values(values: np.ndarray) -> str:
    """A (5, n) block of attribute rows as n "(lon, lat, alt, vel, hdg)" lines at canonical
    precision, newline-joined, no trailing newline. Timestamps are implicit."""
    return "\n".join(map(_ROW_FORMAT.format, *values.tolist()))


def system_text(horizon: int) -> str:
    return _SYSTEM_TEMPLATE.format(horizon=horizon, plural="s" if horizon != 1 else "")


def horizon_from_system(text: str) -> int | None:
    """Recover the horizon stated in a system prompt, None if absent."""
    match = _HORIZON_RE.search(text)
    return int(match.group(1)) if match else None


def build_prompt(window: Window, include_assistant: bool) -> PromptRecord:
    """Render a window into the canonical prompt triple.

    With ``include_assistant`` the targets are serialized as the assistant
    turn (fine-tuning records); without it the assistant text is empty
    (inference records).
    """
    return PromptRecord(
        system=system_text(window.horizon),
        user=serialize_values(window.values[:, :INPUT_LENGTH]),
        assistant=serialize_values(window.values[:, INPUT_LENGTH:]) if include_assistant else "",
    )


def extract_tuples(text: str) -> list[list[str]]:
    """Parenthesized groups that plausibly hold data, as raw item strings.

    A group counts as a candidate tuple if at least one comma-separated
    item inside it parses as a plain decimal number; purely textual
    parentheticals in surrounding prose are ignored. Items keep their raw
    text so the caller can distinguish bad arity from bad fields.
    """
    candidates = []
    for match in _TUPLE_RE.finditer(text):
        items = [item.strip().strip("`*_").strip() for item in match.group(1).split(",")]
        if any(DECIMAL_RE.match(item) for item in items):
            candidates.append(items)
    return candidates


def classify_severe(
    values: np.ndarray,
    context: Window,
    radius: float = DEFAULT_PLAUSIBILITY_RADIUS_DEG,
) -> np.ndarray:
    """One flag per column of a (5, n) block: True where that step is too implausible to score.

    Flags any non-finite attribute (a number too long for a double reads
    as infinity), coordinates ``validate_columns`` rejects, positions farther than
    ``radius`` degrees from the last observed waypoint, and the
    characteristic sign-flip failure (longitude or latitude coming back
    with the opposite sign when the aircraft is clearly away from zero).
    """
    last = context.values[:2, INPUT_LENGTH - 1 : INPUT_LENGTH]
    position = values[:2]
    reason = validate_columns(np.zeros(values.shape[1], dtype=np.int64), values)
    out_of_box = (reason == 2) | (reason == 3)  # longitude or latitude out of range
    far = np.abs(position - last) > radius
    # Opposite signs, written as comparisons: the product would be inf * 0 for some inputs.
    flipped = ((position < 0.0) & (last > 1.0)) | ((position > 0.0) & (last < -1.0))
    return out_of_box | (far | flipped).any(axis=0) | ~np.isfinite(values).all(axis=0)


def parse_completion(
    text: str,
    horizon: int,
    context: Window,
    radius: float = DEFAULT_PLAUSIBILITY_RADIUS_DEG,
) -> ParseOutcome:
    """Parse arbitrary model output into a (5, horizon) block or a failure class.

    Never raises. Classification: no numeric tuples at all is a missing
    trajectory; a completion that is not text, too few tuples, wrong
    arity, or non-numeric fields is an unexpected format; an implausible
    parsed step is a severe deviation. Tuples beyond the requested
    horizon are ignored.
    """
    if not isinstance(text, str):
        return ParseOutcome.failed(
            FailureKind.UNEXPECTED_FORMAT, f"completion is {type(text).__name__}, not text"
        )
    candidates = extract_tuples(text)
    if not candidates:
        return ParseOutcome.failed(FailureKind.MISSING_TRAJECTORY, "no coordinate tuples found")
    if len(candidates) < horizon:
        return ParseOutcome.failed(
            FailureKind.UNEXPECTED_FORMAT,
            f"found {len(candidates)} tuple(s), expected {horizon}",
        )

    rows = []
    for step, items in enumerate(candidates[:horizon], start=1):
        if len(items) != 5:
            return ParseOutcome.failed(
                FailureKind.UNEXPECTED_FORMAT,
                f"tuple {step} has {len(items)} fields, expected 5",
            )
        bad = [item for item in items if not DECIMAL_RE.match(item)]
        if bad:
            return ParseOutcome.failed(
                FailureKind.UNEXPECTED_FORMAT,
                f"tuple {step} has non-numeric field {bad[0]!r}",
            )
        rows.append([float(item) for item in items])

    values = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    severe = classify_severe(values, context, radius)
    if severe.any():
        return ParseOutcome.failed(
            FailureKind.SEVERE_DEVIATION,
            f"waypoint {int(severe.argmax()) + 1} deviates implausibly from the last observed position",
        )

    diagnostic = ""
    if len(candidates) > horizon:
        diagnostic = f"ignored {len(candidates) - horizon} extra tuple(s)"
    return ParseOutcome.success(values, diagnostic)


# --- Dataset emission --------------------------------------------------------


def emit_dataset(records: Iterable[PromptRecord], path: str | Path) -> dict:
    """Write prompt records as JSON Lines plus a sidecar manifest.

    All records must share one template version and one horizon. The
    manifest (written to ``<path>.manifest.json``) pins template version,
    horizon, record count, and a digest of the emitted bytes, which makes
    regeneration checks a file compare. Returns the manifest.
    """
    records = list(records)
    versions = {r.template_version for r in records}
    if len(versions) > 1:
        raise ValueError(f"records mix template versions: {sorted(versions)}")
    horizons = {horizon_from_system(r.system) for r in records}
    if len(horizons) > 1:
        raise ValueError(f"records mix horizons: {sorted(horizons, key=str)}")

    path = Path(path)
    buffer = io.StringIO()
    write_jsonl(({"system": r.system, "user": r.user, "assistant": r.assistant} for r in records), buffer)
    payload = buffer.getvalue()
    path.write_text(payload, encoding="utf-8")

    manifest = {
        "template_version": records[0].template_version if records else TEMPLATE_VERSION,
        "horizon": horizon_from_system(records[0].system) if records else None,
        "records": len(records),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def read_dataset(path: str | Path) -> list[PromptRecord]:
    return [PromptRecord(o["system"], o["user"], o["assistant"]) for o in read_jsonl(path)]


# --- Token counting ----------------------------------------------------------


_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?|[A-Za-z]+|.", re.DOTALL)


def estimate_tokens(text: str) -> int:
    """Crude token count for latency analysis; never used for truncation.

    A number such as "103.25" counts 1, a run of letters counts 1, and
    every other character (punctuation and whitespace alike) counts 1.
    """
    return len(_TOKEN_RE.findall(text))
