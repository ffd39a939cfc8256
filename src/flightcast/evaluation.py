"""Forecast scoring: MAE/RMSE per attribute, phases, latency, and reports.

Failed completions are counted by class and excluded from the accuracy
metrics (severe deviations too, since they would poison the averages),
but every submitted sample contributes to mean latency because the model
spent the time either way. Multi-step predictions are pooled across steps
for the headline numbers; a per-step breakdown rides along in the CSV.
Every pool slices one array of absolute errors, and every score is finite.
The report's rules are checked in one place, ``MetricsReport.__post_init__``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .domain import ATTRIBUTES, PhaseLabel, check_integer, check_number, check_object, check_one_line
from .prompts import FailureKind, ParseOutcome
from .windowing import INPUT_LENGTH, STEP_SECONDS, Window

#: Mean vertical rate (m/s) separating climb and descent from cruise.
PHASE_RATE_THRESHOLD_MS = 2.5


class ReportFormat(Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class AttributeStats:
    mae: float
    rmse: float


def _mean(values: np.ndarray) -> float:
    """Mean of a sorted 1-D array of finite values >= 0, so sample order cannot perturb its last bits.
    Where the sum overflows, each value is divided by the count first; no mean passes the largest."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
        return mean if math.isfinite(mean) else min(float(np.sum(values / values.size)), float(values[-1]))


def _stats(errors: np.ndarray) -> AttributeStats:
    """MAE and RMSE of a 1-D array of absolute errors from one sorted copy (its squares are sorted too).
    Only where the squares overflow is RMSE taken from the errors scaled by the largest."""
    errors = np.sort(errors)
    with np.errstate(over="ignore"):
        rmse = math.sqrt(_mean(np.square(errors)))
    if rmse == math.inf and errors[-1] < math.inf:
        rmse = float(errors[-1]) * math.sqrt(_mean(np.square(errors / errors[-1])))
    return AttributeStats(mae=_mean(errors), rmse=rmse)


def _errors(truth: Sequence[float], predicted: Sequence[float]) -> np.ndarray:
    t, p = (np.asarray(values, dtype=np.float64) for values in (truth, predicted))
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("empty input")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite value in input")
    return np.abs(t - p)


def mae(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error; like every score here, summed sorted, so sample order cannot perturb it."""
    return _stats(_errors(truth, predicted)).mae


def rmse(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error, order-independent like :func:`mae`."""
    return _stats(_errors(truth, predicted)).rmse


def mean_latency(latencies: Sequence[float]) -> float:
    """Arithmetic mean of per-sample latencies in seconds; finite, as they are."""
    arr = np.sort(np.asarray(latencies, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("empty input")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("latencies must be finite and >= 0")
    return _mean(arr)


def segment_phase(window: Window) -> PhaseLabel:
    """Label a window by the mean vertical rate of its 16 inputs."""
    first, last = window.values[2, [0, INPUT_LENGTH - 1]].tolist()
    rate = (last - first) / ((INPUT_LENGTH - 1) * STEP_SECONDS)
    if rate > PHASE_RATE_THRESHOLD_MS:
        return PhaseLabel.TAKE_OFF
    if rate < -PHASE_RATE_THRESHOLD_MS:
        return PhaseLabel.LANDING
    return PhaseLabel.CRUISE


@dataclass
class PhaseReport:
    samples: int
    attributes: dict[str, AttributeStats]


#: The MetricsReport field that counts each parse outcome's failure (None: parsed and scored).
_COUNT_OF = {
    None: "evaluated",
    FailureKind.SEVERE_DEVIATION: "excluded_severe",
    FailureKind.MISSING_TRAJECTORY: "failed_missing",
    FailureKind.UNEXPECTED_FORMAT: "failed_format",
}
#: The MetricsReport fields that count samples, in report order; nested under "counts" in its JSON form.
_COUNTS = tuple(_COUNT_OF.values())
#: The phase names eval writes, in table order.
_PHASES = tuple(label.value for label in PhaseLabel)


@dataclass
class MetricsReport:
    """Per-attribute accuracy, phase breakdown, latency, and bookkeeping."""

    model: str
    horizon: int
    template_version: str
    evaluated: int
    excluded_severe: int
    failed_missing: int
    failed_format: int
    mean_latency_s: float | None
    attributes: dict[str, AttributeStats] | None
    phases: dict[str, PhaseReport] = field(default_factory=dict)
    per_step: dict[int, dict[str, AttributeStats]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_one_line("model", self.model)
        check_one_line("template_version", self.template_version)
        for name in self.phases:
            if name not in _PHASES:
                raise ValueError(f"phase {name!r} is not one of {', '.join(_PHASES)}")
        integers = {name: getattr(self, name) for name in ("horizon", *_COUNTS)}
        integers.update({f"phase {name} samples": p.samples for name, p in self.phases.items()})
        for name, value in integers.items():
            check_integer(name, value)
        if self.mean_latency_s is not None:
            check_number("mean_latency_s", self.mean_latency_s)
        for step in self.per_step:
            check_integer("step", step, 1)
            if step > self.horizon:
                raise ValueError(f"step {step!r} is not an integer in 1..{self.horizon}")
        pools = {} if self.attributes is None else {"attributes": self.attributes}
        pools.update({f"phase {name}": p.attributes for name, p in self.phases.items()})
        pools.update({f"step {step}": stats for step, stats in self.per_step.items()})
        for pool, stats in pools.items():
            if not isinstance(stats, dict) or stats.keys() != set(ATTRIBUTES):
                raise ValueError(f"{pool} does not hold exactly the attributes {', '.join(ATTRIBUTES)}")
            for name, s in stats.items():
                check_number(f"{pool} {name} MAE", s.mae)
                check_number(f"{pool} {name} RMSE", s.rmse)
                # RMSE >= MAE, with last-bit slack for the all-errors-equal case where they coincide.
                if s.rmse < s.mae - 1e-12 * max(1.0, s.mae):
                    raise ValueError(f"{pool} RMSE < MAE for {name}: MAE {s.mae}, RMSE {s.rmse}")

    @property
    def total_submitted(self) -> int:
        return sum(getattr(self, name) for name in _COUNTS)

    def to_dict(self) -> dict:
        """The JSON form: the fields, with the four counts nested under ``counts`` and step keys as text."""
        obj = asdict(self)
        obj["counts"] = {name: obj.pop(name) for name in _COUNTS}
        obj["per_step"] = {str(step): stats for step, stats in obj["per_step"].items()}
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricsReport":
        """Read :meth:`to_dict`'s form back; keys that name no field are ignored. A missing key, a part
        that is not a JSON object, or a step key other than ``str(step)`` raises ValueError naming it."""
        def stats(pool: str, data) -> dict[str, AttributeStats]:
            scores = {k: check_object(f"{pool} {k}", v, "mae", "rmse") for k, v in check_object(pool, data).items()}
            return {k: AttributeStats(s["mae"], s["rmse"]) for k, s in scores.items()}

        obj = check_object("report", obj, "counts", *(f.name for f in fields(cls) if f.name not in _COUNTS))
        obj = {**obj, **check_object("counts", obj["counts"], *_COUNTS)}
        values = {f.name: obj[f.name] for f in fields(cls)}
        values["attributes"] = None if obj["attributes"] is None else stats("attributes", obj["attributes"])
        phases = {name: check_object(f"phase {name}", p, "samples", "attributes")
                  for name, p in check_object("phases", obj["phases"]).items()}
        values["phases"] = {name: PhaseReport(p["samples"], stats(f"phase {name}", p["attributes"]))
                            for name, p in phases.items()}
        steps = check_object("per_step", obj["per_step"])
        for key in steps:  # only the text str(step) writes, so no two keys name one step
            if not (key.isdecimal() and str(int(key)) == key):
                raise ValueError(f"per_step key {key!r} is not a whole number as str() writes it")
        # The file's keys are text, sorted as text ("1", "10", "2"); steps go back in numeric order.
        values["per_step"] = {int(k): stats(f"step {k}", steps[k]) for k in sorted(steps, key=int)}
        return cls(**values)


def _pool_stats(errors: np.ndarray) -> dict[str, AttributeStats]:
    """Per-attribute MAE/RMSE over every entry of a (samples, 5, ...) error array, one 1-D row each."""
    rows = errors.swapaxes(0, 1).reshape(len(ATTRIBUTES), -1)
    return {name: _stats(row) for name, row in zip(ATTRIBUTES, rows)}


def evaluate(
    samples: Sequence[tuple[Window, ParseOutcome, float]],
    model: str = "",
    template_version: str = "",
) -> MetricsReport:
    """Score parse outcomes against their windows' target columns.

    All samples must share one horizon, and every parsed block must be
    (5, horizon). Successful outcomes contribute each step's (truth,
    prediction) pair to the pooled per-attribute metrics, to their
    window's phase bucket and to their step's bucket; failures only
    advance the counters. With zero successes the metric fields are None
    but every count is still populated.
    """
    horizons = {window.horizon for window, _, _ in samples}
    if len(horizons) > 1:
        raise ValueError(f"samples mix horizons: {sorted(horizons)}")
    horizon = horizons.pop() if horizons else 0

    counts = dict.fromkeys(_COUNTS, 0)
    scored = []
    for window, outcome, _latency in samples:
        counts[_COUNT_OF[outcome.failure]] += 1
        if not outcome.ok:
            continue
        if outcome.values.shape != (len(ATTRIBUTES), window.horizon):
            raise ValueError(
                f"outcome block of shape {outcome.values.shape} for a horizon-{window.horizon} window"
            )
        scored.append((window, outcome))

    # The (samples, attributes, steps) absolute errors, formed once; every pool below is a slice of them.
    shape = (len(scored), len(ATTRIBUTES), horizon)
    truth = np.array([w.values[:, INPUT_LENGTH:] for w, _ in scored], dtype=np.float64).reshape(shape)
    errors = np.abs(truth - np.array([o.values for _, o in scored], dtype=np.float64).reshape(shape))
    phases = np.array([segment_phase(w).value for w, _ in scored])
    pooled = errors.size > 0

    latencies = [latency for _, _, latency in samples]
    return MetricsReport(
        model=model,
        horizon=horizon,
        template_version=template_version,
        **counts,
        mean_latency_s=mean_latency(latencies) if latencies else None,
        attributes=_pool_stats(errors) if pooled else None,
        phases={
            name: PhaseReport(
                samples=int(np.count_nonzero(phases == name)),
                attributes=_pool_stats(errors[phases == name]),
            )
            for name in (sorted(set(phases.tolist())) if pooled else ())
        },
        per_step={
            step: _pool_stats(errors[..., step - 1])
            for step in (range(1, horizon + 1) if scored else ())
        },
    )


def few_shot_split(dataset: Sequence, proportion: float, seed: int) -> list:
    """Seeded uniform subsample without replacement, original order kept.

    The subset size is round(proportion * N) with halves rounding up;
    proportion 1 returns the whole dataset unchanged.
    """
    check_integer("seed", seed)
    if not (0.0 < proportion <= 1.0):
        raise ValueError(f"proportion {proportion} out of range (0, 1]")
    items = list(dataset)
    if proportion == 1.0:
        return items
    size = int(np.floor(proportion * len(items) + 0.5))
    if size == 0:
        raise ValueError(f"proportion {proportion} of {len(items)} items rounds to zero")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(items), size=size, replace=False))
    return [items[i] for i in chosen]


# --- Report rendering --------------------------------------------------------

_HEADLINE_ATTRS = ATTRIBUTES[:3]
_EXTENDED_ATTRS = ATTRIBUTES[3:]


def emit_report(report: MetricsReport, fmt: ReportFormat | str = ReportFormat.TABLE) -> str:
    """Render a report as a human table, plottable CSV, or JSON."""
    fmt = ReportFormat(fmt)
    if fmt is ReportFormat.JSON:
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt is ReportFormat.CSV:
        return _render_csv(report)
    return _render_table(report)


def _csv_rows(report: MetricsReport) -> Iterable[list[str]]:
    def stat_rows(phase: str, step: str, stats: dict[str, AttributeStats]):
        for name in ATTRIBUTES:
            s = stats[name]
            yield [report.model, str(report.horizon), phase, step, name, "mae", repr(s.mae)]
            yield [report.model, str(report.horizon), phase, step, name, "rmse", repr(s.rmse)]

    if report.attributes is not None:
        yield from stat_rows("entire", "all", report.attributes)
    for phase_name, phase in report.phases.items():
        yield from stat_rows(phase_name, "all", phase.attributes)
    for step, stats in report.per_step.items():
        yield from stat_rows("entire", str(step), stats)
    if report.mean_latency_s is not None:
        yield [
            report.model,
            str(report.horizon),
            "entire",
            "all",
            "latency",
            "mean_s",
            repr(report.mean_latency_s),
        ]


def _render_csv(report: MetricsReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", "horizon", "phase", "step", "attribute", "metric", "value"])
    writer.writerows(_csv_rows(report))
    return out.getvalue()


def _number(value: float) -> str:
    """A table number: ``.4f`` where that is at most 14 characters (below about 1e9) and
    shows a nonzero digit of a nonzero value, ``.4e`` otherwise, so 2e-05 never reads 0.0000."""
    text = f"{value:.4f}"
    return text if len(text) <= 14 and (value == 0 or text.strip("-0.")) else f"{value:.4e}"


def _format_stat_cells(stats: dict[str, AttributeStats] | None, names: Sequence[str]) -> list[str]:
    if stats is None:
        return ["-" for _ in range(2 * len(names))]
    return [_number(stats[n].mae) for n in names] + [_number(stats[n].rmse) for n in names]


def _render_table(report: MetricsReport) -> str:
    header = [
        "phase",
        "samples",
        "MAE lon",
        "MAE lat",
        "MAE alt",
        "RMSE lon",
        "RMSE lat",
        "RMSE alt",
    ]
    scored = getattr(report, _COUNT_OF[None])  # the samples parsed and scored: the entire pool
    rows = [["entire", str(scored)] + _format_stat_cells(report.attributes, _HEADLINE_ATTRS)]
    for label in PhaseLabel:
        phase = report.phases.get(label.value)
        if phase is not None:
            rows.append(
                [label.value, str(phase.samples)] + _format_stat_cells(phase.attributes, _HEADLINE_ATTRS)
            )

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        f"model={report.model or '-'}  horizon={report.horizon}  "
        f"template={report.template_version or '-'}"
    ]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))

    ext = _format_stat_cells(report.attributes, _EXTENDED_ATTRS)
    lines.append(
        "extended: MAE vel={0} hdg={1}  RMSE vel={2} hdg={3}".format(*ext)
        if report.attributes is not None
        else "extended: -"
    )
    if report.mean_latency_s is not None:
        lines.append(f"mean latency: {_number(report.mean_latency_s)} s")
    lines.append("samples: " + " ".join(f"{name.replace('_', '-')}={getattr(report, name)}" for name in _COUNTS))
    return "\n".join(lines) + "\n"
