"""Forecast scoring: MAE/RMSE per attribute, phases, latency, and reports.

Failed completions are counted by class and excluded from the accuracy
metrics (severe deviations too, since they would poison the averages),
but every submitted sample contributes to mean latency because the model
spent the time either way. Multi-step predictions are pooled across steps
for the headline numbers; a per-step breakdown rides along in the CSV.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .domain import ATTRIBUTES, PhaseLabel
from .prompts import FailureKind, ParseOutcome
from .windowing import INPUT_LENGTH, STEP_SECONDS, Window

#: Mean vertical rate (m/s) separating climb and descent from cruise.
PHASE_RATE_THRESHOLD_MS = 2.5


class ReportFormat(Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"


def _as_finite_arrays(truth: Sequence[float], predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("empty input")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite value in input")
    return t, p


def mae(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error. Sorted before summing so that sample order
    can never perturb the last bits of the result."""
    t, p = _as_finite_arrays(truth, predicted)
    return float(np.mean(np.sort(np.abs(t - p))))


def rmse(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error, order-independent like :func:`mae`."""
    t, p = _as_finite_arrays(truth, predicted)
    return float(np.sqrt(np.mean(np.sort((t - p) ** 2))))


def mean_latency(latencies: Sequence[float]) -> float:
    """Arithmetic mean of per-sample latencies in seconds."""
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty input")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("latencies must be finite and >= 0")
    return float(np.mean(np.sort(arr)))


def segment_phase(window: Window) -> PhaseLabel:
    """Label a window by the mean vertical rate of its 16 inputs."""
    first, last = window.values[2, [0, INPUT_LENGTH - 1]].tolist()
    rate = (last - first) / ((INPUT_LENGTH - 1) * STEP_SECONDS)
    if rate > PHASE_RATE_THRESHOLD_MS:
        return PhaseLabel.TAKE_OFF
    if rate < -PHASE_RATE_THRESHOLD_MS:
        return PhaseLabel.LANDING
    return PhaseLabel.CRUISE


@dataclass(frozen=True)
class AttributeStats:
    mae: float
    rmse: float


@dataclass
class PhaseReport:
    samples: int
    attributes: dict[str, AttributeStats]


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

    @property
    def total_submitted(self) -> int:
        return self.evaluated + self.excluded_severe + self.failed_missing + self.failed_format

    def to_dict(self) -> dict:
        def stats_dict(stats: dict[str, AttributeStats] | None):
            if stats is None:
                return None
            return {k: {"mae": v.mae, "rmse": v.rmse} for k, v in stats.items()}

        return {
            "model": self.model,
            "horizon": self.horizon,
            "template_version": self.template_version,
            "counts": {
                "evaluated": self.evaluated,
                "excluded_severe": self.excluded_severe,
                "failed_missing": self.failed_missing,
                "failed_format": self.failed_format,
            },
            "mean_latency_s": self.mean_latency_s,
            "attributes": stats_dict(self.attributes),
            "phases": {
                name: {"samples": p.samples, "attributes": stats_dict(p.attributes)}
                for name, p in self.phases.items()
            },
            "per_step": {str(k): stats_dict(v) for k, v in self.per_step.items()},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricsReport":
        def stats_from(data) -> dict[str, AttributeStats] | None:
            if data is None:
                return None
            return {k: AttributeStats(v["mae"], v["rmse"]) for k, v in data.items()}

        counts = obj["counts"]
        return cls(
            model=obj["model"],
            horizon=obj["horizon"],
            template_version=obj["template_version"],
            evaluated=counts["evaluated"],
            excluded_severe=counts["excluded_severe"],
            failed_missing=counts["failed_missing"],
            failed_format=counts["failed_format"],
            mean_latency_s=obj["mean_latency_s"],
            attributes=stats_from(obj["attributes"]),
            phases={
                name: PhaseReport(p["samples"], stats_from(p["attributes"]))
                for name, p in obj["phases"].items()
            },
            per_step={int(k): stats_from(v) for k, v in obj["per_step"].items()},
        )


EvalSample = tuple[Window, ParseOutcome, float]


def _pool_stats(truth: np.ndarray, predicted: np.ndarray) -> dict[str, AttributeStats]:
    """Per-attribute MAE/RMSE over every pair of two (samples, 5, ...) arrays."""
    truth = truth.swapaxes(0, 1).reshape(len(ATTRIBUTES), -1)
    predicted = predicted.swapaxes(0, 1).reshape(len(ATTRIBUTES), -1)
    return {
        name: AttributeStats(mae=mae(truth[row], predicted[row]), rmse=rmse(truth[row], predicted[row]))
        for row, name in enumerate(ATTRIBUTES)
    }


def evaluate(
    samples: Sequence[EvalSample],
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

    counts = {kind: 0 for kind in FailureKind}
    scored = []
    for window, outcome, _latency in samples:
        if not outcome.ok:
            counts[outcome.failure] += 1
            continue
        if outcome.values.shape != (len(ATTRIBUTES), window.horizon):
            raise ValueError(
                f"outcome block of shape {outcome.values.shape} for a horizon-{window.horizon} window"
            )
        scored.append((window, outcome))

    # (samples, attributes, steps) arrays; every pool below is a slice of them.
    shape = (len(scored), len(ATTRIBUTES), horizon)
    truth = np.array([w.values[:, INPUT_LENGTH:] for w, _ in scored], dtype=np.float64).reshape(shape)
    predicted = np.array([o.values for _, o in scored], dtype=np.float64).reshape(shape)
    phases = np.array([segment_phase(w).value for w, _ in scored])
    pooled = truth.size > 0

    latencies = [latency for _, _, latency in samples]
    return MetricsReport(
        model=model,
        horizon=horizon,
        template_version=template_version,
        evaluated=len(scored),
        excluded_severe=counts[FailureKind.SEVERE_DEVIATION],
        failed_missing=counts[FailureKind.MISSING_TRAJECTORY],
        failed_format=counts[FailureKind.UNEXPECTED_FORMAT],
        mean_latency_s=mean_latency(latencies) if latencies else None,
        attributes=_pool_stats(truth, predicted) if pooled else None,
        phases={
            name: PhaseReport(
                samples=int(np.count_nonzero(phases == name)),
                attributes=_pool_stats(truth[phases == name], predicted[phases == name]),
            )
            for name in (sorted(set(phases.tolist())) if pooled else ())
        },
        per_step={
            step: _pool_stats(truth[..., step - 1], predicted[..., step - 1])
            for step in (range(1, horizon + 1) if scored else ())
        },
    )


def few_shot_split(dataset: Sequence, proportion: float, seed: int) -> list:
    """Seeded uniform subsample without replacement, original order kept.

    The subset size is round(proportion * N) with halves rounding up;
    proportion 1 returns the whole dataset unchanged.
    """
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

_HEADLINE_ATTRS = ("longitude", "latitude", "altitude")
_EXTENDED_ATTRS = ("velocity", "heading")


def _check_stats(stats: dict[str, AttributeStats] | None) -> None:
    if stats is None:
        return
    for name, s in stats.items():
        # Mathematically RMSE >= MAE; allow last-bit float slack for the
        # degenerate all-errors-equal case where they coincide.
        tolerance = 1e-12 * max(1.0, s.mae)
        assert s.mae >= 0.0 and s.rmse >= s.mae - tolerance, (
            f"RMSE < MAE for {name}: {s.rmse} < {s.mae}"
        )


def emit_report(report: MetricsReport, fmt: ReportFormat | str = ReportFormat.TABLE) -> str:
    """Render a report as a human table, plottable CSV, or JSON."""
    fmt = ReportFormat(fmt) if isinstance(fmt, str) else fmt
    _check_stats(report.attributes)
    for phase in report.phases.values():
        _check_stats(phase.attributes)
    for stats in report.per_step.values():
        _check_stats(stats)

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
    lines = ["model,horizon,phase,step,attribute,metric,value"]
    for row in _csv_rows(report):
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _format_stat_cells(stats: dict[str, AttributeStats] | None, names: Sequence[str]) -> list[str]:
    if stats is None:
        return ["-" for _ in range(2 * len(names))]
    return [f"{stats[n].mae:.4f}" for n in names] + [f"{stats[n].rmse:.4f}" for n in names]


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
    rows = [["entire", str(report.evaluated)] + _format_stat_cells(report.attributes, _HEADLINE_ATTRS)]
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
        lines.append(f"mean latency: {report.mean_latency_s:.4f} s")
    lines.append(
        "samples: evaluated={0} excluded-severe={1} failed-missing={2} failed-format={3}".format(
            report.evaluated, report.excluded_severe, report.failed_missing, report.failed_format
        )
    )
    return "\n".join(lines) + "\n"
