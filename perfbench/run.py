"""flightcast benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <feed|lstm|endpoint> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each run sets the workload up three times in child processes
(``setup_s`` is their median), warms up on a small fixed input whose
outputs are compared with recorded digests, then repeats passes of the
workload for about ``--seconds``. With ``--trace 0`` nothing is wrapped
and the end-to-end metrics are printed; with ``--trace 1`` half the time
runs untraced and half traced, and the per-layer metrics are printed. The
last line of stdout is one JSON object; the lines before it are for people.

``--record`` runs one pass and stores its output digests (and, for
``lstm``, its report) in ``perfbench/expected.json`` for that seed and for
the fixed warm-up input. Only use it on a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import speed
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
WORKLOADS = ("feed", "lstm", "endpoint")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, in the order printed. A layer a workload never calls
# reads 0 on that workload.
TIMED_LAYERS = (
    "synth.generate_corpus",
    "ingest.read_adsb_csv", "ingest.clean_trajectories", "ingest.aggregate_minutes",
    "ingest.write_trajectories_csv",
    "windowing.sample_windows", "windowing.read_windows_jsonl", "windowing.write_windows_jsonl",
    "cli.ingest", "cli.sample", "cli.prompt", "cli.predict", "cli.train-lstm", "cli.eval",
    "predictors.lstm_train", "predictors.lstm_predict", "predictors.LstmParams.load",
    "llm.complete_many", "llm.mock_complete",
    "prompts.build_prompt", "prompts.emit_dataset", "prompts.parse_completion",
    "evaluation.evaluate", "evaluation.emit_report",
)
COUNTERS = (
    "ingest.read_adsb_csv.rows",
    "ingest.clean.kept", "ingest.clean.incomplete", "ingest.clean.invalid", "ingest.clean.duplicate",
    "ingest.utc_warnings",
    "predictors.lstm_train.batches", "predictors.lstm_predict.forward_calls",
    "llm.requests", "llm.attempts",
    "prompts.emit_dataset.bytes",
    "prompts.parse.ok", "prompts.parse.missing", "prompts.parse.format", "prompts.parse.severe",
)
DERIVED = {
    "predictors.lstm_train.epoch_s": "s",
    "llm.latency_p50_ms": "ms",
    "llm.latency_p95_ms": "ms",
    "llm.latency_samples": "count",
    "llm.client_overhead_ms": "ms",
    "stub.connections": "count",
    "stub.connections_per_request": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in TIMED_LAYERS}
    units.update({name: "count" for name in COUNTERS})
    units.update(DERIVED)
    return units


# --- tracing targets -----------------------------------------------------------


def _outermost(args) -> bool:
    # read_adsb_csv and the writers call themselves once with an open file.
    return isinstance(args[0], (str, os.PathLike))


def _rows(tracer, result, args):
    if _outermost(args):
        tracer.count("ingest.read_adsb_csv.rows", len(result))


def _cleaning(tracer, result, args):
    for key, value in result.summary().items():
        tracer.count(f"ingest.clean.{key}", value)


def _dataset_bytes(tracer, result, args):
    tracer.count("prompts.emit_dataset.bytes", os.path.getsize(args[1]))


_PARSE_CLASS = {"missing-trajectory": "missing", "unexpected-format": "format", "severe-deviation": "severe"}


def _parsed(tracer, result, args):
    tracer.count("prompts.parse." + ("ok" if result.ok else _PARSE_CLASS[result.failure.value]))


def _completions(tracer, result, args):
    tracer.count("llm.requests", len(result))
    tracer.count("llm.attempts", sum(r.attempts for r in result))


def trace_targets(fc) -> list[tuple]:
    """The public functions flightcast.cli (or the endpoint pass) calls."""
    return [
        (fc.ingest, "read_adsb_csv", "ingest.read_adsb_csv", _rows),
        (fc.ingest, "clean_trajectories", "ingest.clean_trajectories", _cleaning),
        (fc.ingest, "aggregate_minutes", "ingest.aggregate_minutes"),
        (fc.ingest, "write_trajectories_csv", "ingest.write_trajectories_csv"),
        (fc.windowing, "sample_windows", "windowing.sample_windows"),
        (fc.windowing, "read_windows_jsonl", "windowing.read_windows_jsonl"),
        (fc.windowing, "write_windows_jsonl", "windowing.write_windows_jsonl"),
        (fc.prompts, "build_prompt", "prompts.build_prompt"),
        (fc.prompts, "emit_dataset", "prompts.emit_dataset", _dataset_bytes),
        (fc.prompts, "parse_completion", "prompts.parse_completion", _parsed),
        (fc.llm, "mock_complete", "llm.mock_complete"),
        (fc.llm, "complete_many", "llm.complete_many", _completions),
        (fc.evaluation, "evaluate", "evaluation.evaluate"),
        (fc.evaluation, "emit_report", "evaluation.emit_report"),
        (fc.cli, "lstm_train", "predictors.lstm_train"),
        (fc.cli, "lstm_predict", "predictors.lstm_predict"),
        (fc.cli.LstmParams, "load", "predictors.LstmParams.load"),
        (fc.predictors.lstm, "lstm_loss_gradients", "predictors.lstm_train.batches", "count"),
        (fc.predictors.lstm, "lstm_forward", "predictors.lstm_predict.forward_calls", "count"),
    ]


class UtcWarningCounter(logging.Handler):
    """Counts the ingest warnings about a utc_time that disagrees with its timestamp."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.name == "flightcast.ingest" and "disagrees" in record.getMessage():
            self.tracer.count("ingest.utc_warnings")


# --- the run -----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def import_program():
    src = ROOT / "src"
    if not (src / "flightcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'flightcast'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import flightcast
    import flightcast.cli
    import flightcast.predictors.lstm

    if Path(flightcast.__file__).resolve().parent != (src / "flightcast").resolve():
        raise SystemExit(f"error: imported flightcast from {flightcast.__file__}, not from {src}")
    return flightcast


def set_up(args, work: Path, trace: bool, repeats: int = SETUP_REPEATS):
    """Set the workload up ``repeats`` times; return the last inputs, raw times and spans."""
    times, digests, spans, stub = [], [], [], None
    for k in range(repeats):
        out = work / f"setup-{k}"
        command = [sys.executable, str(BENCH_DIR / "inputs.py"), args.workload, str(args.seed), str(out)]
        if trace:
            command += ["--spans", str(work / f"setup-{k}.spans.jsonl")]
        if stub is not None:
            stub.close()
            stub = None
        with speed.segment() as seg:
            subprocess.run(command, check=True, cwd=ROOT, timeout=170)
            if args.workload == "endpoint":
                stub = workloads.StubProcess(out / "stub_table.json")
        times.append(seg)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())})
        if trace:
            spans.append(Tracer.read(work / f"setup-{k}.spans.jsonl"))
    problems = [] if all(d == digests[0] for d in digests) else ["set-ups of one seed wrote different inputs"]
    return out, times, spans, stub, problems


def timed_passes(workload, work: Path, budget_s: float, first: int, tracer=None):
    """Repeat passes until another one would overrun the budget (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        gc.collect()
        index = first + len(results)
        if tracer is not None:
            tracer.run_id = index
        try:
            results.append(workload.run_pass(work / f"pass-{index}"))
        except Exception:  # a broken program fails the pass, not the run
            results.append(workloads.PassResult(windows=0, operations=1, problems=[traceback.format_exc(limit=3)]))
        shutil.rmtree(work / f"pass-{index}", ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + median([r.wall.wall for r in results]) > budget_s:
            return results


def end_to_end(results, setups, peak_rss_mb) -> dict:
    # The forecasting step is calibrated with all the probes of its pass:
    # its own two are too few for a step that can last under a second.
    rates = [
        r.windows / speed.Segment(r.forecast.wall, r.forecast.wait, r.wall.probes).calibrated
        for r in results if r.forecast.probes
    ]
    return {
        "setup_s": median([s.calibrated for s in setups]),
        "wall_s": median([r.wall.calibrated for r in results if r.wall.probes]),
        "windows_per_s": median(rates),
        "peak_rss_mb": peak_rss_mb,
    }


def build_layer_metrics(tracer, traced_ids, traced, untraced, setup_spans) -> dict:
    per_pass = []
    for run_id, result in zip(traced_ids, traced):
        selfs = tracer.self_times(run_id)
        counts = tracer.run_counters(run_id)
        row = {f"{name}.s": selfs.get(name, 0.0) for name in TIMED_LAYERS}
        row.update({name: counts.get(name, 0) for name in COUNTERS})
        row["predictors.lstm_train.epoch_s"] = selfs.get("predictors.lstm_train", 0.0) / workloads.LSTM_EPOCHS
        requests = result.stub.get("requests", 0)
        row["stub.connections"] = result.stub.get("connections", 0)
        row["stub.connections_per_request"] = row["stub.connections"] / requests if requests else 0.0
        row["trace.spans"] = sum(1 for s in tracer.spans if s["run"] == run_id)
        per_pass.append(row)
    metrics = {name: median([row[name] for row in per_pass]) for name in per_pass[0]}

    synth = []
    for spans in setup_spans:
        probe = Tracer()
        probe.spans = spans
        synth.append(probe.self_times("setup").get("synth.generate_corpus", 0.0))
    metrics["synth.generate_corpus.s"] = median(synth)

    latencies = [s * 1000.0 for r in traced for s in r.latencies_s]
    delay_ms = inputs.STUB_DELAY_MS
    metrics["llm.latency_p50_ms"] = percentile(latencies, 0.50)
    metrics["llm.latency_p95_ms"] = percentile(latencies, 0.95)
    metrics["llm.latency_samples"] = len(latencies)
    metrics["llm.client_overhead_ms"] = statistics.fmean(latencies) - delay_ms if latencies else 0.0
    metrics["trace.wall_s"] = median([r.wall.calibrated for r in traced if r.wall.probes])
    metrics["trace.untraced_wall_s"] = median([r.wall.calibrated for r in untraced if r.wall.probes])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def make_workload(fc, args, inputs_dir: Path, expected: dict, tracer, stub):
    seeds = expected.get("seeds", {}).get(args.workload, {})
    if args.workload == "feed":
        return workloads.Feed(fc, tracer, seeds, args.seed, inputs_dir)
    if args.workload == "lstm":
        return workloads.Lstm(fc, tracer, seeds, args.seed, inputs_dir)
    return workloads.Endpoint(fc, seeds, args.seed, inputs_dir, stub)


def configure_logging(work: Path) -> None:
    """Send the program's log to a file, at the level its CLI would use."""
    handler = logging.FileHandler(work / "flightcast.log", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.INFO)


def print_summary(args, metrics: dict, units: dict, samples: dict, passes: int, notes) -> None:
    """Every metric by name with its unit and sample count (n = passes unless stated)."""
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} passes={passes}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={samples.get(name, passes)}")
    for note in notes:
        print(f"  {note}")


def record(args, fc, work: Path, problems_out: list) -> None:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    inputs_dir, _, _, stub, problems = set_up(args, work, trace=False, repeats=1)
    try:
        workload = make_workload(fc, args, inputs_dir, {}, None, stub)
        ref_problems, reference = workload.warm_up(work / "warm-up", None)
        result = workload.run_pass(work / "pass-0")
    finally:
        if stub is not None:
            stub.close()
    problems += ref_problems + result.problems
    if problems:
        problems_out.extend(problems)
        return
    if reference:
        expected.setdefault("reference", {})[args.workload] = reference
    expected.setdefault("seeds", {}).setdefault(args.workload, {})[str(args.seed)] = workload.record_of(result)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {args.workload} seed {args.seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    fc = import_program()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    configure_logging(work)
    stub = None
    try:
        if args.record:
            problems = []
            record(args, fc, work, problems)
            for p in problems:
                print(f"  problem: {p}", file=sys.stderr)
            return 1 if problems else 0

        expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        inputs_dir, setups, setup_spans, stub, problems = set_up(args, work, trace=bool(args.trace))
        tracer = Tracer() if args.trace else None
        workload = make_workload(fc, args, inputs_dir, expected, tracer, stub)
        reference = expected.get("reference", {}).get(args.workload)
        if reference is None and args.workload != "endpoint":
            problems.append(f"no recorded reference for {args.workload}")
        problems += workload.warm_up(work / "warm-up", reference)[0]

        if not args.trace:
            results = timed_passes(workload, work, args.seconds, 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(results, setups, peak_rss_mb)
            units = END_TO_END
            samples = {"setup_s": len(setups), "peak_rss_mb": 1}
            passes = len(results)
        else:
            untraced = timed_passes(workload, work, args.seconds / 2, 0)
            counter = UtcWarningCounter(tracer)
            logging.getLogger().addHandler(counter)
            with tracer.patched(trace_targets(fc)):
                traced = timed_passes(workload, work, args.seconds / 2, len(untraced), tracer)
            logging.getLogger().removeHandler(counter)
            traced_ids = list(range(len(untraced), len(untraced) + len(traced)))
            metrics = build_layer_metrics(tracer, traced_ids, traced, untraced, setup_spans)
            units = per_layer_units()
            metrics = {name: metrics[name] for name in units}
            results = untraced + traced
            passes = len(traced)
            samples = {
                "synth.generate_corpus.s": len(setup_spans),
                "trace.untraced_wall_s": len(untraced),
                "trace.overhead_s": f"{len(traced)}+{len(untraced)}",
                "llm.latency_p50_ms": metrics["llm.latency_samples"],
                "llm.latency_p95_ms": metrics["llm.latency_samples"],
                "llm.client_overhead_ms": metrics["llm.latency_samples"],
            }
            out = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(out)

        notes = [
            "raw pass wall_s: " + " ".join(f"{r.wall.wall:.3f}" for r in results),
            "raw setup_s: " + " ".join(f"{s.wall:.3f}" for s in setups),
            "median speed probe per pass, ms: "
            + " ".join(f"{median(r.wall.probes) * 1000:.3f}" for r in results)
            + f" (reference {speed.REFERENCE_PROBE_S * 1000:.3f})",
        ]
        if args.workload == "endpoint":
            latencies = [s * 1000.0 for r in results for s in r.latencies_s]
            notes.append(
                f"request latency p50 {percentile(latencies, 0.5):.3f} ms, "
                f"p95 {percentile(latencies, 0.95):.3f} ms, n={len(latencies)}"
            )
        if str(args.seed) not in expected.get("seeds", {}).get(args.workload, {}):
            notes.append(f"seed {args.seed} has no recorded outputs; checked the warm-up reference and oracles")
        # Any mismatch, in any pass or before the passes, fails the whole run.
        attempted = max(1, sum(r.operations for r in results))
        problems += [p for r in results for p in r.problems]
        notes += [f"problem: {p}" for p in problems[:20]]
        print_summary(args, metrics, units, samples, passes, notes)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": attempted if problems else 0,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        if stub is not None:
            stub.close()
        logging.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
