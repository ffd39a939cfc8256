"""The three workloads: one pass of each, its checks, and its warm-up.

A pass is the unit the benchmark times and repeats. ``feed`` and ``lstm``
drive the program's CLI in process through ``flightcast.cli.main``;
``endpoint`` calls the library directly, because the CLI's endpoint
backend has no flag for its in-flight limit and would open 4 connections
on a 2-core machine.

Every check returns a list of problems; any problem marks the run's
operations failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import math
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import speed
from speed import Segment

REFERENCE_SEED = 7
LSTM_EPOCHS = 30
# Fused or batched LSTM arithmetic may move the last bits of the weights,
# and 30 epochs of Adam can carry that into a few rounded forecasts; one
# forecast moved by its last decimal shifts MAE by ~1e-8 relative, while
# rounding every forecast one decimal coarser shifts it by ~1e-5.
LSTM_REL_TOLERANCE = 1e-6
LSTM_ABS_TOLERANCE = 1e-9
ENDPOINT_REL_TOLERANCE = 1e-9
ENDPOINT_WARMUP_WINDOWS = 16


@dataclass
class PassResult:
    """Raw timings and outputs of one pass; ``problems`` empty when correct.

    ``forecast`` is the step that produces the forecasts; run.py turns the
    raw wall seconds into calibrated ones (see speed.py).
    """

    windows: int
    operations: int
    wall: Segment = field(default_factory=Segment)
    forecast: Segment = field(default_factory=Segment)
    digests: dict[str, str] = field(default_factory=dict)
    report: dict | None = None
    latencies_s: list[float] = field(default_factory=list)
    stub: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def report_metrics(report: dict) -> dict:
    return {"counts": report["counts"], "attributes": report["attributes"]}


def close_enough(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def compare_attributes(got: dict | None, want: dict | None, rel: float, abs_tol: float, what: str) -> list[str]:
    if got is None or want is None:
        return [] if got == want else [f"{what}: attributes {got!r} != {want!r}"]
    problems = []
    for name, stats in want.items():
        for stat, value in stats.items():
            if not close_enough(got[name][stat], value, rel, abs_tol):
                problems.append(f"{what}: {name} {stat} {got[name][stat]!r} != {value!r}")
    return problems


class CliWorkload:
    """Shared runner for the workloads that drive ``flightcast.cli``."""

    name = ""
    digest_files: tuple[str, ...] = ()

    def __init__(self, flightcast, tracer, expected: dict, seed: int):
        self.cli = flightcast.cli
        self.tracer = tracer
        self.expected = expected
        self.seed = seed
        self.baseline: PassResult | None = None

    def stage(self, name: str, argv: list, result: PassResult) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{name}") if self.tracer else contextlib.nullcontext()
        with speed.segment() as seg:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([name] + [str(a) for a in argv])
        result.wall.add(seg)
        if name == "predict":
            result.forecast = seg
        if code != 0:
            result.problems.append(f"stage {name} exited {code}: {err.getvalue()[-300:]}")
        return code, err.getvalue()

    def run_stages(self, stages, result: PassResult) -> dict[str, str]:
        """Run stages in order, stopping at the first failure; return stderr per stage."""
        stderr = {}
        for name, argv in stages:
            code, stderr[name] = self.stage(name, argv, result)
            if code != 0:
                break
        return stderr

    def check_against(self, result: PassResult, record: dict | None, what: str) -> list[str]:
        """Exact digests, plus the workload's own comparison of the report."""
        if record is None:
            return []
        problems = [
            f"{what}: {name} sha256 {result.digests.get(name)} != recorded {digest}"
            for name, digest in record.get("digests", {}).items()
            if result.digests.get(name) != digest
        ]
        return problems + self.compare_report(result, record, what)

    def compare_report(self, result: PassResult, record: dict, what: str) -> list[str]:
        return []

    def collect(self, result: PassResult, directory: Path) -> None:
        result.digests = {name: sha256_file(directory / name) for name in self.digest_files}
        result.report = json.loads((directory / "report.json").read_text(encoding="utf-8"))

    def reference(self, result: PassResult, directory: Path, record: dict | None) -> tuple[list[str], dict]:
        """Problems of a warm-up pass against its recorded outputs, and its own record."""
        if result.problems:
            return result.problems, {}
        self.collect(result, directory)
        return self.check_against(result, record, f"reference {self.name}"), self.record_of(result)

    def finish(self, result: PassResult, directory: Path) -> None:
        """Check a pass against the first pass and against the seed's recorded outputs."""
        if result.problems:
            return
        self.collect(result, directory)
        if self.baseline is None:
            self.baseline = result
        else:
            result.problems += self.check_against(result, self.record_of(self.baseline), "repeat pass")
        result.problems += self.check_against(result, self.expected.get(str(self.seed)), f"seed {self.seed}")

    def record_of(self, result: PassResult) -> dict:
        return {"digests": result.digests, "report": report_metrics(result.report)}


class Feed(CliWorkload):
    """Dirty 200-flight ADS-B feed through ingest, sample, prompt, predict and eval."""

    name = "feed"
    digest_files = ("clean.csv", "windows.jsonl", "dataset.jsonl", "dataset.jsonl.manifest.json", "report.json")

    def __init__(self, flightcast, tracer, expected, seed, inputs_dir: Path):
        super().__init__(flightcast, tracer, expected, seed)
        self.raw = inputs_dir / "raw.csv"
        self.oracle = json.loads((inputs_dir / "oracle.json").read_text(encoding="utf-8"))

    def pipeline(self, raw: Path, d: Path, oracle: dict) -> PassResult:
        d.mkdir(parents=True, exist_ok=True)
        result = PassResult(windows=0, operations=oracle["records"])
        stderr = self.run_stages(
            [
                ("ingest", ["--in", raw, "--out", d / "clean.csv"]),
                ("sample", ["--in", d / "clean.csv", "--horizon", 4, "--out", d / "windows.jsonl"]),
                ("prompt", ["--in", d / "windows.jsonl", "--out", d / "dataset.jsonl", "--with-assistant"]),
                ("predict", ["--in", d / "windows.jsonl", "--out", d / "pred.jsonl", "--backend", "mock"]),
                ("eval", ["--pred", d / "pred.jsonl", "--out-prefix", d / "report", "--no-latency"]),
            ],
            result,
        )
        if result.problems:
            return result
        result.windows = count_lines(d / "windows.jsonl")
        result.problems += self.check_cleaning(stderr.get("ingest", ""), d / "clean.csv", oracle)
        return result

    @staticmethod
    def check_cleaning(stderr: str, clean_csv: Path, oracle: dict) -> list[str]:
        summaries = []
        for line in stderr.splitlines():
            with contextlib.suppress(ValueError):
                obj = json.loads(line)
                if isinstance(obj, dict) and "cleaning" in obj:
                    summaries.append(obj["cleaning"])
        problems = []
        if summaries != [oracle["cleaning"]]:
            problems.append(f"cleaning counts {summaries} != injector tally {oracle['cleaning']}")
        with open(clean_csv, encoding="utf-8") as fh:
            next(fh)
            kept = sorted({line.split(",")[2] for line in fh if line.strip()})
        if kept != oracle["kept_callsigns"]:
            problems.append("callsigns in the clean CSV differ from the flights the injector left clean")
        return problems

    def run_pass(self, d: Path) -> PassResult:
        result = self.pipeline(self.raw, d, self.oracle)
        self.finish(result, d)
        return result

    def warm_up(self, work: Path, record: dict | None) -> tuple[list[str], dict]:
        """Run a small fixed feed end to end and compare it with its recorded digests."""
        from flightcast import synth

        work.mkdir(parents=True, exist_ok=True)
        records, _ = synth.generate_corpus(12, REFERENCE_SEED)
        oracle = inputs.write_feed(records, REFERENCE_SEED, work / "raw.csv")
        return self.reference(self.pipeline(work / "raw.csv", work / "out", oracle), work / "out", record)


class Lstm(CliWorkload):
    """Train the LSTM on one corpus, roll it out on a held-out one, score it."""

    name = "lstm"
    digest_files = ("train_windows.jsonl", "test_windows.jsonl")

    def __init__(self, flightcast, tracer, expected, seed, inputs_dir: Path):
        super().__init__(flightcast, tracer, expected, seed)
        self.inputs_dir = inputs_dir

    def pipeline(self, src: Path, d: Path) -> PassResult:
        d.mkdir(parents=True, exist_ok=True)
        result = PassResult(windows=0, operations=0)
        self.run_stages(
            [
                ("sample", ["--in", src / "train.csv", "--horizon", 1, "--out", d / "train_windows.jsonl"]),
                ("train-lstm", ["--in", d / "train_windows.jsonl", "--out", d / "model.json", "--epochs", LSTM_EPOCHS]),
                ("sample", ["--in", src / "test.csv", "--horizon", 8, "--out", d / "test_windows.jsonl"]),
                ("predict", ["--in", d / "test_windows.jsonl", "--out", d / "pred.jsonl",
                             "--backend", "lstm", "--model-file", d / "model.json"]),
                ("eval", ["--pred", d / "pred.jsonl", "--out-prefix", d / "report", "--no-latency"]),
            ],
            result,
        )
        if not result.problems:
            result.windows = result.operations = count_lines(d / "test_windows.jsonl")
        return result

    def compare_report(self, result: PassResult, record: dict, what: str) -> list[str]:
        want = record.get("report")
        if want is None or result.report is None:
            return []
        got = report_metrics(result.report)
        problems = [] if got["counts"] == want["counts"] else [f"{what}: counts {got['counts']} != {want['counts']}"]
        return problems + compare_attributes(
            got["attributes"], want["attributes"], LSTM_REL_TOLERANCE, LSTM_ABS_TOLERANCE, what
        )

    def run_pass(self, d: Path) -> PassResult:
        result = self.pipeline(self.inputs_dir, d)
        self.finish(result, d)
        if not result.problems and result.report["counts"]["evaluated"] == 0:
            result.problems.append("no held-out window was scored")
        return result

    def warm_up(self, work: Path, record: dict | None) -> tuple[list[str], dict]:
        """Train and score a small fixed corpus; compare with its recorded report."""
        from flightcast import synth

        work.mkdir(parents=True, exist_ok=True)
        train, _ = synth.generate_corpus(8, REFERENCE_SEED)
        test, _ = synth.generate_corpus(6, REFERENCE_SEED + inputs.LSTM_TEST_SEED_OFFSET)
        inputs.write_clean_csv(train, 1, 36, work / "train.csv")
        inputs.write_clean_csv(test, 8, 16, work / "test.csv")
        return self.reference(self.pipeline(work, work / "out"), work / "out", record)


class Endpoint:
    """h4 windows through build_prompt, complete_many, parse_completion and evaluate."""

    def __init__(self, flightcast, expected, seed, inputs_dir: Path, stub):
        self.fc = flightcast
        self.expected = expected
        self.seed = seed
        self.stub = stub
        self.oracle = json.loads((inputs_dir / "oracle.json").read_text(encoding="utf-8"))
        self.windows = flightcast.windowing.read_windows_jsonl(inputs_dir / "windows.jsonl")
        self.config = flightcast.llm.EndpointConfig(
            base_url=f"http://127.0.0.1:{stub.port}", model="stub", max_in_flight=2
        )
        self.baseline_digest: str | None = None

    def forecast(self, windows, result: PassResult):
        fc = self.fc
        try:
            with speed.segment() as sent:
                records = [fc.prompts.build_prompt(w, include_assistant=False) for w in windows]
                completions = fc.llm.complete_many(records, self.config)
        except fc.llm.EndpointError as exc:
            result.problems.append(f"request failed: {exc}")
            return None, None
        with speed.segment() as scored:
            outcomes = [fc.prompts.parse_completion(c.text, w.horizon, w) for c, w in zip(completions, windows)]
            report = fc.evaluation.evaluate(
                [(w, o, c.latency_s) for w, o, c in zip(windows, outcomes, completions)],
                model="stub",
                template_version=fc.prompts.TEMPLATE_VERSION,
            )
        result.forecast = sent
        result.wall.add(sent)
        result.wall.add(scored)
        result.latencies_s = [c.latency_s for c in completions]
        return outcomes, report

    def check(self, outcomes, classes: list[str], stub_delta: dict) -> list[str]:
        problems = []
        served = Counter(classes)
        if stub_delta["requests"] != len(classes) or stub_delta["unknown"] != 0:
            problems.append(
                f"stub served {stub_delta['requests']} known and {stub_delta['unknown']} unknown prompts "
                f"for {len(classes)} windows"
            )
        if Counter(stub_delta["classes"]) != served:
            problems.append(f"stub reply classes {stub_delta['classes']} != table {dict(served)}")
        for index, (outcome, kind) in enumerate(zip(outcomes, classes)):
            got = "ok" if outcome.ok else {
                "missing-trajectory": "missing", "unexpected-format": "format", "severe-deviation": "severe",
            }[outcome.failure.value]
            if got != inputs.EXPECTED_OUTCOME[kind]:
                problems.append(f"window {index}: {kind} reply parsed as {got}")
        return problems

    def run_pass(self, d: Path) -> PassResult:
        result = PassResult(windows=len(self.windows), operations=len(self.windows))
        before = self.stub.stats()
        outcomes, report = self.forecast(self.windows, result)
        result.stub = delta = self.stub.delta(before)
        # The stub's sleeps are waiting the benchmark imposes, spread over the clients.
        result.forecast.wait = delta["slept_s"] / self.config.max_in_flight
        result.wall.wait += result.forecast.wait
        if report is None:
            return result
        result.problems += self.check(outcomes, self.oracle["classes"], delta)
        counts = report.to_dict()["counts"]
        want = self.oracle["outcomes"]
        expected_counts = {
            "evaluated": want["ok"], "failed_missing": want["missing"],
            "failed_format": want["format"], "excluded_severe": want["severe"],
        }
        if counts != expected_counts:
            result.problems.append(f"report counts {counts} != stub oracle {expected_counts}")
        result.problems += compare_attributes(
            report.to_dict()["attributes"], self.oracle["attributes"], ENDPOINT_REL_TOLERANCE, 0.0, "stub oracle"
        )
        report.mean_latency_s = None
        text = self.fc.evaluation.emit_report(report, self.fc.evaluation.ReportFormat.JSON)
        result.digests = {"report.json": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        if self.baseline_digest is None:
            self.baseline_digest = result.digests["report.json"]
        elif result.digests["report.json"] != self.baseline_digest:
            result.problems.append("report differs from the first pass")
        recorded = self.expected.get(str(self.seed), {}).get("digests")
        if recorded and recorded != result.digests:
            result.problems.append(f"seed {self.seed}: report sha256 differs from the recorded one")
        return result

    def warm_up(self, work: Path, record: dict | None) -> tuple[list[str], dict]:
        """A few requests through the same path, checked against the stub oracle."""
        windows = self.windows[:ENDPOINT_WARMUP_WINDOWS]
        result = PassResult(windows=len(windows), operations=len(windows))
        before = self.stub.stats()
        outcomes, _ = self.forecast(windows, result)
        if outcomes is None:
            return result.problems, {}
        return self.check(outcomes, self.oracle["classes"][: len(windows)], self.stub.delta(before)), {}

    def record_of(self, result: PassResult) -> dict:
        return {"digests": result.digests}


class StubProcess:
    """The stub server in its own process; always stopped by ``close``."""

    def __init__(self, table: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_server.py")), str(table)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def delta(self, before: dict) -> dict:
        after = self.stats()
        classes = Counter(after["classes"])
        classes.subtract(before["classes"])
        return {
            "connections": after["connections"] - before["connections"],
            "requests": after["requests"] - before["requests"],
            "unknown": after["unknown"] - before["unknown"],
            "slept_s": after["slept_s"] - before["slept_s"],
            "classes": {k: v for k, v in classes.items() if v},
        }

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
