"""Command-line pipeline: synth, ingest, sample, prompt, predict, eval.

Stages communicate through files (CSV for trajectories, JSON Lines for
windows, datasets, and predictions), so each stage is independently
re-runnable and testable. Flags win over the optional JSON config file,
which wins over built-in defaults; the fully resolved configuration is
logged at the start of every run.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from . import evaluation, ingest, llm, prompts, synth, windowing
from .domain import round_waypoint
from .predictors import (
    LstmParams,
    TrainConfig,
    lstm_predict,
    lstm_train,
    predict_kinematic,
    predict_persistence,
)

logger = logging.getLogger(__name__)

DEFAULTS: dict[str, dict] = {
    "synth": {"flights": 20, "seed": 0, "manifest": None},
    "ingest": {"strict": False},
    "sample": {"horizon": 1, "stride": None, "allow_any_horizon": False},
    "prompt": {"inference": False},
    "predict": {
        "backend": "mock",
        "mock_behavior": "kinematic",
        "base_url": None,
        "model": None,
        "temperature": 0.0,
        "max_tokens": 512,
        "timeout": 30.0,
        "retries": 2,
        "model_file": None,
    },
    "train-lstm": {"epochs": 30, "batch_size": 4, "lr": 2e-4, "seed": 0, "hidden": 32},
    "eval": {"model": None, "few_shot": None, "seed": 0, "no_latency": False},
    "report": {"format": "table", "out": None},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flightcast", description="Flight trajectory prediction pipeline"
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ADS-B corpus")
    p.add_argument("--flights", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="spec manifest path (default <out>.manifest.json)")

    p = sub.add_parser("ingest", help="clean and minute-aggregate raw ADS-B CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", default=None)

    p = sub.add_parser("sample", help="slice trajectories into windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--allow-any-horizon", action="store_true", default=None)

    p = sub.add_parser("prompt", help="serialize windows into a prompt dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--with-assistant", dest="inference", action="store_false",
        help="include targets as the assistant turn (fine-tuning records)",
    )
    group.add_argument(
        "--inference", dest="inference", action="store_true",
        help="leave the assistant turn empty",
    )
    p.set_defaults(inference=None)

    p = sub.add_parser("predict", help="produce completions for windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--backend", choices=["endpoint", "mock", "persistence", "kinematic", "lstm"]
    )
    p.add_argument("--mock-behavior", choices=[b.value for b in llm.MockBehavior])
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--retries", type=int)
    p.add_argument("--model-file", help="saved LSTM parameters (lstm backend)")

    p = sub.add_parser("train-lstm", help="train the LSTM baseline on windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int)

    p = sub.add_parser("eval", help="score predictions and emit reports")
    p.add_argument("--pred", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--model", help="override the model identifier in the report")
    p.add_argument("--few-shot", type=float, help="evaluate a seeded fraction of samples")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--no-latency", action="store_true", default=None,
        help="omit latency from emitted reports (for byte-level diffing)",
    )

    p = sub.add_parser("report", help="reformat a stored JSON report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=[f.value for f in evaluation.ReportFormat])
    p.add_argument("--out")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Apply precedence: explicit flags > config file > defaults."""
    resolved = dict(vars(args))
    config_path = resolved.pop("config", None)
    file_values = {}
    if config_path:
        file_values = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
    defaults = DEFAULTS.get(args.command, {})
    for key, value in resolved.items():
        if value is None:
            if key in file_values:
                resolved[key] = file_values[key]
            elif key in defaults:
                resolved[key] = defaults[key]
    logger.info("resolved config: %s", json.dumps(resolved, sort_keys=True, default=str))
    return resolved


# --- Stage implementations ---------------------------------------------------


def _cmd_synth(cfg: dict) -> int:
    records, specs = synth.generate_corpus(cfg["flights"], cfg["seed"])
    ingest.write_records_csv(records, cfg["out"])
    manifest = cfg["manifest"] or cfg["out"] + ".manifest.json"
    synth.write_manifest(specs, manifest)
    logger.info("wrote %d records for %d flights to %s", len(records), len(specs), cfg["out"])
    return 0


def _cmd_ingest(cfg: dict) -> int:
    records = ingest.read_adsb_csv(cfg["input"], strict=cfg["strict"])
    result = ingest.clean_trajectories(records)
    aggregated = [ingest.aggregate_minutes(t) for t in result.trajectories]
    ingest.write_trajectories_csv(aggregated, cfg["out"])
    print(json.dumps({"cleaning": result.summary()}), file=sys.stderr)
    return 0


def _cmd_sample(cfg: dict) -> int:
    records = ingest.read_adsb_csv(cfg["input"])
    result = ingest.clean_trajectories(records)
    windows = []
    for traj in result.trajectories:
        windows.extend(
            windowing.sample_windows(
                traj,
                cfg["horizon"],
                cfg["stride"],
                allow_any_horizon=cfg["allow_any_horizon"],
            )
        )
    windowing.write_windows_jsonl(windows, cfg["out"])
    logger.info("wrote %d windows to %s", len(windows), cfg["out"])
    return 0


def _cmd_prompt(cfg: dict) -> int:
    windows = windowing.read_windows_jsonl(cfg["input"])
    records = [prompts.build_prompt(w, include_assistant=not cfg["inference"]) for w in windows]
    manifest = prompts.emit_dataset(records, cfg["out"])
    logger.info("wrote %d prompt records to %s (sha256 %s)", manifest["records"], cfg["out"], manifest["sha256"])
    return 0


def _local_forecast(cfg: dict):
    """The batched forecaster of a local backend: windows to rounded waypoints per window."""
    backend = cfg["backend"]
    if backend == "lstm":
        if not cfg["model_file"]:
            raise ValueError("lstm backend requires --model-file")
        params = LstmParams.load(cfg["model_file"])
        return lambda windows: lstm_predict(params, windows)
    if backend == "persistence":
        predict = predict_persistence
    elif backend == "kinematic":
        predict = predict_kinematic
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return lambda windows: [[round_waypoint(p) for p in predict(w, w.horizon)] for w in windows]


def _predict_rows(cfg: dict, windows: list[windowing.Window]) -> list[dict]:
    backend = cfg["backend"]
    rows = []

    if backend == "endpoint":
        if not cfg["base_url"] or not cfg["model"]:
            raise ValueError("endpoint backend requires --base-url and --model")
        endpoint = llm.EndpointConfig(
            base_url=cfg["base_url"],
            model=cfg["model"],
            temperature=cfg["temperature"],
            max_tokens=cfg["max_tokens"],
            timeout_s=cfg["timeout"],
            retries=cfg["retries"],
        )
        prompt_records = [prompts.build_prompt(w, include_assistant=False) for w in windows]
        results = llm.complete_many(prompt_records, endpoint)
        model_id = cfg["model"]
        completions = [(r.text, r.latency_s) for r in results]
    elif backend == "mock":
        behavior = llm.MockBehavior(cfg["mock_behavior"])
        completions = []
        for window in windows:
            record = prompts.build_prompt(window, include_assistant=False)
            result = llm.mock_complete(record, behavior)
            completions.append((result.text, result.latency_s))
        model_id = f"mock-{behavior.value}"
    else:
        forecast = _local_forecast(cfg)
        start = time.perf_counter()
        predicted = forecast(windows)
        # One call forecasts the whole file; each row gets its share of the time.
        latency = (time.perf_counter() - start) / max(len(windows), 1)
        completions = [(prompts.serialize_waypoints(p), latency) for p in predicted]
        model_id = backend

    for window, (text, latency) in zip(windows, completions):
        row = windowing.window_to_obj(window)
        row.update(
            completion=text,
            latency_s=latency,
            backend=backend,
            model=model_id,
            template_version=prompts.TEMPLATE_VERSION,
        )
        rows.append(row)
    return rows


def _cmd_predict(cfg: dict) -> int:
    windows = windowing.read_windows_jsonl(cfg["input"])
    rows = _predict_rows(cfg, windows)
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    logger.info("wrote %d predictions to %s", len(rows), cfg["out"])
    return 0


def _cmd_train_lstm(cfg: dict) -> int:
    windows = windowing.read_windows_jsonl(cfg["input"])
    train_cfg = TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        seed=cfg["seed"],
        hidden_dim=cfg["hidden"],
    )
    params = lstm_train(windows, train_cfg)
    params.save(cfg["out"])
    logger.info("saved model to %s", cfg["out"])
    return 0


def _cmd_eval(cfg: dict) -> int:
    with open(cfg["pred"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if cfg["few_shot"] is not None:
        rows = evaluation.few_shot_split(rows, cfg["few_shot"], cfg["seed"])

    samples = []
    for row in rows:
        window = windowing.window_from_obj(row)
        outcome = prompts.parse_completion(row["completion"], window.horizon, window)
        samples.append((window, outcome, row["latency_s"]))

    model_id = cfg["model"] or (rows[0]["model"] if rows else "")
    template = rows[0].get("template_version", "") if rows else ""
    report = evaluation.evaluate(samples, model=model_id, template_version=template)
    if cfg["no_latency"]:
        report.mean_latency_s = None

    prefix = Path(cfg["out_prefix"])
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for fmt, suffix in ((evaluation.ReportFormat.JSON, ".json"),
                        (evaluation.ReportFormat.CSV, ".csv"),
                        (evaluation.ReportFormat.TABLE, ".txt")):
        Path(str(prefix) + suffix).write_text(evaluation.emit_report(report, fmt), encoding="utf-8")
    print(evaluation.emit_report(report, evaluation.ReportFormat.TABLE), end="")
    if report.evaluated == 0:
        logger.error("no samples were successfully evaluated")
        return 1
    return 0


def _cmd_report(cfg: dict) -> int:
    report = evaluation.MetricsReport.from_dict(
        json.loads(Path(cfg["input"]).read_text(encoding="utf-8"))
    )
    text = evaluation.emit_report(report, cfg["format"])
    if cfg["out"]:
        Path(cfg["out"]).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "sample": _cmd_sample,
    "prompt": _cmd_prompt,
    "predict": _cmd_predict,
    "train-lstm": _cmd_train_lstm,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except Exception as exc:  # argparse exits separately with code 2
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
