"""Command-line pipeline: synth, ingest, sample, prompt, predict, eval.

Stages communicate through files (CSV for trajectories, JSON Lines for
windows, datasets, and predictions), so each stage is independently
re-runnable and testable. Each option declares its own default on the
parser. The optional JSON config file's values become the command's
defaults, so flags still win over them; the fully resolved configuration
is logged at the start of every run.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import time
from pathlib import Path

from . import evaluation, ingest, llm, prompts, synth, windowing
from .domain import round_attributes
from .predictors import (
    LstmParams,
    TrainConfig,
    forecast_windows,
    lstm_predict,
    lstm_train,
    predict_kinematic,
    predict_persistence,
)

logger = logging.getLogger(__name__)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flightcast", description="Flight trajectory prediction pipeline"
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ADS-B corpus")
    p.add_argument("--flights", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="spec manifest path (default <out>.manifest.json)")

    p = sub.add_parser("ingest", help="clean and minute-aggregate raw ADS-B CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("sample", help="slice trajectories into windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--stride", type=int)

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
    p.set_defaults(inference=False)

    p = sub.add_parser("predict", help="produce completions for windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--backend", choices=["endpoint", "mock", "persistence", "kinematic", "lstm"], default="mock"
    )
    p.add_argument("--mock-behavior", choices=[b.value for b in llm.MockBehavior], default="kinematic")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=512)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--model-file", help="saved LSTM parameters (lstm backend)")

    p = sub.add_parser("train-lstm", help="train the LSTM baseline on windows")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=32)

    p = sub.add_parser("eval", help="score predictions and emit reports")
    p.add_argument("--pred", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--model", help="override the model identifier in the report")
    p.add_argument("--few-shot", type=float, help="evaluate a seeded fraction of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-latency", action="store_true",
        help="omit latency from emitted reports (for byte-level diffing)",
    )

    p = sub.add_parser("report", help="reformat a stored JSON report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=[f.value for f in evaluation.ReportFormat], default="table")
    p.add_argument("--out")
    return parser


def _config_value(action: argparse.Action, value):
    """A config-file value: true or false for a flag, else read as if its text had been given to the option."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"{action.dest} in config file must be true or false, not {value!r}")
    elif value is not None:
        convert = action.type or str
        try:
            value = convert(str(value))
        except ValueError:
            raise ValueError(
                f"invalid {convert.__name__} value for {action.dest} in config file: {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"unknown {action.dest} {value!r} in config file"
                         f" (choose from {', '.join(map(str, action.choices))})")
    return value


def _with_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str] | None
) -> argparse.Namespace:
    """Parse argv again with the config file's values as the command's defaults, so flags still win."""
    file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(file_values, dict):
        raise ValueError("config file must hold a JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # One config file may serve every stage, so a key is known if any stage has it.
    known = {a.dest for p in commands.choices.values() for a in p._actions if a.dest != "help"}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise ValueError(f"unknown key(s) in config file, defined by no option of any command: "
                         f"{', '.join(map(repr, unknown))}")
    command = commands.choices[args.command]
    actions = {a.dest: a for a in command._actions}
    command.set_defaults(**{key: _config_value(actions[key], value)
                            for key, value in file_values.items() if key in actions})
    return parser.parse_args(argv)


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
        windows.extend(windowing.sample_windows(traj, cfg["horizon"], cfg["stride"]))
    windowing.write_windows_jsonl(windows, cfg["out"])
    logger.info("wrote %d windows to %s", len(windows), cfg["out"])
    return 0


def _cmd_prompt(cfg: dict) -> int:
    windows = windowing.read_windows_jsonl(cfg["input"])
    records = [prompts.build_prompt(w, include_assistant=not cfg["inference"]) for w in windows]
    manifest = prompts.emit_dataset(records, cfg["out"])
    logger.info("wrote %d prompt records to %s (sha256 %s)", manifest["records"], cfg["out"], manifest["sha256"])
    return 0


_LOCAL_PREDICTORS = {"persistence": predict_persistence, "kinematic": predict_kinematic}


def _local_predict(cfg: dict):
    """The ``predict(inputs, horizon)`` of a local backend, its forecasts rounded to canonical precision."""
    backend = cfg["backend"]
    if backend == "lstm":
        if not cfg["model_file"]:
            raise ValueError("lstm backend requires --model-file")
        return functools.partial(lstm_predict, LstmParams.load(cfg["model_file"]))
    predict = _LOCAL_PREDICTORS[backend]
    return lambda inputs, horizon: round_attributes(predict(inputs, horizon))


def _predict_rows(cfg: dict, rows: list[tuple[str, windowing.Window]]) -> list[str]:
    windows = [window for _, window in rows]
    backend = cfg["backend"]
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
        results = llm.complete_many([prompts.build_prompt(w, include_assistant=False) for w in windows], endpoint)
        model_id = cfg["model"]
    elif backend == "mock":
        behavior = llm.MockBehavior(cfg["mock_behavior"])
        results = llm.mock_complete(windows, behavior)
        model_id = f"mock-{behavior.value}"
    else:
        predict = _local_predict(cfg)
        start = time.perf_counter()
        predicted = forecast_windows(predict, windows)
        # One call forecasts the whole file; each row gets its share of the time.
        latency = (time.perf_counter() - start) / max(len(windows), 1)
        results = [llm.CompletionResult(prompts.serialize_values(p), latency, 1) for p in predicted]
        model_id = backend

    return [
        windowing.row_with(text, window, {
            "completion": result.text, "latency_s": result.latency_s, "attempts": result.attempts,
            "backend": backend, "model": model_id, "template_version": prompts.TEMPLATE_VERSION,
        })
        for (text, window), result in zip(rows, results)
    ]


def _cmd_predict(cfg: dict) -> int:
    rows = _predict_rows(cfg, windowing.read_window_rows(cfg["input"]))
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        fh.writelines(row + "\n" for row in rows)
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


def _check_one_line(key: str, value) -> None:
    """Raise ValueError unless ``value`` is a string without CR or LF, as a report's one-line fields are."""
    if not isinstance(value, str):
        raise ValueError(f"{key} {value!r} is not a string")
    if "\r" in value or "\n" in value:
        raise ValueError(f"{key} {value!r} is not one line of text")


def _check_prediction(row: dict) -> None:
    """Raise ValueError unless the row has a completion, a latency_s that is a finite number >= 0,
    and a one-line string model and template_version if it names them.

    A completion that is not a string passes: it scores as an unexpected format.
    """
    for key in ("completion", "latency_s"):
        if key not in row:
            raise ValueError(f"missing {key!r}")
    latency = row["latency_s"]  # compared exactly: an int past the double range fails
    if isinstance(latency, bool) or not isinstance(latency, (int, float)) or not 0 <= latency <= sys.float_info.max:
        raise ValueError(f"latency_s {latency!r} is not a finite number >= 0")
    for key in ("model", "template_version"):
        _check_one_line(key, row.get(key, ""))


def _cmd_eval(cfg: dict) -> int:
    _check_one_line("model", cfg["model"] or "")
    scorable, skipped = [], []
    for number, line in windowing.numbered_lines(cfg["pred"]):
        try:
            row = json.loads(line)
            window = windowing.window_from_obj(row)
            _check_prediction(row)
        except ValueError as exc:
            skipped.append(f"row {number}: {exc}")
        else:
            scorable.append((window, row))
    if skipped:
        logger.warning("skipped %d malformed row(s) (first: %s)", len(skipped), skipped[0])
    if cfg["few_shot"] is not None:
        scorable = evaluation.few_shot_split(scorable, cfg["few_shot"], cfg["seed"])

    samples = [
        (window, prompts.parse_completion(row["completion"], window.horizon, window), row["latency_s"])
        for window, row in scorable
    ]
    model_id = cfg["model"] or next((row["model"] for _, row in scorable if "model" in row), "")
    template = next((row["template_version"] for _, row in scorable if "template_version" in row), "")
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
    _check_one_line("model", report.model)
    _check_one_line("template_version", report.template_version)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _with_config(parser, args, argv)
        cfg = {key: value for key, value in vars(args).items() if key != "config"}
        logger.info("resolved config: %s", json.dumps(cfg, sort_keys=True))
        return _COMMANDS[args.command](cfg)
    except Exception as exc:  # argparse exits separately with code 2
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
