"""The CLI stages end to end on the shared corpus, each check run in process through ``cli.main``.

The corpus is ``pipeline_dir``: 6 synthetic flights at seed 7, ingested and cut
into horizon-4 windows. Every test writes under its own ``tmp_path``.
"""

import csv
import io
import json

import pytest

from conftest import run


@pytest.fixture(scope="module")
def mock_run(pipeline_dir, tmp_path_factory):
    """predict --backend mock → eval on the shared windows, run once for the module."""
    work = tmp_path_factory.mktemp("mock")
    assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", work / "pred-mock.jsonl",
               "--backend", "mock") == 0
    assert run("eval", "--pred", work / "pred-mock.jsonl", "--out-prefix", work / "report-mock") == 0
    return work


def write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_raw_csv_is_csv_writers_rendering_of_its_own_cells(pipeline_dir):
    raw = (pipeline_dir / "raw.csv").read_bytes()
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    assert rewritten.getvalue().encode("utf-8") == raw


def test_ingest_skips_a_short_and_a_long_row_and_strict_exits_1(pipeline_dir, tmp_path, caplog):
    raw = (pipeline_dir / "raw.csv").read_text(encoding="utf-8")
    row = raw.splitlines()[1]
    widths = tmp_path / "raw-widths.csv"
    widths.write_text(raw + row.rsplit(",", 1)[0] + "\n" + row + ",extra\n", encoding="utf-8")
    assert run("ingest", "--in", widths, "--out", tmp_path / "clean.csv") == 0
    assert "skipped 2 row(s) whose cell count differs from the header's 8" in caplog.text
    assert (tmp_path / "clean.csv").read_bytes() == (pipeline_dir / "clean.csv").read_bytes()
    caplog.clear()
    assert run("ingest", "--in", widths, "--out", tmp_path / "clean-strict.csv", "--strict") == 1
    assert "expected 8 cells" in caplog.text


def test_ingest_drops_the_flights_of_a_nan_and_a_1e5_cell_and_strict_names_the_first(pipeline_dir, tmp_path,
                                                                                     capsys, caplog):
    # A NaN altitude in one flight's first row and a 1e5 velocity in another's: only those two cells
    # are missing, so ingest drops the two flights as incomplete and keeps the rest as they were.
    with open(pipeline_dir / "raw.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    flights = sorted({row[2] for row in rows})
    edits = {flights[1]: ("altitude", "NaN"), flights[3]: ("velocity", "1e5")}
    first = {}
    for number, row in enumerate(rows, start=2):
        if row[2] in edits and row[2] not in first:
            first[row[2]] = number
            column, text = edits[row[2]]
            row[header.index(column)] = text
    write_csv(tmp_path / "raw-bad.csv", [header, *rows])
    write_csv(tmp_path / "raw-without.csv", [header, *(row for row in rows if row[2] not in edits)])
    capsys.readouterr()
    assert run("ingest", "--in", tmp_path / "raw-bad.csv", "--out", tmp_path / "clean-bad.csv") == 0
    assert '"incomplete": 2' in capsys.readouterr().err
    assert run("ingest", "--in", tmp_path / "raw-without.csv", "--out", tmp_path / "clean-without.csv") == 0
    assert (tmp_path / "clean-bad.csv").read_bytes() == (tmp_path / "clean-without.csv").read_bytes()
    name = min(edits, key=first.get)
    column, text = edits[name]
    assert run("ingest", "--in", tmp_path / "raw-bad.csv", "--out", tmp_path / "clean-strict.csv", "--strict") == 1
    assert f"malformed row (row {first[name]}): non-numeric {column} cell {text!r}" in caplog.text


def test_train_lstm_twice_with_a_partial_last_batch_writes_the_same_model_bytes(pipeline_dir, tmp_path):
    windows = pipeline_dir / "windows.jsonl"
    # The batch size must not divide the window count, so that each epoch ends on a partial batch.
    assert len(windows.read_text(encoding="utf-8").splitlines()) % 4 != 0
    for model in ("model-1.json", "model-2.json"):
        assert run("train-lstm", "--in", windows, "--out", tmp_path / model,
                   "--epochs", 2, "--hidden", 4, "--batch-size", 4) == 0
    assert (tmp_path / "model-1.json").read_bytes() == (tmp_path / "model-2.json").read_bytes()


def test_report_csv_re_renders_the_mock_report_to_the_bytes_eval_wrote(mock_run, tmp_path):
    assert run("report", "--in", mock_run / "report-mock.json", "--format", "csv", "--out", tmp_path / "again.csv") == 0
    assert (tmp_path / "again.csv").read_bytes() == (mock_run / "report-mock.csv").read_bytes()


def test_sample_predict_and_eval_from_a_config_file_match_the_flag_driven_runs(pipeline_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text('{"horizon": 4, "backend": "kinematic", "no_latency": true}\n')
    windows = pipeline_dir / "windows.jsonl"
    assert run("--config", config, "sample", "--in", pipeline_dir / "clean.csv", "--out", tmp_path / "w.jsonl") == 0
    assert (tmp_path / "w.jsonl").read_bytes() == windows.read_bytes()

    assert run("predict", "--in", windows, "--out", tmp_path / "pred-flags.jsonl", "--backend", "kinematic") == 0
    assert run("--config", config, "predict", "--in", windows, "--out", tmp_path / "pred-config.jsonl") == 0

    def without_latency(name: str) -> list[str]:
        # latency_s is measured afresh on every run, so it is left out of the comparison.
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        return [json.dumps({k: v for k, v in json.loads(line).items() if k != "latency_s"}) for line in lines]

    assert without_latency("pred-config.jsonl") == without_latency("pred-flags.jsonl")
    assert run("--config", config, "eval", "--pred", tmp_path / "pred-config.jsonl",
               "--out-prefix", tmp_path / "report-config") == 0
    assert run("eval", "--pred", tmp_path / "pred-flags.jsonl", "--out-prefix", tmp_path / "report-flags",
               "--no-latency") == 0
    assert (tmp_path / "report-config.json").read_bytes() == (tmp_path / "report-flags.json").read_bytes()


def test_a_row_cut_short_costs_eval_that_sample_not_the_run(mock_run, tmp_path):
    # As a crashed writer leaves it: half of the first row, with its line end, appended.
    text = (mock_run / "pred-mock.jsonl").read_text(encoding="utf-8")
    line = text.splitlines(keepends=True)[0]
    (tmp_path / "pred-cut.jsonl").write_text(text + line[: len(line) // 2] + "\n", encoding="utf-8")
    assert run("eval", "--pred", tmp_path / "pred-cut.jsonl", "--out-prefix", tmp_path / "report-cut") == 0
    assert (tmp_path / "report-cut.json").read_bytes() == (mock_run / "report-mock.json").read_bytes()


def test_prompt_on_a_windows_file_with_a_broken_row_3_exits_1_naming_it(pipeline_dir, tmp_path, caplog):
    lines = (pipeline_dir / "windows.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:100] + "\n"
    (tmp_path / "windows-broken.jsonl").write_text("".join(lines), encoding="utf-8")
    assert run("prompt", "--in", tmp_path / "windows-broken.jsonl", "--out", tmp_path / "prompts.jsonl") == 1
    assert "row 3:" in caplog.text


def test_predict_on_compact_json_windows_writes_the_same_bytes(pipeline_dir, mock_run, tmp_path):
    # Compact rows take predict's re-encoding path, not its reuse of each row's text.
    rows = (pipeline_dir / "windows.jsonl").read_text(encoding="utf-8").splitlines()
    compact = "".join(json.dumps(json.loads(row), separators=(",", ":")) + "\n" for row in rows)
    (tmp_path / "windows-compact.jsonl").write_text(compact, encoding="utf-8")
    assert run("predict", "--in", tmp_path / "windows-compact.jsonl", "--out", tmp_path / "pred.jsonl",
               "--backend", "mock") == 0
    assert (tmp_path / "pred.jsonl").read_bytes() == (mock_run / "pred-mock.jsonl").read_bytes()


@pytest.mark.parametrize("behavior, count", [("empty", "failed_missing"), ("garbled", "failed_format"),
                                             ("sign-flip", "excluded_severe")])
def test_each_scripted_mock_failure_lands_every_sample_in_its_own_count(pipeline_dir, tmp_path, behavior, count):
    pred = tmp_path / f"pred-{behavior}.jsonl"
    assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
               "--backend", "mock", "--mock-behavior", behavior) == 0
    # No sample is evaluated, so eval exits 1.
    assert run("eval", "--pred", pred, "--out-prefix", tmp_path / f"report-{behavior}") == 1
    counts = json.loads((tmp_path / f"report-{behavior}.json").read_text(encoding="utf-8"))["counts"]
    assert counts[count] == sum(counts.values()) > 0


@pytest.mark.parametrize("behavior", ["kinematic", "empty", "garbled", "sign-flip"])
def test_mock_rows_are_untimed_and_one_attempt(pipeline_dir, tmp_path, behavior):
    pred = tmp_path / "pred.jsonl"
    assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
               "--backend", "mock", "--mock-behavior", behavior) == 0
    rows = [json.loads(line) for line in pred.read_text(encoding="utf-8").splitlines()]
    assert rows
    assert all(row["latency_s"] == 0.0 and row["attempts"] == 1 for row in rows)
