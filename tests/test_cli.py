import codecs
import csv
import hashlib
import json
import logging
import re

import pytest

from flightcast.cli import main
from flightcast.evaluation import MetricsReport, ReportFormat, emit_report
from flightcast.llm import mock_complete
from flightcast.prompts import TEMPLATE_VERSION
from flightcast.windowing import read_windows_jsonl, window_from_obj, window_to_obj

from conftest import json_text, read_jsonl


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def pipeline_dir(tmp_path):
    """Raw corpus, aggregated CSV, and horizon-4 windows, built once."""
    raw = tmp_path / "raw.csv"
    clean = tmp_path / "clean.csv"
    windows = tmp_path / "windows.jsonl"
    assert run("synth", "--flights", 6, "--seed", 7, "--out", raw) == 0
    assert run("ingest", "--in", raw, "--out", clean) == 0
    assert run("sample", "--in", clean, "--horizon", 4, "--out", windows) == 0
    return tmp_path


def as_array(row: dict) -> list:
    return list(row.values())


def without_input_and_callsign(row: dict) -> dict:
    return {key: value for key, value in row.items() if key not in ("input", "callsign")}


def truncated(row: dict) -> str:
    return '{"callsign": "X", "inp'


def jsonl_text(rows) -> str:
    """One line per row: a string is the line's text, anything else is written by json.dumps."""
    return "".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows)


#: Ways to write a windows row, json.dumps's own first; some also change its window's cells or callsign.
RESPELLINGS = (
    json.dumps,
    lambda row: json.dumps(row, separators=(",", ":")),
    lambda row: json.dumps({key: value for key, value in row.items() if key != "horizon"}),
    lambda row: json_text(row, "%.17g".__mod__),
    lambda row: json_text(row, "{:.7f}".format),
    lambda row: json.dumps({**row, "note": "re-spelled"}),
    lambda row: json.dumps({**row, "callsign": "\u00c4B-" + row["callsign"]}),
    lambda row: json.dumps({**row, "callsign": "\u00c4B-" + row["callsign"]}, ensure_ascii=False),
    lambda row: json.dumps({**row, "callsign": 'say "hi"\\'}),
    lambda row: json.dumps(dict(reversed(row.items()))),
    lambda row: " \t" + json.dumps(row) + "  ",
    lambda row: json.dumps({**row, "input": [[r[0], *map(round, r[1:])] for r in row["input"]]}),
    lambda row: json.dumps({**row, "target": [[r[0], 5e-05, *r[2:]] for r in row["target"]]}),
)


class TestStages:
    def test_synth_bytes_are_pinned(self, tmp_path):
        raw = tmp_path / "raw.csv"
        assert run("synth", "--flights", 6, "--seed", 0, "--out", raw) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (raw, tmp_path / "raw.csv.manifest.json")]
        assert digests == [
            "0e9757da4c13f616a9d6244320a56ec7d13bb6a56e9a69c116ba4dd39429c6ba",
            "e550eef1f4fe280890689bb7237ffd8a10fd0185b914e709da262c0a1449d13f",
        ]

    def test_synth_ingest_sample_yields_windows(self, pipeline_dir):
        windows = read_windows_jsonl(pipeline_dir / "windows.jsonl")
        assert windows
        assert all(w.horizon == 4 for w in windows)
        assert (pipeline_dir / "raw.csv.manifest.json").exists()

    def test_ingest_reads_a_file_that_starts_with_a_byte_order_mark(self, pipeline_dir):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 BOM.
        bom = pipeline_dir / "raw-bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + (pipeline_dir / "raw.csv").read_bytes())
        assert run("ingest", "--in", bom, "--out", pipeline_dir / "clean-bom.csv") == 0
        assert (pipeline_dir / "clean-bom.csv").read_bytes() == (pipeline_dir / "clean.csv").read_bytes()

    def test_prompt_dataset_modes(self, pipeline_dir):
        data = pipeline_dir / "tuning.jsonl"
        assert run("prompt", "--in", pipeline_dir / "windows.jsonl", "--out", data,
                   "--with-assistant") == 0
        first = json.loads(data.read_text().splitlines()[0])
        assert first["assistant"]

        inference = pipeline_dir / "inference.jsonl"
        assert run("prompt", "--in", pipeline_dir / "windows.jsonl", "--out", inference,
                   "--inference") == 0
        first = json.loads(inference.read_text().splitlines()[0])
        assert first["assistant"] == ""
        manifest = json.loads((pipeline_dir / "tuning.jsonl.manifest.json").read_text())
        assert manifest["horizon"] == 4

    def test_predict_mock_and_eval(self, pipeline_dir):
        pred = pipeline_dir / "pred.jsonl"
        out = pipeline_dir / "reports" / "mock"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
                   "--backend", "mock") == 0
        assert {row["attempts"] for row in read_jsonl(pred)} == {1}
        assert run("eval", "--pred", pred, "--out-prefix", out) == 0
        report = MetricsReport.from_dict(json.loads((out.parent / "mock.json").read_text()))
        assert report.evaluated > 0
        assert report.model == "mock-kinematic"
        assert (out.parent / "mock.csv").exists()
        assert (out.parent / "mock.txt").exists()

    def test_predict_writes_each_window_as_json_writes_it_whatever_its_spelling(self, pipeline_dir, tmp_path):
        rows = list(read_jsonl(pipeline_dir / "windows.jsonl"))
        texts = [RESPELLINGS[k % len(RESPELLINGS)](row) for k, row in enumerate(rows)]
        windows = tmp_path / "respelled.jsonl"
        windows.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", windows, "--out", pred, "--backend", "mock") == 0
        read = [window_from_obj(json.loads(text)) for text in texts]
        expected = [
            json.dumps({**window_to_obj(window), "completion": result.text, "latency_s": result.latency_s,
                        "attempts": result.attempts, "backend": "mock", "model": "mock-kinematic",
                        "template_version": TEMPLATE_VERSION})
            for window, result in zip(read, mock_complete(read))
        ]
        assert len(rows) > len(RESPELLINGS)
        assert pred.read_text(encoding="utf-8").splitlines() == expected

    def test_mock_empty_eval_counts_all_missing_and_fails(self, pipeline_dir):
        pred = pipeline_dir / "pred_empty.jsonl"
        out = pipeline_dir / "reports" / "empty"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
                   "--backend", "mock", "--mock-behavior", "empty") == 0
        total = len(pred.read_text().splitlines())
        assert run("eval", "--pred", pred, "--out-prefix", out) == 1  # zero evaluated
        report = MetricsReport.from_dict(json.loads((out.parent / "empty.json").read_text()))
        assert report.failed_missing == total
        assert report.evaluated == 0

    def test_local_backends(self, pipeline_dir):
        for backend in ("persistence", "kinematic"):
            pred = pipeline_dir / f"pred_{backend}.jsonl"
            out = pipeline_dir / "reports" / backend
            assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
                       "--backend", backend) == 0
            assert {row["attempts"] for row in read_jsonl(pred)} == {1}
            assert run("eval", "--pred", pred, "--out-prefix", out) == 0

    @pytest.mark.parametrize("backend", ["mock", "persistence", "kinematic"])
    def test_predict_on_an_empty_windows_file_writes_an_empty_file(self, tmp_path, backend):
        windows = tmp_path / "windows.jsonl"
        windows.write_text("")
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", windows, "--out", pred, "--backend", backend) == 0
        assert pred.read_text() == ""

    def test_mock_and_kinematic_forecast_alike_at_mixed_horizons(self, pipeline_dir, tmp_path):
        # The mock reads each window back from its prompt text, the kinematic backend from its
        # columns; both forecast the whole file in one call, to its largest horizon.
        mixed = tmp_path / "mixed.jsonl"
        for horizon in (1, 8):
            assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", horizon,
                       "--out", tmp_path / f"windows-h{horizon}.jsonl") == 0
        mixed.write_text("".join(path.read_text() for path in (
            tmp_path / "windows-h1.jsonl", pipeline_dir / "windows.jsonl", tmp_path / "windows-h8.jsonl")))
        completions = {}
        for backend in ("mock", "kinematic"):
            pred = tmp_path / f"pred-{backend}.jsonl"
            assert run("predict", "--in", mixed, "--out", pred, "--backend", backend) == 0
            completions[backend] = [row["completion"] for row in read_jsonl(pred)]
        assert {c.count("\n") + 1 for c in completions["mock"]} == {1, 4, 8}
        assert completions["mock"] == completions["kinematic"]

    def test_train_and_predict_lstm(self, pipeline_dir, tmp_path):
        single = tmp_path / "win1.jsonl"
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 1,
                   "--stride", 17, "--out", single) == 0
        model = tmp_path / "model.json"
        assert run("train-lstm", "--in", single, "--out", model,
                   "--epochs", 2, "--hidden", 4, "--seed", 1) == 0
        pred = tmp_path / "pred_lstm.jsonl"
        assert run("predict", "--in", single, "--out", pred,
                   "--backend", "lstm", "--model-file", model) == 0
        assert {row["attempts"] for row in read_jsonl(pred)} == {1}
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0

    def test_non_finite_model_file_names_the_array(self, pipeline_dir, tmp_path, caplog):
        single = tmp_path / "win1.jsonl"
        model = tmp_path / "model.json"
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 1,
                   "--stride", 17, "--out", single) == 0
        assert run("train-lstm", "--in", single, "--out", model,
                   "--epochs", 1, "--hidden", 4, "--seed", 1) == 0
        obj = json.loads(model.read_text())
        obj["arrays"]["w_out"][0][0] = float("nan")
        model.write_text(json.dumps(obj))
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", tmp_path / "p.jsonl",
                   "--backend", "lstm", "--model-file", model) == 1
        assert "array 'w_out' holds a non-finite value" in caplog.text
        assert "input sequence" not in caplog.text

    def test_eval_excludes_a_reply_number_too_long_for_a_double(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        overflowing, good = list(read_jsonl(pred))[:2]
        first, *rest = overflowing["completion"].splitlines()
        overflowing["completion"] = "\n".join([first.rsplit(", ", 1)[0] + ", 1" + "0" * 400 + ")", *rest])
        pred.write_text("".join(json.dumps(row) + "\n" for row in (overflowing, good)))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
        assert (report.excluded_severe, report.evaluated) == (1, 1)

    def test_eval_skips_rows_whose_window_is_malformed(self, pipeline_dir, tmp_path, caplog):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        rows = list(read_jsonl(pred))
        good, empty, huge, nan, infinite, untargeted, unnamed, flat, fractional, boolean, gapped = rows[:11]
        true_cell, past_int64, late = rows[11:14]
        empty["target"] = []
        huge["input"][0][0] = 2**70
        nan["target"][1][1] = float("nan")
        infinite["input"][15][3] = float("inf")
        del untargeted["target"]
        del unnamed["callsign"]
        flat["target"][0] = 7
        fractional["input"] = [[60 * k + 0.7, *row[1:]] for k, row in enumerate(fractional["input"])]
        boolean["input"][0][0] = True
        for row in gapped["target"]:
            row[0] += 360
        true_cell["target"][1][3] = True  # an altitude float64 would read as 1.0
        past_int64["target"][0][3] = 2**64
        for row in late["input"] + late["target"]:
            row[0] += 2**70  # still 60 s apart
        # Rows that are not JSON: a row cut short, as a crashed writer leaves it, and plain text.
        cut, text = json.dumps(good)[:200], "{not json"
        rows = (good, empty, huge, nan, infinite, untargeted, unnamed, flat, fractional, boolean, gapped,
                list(good.values()), json.dumps("row"), true_cell, past_int64, late, cut, text)
        pred.write_text(jsonl_text(rows))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
        assert (report.horizon, report.evaluated, report.total_submitted) == (4, 1, 1)
        assert "skipped 17 malformed row(s) (first: row 2: window target is empty)" in caplog.text
        last_input = gapped["input"][-1][0]
        for bad, message in ((cut, "Expecting value: line 2 column 1 (char 201)"),
                             (text, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
                             (true_cell, "window holds a non-numeric cell (True)"),
                             (past_int64, "window holds integer cell 18446744073709551616 outside the int64 range"),
                             (late, f"window timestamp {late['input'][0][0]} outside the int64 range"),
                             (nan, "window holds a non-finite cell"),
                             (infinite, "window holds a non-finite cell"),
                             (untargeted, "window row lacks 'target'"),
                             (unnamed, "window row lacks 'callsign'"),
                             (flat, "window holds a waypoint row that is not an array of 6 cells"),
                             (fractional, "window timestamp 0.7 is not an integer"),
                             (boolean, "window timestamp True is not an integer"),
                             (gapped, f"window timestamps {last_input} and {last_input + 420} are not 60 s apart"),
                             (list(good.values()), "window row is not a JSON object (got list)"),
                             ({**good, "horizon": 8}, "window horizon 8 does not match its 4 target rows"),
                             ({**good, "horizon": True}, "window horizon True does not match its 4 target rows"),
                             *(({**good, "callsign": callsign}, f"window callsign {callsign!r} is not a string")
                               for callsign in (None, 5, ["a"], {"x": 1}))):
            pred.write_text(jsonl_text((good, bad)))
            caplog.clear()
            assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
            assert f"skipped 1 malformed row(s) (first: row 2: {message})" in caplog.text

    @pytest.mark.parametrize(
        "defect, message",
        [
            ({"latency_s": None}, "row 2: missing 'latency_s'"),
            ({"completion": None}, "row 2: missing 'completion'"),
            ({"latency_s": "fast"}, "row 2: latency_s 'fast' is not a finite number >= 0"),
            ({"model": 7}, "row 2: model 7 is not a string"),
            ({"template_version": ["v1"]}, "row 2: template_version ['v1'] is not a string"),
            ({"model": "a\rb"}, "row 2: model 'a\\rb' is not one line of text"),
            ({"template_version": "v1\n"}, "row 2: template_version 'v1\\n' is not one line of text"),
            pytest.param({"latency_s": 10**400}, f"row 2: latency_s {10**400} is not a finite number >= 0",
                         id="latency_s-past-the-double-range"),
        ],
    )
    def test_eval_skips_rows_without_a_usable_completion_or_latency(
        self, pipeline_dir, tmp_path, caplog, defect, message
    ):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        good, bad = list(read_jsonl(pred))[:2]
        for key, value in defect.items():
            if value is None:
                del bad[key]
            else:
                bad[key] = value
        pred.write_text("".join(json.dumps(row) + "\n" for row in (good, bad)))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
        assert (report.evaluated, report.total_submitted) == (1, 1)
        assert f"skipped 1 malformed row(s) (first: {message})" in caplog.text

    def test_eval_csv_quotes_a_model_name_holding_a_comma(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "kinematic") == 0
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep", "--model", "org,model-7b") == 0
        with open(tmp_path / "rep.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 7 and rows and all(len(row) == 7 for row in rows)
        assert {row[0] for row in rows} == {"org,model-7b"}
        assert run("report", "--in", tmp_path / "rep.json", "--format", "csv", "--out", tmp_path / "again.csv") == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "rep.csv").read_bytes()

    def test_eval_refuses_a_model_name_holding_a_line_break(self, pipeline_dir, tmp_path, caplog):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "kinematic") == 0
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "out" / "rep", "--model", "a\rb") == 1
        assert "model 'a\\rb' is not one line of text" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_report_refuses_a_saved_report_whose_model_holds_a_line_break(self, pipeline_dir, tmp_path, caplog):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "kinematic") == 0
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        saved = json.loads((tmp_path / "rep.json").read_text())
        for key in ("model", "template_version"):
            (tmp_path / "rep-cr.json").write_text(json.dumps({**saved, key: "a\rb"}))
            assert run("report", "--in", tmp_path / "rep-cr.json", "--format", "csv", "--out", tmp_path / "cr.csv") == 1
            assert f"{key} 'a\\rb' is not one line of text" in caplog.text
            assert not (tmp_path / "cr.csv").exists()

    def test_eval_mean_latency_stays_finite_where_the_sum_overflows(self, pipeline_dir, tmp_path):
        windows, pred = tmp_path / "windows-h3.jsonl", tmp_path / "pred.jsonl"
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 3, "--out", windows) == 0
        assert run("predict", "--in", windows, "--out", pred, "--backend", "kinematic") == 0
        rows = [{**row, "latency_s": 1.7e308} for row in list(read_jsonl(pred))[:2]]
        pred.write_text(jsonl_text(rows))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "rep.json").read_text(), parse_constant=refuse)
        assert (report["counts"]["evaluated"], report["mean_latency_s"]) == (2, 1.7e308)

    def test_eval_takes_the_model_from_the_first_row_that_names_one(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        first, second = list(read_jsonl(pred))[:2]
        del first["model"]

        def model_in_report(*extra) -> str:
            pred.write_text("".join(json.dumps(row) + "\n" for row in (first, second)))
            assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep", *extra) == 0
            report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
            assert report.evaluated == 2
            return report.model

        assert model_in_report() == "mock-kinematic"
        assert model_in_report("--model", "named") == "named"
        del second["model"]
        assert model_in_report() == ""

    def test_eval_takes_the_template_from_the_first_row_that_names_one(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        first, second = list(read_jsonl(pred))[:2]
        del first["template_version"]

        def template_in_report() -> str:
            pred.write_text("".join(json.dumps(row) + "\n" for row in (first, second)))
            assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
            assert "template=" + (second.get("template_version") or "-") in (tmp_path / "rep.txt").read_text()
            return MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text())).template_version

        assert template_in_report() == "v1"
        del second["template_version"]
        assert template_in_report() == ""

    def test_eval_scores_a_non_string_completion_as_unexpected_format(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock") == 0
        good, odd = list(read_jsonl(pred))[:2]
        odd["completion"] = 42
        pred.write_text("".join(json.dumps(row) + "\n" for row in (good, odd)))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
        assert (report.evaluated, report.failed_format, report.total_submitted) == (1, 1, 2)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ({"target": []}, "window target is empty"),
            ({"input": [[0, 1, 2, 3, 4, 5]] * 15}, "input holds 15 rows"),
            ({"target": [[0, 1, None, 3, 4, 5]] * 4}, "non-numeric cell"),
            ({"target": [[0, 1, float("nan"), 3, 4, 5]] * 4}, "non-finite cell"),
            ({"input": [[0, 1, 2, 3, float("inf"), 5]] * 16}, "non-finite cell"),
            (as_array, "window row is not a JSON object (got list)"),
            (without_input_and_callsign, "window row lacks 'callsign', 'input'"),
            ({"target": "(1, 2, 3, 4, 5)"}, "input and target must be arrays of waypoint rows"),
            ({"target": [[0, 1, 2, 3, 4, 5], None]}, "waypoint row that is not an array of 6 cells"),
            ({"input": [[0, 1, 2, 3, 4, 5]] * 15 + [[0, 1, 2, 3, 4]]}, "waypoint row that is not an array"),
            ({"input": [[60 * k + 0.7, 1, 2, 3, 4, 5] for k in range(16)]}, "window timestamp 0.7 is not an integer"),
            ({"input": [[True, 1, 2, 3, 4, 5]] + [[60 * k, 1, 2, 3, 4, 5] for k in range(1, 16)]},
             "window timestamp True is not an integer"),
            ({"input": [[60 * k, 1, 2, 3, 4, 5] for k in range(16)],
              "target": [[60 * k + 360, 1, 2, 3, 4, 5] for k in range(16, 20)]},
             "window timestamps 900 and 1320 are not 60 s apart"),
            ({"horizon": 8}, "window horizon 8 does not match its 4 target rows"),
            ({"horizon": "4"}, "window horizon '4' does not match its 4 target rows"),
            ({"callsign": None}, "window callsign None is not a string"),
            ({"callsign": 5}, "window callsign 5 is not a string"),
            ({"callsign": ["a"]}, "window callsign ['a'] is not a string"),
            ({"callsign": {"x": 1}}, "window callsign {'x': 1} is not a string"),
            ({"target": [[0, 1, 2, True, 4, 5]] * 4}, "window holds a non-numeric cell (True)"),
            ({"target": [[0, 1, 2, 2**64, 4, 5]] * 4}, "integer cell 18446744073709551616 outside the int64 range"),
            (truncated, "Invalid control character at: line 1 column 23 (char 22)"),
            ({"input": [[2**70 + 60 * k, 1, 2, 3, 4, 5] for k in range(16)],
              "target": [[2**70 + 60 * k, 1, 2, 3, 4, 5] for k in range(16, 20)]},
             f"window timestamp {2**70} outside the int64 range"),
        ],
    )
    def test_stages_reject_a_malformed_window(self, pipeline_dir, tmp_path, caplog, defect, message):
        rows = list(read_jsonl(pipeline_dir / "windows.jsonl"))
        rows[1] = defect(rows[1]) if callable(defect) else {**rows[1], **defect}
        windows = tmp_path / "bad.jsonl"
        windows.write_text("\n" + jsonl_text(rows))  # a blank line is not a row
        out = tmp_path / "out.jsonl"
        for stage in (("prompt",), ("predict", "--backend", "persistence"), ("train-lstm", "--epochs", 1)):
            caplog.clear()
            assert run(*stage, "--in", windows, "--out", out) == 1
            assert re.search(f"row 2: [^\n]*{re.escape(message)}", caplog.text)
        assert not out.exists()

    def test_eval_few_shot_deterministic(self, pipeline_dir):
        pred = pipeline_dir / "pred_fs.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
                   "--backend", "mock") == 0
        out_a = pipeline_dir / "fs_a"
        out_b = pipeline_dir / "fs_b"
        assert run("eval", "--pred", pred, "--out-prefix", out_a,
                   "--few-shot", 0.5, "--seed", 1) == 0
        assert run("eval", "--pred", pred, "--out-prefix", out_b,
                   "--few-shot", 0.5, "--seed", 1) == 0
        assert (pipeline_dir / "fs_a.json").read_bytes() == (pipeline_dir / "fs_b.json").read_bytes()

    def test_report_reformat(self, pipeline_dir, capsys):
        pred = pipeline_dir / "pred_r.jsonl"
        out = pipeline_dir / "rep_r"
        run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "mock")
        run("eval", "--pred", pred, "--out-prefix", out)
        capsys.readouterr()
        assert run("report", "--in", pipeline_dir / "rep_r.json", "--format", "csv") == 0
        text = capsys.readouterr().out
        assert text.startswith("model,horizon,phase,step,attribute,metric,value")
        json_text = (pipeline_dir / "rep_r.json").read_text()
        assert run("report", "--in", pipeline_dir / "rep_r.json", "--format", "json",
                   "--out", pipeline_dir / "again.json") == 0
        assert (pipeline_dir / "again.json").read_text() == json_text

    def test_report_json_round_trips_at_horizon_10(self, pipeline_dir, tmp_path):
        windows, pred = tmp_path / "w10.jsonl", tmp_path / "pred.jsonl"
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 10, "--out", windows) == 0
        assert run("predict", "--in", windows, "--out", pred, "--backend", "mock") == 0
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        text = (tmp_path / "rep.json").read_text()
        obj = json.loads(text)
        assert list(obj["per_step"]) == sorted(str(step) for step in range(1, 11))  # "1", "10", "2", ...
        report = MetricsReport.from_dict(obj)
        assert (report.horizon, list(report.per_step)) == (10, list(range(1, 11)))
        assert report.evaluated > 0
        assert emit_report(report, ReportFormat.JSON) == text
        # Re-rendered as CSV, the report lists steps 1..10 in order, as eval's own CSV does.
        assert run("report", "--in", tmp_path / "rep.json", "--format", "csv", "--out", tmp_path / "again.csv") == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "rep.csv").read_bytes()


class TestErrorsAndConfig:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run("frobnicate")
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("synth", "--does-not-exist", "--out", tmp_path / "x.csv")
        assert excinfo.value.code == 2

    def test_stage_error_exits_1(self, tmp_path):
        assert run("ingest", "--in", tmp_path / "missing.csv", "--out", tmp_path / "o.csv") == 1

    def test_timestamp_past_year_9999_counts_as_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading\n"
            "1727926166,2024-10-03 03:29:26,AB1,103.1,30.5,10000.0,900.0,90.0\n"
            "300000000000,2024-10-03 03:30:26,CD2,103.2,30.5,10000.0,900.0,90.0\n"
        )
        assert run("ingest", "--in", raw, "--out", tmp_path / "clean.csv") == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary == {"cleaning": {"kept": 1, "incomplete": 0, "invalid": 1, "duplicate": 0}}

    def test_timestamp_past_the_int_digit_limit_counts_as_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading\n"
            "1727926166,2024-10-03 03:29:26,AB1,103.1,30.5,10000.0,900.0,90.0\n"
            f"{'1' * 5000},2024-10-03 03:30:26,CD2,103.2,30.5,10000.0,900.0,90.0\n"
        )
        for strict in ((), ("--strict",)):
            assert run("ingest", "--in", raw, "--out", tmp_path / "clean.csv", *strict) == 0
            summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert summary == {"cleaning": {"kept": 1, "incomplete": 0, "invalid": 1, "duplicate": 0}}

    def test_overflowing_altitude_counts_as_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading\n"
            "1727926166,2024-10-03 03:29:26,AB1,103.1,30.5,10000.0,900.0,90.0\n"
            f"1727926166,2024-10-03 03:29:26,CD2,103.2,30.5,1{'0' * 400},900.0,90.0\n"
        )
        assert run("ingest", "--in", raw, "--out", tmp_path / "clean.csv") == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary == {"cleaning": {"kept": 1, "incomplete": 0, "invalid": 1, "duplicate": 0}}

    def test_prompt_of_mixed_horizons_exits_1(self, pipeline_dir, tmp_path, caplog):
        single = tmp_path / "win1.jsonl"
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 1, "--out", single) == 0
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(single.read_text() + (pipeline_dir / "windows.jsonl").read_text())
        assert run("prompt", "--in", mixed, "--out", tmp_path / "data.jsonl") == 1
        assert "records mix horizons: [1, 4]" in caplog.text
        assert not (tmp_path / "data.jsonl").exists()

    def test_unsupported_horizon_exits_1(self, tmp_path, caplog):
        raw, clean, out = tmp_path / "raw.csv", tmp_path / "clean.csv", tmp_path / "w.jsonl"
        run("synth", "--flights", 2, "--seed", 0, "--out", raw)
        run("ingest", "--in", raw, "--out", clean)
        assert run("sample", "--in", clean, "--horizon", 3, "--out", out) == 0
        windows = read_windows_jsonl(out)
        assert windows and {w.horizon for w in windows} == {3}
        out.unlink()
        assert run("sample", "--in", clean, "--horizon", 0, "--out", out) == 1
        assert "unsupported horizon 0: must be >= 1" in caplog.text
        assert not out.exists()

    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"flights": 2, "seed": 3}))
        out_file = tmp_path / "from_config.csv"
        assert run("--config", config, "synth", "--out", out_file) == 0
        manifest = json.loads((str(out_file) + ".manifest.json") and
                              (tmp_path / "from_config.csv.manifest.json").read_text())
        assert len(manifest) == 2
        assert manifest[0]["seed"] == 3

        out_file2 = tmp_path / "flag_wins.csv"
        assert run("--config", config, "synth", "--out", out_file2, "--flights", 4) == 0
        manifest2 = json.loads((tmp_path / "flag_wins.csv.manifest.json").read_text())
        assert len(manifest2) == 4

    def test_unknown_backend_from_config_exits_1(self, pipeline_dir, caplog):
        config = pipeline_dir / "config.json"
        config.write_text(json.dumps({"backend": "oracle"}))
        assert run("--config", config, "predict", "--in", pipeline_dir / "windows.jsonl",
                   "--out", pipeline_dir / "p.jsonl") == 1
        assert "unknown backend 'oracle'" in caplog.text

    def test_string_horizon_from_config_is_converted(self, pipeline_dir):
        config = pipeline_dir / "config.json"
        config.write_text(json.dumps({"horizon": "8", "stride": "30"}))
        from_config, from_flags = pipeline_dir / "w_config.jsonl", pipeline_dir / "w_flags.jsonl"
        assert run("--config", config, "sample", "--in", pipeline_dir / "clean.csv",
                   "--out", from_config) == 0
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--horizon", 8, "--stride", 30,
                   "--out", from_flags) == 0
        assert from_config.read_text() == from_flags.read_text()
        assert {w.horizon for w in read_windows_jsonl(from_config)} == {8}

    def test_string_seed_from_config_is_converted(self, pipeline_dir):
        pred = pipeline_dir / "pred_seed.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred,
                   "--backend", "mock") == 0
        config = pipeline_dir / "config.json"
        config.write_text(json.dumps({"seed": "3", "few_shot": "0.5"}))
        assert run("--config", config, "eval", "--pred", pred,
                   "--out-prefix", pipeline_dir / "from_config") == 0
        assert run("eval", "--pred", pred, "--seed", 3, "--few-shot", 0.5,
                   "--out-prefix", pipeline_dir / "from_flags") == 0
        assert ((pipeline_dir / "from_config.csv").read_text()
                == (pipeline_dir / "from_flags.csv").read_text())

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, caplog):
        config, out = tmp_path / "config.json", tmp_path / "w.jsonl"
        for value in ([["horizon", 4]], "horizon", None):
            config.write_text(json.dumps(value))
            caplog.clear()
            assert run("--config", config, "sample", "--in", tmp_path / "missing.csv", "--out", out) == 1
            assert "config file must hold a JSON object" in caplog.text
        assert not out.exists()

    def test_config_value_of_the_wrong_type_exits_1(self, pipeline_dir, caplog):
        config = pipeline_dir / "config.json"
        for value in ("four", 4.5, True):
            config.write_text(json.dumps({"horizon": value}))
            assert run("--config", config, "sample", "--in", pipeline_dir / "clean.csv",
                       "--out", pipeline_dir / "w.jsonl") == 1
            assert f"invalid int value for horizon in config file: {value!r}" in caplog.text

    def test_config_value_of_a_flag_must_be_true_or_false(self, pipeline_dir, tmp_path, caplog):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "kinematic") == 0
        config, out = tmp_path / "config.json", tmp_path / "out"
        flags = {
            "ingest": ("--in", pipeline_dir / "raw.csv", "--out", out),
            "prompt": ("--in", pipeline_dir / "windows.jsonl", "--out", out),
            "eval": ("--pred", pred, "--out-prefix", out),
        }
        for command, key, value in (("eval", "no_latency", "false"), ("ingest", "strict", "no"),
                                    ("prompt", "inference", 1), ("eval", "no_latency", None)):
            config.write_text(json.dumps({key: value}))
            caplog.clear()
            assert run("--config", config, command, *flags[command]) == 1
            assert f"{key} in config file must be true or false, not {value!r}" in caplog.text
            assert not list(tmp_path.glob("out*"))

    def test_config_value_of_a_text_option_is_its_text(self, pipeline_dir, tmp_path):
        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", pipeline_dir / "windows.jsonl", "--out", pred, "--backend", "kinematic") == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": 5}))
        assert run("--config", config, "eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        assert MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text())).model == "5"
        assert (tmp_path / "rep.csv").read_text().splitlines()[1].startswith("5,4,")

    def test_out_of_choices_backend_from_config_is_rejected_up_front(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": "oracle"}))
        # The missing input file is never opened: the config fails first.
        assert run("--config", config, "predict", "--in", tmp_path / "missing.jsonl",
                   "--out", tmp_path / "p.jsonl") == 1
        assert ("unknown backend 'oracle' in config file"
                " (choose from endpoint, mock, persistence, kinematic, lstm)") in caplog.text

    def test_config_value_is_checked_where_a_flag_overrides_it(self, pipeline_dir, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": "oracle"}))
        assert run("--config", config, "predict", "--in", pipeline_dir / "windows.jsonl",
                   "--out", tmp_path / "p.jsonl", "--backend", "kinematic") == 1
        assert "unknown backend 'oracle' in config file" in caplog.text
        assert not (tmp_path / "p.jsonl").exists()

    def test_config_key_of_no_option_exits_1_naming_it(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"horizn": 4, "stride": 30}))
        out = tmp_path / "w.jsonl"
        # The missing input file is never opened: the config fails first.
        assert run("--config", config, "sample", "--in", tmp_path / "missing.csv", "--out", out) == 1
        assert "unknown key(s) in config file, defined by no option of any command: 'horizn'" in caplog.text
        assert not out.exists()

    def test_config_keys_of_other_commands_are_accepted(self, pipeline_dir):
        config = pipeline_dir / "config.json"
        config.write_text(json.dumps({"horizon": 8, "epochs": 3, "backend": "kinematic", "flights": 2}))
        from_config, from_flags = pipeline_dir / "w_config.jsonl", pipeline_dir / "w_flags.jsonl"
        assert run("--config", config, "sample", "--in", pipeline_dir / "clean.csv",
                   "--out", from_config) == 0
        assert run("sample", "--in", pipeline_dir / "clean.csv", "--out", from_flags, "--horizon", 8) == 0
        assert from_config.read_text() == from_flags.read_text()

    def test_resolved_config_of_each_command_with_only_its_required_flags(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="flightcast.cli")
        raw, missing = str(tmp_path / "raw.csv"), str(tmp_path / "missing")
        io_flags = ["--in", missing, "--out", missing]
        io_values = {"input": missing, "out": missing}
        # Written out rather than read from the parser, so that a changed default fails here.
        commands = {
            "synth": (["--out", raw], {"flights": 20, "seed": 0, "manifest": None, "out": raw}),
            "ingest": (io_flags, {**io_values, "strict": False}),
            "sample": (io_flags, {**io_values, "horizon": 1, "stride": None}),
            "prompt": (io_flags, {**io_values, "inference": False}),
            "predict": (io_flags, {
                **io_values, "backend": "mock", "mock_behavior": "kinematic", "base_url": None, "model": None,
                "temperature": 0.0, "max_tokens": 512, "timeout": 30.0, "retries": 2, "model_file": None,
            }),
            "train-lstm": (io_flags, {
                **io_values, "epochs": 30, "batch_size": 4, "lr": 2e-4, "seed": 0, "hidden": 32,
            }),
            "eval": (["--pred", missing, "--out-prefix", missing], {
                "pred": missing, "out_prefix": missing, "model": None, "few_shot": None, "seed": 0,
                "no_latency": False,
            }),
            "report": (["--in", missing], {"input": missing, "format": "table", "out": None}),
        }
        for command, (flags, values) in commands.items():
            caplog.clear()
            run(command, *flags)
            resolved = json.dumps({"command": command, **values}, sort_keys=True)
            assert [r.getMessage() for r in caplog.records if "resolved config" in r.getMessage()] == [
                f"resolved config: {resolved}"
            ], command

    def test_boolean_config_values_are_defaults_that_flags_override(self, pipeline_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inference": True}))
        windows, data = pipeline_dir / "windows.jsonl", tmp_path / "data.jsonl"
        assert run("--config", config, "prompt", "--in", windows, "--out", data) == 0
        assert json.loads(data.read_text().splitlines()[0])["assistant"] == ""
        assert run("--config", config, "prompt", "--in", windows, "--out", data, "--with-assistant") == 0
        assert json.loads(data.read_text().splitlines()[0])["assistant"]

        pred = tmp_path / "pred.jsonl"
        assert run("predict", "--in", windows, "--out", pred, "--backend", "kinematic") == 0
        config.write_text(json.dumps({"no_latency": True}))
        assert run("--config", config, "eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        assert MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text())).mean_latency_s is None
        assert "latency" not in (tmp_path / "rep.txt").read_text()

    def test_endpoint_backend_requires_url_and_model(self, pipeline_dir):
        assert run("predict", "--in", pipeline_dir / "windows.jsonl",
                   "--out", pipeline_dir / "p.jsonl", "--backend", "endpoint") == 1
