import hashlib
import json

import pytest

from flightcast.cli import main
from flightcast.evaluation import MetricsReport
from flightcast.windowing import read_jsonl, read_windows_jsonl


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
        good, empty, huge = list(read_jsonl(pred))[:3]
        empty["target"] = []
        huge["input"][0][0] = 2**70
        pred.write_text("".join(json.dumps(row) + "\n" for row in (good, empty, huge)))
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0
        report = MetricsReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
        assert (report.horizon, report.evaluated, report.total_submitted) == (4, 1, 1)
        assert "skipped 2 malformed row(s) (first: row 2: window target is empty)" in caplog.text

    @pytest.mark.parametrize(
        "defect, message",
        [
            ({"latency_s": None}, "row 2: missing 'latency_s'"),
            ({"completion": None}, "row 2: missing 'completion'"),
            ({"latency_s": "fast"}, "row 2: latency_s 'fast' is not a finite number >= 0"),
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
        ],
    )
    def test_stages_reject_a_malformed_window(self, pipeline_dir, tmp_path, caplog, defect, message):
        rows = list(read_jsonl(pipeline_dir / "windows.jsonl"))
        rows[1].update(defect)
        windows = tmp_path / "bad.jsonl"
        windows.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "out.jsonl"
        for stage in (("prompt",), ("predict", "--backend", "persistence"), ("train-lstm", "--epochs", 1)):
            caplog.clear()
            assert run(*stage, "--in", windows, "--out", out) == 1
            assert message in caplog.text
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

    def test_unsupported_horizon_exits_1(self, tmp_path):
        raw, clean = tmp_path / "raw.csv", tmp_path / "clean.csv"
        run("synth", "--flights", 2, "--seed", 0, "--out", raw)
        run("ingest", "--in", raw, "--out", clean)
        assert run("sample", "--in", clean, "--horizon", 3, "--out", tmp_path / "w.jsonl") == 1
        assert run("sample", "--in", clean, "--horizon", 3, "--out", tmp_path / "w.jsonl",
                   "--allow-any-horizon") == 0

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

    def test_config_value_of_the_wrong_type_exits_1(self, pipeline_dir, caplog):
        config = pipeline_dir / "config.json"
        for value in ("four", 4.5, True):
            config.write_text(json.dumps({"horizon": value}))
            assert run("--config", config, "sample", "--in", pipeline_dir / "clean.csv",
                       "--out", pipeline_dir / "w.jsonl") == 1
            assert f"invalid int value for horizon in config file: {value!r}" in caplog.text

    def test_out_of_choices_backend_from_config_is_rejected_up_front(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": "oracle"}))
        # The missing input file is never opened: the config fails first.
        assert run("--config", config, "predict", "--in", tmp_path / "missing.jsonl",
                   "--out", tmp_path / "p.jsonl") == 1
        assert ("unknown backend 'oracle' in config file"
                " (choose from endpoint, mock, persistence, kinematic, lstm)") in caplog.text

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

    def test_endpoint_backend_requires_url_and_model(self, pipeline_dir):
        assert run("predict", "--in", pipeline_dir / "windows.jsonl",
                   "--out", pipeline_dir / "p.jsonl", "--backend", "endpoint") == 1
