import json

import pytest

from flightcast.cli import main
from flightcast.evaluation import MetricsReport
from flightcast.windowing import read_windows_jsonl


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
        assert run("eval", "--pred", pred, "--out-prefix", tmp_path / "rep") == 0

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

    def test_endpoint_backend_requires_url_and_model(self, pipeline_dir):
        assert run("predict", "--in", pipeline_dir / "windows.jsonl",
                   "--out", pipeline_dir / "p.jsonl", "--backend", "endpoint") == 1
