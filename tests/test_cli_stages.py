"""The CLI stages on one small corpus, each check run in process through ``cli.main``.

The corpus is the one the workflow's CLI step builds: 6 synthetic flights at
seed 0, ingested and cut into horizon-4 windows.
"""

import json

import pytest

from flightcast.cli import main
from flightcast.llm import MOCK_SECONDS_PER_TOKEN
from flightcast.prompts import build_prompt, estimate_tokens
from flightcast.windowing import window_from_obj


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """synth → ingest → sample h4 → predict mock → eval, built once for the module."""
    work = tmp_path_factory.mktemp("stages")
    assert run("synth", "--flights", 6, "--seed", 0, "--out", work / "raw.csv") == 0
    assert run("ingest", "--in", work / "raw.csv", "--out", work / "clean.csv") == 0
    assert run("sample", "--in", work / "clean.csv", "--horizon", 4, "--out", work / "windows.jsonl") == 0
    assert run("predict", "--in", work / "windows.jsonl", "--out", work / "pred-mock.jsonl", "--backend", "mock") == 0
    assert run("eval", "--pred", work / "pred-mock.jsonl", "--out-prefix", work / "report-mock") == 0
    return work


def test_a_row_cut_short_costs_eval_that_sample_not_the_run(stages, tmp_path):
    # As a crashed writer leaves it: half of the first row, with its line end, appended.
    text = (stages / "pred-mock.jsonl").read_text(encoding="utf-8")
    line = text.splitlines(keepends=True)[0]
    (tmp_path / "pred-cut.jsonl").write_text(text + line[: len(line) // 2] + "\n", encoding="utf-8")
    assert run("eval", "--pred", tmp_path / "pred-cut.jsonl", "--out-prefix", tmp_path / "report-cut") == 0
    assert (tmp_path / "report-cut.json").read_bytes() == (stages / "report-mock.json").read_bytes()


def test_prompt_on_a_windows_file_with_a_broken_row_3_exits_1_naming_it(stages, tmp_path, caplog):
    lines = (stages / "windows.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:100] + "\n"
    (tmp_path / "windows-broken.jsonl").write_text("".join(lines), encoding="utf-8")
    assert run("prompt", "--in", tmp_path / "windows-broken.jsonl", "--out", tmp_path / "prompts.jsonl") == 1
    assert "row 3:" in caplog.text


def test_predict_on_compact_json_windows_writes_the_same_bytes(stages, tmp_path):
    # Compact rows take predict's re-encoding path, not its reuse of each row's text.
    rows = (stages / "windows.jsonl").read_text(encoding="utf-8").splitlines()
    compact = "".join(json.dumps(json.loads(row), separators=(",", ":")) + "\n" for row in rows)
    (tmp_path / "windows-compact.jsonl").write_text(compact, encoding="utf-8")
    assert run("predict", "--in", tmp_path / "windows-compact.jsonl", "--out", tmp_path / "pred.jsonl",
               "--backend", "mock") == 0
    assert (tmp_path / "pred.jsonl").read_bytes() == (stages / "pred-mock.jsonl").read_bytes()


@pytest.mark.parametrize("behavior, count", [("empty", "failed_missing"), ("garbled", "failed_format"),
                                             ("sign-flip", "excluded_severe")])
def test_each_scripted_mock_failure_lands_every_sample_in_its_own_count(stages, tmp_path, behavior, count):
    pred = tmp_path / f"pred-{behavior}.jsonl"
    assert run("predict", "--in", stages / "windows.jsonl", "--out", pred,
               "--backend", "mock", "--mock-behavior", behavior) == 0
    # No sample is evaluated, so eval exits 1.
    assert run("eval", "--pred", pred, "--out-prefix", tmp_path / f"report-{behavior}") == 1
    counts = json.loads((tmp_path / f"report-{behavior}.json").read_text(encoding="utf-8"))["counts"]
    assert counts[count] == sum(counts.values()) > 0


@pytest.mark.parametrize("behavior", ["kinematic", "empty", "garbled", "sign-flip"])
def test_mock_latency_is_one_step_per_token_of_prompt_and_reply(stages, tmp_path, behavior):
    # Sign-flip replies carry negative longitudes, which count one more token each.
    pred = tmp_path / "pred.jsonl"
    assert run("predict", "--in", stages / "windows.jsonl", "--out", pred,
               "--backend", "mock", "--mock-behavior", behavior) == 0
    rows = [json.loads(line) for line in pred.read_text(encoding="utf-8").splitlines()]
    assert rows
    for row in rows:
        user = build_prompt(window_from_obj(row), include_assistant=False).user
        tokens = estimate_tokens(user) + estimate_tokens(row["completion"])
        assert row["latency_s"] == tokens * MOCK_SECONDS_PER_TOKEN
