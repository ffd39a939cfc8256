import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flightcast
from flightcast import llm
from flightcast.cli import main
from flightcast.evaluation import MetricsReport
from flightcast.llm import (
    EndpointConfig,
    EndpointError,
    MockBehavior,
    complete,
    complete_many,
    mock_complete,
)
from flightcast.domain import round_attributes
from flightcast.predictors import predict_kinematic
from flightcast.prompts import (
    FailureKind,
    PromptRecord,
    build_prompt,
    estimate_tokens,
    parse_completion,
    serialize_values,
)
from flightcast.windowing import INPUT_LENGTH, Window, write_windows_jsonl

from conftest import canonical_window, cruise_window, read_jsonl


class _ChatHandler(BaseHTTPRequestHandler):
    """Scripted chat-completions endpoint; behavior keyed on model name."""

    seen: list[dict] = []
    dropped: set[str] = set()

    def do_POST(self):  # noqa: N802 (stdlib naming)
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"auth": self.headers.get("Authorization"), "path": self.path, "request": request}
        )
        model = request["model"]
        if model in ("error", "error-latin1"):
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"backend exploded" if model == "error" else b"caf\xe9 exploded")
            return
        user = request["messages"][1]["content"]
        if model == "flaky" and user not in type(self).dropped:
            type(self).dropped.add(user)
            self.close_connection = True  # hang up without a reply, once per prompt
            return
        # "busy:<status>:<Retry-After>" answers that status once per prompt, "always-busy:…" every time.
        kind, _, rest = model.partition(":")
        if kind == "always-busy" or (kind == "busy" and model + user not in type(self).dropped):
            type(self).dropped.add(model + user)
            status, _, retry_after = rest.partition(":")
            self.send_response(int(status))
            if retry_after:
                self.send_header("Retry-After", retry_after)
            self.end_headers()
            self.wfile.write(b"come back later")
            return
        if model == "slow":
            time.sleep(1.0)
        if model == "junk":
            payload = b"this is not json"
        else:  # echo: answer with the user message content in UTF-8; "number" answers 42
            content = 42 if model == "number" else user
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}, ensure_ascii=False
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if model == "sized":  # any other reply ends where the server closes the connection
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def endpoint_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def inference_record(user="hello (1.0, 2.0) world") -> PromptRecord:
    return PromptRecord(system="Predict the next 1 waypoint.", user=user, assistant="")


def closed_port_url() -> str:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestComplete:
    def test_happy_path_latency_and_verbatim_text(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="echo")
        result = complete(inference_record("payload-xyz"), cfg)
        assert result.text == "payload-xyz"
        assert result.latency_s > 0
        assert result.attempts == 1

    def test_response_text_is_opaque(self, endpoint_url):
        # Whatever the endpoint says reaches the caller unaltered, leading
        # whitespace, markdown, and stray parens included.
        cfg = EndpointConfig(base_url=endpoint_url, model="echo")
        payload = "  \n\t**(1.0, 2.0)** trailing spaces and a paren ( \n "
        assert complete(inference_record(payload), cfg).text == payload

    def test_non_empty_assistant_rejected(self, endpoint_url):
        record = PromptRecord(system="s", user="u", assistant="already answered")
        cfg = EndpointConfig(base_url=endpoint_url, model="echo")
        with pytest.raises(ValueError, match="assistant"):
            complete(record, cfg)

    def test_error_status_raises_with_body_excerpt(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="error")
        with pytest.raises(EndpointError, match="500.*backend exploded"):
            complete(inference_record(), cfg)

    def test_malformed_body_raises(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="junk")
        with pytest.raises(EndpointError, match="malformed response"):
            complete(inference_record(), cfg)

    def test_unreachable_retries_then_fails(self):
        cfg = EndpointConfig(
            base_url=closed_port_url(), model="echo", retries=1, backoff_base_s=0.01
        )
        with pytest.raises(EndpointError, match="unreachable after 2") as excinfo:
            complete(inference_record(), cfg)
        assert excinfo.value.attempts == 2

    def test_timeout(self, endpoint_url):
        cfg = EndpointConfig(
            base_url=endpoint_url, model="slow", timeout_s=0.15, retries=0
        )
        with pytest.raises(EndpointError, match="^timeout after 1 attempt") as excinfo:
            complete(inference_record(), cfg)
        assert excinfo.value.attempts == 1

    def test_bearer_token_from_environment(self, endpoint_url, monkeypatch):
        monkeypatch.setenv("FTP_LLM_TOKEN", "sekrit")
        cfg = EndpointConfig(base_url=endpoint_url, model="echo")
        _ChatHandler.seen.clear()
        complete(inference_record(), cfg)
        assert _ChatHandler.seen[-1]["auth"] == "Bearer sekrit"

    def test_request_shape(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="echo", temperature=0.0, max_tokens=64)
        _ChatHandler.seen.clear()
        complete(inference_record("u-text"), cfg)
        request = _ChatHandler.seen[-1]["request"]
        assert request["model"] == "echo"
        assert request["temperature"] == 0.0
        assert request["max_tokens"] == 64
        assert [m["role"] for m in request["messages"]] == ["system", "user"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="x", model="m", retries=-1)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="x", model="m", timeout_s=0)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="x", model="m", temperature=-0.1)
        for limit in (0, -3):
            with pytest.raises(ValueError, match="in flight"):
                EndpointConfig(base_url="x", model="m", max_in_flight=limit)

    def test_temperature_must_be_finite_and_non_negative(self):
        for temperature in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="^temperature"):
                EndpointConfig(base_url="http://h", model="m", temperature=temperature)

    def test_timeout_must_be_positive_and_at_most_the_thread_timeout_limit(self):
        for timeout in (math.nan, math.inf, 1e300, threading.TIMEOUT_MAX * 2, 0, -1.0):
            with pytest.raises(ValueError, match="^timeout_s"):
                EndpointConfig(base_url="http://h", model="m", timeout_s=timeout)
        assert EndpointConfig(base_url="http://h", model="m", timeout_s=threading.TIMEOUT_MAX).timeout_s > 0

    def test_max_tokens_must_be_positive(self):
        for max_tokens in (0, -1):
            with pytest.raises(ValueError, match="^max_tokens"):
                EndpointConfig(base_url="http://h", model="m", max_tokens=max_tokens)

    def test_base_url_must_be_http_or_https(self):
        for url in ("localhost:8000/v1", "ftp://h/v1", "file:///tmp", ""):
            with pytest.raises(ValueError, match="^base_url"):
                EndpointConfig(base_url=url, model="m")
        for url in ("http://h/v1", "https://h/v1", "HTTP://h"):
            assert EndpointConfig(base_url=url, model="m").base_url == url

    def test_base_url_with_a_trailing_slash(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url + "/v1/", model="echo")
        _ChatHandler.seen.clear()
        complete(inference_record(), cfg)
        assert _ChatHandler.seen[-1]["path"] == "/v1/chat/completions"

    def test_non_ascii_reply_is_verbatim(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="echo")
        payload = "caf\u00e9 \u2708 \u6771\u4eac \U0001f6eb (1.0, 2.0)"
        assert complete(inference_record(payload), cfg).text == payload

    def test_error_body_that_is_not_utf8_still_yields_an_excerpt(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="error-latin1")
        with pytest.raises(EndpointError, match="^endpoint returned status 500: caf\ufffd exploded$"):
            complete(inference_record(), cfg)

    def test_reply_with_a_content_length_or_ended_by_the_connection_closing(self, endpoint_url):
        for model in ("sized", "echo"):
            cfg = EndpointConfig(base_url=endpoint_url, model=model)
            assert complete(inference_record("payload-" + model), cfg).text == "payload-" + model

    def test_importing_the_cli_does_not_import_requests(self):
        src = Path(flightcast.__file__).parents[1]
        code = "import sys, flightcast.cli; sys.exit('requests' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_too_many_requests_is_retried_after_retry_after(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="busy:429:0", retries=1)
        result = complete(inference_record("busy-429"), cfg)
        assert (result.text, result.attempts) == ("busy-429", 2)

    def test_unavailable_without_a_numeric_retry_after_uses_the_backoff(self, endpoint_url, monkeypatch):
        backoffs = []
        monkeypatch.setattr(llm, "_backoff_sleep", lambda cfg, attempt: backoffs.append(attempt))
        for retry_after in ("", "Wed, 21 Oct 2015 07:28:00 GMT"):
            cfg = EndpointConfig(base_url=endpoint_url, model=f"busy:503:{retry_after}", retries=2)
            assert complete(inference_record("busy-503"), cfg).attempts == 2
        assert backoffs == [1, 1]

    def test_retry_after_is_capped_at_the_timeout_and_the_last_status_raises(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="always-busy:429:100", retries=2, timeout_s=0.1)
        start = time.perf_counter()
        with pytest.raises(EndpointError, match="^endpoint returned status 429: come back later") as excinfo:
            complete(inference_record(), cfg)
        assert excinfo.value.attempts == 3
        assert 0.2 <= time.perf_counter() - start < 5  # two pauses of 0.1 s, not of the 100 s asked for

    def test_other_error_statuses_are_not_retried(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="busy:502:0", retries=2)
        with pytest.raises(EndpointError, match="^endpoint returned status 502") as excinfo:
            complete(inference_record("busy-502"), cfg)
        assert excinfo.value.attempts == 1

    def test_complete_many_preserves_order(self, endpoint_url):
        cfg = EndpointConfig(base_url=endpoint_url, model="echo", max_in_flight=4)
        records = [inference_record(f"message-{i}") for i in range(10)]
        results = complete_many(records, cfg)
        assert [r.text for r in results] == [f"message-{i}" for i in range(10)]


class TestMockComplete:
    def test_kinematic_parses_back(self, rng):
        for horizon in (1, 4, 8):
            window = cruise_window(rng, horizon)
            (result,) = mock_complete([window], MockBehavior.KINEMATIC)
            assert result.text
            assert result.latency_s > 0
            outcome = parse_completion(result.text, horizon, window)
            assert outcome.ok, outcome.diagnostic

    def test_empty_yields_missing(self, rng):
        window = cruise_window(rng, 4)
        (result,) = mock_complete([window], MockBehavior.EMPTY)
        assert result.text == ""
        outcome = parse_completion(result.text, 4, window)
        assert outcome.failure is FailureKind.MISSING_TRAJECTORY

    def test_garbled_yields_unexpected_format(self, rng):
        window = cruise_window(rng, 1)
        (result,) = mock_complete([window], MockBehavior.GARBLED)
        outcome = parse_completion(result.text, 1, window)
        assert outcome.failure is FailureKind.UNEXPECTED_FORMAT

    def test_sign_flip_yields_severe_deviation(self, rng):
        window = cruise_window(rng, 4)  # longitudes are near 100, far from zero
        (result,) = mock_complete([window], MockBehavior.SIGN_FLIP)
        outcome = parse_completion(result.text, 4, window)
        assert outcome.failure is FailureKind.SEVERE_DEVIATION

    def test_identical_calls_identical_results(self, rng):
        window = cruise_window(rng, 4)
        assert mock_complete([window, window]) == mock_complete([window]) * 2

    def test_latency_counts_the_prompt_and_the_reply(self, rng):
        # Windows in every quadrant, so both the prompt's and the reply's "-" signs are counted,
        # one on the prime meridian at a longitude of exactly -0.0 (printed "-0.00000").
        def mirrored(window, lon_sign, lat_sign):
            values = window.values * np.array([lon_sign, lat_sign, 1.0, 1.0, 1.0])[:, None]
            return Window.from_columns(window.callsign, window.timestamps, values)

        meridian = np.array([[-0.0] * 20, np.linspace(-1.0, 1.0, 20), [9000.0] * 20, [800.0] * 20, [0.0] * 20])
        windows = [
            cruise_window(rng, 4),
            mirrored(cruise_window(rng, 1), -1.0, 1.0),
            mirrored(cruise_window(rng, 8), 1.0, -1.0),
            mirrored(cruise_window(rng, 4), -1.0, -1.0),
            Window.from_columns("MER", 60 * np.arange(20), round_attributes(meridian)),
        ]
        for behavior in MockBehavior:
            for window, result in zip(windows, mock_complete(windows, behavior), strict=True):
                prompt = build_prompt(window, include_assistant=False).user
                tokens = estimate_tokens(prompt) + estimate_tokens(result.text)
                assert result.latency_s == tokens * llm.MOCK_SECONDS_PER_TOKEN
        assert "-0.00000" in build_prompt(windows[-1], include_assistant=False).user

    def test_kinematic_forecasts_a_window_from_its_own_values(self, rng):
        # The last input longitude sits 4e-6 degrees off canonical precision, which the prompt
        # text would round away; the mock extrapolates from the window's own values.
        window = cruise_window(rng, 4)
        values = window.values.copy()
        values[0, INPUT_LENGTH - 1] += 4e-6
        window = Window.from_columns(window.callsign, window.timestamps, values)
        (result,) = mock_complete([window], MockBehavior.KINEMATIC)
        expected = round_attributes(predict_kinematic(values[None, :, :INPUT_LENGTH], 4))[0]
        assert result.text == serialize_values(expected)
        rounded = predict_kinematic(round_attributes(values[None, :, :INPUT_LENGTH]), 4)
        assert result.text != serialize_values(round_attributes(rounded)[0])

    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((1, 4, 8))), max_size=6),
        st.sampled_from(list(MockBehavior)),
    )
    def test_a_batch_answers_as_one_window_at_a_time(self, draws, behavior):
        windows = [cruise_window(np.random.default_rng(seed), horizon) for seed, horizon in draws]
        assert mock_complete(windows, behavior) == [r for w in windows for r in mock_complete([w], behavior)]

    def test_a_batch_raises_for_its_first_polar_window(self, rng):
        # The batch is forecast to its largest horizon: the h1 window at 89.85 moving north 0.06
        # degrees a minute starts its second step past the limit, so it raises in an h4 batch
        # though alone it would not.
        rows = [(0.0, 89.85 - 0.06 * (15 - i), 9000.0, 800.0, 0.0) for i in range(17)]
        near_pole = canonical_window("N", 0, rows)
        polar = canonical_window("P", 0, [(0.0, 89.95, 9000.0, 800.0, 0.0)] * 17)
        windows = [cruise_window(rng, 4), near_pole, polar]
        assert mock_complete(windows[1:2])[0].text
        with pytest.raises(ValueError, match="latitude 89.95 too close") as single:
            mock_complete(windows[2:])
        with pytest.raises(ValueError, match="latitude 89.90999") as batch:
            mock_complete(windows)
        assert str(batch.value) != str(single.value)
        with pytest.raises(ValueError, match="latitude 89.95 too close"):
            mock_complete([windows[0], windows[2]])


class TestCliEndpoint:
    """predict --backend endpoint, then eval, against the scripted server."""

    def predict(self, tmp_path, rng, url, model, *extra) -> list[dict]:
        windows = tmp_path / "windows.jsonl"
        write_windows_jsonl([cruise_window(rng, 4) for _ in range(3)], windows)
        pred = tmp_path / "pred.jsonl"
        argv = ["predict", "--in", windows, "--out", pred, "--backend", "endpoint",
                "--base-url", url, "--model", model, *extra]
        assert main([str(a) for a in argv]) == 0
        return list(read_jsonl(pred))

    def test_rows_keep_attempts(self, endpoint_url, tmp_path, rng):
        assert [row["attempts"] for row in self.predict(tmp_path, rng, endpoint_url, "echo")] == [1, 1, 1]

    def test_rows_count_retried_attempts(self, endpoint_url, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(llm, "_backoff_sleep", lambda cfg, attempt: None)
        rows = self.predict(tmp_path, rng, endpoint_url, "flaky", "--retries", 2)
        assert [row["attempts"] for row in rows] == [2, 2, 2]
        assert all(row["completion"] for row in rows)

    def test_bad_settings_exit_1_before_any_request(self, endpoint_url, tmp_path, rng):
        windows = tmp_path / "windows.jsonl"
        write_windows_jsonl([cruise_window(rng, 4)], windows)
        _ChatHandler.seen.clear()
        bad = (("--temperature", "nan"), ("--timeout", "inf"), ("--max-tokens", 0),
               ("--base-url", endpoint_url.removeprefix("http://")))
        for flag, value in bad:
            argv = ["predict", "--in", windows, "--out", tmp_path / "pred.jsonl", "--backend", "endpoint",
                    "--base-url", endpoint_url, "--model", "echo", flag, value]
            assert main([str(a) for a in argv]) == 1
        assert _ChatHandler.seen == [] and not (tmp_path / "pred.jsonl").exists()

    def test_non_string_completion_is_a_format_failure(self, endpoint_url, tmp_path, rng):
        rows = self.predict(tmp_path, rng, endpoint_url, "number")
        assert [row["completion"] for row in rows] == [42, 42, 42]
        prefix = tmp_path / "report"
        assert main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--out-prefix", str(prefix)]) == 1  # none scored
        report = MetricsReport.from_dict(json.loads((tmp_path / "report.json").read_text()))
        assert (report.failed_format, report.evaluated) == (3, 0)
