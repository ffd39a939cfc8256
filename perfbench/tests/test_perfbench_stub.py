"""Stub reply classes parse as the oracle says; the server counts what it serves."""

import hashlib
import http.client
import json
import threading
import time
from collections import Counter

import pytest

import inputs
import stub_server
from flightcast import prompts, synth, windowing


@pytest.fixture(scope="module")
def windows():
    records, _ = synth.generate_corpus(12, 4)
    return [w for t in inputs.clean_trajectories(records) for w in windowing.sample_windows(t, 4)]


@pytest.fixture(scope="module")
def table(windows):
    return inputs.stub_replies([windowing.window_to_obj(w) for w in windows], 4)


def outcome_class(outcome):
    if outcome.ok:
        return "ok"
    return {"missing-trajectory": "missing", "unexpected-format": "format",
            "severe-deviation": "severe"}[outcome.failure.value]


def test_every_reply_parses_as_its_class(windows, table):
    replies, oracle = table
    got = []
    for window, kind in zip(windows, oracle["classes"]):
        user = prompts.build_prompt(window, include_assistant=False).user
        text = replies["replies"][inputs.prompt_key(windowing.window_to_obj(window))][1]
        assert hashlib.sha256(user.encode("utf-8")).hexdigest() == inputs.prompt_key(windowing.window_to_obj(window))
        got.append(outcome_class(prompts.parse_completion(text, window.horizon, window)))
        assert got[-1] == inputs.EXPECTED_OUTCOME[kind]
    assert dict(Counter(got)) == {k: v for k, v in oracle["outcomes"].items() if v}
    assert len(set(oracle["classes"])) >= 4


def test_scored_replies_stay_in_range(table):
    replies, _ = table
    for kind, text in replies["replies"].values():
        if inputs.EXPECTED_OUTCOME[kind] == "ok":
            for items in prompts.extract_tuples(text):
                values = [float(v) for v in items]
                assert values[2] >= 0 and values[3] >= 0 and 0 <= values[4] < 360


@pytest.fixture()
def server(table):
    replies, _ = table
    srv = stub_server.make_server({"delay_ms": 20.0, "replies": replies["replies"]})
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def post(conn, user):
    body = json.dumps({"model": "m", "messages": [{"role": "system", "content": "s"},
                                                  {"role": "user", "content": user}]})
    conn.request("POST", "/chat/completions", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def test_server_replies_keeps_alive_and_counts(server, windows, table):
    _, oracle = table
    port = server.server_address[1]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    start = time.perf_counter()
    for window in windows[:3]:
        status, body = post(conn, prompts.build_prompt(window, include_assistant=False).user)
        assert status == 200
        assert isinstance(body["choices"][0]["message"]["content"], str)
    assert time.perf_counter() - start >= 3 * 0.020
    status, _ = post(conn, "(1.00000, 2.00000, 3.000, 4.000, 5.00)")
    assert status == 404
    conn.close()

    other = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    other.request("GET", "/stats")
    stats = json.loads(other.getresponse().read())
    other.close()
    assert stats["connections"] == 1
    assert stats["requests"] == 3
    assert stats["unknown"] == 1
    assert stats["classes"] == dict(Counter(oracle["classes"][:3]))
