"""The feed injector's tally must be what the program reports for its feed."""

import io
import logging

import pytest

import inputs
from flightcast import ingest, synth


@pytest.fixture(scope="module")
def corpus():
    records, _ = synth.generate_corpus(14, 3)
    return records


def test_tally_matches_program_cleaning(corpus, caplog):
    lines, tally = inputs.feed_lines(corpus, 3)
    with caplog.at_level(logging.WARNING, logger="flightcast.ingest"):
        records = ingest.read_adsb_csv(io.StringIO("\n".join(lines) + "\n"))
    result = ingest.clean_trajectories(records)
    assert result.summary() == tally["cleaning"]
    assert sorted(t.callsign for t in result.trajectories) == tally["kept_callsigns"]
    warnings = [r for r in caplog.records if "disagrees" in r.getMessage()]
    assert len(warnings) == tally["utc_mismatch_rows"] > 0
    assert len(records) == tally["records"] == len(lines) - 1


def test_every_defect_class_hits_its_own_flights(corpus):
    callsigns = sorted({r.callsign for r in corpus})
    plan = inputs.defect_plan(callsigns, 3)
    assert set(plan.values()) == set(inputs.DEFECT_SHARES)
    assert set(plan) <= set(callsigns)
    big = inputs.defect_plan([f"F{i:03d}" for i in range(200)], 3)
    assert sorted(list(big.values()).count(k) for k in inputs.DEFECT_SHARES) == [3, 3, 4, 4, 4]


def test_rows_have_header_width_and_interleave_by_time(corpus):
    lines, _ = inputs.feed_lines(corpus, 3)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(lines[0].split(",")) for row in rows)
    timestamps = [int(row[0]) for row in rows]
    assert timestamps == sorted(timestamps)
    assert len({row[2] for row in rows[:20]}) > 1


def test_same_seed_same_feed(corpus):
    assert inputs.feed_lines(corpus, 5) == inputs.feed_lines(corpus, 5)
    assert inputs.feed_lines(corpus, 5)[0] != inputs.feed_lines(corpus, 6)[0]


def test_too_few_flights_for_every_defect():
    with pytest.raises(ValueError, match="too few"):
        inputs.defect_plan(["A", "B", "C"], 0)
