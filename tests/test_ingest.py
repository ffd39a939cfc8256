import io
import logging
import math
import random
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flightcast import ingest, synth
from flightcast.domain import Trajectory, Waypoint
from flightcast.ingest import (
    MalformedRowError,
    RawRecord,
    RecordTable,
    aggregate_minutes,
    clean_trajectories,
    minute_means,
    parse_header,
    parse_record,
    read_adsb_csv,
    records_to_csv_text,
    write_trajectories_csv,
    _utc_text,
)

from conftest import (
    random_canonical_waypoint,
    reference_aggregate_minutes,
    reference_clean_trajectories,
    reference_minute_means,
    reference_read_adsb_csv,
)

HEADER = parse_header("timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading")

TABLE_ROW = "1727926166,2024-10-3 3:29:26,3S528,13.61184,50.48944,10058.400,968.596,125.00"


def record(callsign="FLT1", timestamp=0, longitude=10.0, latitude=20.0, altitude=10000.0,
           velocity=900.0, heading=90.0, utc_time=None) -> RawRecord:
    return RawRecord(
        timestamp=timestamp,
        utc_time=utc_time or _utc_text(timestamp),
        callsign=callsign,
        longitude=longitude,
        latitude=latitude,
        altitude=altitude,
        velocity=velocity,
        heading=heading,
    )


class TestParseRecord:
    def test_reference_row(self):
        r = parse_record(TABLE_ROW, HEADER)
        assert r.timestamp == 1727926166
        assert r.utc_time == "2024-10-3 3:29:26"
        assert r.callsign == "3S528"
        assert r.longitude == 13.61184
        assert r.latitude == 50.48944
        assert r.altitude == 10058.400
        assert r.velocity == 968.596
        assert r.heading == 125.00
        assert r.is_complete

    def test_empty_cell_is_missing(self):
        r = parse_record("1727926166,2024-10-3 3:29:26,3S528,,50.48944,10058.4,968.6,125.0", HEADER)
        assert r.longitude is None
        assert "longitude" in r.missing_fields()

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRowError, match="row 7"):
            parse_record("1,2,3,4,5,6,7", HEADER, row_number=7)

    def test_non_numeric_tolerant(self):
        r = parse_record("1,x,CS,abc,50.0,100.0,900.0,10.0", HEADER)
        assert r.longitude is None

    def test_non_numeric_strict(self):
        with pytest.raises(MalformedRowError, match="longitude"):
            parse_record("1,x,CS,abc,50.0,100.0,900.0,10.0", HEADER, strict=True)

    def test_signed_and_fractional_values(self):
        r = parse_record("5,x,CS,-103.25,+45.5,.5,900.0,10.0", HEADER)
        assert r.longitude == -103.25
        assert r.latitude == 45.5
        assert r.altitude == 0.5

    def test_header_case_insensitive_extra_columns_ignored(self):
        header = parse_header("Timestamp,UTC_TIME,Callsign,Longitude,Latitude,Altitude,Velocity,Heading,Extra")
        r = parse_record("1,x,CS,1.0,2.0,3.0,4.0,5.0,junk", header)
        assert r.longitude == 1.0
        with pytest.raises(MalformedRowError, match="missing required column"):
            parse_header("timestamp,utc_time,callsign")


class TestCleanTrajectories:
    def test_duplicate_flight_dropped(self):
        flight = [record(timestamp=60 * i) for i in range(5)]
        result = clean_trajectories(flight + flight)
        assert result.kept == 1
        assert result.duplicate == 1
        assert len(result.trajectories) == 1
        assert len(result.trajectories[0].waypoints) == 5

    @pytest.mark.parametrize("first", [10.0, 11.0])
    def test_first_of_two_parallel_candidates_wins(self, first):
        second = 21.0 - first
        flight = [record(timestamp=60 * i, longitude=first) for i in range(3)]
        flight += [record(timestamp=60 * i, longitude=second) for i in range(3)]
        result = clean_trajectories(flight)
        assert result.summary() == {"kept": 1, "incomplete": 0, "invalid": 0, "duplicate": 1}
        assert {w.longitude for w in result.trajectories[0].waypoints} == {first}

    def test_invalid_latitude_drops_trajectory(self):
        flight = [record(timestamp=60 * i) for i in range(3)]
        flight.append(record(timestamp=180, latitude=95.0))
        result = clean_trajectories(flight)
        assert result.invalid == 1
        assert result.kept == 0

    def test_empty_input(self):
        result = clean_trajectories([])
        assert result.trajectories == []
        assert result.summary() == {"kept": 0, "incomplete": 0, "invalid": 0, "duplicate": 0}

    def test_missing_field_drops_trajectory(self):
        flight = [record(timestamp=0), record(timestamp=60, longitude=None)]
        result = clean_trajectories(flight)
        assert result.incomplete == 1
        assert result.kept == 0

    def test_kept_waypoints_are_rounded(self):
        result = clean_trajectories([record(longitude=13.611841)])
        assert result.trajectories[0].waypoints[0].longitude == 13.61184

    def test_output_sorted_by_callsign(self):
        records = [record(callsign="BBB"), record(callsign="AAA")]
        result = clean_trajectories(records)
        assert [t.callsign for t in result.trajectories] == ["AAA", "BBB"]

    def test_count_conservation_and_idempotence(self, rng):
        records = []
        trajectories = int(rng.integers(3, 10))
        for i in range(trajectories):
            callsign = f"C{i:02d}"
            start = int(rng.integers(0, 1000)) * 60
            flight = [
                record(callsign=callsign, timestamp=start + 60 * k,
                       longitude=float(rng.uniform(-170, 170)))
                for k in range(int(rng.integers(2, 20)))
            ]
            if rng.random() < 0.3:  # duplicate copy
                flight = flight * 2
            if rng.random() < 0.3:  # poison one record
                flight[0] = record(callsign=callsign, timestamp=start, latitude=200.0)
            records.extend(flight)
        result = clean_trajectories(records)
        assert result.total == result.kept + result.incomplete + result.invalid + result.duplicate
        assert result.kept == len(result.trajectories)

        # Idempotence: re-cleaning the survivors changes nothing.
        again = clean_trajectories(
            [
                record(callsign=t.callsign, timestamp=w.timestamp, longitude=w.longitude,
                       latitude=w.latitude, altitude=w.altitude, velocity=w.velocity,
                       heading=w.heading)
                for t in result.trajectories
                for w in t.waypoints
            ]
        )
        assert again.summary()["kept"] == result.kept
        assert again.incomplete == again.invalid == again.duplicate == 0
        assert again.trajectories == result.trajectories


class TestAggregateMinutes:
    def test_mean_of_two_longitudes(self):
        traj = Trajectory("X", (
            Waypoint(0, 10.0, 20.0, 1000.0, 900.0, 90.0),
            Waypoint(30, 10.0001, 20.0, 1000.0, 900.0, 90.0),
        ))
        out = aggregate_minutes(traj)
        assert len(out.waypoints) == 1
        assert out.waypoints[0].longitude == 10.00005
        assert out.waypoints[0].timestamp == 0

    def test_one_record_per_minute_floors_timestamps(self):
        traj = Trajectory("X", tuple(
            Waypoint(60 * i + 17, 10.0, 20.0, 1000.0, 900.0, 90.0) for i in range(4)
        ))
        out = aggregate_minutes(traj)
        assert [w.timestamp for w in out.waypoints] == [0, 60, 120, 180]
        assert all(w.longitude == 10.0 for w in out.waypoints)

    def test_circular_heading_across_north(self):
        traj = Trajectory("X", (
            Waypoint(0, 10.0, 20.0, 1000.0, 900.0, 350.0),
            Waypoint(30, 10.0, 20.0, 1000.0, 900.0, 10.0),
        ))
        out = aggregate_minutes(traj)
        assert out.waypoints[0].heading == 0.0

    def test_timestamps_multiples_of_60_strictly_increasing(self, rng):
        waypoints = []
        ts = 0
        for _ in range(200):
            waypoints.append(random_canonical_waypoint(rng, ts))
            ts += int(rng.integers(5, 40))
        out = aggregate_minutes(Trajectory("X", tuple(waypoints)))
        stamps = [w.timestamp for w in out.waypoints]
        assert all(s % 60 == 0 for s in stamps)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_aggregate_between_bucket_min_and_max(self, rng):
        waypoints = [random_canonical_waypoint(rng, int(t)) for t in sorted(rng.integers(0, 600, size=50))]
        traj = Trajectory("X", tuple(waypoints))
        buckets = {}
        for w in waypoints:
            buckets.setdefault(w.timestamp // 60, []).append(w)
        for ts, values in minute_means(traj):
            group = buckets[ts // 60]
            for value, attr in zip(values[:4], ("longitude", "latitude", "altitude", "velocity")):
                lo = min(getattr(w, attr) for w in group)
                hi = max(getattr(w, attr) for w in group)
                assert lo - 1e-12 <= value <= hi + 1e-12

    def test_matches_brute_force_bucket_means(self, rng):
        # Independent oracle: plain loops and the unit-vector heading mean.
        waypoints = []
        ts = int(rng.integers(0, 100)) * 60
        for _ in range(300):
            waypoints.append(random_canonical_waypoint(rng, ts))
            ts += 10
        traj = Trajectory("X", tuple(waypoints))
        buckets = {}
        for w in waypoints:
            buckets.setdefault(w.timestamp // 60 * 60, []).append(w)
        for ts_out, values in minute_means(traj):
            group = buckets[ts_out]
            expected = [
                sum(getattr(w, attr) for w in group) / len(group)
                for attr in ("longitude", "latitude", "altitude", "velocity")
            ]
            for got, want in zip(values[:4], expected):
                assert got == pytest.approx(want, abs=1e-9)
            sin_sum = sum(np.sin(np.radians(w.heading)) for w in group)
            cos_sum = sum(np.cos(np.radians(w.heading)) for w in group)
            want_heading = float(np.degrees(np.arctan2(sin_sum, cos_sum))) % 360.0
            diff = abs(values[4] - want_heading)
            assert min(diff, 360.0 - diff) < 1e-9


class TestCsvRoundTrip:
    def test_read_write_read(self, rng):
        waypoints = tuple(random_canonical_waypoint(rng, 60 * i) for i in range(5))
        traj = Trajectory("RT01", waypoints)
        buf = io.StringIO()
        write_trajectories_csv([traj], buf)
        records = read_adsb_csv(io.StringIO(buf.getvalue()))
        result = clean_trajectories(records)
        assert result.trajectories == [traj]

    def test_missing_header_raises(self):
        with pytest.raises(MalformedRowError, match="header"):
            read_adsb_csv(io.StringIO(""))


CSV_HEADER = "timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading"


def csv_source(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((CSV_HEADER,) + rows) + "\n")


def ingest_log(caplog) -> list[tuple[str, str]]:
    return [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "flightcast.ingest"]


class TestUtcAgreementWarnings:
    def test_non_padded_agreeing_time_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        parse_record(TABLE_ROW, HEADER, row_number=2)
        assert ingest_log(caplog) == []

    def test_canonical_agreeing_time_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        parse_record(TABLE_ROW.replace("2024-10-3 3:29:26", "2024-10-03 03:29:26"), HEADER)
        assert ingest_log(caplog) == []

    def test_canonical_disagreeing_time_warns_once_naming_the_row(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        parse_record(TABLE_ROW.replace("2024-10-3 3:29:26", "2024-10-03 03:29:27"), HEADER, row_number=9)
        assert ingest_log(caplog) == [
            ("WARNING", "utc_time '2024-10-03 03:29:27' disagrees with timestamp 1727926166 (row 9)")
        ]

    def test_unparseable_time_logs_only_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        parse_record(TABLE_ROW.replace("2024-10-3 3:29:26", "yesterday"), HEADER, row_number=4)
        assert ingest_log(caplog) == [("DEBUG", "unparseable utc_time 'yesterday' (row 4)")]

    def test_feed_row_by_row(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        rows = [
            "1727926166,2024-10-03 03:29:26,A1,1.0,2.0,3.0,4.0,5.0",  # row 2: canonical, agrees
            "1727926226,2024-10-3 3:30:26,A1,1.0,2.0,3.0,4.0,5.0",  # row 3: non-padded, agrees
            "1727926286,2024-10-03 04:31:26,A1,1.0,2.0,3.0,4.0,5.0",  # row 4: an hour off
            "1727926346,03/10/2024 03:32:26,A1,1.0,2.0,3.0,4.0,5.0",  # row 5: other format
            "1727926406,2024-10-3 3:33:27,A1,1.0,2.0,3.0,4.0,5.0",  # row 6: non-padded, a second off
            "1727926466,,A1,1.0,2.0,3.0,4.0,5.0",  # row 7: no utc_time
        ]
        assert len(read_adsb_csv(csv_source(*rows))) == 6
        assert ingest_log(caplog) == [
            ("WARNING", "utc_time '2024-10-03 04:31:26' disagrees with timestamp 1727926286 (row 4)"),
            ("DEBUG", "unparseable utc_time '03/10/2024 03:32:26' (row 5)"),
            ("WARNING", "utc_time '2024-10-3 3:33:27' disagrees with timestamp 1727926406 (row 6)"),
        ]


    def test_five_digit_year_goes_through_strptime(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        parse_record("253402300800,10000-01-01 00:00:00,A1,1.0,2.0,3.0,4.0,5.0", HEADER, row_number=2)
        assert ingest_log(caplog) == [("DEBUG", "unparseable utc_time '10000-01-01 00:00:00' (row 2)")]

    @pytest.mark.parametrize(
        "timestamp", [-30610224001, -30610224000, -1, 0, 1727926166, 253402300799, 253402300800]
    )
    def test_utc_text_matches_datetime(self, timestamp):
        try:
            want = datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                _utc_text(timestamp)
        else:
            assert _utc_text(timestamp) == want


class TestMalformedWidthRows:
    ROWS = (
        "60,1970-01-01 00:01:00,A1,1.0,2.0,3.0,4.0,5.0",
        "120,1970-01-01 00:02:00,A1,1.0,2.0,3.0,4.0",  # row 3: short
        "180,1970-01-01 00:03:00,A1,1.0,2.0,3.0,4.0,5.0",
        "240,1970-01-01 00:04:00,A1,1.0,2.0,3.0,4.0,5.0,extra",  # row 5: long
        "300,1970-01-01 00:05:00,A1,1.0,2.0",  # row 6: truncated last line
    )

    def test_tolerant_mode_skips_them_with_one_warning(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        records = read_adsb_csv(csv_source(*self.ROWS))
        assert records.timestamp.tolist() == [60, 180]
        assert ingest_log(caplog) == [
            ("WARNING", "skipped 3 row(s) whose cell count differs from the header's 8 (first: row 3)")
        ]

    def test_strict_mode_raises_with_the_row_number(self):
        with pytest.raises(MalformedRowError, match=r"row 3\): expected 8 cells, got 7"):
            read_adsb_csv(csv_source(*self.ROWS), strict=True)

    def test_well_formed_feed_logs_no_skip(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        read_adsb_csv(csv_source(self.ROWS[0], self.ROWS[2]))
        assert ingest_log(caplog) == []


def dirty_feed_text(flights: int, seed: int) -> str:
    """A shuffled synthetic feed holding every defect ingest must count, log or skip.

    It has a duplicated flight, repeated timestamps, disagreeing,
    non-padded, unparseable and empty utc_time cells, empty, non-numeric,
    padded, non-ASCII, overflowing and out-of-range numbers, timestamps past
    year 9999 and past 64 bits, a missing callsign, exact rounding ties,
    short and long rows, and blank lines.
    """
    records, _ = synth.generate_corpus(flights, seed)
    header, *lines = records_to_csv_text(records).splitlines()
    rows = [line.split(",") for line in lines]
    rng = random.Random(seed)
    twin = [row for row in rows if row[2] == rows[-1][2]]  # kept clean, then sent twice
    rows = rows[: -len(twin)]

    def some_row() -> list[str]:
        return rows[rng.randrange(len(rows))]

    for _ in range(6):  # a second report at a timestamp already seen
        row = list(some_row())
        row[3] = str(float(row[3]) + 0.01)
        rows.append(row)
    for bad in ("", "n/a", "-999.5", "400.25", "1e5", "1" + "0" * 400, " 12.5 ", "\u0663.\u0665"):
        some_row()[rng.randrange(3, 8)] = bad
    for _ in range(40):  # exact ties: one more decimal than kept, ending in 5
        row = some_row()
        column = rng.randrange(3, 8)
        row[column] = f"{float(row[column]):.{(5, 5, 3, 3, 2)[column - 3]}f}5"
    some_row()[7] = "359.995"  # rounds up to 360, which wraps to 0
    for shift in (1, 3600, -86400):
        row = some_row()
        row[1] = _utc_text(int(row[0]) + shift)
    row = some_row()
    stamp = datetime.fromtimestamp(int(row[0]), tz=timezone.utc)
    row[1] = f"{stamp.year}-{stamp.month}-{stamp.day} {stamp.hour}:{stamp.minute}:{stamp.second}"
    some_row()[1] = "yesterday"
    some_row()[1] = ""
    some_row()[0] = "300000000000"
    some_row()[0] = "-99999999999999999999999"
    some_row()[0] = ""
    some_row()[2] = ""
    rows += twin + [list(row) for row in twin]
    rng.shuffle(rows)
    text_rows = [",".join(row) for row in rows]
    for extra in ("", "1,2,3", ",".join(rows[0] + ["x"]), ""):
        text_rows.insert(rng.randrange(len(text_rows)), extra)
    return "\n".join([header] + text_rows) + "\n"


def ingest_outputs(records, clean, aggregate, means) -> tuple:
    """Everything cleaning and aggregation produce, in comparable form."""
    result = clean(records)
    aggregated = [aggregate(t) for t in result.trajectories]
    out = io.StringIO()
    write_trajectories_csv(aggregated, out)
    return (
        result.summary(),
        repr(result.trajectories),
        repr(aggregated),
        repr([means(t) for t in result.trajectories]),
        out.getvalue().encode(),
    )


class TestReferenceDifferential:
    """Column ingest equals the per-record reference in tests/conftest.py."""

    @pytest.mark.parametrize("chunk_rows", [ingest._CHUNK_ROWS, 97])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_dirty_feed(self, seed, chunk_rows, monkeypatch, caplog):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        text = dirty_feed_text(12, seed)
        table = read_adsb_csv(io.StringIO(text))
        shipped = ingest_outputs(table, clean_trajectories, aggregate_minutes, minute_means)
        shipped_log = ingest_log(caplog)
        caplog.clear()
        records = reference_read_adsb_csv(text)
        oracle = ingest_outputs(
            records, reference_clean_trajectories, reference_aggregate_minutes, reference_minute_means
        )
        assert shipped_log == ingest_log(caplog)
        assert len(table) == len(records)
        assert repr(table.to_records()) == repr(records)
        assert shipped == oracle
        summary = shipped[0]
        assert summary["kept"] > 0 and summary["incomplete"] and summary["invalid"] and summary["duplicate"]

    @pytest.mark.parametrize("chunk_rows", [ingest._CHUNK_ROWS, 97])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_strict_mode_raises_the_same_first_error(self, seed, chunk_rows, monkeypatch, caplog):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        text = dirty_feed_text(4, seed)
        with pytest.raises(MalformedRowError) as shipped:
            read_adsb_csv(io.StringIO(text), strict=True)
        shipped_log = ingest_log(caplog)
        caplog.clear()
        with pytest.raises(MalformedRowError) as oracle:
            reference_read_adsb_csv(text, strict=True)
        assert str(shipped.value) == str(oracle.value)
        assert shipped_log == ingest_log(caplog)

    def test_timestamp_past_64_bits_is_invalid_not_an_error(self):
        rows = [
            "60,1970-01-01 00:01:00,A1,1.0,2.0,3.0,4.0,5.0",
            f"{2**64},1970-01-01 00:01:00,A1,1.0,2.0,3.0,4.0,5.0",
            f"{2**64 + 1},1970-01-01 00:01:00,A1,1.0,2.0,3.0,4.0,5.0",
        ]
        table = read_adsb_csv(csv_source(*rows))
        assert [r.timestamp for r in table.to_records()] == [60, 2**64, 2**64 + 1]
        assert clean_trajectories(table).summary() == reference_clean_trajectories(table.to_records()).summary()
        assert clean_trajectories(table).summary() == {"kept": 0, "incomplete": 0, "invalid": 1, "duplicate": 0}


VALID_CELLS = {
    "longitude": (-180.0, 180.0, 13.611845),
    "latitude": (-90.0, 90.0, 50.489445),
    "altitude": (-500.0, 15000.0, 10058.4005),
    "velocity": (0.0, 1200.0, 968.5965),
    "heading": (0.0, 359.995, 125.005),
}


def value_cells(name: str):
    lo, hi, tie = VALID_CELLS[name]
    valid = st.one_of(st.floats(lo, hi), st.sampled_from((lo, hi, tie, -0.0)))
    defect = st.sampled_from((None, math.nan, math.inf, -math.inf, hi + 1.0))
    return st.one_of(*[valid] * 9, defect)


RAW_RECORDS = st.builds(
    RawRecord,
    timestamp=st.sampled_from((0, 30, 60, 61, 119, 120, None, 253402300800, -(2**70))),
    utc_time=st.sampled_from(("1970-01-01 00:00:00",) * 5 + (None,)),
    callsign=st.sampled_from(("A1", "B2", "A1", "B2", "", None)),
    **{name: value_cells(name) for name in VALID_CELLS},
)

#: Record lists in any order, part of them (or all) sent twice.
RECORD_FEEDS = st.lists(RAW_RECORDS, max_size=16).flatmap(
    lambda rs: st.integers(0, len(rs)).flatmap(lambda k: st.permutations(rs + rs[:k]))
)


class TestCleaningProperty:
    @given(RECORD_FEEDS)
    def test_matches_reference(self, records):
        shipped = clean_trajectories(records)
        oracle = reference_clean_trajectories(records)
        assert shipped.summary() == oracle.summary()
        assert repr(shipped.trajectories) == repr(oracle.trajectories)
        assert repr(RecordTable.from_records(records).to_records()) == repr(records)


WAYPOINTS = st.builds(
    Waypoint,
    timestamp=st.one_of(st.integers(-200, 400), st.integers(0, 59)),  # some buckets hold many
    longitude=st.floats(-180.0, 180.0),
    latitude=st.sampled_from((0.0, -0.0, 45.000005, -45.000005)),
    altitude=st.floats(-500.0, 15000.0),
    velocity=st.sampled_from((0.0, 100.0005, 900.25)),
    heading=st.one_of(
        st.floats(0.0, 360.0, exclude_max=True),
        # -1e-20 % 360 and the mean of the last two are exactly 360, which wraps to 0.
        st.sampled_from((0.0, 359.995, 180.0, 400.0, -1e-20, 283.9404064087847, 76.05959359121528)),
    ),
)


class TestAggregationProperty:
    @given(st.lists(WAYPOINTS, max_size=40))
    def test_matches_reference_bit_for_bit(self, waypoints):
        traj = Trajectory("X", tuple(waypoints))
        assert repr(minute_means(traj)) == repr(reference_minute_means(traj))
        assert repr(aggregate_minutes(traj)) == repr(reference_aggregate_minutes(traj))
