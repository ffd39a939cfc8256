import csv
import io
import logging
import math
import random
import sys
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flightcast import ingest, synth
from flightcast.domain import TIMESTAMP_RANGE, Trajectory, Waypoint
from flightcast.ingest import (
    MalformedRowError,
    RawRecord,
    aggregate_minutes,
    aggregate_trajectories,
    clean_trajectories,
    parse_header,
    read_adsb_csv,
    records_to_csv_text,
    write_records_csv,
    write_trajectories_csv,
    _utc_texts,
)

from conftest import (
    CSV_HEADER,
    minute_means,
    padded_utc_text,
    random_canonical_waypoint,
    read_row,
    reference_aggregate_minutes,
    reference_clean_trajectories,
    reference_minute_means,
    reference_read_adsb_csv,
    reference_write_trajectories_csv,
    records_table,
    reference_write_records_csv,
)

#: 1000-01-01 00:00:00 UTC.
FOUR_DIGIT_YEARS_START = -30610224000

TABLE_ROW = "1727926166,2024-10-3 3:29:26,3S528,13.61184,50.48944,10058.400,968.596,125.00"


def datetime_utc_text(timestamp: int) -> str:
    """utc_time as datetime.strftime writes it: a year before 1000 has fewer than four digits."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def record(callsign="FLT1", timestamp=0, longitude=10.0, latitude=20.0, altitude=10000.0,
           velocity=900.0, heading=90.0, utc_time=None) -> RawRecord:
    return RawRecord(
        timestamp=timestamp,
        utc_time=utc_time or datetime_utc_text(timestamp),
        callsign=callsign,
        longitude=longitude,
        latitude=latitude,
        altitude=altitude,
        velocity=velocity,
        heading=heading,
    )


class TestParseRecord:
    def test_reference_row(self):
        r = read_row(TABLE_ROW)
        assert r.timestamp == 1727926166
        assert r.utc_time == "2024-10-3 3:29:26"
        assert r.callsign == "3S528"
        assert r.longitude == 13.61184
        assert r.latitude == 50.48944
        assert r.altitude == 10058.400
        assert r.velocity == 968.596
        assert r.heading == 125.00

    def test_empty_cell_is_missing(self):
        r = read_row("1727926166,2024-10-3 3:29:26,3S528,,50.48944,10058.4,968.6,125.0")
        assert [name for name, value in vars(r).items() if value is None] == ["longitude"]

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRowError, match=r"row 2\): expected 8 cells, got 7"):
            read_row("1,2,3,4,5,6,7", strict=True)

    def test_non_numeric_tolerant(self):
        r = read_row("1,x,CS,abc,50.0,100.0,900.0,10.0")
        assert r.longitude is None

    def test_non_numeric_strict(self):
        with pytest.raises(MalformedRowError, match="longitude"):
            read_row("1,x,CS,abc,50.0,100.0,900.0,10.0", strict=True)

    def test_signed_and_fractional_values(self):
        r = read_row("5,x,CS,-103.25,+45.5,.5,900.0,10.0")
        assert r.longitude == -103.25
        assert r.latitude == 45.5
        assert r.altitude == 0.5

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])  # cut with str.split, or read by csv.reader
    def test_equal_text_cells_of_a_chunk_share_one_str(self, line_end):
        rows = [
            f"{60 * i},{datetime_utc_text(60 * i)},{callsign},1.0,2.0,3.0,4.0,5.0"
            for i in range(40)
            for callsign in ("A1", " B2 " if i % 2 else "B2", "C3")
        ]
        table = read_adsb_csv(io.StringIO(line_end.join([CSV_HEADER, *rows, ""])))
        assert len(table) == 120
        assert sorted(set(table.callsign)) == ["A1", "B2", "C3"]
        assert len({id(c) for c in table.callsign}) == 3
        assert len({id(t) for t in table.utc_time}) == len(set(table.utc_time)) == 40

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_blank_text_cells_are_missing_and_others_are_stripped(self, line_end):
        rows = [f"60,{cell},{cell},1.0,2.0,3.0,4.0,5.0" for cell in (" A1 ", "", "   ")]
        table = read_adsb_csv(io.StringIO(line_end.join([CSV_HEADER, *rows, ""])))
        assert table.callsign.tolist() == table.utc_time.tolist() == ["A1", None, None]
        assert table.missing[1:3].tolist() == [[False, True, True]] * 2

    def test_header_case_insensitive_extra_columns_ignored(self):
        header = "Timestamp,UTC_TIME,Callsign,Longitude,Latitude,Altitude,Velocity,Heading,Extra"
        r = read_row("1,x,CS,1.0,2.0,3.0,4.0,5.0,junk", header)
        assert r.longitude == 1.0
        with pytest.raises(MalformedRowError, match="missing required column"):
            parse_header(["timestamp", "utc_time", "callsign"])


class TestCleanTrajectories:
    def test_duplicate_flight_dropped(self):
        flight = [record(timestamp=60 * i) for i in range(5)]
        result = clean_trajectories(records_table(flight + flight))
        assert result.kept == 1
        assert result.duplicate == 1
        assert len(result.trajectories) == 1
        assert len(result.trajectories[0].waypoints) == 5

    @pytest.mark.parametrize("first", [10.0, 11.0])
    def test_first_of_two_parallel_candidates_wins(self, first):
        second = 21.0 - first
        flight = [record(timestamp=60 * i, longitude=first) for i in range(3)]
        flight += [record(timestamp=60 * i, longitude=second) for i in range(3)]
        result = clean_trajectories(records_table(flight))
        assert result.summary() == {"kept": 1, "incomplete": 0, "invalid": 0, "duplicate": 1}
        assert {w.longitude for w in result.trajectories[0].waypoints} == {first}

    def test_invalid_latitude_drops_trajectory(self):
        flight = [record(timestamp=60 * i) for i in range(3)]
        flight.append(record(timestamp=180, latitude=95.0))
        result = clean_trajectories(records_table(flight))
        assert result.invalid == 1
        assert result.kept == 0

    def test_empty_input(self):
        result = clean_trajectories(records_table([]))
        assert result.trajectories == []
        assert result.summary() == {"kept": 0, "incomplete": 0, "invalid": 0, "duplicate": 0}

    def test_missing_field_drops_trajectory(self):
        flight = [record(timestamp=0), record(timestamp=60, longitude=None)]
        result = clean_trajectories(records_table(flight))
        assert result.incomplete == 1
        assert result.kept == 0

    def test_kept_waypoints_are_rounded(self):
        result = clean_trajectories(records_table([record(longitude=13.611841)]))
        assert result.trajectories[0].waypoints[0].longitude == 13.61184

    def test_output_sorted_by_callsign(self):
        records = [record(callsign="BBB"), record(callsign="AAA")]
        result = clean_trajectories(records_table(records))
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
        result = clean_trajectories(records_table(records))
        assert result.total == result.kept + result.incomplete + result.invalid + result.duplicate
        assert result.kept == len(result.trajectories)

        # Idempotence: re-cleaning the survivors changes nothing.
        again = clean_trajectories(
            records_table(
                [
                    record(callsign=t.callsign, timestamp=w.timestamp, longitude=w.longitude,
                           latitude=w.latitude, altitude=w.altitude, velocity=w.velocity,
                           heading=w.heading)
                    for t in result.trajectories
                    for w in t.waypoints
                ]
            )
        )
        assert again.summary()["kept"] == result.kept
        assert again.incomplete == again.invalid == again.duplicate == 0
        assert again.trajectories == result.trajectories

    def test_traced_peak_stays_within_two_and_a_half_tables(self, tmp_path):
        # Each row-length sort key and index array is freed at its last use, so the high-water
        # mark is the table, the kept rows' columns and one batch of rounding, not the keys besides.
        raw = tmp_path / "raw.csv"
        write_records_csv(synth.generate_corpus(80, 3)[0], raw)
        tracemalloc.start()
        try:
            table = read_adsb_csv(raw)
            tracemalloc.reset_peak()
            clean_trajectories(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = (table.timestamp, table.utc_time, table.callsign, table.values, table.missing)
        assert peak <= 2.5 * sum(column.nbytes for column in columns)


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


class TestByteOrderMark:
    """One leading U+FEFF is dropped from the first line, of a path or a stream alike."""

    TEXT = f"{CSV_HEADER}\n{TABLE_ROW}\n1727926226,x,CS2,1.0,2.0,3.0,4.0,5.0\n"

    @staticmethod
    def read(text: str, via: str, tmp_path):
        if via == "stream":
            return read_adsb_csv(io.StringIO(text))
        path = tmp_path / "feed.csv"
        path.write_bytes(text.encode("utf-8"))
        return read_adsb_csv(path)

    def test_decoded_stream_with_bom(self):
        # A file opened with encoding="utf-8" still starts with the BOM.
        plain = read_adsb_csv(io.StringIO(self.TEXT))
        assert list(read_adsb_csv(io.StringIO("\ufeff" + self.TEXT))) == list(plain)

    @pytest.mark.parametrize("via", ["path", "stream"])
    def test_bom_before_quoted_header_cell(self, via, tmp_path):
        quoted = '"timestamp"' + self.TEXT.removeprefix("timestamp")
        plain = read_adsb_csv(io.StringIO(self.TEXT))
        assert list(self.read("\ufeff" + quoted, via, tmp_path)) == list(plain)

    @pytest.mark.parametrize("via", ["path", "stream"])
    def test_only_one_bom_dropped(self, via, tmp_path):
        with pytest.raises(MalformedRowError, match="missing required column 'timestamp'"):
            self.read("\ufeff\ufeff" + self.TEXT, via, tmp_path)

    @pytest.mark.parametrize("via", ["path", "stream"])
    def test_bom_only_file_is_empty(self, via, tmp_path):
        with pytest.raises(MalformedRowError, match="^empty file: header row required$"):
            self.read("\ufeff", via, tmp_path)


def csv_source(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((CSV_HEADER,) + rows) + "\n")


def ingest_log(caplog) -> list[tuple[str, str]]:
    return [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "flightcast.ingest"]


class TestUtcAgreementWarnings:
    def test_non_padded_agreeing_time_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        read_row(TABLE_ROW)
        assert ingest_log(caplog) == []

    def test_canonical_agreeing_time_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        read_row(TABLE_ROW.replace("2024-10-3 3:29:26", "2024-10-03 03:29:26"))
        assert ingest_log(caplog) == []

    def test_canonical_disagreeing_time_warns_once_naming_the_row(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        read_row(TABLE_ROW.replace("2024-10-3 3:29:26", "2024-10-03 03:29:27"))
        assert ingest_log(caplog) == [
            ("WARNING", "utc_time '2024-10-03 03:29:27' disagrees with timestamp 1727926166 (row 2)")
        ]

    def test_unparseable_time_logs_only_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        read_row(TABLE_ROW.replace("2024-10-3 3:29:26", "yesterday"))
        assert ingest_log(caplog) == [("DEBUG", "unparseable utc_time 'yesterday' (row 2)")]

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
        read_row("253402300800,10000-01-01 00:00:00,A1,1.0,2.0,3.0,4.0,5.0")
        assert ingest_log(caplog) == [("DEBUG", "unparseable utc_time '10000-01-01 00:00:00' (row 2)")]

    @pytest.mark.parametrize(
        "timestamp",
        [-62135596801, -62135596800, -30610224001, -30610224000, -1, 0, 1727926166, 253402300799, 253402300800],
    )
    def test_utc_text_matches_datetime(self, timestamp):
        # The bounds of TIMESTAMP_RANGE and one second past each, year 1000 and the epoch.
        if TIMESTAMP_RANGE[0] <= timestamp <= TIMESTAMP_RANGE[1]:
            assert _utc_texts(np.array([timestamp])).tolist() == [padded_utc_text(timestamp)]
        else:
            with pytest.raises(ValueError, match=f"timestamp {timestamp} lies outside years 0001-9999"):
                _utc_texts(np.array([0, timestamp, 60]))

    @given(st.lists(st.one_of(st.integers(*TIMESTAMP_RANGE), st.sampled_from(TIMESTAMP_RANGE)), max_size=20))
    def test_utc_texts_are_padded_datetime_text_that_strptime_reads_back(self, timestamps):
        texts = _utc_texts(np.array(timestamps, dtype=np.int64)).tolist()
        assert texts == [padded_utc_text(t) for t in timestamps]
        for text, timestamp in zip(texts, timestamps):
            parsed = datetime.strptime(text, "%Y-%m-%d %H:%M:%S").replace(tzinfo=timezone.utc)
            assert int(parsed.timestamp()) == timestamp

    def test_trajectory_before_year_1000_reads_back_without_utc_lines(self, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        start = -45600000000  # 0524-12-29 05:20:00 UTC
        traj = Trajectory("OLD1", tuple(Waypoint(start + 60 * i, 10.0, 20.0, 1000.0, 900.0, 90.0) for i in range(2)))
        out = io.StringIO()
        write_trajectories_csv([traj], out)
        table = read_adsb_csv(io.StringIO(out.getvalue()))
        assert ingest_log(caplog) == []
        assert [text[:5] for text in table.utc_time.tolist()] == ["0524-", "0524-"]
        assert clean_trajectories(table).trajectories == [traj]


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


#: Moves a flight of the 2020s to the 6th century; a whole number of days.
ANCIENT_SHIFT_S = 1500 * 365 * 86400
QUOTED_CALLSIGN_PREFIX = 'Q,"'


def csv_line(cells: list[str]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(cells)
    return out.getvalue()


def dirty_feed_text(flights: int, seed: int) -> str:
    """A shuffled synthetic feed holding every defect ingest must count, log or skip.

    It has a duplicated flight, repeated timestamps, disagreeing,
    non-padded, unparseable and empty utc_time cells, empty, non-numeric,
    padded, non-ASCII, overflowing and out-of-range numbers, timestamps past
    year 9999 and past 64 bits, a missing callsign, exact rounding ties,
    short and long rows, and blank lines. Two clean flights are kept: one
    whose callsign needs csv quoting and one from before year 1000.
    """
    records, _ = synth.generate_corpus(flights, seed)
    header, *lines = records_to_csv_text(records).splitlines()
    rows = [line.split(",") for line in lines]
    rng = random.Random(seed)
    clean_flights = []  # the last three flights are kept clean of random defects
    for _ in range(3):
        clean_flights.append([row for row in rows if row[2] == rows[-1][2]])
        rows = rows[: -len(clean_flights[-1])]
    twin, quoted, ancient = clean_flights

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
        row[1] = datetime_utc_text(int(row[0]) + shift)
    row = some_row()
    stamp = datetime.fromtimestamp(int(row[0]), tz=timezone.utc)
    row[1] = f"{stamp.year}-{stamp.month}-{stamp.day} {stamp.hour}:{stamp.minute}:{stamp.second}"
    some_row()[1] = "yesterday"
    some_row()[1] = ""
    some_row()[0] = "300000000000"
    some_row()[0] = "-99999999999999999999999"
    some_row()[0] = "9" * 5000  # more digits than int() converts
    some_row()[0] = ""
    some_row()[2] = ""
    for row in quoted:  # a callsign csv must quote
        row[2] = QUOTED_CALLSIGN_PREFIX + row[2]
    for row in ancient:  # before year 1000, with utc_time as strftime writes it: three year digits
        row[0] = str(int(row[0]) - ANCIENT_SHIFT_S)
        row[1] = datetime_utc_text(int(row[0]))
    rows += twin + [list(row) for row in twin] + quoted + ancient
    rng.shuffle(rows)
    text_rows = [csv_line(row) for row in rows]
    for extra in ("", "1,2,3", ",".join(rows[0] + ["x"]), ""):
        text_rows.insert(rng.randrange(len(text_rows)), extra)
    return "\n".join([header] + text_rows) + "\n"


def ingest_outputs(records, clean, aggregate, means, write) -> tuple:
    """Everything cleaning, aggregation and the writer produce, in comparable form."""
    result = clean(records)
    aggregated = [aggregate(t) for t in result.trajectories]
    out = io.StringIO()
    write(aggregated, out)
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
        shipped = ingest_outputs(table, clean_trajectories, aggregate_minutes, minute_means, write_trajectories_csv)
        shipped_log = ingest_log(caplog)
        caplog.clear()
        records = reference_read_adsb_csv(text)
        oracle = ingest_outputs(
            records,
            reference_clean_trajectories,
            reference_aggregate_minutes,
            reference_minute_means,
            reference_write_trajectories_csv,
        )
        assert shipped_log == ingest_log(caplog)
        assert len(table) == len(records)
        assert repr(list(table)) == repr(records)
        assert shipped == oracle
        summary = shipped[0]
        assert summary["kept"] > 0 and summary["incomplete"] and summary["invalid"] and summary["duplicate"]
        written = list(csv.reader(io.StringIO(shipped[4].decode())))
        assert any(row[2].startswith(QUOTED_CALLSIGN_PREFIX) for row in written)
        assert any(int(row[0]) < FOUR_DIGIT_YEARS_START for row in written[1:])

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
        assert [r.timestamp for r in table] == [60, 2**64, 2**64 + 1]
        assert clean_trajectories(table).summary() == reference_clean_trajectories(list(table)).summary()
        assert clean_trajectories(table).summary() == {"kept": 0, "incomplete": 0, "invalid": 1, "duplicate": 0}

    @pytest.mark.parametrize("strict", [False, True])
    def test_timestamp_past_the_int_digit_limit_is_invalid_not_an_error(self, strict, caplog):
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        many = sys.get_int_max_str_digits() + 700
        text = csv_source(
            "60,1970-01-01 00:01:00,A1,1.0,2.0,3.0,4.0,5.0",
            f"{'9' * many},1970-01-01 00:01:00,B2,1.0,2.0,3.0,4.0,5.0",
            f"-{'9' * many},1970-01-01 00:01:00,C3,1.0,2.0,3.0,4.0,5.0",
            f"{'0' * many}120,1970-01-01 00:02:00,D4,1.0,2.0,3.0,4.0,5.0",
        ).getvalue()
        table = read_adsb_csv(io.StringIO(text), strict=strict)
        shipped_log = ingest_log(caplog)
        caplog.clear()
        records = reference_read_adsb_csv(text, strict=strict)
        assert shipped_log == ingest_log(caplog)
        assert repr(list(table)) == repr(records)
        assert records[3].timestamp == 120
        assert clean_trajectories(table).summary() == {"kept": 2, "incomplete": 0, "invalid": 2, "duplicate": 0}

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("scan_cells", [ingest._SCAN_CELLS, 4])
    @pytest.mark.parametrize("chunk_rows", [ingest._CHUNK_ROWS, 97])
    @pytest.mark.parametrize("column", [0, 5])
    @pytest.mark.parametrize("every_row", [False, True])
    @pytest.mark.parametrize("bad", ["1e5", " 7e1 ", "1.5\n", "N\0L", "n/a", "3é", "4\ud800"])
    def test_off_charset_cells_first_in_the_middle_last_and_adjacent(self, bad, every_row, column, chunk_rows,
                                                                    scan_cells, strict, monkeypatch, caplog):
        """Each block of cells holding such a cell is stripped cell by cell; a block edge splits no cell."""
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(ingest, "_SCAN_CELLS", scan_cells)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        count = 300
        bad_rows = range(count) if every_row else {0, scan_cells - 1, scan_cells, count // 2, count // 2 + 1, count - 1}
        rows = [[str(60 * k), "", "A1", "1.5", "-2.25", "3000", "400.0", "90.0"] for k in range(count)]
        for k in bad_rows:
            rows[k][column] = bad
        text = CSV_HEADER + "\n" + "".join(csv_line(cells) + "\n" for cells in rows)
        shipped = read_outcome(lambda t, s: read_adsb_csv(io.StringIO(t), strict=s), text, strict, caplog)
        assert shipped == read_outcome(reference_read_adsb_csv, text, strict, caplog)


#: A field size limit the differential test lowers csv's to, and cells either side of it.
FIELD_LIMIT = 100
TEXT_CELLS = st.sampled_from(("A1", "B2", "", " C3 ", 'Q,"X', 'say ""hi""', "x\ny", "r\r", "N\0L", "L" * 90))
ROW_CELLS = st.tuples(
    st.sampled_from(("0", "60", "1727926166", "", "x1", " 120 ")),
    st.sampled_from(("1970-01-01 00:00:00", "1970-01-01 00:01:00", "2024-10-03 03:29:26", "yesterday", "")),
    TEXT_CELLS,
    *[st.sampled_from(("1.5", "-20.25", "100", "", "abc", " 7 "))] * 5,
).map(list)


@st.composite
def csv_lines(draw) -> str:
    """One line: a row of 7, 8 or 9 cells, quoted as csv.writer quotes them or
    joined bare (so a quote may open a field that runs on), or a blank line,
    or a row with one cell past FIELD_LIMIT."""
    kind = draw(st.sampled_from(("row",) * 8 + ("short", "long", "blank", "huge")))
    if kind == "blank":
        return ""
    cells = draw(ROW_CELLS)
    if kind == "short":
        cells.pop()
    elif kind == "long":
        cells.append(draw(TEXT_CELLS))
    elif kind == "huge":
        cells[2] = "H" * draw(st.integers(FIELD_LIMIT + 1, FIELD_LIMIT + 20))
    return csv_line(cells) if draw(st.booleans()) else ",".join(cells)


@st.composite
def csv_texts(draw) -> str:
    """A header, then lines ending in LF, CRLF or a lone CR; the last may have no line end."""
    lines = draw(st.lists(csv_lines(), max_size=12))
    ends = [draw(st.sampled_from(("\n",) * 6 + ("\r\n", "\r"))) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return CSV_HEADER + "\n" + "".join(map(str.__add__, lines, ends))


def read_outcome(read, text: str, strict: bool, caplog) -> tuple:
    """What ``read`` returns or raises on ``text``, and the ingest log lines it wrote."""
    caplog.clear()
    try:
        outcome = repr(list(read(text, strict)))
    except (MalformedRowError, csv.Error) as error:
        outcome = (type(error), str(error))
    return outcome, ingest_log(caplog)


class TestChunkedReaderProperty:
    """Cut at commas and newlines or read by csv.reader, chunks read as one csv.reader pass does."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 97])
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # set once per test, cleared per draw
    @given(text=csv_texts(), low_limit=st.booleans())
    def test_matches_the_reference(self, chunk_rows, strict, monkeypatch, caplog, text, low_limit):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        limit = csv.field_size_limit(FIELD_LIMIT if low_limit else csv.field_size_limit())
        try:
            shipped = read_outcome(lambda t, s: read_adsb_csv(io.StringIO(t), strict=s), text, strict, caplog)
            oracle = read_outcome(reference_read_adsb_csv, text, strict, caplog)
        finally:
            csv.field_size_limit(limit)
        assert shipped == oracle

    def test_only_the_header_and_chunks_that_need_quoting_rules_go_through_csv_reader(self, monkeypatch):
        """A chunk also goes through csv.reader where one of its rows is short or long."""
        lines = dirty_feed_text(12, 3).splitlines(True)
        text = "".join(line for line in lines if '"' not in line and line.count(",") == 7)
        header, first, *rest = text.splitlines(True)
        cells = first.rstrip("\n").split(",")
        short = header + first + ",".join(cells[:7]) + "\n" + "".join(rest)
        cells[2] = 'Q,"X'
        quoted = header + first + csv_line(cells) + "\n" + "".join(rest)
        calls = []
        reader = csv.reader

        def counting_reader(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counting_reader)
        plain = read_adsb_csv(io.StringIO(text))
        assert len(calls) == 1  # the header
        mixed = read_adsb_csv(io.StringIO(quoted))
        assert len(calls) == 3  # its header, then the chunk holding the quoted callsign
        assert len(mixed) == len(plain) + 1
        assert mixed.callsign[1] == 'Q,"X'
        assert len(read_adsb_csv(io.StringIO(short))) == len(plain)
        assert len(calls) == 5  # its header, then the chunk holding the short row


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
        shipped = clean_trajectories(records_table(records))
        oracle = reference_clean_trajectories(records)
        assert shipped.summary() == oracle.summary()
        assert repr(shipped.trajectories) == repr(oracle.trajectories)
        assert repr(list(records_table(records))) == repr(records)


#: Records with any float (tiny, huge, non-finite) and any text, which csv may have to quote.
CSV_RECORDS = st.builds(
    RawRecord,
    timestamp=st.one_of(st.none(), st.integers(), st.sampled_from((2**70, -(2**64)))),
    utc_time=st.one_of(st.none(), st.text(max_size=6), st.sampled_from(("2024-10-03 03:29:26", "a,b", 'q"'))),
    callsign=st.one_of(st.none(), st.text(max_size=6), st.sampled_from(("SYN000", 'Q,"X', "x\ny", "r\r"))),
    **{
        name: st.one_of(st.none(), st.floats(), st.sampled_from((7.5e-14, 1e16, -1e22, 5e-324)))
        for name in VALID_CELLS
    },
)


class TestRecordsCsvWriter:
    @given(st.lists(CSV_RECORDS, max_size=12))
    def test_matches_the_per_row_writer(self, records):
        shipped, oracle = io.StringIO(), io.StringIO()
        write_records_csv(records_table(records), shipped)
        reference_write_records_csv(records, oracle)
        assert shipped.getvalue() == oracle.getvalue()

    def test_reads_back_what_it_wrote(self):
        records = [record(timestamp=60 * i, longitude=7.5e-14 * i, callsign='Q,"X') for i in range(3)]
        records.append(record(timestamp=180, latitude=None))
        table = read_adsb_csv(io.StringIO(records_to_csv_text(records_table(records))))
        assert repr(list(table)) == repr(records)


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


class TestBatchAggregation:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # set again per draw
    @given(chunk_rows=st.sampled_from((1, 7, 40)), waypoint_lists=st.lists(st.lists(WAYPOINTS, max_size=12)))
    def test_equals_per_trajectory_aggregation(self, monkeypatch, chunk_rows, waypoint_lists):
        """Unsorted timestamps, one-fix minutes, empty trajectories and batches that straddle _CHUNK_ROWS."""
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        trajectories = [Trajectory(f"T{i}", tuple(waypoints)) for i, waypoints in enumerate(waypoint_lists)]
        batched = repr(aggregate_trajectories(trajectories))
        assert batched == repr([aggregate_minutes(t) for t in trajectories])
        assert batched == repr([reference_aggregate_minutes(t) for t in trajectories])


#: Cells a numeric column must read one by one: empty, padded, exponent, NaN,
#: non-ASCII digits, underscores, two signs, two points, more digits than int converts.
ODD_CELLS = ("", " 12.5 ", "1e5", "NaN", "\u0661\u0662", "1_0", "+-1", "1.2.3", "9" * 4301)


def numeric_cells(plain):
    return st.one_of(*[st.sampled_from(plain)] * 4, st.sampled_from(ODD_CELLS))


NUMERIC_ROWS = st.tuples(
    numeric_cells(("60", "-120", "1727926166", "+7")),
    *[numeric_cells(("1.5", "-20.25", "100", ".5", "7.", "+0"))] * 5,
).map(lambda c: [c[0], "1970-01-01 00:01:00", "A1", *c[1:]])


class TestBadCellsAlone:
    """Each odd cell reads as the per-cell reference (strip, grammar, convert) reads it, and only it."""

    @pytest.mark.parametrize("strict", [False, True])
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # set again per draw, cleared per draw
    @given(chunk_rows=st.sampled_from((3, ingest._CHUNK_ROWS)), rows=st.lists(NUMERIC_ROWS, max_size=20))
    def test_matches_the_per_cell_reference(self, strict, monkeypatch, caplog, chunk_rows, rows):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        text = CSV_HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows)
        shipped = read_outcome(lambda t, s: read_adsb_csv(io.StringIO(t), strict=s), text, strict, caplog)
        oracle = read_outcome(reference_read_adsb_csv, text, strict, caplog)
        assert shipped == oracle
        if not strict:
            table = read_adsb_csv(io.StringIO(text))
            assert np.array_equal(table.missing, records_table(reference_read_adsb_csv(text)).missing)


class TestUtcWarningsForSharedSeconds:
    @pytest.mark.parametrize("chunk_rows", [64, ingest._CHUNK_ROWS])
    def test_same_warnings_for_the_same_rows_in_the_same_order(self, chunk_rows, monkeypatch, caplog):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        caplog.set_level(logging.DEBUG, logger="flightcast.ingest")
        rng = random.Random(5)
        rows = []
        for i in range(400):  # 400 reports in five distinct seconds
            timestamp = 1727926166 + 60 * rng.randrange(5)
            utc_time = rng.choice([
                padded_utc_text(timestamp), padded_utc_text(timestamp + 1), datetime_utc_text(timestamp - 3600),
                "yesterday", padded_utc_text(timestamp), padded_utc_text(timestamp),
            ])
            rows.append(f"{timestamp},{utc_time},A{i % 7},1.0,2.0,3.0,4.0,5.0")
        text = csv_source(*rows).getvalue()
        read_adsb_csv(io.StringIO(text))
        shipped = ingest_log(caplog)
        caplog.clear()
        reference_read_adsb_csv(text)
        assert shipped == ingest_log(caplog)
        assert sum(level == "WARNING" for level, _ in shipped) > 100
