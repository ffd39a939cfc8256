"""Seeded inputs for the three benchmark workloads, and their oracles.

Run as a script, this module is one set-up of a workload: it writes the
workload's input files and an ``oracle.json`` into a directory, then exits.
The benchmark runs it in a child process so that set-up memory never shows
in the measuring process's peak RSS.

    python3 perfbench/inputs.py <feed|lstm|endpoint> <seed> <out_dir> [--spans FILE]

The oracles are computed here, independently of the program under test:
the feed's expected cleaning counts come from the defect injector's own
tally, and the endpoint's expected parse classes and MAE/RMSE come from the
replies this module formats for the stub server.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import Counter
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ATTRIBUTES = ("longitude", "latitude", "altitude", "velocity", "heading")
DECIMALS = (5, 5, 3, 3, 2)
HEADER = "timestamp,utc_time,callsign,longitude,latitude,altitude,velocity,heading"

# Corpus sizes. The feed is the ROADMAP corpus. The other two are cut to a
# fixed number of windows, so that a pass does the same work on every seed,
# and sized so that one pass takes a few seconds on a 2-core machine.
FEED_FLIGHTS = 200
LSTM_FLIGHTS = 60
LSTM_TRAIN_WINDOWS = 100
LSTM_TEST_WINDOWS = 170
LSTM_TEST_SEED_OFFSET = 100_000
ENDPOINT_FLIGHTS = 90
ENDPOINT_WINDOWS = 320
ENDPOINT_HORIZON = 4
STUB_DELAY_MS = 5.0

# Share of flights that receive each defect; each defect class hits at
# least one flight and no flight gets two defects. Short and long CSV rows
# are deliberately absent: at the seed commit one such row aborts the whole
# ingest stage (ROADMAP item 4e), so no operation could succeed.
DEFECT_SHARES = {
    "empty_cell": 0.015,
    "non_numeric": 0.015,
    "out_of_range": 0.02,
    "duplicate": 0.02,
    "utc_mismatch": 0.02,
}
NUMERIC_COLUMNS = (3, 4, 5, 6, 7)
NON_NUMERIC_CELLS = ("n/a", "NaN", "1e5", "--", "0x1F", "?")
OUT_OF_RANGE = (
    (3, "181.5"), (3, "-190.0"), (4, "91.0"), (4, "-95.25"),
    (5, "-750.0"), (6, "-12.5"), (7, "360.0"), (7, "400.5"),
)
UTC_SHIFTS_S = (3600, -3600, 1, 86400)

# Reply classes the stub serves, with their share of windows and the parse
# outcome each must produce.
REPLY_SHARES = (
    ("exact", 0.70), ("prose", 0.08), ("extra_tuple", 0.07),
    ("empty", 0.05), ("truncated", 0.05), ("sign_flip", 0.05),
)
EXPECTED_OUTCOME = {
    "exact": "ok", "prose": "ok", "extra_tuple": "ok",
    "empty": "missing", "truncated": "format", "sign_flip": "severe",
}
# Largest perturbation of a scored reply, in units of the last decimal.
PERTURB_UNITS = (40, 40, 2000, 3000, 150)


def utc_text(timestamp: int) -> str:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def number_text(value: float) -> str:
    """Shortest round-trip decimal, positional (the raw grammar has no exponent)."""
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


# --- feed ------------------------------------------------------------------


def defect_plan(callsigns: list[str], seed: int) -> dict[str, str]:
    """Assign each defect class to its own disjoint set of flights."""
    counts = {kind: max(1, round(share * len(callsigns))) for kind, share in DEFECT_SHARES.items()}
    if sum(counts.values()) > len(callsigns):
        raise ValueError(f"{len(callsigns)} flights are too few for {sum(counts.values())} defects")
    rng = random.Random(seed)
    chosen = rng.sample(callsigns, sum(counts.values()))
    plan = {}
    for kind, count in counts.items():
        for _ in range(count):
            plan[chosen.pop()] = kind
    return plan


def feed_lines(records, seed: int) -> tuple[list[str], dict]:
    """Raw CSV lines (header first) of a dirty, receiver-ordered feed.

    ``records`` are clean generated flights. Defects are injected per the
    plan, then every row is stably ordered by timestamp, as a receiver logs
    interleaved flights. Returns the lines and the injector's tally of the
    cleaning counts and UTC-disagreement rows the program should report.
    """
    flights: dict[str, list[list[str]]] = {}
    for r in records:
        flights.setdefault(r.callsign, []).append(
            [str(r.timestamp), r.utc_time, r.callsign]
            + [number_text(v) for v in (r.longitude, r.latitude, r.altitude, r.velocity, r.heading)]
        )
    plan = defect_plan(sorted(flights), seed)
    rng = random.Random(seed + 1)
    utc_rows = 0
    rows: list[list[str]] = []
    for callsign, flight in flights.items():
        kind = plan.get(callsign)
        if kind == "empty_cell":
            flight[rng.randrange(len(flight))][rng.choice(NUMERIC_COLUMNS)] = ""
        elif kind == "non_numeric":
            flight[rng.randrange(len(flight))][rng.choice(NUMERIC_COLUMNS)] = rng.choice(NON_NUMERIC_CELLS)
        elif kind == "out_of_range":
            column, text = rng.choice(OUT_OF_RANGE)
            flight[rng.randrange(len(flight))][column] = text
        elif kind == "utc_mismatch":
            span = min(len(flight), rng.randint(30, 120))
            start = rng.randrange(len(flight) - span + 1)
            shift = rng.choice(UTC_SHIFTS_S)
            for row in flight[start : start + span]:
                row[1] = utc_text(int(row[0]) + shift)
            utc_rows += span
        for row in flight:
            rows.append(row)
            if kind == "duplicate":
                rows.append(list(row))
    rows.sort(key=lambda row: int(row[0]))

    kinds = Counter(plan.values())
    incomplete = kinds["empty_cell"] + kinds["non_numeric"]
    tally = {
        "cleaning": {
            "kept": len(flights) - incomplete - kinds["out_of_range"],
            "incomplete": incomplete,
            "invalid": kinds["out_of_range"],
            "duplicate": kinds["duplicate"],
        },
        "utc_mismatch_rows": utc_rows,
        "records": len(rows),
        "kept_callsigns": sorted(
            c for c in flights if plan.get(c) not in ("empty_cell", "non_numeric", "out_of_range")
        ),
    }
    return [HEADER] + [",".join(row) for row in rows], tally


def write_feed(records, seed: int, path: Path) -> dict:
    lines, tally = feed_lines(records, seed)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tally


# --- clean inputs for the lstm and endpoint workloads ------------------------


def clean_trajectories(records):
    """Minute-aggregated trajectories, through the program's own ingest."""
    from flightcast import ingest

    result = ingest.clean_trajectories(records)
    return [ingest.aggregate_minutes(t) for t in result.trajectories]


def first_windows(trajectories, horizon: int, count: int):
    """Leading trajectories, the last one cut, holding exactly ``count`` windows."""
    from flightcast import windowing
    from flightcast.domain import Trajectory

    kept, total = [], 0
    for traj in trajectories:
        windows = windowing.sample_windows(traj, horizon)
        if total + len(windows) >= count:
            end = windows[count - total - 1].targets[-1].timestamp
            kept.append(Trajectory(traj.callsign, tuple(w for w in traj.waypoints if w.timestamp <= end)))
            return kept
        total += len(windows)
        kept.append(traj)
    raise ValueError(f"corpus holds {total} horizon-{horizon} windows, fewer than {count}")


def write_clean_csv(records, horizon: int, windows: int, path: Path) -> int:
    """Clean CSV from which ``sample --horizon`` yields exactly ``windows`` windows."""
    from flightcast import ingest

    trajectories = first_windows(clean_trajectories(records), horizon, windows)
    ingest.write_trajectories_csv(trajectories, path)
    return len(trajectories)


# --- endpoint stub replies ---------------------------------------------------


def tuple_text(values) -> str:
    return "(" + ", ".join(f"{v:.{d}f}" for v, d in zip(values, DECIMALS)) + ")"


def prompt_key(window_obj: dict) -> str:
    """Digest of the user turn the program must send for this window."""
    user = "\n".join(tuple_text(row[1:]) for row in window_obj["input"])
    return hashlib.sha256(user.encode("utf-8")).hexdigest()


def _perturbed(row: list[float], rng: random.Random) -> list[str]:
    """One target waypoint moved by whole units of its last decimal.

    Heading stays in [0, 360) and altitude and velocity stay >= 0, so a
    stricter range check in the parser would not reclassify the reply.
    """
    cells = []
    for index, (value, places, units) in enumerate(zip(row[1:], DECIMALS, PERTURB_UNITS)):
        quantum = Decimal(1).scaleb(-places)
        base = Decimal(repr(float(value))).quantize(quantum)
        step = rng.randint(-units, units) * quantum
        moved = base + step
        if (index == 4 and not (0 <= moved < 360)) or (index in (2, 3) and moved < 0):
            moved = base - step
        cells.append(format(moved, f".{places}f"))
    return cells


def stub_replies(window_objs: list[dict], seed: int) -> tuple[dict, dict]:
    """The stub's reply table and the oracle for one window list."""
    rng = random.Random(seed + 2)
    names = [name for name, _ in REPLY_SHARES]
    weights = [share for _, share in REPLY_SHARES]
    replies: dict[str, list[str]] = {}
    classes: list[str] = []
    pairs: list[tuple[list[float], list[float]]] = []
    for obj in window_objs:
        kind = rng.choices(names, weights)[0]
        cells = [_perturbed(row, rng) for row in obj["target"]]
        tuples = ["(" + ", ".join(c) + ")" for c in cells]
        if kind == "exact":
            text = "\n".join(tuples)
        elif kind == "prose":
            text = (
                "Here is the forecast for the next waypoints:\n"
                + "\n".join(tuples)
                + "\nThe aircraft keeps its current track (no turns expected)."
            )
        elif kind == "extra_tuple":
            text = "\n".join(tuples + [tuples[-1]])
        elif kind == "empty":
            text = ""
        elif kind == "truncated":
            text = "\n".join(tuples[:-1] + ["(" + ", ".join(cells[-1][:2])])
        else:  # sign_flip
            text = "\n".join("(-" + t[1:] for t in tuples)
        if EXPECTED_OUTCOME[kind] == "ok":
            pairs.extend((row[1:], [float(c) for c in cell]) for row, cell in zip(obj["target"], cells))
        key = prompt_key(obj)
        if key in replies:
            raise ValueError("two windows share one prompt; the reply table would be ambiguous")
        replies[key] = [kind, text]
        classes.append(kind)

    outcomes = Counter(EXPECTED_OUTCOME[kind] for kind in classes)
    metrics = {}
    for col, name in enumerate(ATTRIBUTES):
        errors = [abs(truth[col] - pred[col]) for truth, pred in pairs]
        metrics[name] = {
            "mae": math.fsum(errors) / len(errors),
            "rmse": math.sqrt(math.fsum(e * e for e in errors) / len(errors)),
        }
    oracle = {
        "windows": len(window_objs),
        "classes": classes,
        "outcomes": {k: outcomes[k] for k in ("ok", "missing", "format", "severe")},
        "attributes": metrics,
    }
    return {"delay_ms": STUB_DELAY_MS, "replies": replies}, oracle


# --- one set-up per workload ----------------------------------------------


def prepare(workload: str, seed: int, out_dir: Path) -> dict:
    """Write a workload's inputs and oracle into out_dir; return the oracle."""
    from flightcast import synth, windowing

    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "feed":
        records, _ = synth.generate_corpus(FEED_FLIGHTS, seed)
        oracle = write_feed(records, seed, out_dir / "raw.csv")
    elif workload == "lstm":
        train, _ = synth.generate_corpus(LSTM_FLIGHTS, seed)
        test, _ = synth.generate_corpus(LSTM_FLIGHTS, seed + LSTM_TEST_SEED_OFFSET)
        oracle = {
            "train_trajectories": write_clean_csv(train, 1, LSTM_TRAIN_WINDOWS, out_dir / "train.csv"),
            "test_trajectories": write_clean_csv(test, 8, LSTM_TEST_WINDOWS, out_dir / "test.csv"),
        }
    elif workload == "endpoint":
        records, _ = synth.generate_corpus(ENDPOINT_FLIGHTS, seed)
        trajectories = first_windows(clean_trajectories(records), ENDPOINT_HORIZON, ENDPOINT_WINDOWS)
        windows = [w for t in trajectories for w in windowing.sample_windows(t, ENDPOINT_HORIZON)]
        windowing.write_windows_jsonl(windows, out_dir / "windows.jsonl")
        with open(out_dir / "windows.jsonl", encoding="utf-8") as fh:
            objs = [json.loads(line) for line in fh]
        table, oracle = stub_replies(objs, seed)
        (out_dir / "stub_table.json").write_text(json.dumps(table), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out_dir / "oracle.json").write_text(json.dumps(oracle, sort_keys=True), encoding="utf-8")
    return oracle


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    if spans_path is None:
        prepare(workload, seed, out_dir)
        return 0
    import flightcast.synth
    from tracer import Tracer

    tracer = Tracer()
    with tracer.patched([(flightcast.synth, "generate_corpus", "synth.generate_corpus")]):
        prepare(workload, seed, out_dir)
    tracer.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
