"""Clean a raw ADS-B feed and slice it into prediction windows.

Shows the cleaning rules (incomplete / invalid / duplicate trajectories
are dropped with counts), minute-level aggregation with a circular mean
for headings, and the continuity-aware sliding window. Run:

    python demos/02_ingest_and_windows.py
"""

import dataclasses
import io

from flightcast.domain import Trajectory
from flightcast.ingest import (
    RecordTable,
    aggregate_minutes,
    clean_trajectories,
    read_adsb_csv,
    records_to_csv_text,
)
from flightcast.synth import FlightSpec, generate_corpus, generate_flight
from flightcast.windowing import default_stride, sample_windows

records, specs = generate_corpus(count=6, base_seed=5)

# Sabotage the feed the way real feeds are broken: one flight arrives
# twice (its spec regenerates it row for row), and another contains an
# impossible latitude.
duplicate = generate_flight(specs[0])
bad = generate_flight(FlightSpec(seed=77, callsign="BROKEN", cruise_duration_min=5))
values = bad.values.copy()
values[1, 10] = 95.0  # row 1 is latitude
bad = dataclasses.replace(bad, values=values)

feed = RecordTable.concat([records, duplicate, bad])
parsed = read_adsb_csv(io.StringIO(records_to_csv_text(feed)))
result = clean_trajectories(parsed)
print("cleaning summary:", result.summary())

aggregated = [aggregate_minutes(t) for t in result.trajectories]
traj = aggregated[0]
print(f"\n{traj.callsign}: {len(traj.waypoints)} minute-level waypoints")
print("first three timestamps:", [w.timestamp for w in traj.waypoints[:3]])

for horizon in (1, 4, 8):
    stride = default_stride(horizon)
    windows = [w for t in aggregated for w in sample_windows(t, horizon, stride)]
    print(f"horizon {horizon}: window size {16 + horizon}, stride {stride}, "
          f"{len(windows)} windows from {len(aggregated)} flights")

# Windows never span a gap: cut ten minutes out of the middle and watch
# the count drop.
broken = Trajectory(traj.callsign, traj.waypoints[:15] + traj.waypoints[25:])
print("\nwith a 10-minute gap:",
      len(sample_windows(traj, 4)), "->", len(sample_windows(broken, 4)), "windows")
