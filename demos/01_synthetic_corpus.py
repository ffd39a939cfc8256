"""Generate a reproducible synthetic ADS-B corpus and inspect it.

Every flight is driven by a seeded spec (origin, heading, cruise altitude
and speed, climb/descent rates, optional turns) and sampled every 10
seconds with Gaussian measurement noise, like a real ADS-B feed but with
known ground truth. Run:

    python demos/01_synthetic_corpus.py
"""

from flightcast.ingest import RecordTable, records_to_csv_text
from flightcast.synth import DropEvent, FlightSpec, NoiseStd, TurnEvent, generate_corpus, generate_flight

# A single scripted flight: climb, cruise with a mid-cruise turn and a
# sudden 200 m altitude drop, then descent.
spec = FlightSpec(
    seed=11,
    callsign="DEMO01",
    origin_longitude=113.3,
    origin_latitude=23.4,
    initial_heading=20.0,
    cruise_altitude_m=10000.0,
    cruise_speed_kmh=880.0,
    climb_rate_m_per_min=600.0,
    descent_rate_m_per_min=450.0,
    cruise_duration_min=35.0,
    turns=(TurnEvent(minute=30.0, delta_deg=35.0, duration_min=2.0),),
    drop=DropEvent(minute=40.0, drop_m=200.0),
    noise=NoiseStd(longitude=2e-5, latitude=2e-5, altitude=5.0, velocity=2.0, heading=0.5),
)

# A flight is a table of columns: int64 timestamps, utc_time and callsign
# text, and the five attributes as the rows of one float64 array.
flight = generate_flight(spec)
print(f"one flight, {len(flight)} raw records at {spec.sample_interval_s} s intervals")
print("\nfirst three records (CSV):")
for line in records_to_csv_text(flight).splitlines()[:4]:
    print("  " + line)

minutes = (flight.timestamp[-1] - flight.timestamp[0]) / 60
print(f"\nduration {minutes:.0f} min, peak altitude "
      f"{flight.values[2].max():.0f} m")

# A whole corpus: randomized specs inside airliner envelopes, one seed each.
records, specs = generate_corpus(count=10, base_seed=99)
print(f"\ncorpus: {len(specs)} flights, {len(records)} records")
print("per-flight cruise altitudes:",
      [f"{s.cruise_altitude_m:.0f}" for s in specs])

# The manifest (the spec list) regenerates the corpus byte for byte.
again = RecordTable.concat([generate_flight(s) for s in specs])
print("regeneration from manifest identical:", records_to_csv_text(again) == records_to_csv_text(records))
