"""The full evaluation protocol against the deterministic mock backend.

The mock backend answers each window as a served model would answer its
inference prompt (here with a mix of scripted behaviors to exercise the
failure taxonomy), completions are parsed and classified, and the report pools per-attribute MAE/RMSE,
breaks them down by flight phase, tracks latency (zero here: the mock is
not timed), and counts failures.
Run:

    python demos/05_full_evaluation.py
"""

import io

from flightcast.evaluation import ReportFormat, emit_report, evaluate, few_shot_split
from flightcast.ingest import aggregate_minutes, clean_trajectories, read_adsb_csv, records_to_csv_text
from flightcast.llm import MockBehavior, mock_complete
from flightcast.prompts import parse_completion
from flightcast.synth import generate_corpus
from flightcast.windowing import sample_windows

records, _ = generate_corpus(count=15, base_seed=8)
parsed = read_adsb_csv(io.StringIO(records_to_csv_text(records)))
trajectories = [aggregate_minutes(t) for t in clean_trajectories(parsed).trajectories]
windows = [w for t in trajectories for w in sample_windows(t, 4)]
print(f"evaluating {len(windows)} horizon-4 windows against the mock backend")

# Most answers are the kinematic prediction, one batch for them all; the
# last three are scripted failures so the taxonomy shows up in the report.
replies = mock_complete(windows[:-3], MockBehavior.KINEMATIC)
for window, behavior in zip(windows[-3:], (MockBehavior.EMPTY, MockBehavior.GARBLED, MockBehavior.SIGN_FLIP)):
    replies += mock_complete([window], behavior)
samples = [(w, parse_completion(r.text, w.horizon, w), r.latency_s) for w, r in zip(windows, replies)]

report = evaluate(samples, model="mock-mixed", template_version="v1")
print()
print(emit_report(report, ReportFormat.TABLE))

# The same report as plottable CSV (one metric per row).
csv_text = emit_report(report, ReportFormat.CSV)
print("CSV preview:")
for line in csv_text.splitlines()[:5]:
    print("  " + line)

# Seeded few-shot subsets: exact cardinalities, reproducible membership.
for proportion in (0.1, 0.3, 1.0):
    subset = few_shot_split(samples, proportion, seed=42)
    print(f"few-shot {proportion:4.0%}: {len(subset)} samples")
