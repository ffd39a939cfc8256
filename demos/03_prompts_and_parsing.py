"""Serialize windows into chat prompts and parse completions back.

The user turn carries the 16 history waypoints as coordinate tuples, the
assistant turn carries the targets during dataset emission and is empty
at inference. Parsing is defensive: anything a model can emit lands in
a (5, horizon) block, laid out like the window's target columns, or in
one of three failure classes. Run:

    python demos/03_prompts_and_parsing.py
"""

import io
import tempfile
from pathlib import Path

import numpy as np

from flightcast.ingest import aggregate_minutes, clean_trajectories, read_adsb_csv, records_to_csv_text
from flightcast.llm import MockBehavior, mock_complete
from flightcast.prompts import build_prompt, emit_dataset, parse_completion
from flightcast.synth import generate_corpus
from flightcast.windowing import INPUT_LENGTH, sample_windows

records, _ = generate_corpus(count=3, base_seed=17)
parsed = read_adsb_csv(io.StringIO(records_to_csv_text(records)))
trajectories = [aggregate_minutes(t) for t in clean_trajectories(parsed).trajectories]
windows = [w for t in trajectories for w in sample_windows(t, 4)]
window = windows[0]

record = build_prompt(window, include_assistant=True)
print("--- system ---")
print(record.system)
print("--- user (first two of 16 lines) ---")
print("\n".join(record.user.splitlines()[:2]))
print("--- assistant (the 4 targets) ---")
print(record.assistant)

# Round trip: the assistant text parses back into the exact targets.
outcome = parse_completion(record.assistant, window.horizon, window)
print("\nround trip exact:", np.array_equal(outcome.values, window.values[:, INPUT_LENGTH:]))

# Messy model output still parses; pathological output is classified.
messy = "Sure! Here are my predictions:\n" + record.assistant + "\nHope that helps."
print("messy-but-usable:", parse_completion(messy, 4, window).ok)
for behavior in (MockBehavior.EMPTY, MockBehavior.GARBLED, MockBehavior.SIGN_FLIP):
    reply = mock_complete(build_prompt(window, include_assistant=False), behavior)
    outcome = parse_completion(reply.text, 4, window)
    print(f"{behavior.value:>10}: {outcome.failure.value} ({outcome.diagnostic})")

# Fine-tuning dataset emission: JSON Lines plus a pinned manifest.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "dataset.jsonl"
    manifest = emit_dataset([build_prompt(w, include_assistant=True) for w in windows], path)
    print(f"\nemitted {manifest['records']} records, horizon {manifest['horizon']}, "
          f"template {manifest['template_version']}, sha256 {manifest['sha256'][:12]}...")
