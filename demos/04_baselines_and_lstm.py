"""Train the from-scratch LSTM and race it against the naive baselines.

Persistence repeats the last waypoint; kinematic dead reckoning
extrapolates the displacement between the last two; the LSTM is a single
recurrent layer with hand-written backpropagation trained by Adam on
one-step-ahead prediction and rolled out for longer horizons. Run:

    python demos/04_baselines_and_lstm.py
"""

import io

import numpy as np

from flightcast.evaluation import evaluate
from flightcast.ingest import aggregate_minutes, clean_trajectories, read_adsb_csv, records_to_csv_text
from flightcast.predictors import (
    TrainConfig,
    lstm_predict,
    lstm_train,
    predict_kinematic,
    predict_persistence,
)
from flightcast.prompts import ParseOutcome
from flightcast.synth import generate_corpus
from flightcast.windowing import sample_windows

records, _ = generate_corpus(count=35, base_seed=3)
parsed = read_adsb_csv(io.StringIO(records_to_csv_text(records)))
trajectories = [aggregate_minutes(t) for t in clean_trajectories(parsed).trajectories]

windows = [w for t in trajectories for w in sample_windows(t, 1, 17)]
rng = np.random.default_rng(0)
order = rng.permutation(len(windows))
train = [windows[i] for i in order[: int(0.7 * len(windows))]]
test = [windows[i] for i in order[int(0.7 * len(windows)) :]]
print(f"{len(train)} training windows, {len(test)} test windows")

config = TrainConfig(epochs=1500, batch_size=16, learning_rate=2e-3, seed=1, hidden_dim=12)
print(f"training LSTM (hidden {config.hidden_dim}, {config.epochs} epochs, ~30 s)...")
params = lstm_train(train, config)

predictors = {
    "persistence": lambda w: predict_persistence(w, w.horizon),
    "kinematic": lambda w: predict_kinematic(w, w.horizon),
    "lstm": lambda w: lstm_predict(params, [w])[0],
}
print(f"\n{'model':>12}  {'MAE lon':>9}  {'MAE lat':>9}  {'MAE alt':>9}")
for name, predict in predictors.items():
    samples = [(w, ParseOutcome.success(tuple(predict(w))), 0.0) for w in test]
    report = evaluate(samples, model=name)
    stats = report.attributes
    print(f"{name:>12}  {stats['longitude'].mae:9.5f}  {stats['latitude'].mae:9.5f}  "
          f"{stats['altitude'].mae:9.3f}")

print("\n(kinematic wins on smooth synthetic motion, it IS the generator's "
      "rule; the LSTM must rediscover the dynamics from data and only partly "
      "succeeds at this scale)")
