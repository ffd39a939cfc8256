"""Baseline forecasters: persistence, kinematic dead reckoning, and an LSTM.

Each is a ``predict(inputs, horizon)`` callable over an ``(n, 5, 16)``
stack of windows' input columns; :func:`forecast_windows` runs one over a
list of windows.
"""

from typing import Callable, Sequence

import numpy as np

from ..windowing import INPUT_LENGTH, Window
from .baselines import kinematic_track, predict_kinematic, predict_persistence
from .lstm import LstmParams, TrainConfig, lstm_predict, lstm_train


def forecast_windows(
    predict: Callable[[np.ndarray, int], np.ndarray], windows: Sequence[Window]
) -> list[np.ndarray]:
    """Each window's ``(5, window.horizon)`` forecast, from one ``predict`` call over the whole list.

    The stack is forecast to the largest horizon and each window keeps its
    leading steps, so in a list that mixes horizons a window is forecast
    (and checked, e.g. for the polar limit) over steps it does not keep.
    """
    if not windows:
        return []
    predicted = predict(np.array([w.values[:, :INPUT_LENGTH] for w in windows]), max(w.horizon for w in windows))
    return [block[:, : w.horizon] for w, block in zip(windows, predicted)]
