"""Baseline forecasters: persistence, kinematic dead reckoning, and an LSTM."""

from .baselines import (
    KM_PER_DEGREE,
    POLAR_LATITUDE_LIMIT,
    kinematic_step,
    predict_kinematic,
    predict_persistence,
)
from .lstm import (
    LstmParams,
    TrainConfig,
    lstm_predict,
    lstm_train,
)

__all__ = [
    "KM_PER_DEGREE",
    "POLAR_LATITUDE_LIMIT",
    "kinematic_step",
    "predict_kinematic",
    "predict_persistence",
    "LstmParams",
    "TrainConfig",
    "lstm_predict",
    "lstm_train",
]
