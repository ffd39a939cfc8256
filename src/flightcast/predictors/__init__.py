"""Baseline forecasters: persistence, kinematic dead reckoning, and an LSTM."""

from .baselines import kinematic_track, predict_kinematic, predict_persistence
from .lstm import LstmParams, TrainConfig, lstm_predict, lstm_train
