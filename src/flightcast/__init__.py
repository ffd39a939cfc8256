"""Flight trajectory prediction toolkit.

ADS-B preprocessing, sliding-window sampling, prompt serialization for
chat-style models, baseline predictors, a deterministic mock inference
backend, and the full evaluation protocol.
"""

from .domain import (
    ATTRIBUTES,
    CANONICAL_DECIMALS,
    PhaseLabel,
    Trajectory,
    Validity,
    Waypoint,
    circular_mean,
    round_waypoint,
    validate_waypoint,
)
from .evaluation import MetricsReport, evaluate, few_shot_split, mae, mean_latency, rmse, segment_phase
from .ingest import (
    RawRecord,
    RecordTable,
    aggregate_minutes,
    clean_trajectories,
    parse_record,
    read_adsb_csv,
)
from .llm import CompletionResult, EndpointConfig, MockBehavior, complete, mock_complete
from .predictors import (
    LstmParams,
    TrainConfig,
    lstm_predict,
    lstm_train,
    predict_kinematic,
    predict_persistence,
)
from .prompts import (
    FailureKind,
    ParseOutcome,
    PromptRecord,
    build_prompt,
    classify_severe,
    emit_dataset,
    estimate_tokens,
    parse_completion,
    serialize_waypoints,
)
from .synth import FlightSpec, generate_corpus, generate_flight
from .windowing import INPUT_LENGTH, Window, check_continuity, sample_windows

__version__ = "0.1.0"
