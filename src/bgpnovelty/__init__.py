"""Worm-driven BGP instability detection via autoencoder novelty scoring."""

from .autoencoder import (
    AutoencoderModel,
    gradient,
    init_model,
    load_model,
    save_model,
    sse_loss,
)
from .detector import (
    AlarmEvent,
    DetectorConfig,
    detect_alarms,
    lead_time,
    score_series,
    suggest_threshold,
)
from .features import (
    NormalizationParams,
    fit_normalization,
    make_windows,
)
from .mrt import parse_mrt_stream
from .scg import TrainReport, scg_minimize, train
from .series import (
    MinuteSeries,
    bucketize,
    read_bucket_csv,
    top_n,
    write_bucket_csv,
)
from .synth import SurgeSpec, gen_baseline, inject_surge

__version__ = "0.1.0"
