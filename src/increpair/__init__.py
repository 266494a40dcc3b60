"""Incremental holistic cleaning of categorical relational data.

The package ingests a relation in batches, flags suspicious cells with
pluggable detectors, learns one model per attribute from co-occurrence
features, and repairs flagged cells with each model's most probable value.
Four strategies trade accuracy against work: two stateless baselines that
clean each batch in isolation or re-clean everything from scratch, and two
incremental variants that carry statistics, models, and repair state across
batches, optionally skipping retraining when an attribute's value
distribution has barely moved.
"""

from .detectors import DETECTOR_NAMES, DetectionScope, run_detectors
from .dc import DenialConstraint, parse_dc, parse_dc_file, violations
from .errors import CleaningError, ConfigError, DataError, ParseError
from .featurize import Featurizer
from .inject import ERROR_KINDS, inject_errors
from .models import AttributeModel, Hyperparams, train
from .pipeline import (
    BatchReport,
    RunState,
    Strategy,
    StrategyKind,
    evaluate,
    run_batch,
    run_stream,
)
from .relation import (
    CellRef,
    CellStatus,
    RawBatch,
    RelationStore,
    Schema,
    load_csv,
    make_batches,
)
from .skipper import SkipperState, kl_divergence
from .snapshot import load_run, save_run
from .stats import (
    EntropyAccumulator,
    StatsStore,
    apply_delta,
    cond_entropy_scratch,
    correlation,
    correlation_matrix,
    scratch_accumulator,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeModel",
    "BatchReport",
    "CellRef",
    "CellStatus",
    "CleaningError",
    "ConfigError",
    "DETECTOR_NAMES",
    "DataError",
    "DenialConstraint",
    "DetectionScope",
    "ERROR_KINDS",
    "EntropyAccumulator",
    "Featurizer",
    "Hyperparams",
    "ParseError",
    "RawBatch",
    "RelationStore",
    "RunState",
    "Schema",
    "SkipperState",
    "StatsStore",
    "Strategy",
    "StrategyKind",
    "apply_delta",
    "cond_entropy_scratch",
    "correlation",
    "correlation_matrix",
    "evaluate",
    "inject_errors",
    "kl_divergence",
    "load_csv",
    "load_run",
    "make_batches",
    "parse_dc",
    "parse_dc_file",
    "run_batch",
    "run_detectors",
    "run_stream",
    "save_run",
    "scratch_accumulator",
    "train",
    "violations",
    "__version__",
]
