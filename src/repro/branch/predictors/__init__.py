"""Branch direction predictors: never/always-taken, oracle, bimodal, TAGE."""

from __future__ import annotations

from ...config import PredictorParams
from ...errors import ConfigError
from .base import (
    AlwaysTakenPredictor,
    DirectionPredictor,
    NeverTakenPredictor,
    OraclePredictor,
)
from .bimodal import BimodalPredictor
from .tage import TagePredictor


def make_predictor(params: PredictorParams) -> DirectionPredictor:
    """Instantiate the direction predictor described by ``params``."""
    kind = params.kind
    if kind == "never_taken":
        return NeverTakenPredictor()
    if kind == "always_taken":
        return AlwaysTakenPredictor()
    if kind == "oracle":
        return OraclePredictor()
    if kind == "bimodal":
        return BimodalPredictor(entries=params.bimodal_entries)
    if kind == "tage":
        return TagePredictor(
            base_entries=params.bimodal_entries,
            table_entries=params.tage_table_entries,
            tag_bits=params.tage_tag_bits,
            history_lengths=params.tage_history_lengths,
        )
    raise ConfigError(f"unknown predictor kind {kind!r}")


__all__ = [
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "DirectionPredictor",
    "NeverTakenPredictor",
    "OraclePredictor",
    "TagePredictor",
    "make_predictor",
]
