"""Branch-prediction substrate: BTBs, return address stack, predictors."""

from .btb import BasicBlockBTB, BTBEntry, BTBPrefetchBuffer
from .predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    DirectionPredictor,
    NeverTakenPredictor,
    OraclePredictor,
    TagePredictor,
    make_predictor,
)
from .ras import ReturnAddressStack

__all__ = [
    "AlwaysTakenPredictor",
    "BasicBlockBTB",
    "BTBEntry",
    "BTBPrefetchBuffer",
    "BimodalPredictor",
    "DirectionPredictor",
    "NeverTakenPredictor",
    "OraclePredictor",
    "ReturnAddressStack",
    "TagePredictor",
    "make_predictor",
]
