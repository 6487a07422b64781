"""Direction-predictor interface.

Trace-driven idiom: the engine calls :meth:`predict` for every conditional
branch on the correct path and immediately :meth:`update`\\ s with the true
outcome. Wrong-path lookups call :meth:`predict` only. ``predict`` has no
training side (state changes only in ``update``), so speculative state never
needs rolling back, and TAGE memoises its lookups between updates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class DirectionPredictor(ABC):
    """Predicts taken/not-taken for conditional branches."""

    #: Registry name; subclasses override.
    name = "base"

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predict the outcome of the conditional branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the true outcome (also advances any global history)."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Modelled hardware budget in bits (for the storage report)."""

    def reset(self) -> None:  # pragma: no cover - trivial default
        """Forget all learned state (optional for stateless predictors)."""


class NeverTakenPredictor(DirectionPredictor):
    """Paper Section III-A's naive baseline: always follow the fall-through."""

    name = "never_taken"

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


class AlwaysTakenPredictor(DirectionPredictor):
    """Static always-taken baseline."""

    name = "always_taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0


class OraclePredictor(DirectionPredictor):
    """Perfect direction prediction (engine supplies the outcome).

    ``predict`` returns the last outcome staged via :meth:`stage`; the
    engine stages the trace's true outcome just before predicting, which
    models a perfect predictor without changing the call protocol.
    """

    name = "oracle"

    def __init__(self) -> None:
        self._staged = False

    def stage(self, outcome: bool) -> None:
        self._staged = outcome

    def predict(self, pc: int) -> bool:
        return self._staged

    def update(self, pc: int, taken: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0
