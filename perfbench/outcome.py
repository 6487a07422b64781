"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    """Cells attempted, cells failing a check, metrics and report lines.

    ``metrics`` maps an end-to-end metric name to ``(value, unit)``;
    ``layers`` maps a per-layer metric name to its value.
    """

    attempted: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    failed_cells: set[str] = field(default_factory=set)

    def check(self, ok: bool, cell: str, what: str) -> None:
        """Record one output check on ``cell``; a cell fails at most once."""
        if not ok:
            self.failed_cells.add(cell)
            self.notes.append(f"CHECK FAILED: {cell}: {what}")

    @property
    def failed(self) -> int:
        return len(self.failed_cells)
