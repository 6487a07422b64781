"""reprolint — AST-driven invariant checking for the repro runtime.

``python -m repro.devtools lint`` runs every registered rule (RPL001,
RPL002 and RPL004, see :mod:`repro.devtools.rules`) over ``src/repro``
and prints findings as ``path:line: RPLxxx message``, exiting nonzero
when any survive suppression. ``docs/devtools.md`` documents each rule's
invariant, the historical bug behind it, the suppression syntax, and
where the checks that need no source text live instead.

The public entry point for tests is :func:`run_lint`, which accepts an
arbitrary package root so rule fixtures can lint tiny synthetic trees.
"""

from __future__ import annotations

from pathlib import Path

from .rules import RULES, Rule
from .sources import Finding, LintContext, load_context

__all__ = [
    "Finding",
    "LintContext",
    "RULES",
    "Rule",
    "load_context",
    "run_lint",
]


def run_lint(package_root: Path, schema_baseline: Path | None = None) -> list[Finding]:
    """Lint the package rooted at ``package_root`` and return the findings."""
    ctx = load_context(package_root, schema_baseline=schema_baseline)
    findings = [finding for rule in RULES.values() for finding in rule.check(ctx)]
    findings.sort(key=lambda f: (f.rel, f.line, f.code, f.message))
    return findings
