"""Command-line front end for reprolint.

Subcommands::

    python -m repro.devtools lint        # run every rule; exit 1 on findings
    python -m repro.devtools baseline    # refresh schema_baseline.json (RPL004)
    python -m repro.devtools rules       # list registered rules

``lint`` prints one ``path:line: RPLxxx message`` line per finding plus a
per-rule count summary (the CI job forwards that summary to the GitHub
step summary). ``baseline`` recomputes the on-disk format fingerprints
and rewrites the committed baseline file — the second half of every
legitimate schema change (bump the tag, then run this). A file that does
not parse stops ``lint`` and ``baseline`` with ``path:line: syntax
error: ...`` and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import RULES, run_lint
from .formats import format_facts, write_baseline
from .sources import load_context

#: devtools lives at src/repro/devtools — the package is one level up.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _roots(args: argparse.Namespace) -> tuple[Path, Path | None]:
    package_root = Path(args.package_root) if args.package_root else _PACKAGE_ROOT
    return package_root, Path(args.baseline) if args.baseline else None


def _cmd_lint(args: argparse.Namespace) -> int:
    findings = run_lint(*_roots(args))
    for finding in findings:
        print(finding.format())
    counts = Counter(finding.code for finding in findings)
    if findings:
        print()
        for code in sorted(counts):
            print(f"{code} ({RULES[code].name}): {counts[code]}")
        print(f"reprolint: {len(findings)} finding(s)")
        return 1
    print("reprolint: clean")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    ctx = load_context(*_roots(args))
    facts = format_facts(ctx)
    if not facts:
        print("reprolint: no format groups found; baseline unchanged")
        return 1
    write_baseline(ctx.schema_baseline, facts)
    for group, gf in sorted(facts.items()):
        print(f"{group}: tag={gf.tag} fingerprint={gf.fingerprint}")
    print(f"wrote {ctx.schema_baseline}")
    return 0


def _cmd_rules(_args: argparse.Namespace) -> int:
    for code in sorted(RULES):
        rule = RULES[code]
        print(f"{code} {rule.name}: {rule.summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools",
        description="reprolint: invariant checks for the repro runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the invariant checks")
    lint.add_argument(
        "--package-root",
        help="package directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--baseline",
        help="schema baseline file (default: the committed schema_baseline.json)",
    )
    lint.set_defaults(func=_cmd_lint)

    baseline = sub.add_parser(
        "baseline", help="recompute and write schema_baseline.json (RPL004)"
    )
    baseline.add_argument(
        "--package-root",
        help="package directory to fingerprint (default: the repro package)",
    )
    baseline.add_argument(
        "--baseline",
        help="schema baseline file to write (default: the committed one)",
    )
    baseline.set_defaults(func=_cmd_baseline)

    rules = sub.add_parser("rules", help="list registered rules")
    rules.set_defaults(func=_cmd_rules)

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}: syntax error: {exc.msg}")
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
