"""Source loading, suppression parsing and the lint context.

The linter works on a parsed snapshot of the tree: every ``*.py`` file
under the ``repro`` package root becomes one :class:`SourceFile` carrying
its AST and its parsed suppression comments. Rules never touch the
filesystem directly — they ask the :class:`LintContext` for files by
package-relative path — which is what lets the rule tests run against
tiny synthetic trees instead of the live repository.

Suppression syntax (documented in ``docs/devtools.md``)::

    value = os.environ.get(name)  # reprolint: disable=RPL001

``disable=`` silences the named codes on its own line, and nowhere else.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: One suppression comment: ``# reprolint: disable=RPL001[,RPL002]``.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
)


def parse_suppressions(text: str) -> dict[int, set[str]]:
    """``line -> suppressed codes`` from a module's source text."""
    per_line: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            codes = {code.strip() for code in match.group("codes").split(",")}
            per_line.setdefault(lineno, set()).update(codes)
    return per_line


@dataclass(frozen=True)
class Finding:
    """One rule violation, pointing at a repo-relative file and line."""

    rel: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.rel}:{self.line}: {self.code} {self.message}"


@dataclass
class SourceFile:
    """One parsed module of the tree under lint."""

    #: Path relative to the *package* root, posix-style — the stable name
    #: rules key on (e.g. ``runtime/cache.py``).
    modrel: str
    #: Path to display in findings (repo-relative when known).
    rel: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)

    def suppressed(self, code: str, line: int) -> bool:
        return code in self.line_suppressions.get(line, ())


@dataclass
class LintContext:
    """Everything a rule may look at."""

    sources: list[SourceFile]
    #: The committed RPL004 fingerprint baseline (JSON file).
    schema_baseline: Path
    _by_modrel: dict[str, SourceFile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_modrel = {src.modrel: src for src in self.sources}

    def get(self, modrel: str) -> SourceFile | None:
        """The parsed module at a package-relative path, if present."""
        return self._by_modrel.get(modrel)

    def finding(
        self, src: SourceFile, line: int, code: str, message: str
    ) -> Finding | None:
        """A :class:`Finding` unless a suppression comment silences it."""
        if src.suppressed(code, line):
            return None
        return Finding(rel=src.rel, line=line, code=code, message=message)


def load_context(
    package_root: Path, schema_baseline: Path | None = None
) -> LintContext:
    """Parse every module under ``package_root`` into a lint context.

    A file that does not parse raises :class:`SyntaxError` with its
    display path as ``filename``; the CLI reports it as a hard error
    before any rule runs, so rules may assume every tree is valid.
    """
    package_root = package_root.resolve()
    # src/repro -> findings name paths from the directory containing src/.
    display_root = (
        package_root.parents[1] if package_root.parent.name == "src" else package_root
    )
    sources: list[SourceFile] = []
    for path in sorted(package_root.rglob("*.py")):
        text = path.read_text()
        rel = str(path.relative_to(display_root))
        sources.append(
            SourceFile(
                modrel=path.relative_to(package_root).as_posix(),
                rel=rel,
                tree=ast.parse(text, filename=rel),
                line_suppressions=parse_suppressions(text),
            )
        )
    if schema_baseline is None:
        schema_baseline = Path(__file__).resolve().parent / "schema_baseline.json"
    return LintContext(sources=sources, schema_baseline=schema_baseline)
