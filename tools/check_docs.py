#!/usr/bin/env python
"""Docs-freshness gate: fail CI when code outgrows the operator docs.

Six invariants, each checked from the single source of truth in code so
the README runbook and DESIGN chapter cannot silently rot:

1. Every CLI subcommand (from ``repro.cli.build_parser``) is mentioned in
   README.md.
2. Every registered ``MergeError`` cause (``repro.errors.MERGE_ERROR_CAUSES``)
   appears in both README.md (the troubleshooting table) and DESIGN.md.
3. The registries themselves are honest: the set of causes actually used in
   ``src/repro/`` (grepped as ``MergeError("<cause>"`` /
   ``health_issue("<cause>"``) equals the registered set -- no unregistered
   cause, no dead registry entry.
4. Every live-health cause (``repro.errors.HEALTH_CAUSES``, surfaced by
   ``repro watch`` / ``repro queue-status``) appears in both README.md and
   DESIGN.md.
5. The reverse of 2 for the runbook: every backticked slug in the first
   column of README.md's "Merge failures are structured" table is a
   registered ``MergeError`` cause, so a deleted cause cannot linger there.
6. Every backticked ``.py`` path under ``src/``, ``tests/``, ``benchmarks/``,
   ``tools/`` or ``perfbench/`` in README.md, DESIGN.md or ROADMAP.md
   exists (anything after a space or ``::`` is stripped), so a deleted or
   renamed file cannot linger in the docs.

Run from the repo root: ``PYTHONPATH=src python tools/check_docs.py``.
Exit code 0 when the docs are fresh, 1 with a per-item report otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_RAISE_RE = re.compile(r"MergeError\(\s*[\"']([a-z-]+)[\"']")
_HEALTH_RE = re.compile(r"health_issue\(\s*\n?\s*[\"']([a-z-]+)[\"']")
_RUNBOOK_MARKER = "Merge failures are structured"
_PATH_RE = re.compile(r"`((?:src|tests|benchmarks|tools|perfbench)/[^`\s:]*\.py)(?:[ :][^`]*)?`")


def cli_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("repro.cli.build_parser() has no subparsers")


def raised_causes():
    causes = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        causes.update(_RAISE_RE.findall(path.read_text(encoding="utf-8")))
    return causes


def emitted_health_causes():
    causes = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        causes.update(_HEALTH_RE.findall(path.read_text(encoding="utf-8")))
    return causes


def runbook_causes(readme):
    """Backticked slugs in the first column of the README merge-failure
    table (``None`` when the table is missing)."""
    lines = readme.splitlines()
    start = next(
        (index for index, line in enumerate(lines) if _RUNBOOK_MARKER in line), None
    )
    if start is None:
        return None
    causes = []
    in_table = False
    for line in lines[start:]:
        if line.startswith("|"):
            in_table = True
            causes.extend(re.findall(r"`([^`]+)`", line.split("|")[1]))
        elif in_table:
            break
    return causes


def missing_paths(texts, root: Path = REPO):
    """The backticked ``.py`` paths in ``texts`` that do not exist under ``root``."""
    paths = {match for text in texts for match in _PATH_RE.findall(text)}
    return sorted(path for path in paths if not (root / path).is_file())


def main() -> int:
    from repro.errors import HEALTH_CAUSES, MERGE_ERROR_CAUSES

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    problems = []

    for command in cli_subcommands():
        if command not in readme:
            problems.append(
                f"CLI subcommand `{command}` is not documented in README.md"
            )

    for cause in sorted(MERGE_ERROR_CAUSES):
        if cause not in readme:
            problems.append(
                f"MergeError cause `{cause}` is missing from the README.md "
                "troubleshooting table"
            )
        if cause not in design:
            problems.append(f"MergeError cause `{cause}` is missing from DESIGN.md")

    in_code = raised_causes()
    for cause in sorted(in_code - MERGE_ERROR_CAUSES):
        problems.append(
            f"MergeError cause `{cause}` is raised in code but not registered "
            "in repro.errors.MERGE_ERROR_CAUSES"
        )
    for cause in sorted(MERGE_ERROR_CAUSES - in_code):
        problems.append(
            f"MergeError cause `{cause}` is registered but never raised "
            "(stale registry entry?)"
        )

    runbook = runbook_causes(readme)
    if runbook is None:
        problems.append(
            f"README.md has no \"{_RUNBOOK_MARKER}\" troubleshooting table"
        )
    for cause in sorted(set(runbook or ()) - MERGE_ERROR_CAUSES):
        problems.append(
            f"README.md troubleshooting table lists `{cause}`, which is not a "
            "registered MergeError cause (deleted? rename the row)"
        )

    for cause in sorted(HEALTH_CAUSES):
        if cause not in readme:
            problems.append(
                f"health cause `{cause}` is missing from the README.md "
                "live-observability section"
            )
        if cause not in design:
            problems.append(f"health cause `{cause}` is missing from DESIGN.md")

    in_code = emitted_health_causes()
    for cause in sorted(in_code - HEALTH_CAUSES):
        problems.append(
            f"health cause `{cause}` is emitted in code but not registered "
            "in repro.errors.HEALTH_CAUSES"
        )
    for cause in sorted(HEALTH_CAUSES - in_code):
        problems.append(
            f"health cause `{cause}` is registered but never emitted "
            "(stale registry entry?)"
        )

    roadmap = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
    for path in missing_paths((readme, design, roadmap)):
        problems.append(f"`{path}` is named in the docs but does not exist")

    if problems:
        print("docs freshness check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"docs freshness OK: {len(cli_subcommands())} subcommand(s), "
        f"{len(MERGE_ERROR_CAUSES)} MergeError cause(s) and "
        f"{len(HEALTH_CAUSES)} health cause(s) documented"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
