"""``python -m repro devtools`` — the single static-analysis front door.

Two subcommands share one configuration surface (paths, ``--select``,
``--format text|json|sarif``, the ``# pet: noqa`` escape hatch) and one
output module (:mod:`repro.devtools.analyze.report`):

``repro devtools lint``
    The per-node AST linter, rules ``PET001``–``PET006``
    (:mod:`repro.devtools.lint`).  Exactly what
    ``python -m repro.devtools.lint`` has always run, now also able to
    emit JSON and SARIF.

``repro devtools analyze``
    The whole-program dataflow analyzer, rules ``PET101``–``PET105``
    (:mod:`repro.devtools.analyze`).  Supports a checked-in baseline
    (``--baseline``, default ``ANALYZE_BASELINE.json`` when present) so
    only *new* findings fail, and ``--write-baseline`` to accept the
    current findings.

Exit status (both subcommands): ``0`` clean (or all findings
baselined), ``1`` findings / new findings, ``2`` usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools import lint as lint_mod
from repro.devtools.analyze.report import (Finding, from_lint_violation,
                                           load_baseline, render_text,
                                           save_baseline, split_by_baseline,
                                           to_json, to_sarif)

__all__ = ["devtools_main", "build_devtools_parser"]

DEFAULT_BASELINE = "ANALYZE_BASELINE.json"


def build_devtools_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro devtools",
        description="PET static analysis: per-node linter (PET001-006) and "
                    "whole-program dataflow analyzer (PET101-105)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, default_paths: List[str]) -> None:
        sp.add_argument("paths", nargs="*", default=default_paths,
                        help=f"files/directories (default: {default_paths})")
        sp.add_argument("--select", default=None,
                        help="comma-separated rule ids to enable")
        sp.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format (default: text)")
        sp.add_argument("--out", default=None,
                        help="also write the (json/sarif) report to a file")
        sp.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")

    lint_p = sub.add_parser(
        "lint", help="per-node AST linter (PET001-PET006)")
    common(lint_p, ["src"])

    an_p = sub.add_parser(
        "analyze", help="whole-program dataflow analyzer (PET101-PET105)")
    common(an_p, ["src"])
    an_p.add_argument("--baseline", default=None,
                      help="baseline file of accepted findings "
                           f"(default: {DEFAULT_BASELINE} when it exists)")
    an_p.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file; report everything")
    an_p.add_argument("--write-baseline", action="store_true",
                      help="accept the current findings: write the baseline "
                           "file and exit 0")
    return p


def _parse_select(raw: Optional[str], catalogue) -> Optional[set]:
    if not raw:
        return None
    select = {s.strip().upper() for s in raw.split(",") if s.strip()}
    unknown = select - set(catalogue)
    if unknown:
        print(f"unknown rule id(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        raise SystemExit(2)
    return select


def _check_paths(paths: Sequence[str]) -> None:
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


def _emit(findings: List[Finding], fmt: str, out: Optional[str],
          catalogue, meta: Optional[dict] = None) -> None:
    if fmt == "text":
        text = render_text(findings)
        if text:
            print(text)
        doc = None
    elif fmt == "json":
        doc = to_json(findings, meta)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        doc = to_sarif(findings, dict(catalogue))
        print(json.dumps(doc, indent=2, sort_keys=True))
    if out and doc is None:              # text to stdout, report to file
        doc = to_sarif(findings, dict(catalogue)) if out.endswith(
            ".sarif") else to_json(findings, meta)
    if out and doc is not None:
        Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, desc in sorted(lint_mod.RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    select = _parse_select(args.select, lint_mod.RULES)
    _check_paths(args.paths)
    try:
        violations = lint_mod.lint_paths(args.paths, select)
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}: parse error: {exc.msg}",
              file=sys.stderr)
        return 2
    findings = [from_lint_violation(v) for v in violations]
    _emit(findings, args.format, args.out, lint_mod.RULES,
          meta={"tool": "repro devtools lint"})
    if findings:
        print(f"\n{len(findings)} violation(s) found", file=sys.stderr)
        return 1
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.devtools.analyze.rules import RULES as RULES100, analyze_paths

    if args.list_rules:
        for rule, desc in sorted(RULES100.items()):
            print(f"{rule}  {desc}")
        return 0
    select = _parse_select(args.select, RULES100)
    _check_paths(args.paths)
    try:
        findings = analyze_paths(args.paths, select=select)
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}: parse error: {exc.msg}",
              file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE
    if args.write_baseline:
        path = baseline_path or DEFAULT_BASELINE
        n = save_baseline(path, findings)
        print(f"wrote {n} accepted finding(s) to {path}")
        return 0

    baseline = {} if (args.no_baseline or not baseline_path) else \
        load_baseline(baseline_path)
    new, suppressed, stale = split_by_baseline(findings, baseline)
    meta = {"tool": "repro devtools analyze",
            "baseline": baseline_path or "",
            "suppressed": len(suppressed)}
    _emit(new, args.format, args.out, RULES100, meta=meta)
    if suppressed and args.format == "text":
        print(f"({len(suppressed)} baselined finding(s) suppressed)",
              file=sys.stderr)
    for entry in stale:
        print(f"warning: stale baseline entry {entry['fingerprint']} "
              f"({entry['rule']} {entry['path']}) no longer fires",
              file=sys.stderr)
    if new:
        print(f"\n{len(new)} new finding(s) — fix them or re-accept with "
              "--write-baseline", file=sys.stderr)
        return 1
    return 0


def devtools_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_devtools_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise
        return int(exc.code or 0)
    try:
        if args.command == "lint":
            return _run_lint(args)
        return _run_analyze(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":   # pragma: no cover - exercised via subprocess
    raise SystemExit(devtools_main())
