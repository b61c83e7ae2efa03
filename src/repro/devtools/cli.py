"""``python -m repro devtools`` — the one static-analysis command.

Runs every PET rule (per-module ``PET001``–``PET007`` and
interprocedural ``PET101``/``PET102``/``PET104``/``PET105``,
:mod:`repro.devtools.rules`) over one parsed program, then gates the
findings against a checked-in baseline (``--baseline``, default ``ANALYZE_BASELINE.json`` when
present) so only *new* findings fail; ``--write-baseline`` accepts the
current findings.  ``python -m repro.devtools`` is the same command.

Exit status: ``0`` clean (or all findings baselined), ``1`` new
findings, ``2`` usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.devtools.report import (Finding, load_baseline, save_baseline,
                                   split_by_baseline, to_json, to_sarif)
from repro.devtools.rules import RULES, analyze_paths

__all__ = ["devtools_main", "build_devtools_parser"]

DEFAULT_BASELINE = "ANALYZE_BASELINE.json"


def build_devtools_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro devtools",
        description="PET static analysis: per-module rules (PET001-PET007) "
                    "and whole-program dataflow rules (PET101, PET102, "
                    "PET104, PET105)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories (default: src)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to enable")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default: text)")
    p.add_argument("--out", default=None,
                   help="also write the (json/sarif) report to a file")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--baseline", default=None,
                   help="baseline file of accepted findings "
                        f"(default: {DEFAULT_BASELINE} when it exists)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file; report everything")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept the current findings: write the baseline "
                        "file and exit 0")
    return p


def _parse_select(raw: Optional[str]) -> Optional[set]:
    if not raw:
        return None
    select = {s.strip().upper() for s in raw.split(",") if s.strip()}
    unknown = select - set(RULES)
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
          meta: dict) -> None:
    if fmt == "text":
        for f in findings:
            print(f.format())
        doc = None
    elif fmt == "json":
        doc = to_json(findings, meta)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        doc = to_sarif(findings, RULES)
        print(json.dumps(doc, indent=2, sort_keys=True))
    if out and doc is None:              # text to stdout, report to file
        doc = to_sarif(findings, RULES) if out.endswith(
            ".sarif") else to_json(findings, meta)
    if out and doc is not None:
        Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    select = _parse_select(args.select)
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
    meta = {"tool": "repro devtools",
            "baseline": baseline_path or "",
            "suppressed": len(suppressed)}
    _emit(new, args.format, args.out, meta)
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
        return _run(build_devtools_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse and the usage checks exit 2; --help exits 0
        return int(exc.code or 0)
