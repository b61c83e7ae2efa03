"""Finding records, output formats (text/JSON/SARIF) and the baseline.

The baseline file makes the rules adoptable on a living tree:
pre-existing, reviewed findings are recorded by *content fingerprint*
(rule + package-rooted path + symbol + message — deliberately not line
numbers or the working directory, so unrelated edits and ``cd`` never
churn the file) and the CI gate fails only on findings absent from the
baseline.

Formats:

- ``text``  — one ``path:line:col: RULE [symbol] message`` per finding;
- ``json``  — ``{"schema": "repro.analyze/v1", "findings": [...]}``;
- ``sarif`` — SARIF 2.1.0, one run, rule catalogue included, finding
  fingerprints exported as ``partialFingerprints`` so code-scanning UIs
  deduplicate across revisions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Finding", "to_json", "to_sarif", "load_baseline",
           "save_baseline", "split_by_baseline", "BASELINE_SCHEMA",
           "JSON_SCHEMA", "SARIF_SCHEMA_URI"]

JSON_SCHEMA = "repro.analyze/v1"
BASELINE_SCHEMA = "repro.analyze-baseline/v1"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


@dataclass(frozen=True)
class Finding:
    """One rule finding, anchored to a source location + symbol."""

    rule: str
    path: str            # as given on the command line
    pkg_path: str        # rooted at the top-level package (ModuleInfo)
    line: int
    col: int
    symbol: str          # enclosing function qualname, else module name
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: {self.rule} "
                f"[{self.symbol}] {self.message}")

    def fingerprint(self) -> str:
        """Stable content hash; survives line-number churn and ``cd``."""
        key = "|".join((self.rule, self.pkg_path, self.symbol, self.message))
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# -- rendering ----------------------------------------------------------------

def to_json(findings: Sequence[Finding],
            meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {
        "schema": JSON_SCHEMA,
        **(meta or {}),
        "count": len(findings),
        "findings": [{**asdict(f), "fingerprint": f.fingerprint()}
                     for f in findings],
    }


def to_sarif(findings: Sequence[Finding],
             rules: Dict[str, str]) -> Dict[str, Any]:
    """Minimal valid SARIF 2.1.0 document for the given findings."""
    used = sorted({f.rule for f in findings} | set(rules))
    rule_index = {r: i for i, r in enumerate(used)}
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-devtools",
                "informationUri": "https://example.invalid/docs/DEVTOOLS.md",
                "rules": [{
                    "id": r,
                    "shortDescription": {"text": rules.get(r, r)},
                    "defaultConfiguration": {"level": "warning"},
                } for r in used],
            }},
            "results": [{
                "ruleId": f.rule,
                "ruleIndex": rule_index[f.rule],
                "level": "warning",
                "message": {"text": f"[{f.symbol}] {f.message}"},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": Path(f.path).as_posix()},
                        "region": {"startLine": max(f.line, 1),
                                   "startColumn": f.col + 1},
                    },
                }],
                "partialFingerprints": {
                    "petFingerprint/v1": f.fingerprint(),
                },
            } for f in findings],
        }],
    }


# -- baseline -----------------------------------------------------------------

def load_baseline(path: str) -> Dict[str, Dict[str, Any]]:
    """fingerprint -> entry from a baseline file (empty if missing)."""
    p = Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text(encoding="utf-8"))
    entries = data.get("findings", []) if isinstance(data, dict) else []
    return {e["fingerprint"]: e for e in entries if "fingerprint" in e}


def save_baseline(path: str, findings: Sequence[Finding]) -> int:
    """Write the current findings as the new accepted baseline."""
    entries = [{
        "rule": f.rule,
        "path": f.pkg_path,
        "symbol": f.symbol,
        "message": f.message,
        "fingerprint": f.fingerprint(),
    } for f in sorted(findings, key=lambda f: (f.rule, f.pkg_path, f.symbol,
                                               f.message))]
    doc = {"schema": BASELINE_SCHEMA, "count": len(entries),
           "findings": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return len(entries)


def split_by_baseline(findings: Sequence[Finding],
                      baseline: Dict[str, Dict[str, Any]]
                      ) -> Tuple[List[Finding], List[Finding],
                                 List[Dict[str, Any]]]:
    """(new, suppressed, stale baseline entries)."""
    new: List[Finding] = []
    suppressed: List[Finding] = []
    seen: set = set()
    for f in findings:
        fp = f.fingerprint()
        if fp in baseline:
            suppressed.append(f)
            seen.add(fp)
        else:
            new.append(f)
    stale = [e for fp, e in sorted(baseline.items()) if fp not in seen]
    return new, suppressed, stale
