"""Harness self-tests: run explicitly, they are not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

import os
import sys

PERF = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
ROOT = os.path.normpath(os.path.join(PERF, "..", ".."))
for path in (PERF, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
