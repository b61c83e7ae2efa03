# The frozen benchmarks/perf harness imports ``fingerprint`` from this path.
from repro.fingerprint import fingerprint  # noqa: F401
