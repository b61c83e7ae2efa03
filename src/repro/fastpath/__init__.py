"""Exists only for :mod:`repro.fastpath.bench`, the one-line
``fingerprint`` alias the frozen ``benchmarks/perf`` harness imports.
The stacked IPPO inference that used to live here is
:mod:`repro.rl.stacked`."""
