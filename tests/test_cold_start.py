"""What a fresh interpreter loads: only the code it runs.

Each check starts a new ``sys.executable`` so that nothing this test
session already imported hides a module from the count.  The rule the
checks hold (docs/PERFORMANCE.md, "Cold start"): an optional dependency
is imported where it is used, and a package ``__init__`` imports only
what its importers run.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: every ``repro`` module the perf benchmark's workloads import.
HARNESS_IMPORTS = (
    "repro.analysis.experiments", "repro.analysis.fct",
    "repro.baselines.static_ecn", "repro.core.config", "repro.core.pet",
    "repro.fastpath.bench", "repro.netsim.batchfluid",
    "repro.netsim.fattree", "repro.netsim.fluid", "repro.netsim.shard",
    "repro.resilience.guard", "repro.rl.ippo", "repro.serve.gate",
    "repro.serve.plane", "repro.serve.server", "repro.traffic.generator",
    "repro.traffic.workloads",
)

#: loaded only by the code that runs them, never by the imports above.
NOT_LOADED = (
    "networkx",
    "repro.netsim.pfc",
    "repro.netsim.transport", "repro.netsim.transport.base",
    "repro.netsim.transport.dcqcn", "repro.netsim.transport.dctcp",
    "repro.netsim.transport.hpcc",
    "repro.analysis.report", "repro.analysis.convergence",
    "repro.analysis.resilience",
    "repro.resilience.faults",
    "repro.obs.export", "repro.obs.profile",
    "repro.traffic.trace", "repro.traffic.classify",
    "repro.core.multiqueue",
    "repro.serve.supervisor",
)

PACKAGES = sorted(["repro"] + [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if m.ispkg])


def fresh(code):
    """Run ``code`` in a new interpreter on this tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC, PET_SANITIZE="0")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_harness_imports_leave_unused_modules_unloaded():
    code = ("import json, sys\n"
            + "".join(f"import {m}\n" for m in HARNESS_IMPORTS)
            + "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(fresh(code)))
    assert set(HARNESS_IMPORTS) <= loaded
    assert sorted(loaded.intersection(NOT_LOADED)) == []


def test_experiments_and_serve_plane_skip_networkx():
    code = ("import sys, repro.analysis.experiments, repro.serve.plane\n"
            "print('networkx' in sys.modules)")
    assert fresh(code).strip() == "False"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_from_its_package(package):
    code = (f"import {package} as p\n"
            "missing = [n for n in getattr(p, '__all__', ()) "
            "if not hasattr(p, n)]\n"
            "print(repr(missing))")
    assert fresh(code).strip() == "[]"
