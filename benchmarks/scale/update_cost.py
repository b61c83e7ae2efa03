"""PPO update cost per agent against the number of agents and update groups.

Measures one ``IPPOTrainer.update`` of PET's online training shape —
``PETConfig.fast()``: 24-wide observations, two 64-unit hidden layers,
10 epochs of 64-row minibatches over ``update_interval`` = 100
transitions per agent — for agents ∈ {6, 12, 32, 80, 416} (a Fig. 4
fabric, the crossover, ``train_fleet32``, a 4-pod and the 16-pod
``scale_xl`` fat-tree) and for one and two update groups.  The learner picks its group count from
the stack size and the usable cores (``repro.rl.stacked``); here each
point pins it by patching the rule's inputs inside the child process, so
both counts are measured at every size — that is how the rule's
crossover is read off this curve.

Every point runs in a child process of its own (so one point's heap
cannot shape the next one's timings), which fills each agent's rollout
with the same seeded transitions and then times ``--reps`` updates.
Points are visited round-robin per trial, so a slow spell of the
machine spreads over all of them; ``calib_ms`` (the fixed kernel of
``benchmarks/perf/stats.py``) is recorded beside every row to show one.

Writes one JSON row per (trial, point) to ``--out`` (agents, groups,
trial, ms per update, ms per agent, the child's peak RSS, ``cpu_count``,
``calib_ms``), then prints per point the median [q1..q3] of ms per agent
and, per size, what two groups buy over one.

    python benchmarks/scale/update_cost.py            # 3 trials a point
    python benchmarks/scale/update_cost.py --quick    # 1 trial, 1 update
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from stats import calibrate, quartiles                 # noqa: E402

AGENTS = (6, 12, 32, 80, 416)
GROUPS = (1, 2)


def point(agents: int, groups: int, reps: int, seed: int) -> Dict[str, Any]:
    """Time ``reps`` updates of ``agents`` agents split into ``groups``."""
    from repro.core.config import PETConfig
    from repro.core.pet import ppo_config
    from repro.rl import stacked
    from repro.rl.ippo import IPPOTrainer

    stacked.usable_cores = lambda: groups
    stacked.MIN_AGENTS_PER_GROUP = 1
    pet = PETConfig.fast(seed=seed)
    cfg = ppo_config(pet, n_actions=10)
    trainer = IPPOTrainer([f"s{i}" for i in range(agents)], cfg)
    rows = np.arange(agents)
    rng = np.random.default_rng(seed)
    spent = []
    for _ in range(reps):
        for _ in range(pet.update_interval):
            obs = rng.normal(size=(agents, cfg.obs_dim))
            dec = trainer.act(obs, epsilons=[0.1] * agents)
            trainer.learner.record(rows, obs, dec["action"],
                                   rng.normal(size=agents), False,
                                   dec["log_prob"], dec["value"])
        last = dict(zip(trainer.agent_ids,
                        rng.normal(size=(agents, cfg.obs_dim))))
        t0 = time.perf_counter()
        trainer.update(last)
        spent.append(time.perf_counter() - t0)
    ms = float(np.median(spent)) * 1e3
    return {"agents": agents, "groups": groups, "seed": seed,
            "ms_per_update": ms, "ms_per_agent": ms / agents,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cpu_count": os.cpu_count(), "calib_ms": calibrate()}


def run_child(agents: int, groups: int, reps: int, seed: int
              ) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--point",
         str(agents), str(groups), "--reps", str(reps), "--seed", str(seed)],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="one trial of one update per point")
    ap.add_argument("--trials", type=int, default=3,
                    help="trials per point (ignored with --quick)")
    ap.add_argument("--reps", type=int, default=3,
                    help="updates timed per trial, median kept")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--point", nargs=2, type=int, metavar=("AGENTS", "GROUPS"),
                    help=argparse.SUPPRESS)      # one child's measurement
    ap.add_argument("--out", default=os.path.join(HERE, "out",
                                                  "update_cost.jsonl"))
    args = ap.parse_args(argv)
    if args.point:
        print(json.dumps(point(*args.point, reps=args.reps, seed=args.seed)))
        return 0
    trials, reps = (1, 1) if args.quick else (args.trials, args.reps)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    rows = []
    with open(args.out, "w") as fh:
        for t in range(trials):
            for agents in AGENTS:
                for groups in GROUPS:
                    row = run_child(agents, groups, reps, seed=args.seed + t)
                    rows.append(row)
                    fh.write(json.dumps(row) + "\n")
                    print(f"agents={agents:3d} groups={groups} trial={t}: "
                          f"{row['ms_per_update']:9.1f} ms/update "
                          f"{row['ms_per_agent']:6.2f} ms/agent "
                          f"rss {row['peak_rss_mb']:6.1f} MB "
                          f"calib {row['calib_ms']:.1f} ms", flush=True)

    print(f"\nms per agent, median [q1..q3] of {trials} trial(s); "
          f"cpu_count={os.cpu_count()}")
    for agents in AGENTS:
        med = {}
        for groups in GROUPS:
            q = quartiles([r["ms_per_agent"] for r in rows
                           if (r["agents"], r["groups"]) == (agents, groups)])
            med[groups] = q["median"]
            print(f"  agents={agents:3d} groups={groups}  "
                  f"{q['median']:6.2f} [{q['q1']:.2f}..{q['q3']:.2f}]")
        print(f"  agents={agents:3d} two groups: {med[1] / med[2]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
