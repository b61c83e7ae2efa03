"""Differential tests for :mod:`repro.fastpath` — fast vs reference.

The fastpath contract is *bit-identity*: every optimized implementation
(batched cross-agent inference, vectorized GAE, fused Adam, tuple-heap
event loop, scratch-buffer fluid step) must produce exactly the bytes
the pre-existing reference loops produce, across seeds and workloads.
These tests pin that contract; ``python -m repro bench --hotpath``
re-proves it on the full benchmark workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.rl.gae import compute_gae, discounted_returns
from repro.rl.ippo import IPPOTrainer
from repro.rl.nn import MLP, clip_gradients
from repro.rl.ppo import PPOConfig


def _canon(x):
    """Canonical nested representation with exact float equality."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return x


# ------------------------------------------------------------ batched IPPO
def _rollout(fastpath, seed, n_agents=4, steps=30, updates=2):
    """Drive act/record/update for a few cycles; return everything observable."""
    cfg = PPOConfig(obs_dim=6, n_actions=10, hidden=(16, 16), seed=seed,
                    minibatch_size=16, epochs=2, fastpath=fastpath)
    ids = [f"sw{i}" for i in range(n_agents)]
    trainer = IPPOTrainer(ids, cfg)
    obs_rng = np.random.default_rng(seed + 1000)
    log = []
    for u in range(updates):
        for t in range(steps):
            obs = {aid: obs_rng.normal(size=6) for aid in ids}
            eps = {aid: 0.2 if (t + i) % 3 else 0.0 for i, aid in enumerate(ids)}
            dec = trainer.act(obs, epsilons=eps)
            vals = trainer.values(obs)
            log.append((_canon(dec), _canon(vals)))
            rewards = {aid: float(obs_rng.normal()) for aid in ids}
            dones = {aid: t == steps - 1 for aid in ids}
            trainer.record(obs, dec, rewards, dones)
        last = {aid: obs_rng.normal(size=6) for aid in ids}
        stats = trainer.update(last)
        log.append(_canon(stats))
    return log, _canon(trainer.state_dict())


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_batched_ippo_bit_identical(seed):
    fast = _rollout(True, seed)
    ref = _rollout(False, seed)
    assert fast == ref


def test_heterogeneous_agents_fall_back_to_per_agent_loop():
    cfg = PPOConfig(obs_dim=5, n_actions=4, hidden=(8,), seed=3, fastpath=True)
    trainer = IPPOTrainer(["a", "b"], cfg)
    # Make agent b's actor a different shape -> stacking must fail ...
    trainer.agents["b"].actor = MLP([5, 12, 4], activation="tanh",
                                    rng=np.random.default_rng(0))
    assert trainer._stacked() is None
    # ... and the per-agent loop must still serve act()/values().
    obs = {"a": np.zeros(5), "b": np.ones(5)}
    dec = trainer.act(obs, greedy=True)
    assert set(dec) == {"a", "b"}
    vals = trainer.values(obs)
    assert vals["a"] == trainer.agents["a"].value(obs["a"])


def _random_weight_trainer(seed, fastpath=True, n_agents=5):
    cfg = PPOConfig(obs_dim=6, n_actions=10, hidden=(16, 16), seed=seed,
                    fastpath=fastpath)
    trainer = IPPOTrainer([f"sw{i}" for i in range(n_agents)], cfg)
    rng = np.random.default_rng(seed + 99)
    for agent in trainer.agents.values():       # policies far from uniform
        for net in (agent.actor, agent.critic):
            for layer in net.layers:
                if hasattr(layer, "W"):
                    layer.W[...] = rng.normal(size=layer.W.shape)
                    layer.b[...] = rng.normal(size=layer.b.shape)
    return trainer


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_greedy_matrix_act_equals_per_agent_act(seed):
    """The array-native greedy act — one argmax, one log, no per-agent
    Python — returns each agent's own ``PPOAgent.act(greedy=True)``, and
    touches nobody's generator."""
    trainer = _random_weight_trainer(seed)
    ids = trainer.agent_ids
    obs = np.random.default_rng(seed).normal(size=(len(ids), 6))
    rng_states = [a.policy.rng.bit_generator.state
                  for a in trainer.agents.values()]
    want = [trainer.agents[aid].act(o, greedy=True) for aid, o in zip(ids, obs)]
    assert len({w["action"] for w in want}) > 1
    cols = trainer.act(obs, greedy=True)
    assert trainer.stacking_status()["stacked"]
    for name in ("action", "log_prob", "value"):
        assert cols[name].tolist() == [w[name] for w in want]
    # a subset, in any order, addressed by trainer row
    rows = np.array([3, 1])
    sub = trainer.act(obs[rows], rows=rows, greedy=True)
    for name in ("action", "log_prob", "value"):
        assert sub[name].tolist() == [want[3][name], want[1][name]]
    # the mapping form is the same computation
    as_dicts = trainer.act(dict(zip(ids, obs)), greedy=True)
    assert [as_dicts[aid] for aid in ids] == want
    assert [a.policy.rng.bit_generator.state
            for a in trainer.agents.values()] == rng_states


@pytest.mark.parametrize("fastpath", [True, False])
def test_sampling_matrix_act_equals_mapping_act(fastpath):
    """Same private generators, same draw order, whichever way the
    observations arrive — stacked or per-agent loop."""
    by_matrix = _random_weight_trainer(3, fastpath)
    by_mapping = _random_weight_trainer(3, fastpath)
    ids = by_matrix.agent_ids
    obs_rng = np.random.default_rng(8)
    for step in range(20):
        obs = obs_rng.normal(size=(len(ids), 6))
        eps = [0.5 if (step + i) % 2 else 0.0 for i in range(len(ids))]
        rows = np.array([4, 0, 2]) if step % 3 == 0 else None
        take = slice(None) if rows is None else rows
        cols = by_matrix.act(obs[take], rows=rows,
                             epsilons=list(np.array(eps)[take]))
        chosen = ids if rows is None else [ids[i] for i in rows]
        dicts = by_mapping.act({aid: obs[ids.index(aid)] for aid in chosen},
                               epsilons=dict(zip(ids, eps)))
        for j, aid in enumerate(chosen):
            assert {k: v[j] for k, v in cols.items()} == dicts[aid]


# ------------------------------------------------------------ vectorized GAE
@given(seed=st.integers(0, 2**16), t=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_gae_fastpath_exact(seed, t):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=t)
    values = rng.normal(size=t)
    dones = rng.random(t) < 0.2
    truncs = dones & (rng.random(t) < 0.5)
    boots = np.where(truncs, rng.normal(size=t), 0.0)
    last_value = float(rng.normal())
    a_f, r_f = compute_gae(rewards, values, dones, last_value, 0.99, 0.95,
                           truncateds=truncs, bootstrap_values=boots,
                           fastpath=True)
    a_r, r_r = compute_gae(rewards, values, dones, last_value, 0.99, 0.95,
                           truncateds=truncs, bootstrap_values=boots,
                           fastpath=False)
    assert a_f.tobytes() == a_r.tobytes()
    assert r_f.tobytes() == r_r.tobytes()
    d_f = discounted_returns(rewards, dones, last_value, 0.99, fastpath=True)
    d_r = discounted_returns(rewards, dones, last_value, 0.99, fastpath=False)
    assert d_f.tobytes() == d_r.tobytes()


# ------------------------------------------------------------ event engine
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_engine_pending_counter_matches_scan(data):
    """Random schedule/cancel/run in both heap layouts: the O(1) counter
    always equals the O(n) heap scan, and both modes execute the same
    event sequence."""
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["schedule", "cancel", "run"]),
                  st.floats(0.0, 1.0, allow_nan=False)),
        min_size=1, max_size=60))
    fired = {True: [], False: []}
    pend = {True: [], False: []}
    for fastpath in (True, False):
        sim = Simulator(fastpath=fastpath)
        handles = []
        for i, (op, x) in enumerate(ops):
            if op == "schedule":
                handles.append(sim.schedule(x, fired[fastpath].append, i))
            elif op == "cancel" and handles:
                handles[int(x * (len(handles) - 1))].cancel()
            elif op == "run":
                sim.run(until=sim.now + x)
            assert sim.pending() == sim._scan_pending()
            pend[fastpath].append(sim.pending())
        sim.run()
        assert sim.pending() == sim._scan_pending() == 0
    assert fired[True] == fired[False]
    assert pend[True] == pend[False]


def test_engine_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator(fastpath=True)
    ev = sim.schedule(0.1, lambda: None)
    sim.run(until=0.2)
    assert sim.pending() == 0
    ev.cancel()           # transports re-arm timers from inside callbacks
    ev.cancel()
    assert sim.pending() == 0 == sim._scan_pending()


# ------------------------------------------------------------ clip_gradients
def test_clip_gradients_pins_pre_clip_norm():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(24, 64)), rng.normal(size=64),
             rng.normal(size=(64, 10)), rng.normal(size=10)]
    expect = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    copies = [g.copy() for g in grads]
    total = clip_gradients(copies, max_norm=0.5)
    # the vectorized np.dot reduction must keep the seed's exact norm
    assert total == expect
    scale = 0.5 / expect
    for before, after in zip(grads, copies):
        assert after.tobytes() == (before * scale).tobytes()
    # under the clip threshold: untouched, same norm convention
    small = [g * 1e-6 for g in grads]
    keep = [g.copy() for g in small]
    total_small = clip_gradients(small, max_norm=0.5)
    assert total_small == expect * 1e-6 or total_small == float(
        np.sqrt(sum(float((g ** 2).sum()) for g in keep)))
    for a, b in zip(small, keep):
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------------------ simulators
def test_fluid_network_fastpath_bit_identical():
    from repro.fastpath.bench import HOTPATH_WORKLOADS, fingerprint
    run_f, _ = HOTPATH_WORKLOADS["fluid_sim"](True, True)
    run_r, _ = HOTPATH_WORKLOADS["fluid_sim"](False, True)
    assert fingerprint(run_f()) == fingerprint(run_r())


def test_packet_network_fastpath_bit_identical():
    from repro.fastpath.bench import HOTPATH_WORKLOADS, fingerprint
    run_f, _ = HOTPATH_WORKLOADS["packet_sim"](True, True)
    run_r, _ = HOTPATH_WORKLOADS["packet_sim"](False, True)
    assert fingerprint(run_f()) == fingerprint(run_r())


def test_control_loop_fastpath_bit_identical():
    from repro.fastpath.bench import HOTPATH_WORKLOADS, fingerprint
    run_f, _ = HOTPATH_WORKLOADS["tick_loop"](True, True)
    run_r, _ = HOTPATH_WORKLOADS["tick_loop"](False, True)
    assert fingerprint(run_f()) == fingerprint(run_r())


# The bench workloads above exercise the networks through the harness;
# the two tests below construct the twins *directly* so the reference
# legs of FluidNetwork/PacketNetwork (__init__, advance, queue_stats,
# _flow_observations with fastpath=False) are pinned by name — the
# PET103 dual-path-parity contract.

def _twin_fluid(fastpath):
    from repro.netsim.flow import Flow
    from repro.netsim.fluid import FluidConfig, FluidNetwork

    net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                   host_rate_bps=1e8, spine_rate_bps=4e8),
                       seed=5, fastpath=fastpath)
    net.start_flows([Flow(i, f"h{i}", "h3", 120_000) for i in range(3)])
    for _ in range(5):
        net.advance(0.002)
    return net


def test_fluid_network_reference_twin_direct():
    fast, ref = _twin_fluid(True), _twin_fluid(False)
    assert fast.queue_stats() == ref.queue_stats()
    assert fast._flow_observations() == ref._flow_observations()


def test_packet_network_reference_twin_direct():
    from repro.netsim.flow import Flow
    from repro.netsim.network import PacketNetwork
    from repro.netsim.topology import TopologyConfig

    stats = {}
    for fastpath in (True, False):
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=1e8,
                                           spine_rate_bps=4e8),
                            seed=5, fastpath=fastpath)
        net.start_flows([Flow(i, f"h{i}", "h3", 30_000) for i in range(3)])
        net.advance(0.02)
        stats[fastpath] = net.queue_stats()
    assert stats[True] == stats[False]


# ------------------------------------------------------------ bench harness
def test_hotpath_bench_quick_smoke(tmp_path):
    import json

    from repro.fastpath.bench import hotpath_main

    out = tmp_path / "bench.json"
    rc = hotpath_main(["--quick", "--repeat", "1", "--workload", "ppo_update",
                       "--out", str(out), "--no-attribution"])
    assert rc == 0
    report = json.loads(out.read_text())
    (w,) = report["workloads"]
    assert w["name"] == "ppo_update" and w["results_match"] is True
    # regression guard: a doctored baseline with a huge speedup must fail
    doctored = dict(report)
    doctored["workloads"] = [dict(w, speedup=w["speedup"] * 100)]
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doctored))
    rc = hotpath_main(["--quick", "--repeat", "1", "--workload", "ppo_update",
                       "--out", str(out), "--no-attribution",
                       "--baseline", str(base)])
    assert rc != 0
