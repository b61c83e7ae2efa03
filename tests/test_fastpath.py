"""Bit-identity tests for the vectorised hot paths (:mod:`repro.rl.stacked`
and friends).

The stacked IPPO forward is compared with a plain loop over the agents:
2-D matmuls on each agent's own checkpoint and ``rng.choice`` on its own
generator (``tests/plain_rl.py``), then a record and an update of its
own learner row, one agent at a time.  The paths whose reference loops were deleted are held by
plain-loop oracles (``tests/test_gae.py``, ``tests/test_optim.py``,
``tests/test_ppo.py``, ``tests/test_ippo_replay_ddqn.py``,
``tests/test_engine.py``, ``tests/test_packet_network.py``,
``tests/test_step_oracle.py``, ``tests/test_switch_telemetry.py``) and,
end to end, by the digests pinned at the bottom of this file.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.core.training import run_control_loop
from repro.fingerprint import fingerprint
from repro.netsim.ecn import ECNConfig
from repro.netsim.engine import Simulator
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig
from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig
from repro.rl.stacked import PackedMLP, PPOLearner, StackingError
from tests import plain_rl
from tests.flow_rows import pinned_form
from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
from repro.traffic.workloads import workload_by_name


def _canon(x):
    """Canonical nested representation with exact float equality."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return x


def _act_each(trainer, observations, epsilons, greedy=False):
    """The reference: every agent's decision from its own checkpoint and
    generator by the plain 2-D forward and ``rng.choice``, one at a
    time."""
    states, ids = trainer.state_dict(), trainer.agent_ids
    return {aid: plain_rl.act(states[aid],
                              trainer.learner.rngs[ids.index(aid)], obs,
                              epsilon=epsilons.get(aid, 0.0), greedy=greedy)
            for aid, obs in observations.items()}


def _value(state, obs):
    return float(plain_rl.PlainMLP(state["critic"]).forward(obs)[0, 0])


# ------------------------------------------------------------ batched IPPO
def _rollout(stacked, seed, n_agents=4, steps=30, updates=2):
    """Drive act/record/update for a few cycles — through the trainer, or
    as a plain loop over its agents; return everything observable."""
    cfg = PPOConfig(obs_dim=6, n_actions=10, hidden=(16, 16), seed=seed,
                    minibatch_size=16, epochs=2)
    ids = [f"sw{i}" for i in range(n_agents)]
    trainer = IPPOTrainer(ids, cfg)
    obs_rng = np.random.default_rng(seed + 1000)
    log = []
    for u in range(updates):
        for t in range(steps):
            obs = {aid: obs_rng.normal(size=6) for aid in ids}
            eps = {aid: 0.2 if (t + i) % 3 else 0.0 for i, aid in enumerate(ids)}
            if stacked:
                dec = trainer.act(obs, epsilons=eps)
                vals = trainer.values(obs)
            else:
                dec = _act_each(trainer, obs, eps)
                states = trainer.state_dict()
                vals = {aid: _value(states[aid], o) for aid, o in obs.items()}
            log.append((_canon(dec), _canon(vals)))
            rewards = {aid: float(obs_rng.normal()) for aid in ids}
            dones = {aid: t == steps - 1 for aid in ids}
            if stacked:
                trainer.record(obs, dec, rewards, dones)
            else:
                for row, aid in enumerate(ids):
                    trainer.learner.record(
                        row, obs[aid], dec[aid]["action"], rewards[aid],
                        dones[aid], dec[aid]["log_prob"], dec[aid]["value"])
        last = {aid: obs_rng.normal(size=6) for aid in ids}
        stats = (trainer.update(last) if stacked else
                 {aid: trainer.learner.update(np.array([row]),
                                              last[aid][None])[0]
                  for row, aid in enumerate(ids)})
        log.append(_canon(stats))
    return log, _canon(trainer.state_dict())


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_batched_ippo_bit_identical(seed):
    assert _rollout(True, seed) == _rollout(False, seed)


def test_heterogeneous_agents_raise_stacking_error():
    """One config builds every agent, so they stack; agents whose
    configs — networks or hyperparameters — diverge beyond the seed
    cannot share a learner: an error, not a quiet per-agent fallback."""
    cfg = PPOConfig(obs_dim=5, n_actions=4, hidden=(8,), seed=3)
    with pytest.raises(StackingError, match="configs diverge"):
        PPOLearner([cfg, replace(cfg, hidden=(12,), seed=4)])
    with pytest.raises(StackingError, match="configs diverge"):
        PPOLearner([cfg, replace(cfg, actor_lr=1e-2)])
    trainer = IPPOTrainer(["a", "b"], cfg)
    assert trainer.stacking_status()["actor_layers"] == [[5, 8], [8, 4]]


def _random_weight_trainer(seed, n_agents=5):
    cfg = PPOConfig(obs_dim=6, n_actions=10, hidden=(16, 16), seed=seed)
    trainer = IPPOTrainer([f"sw{i}" for i in range(n_agents)], cfg)
    rng = np.random.default_rng(seed + 99)
    states = trainer.state_dict()
    for state in states.values():               # policies far from uniform
        for net in state.values():
            for key, p in net.items():
                net[key] = rng.normal(size=p.shape)
    trainer.load_state_dict(states)
    return trainer


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_greedy_matrix_act_equals_per_agent_act(seed):
    """The array-native greedy act — one argmax, one log, no per-agent
    Python — returns what each agent's one-row act and the plain 2-D
    argmax return, and touches nobody's generator."""
    trainer = _random_weight_trainer(seed)
    ids = trainer.agent_ids
    obs = np.random.default_rng(seed).normal(size=(len(ids), 6))
    rng_states = [g.bit_generator.state for g in trainer.learner.rngs]
    want = list(_act_each(trainer, dict(zip(ids, obs)), {},
                          greedy=True).values())
    for i, o in enumerate(obs):
        one = trainer.act(o[None], rows=np.array([i]), greedy=True)
        assert {k: v.tolist()[0] for k, v in one.items()} == want[i]
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
    assert [g.bit_generator.state
            for g in trainer.learner.rngs] == rng_states


@pytest.mark.parametrize("stacked", [True, False])
def test_sampling_matrix_act_equals_mapping_act(stacked):
    """Same private generators, same draw order, whichever way the
    observations arrive — the trainer's mapping form, or (``stacked``
    False) the plain 2-D forward and ``rng.choice`` per agent."""
    by_matrix = _random_weight_trainer(3)
    by_mapping = _random_weight_trainer(3)
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
        mapping = {aid: obs[ids.index(aid)] for aid in chosen}
        dicts = (by_mapping.act(mapping, epsilons=dict(zip(ids, eps)))
                 if stacked else
                 _act_each(by_mapping, mapping, dict(zip(ids, eps))))
        for j, aid in enumerate(chosen):
            assert {k: v[j] for k, v in cols.items()} == dicts[aid]


# ------------------------------------------------------------ event engine
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_engine_pending_counter_matches_scan(data):
    """Random schedule/cancel/run: the O(1) counter always equals the
    O(n) heap scan.  (``tests/test_engine.py`` checks the execution
    order itself against a sorted ``(time, seq)`` list.)"""
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["schedule", "cancel", "run"]),
                  st.floats(0.0, 1.0, allow_nan=False)),
        min_size=1, max_size=60))
    sim = Simulator()
    handles = []
    for op, x in ops:
        if op == "schedule":
            handles.append(sim.schedule(x, lambda: None))
        elif op == "cancel" and handles:
            handles[int(x * (len(handles) - 1))].cancel()
        elif op == "run":
            sim.run(until=sim.now + x)
        assert sim.pending() == sim._scan_pending()
    sim.run()
    assert sim.pending() == sim._scan_pending() == 0


def test_engine_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator()
    ev = sim.schedule(0.1, lambda: None)
    sim.run(until=0.2)
    assert sim.pending() == 0
    ev.cancel()           # transports re-arm timers from inside callbacks
    ev.cancel()
    assert sim.pending() == 0 == sim._scan_pending()


# ------------------------------------------------------------ gradient clip
def test_clip_gradients_pins_pre_clip_norm():
    """The packed clip's per-slice dot keeps the plain sum-of-squares
    norm, and scales every gradient by exactly ``max_norm / norm``."""
    net = PackedMLP([24, 64, 10], [np.random.default_rng(1)])
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(24, 64)), rng.normal(size=64),
             rng.normal(size=(64, 10)), rng.normal(size=10)]
    expect = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))

    def clipped(gs, max_norm):
        net.grads[0] = np.concatenate([g.ravel() for g in gs])
        total = net.clip(net.grads, max_norm)
        return float(total[0]), net.grads[0].copy()

    total, after = clipped(grads, 0.5)
    # the vectorized np.dot reduction must keep the seed's exact norm
    assert total == expect
    scale = 0.5 / expect
    assert after.tobytes() == np.concatenate(
        [(g * scale).ravel() for g in grads]).tobytes()
    # under the clip threshold: untouched, same norm convention
    small = [g * 1e-6 for g in grads]
    total_small, kept = clipped(small, 0.5)
    assert total_small == expect * 1e-6 or total_small == float(
        np.sqrt(sum(float((g ** 2).sum()) for g in small)))
    assert kept.tobytes() == np.concatenate(
        [g.ravel() for g in small]).tobytes()


# ------------------------------------------------------------ pinned runs
#
# The quick-mode workloads of the retired ``repro bench --hotpath``
# harness, which timed each of them once per leg of the old ``fastpath=``
# switch and required equal fingerprints.  The digests below were
# captured at commit 1252d4f — the last one where both legs existed, and
# agreed — so they hold the surviving leg to the deleted reference's
# bytes.

_FABRIC = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                      host_rate_bps=10e9, spine_rate_bps=40e9)


def _traffic_net(*, seed, duration, load):
    net = FluidNetwork(_FABRIC, seed=seed)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name("websearch"),
                                  rng=np.random.default_rng(seed + 1))
    net.start_flows(gen.generate(TrafficConfig(
        load=load, duration=duration, host_rate_bps=_FABRIC.host_rate_bps,
        start_time=0.0)))
    return net


def _interval_stats(net, intervals):
    stats = []
    for _ in range(intervals):
        net.advance(1e-3)
        stats.append(pinned_form(net.queue_stats(), net))
    return stats


def _tick_loop():
    """The full PET control loop: fluid simulator, fleet observer, IPPO
    inference and PPO updates."""
    net = _traffic_net(seed=0, duration=60e-3, load=0.6)
    pet = PETController(net.switch_names(),
                        PETConfig(delta_t=1e-3, update_interval=16, seed=0))
    res = run_control_loop(net, pet, intervals=60, delta_t=1e-3)
    return {"trace": res.reward_trace, "rewards": res.rewards_per_switch,
            "state": pet.state_dict(), "q_len": net.q_len.copy()}


def _ppo_update():
    """IPPO act/record/update in isolation: stacked inference, GAE, Adam."""
    n_agents, obs_dim, steps, horizon = 12, 24, 128, 64
    cfg = PPOConfig(obs_dim=obs_dim, n_actions=10, hidden=(64, 64),
                    epochs=4, minibatch_size=64, seed=0)
    ids = [f"s{i}" for i in range(n_agents)]
    trainer = IPPOTrainer(ids, cfg)
    rng = np.random.default_rng(123)
    all_obs = [dict(zip(ids, rng.normal(size=(n_agents, obs_dim))))
               for _ in range(steps + 1)]
    all_rewards = rng.normal(size=(steps, n_agents))
    out = {"stats": []}
    for t in range(steps):
        obs = all_obs[t]
        dec = trainer.act(obs, epsilon=0.1)
        for i, aid in enumerate(ids):
            d = dec[aid]
            trainer.learner.record(
                i, obs[aid], int(d["action"]), float(all_rewards[t, i]),
                False, d["log_prob"], d["value"])
        if (t + 1) % horizon == 0:
            out["stats"].append(trainer.update(all_obs[t + 1]))
    out["state"] = trainer.state_dict()
    return out


def _packet_sim():
    """The packet-level event simulator: event order, ``pending()``,
    per-switch ``queue_stats``."""
    topo = TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                          host_rate_bps=2e8, spine_rate_bps=8e8)
    net = PacketNetwork(topo, seed=0)
    rng = np.random.default_rng(7)
    hosts = net.host_names()
    flows = []
    for i in range(12):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        flows.append(Flow(i, hosts[src], hosts[dst],
                          int(rng.integers(20_000, 300_000)),
                          start_time=float(rng.uniform(0, 2e-3))))
    net.start_flows(flows)
    return {"stats": _interval_stats(net, 20),
            "events": net.sim.events_processed,
            "latencies": list(net.latencies),
            "finished": [(f.flow_id, f.finish_time)
                         for f in net.finished_flows]}


def _fluid_sim():
    """The fluid simulator: step phases and grouped switch telemetry."""
    net = _traffic_net(seed=3, duration=50e-3, load=0.7)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    return {"stats": _interval_stats(net, 50), "q_len": net.q_len.copy()}


#: captured at commit 1252d4f, where ``fastpath=True`` and
#: ``fastpath=False`` produced the same digest for each workload.
_PINNED = {
    "tick_loop":
        "cd790a1f6d05c0c445096d81b70bd195425efec514bccc4a5cb115dd99ab5763",
    "ppo_update":
        "b99d5e6636f9ec384184ccabaccade507781b2f69a3116e631f5d08dc68141f5",
    # re-pinned when packet records started to list only the flows still
    # active at collection (was 1ca1c35788b63a44…); the same run without
    # the per-flow observations digests alike before and after
    "packet_sim":
        "4153c121e5f3f61bd375c3a8fecd2fefbb538c7d6d5e4a8350a1f7867b365ece",
    "fluid_sim":
        "c2eb4e2ae20e777bc295efa7cc3fcee4496213782b2bf2322da4523281dd09a9",
}


def test_control_loop_fastpath_bit_identical():
    assert fingerprint(_tick_loop()) == _PINNED["tick_loop"]


def test_ppo_update_fastpath_bit_identical():
    assert fingerprint(_ppo_update()) == _PINNED["ppo_update"]


def test_packet_network_fastpath_bit_identical():
    assert fingerprint(_packet_sim()) == _PINNED["packet_sim"]


def test_fluid_network_fastpath_bit_identical():
    assert fingerprint(_fluid_sim()) == _PINNED["fluid_sim"]
