"""Checkpoint compatibility of the learners' state dicts.

The digests below were taken, with the same constructions, before the
networks moved onto packed rows (when every network was a list of layer
objects): keys, shapes, dtypes and values of a fresh lone PPO agent
(a one-id ``IPPOTrainer``), a three-agent ``IPPOTrainer``, a
``PETController``, a ``DDQNAgent`` and an ``ACCController``,
and of a ``DDQNAgent`` after 60 train steps.  ``data/parent_checkpoint``
holds a ``PETController`` checkpoint written by that code's
``CheckpointManager`` after 24 control intervals.
"""

import os

import numpy as np

from repro.baselines.acc import ACCConfig, ACCController
from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.fingerprint import fingerprint
from repro.rl.checkpoint import CheckpointManager
from repro.rl.ddqn import DDQNAgent, DDQNConfig
from repro.rl.ippo import IPPOTrainer
from repro.rl.ppo import PPOConfig
from tests import plain_rl

_DATA = os.path.join(os.path.dirname(__file__), "data", "parent_checkpoint")

_PINNED = {
    "ppo_agent":
        "2e678da3bdb70f3a6bf9ddc638d016a0f0dea2acea1261decd02d43d8f2645d6",
    "ippo":
        "f7cc264f057c6e3b8ebcf37f53db654a5cc5724e7ce5539ada1ced4853257b03",
    "pet":
        "cd3cafcc3fe06637b4f7e26e9d70d42ffc2ce163552fdc44cc47abfc249e296f",
    "ddqn":
        "390cd3148485dc3033bc9a1dd147481e85067a681d02f6ec46ec691c19ad6bd6",
    "ddqn_trained":
        "579deea0e27124a8ae06697a4dfe79330e320d89bf1e5f70c9bc6374ab2d1f93",
    "acc":
        "dbfbde66b21ebd7d5c7a900effab199c2a43ae162b651d9957aa6c9e43a55925",
}
#: the parent checkpoint's state, as that code's ``state_dict()`` read it
_PINNED_PARENT_CHECKPOINT = (
    "2a239397938ad902993fdd881e6b86bf71226c5ac88b6258f440d2427df4a02f")
_KEYS = ["layer0.W", "layer0.b", "layer2.W", "layer2.b", "layer4.W",
         "layer4.b"]


def _ddqn_trained():
    agent = DDQNAgent(DDQNConfig(obs_dim=4, n_actions=5, hidden=(16, 16),
                                 batch_size=8, target_sync_interval=20,
                                 max_grad_norm=0.05, seed=2))
    rng = np.random.default_rng(0)
    for _ in range(60):
        agent.replay.add(rng.normal(size=4), int(rng.integers(5)),
                         float(rng.normal()), rng.normal(size=4),
                         bool(rng.random() < 0.1))
        agent.train_step()
    return agent.state_dict()


def _states():
    return {
        "ppo_agent": IPPOTrainer(["a"], PPOConfig(seed=3)).state_dict()["a"],
        "ippo": IPPOTrainer(["a", "b", "c"], PPOConfig(
            obs_dim=5, n_actions=4, hidden=(8, 8), seed=1)).state_dict(),
        "pet": PETController(["leaf0", "spine0"],
                             PETConfig(seed=0)).state_dict(),
        "ddqn": DDQNAgent(DDQNConfig(seed=4)).state_dict(),
        "ddqn_trained": _ddqn_trained(),
        "acc": ACCController(["leaf0", "spine0"],
                             ACCConfig(seed=0)).state_dict(),
    }


def test_state_dicts_keep_keys_shapes_dtypes_and_values():
    states = _states()
    assert {k: fingerprint(v) for k, v in states.items()} == _PINNED
    assert list(states["ppo_agent"]) == ["actor", "critic"]
    assert list(states["ddqn"]) == ["q", "q_target"]
    for net in (*states["ppo_agent"].values(), *states["ddqn"].values()):
        assert list(net) == _KEYS
        assert all(v.flags.c_contiguous and v.dtype == np.float64
                   for v in net.values())


def test_parent_checkpoint_restores_into_pet_controller():
    pet = PETController(["leaf0", "leaf1", "spine0"],
                        PETConfig(hidden=(8, 8), seed=9))
    assert fingerprint(pet.state_dict()) != _PINNED_PARENT_CHECKPOINT
    mgr = CheckpointManager(_DATA, prefix="pet")
    assert mgr.restore_into(pet) == 24
    assert mgr.skipped == []
    assert fingerprint(pet.state_dict()) == _PINNED_PARENT_CHECKPOINT
    # and the restored rows are what acting reads
    obs = np.zeros(pet.trainer.config.obs_dim)
    cols = pet.trainer.act(obs[None], rows=np.array([0]), greedy=True)
    critic = pet.trainer.state_dict()["leaf0"]["critic"]
    assert cols["value"][0] == plain_rl.PlainMLP(critic).forward(obs)[0, 0]
