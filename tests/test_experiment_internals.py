"""Tests for experiment-harness internals: cache keys, defaults, drains."""

from dataclasses import fields, replace

import pytest

from repro.analysis.experiments import (ScenarioConfig, _default_pet_config,
                                        _pretrain_key)
from repro.core.config import PETConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.fluid import FluidConfig
from repro.netsim.topology import TopologyConfig
from repro.traffic.patterns import PatternSegment


def cfg(**kw):
    kw.setdefault("fluid", FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9))
    return ScenarioConfig(**kw)


#: the scenario fields the pretraining run does not read
MEASURED_ONLY = ("duration", "online_training", "phases", "link_failure")
#: a changed value for every ScenarioConfig field
VARIED = {
    "workload": "datamining", "load": 0.31, "duration": 0.5,
    "simulator": "fluid_shard", "delta_t": 2e-3, "seed": 5,
    "incast": False, "incast_fan_in": 24, "incast_period": 5e-3,
    "incast_bytes": 100_000, "pretrain_intervals": 99,
    "online_training": False,
    "phases": (PatternSegment("datamining", 0.0, 0.1, 0.5),),
    "link_failure": (0.05, 0.1, 0.1),
    "pet": {"history_k": 2},
    "fluid": FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                         host_rate_bps=10e9, spine_rate_bps=80e9),
    "packet": TopologyConfig(n_leaf=3),
    "fattree": FatTreeConfig(n_pods=2),
}
#: each fabric field is varied under the simulator that reads it
SIMULATOR = {"packet": "packet", "fattree": "fluid_shard"}


def _value_id(value):
    return None if isinstance(value, (str, int, float)) else \
        type(value).__name__


class TestPretrainKey:
    def test_same_scenario_same_key(self):
        pet = PETConfig(seed=0)
        assert _pretrain_key("pet", cfg(), pet) == \
            _pretrain_key("pet", cfg(), pet)

    @pytest.mark.parametrize("field,value", [
        (f.name, VARIED.get(f.name)) for f in fields(ScenarioConfig)],
        ids=_value_id)
    def test_scenario_fields_change_key(self, field, value):
        """Every field changes the key, except the measured-run-only ones,
        which must not; a new field fails here until it is classified."""
        assert field in VARIED, f"classify ScenarioConfig.{field} here"
        base = cfg(simulator=SIMULATOR.get(field, "fluid"))
        changed = replace(base, **{field: value})

        def key(c):
            return _pretrain_key("pet", c, _default_pet_config(c))
        if field in MEASURED_ONLY:
            assert key(changed) == key(base)
        else:
            assert key(changed) != key(base)

    def test_scheme_changes_key(self):
        pet = PETConfig(seed=0)
        assert _pretrain_key("pet", cfg(), pet) != \
            _pretrain_key("pet_ablated", cfg(), pet)

    @pytest.mark.parametrize("field,value", [
        ("beta1", 0.7), ("use_incast", False), ("use_flow_ratio", False),
        ("action_mode", "full"), ("history_k", 2), ("actor_lr", 1e-3),
        ("update_interval", 7)])
    def test_learning_fields_change_key(self, field, value):
        base = PETConfig(seed=0)
        changed = replace(base, **{field: value} if field != "beta1"
                          else {"beta1": 0.7, "beta2": 0.3})
        assert _pretrain_key("pet", cfg(), base) != \
            _pretrain_key("pet", cfg(), changed)

    def test_fabric_changes_key(self):
        pet = PETConfig(seed=0)
        other = cfg(fluid=FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=2,
                                      host_rate_bps=10e9,
                                      spine_rate_bps=40e9))
        assert _pretrain_key("pet", cfg(), pet) != \
            _pretrain_key("pet", other, pet)
        faster = cfg(fluid=replace(cfg().fluid, spine_rate_bps=80e9))
        assert _pretrain_key("pet", cfg(), pet) != \
            _pretrain_key("pet", faster, pet)

    def test_sanitizer_and_untrained_fields_keep_key(self):
        pet = PETConfig(seed=0)
        assert _pretrain_key("pet", cfg(), pet) == _pretrain_key(
            "pet", cfg(duration=0.5, online_training=False),
            replace(pet, sanitize=True))


class TestPretrainCache:
    def test_incast_fan_in_trains_its_own_model(self, monkeypatch):
        """Fan-in 8 and 24 must not share one cached model; a repeat of
        either config still hits the cache."""
        import repro.analysis.experiments as ex
        from repro.fingerprint import fingerprint
        trained = []
        train = ex.pretrain_offline_multi

        def spy(*args, **kwargs):
            trained.append(1)
            return train(*args, **kwargs)
        monkeypatch.setattr(ex, "pretrain_offline_multi", spy)
        pet = PETConfig.fast(update_interval=5, seed=3)
        low, high = (cfg(incast_fan_in=f, incast_period=5e-3, seed=3,
                         pretrain_intervals=20) for f in (2, 3))
        ex.clear_pretrain_cache()
        a = ex._cached_pretrain("pet", low, pet)
        b = ex._cached_pretrain("pet", high, pet)
        assert len(trained) == 2
        assert fingerprint(a) != fingerprint(b)
        assert ex._cached_pretrain("pet", low, pet) is a
        assert ex._cached_pretrain("pet", high, pet) is b
        assert len(trained) == 2
        ex.clear_pretrain_cache()


#: ``fingerprint`` of ACC's offline-pretrained state on
#: ``TestAccPretrain``'s scenario, captured while ACC's pretraining still
#: ran its own control loop
_PINNED_ACC_PRETRAIN = \
    "3b24c1faf36ffb3825d84bd1a7d825103c90c4e36bba87cbf6fdd25f477f9b5d"


class TestAccPretrain:
    def test_state_pinned(self):
        """ACC pretrains in the one episode loop with the bits it had in
        its own loop."""
        import repro.analysis.experiments as ex
        from repro.fingerprint import fingerprint
        c = cfg(duration=0.02, pretrain_intervals=120, load=0.4, seed=0,
                fluid=FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                                  host_rate_bps=10e9, spine_rate_bps=40e9))
        ex.clear_pretrain_cache()
        state = ex._cached_pretrain_acc(c, _default_pet_config(c))
        ex.clear_pretrain_cache()
        assert fingerprint(state) == _PINNED_ACC_PRETRAIN


class TestDefaultPetConfig:
    def test_websearch_weights(self):
        c = _default_pet_config(cfg(workload="websearch"))
        assert (c.beta1, c.beta2) == (0.3, 0.7)

    def test_datamining_weights(self):
        c = _default_pet_config(cfg(workload="datamining"))
        assert (c.beta1, c.beta2) == (0.7, 0.3)

    def test_inherits_scenario_delta_t_and_seed(self):
        c = _default_pet_config(cfg(delta_t=2e-3, seed=42))
        assert c.delta_t == 2e-3
        assert c.seed == 42

    def test_uses_fast_profile(self):
        c = _default_pet_config(cfg())
        assert c.actor_lr == pytest.approx(3e-3)
        assert c.update_interval == 100

    def test_scenario_overrides_applied(self):
        c = _default_pet_config(cfg(pet={"history_k": 1, "beta1": 0.9,
                                         "beta2": 0.1}))
        assert (c.history_k, c.beta1, c.beta2, c.seed) == (1, 0.9, 0.1, 0)


class TestReportFormatting:
    def test_fmt_zero_and_small(self):
        from repro.analysis.report import _fmt
        assert _fmt(0.0) == "0"
        assert "e" in _fmt(1e-7)
        assert _fmt("abc") == "abc"
        assert _fmt(12) == "12"

    def test_format_table_empty_rows(self):
        from repro.analysis.report import format_table
        text = format_table(["a", "b"], [])
        assert "a" in text and len(text.splitlines()) == 2
