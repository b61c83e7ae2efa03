"""Tests for experiment-harness internals: cache keys, defaults, drains."""

from dataclasses import replace

import pytest

from repro.analysis.experiments import (ScenarioConfig, _default_pet_config,
                                        _pretrain_key)
from repro.core.config import PETConfig
from repro.netsim.fluid import FluidConfig


def cfg(**kw):
    kw.setdefault("fluid", FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9))
    return ScenarioConfig(**kw)


class TestPretrainKey:
    def test_same_scenario_same_key(self):
        pet = PETConfig(seed=0)
        assert _pretrain_key("pet", cfg(), pet) == \
            _pretrain_key("pet", cfg(), pet)

    @pytest.mark.parametrize("field,value", [
        ("load", 0.31), ("workload", "datamining"),
        ("pretrain_intervals", 99), ("seed", 5), ("incast", False),
        ("incast_fan_in", 24), ("incast_period", 5e-3),
        ("incast_bytes", 100_000), ("delta_t", 2e-3)])
    def test_scenario_fields_change_key(self, field, value):
        pet = PETConfig(seed=0)
        assert _pretrain_key("pet", cfg(), pet) != \
            _pretrain_key("pet", cfg(**{field: value}), pet)

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
