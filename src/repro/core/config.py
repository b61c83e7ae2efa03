"""PET configuration — every tunable, with the paper's §5.2 defaults."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["PETConfig"]


@dataclass
class PETConfig:
    """All PET hyperparameters.

    Paper values (§5.2): ``alpha=20``, reward weights ``(0.3, 0.7)`` for
    Web Search / ``(0.7, 0.3)`` for Data Mining, actor lr 4e-4, critic lr
    1e-3, clip 0.2, entropy (GAE variance/bias) coefficient 0.01,
    ``decay_rate=0.99``, ``T=50``, ``n in [0, 9]``, Pmax granularity 5%,
    and a tuning interval Δt an order of magnitude above the RTT.
    """

    # ---- action space (Eq. 5) -------------------------------------------
    alpha_kb: float = 20.0               # scale of E(n) = alpha * 2^n KB
    n_range: Tuple[int, int] = (0, 9)    # inclusive exponent range
    pmax_step: float = 0.05              # Pmax tuning granularity
    #: "full" enumerates every (n_min < n_max, pmax) triple (paper-exact);
    #: "compact" ties Kmin to Kmax/4 for a smaller space (faster training).
    action_mode: str = "compact"

    # ---- state (Eq. 2-3) -------------------------------------------------
    history_k: int = 4                   # time-sequence window length
    use_incast: bool = True              # ablation switch (Fig. 9)
    use_flow_ratio: bool = True          # ablation switch (Fig. 9)
    incast_norm: float = 32.0            # senders-per-receiver normalizer
    qlen_norm_bytes: float = 1_000_000.0

    # ---- reward (Eq. 6-8) -------------------------------------------------
    beta1: float = 0.3                   # throughput weight (Web Search)
    beta2: float = 0.7                   # latency weight (Web Search)
    #: reward queue normalizer; La = 1 / (1 + avg_qlen / qlen_ref)
    reward_qlen_ref_bytes: float = 50_000.0
    raw_reciprocal_reward: bool = False  # use the paper's literal 1/qlen

    # ---- learning (IPPO) ---------------------------------------------------
    actor_lr: float = 4e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    entropy_coef: float = 0.01
    ppo_epochs: int = 4
    minibatch_size: int = 64
    hidden: Tuple[int, int] = (64, 64)
    update_interval: int = 32            # control steps between PPO updates

    # ---- exploration decay (Eq. 13) -----------------------------------------
    explore_eps0: float = 0.2
    decay_rate: float = 0.99
    decay_step: int = 50                 # T in Eq. 13

    # ---- control timing -------------------------------------------------------
    delta_t: float = 1e-3                # tuning interval (>= 10x RTT)

    # ---- NCM (§4.5.1) ----------------------------------------------------------
    ncm_cleanup_interval_slots: int = 8      # scheduled cleanup cadence
    ncm_memory_threshold_bytes: int = 256_000  # threshold cleanup trigger
    ncm_threshold_drop_fraction: float = 0.5   # portion dropped on trigger

    seed: Optional[int] = None

    # ---- devtools ---------------------------------------------------------
    #: install the runtime invariant sanitizer
    #: (:mod:`repro.devtools.sanitize`) when the environment/controller is
    #: constructed; also enabled globally by the ``PET_SANITIZE`` env var.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.alpha_kb <= 0:
            raise ValueError("alpha must be positive")
        lo, hi = self.n_range
        if lo < 0 or hi <= lo:
            raise ValueError("n_range must be a non-empty ascending range")
        if not 0 < self.pmax_step <= 1:
            raise ValueError("pmax_step must be in (0, 1]")
        if abs(self.beta1 + self.beta2 - 1.0) > 1e-9:
            raise ValueError("beta1 + beta2 must equal 1 (paper Eq. 6)")
        if self.history_k < 1:
            raise ValueError("history window must be >= 1")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.action_mode not in ("compact", "full"):
            raise ValueError("action_mode must be 'compact' or 'full'")

    # -- convenience presets -------------------------------------------------
    @classmethod
    def for_websearch(cls, **overrides) -> "PETConfig":
        """Latency-leaning weights (paper: beta1=0.3, beta2=0.7)."""
        overrides.setdefault("beta1", 0.3)
        overrides.setdefault("beta2", 0.7)
        return cls(**overrides)

    @classmethod
    def for_datamining(cls, **overrides) -> "PETConfig":
        """Throughput-leaning weights (paper: beta1=0.7, beta2=0.3)."""
        overrides.setdefault("beta1", 0.7)
        overrides.setdefault("beta2", 0.3)
        return cls(**overrides)

    @classmethod
    def fast(cls, **overrides) -> "PETConfig":
        """Training profile tuned for this repo's scaled simulations.

        The paper trains for hours of testbed time at actor/critic lr
        4e-4/1e-3; the benchmark harness trains for a few thousand Δt
        intervals, so the optimization is scaled accordingly: higher
        learning rates, more PPO epochs per update, and a shorter credit
        horizon (queue dynamics at Δt granularity mix within a few
        intervals).  EXPERIMENTS.md documents this substitution.
        """
        overrides.setdefault("actor_lr", 3e-3)
        overrides.setdefault("critic_lr", 5e-3)
        overrides.setdefault("ppo_epochs", 10)
        overrides.setdefault("gamma", 0.9)
        overrides.setdefault("gae_lambda", 0.8)
        overrides.setdefault("entropy_coef", 0.003)
        overrides.setdefault("update_interval", 100)
        # Decay exploration within the (short) training budget, so the
        # measured run is near-greedy — the paper's long testbed training
        # reaches the same state via Eq. 13 at decay_rate=0.99.
        overrides.setdefault("decay_rate", 0.90)
        return cls(**overrides)

    @property
    def n_state_features(self) -> int:
        """Always six — ablated features are zero-masked, not removed, so
        network shapes stay comparable across the Fig. 9 arms."""
        return 6
