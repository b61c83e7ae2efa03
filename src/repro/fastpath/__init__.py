"""Fastpath: batched cross-agent inference and hot-path optimization.

The paper's DTDE design runs one independent PPO learner per switch with
*identical architectures and independent parameters* — which is exactly
the shape batched linear algebra wants.  :mod:`repro.fastpath.batched`
stacks the per-agent MLP weights into 3-D tensors and replaces the
per-agent Python loops in :class:`repro.rl.ippo.IPPOTrainer` with a
single batched forward per tick.

The stacked forward is **bit-identical** per agent to the per-agent
loop, which :class:`~repro.rl.ippo.IPPOTrainer` still runs for agents
that do not stack (``tests/test_fastpath.py`` compares the two).

See ``docs/PERFORMANCE.md`` for the hot-path inventory and what checks
each entry.
"""

from repro.fastpath.batched import StackedAgents, StackedMLPs, stacking_error

__all__ = ["StackedAgents", "StackedMLPs", "stacking_error"]
