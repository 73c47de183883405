"""Controller sensing stages and composed policies.

* :mod:`repro.controllers.stages` — the per-window sensing stages (SLO
  verdicts, critical-path extraction, SVM detection, admission signals,
  service utilization) as plain functions in :data:`STAGES`, reached
  through a tenant's :class:`StageBinding` with ``pull(name, **params)``.
  Every pull computes directly; nothing is cached between pulls.
* :mod:`repro.controllers.composed` — the ``composed`` controller family:
  priority chains and SVM-gated RL with heuristic fallback and online
  DDPG fine-tuning.
"""

from repro.controllers.stages import STAGES, StageBinding

__all__ = ["STAGES", "StageBinding"]
