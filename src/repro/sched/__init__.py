"""In-band scheduling: live autotuning + CPU-GPU auto-balance.

`OnlineScheduler` runs the paper's Section 3.2.1 sampling-period
autotuner and Section 3.3 load balancer *during* `repro.api.run` steps
(backend="hybrid"), persisting winners through `repro.tuning.TuningCache`.
"""

from repro.sched.online import (
    OnlineScheduler,
    SchedulerReport,
    hybrid_param_space,
)

__all__ = [
    "OnlineScheduler",
    "SchedulerReport",
    "hybrid_param_space",
]
