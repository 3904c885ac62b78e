"""driftlab: online learning under drift with per-run regret verification.

Implicit (proximal) online mirror descent with fixed, self-tuning, and
restart-based weight schedules; expert-space and meta-combiner layers;
synthetic drift environments; and a trace/report pipeline that certifies
every run against its regret guarantees after the fact.
"""

import types

from .bounds import (
    BoundCheck,
    RunRecord,
    check_recursion_bound,
    evaluate_bounds,
    first_order_bound,
)
from .combiners import (
    ABProd,
    AdaptMLProd,
    CoveringInterval,
    LossRange,
    Piece,
    Scaffold,
    active_intervals,
    break_by_path_length,
)
from .envs import make_environment
from .geometry import (
    Ball,
    Box,
    ClippedSimplex,
    Geometry,
    Interval,
    domain_from_dict,
    entropy_geometry,
    euclidean_geometry,
)
from .learners import (
    OGD,
    AdaptiveSchedule,
    ConfigError,
    DoublingSchedule,
    DynamicIOMD,
    FixedSchedule,
    GreedySchedule,
    fixed_schedule,
)
from .losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    QuadraticLoss,
    loss_from_dict,
    path_length,
    temporal_variability,
)
from .prox import SolverError, implicit_update
from .runner import (
    TraceError,
    expand_config,
    expand_sweep,
    run_cell,
    summarize,
    trace_to_report,
    verify_trace,
)

__version__ = "0.1.0"

# the public names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
