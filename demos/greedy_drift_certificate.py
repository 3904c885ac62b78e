"""Greedy replay on a drifting target, with its realized certificate.

The greedy learner replays the minimizer of yesterday's loss: implicit
mirror descent with the weight schedule lam_t = 0.  Against a
slowly moving quadratic target its regret is controlled by how much the
losses themselves move: first value - final value + signed drift.  This
script runs one seeded episode and prints both sides of that inequality.
"""

import numpy as np

from driftlab.bounds import RunRecord, evaluate_bounds
from driftlab.envs import DriftingQuadraticEnv
from driftlab.learners import DynamicIOMD, GreedySchedule

env = DriftingQuadraticEnv(T=200, seed=7, tau=2.5)
geom = env.default_geometry()
losses, comparators = env.losses(), env.comparators()

learner = DynamicIOMD(geom, GreedySchedule())
plays, values = [], []
for loss in losses:
    x = learner.play()
    plays.append(x)
    values.append(loss.value(x))
    learner.update(loss)

record = RunRecord(
    algorithm="greedy",
    geom=geom,
    losses=losses,
    plays=np.array(plays),
    x_final=learner.play(),
    comparators=comparators,
    values=np.array(values),
)

print(f"rounds            {env.T}")
print(f"comparator path   {record.path_len:.3f}  (budget tau = 2.5)")
print(f"dynamic regret    {record.regret():.4f}")
for row in evaluate_bounds(record):
    verdict = "ok" if row.passed else "VIOLATED"
    print(f"{row.name:24s} lhs={row.lhs:9.4f}  rhs={row.rhs:9.4f}  {verdict}")
