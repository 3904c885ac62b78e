"""Restart-on-budget learning when the comparator path is unknown.

The doubling schedule guesses a small path budget, runs the adaptive step
rule, and restarts with a doubled guess whenever the observed comparator
motion exceeds the current one.  The number of restarts is logarithmic in the
realized path, which this script makes visible across a spread of drifts.
"""

import math

import numpy as np

from driftlab.envs import DriftingQuadraticEnv
from driftlab.geometry import Interval, euclidean_geometry
from driftlab.learners import DoublingSchedule, DynamicIOMD

geom = euclidean_geometry(Interval(-1.0, 1.0))
D = math.sqrt(geom.diameter_sq)

print(f"{'tau':>7s} {'realized C_T':>13s} {'epochs':>7s} {'log2 cap':>9s} {'regret':>9s}")
for tau in (0.0, 1.0, 4.0, 16.0, 64.0):
    env = DriftingQuadraticEnv(T=500, seed=3, tau=tau)
    losses, comparators = env.losses(), env.comparators()
    learner = DynamicIOMD(geom, DoublingSchedule())
    steps = np.abs(np.diff(comparators, axis=0))[:, 0]
    total = 0.0
    for loss, step in zip(losses, [0.0, *steps]):
        total += loss.value(learner.play())
        learner.update(loss, step)
    regret = total - sum(l.value(u) for l, u in zip(losses, comparators))
    ct = float(np.sum(steps))
    cap = math.log2(ct / (math.sqrt(2.0) * D) + 1.0)
    print(f"{tau:7.1f} {ct:13.3f} {learner.epoch[0]:7d} {cap:9.3f} {regret:9.4f}")

print()
print("each epoch count stays below its doubling cap; no run needed the")
print("true path budget in advance.")
