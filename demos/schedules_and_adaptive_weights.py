"""Fixed step schedules versus the data-driven weight sequence.

Implicit mirror-descent steps damp each round's minimization by a weight
lam_t.  Fixed schedules (constant, 1/sqrt(t), 1/t) pay for their horizon
tuning; the adaptive rule grows lam only as accumulated progress demands,
with beta^2 = D^2 + gamma * tau encoding the expected comparator motion.
Same environment, four learners, one table.
"""

import numpy as np

from driftlab.envs import DriftingQuadraticEnv
from driftlab.geometry import Interval, euclidean_geometry
from driftlab.learners import AdaptiveSchedule, DynamicIOMD, fixed_schedule

T, TAU = 300, 2.0
geom = euclidean_geometry(Interval(-1.0, 1.0))
env = DriftingQuadraticEnv(T=T, seed=11, tau=TAU)
losses, comparators = env.losses(), env.comparators()
comp_total = sum(l.value(u) for l, u in zip(losses, comparators))


def episode(schedule):
    learner = DynamicIOMD(geom, schedule)
    total = 0.0
    for loss in losses:
        total += loss.value(learner.play())
        learner.update(loss)
    return total - comp_total, learner.lam[0]


rows = [
    ("constant eta", fixed_schedule("constant", 0.5, T)),
    ("eta ~ 1/sqrt(t)", fixed_schedule("inv_sqrt", 1.0, T)),
    ("eta ~ 1/t", fixed_schedule("inv_t", 1.0, T)),
    ("adaptive", AdaptiveSchedule(beta_sq=geom.diameter_sq + geom.gamma * TAU)),
]

print(f"drifting quadratic, T={T}, path budget tau={TAU}")
print(f"{'schedule':18s} {'regret':>10s} {'final lam':>10s}")
for name, sched in rows:
    regret, final_lam = episode(sched)
    print(f"{name:18s} {regret:10.4f} {final_lam:10.4f}")

print()
print("the adaptive weight never decreases and stops growing once the")
print("losses stop carrying new information; fixed schedules keep paying.")
