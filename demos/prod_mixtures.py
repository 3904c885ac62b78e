"""Hedging learners and experts with self-confident Prod mixtures.

Part one runs the two-learner combiner on alternating corner losses.  A
greedy arm chases the previous round's corner and is always one step
behind (near unit loss), while an adaptive mirror arm hedges close to
uniform (about half a unit).  The combiner's weight on the greedy arm
collapses and the mixture pays roughly the better arm's bill.  Part
two replays the contest on a stationary loss vector, where greedy is
the stronger arm, and the weight moves the other way.  Part three runs
the per-expert combiner on shifting expert losses: it locks onto the
first leader quickly but re-inflates a crushed expert only slowly after
a shift, which is the static-regret behavior its guarantee describes
(tracking a moving leader is the clipped-simplex mirror's job; see
expert_tracking_clipped_simplex.py).
"""

import math

import numpy as np

from driftlab.combiners import ABProd, AdaptMLProd, LossRange
from driftlab.envs import AlternatingExpertsEnv, ShiftingExpertsEnv
from driftlab.geometry import ClippedSimplex, entropy_geometry
from driftlab.learners import AdaptiveSchedule, DynamicIOMD, GreedySchedule, fixed_schedule
from driftlab.losses import LinearLoss


def _contest(losses, mirror_arm):
    T = len(losses)
    greedy_arm = DynamicIOMD(mirror_arm.geom, GreedySchedule())
    comb = ABProd(greedy_arm, mirror_arm, LossRange(0.0, 1.0))
    tot = {"mix": 0.0, "greedy": 0.0, "mirror": 0.0}
    snaps = {}
    for t, loss in enumerate(losses, start=1):
        row = comb.update(loss)
        tot["mix"] += row["value"]
        tot["greedy"] += row["loss_a"]
        tot["mirror"] += row["loss_b"]
        if t in (1, 10, 100, T):
            snaps[t] = row["p_a"]
    return tot, snaps


T = 400

print("-- alternating corners: greedy arm is the bad one --")
env = AlternatingExpertsEnv(T)
mirror = DynamicIOMD(env.default_geometry(),
                     AdaptiveSchedule(beta_sq=math.log(T)))
tot, snaps = _contest(env.losses(), mirror)
for name in ("greedy", "mirror", "mix"):
    print(f"  total loss {name:6s} {tot[name]:8.2f}")
print("  weight on greedy arm:",
      "  ".join(f"t={t}: {p:.3f}" for t, p in sorted(snaps.items())))

print()
print("-- stationary vector [0.2, 0.7]: greedy arm is the good one --")
geom = entropy_geometry(ClippedSimplex(2, 2 / T))
losses = [LinearLoss(np.array([0.2, 0.7])) for _ in range(T)]
# small constant step = heavy damping: this arm creeps away from uniform
damped = DynamicIOMD(geom, fixed_schedule("constant", 0.02, T))
tot, snaps = _contest(losses, damped)
for name in ("greedy", "mirror", "mix"):
    print(f"  total loss {name:6s} {tot[name]:8.2f}")
print("  weight on greedy arm:",
      "  ".join(f"t={t}: {p:.3f}" for t, p in sorted(snaps.items())))

print()
print("-- per-expert combiner on shifting leaders (static device) --")
d, shifts = 5, 3
env = ShiftingExpertsEnv(T=600, seed=9, d=d, shifts=shifts)
comb = AdaptMLProd(d, LossRange(0.0, 1.0))
seg_mass = np.zeros(shifts + 1)
seg_len = np.zeros(shifts + 1)
seg_end = np.zeros(shifts + 1)
for t in range(1, env.T + 1):
    s = env.segment(t)
    m = comb.weights()[env.best[s]]
    seg_mass[s] += m
    seg_len[s] += 1
    seg_end[s] = m
    comb.update(env.loss(t))
for s in range(shifts + 1):
    print(f"  segment {s} ({int(seg_len[s])} rounds): leader expert {env.best[s]}, "
          f"mean mass {seg_mass[s] / seg_len[s]:.3f}, "
          f"mass at segment end {seg_end[s]:.3f}")
print(f"  final per-expert rates span [{comb.eta.min():.4f}, {comb.eta.max():.4f}]"
      f" (started at 0.5)")
