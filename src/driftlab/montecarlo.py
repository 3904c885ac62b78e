"""Lower-bound sweeps: many seeds of the jumping-target environment.

Runs the square-loss environment with targets jumping between -sigma and
+sigma for every single-iterate learner.  A (sigma, learner) family is what
``driftlab run`` steps for those seeds: each seed's learner comes from the
runner's builder, and the family steps as the lanes of one learner
(``learners.stack``) through the runner's round loop, so each seed's values
are those of its live run bit for bit.  Only the values are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import LowerBoundEnv
from .learners import ConfigError, stack
from .losses import LossTable
from .runner import _build_algorithm, play_rounds

# name: algorithm spec
_SPECS = {
    "greedy": {"name": "greedy"},
    "diomd-adaptive": {"name": "diomd", "schedule": "adaptive", "tau": 0.0},
    "diomd-fixed": {"name": "diomd", "schedule": "fixed", "shape": "inv_sqrt", "scale": 1.0},
    "diomd-doubling": {"name": "diomd-doubling"},
    "ogd": {"name": "ogd"},
}
LEARNERS = tuple(_SPECS)


@dataclass
class SweepResult:
    learner: str
    sigma: float
    T: int
    seeds: tuple
    regret: np.ndarray  # per-seed dynamic regret vs the target path
    vt: np.ndarray      # per-seed temporal variability (both modes coincide)
    values: np.ndarray | None = None  # (T, n_seeds) per-round losses if kept


def noise_paths(sigma: float, T: int, seeds) -> np.ndarray:
    """Per-seed target paths, one column per seed: the environments' own."""
    return np.stack([LowerBoundEnv(T, seed, sigma).eps for seed in seeds], axis=1)


def run_family(learner: str, sigma: float, T: int, seeds,
               keep_values: bool = False) -> SweepResult:
    """One (sigma, learner) family, a lane per seed; ``values`` only if kept."""
    if learner not in _SPECS:
        raise ConfigError(f"unknown batched learner {learner!r}; choose from {LEARNERS}")
    envs = [LowerBoundEnv(T, seed, sigma) for seed in seeds]
    geom = envs[0].default_geometry()
    lanes = stack([_build_algorithm(_SPECS[learner], geom, env, T)[0] for env in envs])
    losses = LossTable.rounds([env.loss_table() for env in envs])
    rows = []
    play_rounds(lambda increments: rows.append(lanes.step(next(losses), increments)["value"]),
                [env.comparators() for env in envs], geom.primal_norm)
    values, eps = np.array(rows), np.stack([env.eps for env in envs], axis=1)
    # the comparator sits on the per-round minimizer, so its loss is zero
    return SweepResult(learner, sigma, T, tuple(env.seed for env in envs),
                       regret=values.sum(axis=0), vt=np.sum(np.abs(np.diff(eps, axis=0)), axis=0),
                       values=values if keep_values else None)


def lower_bound_sweep(sigmas, T: int, seeds, learners=LEARNERS) -> dict:
    """Full (sigma x learner) grid; keys are (sigma, learner) pairs."""
    out = {}
    for sigma in sigmas:
        for learner in learners:
            out[(float(sigma), learner)] = run_family(learner, float(sigma), T, seeds)
    return out
