"""Online learners built on the implicit update.

Every learner exposes ``play()`` (the point paying this round's loss) and
``update(loss, path_increment=0.0)`` which advances the state and returns a
flat dict of per-round diagnostics (progress certificate delta, weight lam,
dual gradient norm at the play, solver label).

The state point is checked once, at build time (``start_point``), and then
only replaced by checked prox or projection outputs, so rounds trust it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, _as_vector
from .losses import LinearLoss, Loss
from .prox import implicit_update, implicit_update_lanes


class ConfigError(ValueError):
    pass


def start_point(geom: Geometry, x0=None, field: str = "algorithm.x0") -> np.ndarray:
    """The first play: ``x0`` checked against the domain, or its midpoint;
    a fault names config field ``field``."""
    if x0 is None:
        return geom.domain.midpoint()
    try:
        x = _as_vector(x0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {field!r}: {exc}") from None
    if not geom.domain._contains(x):
        raise ConfigError(f"config field {field!r}: {x.tolist()} is not a point "
                          f"of the {geom.domain.kind} domain")
    return x


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedSchedule:
    """Pre-materialized positive non-increasing step sizes eta_1..eta_T."""

    etas: np.ndarray

    def __post_init__(self):
        etas = np.asarray(self.etas, dtype=float)
        if etas.ndim != 1 or etas.size == 0:
            raise ConfigError("fixed schedule needs a 1-d array of steps")
        if np.any(etas <= 0) or np.any(np.diff(etas) > 1e-15):
            raise ConfigError("fixed schedule must be positive and non-increasing")
        object.__setattr__(self, "etas", etas)

    def lam(self, t: int) -> float:
        if t > self.etas.size:
            raise ConfigError(
                f"fixed schedule exhausted: round {t} exceeds horizon {self.etas.size}"
            )
        return 1.0 / float(self.etas[t - 1])


@dataclass(frozen=True)
class GreedySchedule:
    """lam_t = 0: every round minimizes the previous loss outright."""

    def lam(self, t: int) -> float:
        return 0.0


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Self-tuning weights lam_t = (sum of past deltas) / beta_sq.

    ``tau`` is the comparator path-length budget the run is configured for;
    it feeds the bound checks, not the update itself.
    """

    beta_sq: float
    tau: float = 0.0

    def __post_init__(self):
        if not (self.beta_sq > 0):
            raise ConfigError("adaptive schedule needs beta_sq > 0")
        if self.tau < 0:
            raise ConfigError("tau must be nonnegative")


@dataclass(frozen=True)
class DoublingSchedule:
    """Self-tuning weights restarted on a doubling comparator-path budget.

    Epoch i has budget Q_i = sqrt(2) * D * 2^i and runs the adaptive rule
    with beta_sq = D^2 + gamma * Q_i.  When the comparator path inside the
    epoch exceeds Q_i, the next epoch opens with the weight reset to zero and
    the iterate carried over unchanged (no prox solve on a restart round).
    """

    def budget(self, geom: Geometry, epoch: int) -> tuple[float, float]:
        """(Q_i, beta_sq) of epoch ``epoch``."""
        q = math.sqrt(2.0) * math.sqrt(geom.diameter_sq) * 2.0 ** epoch
        return q, geom.diameter_sq + geom.gamma * q


def fixed_schedule(shape: str, scale: float, horizon: int) -> FixedSchedule:
    if scale <= 0 or horizon < 1:
        raise ConfigError("schedule scale must be positive and horizon >= 1")
    t = np.arange(1, horizon + 1, dtype=float)
    if shape == "constant":
        etas = np.full(horizon, scale)
    elif shape == "inv_sqrt":
        etas = scale / np.sqrt(t)
    elif shape == "inv_t":
        etas = scale / t
    else:
        raise ConfigError(f"unknown schedule shape {shape!r}")
    return FixedSchedule(etas)


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------


class Learner:
    """Interface: play() then update(loss) once per round."""

    geom: Geometry

    def play(self) -> np.ndarray:
        raise NotImplementedError

    def update(self, loss: Loss, path_increment: float = 0.0) -> dict:
        raise NotImplementedError


def _round_row(geom, loss, x, res, lam) -> dict:
    g = loss._subgradient(x)
    row = {
        "value": res.value,
        "gnorm_dual": geom.dual_norm(g),
        "delta": res.delta,
        "lam": lam,
        "solver": res.solver,
    }
    if geom.mirror == "entropy" and isinstance(loss, LinearLoss):
        row["eg2"] = float(x @ (loss.g * loss.g))
    return row


class DynamicIOMD(Learner):
    """Implicit online mirror descent; the schedule sets the round weights.

    Greedy and fixed schedules give lam_t outright.  The adaptive and
    doubling schedules tune it from the progress so far,
    lam_{t+1} = max(lam_t, (delta_1 + ... + delta_t) / beta_sq), so the
    first round (of each doubling epoch) is a pure loss minimization and the
    weights never decrease.  ``lam`` holds the weight of the next round for
    the self-tuning schedules and that of the last round otherwise.
    """

    def __init__(self, geom: Geometry, schedule, x0=None):
        if not isinstance(schedule, (GreedySchedule, FixedSchedule,
                                     AdaptiveSchedule, DoublingSchedule)):
            raise ConfigError(f"unsupported schedule {schedule!r}")
        self.geom = geom
        self.schedule = schedule
        self.x = start_point(geom, x0)
        self.t = 1
        self.lam = 0.0
        self.delta_sum = 0.0
        self.beta_sq = schedule.beta_sq if isinstance(schedule, AdaptiveSchedule) else None
        self.doubling = isinstance(schedule, DoublingSchedule)
        if self.doubling:
            self.epoch = 0
            self.path_in_epoch = 0.0
            self.Q, self.beta_sq = schedule.budget(geom, 0)

    def play(self):
        return self.x

    def update(self, loss, path_increment: float = 0.0):
        if self.doubling:
            if path_increment is None or path_increment < 0:
                raise ConfigError("doubling learner needs nonnegative path increments")
            self.path_in_epoch += path_increment
            if self.path_in_epoch > self.Q:
                return self._restart(loss)
        if self.beta_sq is None:
            self.lam = self.schedule.lam(self.t)
        res = implicit_update(loss, self.geom, self.x, self.lam)
        row = _round_row(self.geom, loss, self.x, res, self.lam)
        if self.beta_sq is not None:
            # deltas are nonnegative, so the weight sequence never decreases
            self.delta_sum += res.delta
            self.lam = max(self.lam, self.delta_sum / self.beta_sq)
        if self.doubling:
            row["restart"] = False
            row["epoch"] = self.epoch
        self.x = res.x_next
        self.t += 1
        return row

    def _restart(self, loss) -> dict:
        """Open the next epoch; the iterate stays and no prox step is solved."""
        self.epoch += 1
        self.Q, self.beta_sq = self.schedule.budget(self.geom, self.epoch)
        self.lam = 0.0
        self.delta_sum = 0.0
        self.path_in_epoch = 0.0
        self.t += 1
        return {
            "value": loss._value(self.x),
            "gnorm_dual": self.geom.dual_norm(loss._subgradient(self.x)),
            "delta": 0.0,
            "lam": 0.0,
            "solver": "restart",
            "restart": True,
            "epoch": self.epoch,
        }


class OGD(Learner):
    """Projected online gradient descent baseline (euclidean only)."""

    def __init__(self, geom: Geometry, etas, x0=None):
        if geom.mirror != "euclidean":
            raise ConfigError("ogd runs on euclidean geometry only")
        self.geom = geom
        self.etas = np.asarray(etas, dtype=float)
        if self.etas.ndim != 1 or np.any(self.etas <= 0):
            raise ConfigError("ogd needs a 1-d array of positive steps")
        self.x = start_point(geom, x0)
        self.t = 1

    def play(self):
        return self.x

    def update(self, loss, path_increment: float = 0.0):
        if self.t > self.etas.size:
            raise ConfigError(
                f"ogd schedule exhausted: round {self.t} exceeds horizon {self.etas.size}"
            )
        g = loss._subgradient(self.x)
        row = {
            "value": loss._value(self.x),
            "gnorm_dual": self.geom.dual_norm(g),
            "delta": None,
            "lam": None,
            "solver": "gradient-step",
        }
        self.x = self.geom.project(self.x - self.etas[self.t - 1] * g)
        self.t += 1
        return row


def update_many(learners: list, loss: Loss) -> None:
    """Step every learner on the same loss, rows discarded.

    Leaves each learner's state (x, lam, delta_sum, t) exactly as
    ``[l.update(loss) for l in learners]`` would.  Adaptive ``DynamicIOMD``
    learners sharing one entropy geometry under a linear loss take one
    batched prox step; any other list is stepped one learner at a time.
    """
    if not learners:
        return
    geom = learners[0].geom
    if not (isinstance(loss, LinearLoss) and geom.mirror == "entropy"
            and all(type(l) is DynamicIOMD and l.geom is geom
                    and type(l.schedule) is AdaptiveSchedule for l in learners)):
        for learner in learners:
            learner.update(loss)
        return
    lams = np.array([l.lam for l in learners])
    X, _, deltas = implicit_update_lanes(loss, geom, np.stack([l.x for l in learners]), lams)
    delta_sums = np.array([l.delta_sum for l in learners]) + deltas
    ratios = delta_sums / [l.beta_sq for l in learners]
    # max(lam, ratio) as the one-lane update takes it: lam unless ratio is larger
    lams = np.where(ratios > lams, ratios, lams)
    for learner, x, delta_sum, lam in zip(learners, X, delta_sums.tolist(), lams.tolist()):
        learner.x = x
        learner.delta_sum = delta_sum
        learner.lam = lam
        learner.t += 1
