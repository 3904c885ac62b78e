"""Online learners built on the implicit update.

Every learner, and every combiner of ``combiners``, holds k lanes: ``x``
is the (k, d) points paying this round's loss, and ``step(loss,
path_increments)`` advances every lane and returns the round's diagnostics
(progress certificate delta, weight lam, dual gradient norm at the play,
solver label) as (k,) columns.  ``play()`` and ``update(loss,
path_increment=0.0)`` are lane 0's point and the step of a one-lane
learner, its row as Python values.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, GeometryError, _as_vector, _Orthotope
from .losses import LossTable
from .prox import _interval_quadratics, implicit_update_lanes, _sound_lanes


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
    the iterate carried over unchanged (a restart round's prox step is dropped).
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
    """Interface: read ``x``, the (k, d) plays, then ``step(loss,
    path_increments)``, once per round.  Each public learner also defines
    ``play()`` and ``update(loss, path_increment)``, its one-lane forms."""

    geom: Geometry

    def step(self, loss, path_increments: np.ndarray) -> dict:
        raise NotImplementedError


def _one_row(cols: dict) -> dict:
    """A one-lane learner's row, from the columns its ``step`` returns."""
    return {key: col if col is None else col[0] if type(col) is list else col.item()
            for key, col in cols.items()}


class DynamicIOMD(Learner):
    """Implicit online mirror descent; the schedule sets the round weights.

    Greedy and fixed schedules give lam_t outright.  The adaptive and
    doubling schedules tune it from the progress so far,
    lam_{t+1} = max(lam_t, (delta_1 + ... + delta_t) / beta_sq), so the
    first round (of each doubling epoch) is a pure loss minimization and the
    weights never decrease.

    A built learner has one lane, and ``stack`` joins learners into one:
    ``x`` is (k, d), and ``lam``, ``delta_sum``, ``beta_sq`` (self-tuning)
    and doubling's ``epoch``, ``path_in_epoch`` and ``Q`` are (k,).  ``lam``
    holds the weight of the next round for the self-tuning schedules and
    that of the last round otherwise.
    """

    def __init__(self, geom: Geometry, schedule, x0=None):
        if not isinstance(schedule, (GreedySchedule, FixedSchedule,
                                     AdaptiveSchedule, DoublingSchedule)):
            raise ConfigError(f"unsupported schedule {schedule!r}")
        self.geom = geom
        self.schedule = schedule
        self.x = start_point(geom, x0)[None, :]
        self.t = 1
        self.lam, self.delta_sum = np.zeros(1), np.zeros(1)
        adaptive = isinstance(schedule, AdaptiveSchedule)
        self.beta_sq = np.array([schedule.beta_sq]) if adaptive else None
        self.doubling = isinstance(schedule, DoublingSchedule)
        if self.doubling:
            self.epoch, self.path_in_epoch = np.zeros(1, dtype=int), np.zeros(1)
            self.Q, self.beta_sq = (np.array([v]) for v in schedule.budget(geom, 0))

    def play(self):
        """Lane 0's point, the play of a one-lane learner."""
        return self.x[0]

    def update(self, loss, path_increment: float = 0.0):
        """``step`` of a one-lane learner; its row as Python values."""
        return _one_row(self.step(loss, np.array([path_increment], dtype=float)))

    def step(self, loss, path_increments: np.ndarray) -> dict:
        """One round of every lane: lane i pays ``loss``, or row i of a
        ``LossTable``, at its point and moves ``path_increments[i]`` along
        its comparator path.  Returns the round's row as (k,) columns, the
        solver labels as a list.  A doubling restart is per lane: the next
        epoch opens at weight zero, and the lane keeps its anchor; its step,
        solved with the others, is dropped."""
        k = len(self.x)
        if self.doubling:
            if not (path_increments >= 0.0).all():
                raise ConfigError("doubling learner needs nonnegative path increments")
            path = self.path_in_epoch + path_increments
            restart = path > self.Q
        if self.beta_sq is None:
            self.lam = np.full(k, self.schedule.lam(self.t))
        lams = self.lam
        # stacked lanes were checked once; a lone lane is checked each step
        out = implicit_update_lanes(loss, self.geom, self.x, lams, checked=k > 1)
        x_next, deltas, solvers = out.x_next, out.deltas, out.solvers
        if self.beta_sq is not None:
            # deltas are nonnegative, so the weights never decrease; this is
            # max(lam, ratio) as Python takes it: lam unless ratio is larger
            delta_sum = self.delta_sum + deltas
            ratio = delta_sum / self.beta_sq
            self.lam, self.delta_sum = np.where(ratio > lams, ratio, lams), delta_sum
        row = {}
        if self.doubling:
            if restart.any():
                self.epoch = self.epoch + restart
                for i in np.flatnonzero(restart).tolist():
                    self.Q[i], self.beta_sq[i] = self.schedule.budget(self.geom,
                                                                      int(self.epoch[i]))
                solvers = ["restart" if r else s for r, s in zip(restart.tolist(), solvers)]
                lams, deltas, path, self.lam, self.delta_sum = (
                    np.where(restart, 0.0, v) for v in (lams, deltas, path, self.lam,
                                                         self.delta_sum))
                x_next = np.where(restart[:, None], self.x, x_next)
            self.path_in_epoch = path
            row = {"restart": restart, "epoch": self.epoch}
        row.update(value=out.values, gnorm_dual=out.gnorms, delta=deltas, lam=lams,
                   solver=solvers)
        if self.geom.mirror == "entropy" and loss.kind == "linear":
            G2 = loss.G * loss.G if isinstance(loss, LossTable) else [loss.g * loss.g] * k
            # one dot product per lane: a matrix product rounds differently
            row["eg2"] = np.array([float(x @ g2) for x, g2 in zip(self.x, G2)])
        self.x = x_next
        self.t += 1
        return row


class OGD(Learner):
    """Projected online gradient descent baseline (euclidean only), k lanes
    as ``DynamicIOMD`` steps them: ``x`` is (k, d)."""

    def __init__(self, geom: Geometry, etas, x0=None):
        if geom.mirror != "euclidean":
            raise ConfigError("ogd runs on euclidean geometry only")
        self.geom = geom
        self.etas = np.asarray(etas, dtype=float)
        if self.etas.ndim != 1 or np.any(self.etas <= 0):
            raise ConfigError("ogd needs a 1-d array of positive steps")
        self.x = start_point(geom, x0)[None, :]
        self.t = 1

    def play(self):
        """Lane 0's point, the play of a one-lane learner."""
        return self.x[0]

    def update(self, loss, path_increment: float = 0.0):
        """``step`` of a one-lane learner; its row as Python values."""
        return _one_row(self.step(loss, np.array([path_increment], dtype=float)))

    def step(self, loss, path_increments: np.ndarray) -> dict:
        """x' = proj(x - eta_t * g) in every lane, g the subgradient of ``loss``
        (or of row i of a ``LossTable``) at lane i's point, as one batch for 1-d
        quadratics on an interval; returns the row, with no delta or weight."""
        if self.t > self.etas.size:
            raise ConfigError(
                f"ogd schedule exhausted: round {self.t} exceeds horizon {self.etas.size}"
            )
        X, k = self.x, len(self.x)
        quadratics = _interval_quadratics(loss, self.geom, k)
        with np.errstate(all="ignore"):  # a non-finite step raises below
            if quadratics is not None:
                a, y = quadratics
                r = (a * X[:, 0] + 0.0) - y  # + 0.0: the sign of zero of float(a @ x)
                g = r * a
                G, values, gnorms = g[:, None], 0.5 * r * r, np.sqrt(g * g)
            else:
                losses = [loss[i] for i in range(k)] if isinstance(loss, LossTable) else [loss] * k
                G = np.array([l._subgradient(x) for l, x in zip(losses, X)])
                values = np.array([l._value(x) for l, x in zip(losses, X)])
                gnorms = np.array([self.geom.dual_norm(g) for g in G])
            step = X - self.etas[self.t - 1] * G
        if not np.isfinite(step).all():
            raise GeometryError("point has NaN or infinite coordinates")
        dom = self.geom.domain
        self.x = dom.clip(step) if isinstance(dom, _Orthotope) else np.array(
            [dom._project(p) for p in step])
        self.t += 1
        return {"value": values, "gnorm_dual": gnorms, "delta": None, "lam": None,
                "solver": ["gradient-step"] * k}


# the per-lane state of the learners, (k, d) or (k,)
_LANE_STATE = ("x", "lam", "delta_sum", "beta_sq", "epoch", "path_in_epoch", "Q")


def _step_rule(learner):
    """What a learner's step reads besides its lanes' state (type, geometry,
    schedule, and the round where steps are fixed); None if it has no lanes.
    A combiner with lanes gives its own (``_rule``)."""
    if type(learner) not in (DynamicIOMD, OGD):
        return learner._rule() if hasattr(learner, "_rule") else None
    etas = getattr(getattr(learner, "schedule", learner), "etas", None)  # OGD's own
    return (type(learner), type(getattr(learner, "schedule", None)), learner.geom.mirror,
            learner.geom.domain, None if etas is None else (etas.tobytes(), learner.t))


def stack(learners: list):
    """One learner whose lanes are those of ``learners``, in order, or None
    unless they step by one rule (``_step_rule``) from sound points and
    weights, which its steps keep sound without checking again.  Self-tuning
    schedules read no round, so learners born at different rounds stack.  A
    combiner stacks its own state and its learners' (``_join``)."""
    rule = _step_rule(learners[0])
    if rule is None or any(_step_rule(l) != rule for l in learners[1:]):
        return None
    out = copy.copy(learners[0])
    if hasattr(out, "_join"):
        return out._join(learners)
    for key in _LANE_STATE:
        if getattr(out, key, None) is not None:
            setattr(out, key, np.concatenate([getattr(l, key) for l in learners]))
    return out if _sound_lanes(out.geom, out.x, getattr(out, "lam", np.zeros(0))) else None


def put_lane(groups: list, k: int, learner) -> list:
    """The learners whose lanes, in order, are those of ``groups`` with lane
    k (or, at k = their count, a new last lane) now ``learner``'s one lane:
    written in place while every lane steps by one rule (``_step_rule``) as
    ``DynamicIOMD`` or ``OGD`` lanes from sound points and weights, else
    split into one-lane learners."""
    if (len(groups) == 1 and type(learner) in (DynamicIOMD, OGD)
            and _step_rule(learner) == _step_rule(groups[0])
            and _sound_lanes(learner.geom, learner.x, getattr(learner, "lam", np.zeros(0)))):
        if k == len(groups[0].x):
            return [stack(groups + [learner])]
        for key in _LANE_STATE:
            if getattr(learner, key, None) is not None:
                getattr(groups[0], key)[k] = getattr(learner, key)[0]
        return groups
    out = [one for group in groups for one in _one_lanes(group)]
    out[k:k + 1] = [learner]
    return out


def _one_lanes(learner) -> list:
    """One-lane learners whose lanes, in order, are those of ``learner``."""
    if type(learner) not in (DynamicIOMD, OGD):
        return [learner]
    keys = [key for key in _LANE_STATE if getattr(learner, key, None) is not None]
    out = [copy.copy(learner) for _ in learner.x]
    for i, one in enumerate(out):
        for key in keys:
            setattr(one, key, getattr(learner, key)[i:i + 1].copy())
    return out
