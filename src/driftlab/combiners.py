"""Meta-algorithms that combine base learners.

Includes the two-learner Prod-style combiner with a self-confident rate, its
multi-expert variant, a sleeping-expert adaptation driving the strongly
adaptive scaffold over geometrically nested time intervals, and the greedy
path-length interval splitter.

Meta weight updates assume losses in [0, 1]; ``LossRange`` maps a known range
affinely onto the unit interval and rejects out-of-range values outright, the
Prod steps' one guard: excesses r in [-1, 1] and rates at most 1/2 keep each
factor 1 + eta * r at least 1/2.

Base learners' plays are points they checked themselves (see ``learners``),
so losses are evaluated on them with the trusted ``Loss._value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .learners import ConfigError, Learner, _one_row, _step_rule, put_lane, stack
from .losses import LinearLoss, Loss, LossError, LossTable, step_lengths

_INV_E = 1.0 / math.e


class RangeError(ValueError):
    """A loss outside its declared range; ``row`` is its round index where known."""

    row = None


@dataclass(frozen=True)
class LossRange:
    """Known loss range, mapped affinely onto [0, 1] for the meta weights."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise ConfigError("loss range needs hi > lo")

    def unit(self, v: float) -> float:
        u = (v - self.lo) / (self.hi - self.lo)
        if not (-1e-9 <= u <= 1.0 + 1e-9):  # NaN included
            raise RangeError(
                f"loss value {v} escapes declared range [{self.lo}, {self.hi}]"
            )
        return min(1.0, max(0.0, u))

    def scale(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# two-learner combiner
# ---------------------------------------------------------------------------


class ABProd(Learner):
    """Prod-style combiner of two learners with a self-confident rate.

    Plays the mixture p * a_t + (1 - p) * b_t.  The second learner is the
    benchmark: its weight never moves, while the first learner's weight
    follows a Prod update on the loss difference r_t = loss(b_t) - loss(a_t)
    with rate eta_t = min(1/2, 1 / sqrt(1 + sum of past r^2)).  The rate cap
    keeps the sequence non-increasing from its starting value 1/2, which the
    per-run weight inequalities require.

    A built combiner has one lane, and ``learners.stack`` joins combiners of
    one loss range whose candidates stack and whose benchmarks stack: the
    Prod state ``log_w_a``, ``w_b``, ``eta``, ``r_sq_sum`` and ``k_acc`` is
    (k,), and ``x`` is the (k, d) mixture of the plays.
    """

    _LANE_STATE = ("log_w_a", "w_b", "eta", "r_sq_sum", "k_acc")

    def __init__(self, learner_a: Learner, learner_b: Learner,
                 loss_range: LossRange = LossRange()):
        self.a = learner_a
        self.b = learner_b
        self.range = loss_range
        self.geom = learner_b.geom
        self.log_w_a, self.w_b, self.eta, self.r_sq_sum, self.k_acc = (
            np.array([v]) for v in (math.log(0.5), 0.5, 0.5, 0.0, 1.0))
        self.t = 1
        self._weigh()

    def _rule(self):
        """What a stacked step reads besides the lanes' state: the loss range
        and both learners' step rules; None unless both have lanes."""
        rules = (_step_rule(self.a), _step_rule(self.b))
        return None if None in rules else (ABProd, self.range, *rules)

    def _join(self, combiners: list):
        """This copy of ``combiners[0]`` made their stack (``learners.stack``)."""
        self.a, self.b = (stack([getattr(c, key) for c in combiners]) for key in ("a", "b"))
        for key in self._LANE_STATE:
            setattr(self, key, np.concatenate([getattr(c, key) for c in combiners]))
        self._weigh()
        return None if self.a is None or self.b is None else self

    def _weigh(self):
        """Each lane's probability on the first learner, as floats and a
        column; the round's mixture is made when ``x`` is first read."""
        wa = [eta * math.exp(w) for eta, w in zip(self.eta.tolist(), self.log_w_a.tolist())]
        self.p = [w / (w + 0.5 * wb) for w, wb in zip(wa, self.w_b.tolist())]
        self._P = np.array(self.p)[:, None]
        self._x = None

    def mixture_weight(self) -> float:
        """Probability placed on the first learner this round (lane 0)."""
        return self.p[0]

    @property
    def x(self) -> np.ndarray:
        if self._x is None:
            self._x = self._P * self.a.x + (1.0 - self._P) * self.b.x
        return self._x

    def play(self):
        return self.x[0]

    def update(self, loss: Loss, path_increment: float = 0.0):
        """``step`` of a one-lane combiner; its row as Python values."""
        return _one_row(self.step(loss, np.array([path_increment], dtype=float)))

    def step(self, loss, path_increments: np.ndarray) -> dict:
        """One round of every lane, on ``loss`` or row i of a ``LossTable``:
        the Prod recursion in Python floats, lane by lane, then one step of
        each learner.  Returns the round's row as (k,) columns, with the
        candidate's ``delta`` where its rows have one."""
        X, p = self.x, self.p
        la, lb = ([self.range.unit(v) for v in _values(loss, learner.x)]
                  for learner in (self.a, self.b))
        r = [b - a for a, b in zip(la, lb)]
        eta_old, log_w_a, r_sq_sum, k_acc = (getattr(self, key).tolist() for key in (
            "eta", "log_w_a", "r_sq_sum", "k_acc"))
        eta = list(eta_old)
        for i, ri in enumerate(r):
            r_sq_sum[i] += ri * ri
            eta_new = min(0.5, 1.0 / math.sqrt(1.0 + r_sq_sum[i]))
            log_w_a[i] = (eta_new / eta[i]) * (log_w_a[i] + math.log(1.0 + eta[i] * ri))
            k_acc[i] += _INV_E * (eta[i] / eta_new - 1.0)
            eta[i] = eta_new
        self.eta, self.log_w_a, self.r_sq_sum, self.k_acc = map(
            np.array, (eta, log_w_a, r_sq_sum, k_acc))
        row_a = self.a.step(loss, path_increments)
        self.b.step(loss, path_increments)
        row = {"value": np.array(_values(loss, X)), "p_a": np.array(p), "r": np.array(r),
               "eta": np.array(eta_old), "k_acc": self.k_acc, "loss_a": np.array(la),
               "loss_b": np.array(lb)}
        if "delta" in row_a:
            row["delta"] = row_a["delta"]
        self.t += 1
        self._weigh()
        return row


def _values(loss, X: np.ndarray) -> list:
    """Lane i's loss value at X[i]: row i of a ``LossTable``, or the one loss."""
    if isinstance(loss, LossTable):
        return loss.values(X).tolist()
    return [loss._value(x) for x in X]


# ---------------------------------------------------------------------------
# multi-expert combiner
# ---------------------------------------------------------------------------


def _prod_weights(eta: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """ML-Prod's play: weights proportional to eta_i * w_i."""
    z = eta * np.exp(log_w - np.max(log_w))
    return z / float(np.sum(z))


class AdaptMLProd(Learner):
    """Prod over d experts with one self-confident rate per expert.

    Receives the full loss vector each round (expert-advice setting), plays
    weights p_i proportional to eta_i * w_i, and updates every expert on its
    instantaneous excess r_i = <p, g> - g_i.  Rates follow
    eta_i = min(1/2, sqrt(log d / (1 + sum of past r_i^2))) and never
    increase.

    It has one lane, ``x`` (1, d), and does not stack.
    """

    def __init__(self, d: int, loss_range: LossRange = LossRange(), geom=None):
        if d < 2:
            raise ConfigError("need at least two experts")
        self.d = d
        self.range = loss_range
        self.geom = geom
        self.log_w = np.full(d, -math.log(d))
        self.log_d = math.log(d)
        self.eta = np.full(d, 0.5)
        self.r_sq = np.zeros(d)
        self.k_acc = 1.0
        self.t = 1

    def weights(self) -> np.ndarray:
        return _prod_weights(self.eta, self.log_w)

    @property
    def x(self) -> np.ndarray:
        return self.weights()[None, :]

    def play(self):
        return self.weights()

    def update(self, loss: Loss, path_increment: float = 0.0):
        """``step`` of the one lane; its row as Python values."""
        return _one_row(self.step(loss, np.array([path_increment], dtype=float)))

    def step(self, loss, path_increments: np.ndarray) -> dict:
        """One round on the loss vector ``loss`` (a ``LinearLoss``, or the one
        row of a ``LossTable``); returns the row as (1,) columns."""
        loss = loss[0] if isinstance(loss, LossTable) else loss
        if not isinstance(loss, LinearLoss):
            raise ConfigError("expert combiner consumes linear losses (loss vectors)")
        g_raw = loss.g
        if g_raw.shape != (self.d,):
            raise ConfigError(f"expected {self.d} expert losses, got {g_raw.shape}")
        p, lhat, _ = self._advance(np.array([self.range.unit(v) for v in g_raw]))
        return {"value": np.array([float(p @ g_raw)]), "lhat": np.array([lhat]),
                "k_acc": np.array([self.k_acc])}

    def _advance(self, g: np.ndarray):
        """Advance on the unit losses ``g``; return this round's weights, their
        loss ``lhat`` and the excesses ``r``."""
        p = self.weights()
        lhat = float(p @ g)
        r = lhat - g
        self.r_sq += r * r
        eta_new = np.minimum(0.5, np.sqrt(self.log_d / (1.0 + self.r_sq)))
        self.log_w = (eta_new / self.eta) * (self.log_w + np.log(1.0 + self.eta * r))
        self.k_acc += _INV_E * float(np.sum(self.eta / eta_new - 1.0))
        self.eta = eta_new
        self.t += 1
        return p, lhat, r


# ---------------------------------------------------------------------------
# interval breaking
# ---------------------------------------------------------------------------


class Piece(NamedTuple):
    start: int
    end: int
    path: float


def break_by_path_length(points, diameter: float, norm: str = "l2") -> list[Piece]:
    """Split a comparator sequence into pieces of bounded internal path.

    Scans left to right, charging each step ||u_t - u_{t-1}|| to the current
    piece (the step entering a piece from its predecessor is charged to the
    new piece, so the piece paths sum exactly to the total path).  A piece
    closes at the first step taking its path to ``diameter`` or more; as long
    as single steps never exceed ``diameter`` (true when it is the domain
    diameter in the same norm) every piece has path at most 2 * diameter.
    Indices are 0-based and inclusive.
    """
    if diameter <= 0:
        raise ConfigError("diameter must be positive")
    n = len(points)
    if n == 0:
        return []
    try:
        steps = step_lengths(points, norm)
    except LossError as exc:
        raise ConfigError(str(exc)) from None
    pieces: list[Piece] = []
    start = 0
    acc = 0.0
    for t in range(1, n):
        acc += float(steps[t - 1])
        if acc >= diameter:
            pieces.append(Piece(start, t, acc))
            start = t + 1
            acc = 0.0
    if start <= n - 1:
        pieces.append(Piece(start, n - 1, acc))
    return pieces


# ---------------------------------------------------------------------------
# geometric covering
# ---------------------------------------------------------------------------


class CoveringInterval(NamedTuple):
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def active_intervals(t: int) -> list[CoveringInterval]:
    """Nested dyadic intervals [i * 2^k, (i + 1) * 2^k - 1] containing t >= 1.

    One interval per scale k with 2^k <= t, so the active set has size
    floor(log2 t) + 1.
    """
    if t < 1:
        raise ConfigError("rounds are 1-based")
    out = []
    k = 0
    while (1 << k) <= t:
        start = (t >> k) << k
        out.append(CoveringInterval(start, start + (1 << k) - 1))
        k += 1
    return out


# ---------------------------------------------------------------------------
# sleeping experts and the strongly adaptive scaffold
# ---------------------------------------------------------------------------


class _SleepingMLProd:
    """Multi-expert Prod over the scaffold's levels, awake once born.

    Level k is entry k of the Python-float lists ``log_w``, ``eta``, ``r_sq``
    and ``log_d``.  A birth resets it, freezing the rate numerator log(d) at
    d = the awake count then, so one interval's rates never increase.
    """

    def __init__(self):
        self.log_w, self.eta, self.r_sq, self.log_d = [], [], [], []
        self.k_acc = 1.0

    def add(self, level: int, awake_count: int):
        """Level ``level`` starts afresh, or is born one past the last."""
        fresh = (0.0, 0.5, 0.0, math.log(max(2, awake_count)))
        for col, v in zip((self.log_w, self.eta, self.r_sq, self.log_d), fresh):
            col[level:level + 1] = [v]

    def weights(self, levels) -> np.ndarray:
        return _prod_weights(np.array([self.eta[k] for k in levels]),
                             np.array([self.log_w[k] for k in levels]))

    def step(self, levels, g: np.ndarray, p: np.ndarray) -> None:
        """Update the awake ``levels`` on unit losses ``g`` under their weights ``p``."""
        lhat = float(p @ g)
        for k, gi in zip(levels, g):
            r = lhat - gi
            self.r_sq[k] += r * r
            eta_new = min(0.5, math.sqrt(self.log_d[k] / (1.0 + self.r_sq[k])))
            log_w = self.log_w[k] + math.log(1.0 + self.eta[k] * r)
            self.log_w[k] = (eta_new / self.eta[k]) * log_w
            self.k_acc += _INV_E * (self.eta[k] / eta_new - 1.0)
            self.eta[k] = eta_new


class Scaffold(Learner):
    """Strongly adaptive wrapper: base learners on dyadic intervals.

    At round t one interval per level k with 2^k <= t is awake, and level k
    starts afresh when 2^k divides t: ``base_factory(interval)`` replaces
    its lane of ``bases`` (``learners.put_lane``).  The awake plays mix, in
    their intervals' order, with sleeping-expert Prod weights driven by each
    play's own loss.  It has one lane, ``x`` (1, d), and does not stack.
    """

    def __init__(self, base_factory: Callable[[CoveringInterval], Learner],
                 horizon: int, loss_range: LossRange = LossRange()):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.base_factory = base_factory
        self.horizon = horizon
        self.range = loss_range
        self.meta = _SleepingMLProd()
        self.bases: list = []
        self.t = 1
        self._round = None
        self._wake()
        self.geom = self.bases[0].geom

    def _wake(self):
        """Births at round t; the awake levels in (start, end) order, since a
        stable sort by start keeps equal starts in level order."""
        t = self.t
        awake = t.bit_length()
        for k in range(awake):
            if t % (1 << k) == 0:
                self.bases = put_lane(self.bases, k,
                                      self.base_factory(CoveringInterval(t, t + (1 << k) - 1)))
                self.meta.add(k, awake)
        self._order = sorted(range(awake), key=lambda k: t >> k << k)

    def _mix(self):
        """(weights, awake plays, mixed play) of this round, computed once.
        The mixture adds the weighted plays in order, as Python's ``sum``
        does, and + 0.0 gives the +0.0 that ``sum``'s int start gives."""
        if self._round is None:
            p = self.meta.weights(self._order)
            plays = np.concatenate([base.x for base in self.bases])[self._order]
            self._round = (p, plays, np.cumsum(p[:, None] * plays, axis=0)[-1] + 0.0)
        return self._round

    @property
    def x(self) -> np.ndarray:
        return self._mix()[2][None, :]

    def play(self):
        return self._mix()[2]

    def update(self, loss: Loss, path_increment: float = 0.0):
        """``step`` of the one lane; its row as Python values."""
        return _one_row(self.step(loss, np.array([path_increment], dtype=float)))

    def step(self, loss, path_increments: np.ndarray) -> dict:
        """One round on ``loss``, or the one row of a ``LossTable``; returns
        the row as (1,) columns."""
        loss = loss[0] if isinstance(loss, LossTable) else loss
        p, plays, x = self._mix()
        g = np.array([self.range.unit(loss._value(y)) for y in plays])
        self.meta.step(self._order, g, p)
        for base in self.bases:
            base.step(loss, np.zeros(len(base.x)))
        row = {"value": np.array([loss._value(x)]), "active": np.array([len(plays)]),
               "k_acc": np.array([self.meta.k_acc])}
        self._round = None
        self.t += 1
        if self.t <= self.horizon:  # after it, the last awake set plays on
            self._wake()
        return row
