"""Meta-algorithms that combine base learners.

Includes the two-learner Prod-style combiner with a self-confident rate, its
multi-expert variant, a sleeping-expert adaptation driving the strongly
adaptive scaffold over geometrically nested time intervals, and the greedy
path-length interval splitter.

Meta weight updates assume losses in [0, 1]; ``LossRange`` maps a known range
affinely onto the unit interval and rejects out-of-range values outright.

Base learners' plays are points they checked themselves (see ``learners``),
so losses are evaluated on them with the trusted ``Loss._value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .learners import ConfigError, Learner, update_many
from .losses import LinearLoss, Loss, LossError, step_lengths

_INV_E = 1.0 / math.e


class RangeError(ValueError):
    pass


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
        if u < -1e-9 or u > 1.0 + 1e-9:
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
    """

    def __init__(self, learner_a: Learner, learner_b: Learner,
                 loss_range: LossRange = LossRange()):
        self.a = learner_a
        self.b = learner_b
        self.range = loss_range
        self.geom = learner_b.geom
        self.log_w_a = math.log(0.5)
        self.w_b = 0.5
        self.eta = 0.5
        self.r_sq_sum = 0.0
        self.k_acc = 1.0
        self.t = 1

    def mixture_weight(self) -> float:
        """Probability placed on the first learner this round."""
        wa = self.eta * math.exp(self.log_w_a)
        return wa / (wa + 0.5 * self.w_b)

    def play(self):
        p = self.mixture_weight()
        return p * self.a.play() + (1.0 - p) * self.b.play()

    def update(self, loss: Loss, path_increment: float = 0.0):
        xa = self.a.play()
        xb = self.b.play()
        p = self.mixture_weight()
        la = self.range.unit(loss._value(xa))
        lb = self.range.unit(loss._value(xb))
        r = lb - la
        eta_old = self.eta
        self.r_sq_sum += r * r
        eta_new = min(0.5, 1.0 / math.sqrt(1.0 + self.r_sq_sum))
        base = 1.0 + eta_old * r
        if base <= 0.0:
            raise RangeError("prod update left the positive cone; losses out of range?")
        self.log_w_a = (eta_new / eta_old) * (self.log_w_a + math.log(base))
        self.k_acc += _INV_E * (eta_old / eta_new - 1.0)
        self.eta = eta_new
        row_a = self.a.update(loss, path_increment)
        self.b.update(loss, path_increment)
        row = {
            "value": loss._value(p * xa + (1.0 - p) * xb),
            "p_a": p,
            "r": r,
            "eta": eta_old,
            "k_acc": self.k_acc,
            "loss_a": la,
            "loss_b": lb,
        }
        if "delta" in row_a:
            row["delta"] = row_a.get("delta")
        self.t += 1
        return row


# ---------------------------------------------------------------------------
# multi-expert combiner
# ---------------------------------------------------------------------------


class AdaptMLProd(Learner):
    """Prod over d experts with one self-confident rate per expert.

    Receives the full loss vector each round (expert-advice setting), plays
    weights p_i proportional to eta_i * w_i, and updates every expert on its
    instantaneous excess r_i = <p, g> - g_i.  Rates follow
    eta_i = min(1/2, sqrt(log d / (1 + sum of past r_i^2))) and never
    increase.
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
        self._eta_floor_hit = False

    def weights(self) -> np.ndarray:
        z = self.eta * np.exp(self.log_w - np.max(self.log_w))
        return z / float(np.sum(z))

    def play(self):
        return self.weights()

    def update(self, loss: Loss, path_increment: float = 0.0):
        if not isinstance(loss, LinearLoss):
            raise ConfigError("expert combiner consumes linear losses (loss vectors)")
        g_raw = loss.g
        if g_raw.shape != (self.d,):
            raise ConfigError(f"expected {self.d} expert losses, got {g_raw.shape}")
        g = np.array([self.range.unit(v) for v in g_raw])
        p = self.weights()
        lhat = float(p @ g)
        r = lhat - g
        self.r_sq += r * r
        eta_new = np.minimum(0.5, np.sqrt(self.log_d / (1.0 + self.r_sq)))
        base = 1.0 + self.eta * r
        if np.any(base <= 0.0):
            raise RangeError("prod update left the positive cone; losses out of range?")
        self.log_w = (eta_new / self.eta) * (self.log_w + np.log(base))
        self.k_acc += _INV_E * float(np.sum(self.eta / eta_new - 1.0))
        self.eta = eta_new
        row = {
            "value": float(p @ g_raw),
            "lhat": lhat,
            "k_acc": self.k_acc,
        }
        self.t += 1
        return row


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
    elif not pieces:
        pieces.append(Piece(0, n - 1, 0.0))
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


def intervals_starting_at(t: int) -> list[CoveringInterval]:
    return [iv for iv in active_intervals(t) if iv.start == t]


# ---------------------------------------------------------------------------
# sleeping experts and the strongly adaptive scaffold
# ---------------------------------------------------------------------------


class _SleepingMLProd:
    """Multi-expert Prod where only awake experts predict and update.

    Asleep experts keep their weight frozen; prediction renormalizes over
    the awake set.  Each expert's rate numerator log(d) is frozen at birth
    (d = awake count then), keeping rates non-increasing per expert.
    """

    def __init__(self):
        self.experts: dict = {}
        self.k_acc = 1.0

    def add(self, key, awake_count: int):
        self.experts[key] = {
            "log_w": 0.0,
            "eta": 0.5,
            "r_sq": 0.0,
            "log_d": math.log(max(2, awake_count)),
        }

    def drop(self, key):
        self.experts.pop(key, None)

    def weights(self, keys) -> np.ndarray:
        eta = np.array([self.experts[k]["eta"] for k in keys])
        log_w = np.array([self.experts[k]["log_w"] for k in keys])
        z = eta * np.exp(log_w - np.max(log_w))
        return z / float(np.sum(z))

    def step(self, keys, g: np.ndarray) -> np.ndarray:
        p = self.weights(keys)
        lhat = float(p @ g)
        for k, gi in zip(keys, g):
            e = self.experts[k]
            r = lhat - gi
            e["r_sq"] += r * r
            eta_new = min(0.5, math.sqrt(e["log_d"] / (1.0 + e["r_sq"])))
            base = 1.0 + e["eta"] * r
            if base <= 0.0:
                raise RangeError("sleeping prod update left the positive cone")
            e["log_w"] = (eta_new / e["eta"]) * (e["log_w"] + math.log(base))
            self.k_acc += _INV_E * (e["eta"] / eta_new - 1.0)
            e["eta"] = eta_new
        return p


class Scaffold(Learner):
    """Strongly adaptive wrapper: base learners on dyadic intervals.

    Spawns a fresh base learner for every covering interval at its first
    round, retires it after its last, and mixes the awake learners' plays
    with sleeping-expert Prod weights driven by each play's own loss.
    """

    def __init__(self, base_factory: Callable[[CoveringInterval], Learner],
                 horizon: int, loss_range: LossRange = LossRange()):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.base_factory = base_factory
        self.horizon = horizon
        self.range = loss_range
        self.meta = _SleepingMLProd()
        self.bases: dict[CoveringInterval, Learner] = {}
        self.t = 1
        self.geom = None
        self._sync()

    def _sync(self):
        t = self.t
        if t > self.horizon:
            # game over: keep the last active set so the final play is defined
            return
        for iv in list(self.bases):
            if iv.end < t:
                del self.bases[iv]
                self.meta.drop(iv)
        fresh = [iv for iv in intervals_starting_at(t) if iv.start <= self.horizon]
        awake = len(self.bases) + len(fresh)
        for iv in fresh:
            self.bases[iv] = self.base_factory(iv)
            self.meta.add(iv, awake)
        if self.geom is None and self.bases:
            self.geom = next(iter(self.bases.values())).geom
        # the awake intervals in order, sorted once per round
        self._order = sorted(self.bases)
        self._awake = [self.bases[k] for k in self._order]

    def _keys(self):
        return self._order

    def play(self):
        p = self.meta.weights(self._order)
        plays = [base.play() for base in self._awake]
        return sum(pi * yi for pi, yi in zip(p, plays))

    def update(self, loss: Loss, path_increment: float = 0.0):
        keys = self._order
        plays = [base.play() for base in self._awake]
        g = np.array([self.range.unit(loss._value(y)) for y in plays])
        p = self.meta.step(keys, g)
        update_many(self._awake, loss)
        x = sum(pi * yi for pi, yi in zip(p, plays))
        row = {
            "value": loss._value(x),
            "active": len(keys),
            "k_acc": self.meta.k_acc,
        }
        self.t += 1
        self._sync()
        return row
