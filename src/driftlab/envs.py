"""Deterministic loss environments with per-round reference comparators.

Every environment pre-generates its full loss and comparator sequence at
construction from a PCG64 stream keyed by its seed, so the round content is
a pure function of (kind, parameters, seed) and replays bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ClippedSimplex, Geometry, Interval, entropy_geometry, euclidean_geometry
from .learners import ConfigError
from .losses import LinearLoss, Loss, LossTable, QuadraticLoss

GENERATOR_NAME = "pcg64"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class Environment:
    """Base: a horizon of losses plus a comparator sequence."""

    kind = "abstract"

    def __init__(self, T: int, seed: int):
        if T < 1:
            raise ConfigError("horizon must be >= 1")
        self.T = int(T)
        self.seed = int(seed)

    def loss(self, t: int) -> Loss:
        raise NotImplementedError

    def comparator(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def default_geometry(self) -> Geometry:
        raise NotImplementedError

    def losses(self) -> list[Loss]:
        return [self.loss(t) for t in range(1, self.T + 1)]

    def loss_table(self) -> LossTable:
        """Every round's loss as one table: row t - 1 is ``loss(t)``."""
        return LossTable.from_losses(self.losses())

    def comparators(self) -> np.ndarray:
        """Every round's comparator as one (T, dim) array: row t - 1 is
        ``comparator(t)``."""
        return np.array([self.comparator(t) for t in range(1, self.T + 1)])

    def params(self) -> dict:
        raise NotImplementedError

    def _check_round(self, t: int):
        if not (1 <= t <= self.T):
            raise ConfigError(f"round {t} outside 1..{self.T}")


class ScalarQuadraticEnv(Environment):
    """Base of the scalar square losses on an interval [lo, hi]: round t's
    loss is 0.5 * (a x - y_t)^2, and by default its comparator is the target
    y_t.  A subclass sets ``lo``, ``hi``, ``_a`` (shape (1,)) and the
    targets ``_y`` (T,)."""

    def loss(self, t):
        self._check_round(t)
        return QuadraticLoss(self._a, float(self._y[t - 1]))

    def loss_table(self):
        return LossTable({"quadratic"}, np.tile(self._a, (self.T, 1)), self._y.astype(float))

    def comparator(self, t):
        self._check_round(t)
        return np.array([self._y[t - 1]])

    def comparators(self):
        return self._y[:, None].copy()

    def default_geometry(self):
        return euclidean_geometry(Interval(self.lo, self.hi))


class LowerBoundEnv(ScalarQuadraticEnv):
    """Square-loss targets jumping uniformly between -sigma and +sigma.

    The per-round minimizer is the target itself, so the comparator sequence
    is the noise path and no learner can track it below noise level.
    Requires sigma * sqrt(T) > 1 so the noise dominates the burn-in.
    """

    kind = "lower-bound"

    def __init__(self, T: int, seed: int, sigma: float):
        super().__init__(T, seed)
        if not (0 < sigma <= 1.0):
            raise ConfigError("sigma must lie in (0, 1]")
        if sigma * math.sqrt(T) <= 1.0:
            raise ConfigError("need sigma * sqrt(T) > 1 for a meaningful floor")
        self.sigma = float(sigma)
        self.lo, self.hi = -1.0, 1.0
        rng = _rng(seed)
        self.eps = self._y = sigma * (2.0 * rng.integers(0, 2, size=T) - 1.0)
        self._a = np.array([1.0])

    def params(self):
        return {"kind": self.kind, "T": self.T, "seed": self.seed, "sigma": self.sigma}


class AlternatingExpertsEnv(Environment):
    """Two experts, unit loss on one of them in strict alternation.

    The per-round zero-loss corner flips every round, so tracking it has
    total path proportional to the horizon while any algorithm keyed to the
    previous round is always one step behind.
    """

    kind = "alternating-experts"

    def __init__(self, T: int, seed: int = 0, d: int = 2):
        super().__init__(T, seed)
        if T < 2:
            raise ConfigError("need T >= 2")
        if d != 2:  # params() writes d, so a header rebuilds its run
            raise ConfigError("alternating experts need d = 2")
        self.d = 2
        self._g_even = np.array([1.0, 0.0])
        self._g_odd = np.array([0.0, 1.0])

    def loss(self, t):
        self._check_round(t)
        return LinearLoss(self._g_even if t % 2 == 0 else self._g_odd)

    def comparator(self, t):
        self._check_round(t)
        # corner opposite the active loss coordinate
        return np.array([0.0, 1.0]) if t % 2 == 0 else np.array([1.0, 0.0])

    def loss_sup(self) -> float:
        return 1.0

    def default_geometry(self):
        alpha = min(0.5, self.d / self.T)
        return entropy_geometry(ClippedSimplex(self.d, alpha))

    def params(self):
        return {"kind": self.kind, "T": self.T, "seed": self.seed, "d": self.d}


class ShiftingExpertsEnv(Environment):
    """Piecewise-constant expert losses whose best expert shifts S times.

    Loss vectors are frozen between change points (the loss is fixed except
    on the S shift rounds); the leader is well separated within each block.
    Comparator: the current best expert's corner, so the l1 path length is
    exactly 2 * S.
    """

    kind = "shifting-experts"

    def __init__(self, T: int, seed: int, d: int, shifts: int):
        super().__init__(T, seed)
        if d < 2 or d > 50:
            raise ConfigError("need 2 <= d <= 50 experts")
        if shifts < 0 or shifts > T - 1:
            raise ConfigError("shift count must lie in [0, T-1]")
        self.d = int(d)
        self.shifts = int(shifts)
        rng = _rng(seed)
        if self.shifts:
            pts = np.sort(rng.choice(np.arange(2, T + 1), size=self.shifts, replace=False))
        else:
            pts = np.array([], dtype=int)
        self.change_points = pts
        n_seg = self.shifts + 1
        best = np.empty(n_seg, dtype=int)
        best[0] = rng.integers(self.d)
        for s in range(1, n_seg):
            b = rng.integers(self.d - 1)
            best[s] = b if b < best[s - 1] else b + 1  # force a real shift
        self.best = best
        G = rng.uniform(0.4, 0.9, size=(n_seg, self.d))
        G[np.arange(n_seg), best] = rng.uniform(0.0, 0.2, size=n_seg)
        self.segment_losses = G
        seg = np.zeros(T, dtype=int)
        for p in pts:
            seg[p - 1:] += 1
        self._segment_of_round = seg

    def segment(self, t: int) -> int:
        self._check_round(t)
        return int(self._segment_of_round[t - 1])

    def loss(self, t):
        return LinearLoss(self.segment_losses[self.segment(t)])

    def comparator(self, t):
        u = np.zeros(self.d)
        u[self.best[self.segment(t)]] = 1.0
        return u

    def loss_sup(self) -> float:
        return 1.0

    def default_geometry(self):
        alpha = min(0.5, self.d / self.T)
        return entropy_geometry(ClippedSimplex(self.d, alpha))

    def params(self):
        return {"kind": self.kind, "T": self.T, "seed": self.seed,
                "d": self.d, "shifts": self.shifts}


class DriftingQuadraticEnv(ScalarQuadraticEnv):
    """Scalar square loss whose minimizer walks with a capped total path.

    The walk spends a path budget tau: seeded step sizes are consumed until
    the budget is exhausted, the crossing step is shortened to land on the
    budget exactly, and later rounds stay put.  Steps that would leave the
    interval flip direction, which preserves their length.
    """

    kind = "drifting-quadratic"

    def __init__(self, T: int, seed: int, tau: float, lo: float = -1.0, hi: float = 1.0):
        super().__init__(T, seed)
        if tau < 0:
            raise ConfigError("tau must be nonnegative")
        self.tau = float(tau)
        self.lo, self.hi = float(lo), float(hi)
        width = self.hi - self.lo
        rng = _rng(seed)
        m = np.empty(T)
        m[0] = rng.uniform(self.lo + 0.25 * width, self.hi - 0.25 * width)
        mean_step = 2.0 * self.tau / max(1, T - 1) if T > 1 else 0.0
        raw = rng.uniform(0.5, 1.5, size=T) * mean_step
        raw = np.minimum(raw, 0.5 * width)
        signs = 2.0 * rng.integers(0, 2, size=T) - 1.0
        left = self.tau
        for t in range(1, T):
            s = min(raw[t], left)
            left -= s
            step = signs[t] * s
            nxt = m[t - 1] + step
            if nxt < self.lo or nxt > self.hi:
                nxt = m[t - 1] - step
            m[t] = nxt
        self.minimizers = self._y = m
        self._a = np.array([1.0])

    def params(self):
        return {"kind": self.kind, "T": self.T, "seed": self.seed, "tau": self.tau,
                "lo": self.lo, "hi": self.hi}


class FixedLossEnv(ScalarQuadraticEnv):
    """One seeded scalar square loss repeated every round (zero drift)."""

    kind = "fixed-loss"

    def __init__(self, T: int, seed: int, lo: float = -1.0, hi: float = 1.0):
        super().__init__(T, seed)
        self.lo, self.hi = float(lo), float(hi)
        rng = _rng(seed)
        self.a = float(rng.uniform(0.6, 1.6))
        self.y = float(rng.uniform(-0.8, 0.8))
        self._loss = QuadraticLoss(np.array([self.a]), self.y)
        self._a, self._y = self._loss.a, np.full(T, self.y)
        self._u = np.array([min(self.hi, max(self.lo, self.y / self.a))])

    def loss(self, t):  # one object every round: variability builds one form per loss
        self._check_round(t)
        return self._loss

    def comparator(self, t):
        self._check_round(t)
        return self._u.copy()

    def comparators(self):
        return np.tile(self._u, (self.T, 1))

    def params(self):
        return {"kind": self.kind, "T": self.T, "seed": self.seed,
                "lo": self.lo, "hi": self.hi}


_ENV_KINDS = {
    "lower-bound": LowerBoundEnv,
    "alternating-experts": AlternatingExpertsEnv,
    "shifting-experts": ShiftingExpertsEnv,
    "drifting-quadratic": DriftingQuadraticEnv,
    "fixed-loss": FixedLossEnv,
}


def make_environment(kind: str, T: int, seed: int, **params) -> Environment:
    if kind not in _ENV_KINDS:
        raise ConfigError(
            f"unknown environment kind {kind!r}; choose from {sorted(_ENV_KINDS)}"
        )
    try:
        return _ENV_KINDS[kind](T=T, seed=seed, **params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for environment {kind!r}: {e}") from None
