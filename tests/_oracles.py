"""Brute-force minimizers of the prox objective, for certifying the solver.

``prox_oracle`` scans a dense grid over an interval, a box of at most two
axes or a clipped simplex of at most three coordinates.
``oracle_descent_batch`` runs plain projected gradient descent on many
quadratic prox problems over one box at once.  Neither shares code with the
routes of ``driftlab.prox`` beyond the loss and objective evaluators.
``ReferenceScaffold`` is the strongly adaptive scaffold written plainly: a
dict of base learners keyed by covering interval, each stepped by its own
``update``.
"""

import math

import numpy as np

from driftlab.combiners import CoveringInterval, RangeError, active_intervals
from driftlab.geometry import Box, ClippedSimplex, Interval, _as_vector
from driftlab.losses import batch_values
from driftlab.prox import SolverError


def _batch_objective(loss, geom, x_t, lam, pts) -> np.ndarray:
    vals = batch_values(loss, pts)
    if lam > 0:
        if geom.mirror == "euclidean":
            d = pts - x_t
            vals = vals + lam * 0.5 * np.sum(d * d, axis=1)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(pts > 0, pts * np.log(pts / x_t), 0.0)
            vals = vals + lam * (np.sum(logs, axis=1) - np.sum(pts, axis=1) + np.sum(x_t))
    return vals


def _axes_for(domain):
    if isinstance(domain, Interval):
        return [(domain.lo, domain.hi)], "interval"
    if isinstance(domain, Box):
        if domain.dim > 2:
            raise SolverError("grid oracle supports at most 2 box axes")
        return [(lo, hi) for lo, hi in zip(domain.lo, domain.hi)], "box"
    if isinstance(domain, ClippedSimplex):
        if domain.d > 3:
            raise SolverError("grid oracle supports simplex d <= 3")
        n_free = domain.d - 1
        top = 1.0 - (domain.d - 1) * domain.floor
        return [(domain.floor, top)] * n_free, "simplex"
    raise SolverError(f"no grid for domain {domain.kind!r}")


def _grid_candidates(domain, kind, ranges, budget):
    grids = [np.linspace(lo, hi, budget) for lo, hi in ranges]
    if len(grids) == 1:
        pts = grids[0][:, None]
    else:
        g1, g2 = np.meshgrid(grids[0], grids[1], indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
    if kind == "simplex":
        last = 1.0 - np.sum(pts, axis=1)
        keep = last >= domain.floor - 1e-12
        pts = np.column_stack([pts[keep], last[keep]])
    return pts


def prox_oracle(loss, geom, x_t, lam: float, budget: int = 400) -> np.ndarray:
    """Grid minimizer of the prox objective.

    A dense grid of ``budget`` points per axis, refined once around the best
    cell; argument accuracy is about 2 * range / budget^2, i.e. <= 1e-4 at
    the default budget on unit-scale domains.
    """
    x_t = _as_vector(x_t)
    ranges, kind = _axes_for(geom.domain)
    pts = _grid_candidates(geom.domain, kind, ranges, budget)
    if geom.mirror == "entropy":
        pts = np.maximum(pts, 1e-300)
    vals = _batch_objective(loss, geom, x_t, lam, pts)
    best = pts[int(np.argmin(vals))]
    # one refinement pass around the best cell
    spans = [(hi - lo) / (budget - 1) for lo, hi in ranges]
    refined = [
        (max(lo, b - h), min(hi, b + h))
        for (lo, hi), b, h in zip(ranges, best[: len(ranges)], spans)
    ]
    pts = _grid_candidates(geom.domain, kind, refined, budget)
    if len(pts):
        if geom.mirror == "entropy":
            pts = np.maximum(pts, 1e-300)
        vals2 = _batch_objective(loss, geom, x_t, lam, pts)
        cand = pts[int(np.argmin(vals2))]
        if _batch_objective(loss, geom, x_t, lam, cand[None, :])[0] <= \
                _batch_objective(loss, geom, x_t, lam, best[None, :])[0]:
            best = cand
    return np.asarray(best, dtype=float)


def oracle_descent_batch(A, Y, X0, LAM, lo, hi, steps: int = 1_000_000) -> np.ndarray:
    """Projected gradient descent on N quadratic prox problems at once.

    Instance i minimizes 0.5 * (<A[i], x> - Y[i])^2 + LAM[i] / 2 * ||x - X0[i]||^2
    over the box [lo, hi] with steps 1/(LAM * k + L), and returns the better
    of its final iterate and the average of its last tenth; shape (N, d).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.array(np.atleast_2d(np.asarray(X0, dtype=float)))
    Y = np.asarray(Y, dtype=float)
    LAM = np.asarray(LAM, dtype=float)
    L = np.maximum(1.0, np.maximum(np.sum(A * A, axis=1),
                                   np.linalg.norm(_gradient(A, Y, X), axis=1)))
    tail_from = int(0.9 * steps)
    tail = np.zeros_like(X)
    tail_n = 0
    for k in range(1, steps + 1):
        G = _gradient(A, Y, X)
        G += LAM[:, None] * (X - X0)
        step = 1.0 / (LAM * k + L)
        X = np.clip(X - step[:, None] * G, lo, hi)
        if k >= tail_from:
            tail += X
            tail_n += 1
    avg = np.clip(tail / tail_n, lo, hi)
    pick_avg = _objective(A, Y, avg, X0, LAM) <= _objective(A, Y, X, X0, LAM)
    return np.where(pick_avg[:, None], avg, X)


def _gradient(A, Y, X):
    return (np.sum(A * X, axis=1) - Y)[:, None] * A


def _objective(A, Y, X, X0, LAM):
    r = np.sum(A * X, axis=1) - Y
    D = X - X0
    return 0.5 * r * r + LAM * 0.5 * np.sum(D * D, axis=1)


class ReferenceScaffold:
    """The scaffold as the geometric cover defines it, one interval at a time.

    At round t every covering interval that ends before t is dropped with its
    sleeping-Prod state, and every one that starts at t gets a fresh base.
    The awake intervals mix in sorted (start, end) order; after the last
    round the last awake set stays, so the final play is defined.
    """

    def __init__(self, base_factory, horizon, loss_range):
        self.base_factory = base_factory
        self.horizon = horizon
        self.range = loss_range
        self.bases = {}
        self.experts = {}  # interval -> [log_w, eta, r_sq, log_d]
        self.k_acc = 1.0
        self.t = 1
        self._sync()

    def _sync(self):
        t = self.t
        if t > self.horizon:
            return
        for iv in [iv for iv in self.bases if iv.end < t]:
            del self.bases[iv], self.experts[iv]
        fresh = [iv for iv in active_intervals(t) if iv.start == t]
        awake = len(self.bases) + len(fresh)
        for iv in fresh:
            self.bases[iv] = self.base_factory(iv)
            self.experts[iv] = [0.0, 0.5, 0.0, math.log(max(2, awake))]
        self.order = sorted(self.bases)

    def _weights(self):
        eta = np.array([self.experts[iv][1] for iv in self.order])
        log_w = np.array([self.experts[iv][0] for iv in self.order])
        z = eta * np.exp(log_w - np.max(log_w))
        return z / float(np.sum(z))

    def play(self):
        p = self._weights()
        return sum(pi * self.bases[iv].play() for pi, iv in zip(p, self.order))

    def update(self, loss):
        p = self._weights()
        plays = [self.bases[iv].play() for iv in self.order]
        x = sum(pi * yi for pi, yi in zip(p, plays))
        g = np.array([self.range.unit(loss._value(y)) for y in plays])
        lhat = float(p @ g)
        for iv, gi in zip(self.order, g):
            e = self.experts[iv]
            r = lhat - gi
            e[2] += r * r
            eta_new = min(0.5, math.sqrt(e[3] / (1.0 + e[2])))
            base = 1.0 + e[1] * r
            if base <= 0.0:
                raise RangeError("sleeping prod update left the positive cone")
            e[0] = (eta_new / e[1]) * (e[0] + math.log(base))
            self.k_acc += (1.0 / math.e) * (e[1] / eta_new - 1.0)
            e[1] = eta_new
        for iv in self.order:
            self.bases[iv].update(loss)
        row = {"value": float(loss._value(x)), "active": len(self.order), "k_acc": self.k_acc}
        self.t += 1
        self._sync()
        return row
