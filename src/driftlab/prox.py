"""Implicit (proximal) updates: argmin of loss plus lam * divergence.

``implicit_update`` solves x+ = argmin_V  loss(x) + lam * B(x, x_t) exactly
where a closed form exists and by a certified numeric fallback otherwise.
``lam = 0`` is first-class and means pure loss minimization over the domain,
with ties broken by each route's canonical output (the lam -> 0 limit of the
prox path wherever that limit is well defined).

Validation contract: the public functions validate their points
(``GeometryError`` for NaN, infinite or more than 1-d input).  The routes and
private helpers take validated 1-d float64 vectors and use trusted
evaluators; ``_finish`` checks each route's output once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Geometry, GeometryError, Interval, _as_vector, _kl_project_clipped_simplex
from .losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    Loss,
    LossTable,
    QuadraticLoss,
)

DELTA_FLOOR = -1e-8


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class ProxResult:
    """Outcome of one implicit update.

    ``delta`` is the per-round progress certificate
    loss(x_t) - loss(x_next) - lam * B(x_next, x_t), nonnegative up to float
    noise for any exact solve; values below -1e-8 are rejected here.
    ``residual`` is the solver's own accuracy certificate (0 for closed
    forms, final bracket width or step movement for iterative routes).
    ``value`` is loss(x_t), the loss the anchor pays this round.
    """

    x_next: np.ndarray
    delta: float
    solver: str
    residual: float
    value: float

    def __post_init__(self):
        if not np.isfinite(self.x_next).all():
            raise SolverError(f"{self.solver}: non-finite prox output")
        if self.delta < DELTA_FLOOR:
            raise SolverError(
                f"{self.solver}: progress certificate delta={self.delta:.3e} "
                f"below floor {DELTA_FLOOR:.0e}"
            )


def compute_delta(loss: Loss, geom: Geometry, x_t, x_next, lam: float) -> float:
    """loss(x_t) - loss(x_next) - lam * B(x_next, x_t)."""
    x_t = _as_vector(x_t)
    x_next = _as_vector(x_next)
    if lam > 0:
        geom._divergence_pair(x_next, x_t)
    return _delta(loss, geom, loss._value(x_t), x_t, x_next, lam)


def _delta(loss, geom, value_t, x_t, x_next, lam) -> float:
    b = geom._bregman(x_next, x_t) if lam > 0 else 0.0
    penalty = lam * b if b > 0.0 else 0.0
    return value_t - loss._value(x_next) - penalty


def prox_objective(loss: Loss, geom: Geometry, x_t, lam: float, x) -> float:
    """The objective implicit_update minimizes, evaluated at x."""
    x = _as_vector(x)
    if lam > 0:
        x, x_t = geom._divergence_pair(x, x_t)
    return _objective(loss, geom, x_t, lam, x)


def _objective(loss, geom, x_t, lam, x) -> float:
    val = loss._value(x)
    if lam > 0:
        val += lam * geom._bregman(x, x_t)
    return val


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def implicit_update(loss: Loss, geom: Geometry, x_t, lam: float) -> ProxResult:
    x_t = _as_vector(x_t)
    if not geom.domain._contains(x_t):
        raise SolverError("prox anchor x_t lies outside the domain")
    if not (lam >= 0.0):
        raise SolverError(f"lam must be nonnegative, got {lam}")
    if math.isinf(lam):
        x = x_t.copy()
        return _finish(loss, geom, x_t, x, 0.0, "identity", 0.0)

    if geom.mirror == "entropy":
        if isinstance(loss, LinearLoss):
            return _linear_entropy(loss, geom, x_t, lam)
        raise SolverError(
            f"no entropic prox route for {loss.kind!r} losses; "
            "only linear losses are supported on the simplex"
        )

    if isinstance(loss, LinearLoss):
        return _linear_euclidean(loss, geom, x_t, lam)
    if isinstance(loss, QuadraticLoss):
        return _quadratic_euclidean(loss, geom, x_t, lam)
    if isinstance(loss, (AbsoluteLoss, HingeLoss)):
        return _kinked_euclidean(loss, geom, x_t, lam)
    if isinstance(loss, CompositeLoss) and isinstance(loss.base, QuadraticLoss):
        return _composite_quadratic(loss, geom, x_t, lam)
    return _descent_route(loss, geom, x_t, lam)


def _finish(loss, geom, x_t, x_next, lam, solver, residual) -> ProxResult:
    x_next = _as_vector(x_next)
    value = loss._value(x_t)
    delta = _delta(loss, geom, value, x_t, x_next, lam)
    return ProxResult(x_next=x_next, delta=delta, solver=solver, residual=residual,
                      value=value)


# -- linear -----------------------------------------------------------------


def _linear_euclidean(loss, geom, x_t, lam) -> ProxResult:
    if lam > 0:
        x = geom.project(x_t - loss.g / lam)
    else:
        x = geom.domain._linear_argmin(loss.g, x_t)
    return _finish(loss, geom, x_t, x, lam, "closed-form", 0.0)


def _linear_entropy(loss, geom, x_t, lam) -> ProxResult:
    X, values, deltas = _linear_entropy_lanes(loss.g, geom, x_t[None, :], np.array([lam]))
    return ProxResult(x_next=X[0], delta=deltas[0], solver="closed-form", residual=0.0,
                      value=values[0])


class ProxLanes(NamedTuple):
    """``implicit_update`` of k lanes: each lane's next point (row of
    ``x_next``), its anchor's loss value, its progress certificate, its
    solver label and the dual norm of the loss subgradient at its anchor."""

    x_next: np.ndarray
    values: np.ndarray
    deltas: np.ndarray
    solvers: list
    gnorms: np.ndarray


def implicit_update_lanes(loss, geom: Geometry, X: np.ndarray, lams: np.ndarray,
                          checked: bool = False) -> ProxLanes:
    """``implicit_update`` from the anchors X (k, d) at once, lane i with
    weight lams[i] and loss ``loss``, or ``loss[i]`` of a ``LossTable``.

    Lanes of linear losses on the entropy simplex, or two or more lanes of
    1-d quadratics on an interval (a row each, or one shared), step as one batch; anything else steps
    lane by lane through ``implicit_update``, the reference
    route, which each lane equals bit for bit.  A fault in an anchor, a
    weight or an output also steps lane by lane, so the first faulty lane
    raises its own error; a learner's anchors and weights come ``checked``.
    """
    route = _lanes_route(loss, geom, X)
    if route is not None and (checked or _sound_lanes(geom, X, lams)):
        try:
            return route(X, lams)
        except (GeometryError, SolverError):
            pass  # a faulty output: the lanes step one by one below
    losses = [loss[i] for i in range(len(X))] if isinstance(loss, LossTable) else [loss] * len(X)
    results = [implicit_update(l, geom, x, lam) for l, x, lam in zip(losses, X, lams.tolist())]
    return ProxLanes(np.array([r.x_next for r in results]), np.array([r.value for r in results]),
                     np.array([r.delta for r in results]), [r.solver for r in results],
                     np.array([geom.dual_norm(l._subgradient(x)) for l, x in zip(losses, X)]))


def _sound_lanes(geom: Geometry, X: np.ndarray, lams: np.ndarray) -> bool:
    """Whether anchors X and weights lams are as ``implicit_update`` requires."""
    return bool(np.isfinite(X).all() and geom.domain._contains_rows(X).all()
                and (lams >= 0.0).all())


def _lanes_route(loss, geom, X):
    """The batched step of these lanes, a function of (X, lams), or None to
    step them one by one (one lane of quadratics steps faster on its own)."""
    if X.ndim != 2 or X.shape[1] != geom.domain.dim:
        return None
    if geom.mirror == "entropy":
        g = _linear_gradients(loss, X.shape)
        return None if g is None else lambda X, lams: _entropy_lanes(g, geom, X, lams)
    quadratics = _interval_quadratics(loss, geom, len(X))
    if geom.mirror == "euclidean" and quadratics is not None and len(X) > 1:
        return lambda X, lams: _quadratic_interval_lanes(*quadratics, geom, X, lams)
    return None


def _linear_gradients(loss, shape: tuple):
    """The gradient of lanes of linear losses with anchors of ``shape`` (k, d):
    the (k, d) rows of the ``LossTable`` ``loss``, or the (d,) gradient of one
    shared ``LinearLoss``; None for any other losses or a misfit dimension."""
    if isinstance(loss, LossTable):
        g = loss.G if loss.kind == "linear" else None
    else:
        g = loss.g if isinstance(loss, LinearLoss) else None
    return g if g is not None and g.shape in (shape, shape[1:]) else None


def _interval_quadratics(loss, geom, k: int):
    """(a, y) of k lanes' 1-d quadratic losses on an interval: the rows of
    the ``LossTable`` ``loss``, or k copies of one shared ``QuadraticLoss``;
    None for any other losses or domain."""
    if not isinstance(geom.domain, Interval):
        return None
    if isinstance(loss, LossTable):
        if loss.kind == "quadratic" and loss.A is not None and loss.A.shape == (k, 1):
            return loss.A[:, 0], loss.Y
    elif type(loss) is QuadraticLoss and loss.a.shape == (1,):
        return np.full(k, loss.a[0]), np.full(k, loss.y)
    return None


def _linear_entropy_lanes(g, geom, X, lams):
    """The entropy-linear prox of anchors X (k, d) under weights lams (k,),
    lane i's loss gradient the row g[i] of (k, d) ``g``, or one shared (d,) g.

    Lanes with 0 < lam < inf take the multiplicative step.  Lanes with
    lam = 0 minimize outright: floor everywhere, the remaining mass on the
    first argmin.  Lanes with lam = inf keep their anchor, as
    ``implicit_update`` does.  No lane's floats depend on another lane, so
    lane i equals the one-lane call on row i bit for bit; loss values are
    one dot product per row, because a matrix-vector product rounds
    differently.  Each lane's case is read from its weight as a Python
    float: a call has a lane or a few, and numpy masks cost more than that.
    """
    rows = g if g.ndim == 2 else [g] * len(X)  # each lane's gradient
    lam_list = lams.tolist()
    step = [i for i, lam in enumerate(lam_list) if 0.0 < lam < math.inf]
    if len(step) == len(lam_list):
        X_next, divergences = _entropy_step(g, X, lams, geom.domain)
    else:
        X_next, divergences = X.copy(), np.empty(0)
        for i, lam in enumerate(lam_list):
            if lam == 0.0:
                X_next[i] = geom.domain._linear_argmin(rows[i], None)
        if step:
            X_next[step], divergences = _entropy_step(g[step] if g.ndim == 2 else g, X[step],
                                                      lams[step], geom.domain)
    penalty = [0.0] * len(lam_list)
    for i, b in zip(step, divergences.tolist()):  # lam * B as ``_delta`` takes it
        penalty[i] = lam_list[i] * b if b > 0.0 else 0.0
    if not np.isfinite(X_next).all():
        raise GeometryError("point has NaN or infinite coordinates")
    values = [float(r @ x) for r, x in zip(rows, X)]
    deltas = [v - float(r @ x) - p for v, r, x, p in zip(values, rows, X_next, penalty)]
    low = [delta for delta in deltas if delta < DELTA_FLOOR]
    if low:
        raise SolverError(f"closed-form: progress certificate delta={low[0]:.3e} "
                          f"below floor {DELTA_FLOOR:.0e}")
    return X_next, values, deltas


def _entropy_lanes(g, geom, X, lams) -> ProxLanes:
    X_next, values, deltas = _linear_entropy_lanes(g, geom, X, lams)
    gnorms = [geom.dual_norm(r) for r in g] if g.ndim == 2 else [geom.dual_norm(g)] * len(X)
    return ProxLanes(X_next, np.array(values), np.array(deltas), _labels(lams),
                     np.array(gnorms))


def _labels(lams: np.ndarray) -> list:
    """Each lane's solver label: a closed form, or the anchor kept at lam = inf."""
    if (lams < math.inf).all():
        return ["closed-form"] * len(lams)
    return ["closed-form" if lam < math.inf else "identity" for lam in lams.tolist()]


def _entropy_step(g, X, lams, dom):
    """Multiplicative step then KL projection, exact for linear losses; with
    each lane's divergence B(x_next, x_t), fused as in ``Geometry._bregman``."""
    z = g / lams[:, None]
    X_next = _kl_project_clipped_simplex(X * np.exp(z.min(axis=1, keepdims=True) - z), dom)
    d = X_next - X
    return X_next, (X_next * np.log1p(d / X) - d).sum(axis=1)


def _closed_form_step(loss, geom, x_t, x, lam) -> ProxResult:
    """Finish the unconstrained minimizer ``x`` of a euclidean prox step.

    On an interval the one-dimensional prox objective is convex, so clipping
    is exact; elsewhere ``x`` stands if the domain contains it, and the
    numeric route solves the constrained step otherwise.
    """
    dom = geom.domain
    if isinstance(dom, Interval):
        return _finish(loss, geom, x_t, dom.clip(x), lam, "closed-form", 0.0)
    if dom.contains(x):
        return _finish(loss, geom, x_t, x, lam, "closed-form", 0.0)
    return _descent_route(loss, geom, x_t, lam)


# -- quadratic --------------------------------------------------------------


def _quadratic_euclidean(loss, geom, x_t, lam) -> ProxResult:
    a = loss.a
    na2 = float(a @ a)
    if na2 == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    r = loss._residual(x_t)
    x = x_t - (r / (lam + na2)) * a
    return _closed_form_step(loss, geom, x_t, x, lam)


def _quadratic_interval_lanes(a, y, geom, X, lams) -> ProxLanes:
    """``_quadratic_euclidean`` on an interval, lane i from anchor X[i] under
    the loss 0.5 * (a[i] * x - y[i])^2, lam = inf keeping the anchor as
    ``implicit_update`` does.  Each lane's residual is computed once; every
    float is the one the one-lane route computes, since a 1-d dot product is
    an exact product (``+ 0.0`` gives its sign of zero) and every other step
    is elementwise.  The anchors and weights are trusted; the outputs are
    checked."""
    x = X[:, 0]
    with np.errstate(all="ignore"):  # a faulty lane steps again on its own, warnings and all
        r = (a * x + 0.0) - y
        na2 = a * a
        still = (na2 == 0.0) | (lams == math.inf)
        step = r / np.where(still, 1.0, lams + na2)
        x_next = np.where(still, x, geom.domain.clip(x - step * a))
        d = x_next - x
        b = 0.5 * (d * d)
        r_next = a * x_next - y
        values = 0.5 * r * r
        deltas = values - 0.5 * r_next * r_next - np.where(b > 0.0, lams, 0.0) * b
        g = r * a
    if not (np.isfinite(x_next).all() and (deltas >= DELTA_FLOOR).all()):
        raise SolverError("closed-form: a lane's prox output is faulty")
    return ProxLanes(x_next[:, None], values, deltas, _labels(lams), np.sqrt(g * g))


# -- absolute and hinge -----------------------------------------------------


def _kinked_euclidean(loss, geom, x_t, lam) -> ProxResult:
    """Absolute and hinge losses fall along minus their subgradient g = +-a at
    the rate ||a||^2 until they reach zero: step by 1/lam, capped there."""
    na2 = float(loss.a @ loss.a)
    excess = loss._value(x_t)
    if na2 == 0.0 or excess == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    step = excess / na2 if lam == 0.0 else min(1.0 / lam, excess / na2)
    return _closed_form_step(loss, geom, x_t, x_t - step * loss._subgradient(x_t), lam)


# -- composite quadratic + L1 ----------------------------------------------


def _soft(v: np.ndarray, kappa: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def _composite_quadratic(loss, geom, x_t, lam) -> ProxResult:
    base, beta = loss.base, loss.l1_weight
    a, y = base.a, base.y
    if beta == 0.0:
        return _quadratic_euclidean(base, geom, x_t, lam)
    if lam == 0.0:
        # zero is optimal iff every coordinate of a*residual(0) fits in the
        # L1 subdifferential; certified exactly, otherwise numeric
        zero = np.zeros_like(x_t)
        if geom.domain.contains(zero) and float(np.max(np.abs(a * y))) <= beta:
            return _finish(loss, geom, x_t, zero, lam, "closed-form", 0.0)
        return _ista_route(loss, geom, x_t, lam)

    def x_of(theta):
        return _soft(x_t - (theta / lam) * a, beta / lam)

    def slack(theta):
        return float(a @ x_of(theta)) - y - theta

    # slack is strictly decreasing in theta: bracket by doubling, then bisect
    r0 = base._residual(x_t)
    lo, hi = r0 - 1.0, r0 + 1.0
    width = 2.0
    for _ in range(200):
        if slack(lo) > 0:
            break
        lo -= width
        width *= 2.0
    else:
        raise SolverError("composite prox: failed to bracket from below")
    width = 2.0
    for _ in range(200):
        if slack(hi) < 0:
            break
        hi += width
        width *= 2.0
    else:
        raise SolverError("composite prox: failed to bracket from above")
    f_lo, f_hi = slack(lo), slack(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = slack(mid)
        if not (f_lo + 1e-12 >= f_mid >= f_hi - 1e-12):
            raise SolverError("composite prox: dual slack lost monotonicity")
        if f_mid > 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    theta = 0.5 * (lo + hi)
    x = x_of(theta)
    if geom.domain.contains(x):
        return _finish(loss, geom, x_t, x, lam, "dual-bisection", hi - lo)
    return _ista_route(loss, geom, x_t, lam)


def _ista_route(loss, geom, x_t, lam, max_iter=100_000, tol=1e-12) -> ProxResult:
    """Proximal-gradient solve for composite quadratic + L1 on a box.

    Handles the cases the dual bisection cannot: lam = 0 away from the zero
    certificate, and box-active solutions.  Linear convergence in practice.
    """
    base, beta = loss.base, loss.l1_weight
    a, y = base.a, base.y
    L = float(a @ a) + lam
    if L == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "numeric-descent", 0.0)
    x = x_t.copy()
    move = np.inf
    for _ in range(max_iter):
        grad = base._residual(x) * a + lam * (x - x_t)
        z = geom.project(_soft(x - grad / L, beta / L))
        move = float(np.max(np.abs(z - x)))
        x = z
        if move < tol:
            break
    return _finish(loss, geom, x_t, x, lam, "numeric-descent", move)


# -- generic numeric fallback ----------------------------------------------


def _curvature_bound(loss: Loss) -> float:
    if isinstance(loss, QuadraticLoss):
        return float(loss.a @ loss.a)
    if isinstance(loss, CompositeLoss):
        return _curvature_bound(loss.base)
    return 0.0


def _descent_route(loss, geom, x_t, lam, max_iter=100_000, tol=1e-9) -> ProxResult:
    """Projected (sub)gradient descent on the prox objective.

    Smooth losses take the constant step 1/(L + lam), which contracts
    geometrically; kinked losses keep the decaying 1/(lam*k + L) schedule.
    """
    if geom.mirror != "euclidean":
        raise SolverError("numeric descent route supports euclidean geometry only")
    g0 = loss._subgradient(x_t) + 0.0
    L = max(1.0, _curvature_bound(loss), float(np.linalg.norm(g0)))
    smooth = isinstance(loss, QuadraticLoss)
    x = x_t.copy()
    best = x.copy()
    best_f = _objective(loss, geom, x_t, lam, x)
    move = np.inf
    for k in range(1, max_iter + 1):
        g = loss._subgradient(x)
        if lam > 0:
            g = g + lam * (x - x_t)
        step = 1.0 / (L + lam) if smooth else 1.0 / (lam * k + L)
        z = geom.project(x - step * g)
        move = float(np.linalg.norm(z - x))
        x = z
        f = _objective(loss, geom, x_t, lam, x)
        if f < best_f:
            best_f = f
            best = x.copy()
        if move < tol:
            break
    return _finish(loss, geom, x_t, best, lam, "numeric-descent", move)

