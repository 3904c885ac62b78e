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

import numpy as np

from .geometry import Geometry, GeometryError, Interval, _as_vector, _kl_project_clipped_simplex
from .losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    Loss,
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
    X, values, deltas = _linear_entropy_lanes(loss, geom, x_t[None, :], np.array([lam]))
    return ProxResult(x_next=X[0], delta=deltas[0], solver="closed-form", residual=0.0,
                      value=values[0])


def implicit_update_lanes(loss: LinearLoss, geom: Geometry, X: np.ndarray,
                          lams: np.ndarray) -> tuple[np.ndarray, list, list]:
    """``implicit_update`` of one linear loss on the entropy simplex from the
    anchors X (k, d) at once, lane i with weight lams[i].

    Returns the next points (k, d), the anchors' loss values and the
    progress certificates, each lane equal bit for bit to the one-lane
    update, and raises the error that update raises for the same fault.
    """
    if not np.isfinite(X).all():
        raise GeometryError("point has NaN or infinite coordinates")
    if X.shape[1] != geom.domain.d or not geom.domain._contains_rows(X).all():
        raise SolverError("prox anchor x_t lies outside the domain")
    if not (lams >= 0.0).all():
        raise SolverError(f"lam must be nonnegative, got {lams[~(lams >= 0.0)][0]}")
    return _linear_entropy_lanes(loss, geom, X, lams)


def _linear_entropy_lanes(loss, geom, X, lams):
    """The entropy-linear prox of anchors X (k, d) under weights lams (k,).

    Lanes with 0 < lam < inf take the multiplicative step.  Lanes with
    lam = 0 minimize outright: floor everywhere, the remaining mass on the
    first argmin.  Lanes with lam = inf keep their anchor, as
    ``implicit_update`` does.  No lane's floats depend on another lane, so
    lane i equals the one-lane call on row i bit for bit; loss values are
    one dot product per row, because a matrix-vector product rounds
    differently.
    """
    dom = geom.domain
    g = loss.g
    step = (lams > 0.0) & (lams < math.inf)
    n_step = np.count_nonzero(step)
    if n_step == len(lams):
        X_next, penalty = _entropy_step(g, X, lams, dom)
    else:
        X_next = np.where((lams == 0.0)[:, None], dom._linear_argmin(g, None), X)
        penalty = np.zeros(len(lams))
        if n_step:
            X_next[step], penalty[step] = _entropy_step(g, X[step], lams[step], dom)
    if not np.isfinite(X_next).all():
        raise GeometryError("point has NaN or infinite coordinates")
    values = [float(g @ x) for x in X]
    deltas = (np.array(values) - [float(g @ x) for x in X_next] - penalty).tolist()
    low = [delta for delta in deltas if delta < DELTA_FLOOR]
    if low:
        raise SolverError(f"closed-form: progress certificate delta={low[0]:.3e} "
                          f"below floor {DELTA_FLOOR:.0e}")
    return X_next, values, deltas


def _entropy_step(g, X, lams, dom):
    """Multiplicative step then KL projection, exact for linear losses; with
    each lane's penalty lam * B(x_next, x_t), the divergence fused as in
    ``Geometry._bregman``."""
    z = g / lams[:, None]
    X_next = _kl_project_clipped_simplex(X * np.exp(-(z - z.min(axis=1, keepdims=True))), dom)
    d = X_next - X
    b = (X_next * np.log1p(d / X) - d).sum(axis=1)
    return X_next, np.where(b > 0.0, lams * b, 0.0)


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

