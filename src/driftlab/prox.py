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

from .geometry import (
    Ball,
    Box,
    ClippedSimplex,
    Geometry,
    GeometryError,
    Interval,
    _as_vector,
    _kl_project_clipped_simplex,
)
from .losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    Loss,
    QuadraticLoss,
    batch_values,
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
    if isinstance(loss, AbsoluteLoss):
        return _absolute_euclidean(loss, geom, x_t, lam)
    if isinstance(loss, HingeLoss):
        return _hinge_euclidean(loss, geom, x_t, lam)
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
    dom = geom.domain
    if lam > 0:
        x = geom.project(x_t - loss.g / lam)
        return _finish(loss, geom, x_t, x, lam, "closed-form", 0.0)
    g = loss.g
    if isinstance(dom, (Interval, Box)):
        if isinstance(dom, Interval):
            lo = np.array([dom.lo])
            hi = np.array([dom.hi])
        else:
            lo, hi = dom.lo, dom.hi
        # coordinates with zero slope keep the anchor (lam -> 0 limit)
        x = np.where(g > 0, lo, np.where(g < 0, hi, x_t))
        return _finish(loss, geom, x_t, x.astype(float), lam, "closed-form", 0.0)
    if isinstance(dom, Ball):
        ng = float(np.linalg.norm(g))
        x = x_t.copy() if ng == 0.0 else dom.center - (dom.radius / ng) * g
        return _finish(loss, geom, x_t, x, lam, "closed-form", 0.0)
    raise SolverError(f"no linear minimizer for domain {dom.kind!r}")


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
    if not isinstance(dom, ClippedSimplex):
        raise SolverError("entropy prox needs a clipped-simplex domain")
    g = loss.g
    step = (lams > 0.0) & (lams < math.inf)
    n_step = np.count_nonzero(step)
    if n_step == len(lams):
        X_next, penalty = _entropy_step(g, X, lams, dom)
    else:
        argmin = np.full(dom.d, dom.floor)
        argmin[int(np.argmin(g))] = 1.0 - dom.floor * (dom.d - 1)
        X_next = np.where((lams == 0.0)[:, None], argmin, X)
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


# -- absolute ---------------------------------------------------------------


def _absolute_euclidean(loss, geom, x_t, lam) -> ProxResult:
    a = loss.a
    na2 = float(a @ a)
    if na2 == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    r = loss._residual(x_t)
    if r == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    step = abs(r) / na2 if lam == 0.0 else min(1.0 / lam, abs(r) / na2)
    x = x_t - np.sign(r) * step * a
    return _closed_form_step(loss, geom, x_t, x, lam)


# -- hinge ------------------------------------------------------------------


def _hinge_euclidean(loss, geom, x_t, lam) -> ProxResult:
    a, y = loss.a, loss.y
    na2 = float(a @ a)
    gap = loss._value(x_t)
    if na2 == 0.0 or gap == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    step = gap / na2 if lam == 0.0 else min(1.0 / lam, gap / na2)
    x = x_t + step * y * a
    return _closed_form_step(loss, geom, x_t, x, lam)


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


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


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


def _axes_for(domain, budget):
    if isinstance(domain, Interval):
        return [(domain.lo, domain.hi)], "interval"
    if isinstance(domain, Box):
        if domain.dim > 3:
            raise SolverError("grid oracle supports at most 3 box axes")
        return [(lo, hi) for lo, hi in zip(domain.lo, domain.hi)], "box"
    if isinstance(domain, ClippedSimplex):
        if domain.d > 3:
            raise SolverError("grid oracle supports simplex d <= 3")
        n_free = domain.d - 1
        top = 1.0 - (domain.d - 1) * domain.floor
        return [(domain.floor, top)] * n_free, "simplex"
    if isinstance(domain, Ball):
        if domain.dim > 3:
            raise SolverError("grid oracle supports at most 3 ball axes")
        return [
            (c - domain.radius, c + domain.radius) for c in domain.center
        ], "ball"
    raise SolverError(f"no grid for domain {domain.kind!r}")


def _grid_candidates(domain, kind, ranges, budget):
    grids = [np.linspace(lo, hi, budget) for lo, hi in ranges]
    if len(grids) == 1:
        pts = grids[0][:, None]
    elif len(grids) == 2:
        g1, g2 = np.meshgrid(grids[0], grids[1], indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
    else:
        g1, g2, g3 = np.meshgrid(grids[0], grids[1], grids[2], indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])
    if kind == "simplex":
        last = 1.0 - np.sum(pts, axis=1)
        keep = last >= domain.floor - 1e-12
        pts = np.column_stack([pts[keep], last[keep]])
    elif kind == "ball":
        keep = np.linalg.norm(pts - domain.center, axis=1) <= domain.radius
        pts = pts[keep]
    return pts


def prox_oracle(loss: Loss, geom: Geometry, x_t, lam: float,
                budget: int = 400, mode: str | None = None,
                descent_steps: int = 1_000_000) -> np.ndarray:
    """Brute-force minimizer of the prox objective, for certification.

    ``mode="grid"`` (default up to 3 effective axes): dense grid of ``budget``
    points per axis refined once around the best cell; argument accuracy is
    about 2 * range / budget^2, i.e. <= 1e-4 at the default budget on unit-
    scale domains.  ``mode="descent"``: plain projected subgradient descent
    with step 1/(lam*k + L) for ``descent_steps`` steps, returning the best
    of final iterate, best-objective iterate and tail average; documented
    accuracy about 1e-6 at the default step count on unit-scale instances.
    """
    x_t = _as_vector(x_t)
    if mode is None:
        try:
            _axes_for(geom.domain, budget)
            mode = "grid"
        except SolverError:
            mode = "descent"
    if mode == "grid":
        ranges, kind = _axes_for(geom.domain, budget)
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
    if mode == "descent":
        return _oracle_descent(loss, geom, x_t, lam, descent_steps)
    raise SolverError(f"unknown oracle mode {mode!r}")


def _oracle_descent(loss, geom, x_t, lam, steps) -> np.ndarray:
    if geom.mirror != "euclidean":
        raise SolverError("descent oracle supports euclidean geometry only")
    L = max(1.0, _curvature_bound(loss), float(np.linalg.norm(loss.subgradient(x_t))))
    x = x_t.copy()
    best = x.copy()
    best_f = prox_objective(loss, geom, x_t, lam, x)
    tail_from = int(0.9 * steps)
    tail_sum = np.zeros_like(x)
    tail_n = 0
    for k in range(1, steps + 1):
        g = loss.subgradient(x)
        if lam > 0:
            g = g + lam * (x - x_t)
        x = geom.project(x - g / (lam * k + L))
        if k % 64 == 0:
            f = prox_objective(loss, geom, x_t, lam, x)
            if f < best_f:
                best_f = f
                best = x.copy()
        if k >= tail_from:
            tail_sum += x
            tail_n += 1
    cands = [x, best]
    if tail_n:
        cands.append(geom.project(tail_sum / tail_n))
    vals = [prox_objective(loss, geom, x_t, lam, c) for c in cands]
    return cands[int(np.argmin(vals))].copy()


def oracle_descent_batch(kind: str, A: np.ndarray, Y: np.ndarray, labels,
                         X0: np.ndarray, LAM: np.ndarray, lo, hi,
                         steps: int = 1_000_000, l1_weight: float = 0.0,
                         tail_frac: float = 0.1):
    """Vectorized descent oracle over many instances of one loss family.

    Certification helper: runs the same projected subgradient recursion as
    the scalar descent oracle simultaneously for N instances of kind
    ``quadratic`` / ``absolute`` / ``hinge`` / ``composite`` with rows of A,
    targets Y, anchors X0, weights LAM on a shared box [lo, hi].  Returns the
    per-instance best of final iterate and tail average, shape (N, d).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    X = np.array(np.atleast_2d(np.asarray(X0, dtype=float)))
    Y = np.asarray(Y, dtype=float)
    LAM = np.asarray(LAM, dtype=float)
    n, d = X.shape
    na2 = np.sum(A * A, axis=1)
    if kind == "hinge":
        labels = np.asarray(labels, dtype=float)
    curv = na2 if kind in ("quadratic", "composite") else np.zeros(n)
    g0 = _family_subgradient(kind, A, Y, labels, X, l1_weight)
    L = np.maximum(1.0, np.maximum(curv, np.linalg.norm(g0, axis=1)))
    tail_from = int((1.0 - tail_frac) * steps)
    tail = np.zeros_like(X)
    tail_n = 0
    for k in range(1, steps + 1):
        G = _family_subgradient(kind, A, Y, labels, X, l1_weight)
        G += LAM[:, None] * (X - X0)
        step = 1.0 / (LAM * k + L)
        X = np.clip(X - step[:, None] * G, lo, hi)
        if k >= tail_from:
            tail += X
            tail_n += 1
    out = np.empty_like(X)
    avg = np.clip(tail / tail_n, lo, hi)
    f_last = _family_objective(kind, A, Y, labels, X, X0, LAM, l1_weight)
    f_avg = _family_objective(kind, A, Y, labels, avg, X0, LAM, l1_weight)
    pick_avg = f_avg <= f_last
    out[pick_avg] = avg[pick_avg]
    out[~pick_avg] = X[~pick_avg]
    return out


def _family_subgradient(kind, A, Y, labels, X, l1_weight):
    r = np.sum(A * X, axis=1) - Y
    if kind == "quadratic":
        return r[:, None] * A
    if kind == "absolute":
        return np.sign(r)[:, None] * A
    if kind == "hinge":
        m = labels * np.sum(A * X, axis=1)
        return np.where((1.0 - m > 0)[:, None], -labels[:, None] * A, 0.0)
    if kind == "composite":
        return r[:, None] * A + l1_weight * np.sign(X)
    raise SolverError(f"unknown family {kind!r}")


def _family_objective(kind, A, Y, labels, X, X0, LAM, l1_weight):
    r = np.sum(A * X, axis=1) - Y
    if kind == "quadratic":
        vals = 0.5 * r * r
    elif kind == "absolute":
        vals = np.abs(r)
    elif kind == "hinge":
        vals = np.maximum(0.0, 1.0 - labels * np.sum(A * X, axis=1))
    elif kind == "composite":
        vals = 0.5 * r * r + l1_weight * np.sum(np.abs(X), axis=1)
    else:
        raise SolverError(f"unknown family {kind!r}")
    D = X - X0
    return vals + LAM * 0.5 * np.sum(D * D, axis=1)
