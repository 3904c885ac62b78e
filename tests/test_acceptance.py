"""Acceptance gate: the numbered guarantees, each as a runnable check.

Every test prints one ``criterion NN ...: PASS`` line (visible with -s; the
-v test listing carries the same numbering).  Expected values come from closed
forms computed inside each test or from the brute-force oracles in
``tests/_oracles.py``, never from the implementation under test.
"""

import json
import math

import numpy as np
import pytest
import yaml
from _oracles import oracle_descent_batch, prox_oracle

from driftlab.cli import main
from driftlab.combiners import (
    ABProd,
    AdaptMLProd,
    LossRange,
    Scaffold,
    break_by_path_length,
)
from driftlab.envs import (
    AlternatingExpertsEnv,
    DriftingQuadraticEnv,
    FixedLossEnv,
    ShiftingExpertsEnv,
)
from driftlab.geometry import (
    Box,
    ClippedSimplex,
    Interval,
    entropy_geometry,
    euclidean_geometry,
)
from driftlab.learners import (
    AdaptiveSchedule,
    DoublingSchedule,
    DynamicIOMD,
    GreedySchedule,
    fixed_schedule,
)
from driftlab.losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    QuadraticLoss,
    temporal_variability,
)
from driftlab.montecarlo import LEARNERS, lower_bound_sweep
from driftlab.prox import implicit_update, prox_objective

TOL = 1e-6
DELTA_FLOOR = -1e-8
GRID_TOL = 1e-4      # grid-mode oracle comparisons, argument space
ANALYTIC_TOL = 1e-6  # descent-mode oracle comparisons, objective values

INTERVAL = euclidean_geometry(Interval(-1.0, 1.0))


def _seeded(*key):
    return np.random.Generator(np.random.PCG64(list(key)))


def _run(learner, losses):
    """Drive a learner, returning per-round values and the update rows."""
    vals, rows = [], []
    for loss in losses:
        vals.append(loss.value(learner.play()))
        rows.append(learner.update(loss))
    return np.asarray(vals), rows


def _regret(vals, losses, comparators):
    return float(np.sum(vals)) - sum(
        l.value(u) for l, u in zip(losses, comparators))


def _col(rows, key):
    return np.array([r[key] for r in rows])


def _ok(lhs, rhs, tol=TOL):
    assert lhs <= rhs + tol, f"lhs={lhs!r} exceeds rhs={rhs!r}"


# ---------------------------------------------------------------------------
# 1-4: single-learner certificates
# ---------------------------------------------------------------------------


def test_criterion_01_greedy_drift_certificate():
    # regret <= first value - final value + signed drift, exactly, per run
    for family in ("drifting-quadratic", "fixed-loss", "shifting-experts"):
        for seed in range(100):
            rng = _seeded(1, seed)
            if family == "drifting-quadratic":
                env = DriftingQuadraticEnv(64, seed, tau=float(rng.uniform(0, 3)))
                geom = env.default_geometry()
            elif family == "fixed-loss":
                env = FixedLossEnv(64, seed)
                geom = env.default_geometry()
            else:
                env = ShiftingExpertsEnv(64, seed, d=int(rng.integers(3, 9)),
                                         shifts=int(rng.integers(1, 6)))
                # negligible floor so the corner comparators lie in the
                # decision set; the d/T clip belongs to the mirror runs
                geom = entropy_geometry(ClippedSimplex(env.d, 1e-12))
            losses, us = env.losses(), env.comparators()
            learner = DynamicIOMD(geom, GreedySchedule())
            vals, _ = _run(learner, losses)
            vt = temporal_variability(losses, geom.domain).signed
            rhs = float(vals[0]) - losses[-1].value(learner.play()) + vt
            _ok(_regret(vals, losses, us), rhs)
    print("criterion 01 greedy drift certificate: PASS")


def test_criterion_02_fixed_schedule_certificate():
    # regret <= D^2/eta_T + gamma * sum ||du||/eta_t + sum delta_t
    for shape in ("constant", "inv_sqrt", "inv_t"):
        for seed in range(100):
            rng = _seeded(2, seed)
            T = 64
            env = DriftingQuadraticEnv(T, seed, tau=float(rng.uniform(0, 4)))
            sched = fixed_schedule(shape, float(rng.uniform(0.3, 1.5)), T)
            assert np.all(np.diff(sched.etas) <= 1e-15)
            learner = DynamicIOMD(INTERVAL, sched)
            losses, us = env.losses(), env.comparators()
            vals, rows = _run(learner, losses)
            lams = _col(rows, "lam")
            incs = np.linalg.norm(np.diff(us, axis=0), axis=1)
            rhs = (INTERVAL.diameter_sq * lams[-1]
                   + INTERVAL.gamma * float(np.sum(lams[1:] * incs))
                   + float(np.sum(_col(rows, "delta"))))
            _ok(_regret(vals, losses, us), rhs)
    print("criterion 02 fixed schedule certificate: PASS")


def test_criterion_03_adaptive_drift_certificate():
    # both min-arms, the progress floor, weight monotonicity and the
    # closed-form weight cap, per run
    for seed in range(100):
        rng = _seeded(3, seed)
        T = 64
        tau = float(rng.uniform(0.0, 3.0))
        env = DriftingQuadraticEnv(T, seed, tau=tau)
        beta_sq = INTERVAL.diameter_sq + INTERVAL.gamma * tau
        learner = DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=beta_sq))
        losses, us = env.losses(), env.comparators()
        vals, rows = _run(learner, losses)
        regret = _regret(vals, losses, us)
        deltas = _col(rows, "delta")
        gnorms = _col(rows, "gnorm_dual")
        assert float(np.min(deltas)) >= DELTA_FLOOR
        lam_path = np.append(_col(rows, "lam"), learner.lam[0])
        assert float(np.min(np.diff(lam_path))) >= -1e-12
        gsq = float(np.sum(gnorms ** 2))
        cap = math.sqrt(
            (2.0 * INTERVAL.diameter_sq / beta_sq ** 2 + 1.0 / beta_sq) * gsq)
        _ok(float(learner.lam[0]), cap, 1e-9)
        vt = temporal_variability(losses, INTERVAL.domain).signed
        endpoint = float(vals[0]) - losses[-1].value(learner.play())
        _ok(regret, 2.0 * (endpoint + vt))
        _ok(regret, 2.0 * math.sqrt(
            (3.0 * INTERVAL.diameter_sq + INTERVAL.gamma * tau) * gsq))
    print("criterion 03 adaptive drift certificate: PASS")


def test_criterion_04_doubling_restart_certificate():
    # realized paths spread over [0, 100 D]; epoch count stays within the
    # doubling budget and the restart bound holds with c = sqrt2/(D+gamma sqrt2)
    D = math.sqrt(INTERVAL.diameter_sq)
    c = math.sqrt(2.0) / (D + INTERVAL.gamma * math.sqrt(2.0))
    seen_ct = []
    for i in range(100):
        T = 400
        env = DriftingQuadraticEnv(T, 1000 + i, tau=i / 99.0 * 100.0 * D)
        learner = DynamicIOMD(INTERVAL, DoublingSchedule())
        losses, us = env.losses(), env.comparators()
        vals, rows = _run(learner, losses)
        assert float(np.min(_col(rows, "delta"))) >= DELTA_FLOOR
        ct = float(np.sum(np.abs(np.diff(us, axis=0))))
        seen_ct.append(ct)
        _ok(learner.epoch[0], math.log2(ct / (math.sqrt(2.0) * D) + 1.0), 1e-12)
        vt = temporal_variability(losses, INTERVAL.domain).signed
        arm_a = float(vals[0]) - losses[-1].value(learner.play()) + vt
        arm_b = math.inf
        if ct > 0:
            inner = (3.0 * INTERVAL.diameter_sq
                     * (math.log2(ct / (math.sqrt(2.0) * D)) + 1.0)
                     + INTERVAL.gamma * ct)
            if inner > 0:
                arm_b = math.sqrt(inner * float(np.sum(_col(rows, "gnorm_dual") ** 2)))
        _ok(_regret(vals, losses, us), (2.0 + c) * min(arm_a, arm_b))
    assert min(seen_ct) == 0.0 and max(seen_ct) > 99.0 * D
    print("criterion 04 doubling restart certificate: PASS")


# ---------------------------------------------------------------------------
# 5-6: lower bound and separation
# ---------------------------------------------------------------------------


def test_criterion_05_lower_bound_construction():
    # 200 seeds x sigma grid at T = 10^4: every learner's mean regret meets
    # 0.95 sigma^2 T / 2 and every path's variability stays under 2 sigma T
    T, seeds = 10_000, range(200)
    grid = lower_bound_sweep([0.05, 0.1, 0.3], T, seeds)
    assert {lrn for (_, lrn) in grid} == set(LEARNERS)
    for (sigma, learner), res in grid.items():
        floor = 0.95 * sigma * sigma * T / 2.0
        mean = float(np.mean(res.regret))
        assert mean >= floor, (learner, sigma, mean, floor)
        assert float(np.max(res.vt)) <= 2.0 * sigma * T
    print("criterion 05 lower bound construction: PASS")


def test_criterion_06_tracking_separation():
    # alternating corners at T = 10^4: greedy pays linear static regret while
    # the adaptive mirror step keeps it at the sqrt(T log T) scale
    T = 10_000
    env = AlternatingExpertsEnv(T)
    geom = env.default_geometry()
    losses = env.losses()
    best_fixed = min(sum(l.g[0] for l in losses), sum(l.g[1] for l in losses))

    vals_g, _ = _run(DynamicIOMD(geom, GreedySchedule()), losses)
    static_greedy = float(np.sum(vals_g)) - best_fixed

    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq=math.log(T)))
    vals_d, _ = _run(learner, losses)
    static_mirror = float(np.sum(vals_d)) - best_fixed

    assert static_greedy >= 0.4 * T
    _ok(static_mirror, 4.0 * math.sqrt((1.0 + math.log(T)) * T))
    assert static_greedy >= 10.0 * abs(static_mirror)
    print("criterion 06 tracking separation: PASS")


# ---------------------------------------------------------------------------
# 7-8: expert tracking and composite losses
# ---------------------------------------------------------------------------


def test_criterion_07_shifting_expert_certificate():
    # clip alpha = d/T, weight denominator (1 + tau) ln T with tau = 2S; both
    # arms carry the 2 L_inf d clipping term and membership holds every round
    d, T = 8, 2048
    l_inf = 1.0
    for shifts in (1, 5, 20):
        for seed in range(8):
            env = ShiftingExpertsEnv(T, seed, d=d, shifts=shifts)
            alpha = d / T
            geom = entropy_geometry(ClippedSimplex(d, alpha))
            tau = 2.0 * shifts
            learner = DynamicIOMD(
                geom, AdaptiveSchedule(beta_sq=(1.0 + tau) * math.log(T)))
            losses, us = env.losses(), env.comparators()
            vals, eg2 = [], 0.0
            for loss in losses:
                x = learner.play()
                assert geom.domain.contains(x, tol=1e-9)
                vals.append(loss.value(x))
                eg2 += learner.update(loss)["eg2"]
            vals = np.asarray(vals)
            assert float(np.sum(np.abs(np.diff(us, axis=0)))) == 2.0 * shifts
            gs = np.array([l.g for l in losses])
            assert float(np.max(np.abs(gs))) <= l_inf
            regret = _regret(vals, losses, us)
            # drift of linear losses over the simplex: best-coordinate jumps
            vt = float(np.sum(np.maximum(np.max(np.diff(gs, axis=0), axis=1), 0.0)))
            clip = 2.0 * l_inf * T * alpha  # equals 2 L_inf d at alpha = d/T
            endpoint = float(vals[0]) - losses[-1].value(learner.play())
            _ok(regret, 2.0 * (endpoint + vt) + clip)
            _ok(regret, 2.0 * math.sqrt(
                (1.0 + (1.0 + tau) * math.log(T)) * eg2) + clip)
    print("criterion 07 shifting expert certificate: PASS")


def _variable_part_drift(a, ys, radius=1.0):
    """Signed drift of 0.5 (a.x - y_t)^2 over a box, exact for a shared a."""
    a = np.asarray(a, dtype=float)
    reach = float(np.sum(np.abs(a))) * radius
    total = 0.0
    for y0, y1 in zip(ys, ys[1:]):
        sup = abs(y0 - y1) * reach + 0.5 * (y1 * y1 - y0 * y0)
        total += max(0.0, sup)
    return total


def test_criterion_08_composite_certificate_and_sparsity():
    d = 8
    box = euclidean_geometry(Box([-1.0] * d, [1.0] * d))
    u = np.zeros(d)

    def check_bound(a, ys, rows, vals, losses, x_final):
        # drift on the variable part only; endpoints keep the full loss
        vt = _variable_part_drift(a, ys)
        regret = float(np.sum(vals)) - sum(l.value(u) for l in losses)
        _ok(regret, 2.0 * (float(vals[0]) - losses[-1].value(x_final) + vt))
        gsq = float(np.sum(_col(rows, "gnorm_dual") ** 2))
        _ok(regret, 2.0 * math.sqrt(3.0 * box.diameter_sq * gsq))

    for seed in range(25):
        rng = _seeded(8, seed)
        T = 150
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        w = float(rng.uniform(0.05, 0.3))
        targ, ys = float(rng.uniform(-0.3, 0.3)), []
        for _ in range(T):
            targ = float(np.clip(targ + rng.normal(0, 0.02), -0.3, 0.3))
            ys.append(targ)
        losses = [CompositeLoss(QuadraticLoss(a, y), w) for y in ys]
        learner = DynamicIOMD(box, AdaptiveSchedule(beta_sq=box.diameter_sq))
        vals, rows = _run(learner, losses)
        check_bound(a, ys, rows, vals, losses, learner.play())

    # dominant penalty: soft thresholding keeps most coordinates at exact zero
    for seed in range(10):
        rng = _seeded(88, seed)
        T = 80
        a = np.zeros(d)
        a[rng.choice(d, size=3, replace=False)] = rng.normal(size=3)
        a /= np.linalg.norm(a)
        w = 10.0 * float(np.max(np.abs(a))) * 1.5  # 10x the gradient scale
        ys = [float(rng.uniform(-0.5, 0.5)) for _ in range(T)]
        losses = [CompositeLoss(QuadraticLoss(a, y), w) for y in ys]
        learner = DynamicIOMD(box, AdaptiveSchedule(beta_sq=box.diameter_sq))
        zeros, vals, rows = 0, [], []
        for loss in losses:
            vals.append(loss.value(learner.play()))
            rows.append(learner.update(loss))
            zeros += int(np.sum(learner.play() == 0.0))
        check_bound(a, ys, rows, np.asarray(vals), losses, learner.play())
        assert zeros / (T * d) >= 0.5
    print("criterion 08 composite certificate and sparsity: PASS")


# ---------------------------------------------------------------------------
# 9: prox route certification
# ---------------------------------------------------------------------------


def _certify_grid(instances, budget=400):
    """Each instance: (loss, geom, x_t, lam, expected_solver)."""
    for loss, geom, x_t, lam, solver in instances:
        res = implicit_update(loss, geom, x_t, lam)
        assert res.solver == solver, (res.solver, solver)
        oracle = prox_oracle(loss, geom, x_t, lam, budget=budget)
        err = float(np.max(np.abs(res.x_next - oracle)))
        assert err <= GRID_TOL, (solver, err)


def test_criterion_09_prox_certification():
    n = 1000
    wide = euclidean_geometry(Interval(-2.0, 2.0))

    # linear over the interval, corner and damped steps
    rng = _seeded(9, 1)
    batch = []
    for i in range(n):
        g = float(rng.uniform(0.1, 1.5)) * float(rng.choice([-1.0, 1.0]))
        lam = 0.0 if i % 10 == 0 else float(rng.uniform(1.0, 6.0))
        batch.append((LinearLoss([g]), INTERVAL,
                      INTERVAL.domain.sample(rng, 1)[0], lam, "closed-form"))
    _certify_grid(batch)

    # linear under the entropy mirror on a clipped two-point simplex
    rng = _seeded(9, 2)
    batch = []
    for i in range(n):
        floor = float(rng.uniform(0.05, 0.3))
        dom = ClippedSimplex(2, floor)
        g = rng.uniform(-1.0, 1.0, size=2)
        if abs(g[0] - g[1]) < 0.05:
            g[0] += 0.1
        lam = 0.0 if i % 10 == 0 else float(rng.uniform(0.5, 8.0))
        batch.append((LinearLoss(g), entropy_geometry(dom),
                      dom.sample(rng, 1)[0], lam, "closed-form"))
    _certify_grid(batch)

    # scalar quadratic / absolute / hinge closed forms
    for sub, (tag, make) in enumerate((
        ("quadratic", lambda r: QuadraticLoss([float(r.uniform(0.3, 1.5))],
                                              float(r.uniform(-1.2, 1.2)))),
        ("absolute", lambda r: AbsoluteLoss([float(r.uniform(0.3, 1.5))],
                                            float(r.uniform(-1.0, 1.0)))),
        ("hinge", lambda r: HingeLoss([float(r.uniform(0.3, 1.5))],
                                      float(r.choice([-1.0, 1.0])))),
    )):
        rng = _seeded(9, 3, sub)
        batch = []
        for i in range(n):
            lam = float(rng.uniform(0.25, 6.0))
            if tag == "quadratic" and i % 10 == 0:
                lam = 0.0
            batch.append((make(rng), INTERVAL,
                          INTERVAL.domain.sample(rng, 1)[0], lam, "closed-form"))
        _certify_grid(batch)

    # composite: zero certificate and the proximal-gradient fallback, scalar
    rng = _seeded(9, 4)
    batch = []
    for i in range(n):
        a = float(rng.uniform(0.4, 1.5))
        y = float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1.0, 1.0]))
        x_t = wide.domain.sample(rng, 1)[0]
        if i % 2 == 0:
            w = 1.2 * abs(a * y) + 0.05
            batch.append((CompositeLoss(QuadraticLoss([a], y), w),
                          wide, x_t, 0.0, "closed-form"))
        else:
            w = 0.5 * abs(a * y)  # below the zero certificate by construction
            batch.append((CompositeLoss(QuadraticLoss([a], y), w),
                          wide, x_t, 0.0, "numeric-descent"))
    _certify_grid(batch)

    # composite dual bisection on a two-axis box; draws whose soft-threshold
    # point leaves the box take the fallback route and are redrawn
    box2 = euclidean_geometry(Box([-2.0, -2.0], [2.0, 2.0]))
    rng = _seeded(9, 5)
    batch = []
    while len(batch) < n:
        a = rng.normal(size=2)
        a /= max(1.0, float(np.linalg.norm(a)))
        loss = CompositeLoss(QuadraticLoss(a, float(rng.uniform(-1.2, 1.2))),
                             float(rng.uniform(0.05, 0.6)))
        x_t = rng.uniform(-1.2, 1.2, size=2)
        lam = float(rng.uniform(2.0, 6.0))
        if implicit_update(loss, box2, x_t, lam).solver != "dual-bisection":
            continue
        batch.append((loss, box2, x_t, lam, "dual-bisection"))
    _certify_grid(batch, budget=300)

    # boundary-active quadratic: the projected descent fallback
    rng = _seeded(9, 6)
    batch = []
    while len(batch) < n:
        a = rng.normal(size=2)
        a /= float(np.linalg.norm(a))
        x_t = rng.uniform(-1.5, 1.5, size=2)
        lam = float(rng.uniform(1.5, 3.0))
        na2 = float(a @ a)
        # aim the unconstrained prox step well outside the box
        y = float(a @ x_t) + float(rng.choice([-1.0, 1.0])) * (lam + na2) * 3.0
        loss = QuadraticLoss(a, y)
        if implicit_update(loss, box2, x_t, lam).solver != "numeric-descent":
            continue
        batch.append((loss, box2, x_t, lam, "numeric-descent"))
    _certify_grid(batch, budget=300)

    # analytic leg: mixed interior/boundary quadratics against the vectorized
    # descent oracle, objective agreement at the documented tolerance
    rng = _seeded(9, 7)
    A = rng.normal(size=(n, 2))
    A /= np.maximum(1.0, np.linalg.norm(A, axis=1, keepdims=True))
    Y = rng.uniform(-1.5, 1.5, size=n)
    X0 = rng.uniform(-2.0, 2.0, size=(n, 2))
    LAM = rng.uniform(1.5, 6.0, size=n)
    oracle_pts = oracle_descent_batch(A, Y, X0, LAM, -2.0, 2.0, steps=50_000)
    for i in range(n):
        loss = QuadraticLoss(A[i], float(Y[i]))
        res = implicit_update(loss, box2, X0[i], float(LAM[i]))
        f_impl = prox_objective(loss, box2, X0[i], float(LAM[i]), res.x_next)
        f_ora = prox_objective(loss, box2, X0[i], float(LAM[i]), oracle_pts[i])
        assert abs(f_impl - f_ora) <= ANALYTIC_TOL
    print("criterion 09 prox certification: PASS")


# ---------------------------------------------------------------------------
# 10-12: combiners
# ---------------------------------------------------------------------------


def _interval_scaffold(horizon, hi):
    def factory(_iv):
        return DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=INTERVAL.diameter_sq))
    return Scaffold(factory, horizon, LossRange(0.0, hi))


def test_criterion_10_two_learner_mixture():
    # mixture of the covering scaffold (candidate) and greedy (benchmark) on
    # targets that jump on S rounds; both realized-K inequalities and the
    # combined drift bound hold per run
    T = 128
    two_ln2 = 2.0 * math.log(2.0)
    runs = [(s, seed) for s in (1, 5, 20) for seed in range(34)][:100]
    for shifts, seed in runs:
        rng = _seeded(10, shifts, seed)
        jumps = np.sort(rng.choice(np.arange(1, T), size=shifts, replace=False))
        c = np.empty(T)
        c[:] = rng.uniform(-0.29, 0.29)
        for t in jumps:
            c[t:] = rng.uniform(-0.29, 0.29)
        losses = [QuadraticLoss([1.0], float(ci)) for ci in c]
        comb = ABProd(_interval_scaffold(T, 1.0), DynamicIOMD(INTERVAL, GreedySchedule()),
                      LossRange(0.0, 1.0))
        vals, rows = _run(comb, losses)
        p = _col(rows, "p_a")
        la, lb, r = _col(rows, "loss_a"), _col(rows, "loss_b"), _col(rows, "r")
        k = rows[-1]["k_acc"]
        mix = float(np.sum(p * la + (1.0 - p) * lb))
        _ok(mix - float(np.sum(lb)), two_ln2 + 2.0 * math.log(k))
        _ok(mix - float(np.sum(la)),
            two_ln2 + (2.0 + math.log(k)) * math.sqrt(1.0 + float(r @ r)))
        vt = temporal_variability(losses, INTERVAL.domain).signed
        # comparators sit on the per-round minimizers, so regret is the value sum
        _ok(float(np.sum(vals)), vt + two_ln2 + 2.0 * math.log(k) + 2.0)
    print("criterion 10 two-learner mixture: PASS")


def test_criterion_11_many_expert_mixture():
    # per-expert certificates across scripted loss matrices
    T = 200
    for run in range(100):
        d = (2, 5, 20)[run % 3]
        rng = _seeded(11, run)
        if run % 2 == 0:
            G = rng.uniform(0.0, 1.0, size=(T, d))
        else:
            # piecewise leader: one cheap expert per block
            G = rng.uniform(0.5, 1.0, size=(T, d))
            block = max(1, T // (1 + run % 5))
            for t in range(T):
                G[t, (t // block) % d] = rng.uniform(0.0, 0.2)
        comb = AdaptMLProd(d, LossRange(0.0, 1.0))
        lhat_sum, weighted_rsq = 0.0, np.zeros(d)
        for t in range(T):
            p = comb.weights()
            lhat = float(p @ G[t])
            lhat_sum += lhat
            eta_old = comb.eta.copy()
            comb.update(LinearLoss(G[t]))
            weighted_rsq += eta_old * (lhat - G[t]) ** 2
        totals = G.sum(axis=0)
        for i in range(d):
            rhs = (2.0 * math.log(d) + float(weighted_rsq[i])
                   + math.log(comb.k_acc) / float(comb.eta[i]))
            _ok(lhat_sum - float(totals[i]), rhs)
    print("criterion 11 many-expert mixture: PASS")


def test_criterion_12_interval_breaking():
    # every piece's path within twice the diameter, piece count within
    # (C + D)/D, and the pieces conserve the total path
    rng = _seeded(12)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        norm = "l1" if rng.random() < 0.5 else "l2"
        diameter = float(rng.uniform(0.5, 3.0))
        T = int(rng.integers(2, 60))
        pts = [rng.uniform(-1.0, 1.0, size=dim)]
        for _ in range(T - 1):
            step = rng.uniform(-1.0, 1.0, size=dim)
            scale = np.abs(step).sum() if norm == "l1" else np.linalg.norm(step)
            if scale > diameter:
                step *= diameter / (scale * (1.0 + 1e-12))
            pts.append(pts[-1] + step)
        pieces = break_by_path_length(pts, diameter, norm=norm)
        diffs = np.diff(np.asarray(pts), axis=0)
        total = (np.abs(diffs).sum() if norm == "l1"
                 else np.linalg.norm(diffs, axis=1).sum())
        assert all(p.path <= 2.0 * diameter + 1e-9 for p in pieces)
        assert len(pieces) <= (total + diameter) / diameter + 1e-9
        assert sum(p.path for p in pieces) == pytest.approx(float(total), abs=1e-9)
    print("criterion 12 interval breaking: PASS")


# ---------------------------------------------------------------------------
# 13-14: scaling trend and replay
# ---------------------------------------------------------------------------


def test_criterion_13_scaffold_scaling_trend():
    # regret / sqrt(T D (C_T + D)) stays below a constant fitted on the
    # smallest horizon; no absolute threshold
    D = math.sqrt(INTERVAL.diameter_sq)
    horizons = (256, 1024, 4096)
    ratios = {}
    for drift in (0.0, 0.005, 0.05):
        for T in horizons:
            env = DriftingQuadraticEnv(T, seed=13, tau=drift * T)
            scaffold = _interval_scaffold(T, 2.0)
            losses, us = env.losses(), env.comparators()
            vals, _ = _run(scaffold, losses)
            ct = float(np.sum(np.abs(np.diff(us, axis=0))))
            ratios[(drift, T)] = (_regret(vals, losses, us)
                                  / math.sqrt(T * D * (ct + D)))
    fitted = 1.5 * max(r for (_, T), r in ratios.items() if T == horizons[0])
    for key, r in ratios.items():
        assert r <= fitted, (key, r, fitted)
    print("criterion 13 scaffold scaling trend: PASS")


def test_criterion_14_determinism_and_replay(tmp_path):
    config = {
        "environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}},
        "T": 40,
        "seeds": [0, 1],
        "algorithm": {"name": "diomd", "schedule": "adaptive", "tau": 2.0},
    }
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output-dir", str(out_a)]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # replaying a trace rebuilds the identical report
    redo = tmp_path / "redo"
    trace = next(out_a.glob("*.trace.jsonl"))
    assert main(["verify", str(trace), "--output-dir", str(redo)]) == 0
    report = trace.name.replace(".trace.jsonl", ".report.json")
    assert (redo / report).read_bytes() == (out_a / report).read_bytes()

    # scheduling order across the seed grid cannot change any output byte
    out_1, out_2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["run", str(cfg), "--output-dir", str(out_1), "--threads", "1"]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out_2), "--threads", "2"]) == 0
    for name in names:
        assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()
    print("criterion 14 determinism and replay: PASS")
