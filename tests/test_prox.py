import math

import numpy as np
import pytest
from _oracles import prox_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.geometry import (
    Ball,
    Box,
    ClippedSimplex,
    GeometryError,
    Interval,
    entropy_geometry,
    euclidean_geometry,
)
from driftlab.losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    QuadraticLoss,
)
from driftlab.prox import (
    SolverError,
    _closed_form_step,
    _finish,
    _kinked_euclidean,
    compute_delta,
    implicit_update,
    implicit_update_lanes,
    prox_objective,
)

INTERVAL = euclidean_geometry(Interval(-1.0, 1.0))
WIDE = euclidean_geometry(Box([-3.0, -3.0], [3.0, 3.0]))


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------


def test_quadratic_interval_halfway_step():
    res = implicit_update(QuadraticLoss([1.0], 1.0), INTERVAL, [0.0], 1.0)
    np.testing.assert_allclose(res.x_next, [0.5], atol=1e-12)
    assert res.solver == "closed-form"
    assert res.delta == pytest.approx(0.25, abs=1e-12)  # 0.5 - 0.125 - 0.125


def test_infinite_lam_freezes_iterate():
    geom = entropy_geometry(ClippedSimplex(2, 0.2))
    res = implicit_update(LinearLoss([1.0, 0.0]), geom, [0.5, 0.5], math.inf)
    np.testing.assert_array_equal(res.x_next, [0.5, 0.5])
    assert res.delta == 0.0
    # huge finite lam converges to the same point
    res = implicit_update(LinearLoss([1.0, 0.0]), geom, [0.5, 0.5], 1e12)
    np.testing.assert_allclose(res.x_next, [0.5, 0.5], atol=1e-9)


def test_composite_dominant_l1_keeps_zero():
    loss = CompositeLoss(QuadraticLoss([1.0, 1.0], 2.0), 10.0)
    res = implicit_update(loss, WIDE, [0.0, 0.0], 1.0)
    np.testing.assert_allclose(res.x_next, [0.0, 0.0], atol=1e-10)
    oracle = prox_oracle(loss, WIDE, [0.0, 0.0], 1.0, budget=300)
    np.testing.assert_allclose(oracle, [0.0, 0.0], atol=1e-3)


def test_oracle_matches_pinned_points():
    got = prox_oracle(QuadraticLoss([1.0], 1.0), INTERVAL, [0.0], 1.0)
    np.testing.assert_allclose(got, [0.5], atol=1e-4)
    got = prox_oracle(QuadraticLoss([1.0], 2.0), INTERVAL, [0.0], 0.0)
    np.testing.assert_allclose(got, [1.0], atol=1e-4)


def test_absolute_capped_step():
    res = implicit_update(AbsoluteLoss([1.0], 0.0), INTERVAL, [1.0], 2.0)
    np.testing.assert_allclose(res.x_next, [0.5], atol=1e-12)
    got = prox_oracle(AbsoluteLoss([1.0], 0.0), INTERVAL, [1.0], 2.0)
    np.testing.assert_allclose(got, [0.5], atol=1e-4)
    # small lam: the step reaches the zero-residual point instead
    res = implicit_update(AbsoluteLoss([1.0], 0.0), INTERVAL, [1.0], 0.5)
    np.testing.assert_allclose(res.x_next, [0.0], atol=1e-12)


def test_compute_delta_examples():
    loss = QuadraticLoss([1.0], 1.0)
    assert compute_delta(loss, INTERVAL, [0.3], [0.3], 2.0) == 0.0
    assert compute_delta(loss, INTERVAL, [0.0], [0.5], 1.0) == pytest.approx(0.25, abs=1e-12)
    res = implicit_update(loss, INTERVAL, [0.7], 0.0)
    assert res.delta >= 0.0
    np.testing.assert_allclose(res.x_next, [1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# route behavior
# ---------------------------------------------------------------------------


def test_linear_euclidean_routes():
    geom = euclidean_geometry(Box([0.0, 0.0], [1.0, 1.0]))
    res = implicit_update(LinearLoss([1.0, -1.0]), geom, [0.5, 0.5], 2.0)
    np.testing.assert_allclose(res.x_next, [0.0, 1.0], atol=1e-12)
    # lam = 0 heads to the minimizing corner; zero slope keeps the anchor
    res = implicit_update(LinearLoss([1.0, 0.0]), geom, [0.5, 0.25], 0.0)
    np.testing.assert_allclose(res.x_next, [0.0, 0.25], atol=1e-12)

    ball = euclidean_geometry(Ball([0.0, 0.0], 1.0))
    res = implicit_update(LinearLoss([3.0, 4.0]), ball, [0.0, 0.0], 0.0)
    np.testing.assert_allclose(res.x_next, [-0.6, -0.8], atol=1e-12)


def test_linear_entropy_pure_minimization():
    dom = ClippedSimplex(4, 0.2)
    geom = entropy_geometry(dom)
    res = implicit_update(LinearLoss([0.5, -0.25, 0.1, 0.0]), geom, np.full(4, 0.25), 0.0)
    x = res.x_next
    assert x[1] == pytest.approx(1.0 - 3 * dom.floor, abs=1e-12)
    assert np.all(np.delete(x, 1) == dom.floor)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g, x, lam, error", [
    ([0.3, 0.1, 0.6, 0.2], [0.25, np.nan, 0.25, 0.25], 1.0, GeometryError),
    ([0.3, 0.1, 0.6, 0.2], [0.5, 0.5, 0.5, 0.5], 1.0, SolverError),
    ([0.3, 0.1, 0.6, 0.2], [0.25] * 4, -1.0, SolverError),
    ([0.0, 800.0, 1.0, 2.0], [0.25] * 4, 1.0, GeometryError),
    ([1.0, 2.0, 3.0, 4.0], [0.25] * 4, 5e-324, GeometryError),
    (1e12 + np.arange(4.0), [0.25] * 4, 1e6, SolverError),
], ids=["nan-anchor", "anchor-off-the-simplex", "negative-lam",
        "weight-underflows-to-zero", "nan-weights", "delta-below-floor"])
def test_entropy_lanes_raise_what_the_one_lane_update_raises(g, x, lam, error):
    geom = entropy_geometry(ClippedSimplex(4, 0.2))
    loss = LinearLoss(g)
    with pytest.raises(error):
        implicit_update(loss, geom, x, lam)
    # the faulty lane between a healthy stepping lane and a lam = 0 lane
    X = np.array([np.full(4, 0.25), x, [0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(error):
        implicit_update_lanes(loss, geom, X, np.array([100.0, lam, 0.0]))
    implicit_update_lanes(loss, geom, X[[0, 2]], np.array([100.0, 0.0]))


def test_hinge_passive_aggressive_step():
    # margin violated: step min(1/lam, gap/||a||^2) toward the label
    loss = HingeLoss([2.0], 1.0)
    res = implicit_update(loss, INTERVAL, [0.25], 4.0)
    # gap = 0.5, ||a||^2 = 4, step = min(0.25, 0.125) = 0.125 -> x = 0.5
    np.testing.assert_allclose(res.x_next, [0.5], atol=1e-12)
    assert loss.value(res.x_next) == pytest.approx(0.0, abs=1e-12)
    # satisfied margin: no movement
    res = implicit_update(loss, INTERVAL, [0.6], 4.0)
    np.testing.assert_allclose(res.x_next, [0.6], atol=1e-12)


def test_composite_bisection_reports_certificate():
    loss = CompositeLoss(QuadraticLoss([1.0, 0.5], 1.0), 0.05)
    res = implicit_update(loss, WIDE, [0.2, -0.4], 0.8)
    assert res.solver == "dual-bisection"
    assert res.residual <= 1e-10
    oracle = prox_oracle(loss, WIDE, [0.2, -0.4], 0.8, budget=500)
    f_solver = prox_objective(loss, WIDE, [0.2, -0.4], 0.8, res.x_next)
    f_oracle = prox_objective(loss, WIDE, [0.2, -0.4], 0.8, oracle)
    assert f_solver <= f_oracle + 1e-8


def test_composite_lam_zero_routes():
    # strong penalty: zero certificate applies
    loss = CompositeLoss(QuadraticLoss([1.0, 1.0], 0.5), 2.0)
    res = implicit_update(loss, WIDE, [0.3, 0.3], 0.0)
    np.testing.assert_allclose(res.x_next, [0.0, 0.0], atol=1e-12)
    assert res.solver == "closed-form"
    # weak penalty: numeric route, certified against the grid oracle
    loss = CompositeLoss(QuadraticLoss([1.0, 1.0], 0.5), 0.01)
    res = implicit_update(loss, WIDE, [0.3, 0.3], 0.0)
    oracle = prox_oracle(loss, WIDE, [0.3, 0.3], 0.0, budget=500)
    f_got = prox_objective(loss, WIDE, [0.3, 0.3], 0.0, res.x_next)
    f_ora = prox_objective(loss, WIDE, [0.3, 0.3], 0.0, oracle)
    assert f_got <= f_ora + 1e-8


def test_multidim_quadratic_on_box_uses_descent_when_clipped():
    # interior solution stays closed-form; boundary-active needs descent
    geom = euclidean_geometry(Box([-0.2, -0.2], [0.2, 0.2]))
    loss = QuadraticLoss([1.0, 1.0], 3.0)
    res = implicit_update(loss, geom, [0.0, 0.0], 0.5)
    assert res.solver == "numeric-descent"
    oracle = prox_oracle(loss, geom, [0.0, 0.0], 0.5, budget=500)
    f_got = prox_objective(loss, geom, [0.0, 0.0], 0.5, res.x_next)
    f_ora = prox_objective(loss, geom, [0.0, 0.0], 0.5, oracle)
    assert f_got <= f_ora + 1e-6


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_delta_floor_across_routes_fuzz():
    rng = np.random.Generator(np.random.PCG64(2))
    geoms = [INTERVAL, WIDE, euclidean_geometry(Ball([0.0, 0.0], 1.5))]
    for _ in range(250):
        geom = geoms[rng.integers(len(geoms))]
        d = geom.domain.dim
        a = rng.normal(size=d)
        y = float(rng.uniform(-1.5, 1.5))
        loss = [
            LinearLoss(a),
            QuadraticLoss(a, y),
            AbsoluteLoss(a, y),
            HingeLoss(a, float(rng.choice([-1.0, 1.0]))),
            CompositeLoss(QuadraticLoss(a, y), float(rng.uniform(0, 0.5))),
        ][rng.integers(5)]
        x_t = geom.domain.sample(rng, 1)[0]
        lam = float(rng.choice([0.0, rng.uniform(0.01, 20.0)]))
        res = implicit_update(loss, geom, x_t, lam)
        assert res.delta >= -1e-8
        assert geom.domain.contains(res.x_next, tol=1e-7)


def test_delta_floor_entropy_fuzz():
    rng = np.random.Generator(np.random.PCG64(4))
    dom = ClippedSimplex(5, 0.15)
    geom = entropy_geometry(dom)
    for _ in range(200):
        loss = LinearLoss(rng.uniform(-1, 1, size=5))
        x_t = dom.sample(rng, 1)[0]
        lam = float(rng.choice([0.0, rng.uniform(0.05, 30.0)]))
        res = implicit_update(loss, geom, x_t, lam)
        assert res.delta >= -1e-8
        assert dom.contains(res.x_next)


def test_lam_contraction_on_closed_form_routes():
    # larger lam never moves the iterate farther from the anchor
    rng = np.random.Generator(np.random.PCG64(6))
    lams = [0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
    for _ in range(60):
        a = rng.normal(size=1)
        y = float(rng.uniform(-1, 1))
        x_t = INTERVAL.domain.sample(rng, 1)[0]
        for loss in (QuadraticLoss(a, y), AbsoluteLoss(a, y),
                     HingeLoss(a, float(rng.choice([-1.0, 1.0])))):
            moves = [float(np.linalg.norm(implicit_update(loss, INTERVAL, x_t, lam).x_next - x_t))
                     for lam in lams]
            assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(moves, moves[1:]))


def test_solver_matches_oracle_small_batches():
    # spot sample of the certification sweep (full sweep in acceptance)
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(60):
        a = rng.normal(size=1)
        if abs(a[0]) < 0.1:
            a[0] = 0.5
        y = float(rng.uniform(-1, 1))
        lam = float(rng.uniform(0.0, 5.0))
        x_t = INTERVAL.domain.sample(rng, 1)[0]
        for loss in (QuadraticLoss(a, y), AbsoluteLoss(a, y),
                     HingeLoss(a, float(rng.choice([-1.0, 1.0])))):
            res = implicit_update(loss, INTERVAL, x_t, lam)
            oracle = prox_oracle(loss, INTERVAL, x_t, lam, budget=400)
            f_got = prox_objective(loss, INTERVAL, x_t, lam, res.x_next)
            f_ora = prox_objective(loss, INTERVAL, x_t, lam, oracle)
            assert f_got <= f_ora + 1e-8


def test_entropy_solver_matches_oracle():
    rng = np.random.Generator(np.random.PCG64(10))
    dom = ClippedSimplex(3, 0.3)
    geom = entropy_geometry(dom)
    for _ in range(40):
        loss = LinearLoss(rng.uniform(-1, 1, size=3))
        x_t = dom.sample(rng, 1)[0]
        lam = float(rng.uniform(0.2, 10.0))
        res = implicit_update(loss, geom, x_t, lam)
        oracle = prox_oracle(loss, geom, x_t, lam, budget=300)
        f_got = prox_objective(loss, geom, x_t, lam, res.x_next)
        f_ora = prox_objective(loss, geom, x_t, lam, oracle)
        assert f_got <= f_ora + 1e-6


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_entropy_rejects_nonlinear_losses():
    geom = entropy_geometry(ClippedSimplex(3, 0.3))
    with pytest.raises(SolverError):
        implicit_update(QuadraticLoss([1.0, 0.0, 0.0], 1.0), geom, np.full(3, 1 / 3), 1.0)


def test_anchor_outside_domain_rejected():
    with pytest.raises(SolverError):
        implicit_update(QuadraticLoss([1.0], 0.0), INTERVAL, [2.0], 1.0)


def test_negative_lam_rejected():
    with pytest.raises(SolverError):
        implicit_update(QuadraticLoss([1.0], 0.0), INTERVAL, [0.0], -0.5)


# ---------------------------------------------------------------------------
# the shared absolute and hinge route against the routes it replaced
# ---------------------------------------------------------------------------


def _former_absolute(loss, geom, x_t, lam):
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


def _former_hinge(loss, geom, x_t, lam):
    a, y = loss.a, loss.y
    na2 = float(a @ a)
    gap = loss._value(x_t)
    if na2 == 0.0 or gap == 0.0:
        return _finish(loss, geom, x_t, x_t.copy(), lam, "closed-form", 0.0)
    step = gap / na2 if lam == 0.0 else min(1.0 / lam, gap / na2)
    x = x_t + step * y * a
    return _closed_form_step(loss, geom, x_t, x, lam)


KINKED_GEOMETRIES = [INTERVAL, euclidean_geometry(Interval(0.0, 0.3)),
                     euclidean_geometry(Box([-40.0, -40.0], [40.0, 40.0])),
                     euclidean_geometry(Ball([0.5, -0.5, 1.0], 60.0))]


@st.composite
def _kinked_steps(draw):
    """(loss, geom, x_t, lam): an absolute or hinge step from a point of the
    domain (its midpoint, near it or on an edge), at zero, small and large
    weights, with zero slopes and anchors on the kink."""
    geom = draw(st.sampled_from(KINKED_GEOMETRIES))
    d = geom.domain.dim
    x_t = geom.project(geom.domain.midpoint() + draw(st.sampled_from([0.0, 0.1, -0.25, 5.0])))
    coord = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)
    a = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    lam = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, 1e6]))
    if draw(st.booleans()):
        return HingeLoss(a, draw(st.sampled_from([1.0, -1.0]))), geom, x_t, lam
    y = draw(st.sampled_from([float(a @ x_t), 0.0, -0.0]) | st.floats(-3.0, 3.0))
    return AbsoluteLoss(a, y), geom, x_t, lam


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_kinked_steps())
def test_kinked_route_equals_the_former_routes(case):
    loss, geom, x_t, lam = case
    former = _former_hinge if isinstance(loss, HingeLoss) else _former_absolute
    new, old = _kinked_euclidean(loss, geom, x_t, lam), former(loss, geom, x_t, lam)
    assert new.x_next.tobytes() == old.x_next.tobytes()
    assert (new.delta.hex(), new.solver) == (old.delta.hex(), old.solver)
