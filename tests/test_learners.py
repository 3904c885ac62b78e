import math

import numpy as np
import pytest

from driftlab.envs import make_environment
from driftlab.geometry import (
    ClippedSimplex,
    GeometryError,
    Interval,
    entropy_geometry,
    euclidean_geometry,
)
from driftlab.learners import (
    OGD,
    AdaptiveSchedule,
    ConfigError,
    DoublingSchedule,
    DynamicIOMD,
    FixedSchedule,
    GreedySchedule,
    fixed_schedule,
    update_many,
)
from driftlab.losses import LinearLoss, QuadraticLoss
from driftlab.prox import SolverError

INTERVAL = euclidean_geometry(Interval(-1.0, 1.0))

# interval of width sqrt(2) has unit bregman diameter, which makes the
# doubling thresholds Q_i = sqrt(2) * 2^i easy to reason about
UNIT_D = euclidean_geometry(Interval(-math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0))


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


def test_greedy_jumps_to_interior_minimizer():
    learner = DynamicIOMD(INTERVAL, GreedySchedule())
    learner.update(QuadraticLoss([1.0], 0.3))
    np.testing.assert_allclose(learner.play(), [0.3], atol=1e-12)


def test_greedy_linear_on_simplex_goes_to_vertex():
    dom = ClippedSimplex(2, 0.2)
    learner = DynamicIOMD(entropy_geometry(dom), GreedySchedule())
    learner.update(LinearLoss([1.0, 0.0]))
    x = learner.play()
    assert x[1] == pytest.approx(1.0 - dom.floor, abs=1e-12)
    assert x[0] == pytest.approx(dom.floor, abs=1e-12)


def test_greedy_repeated_loss_zero_regret_after_first_round():
    learner = DynamicIOMD(INTERVAL, GreedySchedule())
    loss = QuadraticLoss([1.0], 0.4)
    best = loss.value([0.4])
    rows = [learner.update(loss) for _ in range(5)]
    assert rows[0]["value"] > best
    for row in rows[1:]:
        assert row["value"] == pytest.approx(best, abs=1e-15)


# ---------------------------------------------------------------------------
# diomd
# ---------------------------------------------------------------------------


def test_diomd_adaptive_first_round_is_pure_minimization():
    learner = DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=1.0))
    row = learner.update(QuadraticLoss([1.0], 0.7))
    assert row["lam"] == 0.0
    np.testing.assert_allclose(learner.play(), [0.7], atol=1e-12)


def test_diomd_adaptive_two_round_hand_roll():
    loss = QuadraticLoss([1.0], 1.0)
    learner = DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=1.0))
    row1 = learner.update(loss)
    np.testing.assert_allclose(learner.play(), [1.0], atol=1e-15)
    assert row1["delta"] == pytest.approx(0.5, abs=1e-15)
    assert learner.lam[0] == pytest.approx(0.5, abs=1e-15)
    row2 = learner.update(loss)
    np.testing.assert_allclose(learner.play(), [1.0], atol=1e-15)
    assert row2["delta"] == pytest.approx(0.0, abs=1e-15)
    assert learner.lam[0] == pytest.approx(0.5, abs=1e-15)


def test_diomd_fixed_linear_equals_projected_gradient():
    sched = fixed_schedule("constant", 0.25, 10)
    learner = DynamicIOMD(INTERVAL, sched, x0=[0.5])
    ogd = OGD(INTERVAL, sched.etas, x0=[0.5])
    for g in (0.8, -1.3, 0.2, 2.5):
        learner.update(LinearLoss([g]))
        ogd.update(LinearLoss([g]))
        np.testing.assert_array_equal(learner.play(), ogd.play())


def test_diomd_adaptive_lam_never_decreases():
    rng = np.random.Generator(np.random.PCG64(12))
    learner = DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=2.0))
    prev = 0.0
    for _ in range(200):
        learner.update(QuadraticLoss([1.0], float(rng.uniform(-1, 1))))
        assert learner.lam[0] >= prev
        prev = learner.lam[0]


def test_diomd_adaptive_lam_cap():
    # lam_{T+1} <= sqrt((2 D^2 / beta^4 + 1 / beta^2) * sum ||g||^2)
    rng = np.random.Generator(np.random.PCG64(14))
    geom = INTERVAL
    beta_sq = geom.diameter_sq
    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq=beta_sq))
    gsq = 0.0
    for _ in range(300):
        loss = QuadraticLoss([1.0], float(rng.uniform(-1, 1)))
        g = loss.subgradient(learner.play())
        gsq += float(g @ g)
        learner.update(loss)
    cap = math.sqrt((2 * geom.diameter_sq / beta_sq**2 + 1 / beta_sq) * gsq)
    assert learner.lam[0] <= cap + 1e-9


def test_fixed_schedule_validation_and_exhaustion():
    with pytest.raises(ConfigError):
        FixedSchedule(np.array([0.1, 0.2]))  # increasing
    with pytest.raises(ConfigError):
        FixedSchedule(np.array([0.1, 0.0]))  # non-positive
    with pytest.raises(ConfigError):
        fixed_schedule("cubic", 1.0, 5)
    learner = DynamicIOMD(INTERVAL, fixed_schedule("inv_sqrt", 1.0, 2))
    learner.update(QuadraticLoss([1.0], 0.1))
    learner.update(QuadraticLoss([1.0], 0.2))
    with pytest.raises(ConfigError):
        learner.update(QuadraticLoss([1.0], 0.3))


def test_fixed_schedule_shapes():
    t = np.arange(1.0, 6.0)
    np.testing.assert_allclose(fixed_schedule("inv_t", 2.0, 5).etas, 2.0 / t)
    np.testing.assert_allclose(fixed_schedule("inv_sqrt", 1.0, 5).etas, 1.0 / np.sqrt(t))
    assert fixed_schedule("constant", 0.3, 5).lam(4) == pytest.approx(1.0 / 0.3)


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------


def test_doubling_without_drift_matches_adaptive_diomd():
    rng = np.random.Generator(np.random.PCG64(16))
    q0 = math.sqrt(2.0) * math.sqrt(UNIT_D.diameter_sq)
    beta_sq = UNIT_D.diameter_sq + UNIT_D.gamma * q0  # epoch-0 beta^2, bitwise
    doubling = DynamicIOMD(UNIT_D, DoublingSchedule())
    plain = DynamicIOMD(UNIT_D, AdaptiveSchedule(beta_sq=beta_sq))
    assert doubling.beta_sq[0] == beta_sq
    for _ in range(100):
        loss = QuadraticLoss([1.0], float(rng.uniform(-0.6, 0.6)))
        doubling.update(loss, 0.0)
        plain.update(loss)
        np.testing.assert_array_equal(doubling.play(), plain.play())
    assert doubling.epoch[0] == 0


def test_doubling_epoch_count_bound():
    # total path 5 * sqrt(2) with D = 1: N <= log2(5 + 1) < 3
    rng = np.random.Generator(np.random.PCG64(18))
    learner = DynamicIOMD(UNIT_D, DoublingSchedule())
    T = 400
    inc = 5.0 * math.sqrt(2.0) / T
    for _ in range(T):
        learner.update(QuadraticLoss([1.0], float(rng.uniform(-0.6, 0.6))), inc)
    assert learner.epoch[0] <= 2
    assert learner.epoch[0] >= 1  # budget sqrt(2) is exceeded well before T


def test_doubling_triggering_round_freezes_iterate():
    learner = DynamicIOMD(UNIT_D, DoublingSchedule())
    learner.update(QuadraticLoss([1.0], 0.5), 0.0)
    before = learner.play().copy()
    row = learner.update(QuadraticLoss([1.0], -0.5), 10.0)  # blows the budget
    assert row["restart"] is True
    assert row["solver"] == "restart"
    assert row["delta"] == 0.0
    np.testing.assert_array_equal(learner.play(), before)
    assert learner.lam[0] == 0.0
    assert learner.epoch[0] == 1
    assert learner.beta_sq[0] == UNIT_D.diameter_sq + UNIT_D.gamma * learner.Q[0]


def test_doubling_threshold_and_beta_follow_epoch():
    learner = DynamicIOMD(UNIT_D, DoublingSchedule())
    for i in range(4):
        assert learner.Q[0] == pytest.approx(math.sqrt(2.0) * 2.0**i, rel=1e-15)
        assert learner.beta_sq[0] == pytest.approx(
            UNIT_D.diameter_sq + UNIT_D.gamma * learner.Q[0], rel=1e-15)
        learner.update(QuadraticLoss([1.0], 0.0), learner.Q[0] + 1.0)


def test_doubling_rejects_unobservable_path():
    learner = DynamicIOMD(UNIT_D, DoublingSchedule())
    with pytest.raises(ConfigError):
        learner.update(QuadraticLoss([1.0], 0.0), None)
    with pytest.raises(ConfigError):
        learner.update(QuadraticLoss([1.0], 0.0), -0.1)


# ---------------------------------------------------------------------------
# ogd
# ---------------------------------------------------------------------------


def test_ogd_zero_gradient_keeps_iterate():
    learner = OGD(INTERVAL, [0.5] * 5, x0=[0.2])
    learner.update(QuadraticLoss([1.0], 0.2))  # residual zero at the play
    np.testing.assert_array_equal(learner.play(), [0.2])


def test_ogd_quadratic_halfway_step():
    learner = OGD(INTERVAL, [0.5] * 5, x0=[0.0])
    learner.update(QuadraticLoss([1.0], 1.0))
    np.testing.assert_allclose(learner.play(), [0.5], atol=1e-15)


def test_ogd_requires_euclidean_and_positive_steps():
    with pytest.raises(ConfigError):
        OGD(entropy_geometry(ClippedSimplex(2, 0.5)), [0.1])
    with pytest.raises(ConfigError):
        OGD(INTERVAL, [0.1, -0.1])


def test_ogd_schedule_exhaustion():
    learner = OGD(INTERVAL, [0.5], x0=[0.0])
    learner.update(QuadraticLoss([1.0], 1.0))
    with pytest.raises(ConfigError):
        learner.update(QuadraticLoss([1.0], 1.0))


# ---------------------------------------------------------------------------
# start point
# ---------------------------------------------------------------------------


def _learner_factories():
    sched = AdaptiveSchedule(beta_sq=1.0)
    return {
        "greedy": lambda x0: DynamicIOMD(INTERVAL, GreedySchedule(), x0=x0),
        "diomd": lambda x0: DynamicIOMD(INTERVAL, sched, x0=x0),
        "diomd-doubling": lambda x0: DynamicIOMD(INTERVAL, DoublingSchedule(), x0=x0),
        "ogd": lambda x0: OGD(INTERVAL, [0.5] * 4, x0=x0),
    }


@pytest.mark.parametrize("name", sorted(_learner_factories()))
def test_start_point_is_checked_when_the_learner_is_built(name):
    make = _learner_factories()[name]
    for bad in ([3.0], [float("nan")], [0.1, 0.2], [[0.1]], "abc"):
        with pytest.raises(ConfigError, match="algorithm.x0"):
            make(bad)
    learner = make([0.25])
    assert learner.play().dtype == np.float64 and learner.play().tolist() == [0.25]
    assert make(None).play().tolist() == [0.0]  # the domain center


# ---------------------------------------------------------------------------
# stepping many learners on one loss
# ---------------------------------------------------------------------------


def _assert_same_state(batched, twins):
    for a, b in zip(batched, twins):
        assert np.array_equal(a.x, b.x)
        assert a.x.dtype == np.float64 and a.x.shape == b.x.shape
        assert a.t == b.t
        # lane 0's weight and progress sum; OGD has neither
        assert getattr(a, "lam", [None])[0] == getattr(b, "lam", [None])[0]
        assert getattr(a, "delta_sum", [None])[0] == getattr(b, "delta_sum", [None])[0]


def test_update_many_equals_one_at_a_time_updates_bit_for_bit():
    # adaptive entropy learners born at different rounds, as scaffold wakes
    # them: each birth round is a lam = 0 step, and the steps after it push
    # coordinates under the floor of the clipped simplex
    T, d = 200, 8
    geom = entropy_geometry(ClippedSimplex(d, d / T))
    env = make_environment("shifting-experts", T, 3, d=d, shifts=6)
    births = {1: 2, 2: 1, 5: 1, 33: 1, 64: 2, 150: 1, 200: 1}
    batched, twins = [], []
    zero_lam_steps = floored_steps = 0
    for t in range(1, T + 1):
        for i in range(births.get(t, 0)):
            sched = AdaptiveSchedule(beta_sq=[1.0, math.log(T)][(t + i) % 2])
            batched.append(DynamicIOMD(geom, sched))
            twins.append(DynamicIOMD(geom, sched))
        loss = env.loss(t)
        stepped = [learner.lam[0] > 0.0 for learner in batched]
        zero_lam_steps += stepped.count(False)
        update_many(batched, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_state(batched, twins)
        floored_steps += sum(bool(np.any(learner.x == geom.domain.floor))
                             for learner, s in zip(batched, stepped) if s)
    assert zero_lam_steps == sum(births.values())
    assert floored_steps > 100


def test_update_many_falls_back_for_other_learners():
    loss = QuadraticLoss([1.0], 0.7)
    make = [
        lambda: OGD(INTERVAL, fixed_schedule("inv_sqrt", 1.0, 20).etas, x0=[-0.5]),
        lambda: OGD(INTERVAL, fixed_schedule("constant", 0.3, 20).etas),
        lambda: DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=2.0)),
        lambda: DynamicIOMD(INTERVAL, fixed_schedule("inv_t", 1.0, 20)),
    ]
    batched = [m() for m in make]
    twins = [m() for m in make]
    for _ in range(20):
        update_many(batched, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_state(batched, twins)
    # entropy learners outside the batched case: a greedy schedule
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    batched = [DynamicIOMD(geom, GreedySchedule()), DynamicIOMD(geom, AdaptiveSchedule(1.0))]
    twins = [DynamicIOMD(geom, GreedySchedule()), DynamicIOMD(geom, AdaptiveSchedule(1.0))]
    for _ in range(5):
        update_many(batched, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_state(batched, twins)


def test_update_many_keeps_the_anchor_of_an_infinite_weight():
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    batched = [DynamicIOMD(geom, AdaptiveSchedule(1.0)) for _ in range(3)]
    twins = [DynamicIOMD(geom, AdaptiveSchedule(1.0)) for _ in range(3)]
    for learners in (batched, twins):
        learners[0].update(loss)
        learners[0].lam = np.array([math.inf])
    update_many(batched, loss)
    for twin in twins:
        twin.update(loss)
    _assert_same_state(batched, twins)
    assert batched[0].lam[0] == math.inf


@pytest.mark.parametrize("poison, error", [
    (lambda l: setattr(l, "x", np.array([[0.5, np.nan, 0.25, 0.25]])), GeometryError),
    (lambda l: setattr(l, "x", np.array([[0.5, 0.5, 0.5, 0.5]])), SolverError),
    (lambda l: setattr(l, "lam", np.array([-1.0])), SolverError),
], ids=["nan-anchor", "anchor-off-the-simplex", "negative-lam"])
def test_update_many_raises_what_update_raises(poison, error):
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    learners = [DynamicIOMD(geom, AdaptiveSchedule(1.0)) for _ in range(3)]
    update_many(learners, loss)
    poison(learners[1])
    with pytest.raises(error):
        learners[1].update(loss)
    with pytest.raises(error):
        update_many(learners, loss)

