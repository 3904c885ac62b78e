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
    _step_rule,
    fixed_schedule,
    put_lane,
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


def _assert_same_lanes(groups, twins):
    """Lane i of the learners ``groups`` holds the state of the one-lane
    learner ``twins[i]``, bit for bit; its round too where its steps read it."""
    lanes = [(group, i) for group in groups for i in range(len(group.x))]
    assert len(lanes) == len(twins)
    for (group, i), twin in zip(lanes, twins):
        assert type(group) is type(twin) and group.x.dtype == np.float64
        assert group.x[i].tobytes() == twin.x[0].tobytes()
        for key in ("lam", "delta_sum", "beta_sq", "epoch", "path_in_epoch", "Q"):
            col = getattr(group, key, None)
            assert (col is None) == (getattr(twin, key, None) is None)
            assert col is None or col[i:i + 1].tobytes() == getattr(twin, key).tobytes()
        if len(group.x) == 1 or _step_rule(group)[-1] is not None:
            assert group.t == twin.t


def _step_all(groups, loss):
    for group in groups:
        group.step(loss, np.zeros(len(group.x)))


def test_put_lane_equals_one_at_a_time_updates_bit_for_bit():
    # adaptive entropy learners born at different rounds, as scaffold's levels
    # are: a birth replaces its lane with a lam = 0 step, and the steps after
    # it push coordinates under the floor of the clipped simplex; every lane
    # is written in place, so the lanes stay one learner
    T, d = 200, 8
    geom = entropy_geometry(ClippedSimplex(d, d / T))
    env = make_environment("shifting-experts", T, 3, d=d, shifts=6)
    groups, twins = [], []
    zero_lam_steps = floored_steps = 0
    for t in range(1, T + 1):
        for k in range(t.bit_length()):
            if t % (1 << k) == 0:
                sched = AdaptiveSchedule(beta_sq=[1.0, math.log(T)][(t + k) % 2])
                groups = put_lane(groups, k, DynamicIOMD(geom, sched))
                twins[k:k + 1] = [DynamicIOMD(geom, sched)]
        assert len(groups) == 1
        loss = env.loss(t)
        stepped = groups[0].lam > 0.0
        zero_lam_steps += int(np.sum(~stepped))
        _step_all(groups, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_lanes(groups, twins)
        floored_steps += int(np.sum(np.any(groups[0].x == geom.domain.floor, axis=1) & stepped))
    assert zero_lam_steps == sum(((t & -t).bit_length() for t in range(1, T + 1)))
    assert floored_steps > 100


def test_put_lane_splits_the_lanes_for_other_rules():
    loss = QuadraticLoss([1.0], 0.7)
    make = [
        lambda: OGD(INTERVAL, fixed_schedule("inv_sqrt", 1.0, 20).etas, x0=[-0.5]),
        lambda: OGD(INTERVAL, fixed_schedule("constant", 0.3, 20).etas),
        lambda: DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=2.0)),
        lambda: DynamicIOMD(INTERVAL, fixed_schedule("inv_t", 1.0, 20)),
    ]
    groups, twins = [], [m() for m in make]
    for k, m in enumerate(make):
        groups = put_lane(groups, k, m())
    assert len(groups) == 4
    for _ in range(20):
        _step_all(groups, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_lanes(groups, twins)
    # entropy learners of two schedules: a greedy one and an adaptive one
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    groups = put_lane(put_lane([], 0, DynamicIOMD(geom, GreedySchedule())), 1,
                      DynamicIOMD(geom, AdaptiveSchedule(1.0)))
    twins = [DynamicIOMD(geom, GreedySchedule()), DynamicIOMD(geom, AdaptiveSchedule(1.0))]
    assert len(groups) == 2
    for _ in range(5):
        _step_all(groups, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_lanes(groups, twins)


def test_put_lane_splits_lanes_of_one_round_when_a_later_birth_reads_another():
    # OGD born at one round steps by one rule, so its lanes are written in
    # place; a birth a round later reads another round, and the lanes split
    # with each one's own state
    make = [lambda x0=x0: OGD(INTERVAL, fixed_schedule("inv_sqrt", 0.3, 20).etas, x0=[x0])
            for x0 in (-0.5, 0.25, 0.75)]
    groups, twins = [], [m() for m in make]
    for k, m in enumerate(make):
        groups = put_lane(groups, k, m())
    assert len(groups) == 1 and len(groups[0].x) == 3
    loss = QuadraticLoss([1.0], 0.1)
    for t in range(1, 8):
        if t == 3:
            groups = put_lane(groups, 1, make[1]())
            twins[1] = make[1]()
            assert len(groups) == 3
        _step_all(groups, loss)
        for twin in twins:
            twin.update(loss)
        _assert_same_lanes(groups, twins)


def test_put_lane_keeps_the_anchor_of_an_infinite_weight():
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    first, groups = DynamicIOMD(geom, AdaptiveSchedule(1.0)), []
    twins = [DynamicIOMD(geom, AdaptiveSchedule(1.0)) for _ in range(3)]
    for learner in (first, twins[0]):
        learner.update(loss)
        learner.lam = np.array([math.inf])
    for k, learner in enumerate([first] + [DynamicIOMD(geom, AdaptiveSchedule(1.0))
                                           for _ in range(2)]):
        groups = put_lane(groups, k, learner)
    assert len(groups) == 1
    _step_all(groups, loss)
    for twin in twins:
        twin.update(loss)
    _assert_same_lanes(groups, twins)
    assert groups[0].lam[0] == math.inf


@pytest.mark.parametrize("poison, error", [
    (lambda l: setattr(l, "x", np.array([[0.5, np.nan, 0.25, 0.25]])), GeometryError),
    (lambda l: setattr(l, "x", np.array([[0.5, 0.5, 0.5, 0.5]])), SolverError),
    (lambda l: setattr(l, "lam", np.array([-1.0])), SolverError),
], ids=["nan-anchor", "anchor-off-the-simplex", "negative-lam"])
def test_put_lane_raises_what_update_raises(poison, error):
    # a poisoned lane is not written in place: it steps on its own and
    # raises its own error
    geom = entropy_geometry(ClippedSimplex(4, 0.1))
    loss = LinearLoss([0.3, 0.1, 0.6, 0.2])
    groups = []
    for k in range(3):
        groups = put_lane(groups, k, DynamicIOMD(geom, AdaptiveSchedule(1.0)))
    _step_all(groups, loss)
    poisoned, twin = DynamicIOMD(geom, AdaptiveSchedule(1.0)), DynamicIOMD(geom, AdaptiveSchedule(1.0))
    poison(poisoned)
    poison(twin)
    with pytest.raises(error):
        twin.update(loss)
    groups = put_lane(groups, 1, poisoned)
    assert len(groups) == 3
    with pytest.raises(error):
        _step_all(groups, loss)
