import math

import numpy as np
import pytest

from driftlab.envs import (
    AlternatingExpertsEnv,
    DriftingQuadraticEnv,
    FixedLossEnv,
    LowerBoundEnv,
    ShiftingExpertsEnv,
    make_environment,
)
from driftlab.geometry import ClippedSimplex, Interval
from driftlab.learners import ConfigError
from driftlab.losses import path_length, temporal_variability

KINDS = {
    "lower-bound": {"sigma": 0.3},
    "alternating-experts": {},
    "shifting-experts": {"d": 4, "shifts": 3},
    "drifting-quadratic": {"tau": 2.0},
    "fixed-loss": {},
}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_same_seed_replays_bit_for_bit(kind):
    a = make_environment(kind, T=64, seed=9, **KINDS[kind])
    b = make_environment(kind, T=64, seed=9, **KINDS[kind])
    assert [l.to_dict() for l in a.losses()] == [l.to_dict() for l in b.losses()]
    np.testing.assert_array_equal(a.comparators(), b.comparators())
    assert a.params() == b.params()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_loss_table_rows_are_the_round_losses(kind):
    env = make_environment(kind, T=64, seed=9, **KINDS[kind])
    table = env.loss_table()
    assert table.kind == env.loss(1).kind and len(table) == 64
    assert [table[i].to_dict() for i in range(len(table))] == [l.to_dict() for l in env.losses()]
    # and every round's comparator, stacked: same bits, shape and dtype
    us, stacked = env.comparators(), np.stack([env.comparator(t) for t in range(1, 65)])
    assert us.shape == stacked.shape == (64, env.default_geometry().domain.dim)
    assert us.dtype == stacked.dtype and us.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("kind", ["lower-bound", "shifting-experts",
                                  "drifting-quadratic", "fixed-loss"])
def test_different_seeds_differ(kind):
    a = make_environment(kind, T=64, seed=1, **KINDS[kind])
    b = make_environment(kind, T=64, seed=2, **KINDS[kind])
    assert [l.to_dict() for l in a.losses()] != [l.to_dict() for l in b.losses()]


def test_round_index_is_one_based():
    env = FixedLossEnv(T=8, seed=0)
    with pytest.raises(ConfigError):
        env.loss(0)
    with pytest.raises(ConfigError):
        env.loss(9)
    with pytest.raises(ConfigError):
        env.comparator(-1)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_targets_are_sign_flips_of_sigma():
    env = LowerBoundEnv(T=500, seed=3, sigma=0.3)
    assert np.all(np.isin(env.eps, [-0.3, 0.3]))
    assert np.any(env.eps > 0) and np.any(env.eps < 0)
    for t in (1, 17, 500):
        loss = env.loss(t)
        e = env.eps[t - 1]
        # half squared distance to the current target
        assert loss.value([0.0]) == pytest.approx(0.5 * e * e, abs=1e-15)
        assert loss.value([e]) == 0.0
        np.testing.assert_array_equal(env.comparator(t), [e])


def test_lower_bound_comparator_tracks_noise_with_zero_loss():
    env = LowerBoundEnv(T=200, seed=5, sigma=0.1)
    total = sum(env.loss(t).value(env.comparator(t)) for t in range(1, 201))
    assert total == 0.0


def test_lower_bound_rejects_weak_noise():
    with pytest.raises(ConfigError):
        LowerBoundEnv(T=100, seed=0, sigma=0.1)  # sigma * sqrt(T) = 1
    with pytest.raises(ConfigError):
        LowerBoundEnv(T=100, seed=0, sigma=0.0)
    with pytest.raises(ConfigError):
        LowerBoundEnv(T=100, seed=0, sigma=1.5)
    with pytest.raises(ConfigError):
        LowerBoundEnv(T=0, seed=0, sigma=0.5)


def test_lower_bound_default_geometry_is_unit_interval():
    env = LowerBoundEnv(T=100, seed=0, sigma=0.5)
    assert env.default_geometry().domain == Interval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# alternating experts
# ---------------------------------------------------------------------------


def test_alternating_round_two_loads_first_coordinate():
    env = AlternatingExpertsEnv(T=10)
    np.testing.assert_array_equal(env.loss(2).g, [1.0, 0.0])
    np.testing.assert_array_equal(env.comparator(2), [0.0, 1.0])
    np.testing.assert_array_equal(env.loss(1).g, [0.0, 1.0])
    np.testing.assert_array_equal(env.comparator(1), [1.0, 0.0])


def test_alternating_comparator_corner_has_zero_loss():
    env = AlternatingExpertsEnv(T=50)
    for t in range(1, 51):
        assert env.loss(t).value(env.comparator(t)) == 0.0


def test_alternating_variability_and_switch_count_are_linear():
    T = 64
    env = AlternatingExpertsEnv(T=T)
    domain = env.default_geometry().domain
    v = temporal_variability(env.losses(), domain)
    assert v.exact
    for value in (v.absolute, v.signed):
        assert T - 1 <= value <= T
    u = env.comparators()
    switches = int(np.sum(np.any(u[1:] != u[:-1], axis=1)))
    assert T - 1 <= switches <= T


def test_alternating_needs_two_rounds():
    with pytest.raises(ConfigError):
        AlternatingExpertsEnv(T=1)
    # d is a parameter so that the header, which writes it, rebuilds the run
    assert AlternatingExpertsEnv(T=10, d=2).params()["d"] == 2
    with pytest.raises(ConfigError, match="d = 2"):
        AlternatingExpertsEnv(T=10, d=3)
    env = AlternatingExpertsEnv(T=100)
    assert env.loss_sup() == 1.0
    assert isinstance(env.default_geometry().domain, ClippedSimplex)
    assert env.default_geometry().domain.alpha == min(0.5, 2 / 100)


# ---------------------------------------------------------------------------
# shifting experts
# ---------------------------------------------------------------------------


def test_shifting_losses_are_frozen_between_change_points():
    env = ShiftingExpertsEnv(T=200, seed=11, d=5, shifts=4)
    pts = set(int(p) for p in env.change_points)
    assert len(pts) == 4
    assert all(2 <= p <= 200 for p in pts)
    for t in range(2, 201):
        same = np.array_equal(env.loss(t).g, env.loss(t - 1).g)
        assert same == (t not in pts)


def test_shifting_best_expert_actually_changes():
    env = ShiftingExpertsEnv(T=300, seed=2, d=6, shifts=7)
    assert all(b1 != b0 for b0, b1 in zip(env.best, env.best[1:]))
    # within each segment the leader is separated from the field
    for s, g in enumerate(env.segment_losses):
        b = env.best[s]
        assert 0.0 <= g[b] <= 0.2
        others = np.delete(g, b)
        assert np.all((others >= 0.4) & (others <= 0.9))


def test_shifting_comparator_path_is_twice_the_shift_count():
    env = ShiftingExpertsEnv(T=150, seed=8, d=3, shifts=6)
    c = path_length(env.comparators(), norm="l1")
    assert c == pytest.approx(2.0 * 6, abs=1e-12)
    assert env.loss_sup() == 1.0


def test_shifting_zero_shifts_is_stationary():
    env = ShiftingExpertsEnv(T=40, seed=1, d=3, shifts=0)
    assert path_length(env.comparators(), norm="l1") == 0.0
    assert all(np.array_equal(env.loss(t).g, env.loss(1).g) for t in range(2, 41))


def test_shifting_parameter_validation():
    with pytest.raises(ConfigError):
        ShiftingExpertsEnv(T=100, seed=0, d=1, shifts=2)
    with pytest.raises(ConfigError):
        ShiftingExpertsEnv(T=100, seed=0, d=60, shifts=2)
    with pytest.raises(ConfigError):
        ShiftingExpertsEnv(T=100, seed=0, d=5, shifts=100)
    with pytest.raises(ConfigError):
        ShiftingExpertsEnv(T=100, seed=0, d=5, shifts=-1)


# ---------------------------------------------------------------------------
# drifting quadratic
# ---------------------------------------------------------------------------


def test_drifting_path_spends_the_budget_exactly():
    for seed in range(10):
        env = DriftingQuadraticEnv(T=100, seed=seed, tau=2.0)
        m = env.minimizers
        path = float(np.sum(np.abs(np.diff(m))))
        assert path <= 2.0 + 1e-9
        # the mean step is sized to exhaust the budget mid-run
        assert path == pytest.approx(2.0, abs=1e-9)
        assert np.all((m >= -1.0) & (m <= 1.0))


def test_drifting_zero_budget_stays_put():
    env = DriftingQuadraticEnv(T=50, seed=4, tau=0.0)
    assert float(np.sum(np.abs(np.diff(env.minimizers)))) == 0.0


def test_drifting_comparator_is_the_minimizer():
    env = DriftingQuadraticEnv(T=30, seed=7, tau=1.0)
    for t in (1, 15, 30):
        u = env.comparator(t)
        assert env.loss(t).value(u) == 0.0
    assert env.default_geometry().domain == Interval(-1.0, 1.0)


def test_drifting_respects_custom_interval():
    env = DriftingQuadraticEnv(T=60, seed=3, tau=1.5, lo=0.0, hi=4.0)
    assert np.all((env.minimizers >= 0.0) & (env.minimizers <= 4.0))
    assert env.default_geometry().domain == Interval(0.0, 4.0)


def test_drifting_rejects_negative_budget():
    with pytest.raises(ConfigError):
        DriftingQuadraticEnv(T=10, seed=0, tau=-0.5)


# ---------------------------------------------------------------------------
# fixed loss
# ---------------------------------------------------------------------------


def test_fixed_loss_has_zero_variability():
    env = FixedLossEnv(T=25, seed=6)
    domain = env.default_geometry().domain
    v = temporal_variability(env.losses(), domain)
    assert v.absolute == 0.0 and v.signed == 0.0
    assert all(env.loss(t) is env.loss(1) for t in range(2, 26))


def test_fixed_loss_comparator_is_the_clipped_minimizer():
    env = FixedLossEnv(T=5, seed=12)
    u = env.comparator(3)
    assert -1.0 <= u[0] <= 1.0
    grid = np.linspace(-1.0, 1.0, 20_001)
    vals = 0.5 * (env.a * grid - env.y) ** 2
    assert env.loss(1).value(u) <= float(np.min(vals)) + 1e-9


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_factory_rejects_unknown_kind_and_bad_params():
    with pytest.raises(ConfigError, match="unknown environment kind"):
        make_environment("random-walk", T=10, seed=0)
    with pytest.raises(ConfigError, match="bad parameters"):
        make_environment("lower-bound", T=100, seed=0)  # sigma missing
    with pytest.raises(ConfigError, match="bad parameters"):
        make_environment("drifting-quadratic", T=10, seed=0, tau=1.0, dim=3)


def test_factory_builds_each_kind():
    for kind, params in KINDS.items():
        env = make_environment(kind, T=32, seed=1, **params)
        assert env.kind == kind
        assert env.T == 32
