import math

import numpy as np
import pytest
from _oracles import ReferenceScaffold
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.combiners import (
    ABProd,
    AdaptMLProd,
    CoveringInterval,
    LossRange,
    Piece,
    RangeError,
    Scaffold,
    _SleepingMLProd,
    active_intervals,
    break_by_path_length,
)
from driftlab.geometry import ClippedSimplex, Interval, entropy_geometry, euclidean_geometry
from driftlab.learners import (
    OGD,
    AdaptiveSchedule,
    ConfigError,
    DoublingSchedule,
    DynamicIOMD,
    GreedySchedule,
    Learner,
    fixed_schedule,
)
from driftlab.losses import AbsoluteLoss, LinearLoss, QuadraticLoss

INTERVAL = euclidean_geometry(Interval(-1.0, 1.0))


class _Pin(Learner):
    """Plays a settable point and ignores updates; drives combiner scripts."""

    def __init__(self, geom, point):
        self.geom = geom
        self.point = np.asarray(point, dtype=float)

    @property
    def x(self):
        return self.point[None, :]

    def step(self, loss, path_increments):
        return {}

    def play(self):
        return self.point

    def update(self, loss, path_increment: float = 0.0):
        return {}


# ---------------------------------------------------------------------------
# loss range
# ---------------------------------------------------------------------------


def test_loss_range_affine_map_and_scale():
    r = LossRange(-2.0, 2.0)
    assert r.unit(0.0) == 0.5
    assert r.unit(-2.0) == 0.0
    assert r.unit(2.0) == 1.0
    assert r.scale() == 4.0


def test_loss_range_tolerates_roundoff_but_rejects_escapes():
    r = LossRange()
    assert r.unit(1.0 + 5e-10) == 1.0
    assert r.unit(-5e-10) == 0.0
    with pytest.raises(RangeError):
        r.unit(1.5)
    with pytest.raises(RangeError):
        r.unit(-0.01)
    # NaN fails every comparison, so a test that only looks for an escape passes it
    with pytest.raises(RangeError):
        r.unit(float("nan"))


def test_loss_range_needs_positive_width():
    with pytest.raises(ConfigError):
        LossRange(1.0, 1.0)


# ---------------------------------------------------------------------------
# two-learner combiner
# ---------------------------------------------------------------------------


def _abprod_script(rs):
    """Replay the capped-rate prod recurrence on a signal script.

    Pure-python transcription of the documented update; returns the mixture
    weight, rate, and correction accumulator seen at the top of each round,
    plus the state after the final round.
    """
    log_w = math.log(0.5)
    eta = 0.5
    r_sq = 0.0
    k = 1.0
    seen = []
    for r in rs:
        wa = eta * math.exp(log_w)
        seen.append((wa / (wa + 0.25), eta, k))
        r_sq += r * r
        eta_new = min(0.5, 1.0 / math.sqrt(1.0 + r_sq))
        log_w = (eta_new / eta) * (log_w + math.log(1.0 + eta * r))
        k += (1.0 / math.e) * (eta / eta_new - 1.0)
        eta = eta_new
    wa = eta * math.exp(log_w)
    return seen, (wa / (wa + 0.25), eta, k)


def _abprod_on_unit_losses(script):
    """Drive ABProd with pinned plays so the unit losses equal the script."""
    a = _Pin(INTERVAL, [0.0])
    b = _Pin(INTERVAL, [0.0])
    combo = ABProd(a, b)
    loss = AbsoluteLoss([1.0], 0.0)
    rows = []
    for la, lb in script:
        a.point = np.array([la])
        b.point = np.array([lb])
        rows.append(combo.update(loss))
    return combo, rows


def test_abprod_round_one_mixture_is_even():
    combo = ABProd(_Pin(INTERVAL, [0.0]), _Pin(INTERVAL, [1.0]))
    assert combo.mixture_weight() == 0.5
    np.testing.assert_allclose(combo.play(), [0.5], atol=0.0)


def test_abprod_zero_signal_never_moves():
    # equal losses keep r = 0: the rate stays pinned at its cap and the
    # mixture stays even forever
    combo, rows = _abprod_on_unit_losses([(0.3, 0.3)] * 25)
    for row in rows:
        assert row["p_a"] == 0.5
        assert row["r"] == 0.0
        assert row["eta"] == 0.5
        assert row["k_acc"] == 1.0
    assert combo.r_sq_sum == 0.0


def test_abprod_two_rounds_of_unit_signal():
    # r = 1 twice; the cap keeps eta at 1/2, so w_a walks 1/2 -> 3/4 -> 9/8
    # and the mixture weights are 0.5, 0.6, 9/13
    combo, rows = _abprod_on_unit_losses([(0.0, 1.0), (0.0, 1.0)])
    assert rows[0]["p_a"] == 0.5
    assert rows[0]["r"] == 1.0
    assert rows[1]["p_a"] == pytest.approx(0.6, abs=1e-12)
    assert combo.mixture_weight() == pytest.approx(9.0 / 13.0, abs=1e-12)
    assert combo.eta == 0.5
    assert combo.k_acc == 1.0


def test_abprod_matches_scripted_recurrence():
    rng = np.random.Generator(np.random.PCG64(7))
    script = [(float(la), float(lb)) for la, lb in rng.uniform(0.0, 1.0, (40, 2))]
    combo, rows = _abprod_on_unit_losses(script)
    seen, final = _abprod_script([lb - la for la, lb in script])
    for row, (p, eta, k) in zip(rows, seen):
        assert row["p_a"] == pytest.approx(p, abs=1e-12)
        assert row["eta"] == pytest.approx(eta, abs=1e-12)
    assert combo.mixture_weight() == pytest.approx(final[0], abs=1e-12)
    assert combo.eta == pytest.approx(final[1], abs=1e-12)
    assert combo.k_acc == pytest.approx(final[2], abs=1e-12)


def test_abprod_rate_never_increases_and_benchmark_weight_frozen():
    rng = np.random.Generator(np.random.PCG64(11))
    a = _Pin(INTERVAL, [0.0])
    b = _Pin(INTERVAL, [0.0])
    combo = ABProd(a, b)
    loss = AbsoluteLoss([1.0], 0.0)
    prev_eta = combo.eta
    prev_k = combo.k_acc
    for la, lb in rng.uniform(0.0, 1.0, (300, 2)):
        a.point = np.array([float(la)])
        b.point = np.array([float(lb)])
        combo.update(loss)
        assert 0.0 < combo.eta <= 0.5
        assert combo.eta <= prev_eta
        assert combo.k_acc >= prev_k
        prev_eta = combo.eta
        prev_k = combo.k_acc
    assert combo.w_b == 0.5


def test_abprod_per_run_weight_inequalities():
    # realized mixture loss against each base learner, in unit losses; the
    # benchmark side pays only the accumulator, the other side the
    # self-confident square root
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        a = _Pin(INTERVAL, [0.2])
        b = _Pin(INTERVAL, [0.8])
        combo = ABProd(a, b)
        vs_a = vs_b = 0.0
        for y in rng.uniform(-0.2, 1.2, 200):
            loss = AbsoluteLoss([1.0], float(y))
            x = combo.play()
            row = combo.update(loss)
            lm = combo.range.unit(loss.value(x))
            vs_a += lm - row["loss_a"]
            vs_b += lm - row["loss_b"]
        k = combo.k_acc[0]  # the Prod state is per lane: a built combiner has one
        assert vs_b <= 2.0 * math.log(2.0) + 2.0 * math.log(k) + 1e-9
        root = math.sqrt(1.0 + combo.r_sq_sum[0])
        assert vs_a <= 2.0 * math.log(2.0) + (2.0 + math.log(k)) * root + 1e-9


def test_abprod_rejects_losses_outside_declared_range():
    combo = ABProd(_Pin(INTERVAL, [0.0]), _Pin(INTERVAL, [1.0]))
    with pytest.raises(RangeError):
        combo.update(AbsoluteLoss([2.0], 0.0))  # loss(b) = 2 escapes [0, 1]


# ---------------------------------------------------------------------------
# multi-expert combiner
# ---------------------------------------------------------------------------


def _mlprod_script(gs, d):
    """Pure-python replay of the per-expert prod recurrence."""
    log_w = [-math.log(d)] * d
    eta = [0.5] * d
    r_sq = [0.0] * d
    k = 1.0
    ps = []
    for g in gs:
        m = max(log_w)
        z = [e * math.exp(lw - m) for e, lw in zip(eta, log_w)]
        s = sum(z)
        p = [zi / s for zi in z]
        ps.append(p)
        lhat = sum(pi * gi for pi, gi in zip(p, g))
        for i in range(d):
            r = lhat - g[i]
            r_sq[i] += r * r
            eta_new = min(0.5, math.sqrt(math.log(d) / (1.0 + r_sq[i])))
            log_w[i] = (eta_new / eta[i]) * (log_w[i] + math.log(1.0 + eta[i] * r))
            k += (1.0 / math.e) * (eta[i] / eta_new - 1.0)
            eta[i] = eta_new
    return ps, k


def test_mlprod_first_play_is_uniform():
    combo = AdaptMLProd(5)
    np.testing.assert_allclose(combo.play(), np.full(5, 0.2), atol=1e-15)


def test_mlprod_needs_two_experts_and_linear_losses():
    with pytest.raises(ConfigError):
        AdaptMLProd(1)
    combo = AdaptMLProd(3)
    with pytest.raises(ConfigError):
        combo.update(QuadraticLoss([1.0, 0.0, 0.0], 0.0))
    with pytest.raises(ConfigError):
        combo.update(LinearLoss([0.1, 0.2]))
    with pytest.raises(RangeError):
        combo.update(LinearLoss([2.0, 0.0, 0.0]))


def test_mlprod_constant_winner_weight_strictly_increases():
    combo = AdaptMLProd(3)
    loss = LinearLoss([0.0, 1.0, 1.0])
    prev = combo.play()[0]
    for _ in range(40):
        combo.update(loss)
        cur = combo.play()[0]
        assert cur > prev
        prev = cur
    assert prev > 0.9


def test_mlprod_matches_scripted_recurrence():
    gs = [
        [0.0, 0.5, 1.0],
        [0.25, 0.75, 0.5],
        [1.0, 0.0, 0.25],
        [0.5, 0.5, 0.0],
        [0.125, 1.0, 0.375],
    ]
    combo = AdaptMLProd(3)
    plays = []
    for g in gs:
        plays.append(combo.play())
        combo.update(LinearLoss(g))
    ps, k = _mlprod_script(gs, 3)
    for got, want in zip(plays, ps):
        np.testing.assert_allclose(got, want, atol=1e-12)
    assert combo.k_acc == pytest.approx(k, abs=1e-12)


def test_mlprod_rates_monotone_per_expert():
    rng = np.random.Generator(np.random.PCG64(23))
    combo = AdaptMLProd(4)
    prev = combo.eta.copy()
    prev_k = combo.k_acc
    for g in rng.uniform(0.0, 1.0, (200, 4)):
        combo.update(LinearLoss(g))
        assert np.all(combo.eta > 0.0)
        assert np.all(combo.eta <= 0.5)
        assert np.all(combo.eta <= prev + 1e-15)
        assert combo.k_acc >= prev_k
        prev = combo.eta.copy()
        prev_k = combo.k_acc
    assert combo.k_acc >= 1.0


# ---------------------------------------------------------------------------
# interval breaking
# ---------------------------------------------------------------------------


def test_break_constant_sequence_is_one_piece():
    pieces = break_by_path_length([0.4] * 12, diameter=1.0)
    assert pieces == [Piece(0, 11, 0.0)]


def test_break_alternating_unit_steps():
    pieces = break_by_path_length([0.0, 1.0, 0.0, 1.0], diameter=1.0)
    assert [(p.start, p.end) for p in pieces] == [(0, 1), (2, 2), (3, 3)]
    for p in pieces:
        assert 1.0 <= p.path <= 2.0
    assert math.fsum(p.path for p in pieces) == 3.0


def test_break_path_conservation_is_exact_on_dyadic_walks():
    # steps that are multiples of 1/64 add without rounding, so the piece
    # paths recover the total l1 path bit for bit
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        pts = rng.integers(0, 64, size=(25, 2)) / 64.0
        total = float(np.sum(np.abs(np.diff(pts, axis=0))))
        pieces = break_by_path_length(pts, diameter=2.0, norm="l1")
        assert math.fsum(p.path for p in pieces) == total


def test_break_piece_count_and_path_bounds_fuzz():
    for seed in range(1000):
        rng = np.random.Generator(np.random.PCG64(40_000 + seed))
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 31))
        pts = rng.uniform(-0.5, 0.5, (n, dim))
        diam = math.sqrt(dim)  # box diameter bounds every single step
        pieces = break_by_path_length(pts, diameter=diam)
        assert pieces[0].start == 0
        assert pieces[-1].end == n - 1
        for prev, cur in zip(pieces, pieces[1:]):
            assert cur.start == prev.end + 1
        for p in pieces[:-1]:
            assert p.path >= diam
        for p in pieces:
            assert p.path <= 2.0 * diam + 1e-12
        total = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
        assert len(pieces) <= (total + diam) / diam + 1e-9


def test_break_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        break_by_path_length([0.0, 1.0], diameter=0.0)
    with pytest.raises(ConfigError):
        break_by_path_length([0.0, 1.0], diameter=1.0, norm="linf")
    assert break_by_path_length([], diameter=1.0) == []
    assert break_by_path_length([0.7], diameter=1.0) == [Piece(0, 0, 0.0)]


# ---------------------------------------------------------------------------
# geometric covering
# ---------------------------------------------------------------------------


def test_active_intervals_at_powers_of_two():
    ivs = active_intervals(1024)
    assert len(ivs) == 11
    for k, iv in enumerate(ivs):
        assert iv.length == 1 << k
        assert iv.start % (1 << k) == 0
        assert iv.start <= 1024 <= iv.end


def test_active_intervals_are_nested():
    for t in [1, 5, 37, 100, 777, 2048]:
        ivs = active_intervals(t)
        assert len(ivs) == int(math.log2(t)) + 1
        for small, big in zip(ivs, ivs[1:]):
            assert big.start <= small.start and small.end <= big.end


def test_active_intervals_rejects_round_zero():
    with pytest.raises(ConfigError):
        active_intervals(0)


# ---------------------------------------------------------------------------
# strongly adaptive scaffold
# ---------------------------------------------------------------------------


def _ogd_factory(iv):
    return OGD(INTERVAL, fixed_schedule("inv_sqrt", 1.0, iv.length).etas)


def test_scaffold_first_round_is_its_single_base():
    combo = Scaffold(lambda iv: DynamicIOMD(INTERVAL, GreedySchedule(), x0=[0.25]), horizon=1)
    np.testing.assert_array_equal(combo.play(), [0.25])


def test_scaffold_tracks_the_covering():
    born = []  # the intervals the factory received since the last round
    combo = Scaffold(lambda iv: born.append(iv) or _ogd_factory(iv), horizon=15,
                     loss_range=LossRange(0.0, 2.0))
    loss = AbsoluteLoss([1.0], 0.3)
    cases = {1: [CoveringInterval(1, 1)], 5: [CoveringInterval(5, 5)],
             4: [CoveringInterval(4, 4), CoveringInterval(4, 5), CoveringInterval(4, 7)]}
    for t in range(1, 16):
        assert born == [iv for iv in active_intervals(t) if iv.start == t]
        assert born == cases.get(t, born)
        born.clear()
        w = combo.meta.weights(combo._order)
        assert np.all(w >= 0.0)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
        row = combo.update(loss)
        assert row["active"] == int(math.log2(t)) + 1
    assert born == []  # nothing is born after the last round


def test_scaffold_survives_full_horizon():
    # horizon 2^m - 1: every interval closes on the final round, so the
    # post-game sync must keep the last active set for the trailing play
    combo = Scaffold(_ogd_factory, horizon=7, loss_range=LossRange(0.0, 2.0))
    for _ in range(7):
        combo.update(AbsoluteLoss([1.0], 0.3))
    assert combo.t == 8
    assert len(combo.bases) > 0
    assert np.all(np.isfinite(combo.play()))


def test_scaffold_stationary_sequence_within_twice_best_base():
    # minimizer near the domain center keeps freshly spawned intervals cheap,
    # while the step-size oscillation keeps the comparator regret meaningful
    horizon = 255
    loss = AbsoluteLoss([1.0], 0.1)
    base = _ogd_factory(CoveringInterval(1, horizon))
    base_total = 0.0
    for _ in range(horizon):
        base_total += loss.value(base.play())
        base.update(loss)
    combo = Scaffold(_ogd_factory, horizon=horizon,
                     loss_range=LossRange(0.0, 1.2))
    combo_total = 0.0
    for _ in range(horizon):
        combo_total += loss.value(combo.play())
        combo.update(loss)
    assert base_total > 5.0  # the comparator is not degenerate
    assert combo_total <= 2.0 * base_total


def test_scaffold_rejects_bad_horizon_and_range_escapes():
    with pytest.raises(ConfigError):
        Scaffold(_ogd_factory, horizon=0)
    combo = Scaffold(_ogd_factory, horizon=3)
    with pytest.raises(RangeError):
        combo.update(AbsoluteLoss([1.0], 5.0))


def test_scaffold_computes_each_round_weights_once(monkeypatch):
    calls = []
    weights = _SleepingMLProd.weights
    monkeypatch.setattr(_SleepingMLProd, "weights",
                        lambda self, keys: calls.append(1) or weights(self, keys))
    played = Scaffold(_ogd_factory, horizon=31, loss_range=LossRange(0.0, 2.0))
    blind = Scaffold(_ogd_factory, horizon=31, loss_range=LossRange(0.0, 2.0))
    rng = np.random.Generator(np.random.PCG64(3))
    for y in rng.uniform(-0.5, 0.5, 31):
        loss = AbsoluteLoss([1.0], float(y))
        x = played.play()
        assert np.array_equal(played.play(), x)
        before = len(calls)
        row = played.update(loss)
        assert len(calls) == before  # update reuses the weights play computed
        # an update that no play preceded computes them itself, to the same bits
        assert blind.update(loss) == row
    assert np.array_equal(played.play(), blind.play())
    assert len(calls) == 2 * 31 + 2


def _base_factory(name: str, geom, horizon: int, beta_sq: float, loss_range: LossRange):
    """A scaffold base factory of the kind ``name`` on ``geom``."""
    d = geom.domain.dim
    makes = {
        "default": lambda iv: DynamicIOMD(geom, AdaptiveSchedule(math.log(max(2, horizon)))),
        "greedy": lambda iv: DynamicIOMD(geom, GreedySchedule()),
        "adaptive": lambda iv: DynamicIOMD(geom, AdaptiveSchedule(beta_sq)),
        "doubling": lambda iv: DynamicIOMD(geom, DoublingSchedule()),
        "fixed": lambda iv: DynamicIOMD(geom, fixed_schedule("inv_sqrt", 1.0, horizon)),
        "ogd": lambda iv: OGD(geom, fixed_schedule("inv_sqrt", 1.0, iv.length).etas),
        "adapt-ml-prod": lambda iv: AdaptMLProd(d, loss_range, geom=geom),
        "abprod": lambda iv: ABProd(DynamicIOMD(geom, AdaptiveSchedule(beta_sq)),
                                    DynamicIOMD(geom, GreedySchedule()), loss_range),
        # a corner picked by the interval: levels whose losses differ widely
        "pinned": lambda iv: _Pin(geom, _corner(geom, iv.start // iv.length % (d + 1))),
    }
    return makes[name]


def _corner(geom, i: int) -> np.ndarray:
    """Corner i of the clipped simplex, or of the interval, wrapping around."""
    if geom.mirror == "euclidean":
        return np.array([[geom.domain.lo], [geom.domain.hi]][i % 2])
    d, floor = geom.domain.dim, geom.domain.floor
    return np.where(np.arange(d) == i % d, 1.0 - (d - 1) * floor, floor)


_SIMPLEX_BASES = ["default", "greedy", "adaptive", "doubling", "fixed", "adapt-ml-prod",
                  "abprod", "pinned"]
_INTERVAL_BASES = ["greedy", "adaptive", "doubling", "fixed", "ogd", "abprod", "pinned"]
_EDGE_HORIZONS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


def _outcome(learner, losses):
    """Each round's play bytes and row repr, then the final play's bytes, or
    the error that ended the run as its type and message."""
    out = []
    try:
        for loss in losses:
            out.append(learner.play().tobytes())
            out.append(repr(learner.update(loss)))
        out.append(learner.play().tobytes())
    except Exception as exc:  # any error: both sides must fail alike
        out.append((type(exc), str(exc)))
    return out


def _scaffold_runs(simplex, name, horizon, seed, period, loss_top, meta_range,
                   base_range=(0.0, 2.0), beta_sq=1.0):
    """The outcomes of ``Scaffold`` and of ``ReferenceScaffold`` on one loss
    sequence, and the scaffold.  Period 0 draws each loss at random; a period
    p > 0 switches the loss between extremes every p rounds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    phase = [(t // period) % 3 if period else -1 for t in range(horizon)]
    if simplex:
        d = 3
        geom = entropy_geometry(ClippedSimplex(d, min(0.5, d / horizon)))
        losses = [LinearLoss(loss_top * np.eye(d)[i] if i >= 0 else rng.uniform(0.0, loss_top, d))
                  for i in phase]
    else:
        geom = INTERVAL
        kinds = (QuadraticLoss, AbsoluteLoss)
        losses = [kinds[t % 2]([1.0], loss_top * (i % 2 * 2 - 1)) if i >= 0 else
                  kinds[t % 2]([rng.uniform(0.2, 1.0)], rng.uniform(-loss_top, loss_top))
                  for t, i in enumerate(phase)]
    factory = _base_factory(name, geom, horizon, beta_sq, LossRange(*base_range))
    combo = Scaffold(factory, horizon, LossRange(*meta_range))
    reference = ReferenceScaffold(factory, horizon, LossRange(*meta_range))
    return _outcome(combo, losses), _outcome(reference, losses), combo


@settings(max_examples=150, derandomize=True, deadline=None)
@given(simplex=st.booleans(), data=st.data(),
       horizon=st.one_of(st.sampled_from(_EDGE_HORIZONS), st.integers(1, 70)),
       seed=st.integers(0, 2**32 - 1), period=st.integers(0, 4),
       loss_top=st.sampled_from([0.5, 1.0, 2.0]),
       meta_range=st.sampled_from([(0.0, 1.0), (0.0, 2.0), (-1.0, 1.5), (0.2, 1.0)]),
       base_range=st.sampled_from([(0.0, 1.0), (0.0, 2.0), (-0.5, 3.0)]),
       beta_sq=st.sampled_from([0.05, 1.0, 4.0]))
def test_scaffold_equals_the_interval_reference_bit_for_bit(simplex, data, horizon, seed, period,
                                                            loss_top, meta_range, base_range,
                                                            beta_sq):
    # the scaffold's level lanes against the interval dict stepping each base
    # by its own update: every play, row and final play, or the same error
    name = data.draw(st.sampled_from(_SIMPLEX_BASES if simplex else _INTERVAL_BASES))
    lanes, reference, _ = _scaffold_runs(simplex, name, horizon, seed, period, loss_top,
                                         meta_range, base_range, beta_sq)
    assert lanes == reference


@pytest.mark.parametrize("simplex, period, meta_range", [
    (False, 4, (0.0, 2.0)), (True, 3, (0.0, 1.0))], ids=["interval", "simplex"])
def test_scaffold_equals_the_reference_where_the_meta_rates_fall(simplex, period, meta_range):
    # levels pinned to corners lose so differently that their meta rates
    # fall below the cap of 1/2, where each level's frozen log(d) counts
    lanes, reference, combo = _scaffold_runs(simplex, "pinned", 63, 0, period, 1.0, meta_range)
    assert lanes == reference
    assert len(lanes) == 2 * 63 + 1 and min(combo.meta.eta) < 0.45
