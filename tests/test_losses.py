import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.geometry import Box, ClippedSimplex, Interval
from driftlab.losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    LossError,
    LossTable,
    QuadraticLoss,
    _grid_pair_sup,
    _interval_pair_sup,
    _pieces_1d,
    _strip_matching_l1,
    batch_values,
    loss_from_dict,
    path_length,
    step_lengths,
    temporal_variability,
)


# ---------------------------------------------------------------------------
# values and subgradients
# ---------------------------------------------------------------------------


def test_eval_point_examples():
    assert LinearLoss([1, 0]).value([0, 1]) == 0.0
    assert QuadraticLoss([1], 1.0).value([0.0]) == pytest.approx(0.5, abs=1e-15)
    assert HingeLoss([2], 1.0).value([0.25]) == pytest.approx(0.5, abs=1e-15)
    assert AbsoluteLoss([1], 0.5).value([-0.5]) == pytest.approx(1.0, abs=1e-15)


def test_subgradient_point_examples():
    np.testing.assert_array_equal(LinearLoss([1, 0]).subgradient([7.0, -3.0]), [1, 0])
    np.testing.assert_array_equal(AbsoluteLoss([1], 0.0).subgradient([0.0]), [0.0])
    np.testing.assert_allclose(QuadraticLoss([2], 1.0).subgradient([1.0]), [2.0], atol=1e-15)


def test_kink_subgradients_are_zero_selection():
    # hinge exactly at margin one, absolute at zero residual, L1 at zero
    assert np.all(HingeLoss([1], 1.0).subgradient([1.0]) == 0.0)
    assert np.all(AbsoluteLoss([2, 2], 1.0).subgradient([0.25, 0.25]) == 0.0)
    comp = CompositeLoss(QuadraticLoss([1, 1], 0.0), 0.5)
    g = comp.subgradient([0.0, 0.0])
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-15)


def test_subgradient_validity_fuzz():
    # eval(y) >= eval(x) + <g(x), y - x> on 1e4 sampled pairs per family
    rng = np.random.Generator(np.random.PCG64(5))
    families = [
        LinearLoss(rng.normal(size=3)),
        QuadraticLoss(rng.normal(size=3), 0.4),
        AbsoluteLoss(rng.normal(size=3), -0.2),
        HingeLoss(rng.normal(size=3), 1.0),
        CompositeLoss(QuadraticLoss(rng.normal(size=3), 0.1), 0.3),
    ]
    for loss in families:
        xs = rng.uniform(-2, 2, size=(10_000, 3))
        ys = rng.uniform(-2, 2, size=(10_000, 3))
        for i in range(0, 10_000, 7):
            x, y = xs[i], ys[i]
            lin = loss.value(x) + float(loss.subgradient(x) @ (y - x))
            assert loss.value(y) >= lin - 1e-10


def test_hinge_label_validation():
    with pytest.raises(LossError):
        HingeLoss([1.0], 0.5)


def test_composite_value_and_nesting_guard():
    comp = CompositeLoss(QuadraticLoss([1.0], 0.0), 2.0)
    assert comp.value([0.5]) == pytest.approx(0.125 + 1.0, abs=1e-15)
    assert comp.variable_value([0.5]) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(LossError):
        CompositeLoss(comp, 1.0)
    with pytest.raises(LossError):
        CompositeLoss(QuadraticLoss([1.0], 0.0), -0.1)


def test_batch_values_match_pointwise_values():
    rng = np.random.Generator(np.random.PCG64(17))
    for dim in (1, 3):
        pts = rng.uniform(-2.0, 2.0, size=(200, dim))
        a = rng.normal(size=dim)
        quad = QuadraticLoss(a, 0.3)
        for loss in (LinearLoss(a), quad, AbsoluteLoss(a, -0.2), HingeLoss(a, -1.0),
                     CompositeLoss(quad, 0.5)):
            loop = np.array([loss.value(p) for p in pts])
            np.testing.assert_allclose(batch_values(loss, pts), loop, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# path length
# ---------------------------------------------------------------------------


def test_path_length_examples():
    assert path_length([[0.0], [1.0], [0.0]], "l2") == pytest.approx(2.0, abs=1e-15)
    assert path_length([[0.3, 0.7]] * 5, "l2") == 0.0
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    assert path_length([e1, e2, e1], "l1") == pytest.approx(4.0, abs=1e-15)
    assert path_length([[1.0, 1.0]], "l2") == 0.0


def test_step_lengths_per_norm():
    pts = [[0.0, 0.0], [3.0, 4.0], [3.0, 3.0]]
    np.testing.assert_allclose(step_lengths(pts, "l2"), [5.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(step_lengths(pts, "l1"), [7.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(step_lengths([0.5, -0.25], "l2"), [0.75], atol=1e-15)
    with pytest.raises(LossError):
        step_lengths(pts, "linf")
    with pytest.raises(LossError):
        path_length(pts, "linf")


def test_path_length_concatenation_additivity():
    rng = np.random.Generator(np.random.PCG64(9))
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(5, 2))
    b[0] = a[-1]  # share the junction point
    joined = np.vstack([a, b[1:]])
    for norm in ("l2", "l1"):
        assert path_length(joined, norm) == pytest.approx(
            path_length(a, norm) + path_length(b, norm), abs=1e-12)


# ---------------------------------------------------------------------------
# temporal variability
# ---------------------------------------------------------------------------


def test_variability_linear_over_simplex():
    dom = ClippedSimplex(2, 0.5)
    seq = [LinearLoss([1.0, 0.0]), LinearLoss([0.0, 1.0])]
    v = temporal_variability(seq, dom)
    assert v.exact
    assert v.absolute == pytest.approx(1.0, abs=1e-12)


def test_variability_identical_losses_is_zero():
    dom = Interval(-1.0, 1.0)
    seq = [QuadraticLoss([1.0], 0.3)] * 6
    v = temporal_variability(seq, dom)
    assert v.exact and v.absolute == 0.0 and v.signed == 0.0


def test_variability_quadratic_jump_pair():
    dom = Interval(-1.0, 1.0)
    seq = [QuadraticLoss([1.0], -0.1), QuadraticLoss([1.0], 0.1)]
    v = temporal_variability(seq, dom)
    assert v.exact and v.absolute == pytest.approx(0.2, abs=1e-12)
    assert v.signed == pytest.approx(0.2, abs=1e-12)


def test_variability_signed_below_absolute_and_clamped():
    rng = np.random.Generator(np.random.PCG64(21))
    dom = Interval(-1.0, 1.0)
    for _ in range(50):
        seq = [QuadraticLoss([float(rng.uniform(0.5, 2.0))], float(rng.uniform(-1, 1)))
               for _ in range(5)]
        v = temporal_variability(seq, dom)
        assert 0.0 <= v.signed <= v.absolute + 1e-12


def _grid_sups(seq, grid):
    # coarse scan plus a local refinement around each argmax; kinked pairs
    # put the supremum between coarse grid points otherwise
    h = grid[1] - grid[0]
    sups = []
    for prev, cur in zip(seq[:-1], seq[1:]):
        def diff_at(pts):
            return np.array([cur.value([g]) - prev.value([g]) for g in pts])
        coarse = diff_at(grid)

        def refined(sign):
            arg = grid[int(np.argmax(sign * coarse))]
            lo, hi = max(grid[0], arg - h), min(grid[-1], arg + h)
            return float(np.max(sign * diff_at(np.linspace(lo, hi, 2001))))
        sups.append((refined(1.0), refined(-1.0)))
    return sups


def _grid_total(sups, mode):
    if mode == "absolute":
        return sum(max(p, n) for p, n in sups)
    return sum(max(0.0, p) for p, n in sups)


def test_variability_one_dim_closed_forms_match_grid():
    rng = np.random.Generator(np.random.PCG64(33))
    dom = Interval(-1.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 10_001)
    makers = [
        lambda: QuadraticLoss([float(rng.uniform(0.3, 2.0))], float(rng.uniform(-0.9, 0.9))),
        lambda: AbsoluteLoss([float(rng.uniform(0.3, 2.0))], float(rng.uniform(-0.9, 0.9))),
        lambda: HingeLoss([float(rng.uniform(0.3, 2.0))], float(rng.choice([-1.0, 1.0]))),
        # distinct L1 weights do not cancel: the difference has a kink at 0
        lambda: CompositeLoss(QuadraticLoss([float(rng.uniform(0.3, 2.0))],
                                            float(rng.uniform(-0.9, 0.9))),
                              float(rng.uniform(0.05, 0.8))),
    ]
    for make in makers:
        for _ in range(6):
            seq = [make(), make(), make()]
            sups = _grid_sups(seq, grid)
            v = temporal_variability(seq, dom)
            assert v.exact
            assert v.absolute == pytest.approx(_grid_total(sups, "absolute"), abs=1e-6)
            assert v.signed == pytest.approx(_grid_total(sups, "signed"), abs=1e-6)


def test_variability_linear_simplex_matches_corner_scan():
    rng = np.random.Generator(np.random.PCG64(43))
    dom = ClippedSimplex(4, 0.2)
    seq = [LinearLoss(rng.normal(size=4)) for _ in range(6)]
    v = temporal_variability(seq, dom)
    assert v.exact
    # sup over the full simplex of a linear difference sits on a corner
    total = 0.0
    for prev, cur in zip(seq[:-1], seq[1:]):
        total += float(np.max(np.abs(cur.g - prev.g)))
    assert v.absolute == pytest.approx(total, abs=1e-12)


def test_variability_grid_fallback_flags_inexact():
    dom = Box([-1, -1], [1, 1])
    seq = [QuadraticLoss([1.0, 0.5], 0.0), QuadraticLoss([0.5, 1.0], 0.3)]
    v = temporal_variability(seq, dom, grid_points=300)
    assert not v.exact
    denser = temporal_variability(seq, dom, grid_points=900)
    assert denser.absolute >= v.absolute - 1e-9  # grid estimates only improve


def test_variability_composite_matching_penalties_cancel():
    dom = Interval(-1.0, 1.0)
    base = [QuadraticLoss([1.0], -0.2), QuadraticLoss([1.0], 0.4)]
    plain = temporal_variability(base, dom)
    wrapped = [CompositeLoss(b, 0.7) for b in base]
    comp = temporal_variability(wrapped, dom)
    assert comp.exact
    assert comp.absolute == pytest.approx(plain.absolute, abs=1e-12)


def test_variability_builds_each_piecewise_form_once(monkeypatch):
    import driftlab.losses as losses_mod

    calls = []
    real = losses_mod._pieces_1d
    monkeypatch.setattr(losses_mod, "_pieces_1d",
                        lambda loss, lo, hi: calls.append(loss) or real(loss, lo, hi))
    seq = [QuadraticLoss([1.0], 0.1 * t) for t in range(6)]
    seq += [AbsoluteLoss([1.0], 0.2), HingeLoss([1.0], -1.0)]
    v = temporal_variability(seq, Interval(-1.0, 1.0))
    assert v.exact
    assert len(calls) == len(seq)
    assert {id(l) for l in calls} == {id(l) for l in seq}


def test_variability_rejects_empty():
    with pytest.raises(LossError):
        temporal_variability([], Interval(-1, 1))


def _reference_variability(losses, domain, grid_points=10_000):
    """The former scalar sweep: one pair at a time, linear pairs in closed form,
    1-d pairs through their piecewise forms, running Python sums."""
    signed = absolute = 0.0
    exact_all = True
    for prev, cur in zip(losses[:-1], losses[1:]):
        cur, prev = _strip_matching_l1(cur, prev)
        if isinstance(cur, LinearLoss) and isinstance(prev, LinearLoss) \
                and isinstance(domain, (ClippedSimplex, Box, Interval)):
            dg = cur.g - prev.g
            if isinstance(domain, ClippedSimplex):
                sup_pos, sup_neg = float(np.max(dg)), float(np.max(-dg))
            else:
                lo, hi = np.atleast_1d(domain.lo), np.atleast_1d(domain.hi)
                sup_pos = float(np.sum(np.maximum(dg * lo, dg * hi)))
                sup_neg = float(np.sum(np.maximum(-dg * lo, -dg * hi)))
            exact = True
        elif isinstance(domain, Interval):
            sup_pos, sup_neg, exact = _interval_pair_sup(
                _pieces_1d(cur, domain.lo, domain.hi), _pieces_1d(prev, domain.lo, domain.hi))
        else:
            sup_pos, sup_neg, exact = _grid_pair_sup(cur, prev, domain, grid_points)
        signed += max(0.0, sup_pos)
        absolute += max(sup_pos, sup_neg)
        exact_all = exact_all and exact
    return signed, absolute, exact_all


def _same_variability(losses, domain):
    v = temporal_variability(LossTable.from_losses(losses), domain)
    signed, absolute, exact = _reference_variability(losses, domain)
    assert (v.signed.hex(), v.absolute.hex(), v.exact) == \
        (signed.hex(), absolute.hex(), exact)


_COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-9]) | st.floats(-3.0, 3.0)


@st.composite
def _one_dim_sequences(draw):
    """(losses, interval): quadratic or linear 1-d losses with repeated rounds,
    zero scores and pairs whose difference has its vertex on or near an edge."""
    lo = draw(st.sampled_from([-1.0, 0.0, -2.5]))
    dom = Interval(lo, lo + draw(st.sampled_from([1.0, 2.0, 0.3])))
    kind = draw(st.sampled_from(["quadratic", "linear"]))
    losses = []
    for _ in range(draw(st.integers(1, 12))):
        move = draw(st.sampled_from(["fresh", "repeat", "edge"])) if losses else "fresh"
        if move == "repeat":
            losses.append(loss_from_dict(losses[-1].to_dict()))
        elif kind == "linear":
            losses.append(LinearLoss([draw(_COEFFS)]))
        elif move == "edge":
            a_p, y_p = float(losses[-1].a[0]), losses[-1].y
            a = draw(st.sampled_from([0.7, -1.3, 2.0]))
            v = draw(st.sampled_from([dom.lo, dom.hi, np.nextafter(dom.lo, dom.hi),
                                      np.nextafter(dom.hi, dom.lo), dom.lo + 1e-12]))
            # the vertex of the pair's difference, (a y - a_p y_p) / (a^2 - a_p^2), at v
            y = (v * (a * a - a_p * a_p) + a_p * y_p) / a
            losses.append(QuadraticLoss([a], y if np.isfinite(y) else 0.0))
        else:
            losses.append(QuadraticLoss([draw(_COEFFS)], draw(_COEFFS)))
    return losses, dom


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_one_dim_sequences())
def test_one_dim_variability_equals_the_pairwise_sweep(case):
    _same_variability(*case)


@st.composite
def _linear_sequences(draw):
    """(losses, domain): linear losses on a clipped simplex, interval or box,
    with repeated rounds and zero coordinates."""
    shape = draw(st.sampled_from(["simplex", "interval", "box"]))
    d = 1 if shape == "interval" else draw(st.integers(2, 12))
    if shape == "simplex":
        dom = ClippedSimplex(d, 0.1)
    elif shape == "interval":
        dom = Interval(-0.5, 2.0)
    else:
        dom = Box(np.linspace(-1.0, 0.0, d), np.linspace(0.5, 3.0, d))
    losses = []
    for _ in range(draw(st.integers(1, 10))):
        if losses and draw(st.booleans()):
            losses.append(LinearLoss(losses[-1].g))
        else:
            losses.append(LinearLoss(draw(st.lists(_COEFFS, min_size=d, max_size=d))))
    return losses, dom


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_linear_sequences())
def test_linear_variability_equals_the_pairwise_sweep(case):
    _same_variability(*case)


def test_loss_table_values_equal_each_loss_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(5))
    for d in (1, 3):
        X = rng.normal(size=(40, d))
        X[:4] = 0.0
        A = rng.normal(size=(40, d))
        A[4:8] = -0.0
        Y = rng.choice([-1.0, 1.0], 40)
        for kind in ("linear", "quadratic", "absolute", "hinge"):
            specs = [{"kind": kind, "g": a.tolist()} if kind == "linear"
                     else {"kind": kind, "a": a.tolist(), "y": float(y)} for a, y in zip(A, Y)]
            table = LossTable.from_dicts(specs)
            assert table.kind == kind and len(table) == 40
            got = table.values(X)
            want = [loss_from_dict(s)._value(x) for s, x in zip(specs, X)]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
            assert table[7].to_dict() == specs[7]


def test_loss_table_keeps_what_it_cannot_stack():
    mixed = [QuadraticLoss([1.0], 0.2), AbsoluteLoss([1.0], 0.1)]
    table = LossTable.from_losses(mixed)
    assert table.kind is None and table.kinds == {"quadratic", "absolute"}
    assert table[1] is mixed[1] and table.A is None
    specs = [CompositeLoss(QuadraticLoss([1.0], 0.0), 0.5).to_dict()] * 3
    assert LossTable.from_dicts(specs).kind == "composite"
    with pytest.raises(LossError, match="finite"):
        LossTable.from_dicts([{"kind": "quadratic", "a": [1.0], "y": float("nan")}])


def test_non_finite_targets_and_penalties_are_rejected():
    for y in (float("nan"), float("inf")):
        with pytest.raises(LossError, match="finite"):
            QuadraticLoss([1.0], y)
        with pytest.raises(LossError, match="finite"):
            CompositeLoss(QuadraticLoss([1.0], 0.0), y)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_loss_dict_roundtrip():
    losses = [
        LinearLoss([1.0, -2.0]),
        QuadraticLoss([0.5], 0.25),
        AbsoluteLoss([1.0, 1.0], -0.5),
        HingeLoss([2.0], -1.0),
        CompositeLoss(QuadraticLoss([1.0, 0.0], 1.0), 0.3),
    ]
    for loss in losses:
        line = json.dumps(loss.to_dict(), sort_keys=True)
        back = loss_from_dict(json.loads(line))
        assert back.to_dict() == loss.to_dict()
        x = np.full(loss.dim, 0.3)
        assert back.value(x) == loss.value(x)


def test_loss_from_dict_unknown_kind():
    with pytest.raises(LossError):
        loss_from_dict({"kind": "cubic"})
