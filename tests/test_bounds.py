import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.bounds import (
    BoundCheck,
    RecursionCheck,
    RunRecord,
    check_recursion_bound,
    evaluate_bounds,
    first_order_bound,
)
from driftlab.combiners import ABProd, LossRange
from driftlab.envs import DriftingQuadraticEnv, FixedLossEnv
from driftlab.geometry import Interval, euclidean_geometry
from driftlab.learners import (
    AdaptiveSchedule,
    DoublingSchedule,
    DynamicIOMD,
    GreedySchedule,
    Learner,
)
from driftlab.losses import AbsoluteLoss, CompositeLoss, LinearLoss, QuadraticLoss
from driftlab.runner import run_cell

INTERVAL = euclidean_geometry(Interval(-1.0, 1.0))


def _run(learner, env, wrap=lambda loss: loss):
    """Drive a learner over an environment's losses, each passed through
    ``wrap``, collecting trace columns."""
    plays, values, deltas, lams, gnorms = [], [], [], [], []
    prev_u = None
    for t in range(1, env.T + 1):
        u = env.comparator(t)
        inc = 0.0 if prev_u is None else float(np.linalg.norm(u - prev_u))
        prev_u = u
        plays.append(np.array(learner.play(), dtype=float))
        row = learner.update(wrap(env.loss(t)), inc)
        values.append(row["value"])
        deltas.append(row.get("delta"))
        lams.append(row.get("lam"))
        gnorms.append(row.get("gnorm_dual"))
    return {
        "plays": np.array(plays),
        "x_final": np.array(learner.play(), dtype=float),
        "values": np.array(values),
        "deltas": np.array(deltas, dtype=float),
        "lams": np.array(lams, dtype=float),
        "gnorms": np.array(gnorms, dtype=float),
    }


def _by_name(rows):
    out = {}
    for r in rows:
        assert r.name not in out
        out[r.name] = r
    return out


# ---------------------------------------------------------------------------
# first-order certificate
# ---------------------------------------------------------------------------


def test_first_order_bound_degenerate_arms():
    assert first_order_bound(0.0, 7.0) == 7.0
    assert first_order_bound(3.0, 0.0) == 9.0
    assert first_order_bound(0.0, 0.0) == 0.0


def test_first_order_bound_pinned_value_and_scan():
    cap = first_order_bound(2.0, 9.0)
    assert cap == 19.0
    # every x satisfying x - 2 sqrt(x) - 9 <= 0 sits below the certificate
    xs = np.linspace(0.0, 40.0, 80_001)
    feasible = xs - 2.0 * np.sqrt(xs) - 9.0 <= 0.0
    assert float(np.max(xs[feasible])) <= cap + 1e-3
    assert np.any(~feasible)


def test_first_order_bound_scan_over_random_pairs():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(25):
        b = float(rng.uniform(0.0, 5.0))
        c = float(rng.uniform(0.0, 10.0))
        cap = first_order_bound(b, c)
        xs = np.linspace(0.0, 2.0 * cap + 5.0, 20_001)
        feasible = xs - b * np.sqrt(xs) - c <= 0.0
        assert float(np.max(xs[feasible])) <= cap + 1e-2


def test_first_order_bound_rejects_negatives():
    with pytest.raises(ValueError):
        first_order_bound(-1.0, 2.0)
    with pytest.raises(ValueError):
        first_order_bound(1.0, -2.0)


# ---------------------------------------------------------------------------
# recursion lemma checker
# ---------------------------------------------------------------------------


def test_recursion_all_zero_deltas():
    rc = check_recursion_bound([1.0, 2.0], [1.0, 2.0], 1.0, 1.0, [0.0, 0.0, 0.0])
    assert rc.applicable and rc.holds
    assert rc.lhs == 0.0


def test_recursion_on_traced_two_round_adaptive_run():
    # quadratic with target 1 twice: lam goes 0 -> 1/2 -> 1/2 while the
    # gradient norms are 1 then 0
    learner = DynamicIOMD(INTERVAL, AdaptiveSchedule(beta_sq=1.0))
    lams, gnorms = [], []
    for _ in range(2):
        row = learner.update(QuadraticLoss([1.0], 1.0))
        lams.append(row["lam"])
        gnorms.append(row["gnorm_dual"])
    lam_seq = np.array(lams + [learner.lam])
    g = np.array(gnorms)
    d = math.sqrt(2.0 * INTERVAL.diameter_sq)
    rc = check_recursion_bound(g, g, 1.0, d, 1.0 * lam_seq)
    assert rc.applicable and rc.holds
    assert rc.lhs == pytest.approx(0.5, abs=1e-12)
    assert rc.rhs == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_recursion_fuzz_admissible_sequences_all_pass():
    for seed in range(1000):
        rng = np.random.Generator(np.random.PCG64(60_000 + seed))
        n = int(rng.integers(1, 40))
        a = rng.uniform(0.0, 2.0, n)
        b = rng.uniform(0.0, 2.0, n)
        c = float(rng.uniform(0.0, 3.0))
        d = float(rng.uniform(0.0, 3.0))
        deltas = [0.0]
        for t in range(n):
            cap = d * b[t]
            if deltas[-1] > 0.0:
                cap = min(cap, c * a[t] * a[t] / (2.0 * deltas[-1]))
            frac = float(rng.uniform())
            if frac > 0.8:
                frac = 1.0  # saturate the recursion sometimes
            deltas.append(deltas[-1] + frac * cap)
        rc = check_recursion_bound(a, b, c, d, deltas)
        assert rc.applicable
        assert rc.holds


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # as in the checked code
def _reference_recursion(a, b, c, d, deltas):
    """The former step-by-step loop of ``check_recursion_bound``."""
    a, b, dl = (np.asarray(v, dtype=float) for v in (a, b, deltas))
    if abs(dl[0]) > 1e-12:
        return RecursionCheck(False, False, dl[-1], 0.0, violated_at=0)
    for t in range(a.size):
        cap = d * b[t]
        if dl[t] > 0:
            cap = min(cap, c * a[t] * a[t] / (2.0 * dl[t]))
        tol = 1e-9 * max(1.0, abs(dl[t]) + cap)
        if dl[t + 1] > dl[t] + cap + tol:
            return RecursionCheck(False, False, dl[-1], 0.0, violated_at=t + 1)
    rhs = math.sqrt(d * d * float(b @ b) + c * float(a @ a))
    holds = dl[-1] <= rhs + 1e-9 * max(1.0, rhs)
    return RecursionCheck(True, bool(holds), float(dl[-1]), rhs)


@st.composite
def _recursions(draw):
    """(a, b, c, d, deltas): sequences that follow the recursion, overshoot it
    (sometimes right at its tolerance), or start away from zero."""
    n = draw(st.integers(1, 30))
    weights = st.sampled_from([0.0, 1.0, 1e-7]) | st.floats(0.0, 3.0)
    a = draw(st.lists(weights, min_size=n, max_size=n))
    b = draw(st.lists(weights, min_size=n, max_size=n))
    c = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
    d = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
    deltas = [draw(st.sampled_from([0.0] * 6 + [1e-13, 1e-11]))]
    overshoot = draw(st.sampled_from([None, 0, n // 2, n - 1]))
    for t in range(n):
        cap = d * b[t]
        if deltas[-1] > 0.0:
            cap = min(cap, c * a[t] * a[t] / (2.0 * deltas[-1]))
        tol = 1e-9 * max(1.0, abs(deltas[-1]) + cap)
        frac = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        slack = draw(st.sampled_from([0.0, 0.0, tol]))
        if t == overshoot:
            frac, slack = draw(st.sampled_from([(1.0, 2.0 * tol), (1.3, 0.0), (1.0, 1.01 * tol)]))
        deltas.append(deltas[-1] + frac * cap + slack)
    return a, b, c, d, deltas


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_recursions())
def test_recursion_check_equals_the_step_loop(case):
    got, want = check_recursion_bound(*case), _reference_recursion(*case)
    assert (got.applicable, got.holds, got.violated_at) == \
        (want.applicable, want.holds, want.violated_at)
    assert (float(got.lhs).hex(), float(got.rhs).hex()) == \
        (float(want.lhs).hex(), float(want.rhs).hex())


def test_recursion_reports_premise_violations_distinctly():
    rc = check_recursion_bound([1.0], [1.0], 1.0, 1.0, [0.0, 5.0])
    assert not rc.applicable and not rc.holds
    assert rc.violated_at == 1
    rc = check_recursion_bound([1.0], [1.0], 1.0, 1.0, [0.3, 0.3])
    assert not rc.applicable
    assert rc.violated_at == 0


def test_recursion_validates_shapes_and_signs():
    with pytest.raises(ValueError):
        check_recursion_bound([1.0], [1.0, 2.0], 1.0, 1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        check_recursion_bound([1.0], [1.0], 1.0, 1.0, [0.0])
    with pytest.raises(ValueError):
        check_recursion_bound([-1.0], [1.0], 1.0, 1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        check_recursion_bound([1.0], [1.0], -1.0, 1.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# per-run rows: single-iterate learners
# ---------------------------------------------------------------------------


def test_greedy_on_fixed_loss_is_pure_endpoint_gap():
    env = FixedLossEnv(T=6, seed=3)
    geom = env.default_geometry()
    cols = _run(DynamicIOMD(geom, GreedySchedule()), env)
    rec = RunRecord("greedy", geom, env.losses(), cols["plays"], cols["x_final"],
                    comparators=env.comparators(), values=cols["values"])
    rows = evaluate_bounds(rec)
    assert len(rows) == 1
    row = rows[0]
    assert row.name == "greedy-drift-bound"
    assert row.status == "checked" and row.passed
    # zero drift: the right side collapses to the endpoint gap
    gap = cols["values"][0] - env.loss(6).value(cols["x_final"])
    assert row.rhs == pytest.approx(gap, abs=1e-12)


def test_greedy_row_inapplicable_when_comparators_leave_the_domain():
    # the walk on [-1, 1] leaves the box [-0.4, 0.4]: regret against the
    # outside comparators is not covered by the drift bound
    cell = {"environment": {"kind": "drifting-quadratic", "params": {"tau": 2.0}},
            "geometry": {"mirror": "euclidean",
                         "domain": {"kind": "box", "lo": [-0.4], "hi": [0.4]}},
            "algorithm": {"name": "greedy"}, "T": 3, "seed": 3}
    res = run_cell(cell)
    us = [json.loads(line)["u"][0] for line in res.trace_lines[1:-1]]
    assert any(abs(u) > 0.4 for u in us)
    [row] = res.report["bounds"]
    assert row["name"] == "greedy-drift-bound"
    assert row["status"] == "inapplicable"
    assert "comparators leave the domain" in row["note"]
    assert res.report["bounds_summary"]["failed"] == 0


def _adaptive_record(tau_alg, env, wrap=lambda loss: loss):
    geom = env.default_geometry()
    beta_sq = geom.diameter_sq + geom.gamma * tau_alg
    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq=beta_sq, tau=tau_alg))
    cols = _run(learner, env, wrap)
    return RunRecord(
        "diomd", geom, [wrap(loss) for loss in env.losses()], cols["plays"], cols["x_final"],
        comparators=env.comparators(), values=cols["values"],
        deltas=cols["deltas"], lams=cols["lams"], gnorms=cols["gnorms"],
        lam_final=learner.lam,
        params={"schedule_kind": "adaptive", "beta_sq": beta_sq, "tau": tau_alg},
    )


def test_adaptive_rows_on_drifting_quadratic_all_pass():
    env = DriftingQuadraticEnv(T=40, seed=5, tau=1.0)
    rows = _by_name(evaluate_bounds(_adaptive_record(2.0, env)))
    expected = {"delta-floor", "lam-monotone", "lam-cap", "lam-recursion",
                "path-budget", "drift-arm-endpoint", "drift-arm-gradient"}
    assert set(rows) == expected
    for row in rows.values():
        assert row.status == "checked"
        assert row.passed


def test_adaptive_rows_gate_on_the_path_budget():
    # realized comparator path 1.0 exceeds the configured budget 0.5: the
    # drift-bound arms must report inapplicable, not failed
    env = DriftingQuadraticEnv(T=40, seed=5, tau=1.0)
    rows = _by_name(evaluate_bounds(_adaptive_record(0.5, env)))
    assert rows["path-budget"].status == "inapplicable"
    assert rows["drift-arm-endpoint"].status == "inapplicable"
    assert rows["drift-arm-gradient"].status == "inapplicable"
    for name in ("delta-floor", "lam-monotone", "lam-cap", "lam-recursion"):
        assert rows[name].status == "checked"
        assert rows[name].passed


@pytest.mark.parametrize("tau_alg, status", [(2.0, "checked"), (0.5, "inapplicable")])
def test_composite_rows_gate_on_the_path_budget(tau_alg, status):
    # every round shares one L1 weight: the endpoint arm reads the drift of
    # the quadratic parts and the endpoints of the full losses
    env = DriftingQuadraticEnv(T=40, seed=5, tau=1.0)
    rec = _adaptive_record(tau_alg, env, lambda loss: CompositeLoss(loss, 0.1))
    rows = _by_name(evaluate_bounds(rec))
    assert set(rows) == {"delta-floor", "lam-monotone", "lam-cap", "lam-recursion",
                         "path-budget", "composite-arm-endpoint", "composite-arm-gradient"}
    for name in ("path-budget", "composite-arm-endpoint", "composite-arm-gradient"):
        assert rows[name].status == status
    endpoint, gradient = rows["composite-arm-endpoint"], rows["composite-arm-gradient"]
    assert endpoint.passed and gradient.passed
    first, last = rec.values[0], rec.losses[-1].value(rec.x_final)
    assert endpoint.rhs == 2.0 * (first - last + rec.variability.signed)
    assert endpoint.note == "variable-part drift, full-loss endpoints"
    assert gradient.note == ""


def test_composite_static_mode_row():
    env = DriftingQuadraticEnv(T=40, seed=5, tau=1.0)
    rec = _adaptive_record(2.0, env, lambda loss: CompositeLoss(loss, 0.1))
    rec.params["bound_style"] = "composite-static"
    rows = _by_name(evaluate_bounds(rec))
    assert rows["composite-static-bound"].status == "checked"
    assert rows["composite-static-bound"].passed
    assert "path-budget" not in rows


def test_static_checker_mode_row():
    env = DriftingQuadraticEnv(T=40, seed=9, tau=1.0)
    geom = env.default_geometry()
    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq=geom.diameter_sq))
    cols = _run(learner, env)
    rec = RunRecord(
        "diomd", geom, env.losses(), cols["plays"], cols["x_final"],
        comparators=env.comparators(), values=cols["values"],
        deltas=cols["deltas"], lams=cols["lams"], gnorms=cols["gnorms"],
        lam_final=learner.lam,
        params={"schedule_kind": "adaptive", "beta_sq": geom.diameter_sq,
                "bound_style": "static"},
    )
    rows = _by_name(evaluate_bounds(rec))
    assert "static-mode-bound" in rows
    assert rows["static-mode-bound"].passed
    assert "path-budget" not in rows


def test_doubling_rows_count_epochs():
    env = DriftingQuadraticEnv(T=60, seed=2, tau=3.0)
    geom = env.default_geometry()
    learner = DynamicIOMD(geom, DoublingSchedule())
    cols = _run(learner, env)
    rec = RunRecord(
        "diomd-doubling", geom, env.losses(), cols["plays"], cols["x_final"],
        comparators=env.comparators(), values=cols["values"],
        deltas=cols["deltas"], gnorms=cols["gnorms"], epochs=learner.epoch,
    )
    rows = _by_name(evaluate_bounds(rec))
    assert set(rows) == {"delta-floor", "epoch-count", "doubling-regret"}
    for row in rows.values():
        assert row.status == "checked"
        assert row.passed
    assert rows["epoch-count"].lhs == learner.epoch
    assert rows["epoch-count"].rhs == pytest.approx(
        math.log2(rec.path_len / (math.sqrt(2.0) * math.sqrt(geom.diameter_sq)) + 1.0)
    )


# ---------------------------------------------------------------------------
# per-run rows: combiners
# ---------------------------------------------------------------------------


class _Pin(Learner):
    def __init__(self, geom, point):
        self.geom = geom
        self.point = np.asarray(point, dtype=float)

    def play(self):
        return self.point

    def update(self, loss, path_increment: float = 0.0):
        return {}


def test_abprod_rows_from_extras():
    rng = np.random.Generator(np.random.PCG64(17))
    combo = ABProd(_Pin(INTERVAL, [0.2]), _Pin(INTERVAL, [0.8]), LossRange())
    losses = [AbsoluteLoss([1.0], float(y)) for y in rng.uniform(-0.2, 1.2, 60)]
    extras = {"p_a": [], "loss_a": [], "loss_b": [], "r": [], "k_acc": []}
    for loss in losses:
        row = combo.update(loss)
        for key in extras:
            extras[key].append(row[key])
    rec = RunRecord("abprod", INTERVAL, losses, np.zeros((60, 1)), np.zeros(1),
                    extras=extras)
    rows = _by_name(evaluate_bounds(rec))
    assert set(rows) == {"prod-vs-benchmark", "prod-vs-candidate"}
    for row in rows.values():
        assert row.status == "checked"
        assert row.passed


def test_mlprod_rows_replay_the_combiner():
    rng = np.random.Generator(np.random.PCG64(29))
    d, T = 3, 50
    losses = [LinearLoss(g) for g in rng.uniform(0.0, 1.0, (T, d))]
    rec = RunRecord("adapt-ml-prod", None, losses, np.zeros((T, d)), np.zeros(d),
                    params={"loss_range": (0.0, 1.0)})
    rows = evaluate_bounds(rec)
    assert [r.name for r in rows] == [f"mlprod-expert-{i}" for i in range(d)]
    for row in rows:
        assert row.passed


def test_unknown_algorithm_yields_no_rows():
    rec = RunRecord("mystery", INTERVAL, [], np.zeros((0, 1)), np.zeros(1))
    assert evaluate_bounds(rec) == []


def test_bound_check_serializes():
    row = BoundCheck("demo", 1.0, 2.0, True, note="n")
    assert row.to_dict() == {
        "name": "demo", "lhs": 1.0, "rhs": 2.0, "passed": True,
        "status": "checked", "note": "n",
    }
