"""Lanes: a family of cells that differ only in seed, name and environment
parameters steps as one batch, a group of lanes per step rule.

``prox.implicit_update_lanes`` steps k anchors at once; lane i must equal
``implicit_update`` on row i bit for bit, and a fault must raise what the
first faulty lane raises on its own.  ``runner.run_cell`` steps a family of
``DynamicIOMD`` or ``OGD`` cells as the lanes of one learner
(``learners.stack``); each seed's trace and report must equal what the seed
writes as a family of one, and what it writes with every lane stepped on its
own, through ``implicit_update`` or OGD's step of one loss.  A self-tuning
trace's weights must be the running max of its progress sums.  Every cell's
lines, stacked or as the one lane of a learner that does not stack, are
written from its columns, so they must equal the trace encoder's text of the same rows, and
its report what ``verify`` reads from those lines.  A stacked ``ABProd``
lane must step as a one-lane ``ABProd`` bit for bit, and each cell of a
sweep must write what it writes alone, as must an abprod cell that plays
back the arms earlier cells of its run ran.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_trace_contract import ENVIRONMENTS, FIXED_DIOMD

from driftlab import learners, prox, runner
from driftlab.geometry import (ClippedSimplex, Geometry, GeometryError, Interval,
                               domain_from_dict, entropy_geometry, euclidean_geometry)
from driftlab.learners import ConfigError
from driftlab.losses import LossTable, QuadraticLoss
from driftlab.prox import (SolverError, _interval_quadratics, _quadratic_interval_lanes,
                           implicit_update,
                           implicit_update_lanes)
from driftlab.runner import (ALGORITHMS, _TRACE_ENCODER, _column_lines, expand_config,
                             families, parse_trace, run_cell, trace_to_report)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


# a lane: (a, y, anchor, lam); the anchor is a share of the way from lo to
# hi, or 0.0 or -0.0 where the interval holds zero (else lo)
_A = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))
_Y = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
_AT = st.one_of(st.sampled_from([0.0, 1.0, 0.5, "zero", "-zero"]), st.floats(0.0, 1.0))
_LAM = st.one_of(st.sampled_from([0.0, math.inf, 1e-300]), st.floats(0.0, 1e4))
_LANE = st.tuples(_A, _Y, _AT, _LAM)
_DOMAIN = st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (-0.4, 0.4), (-5.0, -1.0)])
# faults of one lane: each a change to (x, lam) that implicit_update rejects
_FAULTS = {"outside": lambda x, lam, hi: (hi + 1.0, lam),
           "nan-anchor": lambda x, lam, hi: (math.nan, lam),
           "inf-anchor": lambda x, lam, hi: (-math.inf, lam),
           "negative-lam": lambda x, lam, hi: (x, -0.5),
           "nan-lam": lambda x, lam, hi: (x, math.nan)}


def _lanes(lanes, dom):
    lo, hi = dom
    A = np.array([[a] for a, _, _, _ in lanes])
    Y = np.array([y for _, y, _, _ in lanes])
    zero = {"zero": 0.0, "-zero": -0.0} if lo <= 0.0 <= hi else {"zero": lo, "-zero": lo}
    X = np.array([[zero[at] if at in zero else lo + at * (hi - lo)] for _, _, at, _ in lanes])
    lams = np.array([lam for _, _, _, lam in lanes])
    return LossTable({"quadratic"}, A, Y), X, lams


def _assert_lanes_equal_one_lane(out, table, geom, X, lams):
    for i, (x, lam) in enumerate(zip(X, lams.tolist())):
        loss = table[i]
        one = implicit_update(loss, geom, x, lam)
        assert _bits(out.x_next[i]) == _bits(one.x_next), i
        assert _bits(out.values[i]) == _bits(one.value), i
        assert _bits(out.deltas[i]) == _bits(one.delta), i
        assert out.solvers[i] == one.solver, i
        assert _bits(out.gnorms[i]) == _bits(geom.dual_norm(loss.subgradient(x))), i


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lanes=st.lists(_LANE, min_size=1, max_size=6), dom=_DOMAIN)
# lam = 0, a = 0, a clipped step, scores of -0.0 against y = 0, mixed weights
@example(lanes=[(1.0, 0.5, 0.5, 0.0), (0.0, 0.3, 0.2, 2.0), (-0.0, -0.1, 0.9, 0.0),
                (1.0, 3.5, 0.5, 0.01), (-1.0, 0.0, "zero", 1.0), (1.0, 0.0, "-zero", 0.5),
                (1.0, -0.0, "-zero", 0.0), (2.0, 1.0, 0.1, math.inf)], dom=(-1.0, 1.0))
def test_quadratic_interval_lanes_equal_the_one_lane_update_bit_for_bit(lanes, dom):
    table, X, lams = _lanes(lanes, dom)
    geom = euclidean_geometry(Interval(*dom))
    # the batched route itself, and the public call that takes it
    _assert_lanes_equal_one_lane(
        _quadratic_interval_lanes(table.A[:, 0], table.Y, geom, X, lams), table, geom, X, lams)
    _assert_lanes_equal_one_lane(implicit_update_lanes(table, geom, X, lams),
                                 table, geom, X, lams)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lanes=st.lists(st.tuples(_LANE, st.sampled_from([None, *_FAULTS])), min_size=1,
                      max_size=5).filter(lambda ls: any(f for _, f in ls)), dom=_DOMAIN)
def test_quadratic_interval_lanes_raise_what_the_first_faulty_lane_raises(lanes, dom):
    table, X, lams = _lanes([lane for lane, _ in lanes], dom)
    for i, (_, fault) in enumerate(lanes):
        if fault:
            X[i, 0], lams[i] = _FAULTS[fault](X[i, 0], lams[i], dom[1])
    geom = euclidean_geometry(Interval(*dom))
    first = next(i for i, (_, fault) in enumerate(lanes) if fault)
    for i in range(first):  # the lanes before it step cleanly on their own
        implicit_update(table[i], geom, X[i], float(lams[i]))
    with pytest.raises((GeometryError, SolverError)) as one:
        implicit_update(table[first], geom, X[first], float(lams[first]))
    with pytest.raises(type(one.value)) as batch:
        implicit_update_lanes(table, geom, X, lams)
    assert str(batch.value) == str(one.value)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_A, y=_Y, anchors=st.lists(st.tuples(_AT, _LAM), min_size=1, max_size=6),
       dom=_DOMAIN)
# -0.0 and 0.0 anchors against y = 0 and -0.0, lam = 0 and inf, a = 0, a clipped step
@example(a=1.0, y=0.0, anchors=[("zero", 0.0), ("-zero", 0.5), ("-zero", 0.0), (0.5, math.inf),
                                (0.9, 1e-300)], dom=(-1.0, 1.0))
@example(a=-1.0, y=-0.0, anchors=[("-zero", 1.0), ("zero", 0.0), (0.2, 2.0)], dom=(-1.0, 1.0))
@example(a=-0.0, y=0.3, anchors=[("-zero", 0.0), (0.7, 1.0)], dom=(-0.4, 0.4))
@example(a=2.0, y=3.5, anchors=[(0.5, 0.01), (0.1, 0.0)], dom=(0.0, 2.0))
def test_a_shared_quadratic_steps_its_lanes_as_the_one_lane_update_bit_for_bit(
        a, y, anchors, dom):
    loss = QuadraticLoss([a], y)
    _, X, lams = _lanes([(a, y, at, lam) for at, lam in anchors], dom)
    geom = euclidean_geometry(Interval(*dom))
    shared = _interval_quadratics(loss, geom, len(X))
    assert shared is not None  # one loss, k lanes: the batched route
    losses = [loss] * len(X)
    _assert_lanes_equal_one_lane(_quadratic_interval_lanes(*shared, geom, X, lams), losses,
                                 geom, X, lams)
    _assert_lanes_equal_one_lane(implicit_update_lanes(loss, geom, X, lams), losses, geom, X,
                                 lams)


_G = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-3.0, 3.0))
_ENTROPY_LAM = st.one_of(st.sampled_from([0.0, math.inf, 1.0]), st.floats(1e-2, 1e4))
# faults of one entropy lane: each a change to (x, lam) that implicit_update rejects
_ENTROPY_FAULTS = {"nan-anchor": lambda x, lam: (np.full_like(x, np.nan), lam),
                   "off-the-simplex": lambda x, lam: (2.0 * x, lam),
                   "negative-lam": lambda x, lam: (x, -0.5),
                   "nan-lam": lambda x, lam: (x, math.nan),
                   "weight-underflows": lambda x, lam: (x, 5e-324)}


def _entropy_lanes_of(d: int, fault: bool):
    """Lanes of linear losses on a d-expert clipped simplex: (g, weights of
    the anchor's free mass, lam), and with ``fault`` a fault or None each."""
    lane = st.tuples(st.lists(_G, min_size=d, max_size=d),
                     st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), _ENTROPY_LAM)
    if fault:
        lane = st.tuples(lane, st.sampled_from([None, *_ENTROPY_FAULTS]))
        return st.lists(lane, min_size=1, max_size=5).filter(lambda ls: any(f for _, f in ls))
    return st.lists(lane, min_size=1, max_size=5)


def _entropy_table(lanes, d: int, alpha: float):
    dom = ClippedSimplex(d, alpha)
    G = np.array([g for g, _, _ in lanes], dtype=float)
    W = np.array([w if sum(w) > 0 else [1.0] * d for _, w, _ in lanes])
    X = dom.floor + (1.0 - alpha) * W / W.sum(axis=1, keepdims=True)
    lams = np.array([lam for _, _, lam in lanes])
    return LossTable({"linear"}, G), entropy_geometry(dom), X, lams


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.integers(2, 5).flatmap(
    lambda d: st.tuples(st.just(d), _entropy_lanes_of(d, False))),
       alpha=st.sampled_from([0.1, 0.5, 0.9]))
# lam = 0 lanes of tied and signed-zero gradients beside stepping and kept lanes
@example(case=(3, [([0.0, -0.0, 0.0], [1.0, 0.0, 0.0], 0.0),
                   ([1.0, 0.5, 0.5], [0.2, 0.3, 0.5], 2.0),
                   ([-1.0, 3.0, -1.0], [0.0, 0.0, 0.0], 0.0),
                   ([0.3, 0.1, 0.6], [0.5, 0.5, 0.0], math.inf)]), alpha=0.5)
def test_entropy_lanes_of_a_loss_table_equal_the_one_lane_update_bit_for_bit(case, alpha):
    d, lanes = case
    table, geom, X, lams = _entropy_table(lanes, d, alpha)
    # the batched route itself, and the public call that takes it
    assert prox._lanes_route(table, geom, X) is not None
    _assert_lanes_equal_one_lane(prox._entropy_lanes(table.G, geom, X, lams), table, geom, X,
                                 lams)
    _assert_lanes_equal_one_lane(implicit_update_lanes(table, geom, X, lams), table, geom, X,
                                 lams)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=st.integers(2, 5).flatmap(
    lambda d: st.tuples(st.just(d), _entropy_lanes_of(d, True))),
       alpha=st.sampled_from([0.1, 0.5, 0.9]))
def test_entropy_lanes_of_a_loss_table_raise_what_the_first_faulty_lane_raises(case, alpha):
    d, lanes = case
    table, geom, X, lams = _entropy_table([lane for lane, _ in lanes], d, alpha)
    for i, (_, fault) in enumerate(lanes):
        if fault:
            X[i], lams[i] = _ENTROPY_FAULTS[fault](X[i], lams[i])
    first = next(i for i, (_, fault) in enumerate(lanes) if fault)
    for i in range(first):  # the lanes before it step cleanly on their own
        implicit_update(table[i], geom, X[i], float(lams[i]))
    with pytest.raises((GeometryError, SolverError)) as one:
        implicit_update(table[first], geom, X[first], float(lams[first]))
    with pytest.raises(type(one.value)) as batch:
        implicit_update_lanes(table, geom, X, lams)
    assert str(batch.value) == str(one.value)


_ETA = st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(1e-3, 1e3))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lanes=st.lists(st.tuples(_A, _Y, _AT), min_size=1, max_size=6), dom=_DOMAIN, eta=_ETA)
# a clipped step, y = 0 against -0.0 and 0.0 anchors, a = 0
@example(lanes=[(1.0, 3.5, 0.5), (1.0, 0.0, "-zero"), (-1.0, -0.0, "-zero"),
                (1.0, 0.0, "zero"), (0.0, 0.3, 0.2), (-0.0, -0.1, 0.9)],
         dom=(-1.0, 1.0), eta=1.0)
def test_ogd_lanes_equal_the_one_lane_update_bit_for_bit(lanes, dom, eta):
    table, X, _ = _lanes([(a, y, at, 0.0) for a, y, at in lanes], dom)
    geom = euclidean_geometry(Interval(*dom))
    ogds = [learners.OGD(geom, [eta], x0=x) for x in X]
    batch = learners.stack(ogds)
    assert batch is not None
    row = batch.step(table, np.zeros(len(X)))
    for i, ogd in enumerate(ogds):
        loss, x = table[i], X[i]
        g = loss.subgradient(x)
        one = ogd.update(loss)  # one shared loss, one lane
        # each lane against x' = proj(x - eta * g) of its own loss
        assert _bits(batch.x[i]) == _bits(ogd.x[0]) == _bits(geom.project(x - eta * g)), i
        assert _bits(row["value"][i]) == _bits(one["value"]) == _bits(loss.value(x)), i
        assert _bits(row["gnorm_dual"][i]) == _bits(one["gnorm_dual"]), i
        assert _bits(one["gnorm_dual"]) == _bits(geom.dual_norm(g)), i
        assert row["solver"][i] == one["solver"], i
        assert row["delta"] is one["delta"] is None and row["lam"] is one["lam"] is None, i


# any float, non-finite ones included, and the ones whose text is easy to get
# wrong: signed zero, the least subnormal, exponent forms, 0.1 + 0.2, integral
_FLOAT = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 3.0, -2.0, 1e22]),
                   st.floats())
# a lane's row: value, gnorm_dual, delta, lam, loss a, loss y, u, x, t, epoch,
# restart and solver
_ROW = st.tuples(_FLOAT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _FLOAT,
                 st.integers(0, 2 ** 62), st.integers(0, 2 ** 62), st.booleans(),
                 st.sampled_from(["closed-form", "identity", "restart", "gradient-step"]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=5), ogd=st.booleans(), doubling=st.booleans())
@example(rows=[(-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 3.0, -2.0, 0.0, 1, 0, False, "closed-form"),
               (math.nan, 1.0, 0.0, math.inf, -math.inf, 1e-300, 0.5, -0.5, 2, 1, True,
                "restart"),
               (0.0, -0.0, -0.0, 1.0, 0.0, -0.0, 0.0, -0.0, 3, 1, False, "identity")],
         ogd=False, doubling=True)
@example(rows=[(0.5, 1.0, 0.0, 0.0, 1.0, 0.25, 0.25, 0.0, 1, 0, False, "gradient-step")],
         ogd=True, doubling=False)
def test_lane_lines_equal_the_trace_encoder_bit_for_bit(rows, ogd, doubling):
    value, gnorm, delta, lam, a, y, u, x, t, epoch, restart, solver = map(list, zip(*rows))
    records = [{"value": r[0], "gnorm_dual": r[1], "delta": None if ogd else r[2],
                "lam": None if ogd else r[3], "loss": {"a": [r[4]], "kind": "quadratic",
                                                       "y": r[5]},
                "u": [r[6]], "x": [r[7]], "t": r[8], "solver": r[11],
                **({"epoch": r[9], "restart": r[10]} if doubling else {})} for r in rows]
    cols = {"value": np.array(value), "gnorm_dual": np.array(gnorm),
            "delta": None if ogd else np.array(delta), "lam": None if ogd else np.array(lam),
            "loss": {"a": np.array(a)[:, None], "kind": "quadratic", "y": np.array(y)},
            "u": np.array(u)[:, None], "x": np.array(x)[:, None], "t": np.array(t),
            "solver": solver}
    if doubling:
        cols.update(epoch=np.array(epoch), restart=np.array(restart))
    assert _column_lines(cols) == [_TRACE_ENCODER.encode(rec) for rec in records]


# a row key's values, all of one type, as a learner's step returns them: a
# (1,) array of floats (signed zeros, the least subnormal, non-finite ones),
# ints or flags, a list of labels, or null
_COLUMN = st.sampled_from([_FLOAT, st.integers(-2 ** 62, 2 ** 62), st.booleans(),
                           st.text(max_size=3), st.none()])
_FINITE = st.floats(-1e6, 1e6)
_KEYS = ("eta", "k_acc", "lam", "restart", "solver")


@st.composite
def _scripted_rounds(draw):
    """(rows, plays, loss a, loss y, comparators) of T rounds in d dimensions."""
    T, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def rounds(values, width=None):
        values = values if width is None else st.lists(values, min_size=width, max_size=width)
        return draw(st.lists(values, min_size=T, max_size=T))

    cols = {key: rounds(draw(_COLUMN)) for key in _KEYS}
    rows = [{key: col[i] for key, col in cols.items()} for i in range(T)]
    return (rows, rounds(_FLOAT, d), rounds(_FINITE, d), rounds(_FINITE),
            rounds(_FLOAT, d))


class _Scripted:
    """A one-lane learner that plays and writes given rounds, and the loss
    table of its environment; the last play is also the final one."""

    def __init__(self, rows, plays, a, y):
        self.rows, self.plays, self.t = rows, plays, 0
        self.table = LossTable({"quadratic"}, np.array(a), np.array(y))

    @property
    def x(self):
        return np.array([self.plays[min(self.t, len(self.plays) - 1)]])

    def step(self, loss, path_increments):
        self.t += 1
        return {key: v if v is None else [v] if type(v) is str else np.array([v])
                for key, v in self.rows[self.t - 1].items()}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rounds=_scripted_rounds())
# 1, 1.0 and True in columns of their own, next to null and labels
@example(rounds=([{"eta": -0.0, "k_acc": 1, "lam": None, "restart": True, "solver": "restart"},
                  {"eta": 1.0, "k_acc": 0, "lam": None, "restart": False, "solver": "1"},
                  {"eta": math.nan, "k_acc": -2 ** 62, "lam": None, "restart": True,
                   "solver": ""}],
                 [[-0.0], [5e-324], [math.inf]], [[1.0], [-0.0], [2.0]], [0.0, -0.0, 1e16],
                 [[0.0], [-math.inf], [math.nan]]))
def test_one_lane_lines_equal_the_trace_encoder_bit_for_bit(rounds):
    rows, plays, a, y, us = rounds
    scripted = _Scripted(rows, plays, a, y)
    lane = runner._Lanes(scripted, [scripted.table])
    for _ in rows:
        lane.update(np.zeros(1))
    cols, final = lane.lane(0)
    n = len(rows)
    lines = _column_lines({**cols, "loss": cols["loss"].columns(), "t": np.arange(1, n + 1),
                           "u": np.array(us)})
    records = [{**row, "loss": scripted.table[i].to_dict(), "x": plays[i], "t": i + 1,
                "u": us[i]} for i, row in enumerate(rows)]
    assert lines == [_TRACE_ENCODER.encode(rec) for rec in records]
    assert _bits(final["x_final"]) == _bits(plays[-1])


def _specs() -> list:
    return [*ALGORITHMS, FIXED_DIOMD, {"name": "diomd", "x0": [0.5]},
            {"name": "diomd-doubling", "x0": [-0.25]}]


def _family(env: dict, spec) -> list:
    return expand_config({"environment": env, "T": 24, "seeds": [3, 0, 11, 4, 7],
                          "algorithm": spec})


@pytest.mark.parametrize("spec", _specs(), ids=str)
@pytest.mark.parametrize("env", ENVIRONMENTS.values(), ids=list(ENVIRONMENTS))
def test_each_seed_of_a_family_writes_what_it_writes_alone(env, spec, monkeypatch):
    cells = _family(env, spec)
    try:
        alone = [run_cell([cell])[0] for cell in cells]
    except ConfigError:  # the algorithm does not run on this environment
        return
    assert families(cells) == [cells]
    together = run_cell(cells)
    # and what it writes with every lane stepped on its own: each prox step
    # through implicit_update, each OGD step as that of one loss
    monkeypatch.setattr(prox, "_lanes_route", lambda *args: None)
    monkeypatch.setattr(learners, "_interval_quadratics", lambda *args: None)
    own = [run_cell([cell])[0] for cell in cells]
    for a, b, c in zip(together, alone, own):
        assert a.name == b.name == c.name
        assert a.trace_lines == b.trace_lines == c.trace_lines, a.name
        assert a.report == b.report == c.report, a.name


@pytest.mark.parametrize("spec", _specs(), ids=str)
@pytest.mark.parametrize("env", ENVIRONMENTS.values(), ids=list(ENVIRONMENTS))
def test_a_lane_family_reports_what_verify_reads_from_its_lines(env, spec, monkeypatch):
    cells = _family(env, spec)
    try:
        for cell in cells:
            runner._build(cell)
    except ConfigError:  # the algorithm does not run on this environment
        return
    lanes = []
    lane_result = runner._lane_result
    monkeypatch.setattr(runner, "_lane_result",
                        lambda *args: lanes.append(1) or lane_result(*args))
    results = run_cell(cells)
    assert len(lanes) == len(cells)
    for result in results:
        text = "\n".join(result.trace_lines) + "\n"
        assert trace_to_report(parse_trace(text)) == result.report, result.name


def _oracle_weights(records: list) -> list:
    """Each epoch's self-tuning weights, from the trace's deltas alone: in
    an epoch that opens at row s, the weight of row s + j is the running
    max of 0 and the epoch's progress sums over beta_sq, the next beyond the
    epoch's last row.  A doubling epoch i has beta_sq = D^2 + gamma * Q_i,
    Q_i = sqrt(2) * D * 2^i."""
    config, rows = records[0]["config"], records[1:-1]
    geom = Geometry(config["geometry"]["mirror"], domain_from_dict(config["geometry"]["domain"]))
    delta = np.array([row["delta"] for row in rows])
    starts = [i for i, row in enumerate(rows) if i == 0 or row.get("restart")]
    weights = []
    for epoch, (s, e) in enumerate(zip(starts, [*starts[1:], len(rows)])):
        beta_sq = config["algorithm"].get("beta_sq")
        if beta_sq is None:
            q = math.sqrt(2.0) * math.sqrt(geom.diameter_sq) * 2.0 ** epoch
            beta_sq = geom.diameter_sq + geom.gamma * q
        weights.append(np.maximum.accumulate([0.0, *np.cumsum(delta[s:e]) / beta_sq]))
    return weights


_SELF_TUNING = ["diomd", "diomd-doubling", {"name": "diomd", "tau": 4.0, "x0": [0.5]},
                {"name": "diomd-doubling", "x0": [-0.25]}]
_RESTARTING = {"kind": "drifting-quadratic", "params": {"tau": 8.0}}


@pytest.mark.parametrize("spec", _SELF_TUNING, ids=str)
@pytest.mark.parametrize("env", [_RESTARTING, *ENVIRONMENTS.values()],
                         ids=["restarting", *ENVIRONMENTS])
def test_self_tuning_weights_are_the_running_max_of_the_progress_sums(env, spec):
    cells = expand_config({"environment": env, "T": 40, "seeds": [3, 0, 11, 4, 7],
                           "algorithm": spec})
    try:
        results = run_cell(cells) + [run_cell([cell])[0] for cell in cells]
    except ConfigError:  # the start point does not fit this environment
        return
    restarts = 0
    for result in results:  # lanes of one family, then each cell as a family of one
        records = [json.loads(line) for line in result.trace_lines]
        weights = _oracle_weights(records)
        lam = [row["lam"] for row in records[1:-1]]
        assert _bits(lam) == _bits(np.concatenate([w[:-1] for w in weights])), result.name
        assert _bits(records[-1]["lam_final"]) == _bits(weights[-1][-1]), result.name
        restarts += len(weights) - 1
    assert restarts > 0 or env is not _RESTARTING or "doubling" not in str(spec)


def test_interval_diomd_families_step_as_lanes(monkeypatch):
    steps = []
    batch = prox._quadratic_interval_lanes
    monkeypatch.setattr(prox, "_quadratic_interval_lanes",
                        lambda a, *args: steps.append(len(a)) or batch(a, *args))
    for spec in ("greedy", FIXED_DIOMD, "diomd", "diomd-doubling"):
        steps.clear()
        run_cell(_family(ENVIRONMENTS["drifting-quadratic"], spec))
        assert steps == [5] * 24, spec
    updates = []
    for cls in (learners.OGD, learners.DynamicIOMD):
        monkeypatch.setattr(cls, "update", lambda self, *args, _update=cls.update: (
            updates.append(type(self)) or _update(self, *args)))
    steps.clear()
    # ogd lanes take a gradient step: no prox, and no OGD.update
    run_cell(_family(ENVIRONMENTS["drifting-quadratic"], "ogd"))
    assert steps == [] and updates == []
    # an expert family steps as lanes too, each lane's linear loss a row of one batch
    solves = []
    one = prox.implicit_update
    monkeypatch.setattr(prox, "implicit_update", lambda *args: solves.append(1) or one(*args))
    run_cell(_family(ENVIRONMENTS["shifting-experts"], "diomd"))
    assert steps == [] and updates == [] and solves == []


def test_a_lane_family_checks_its_anchors_and_weights_once(monkeypatch):
    # stack checks the points and weights it joins; each step keeps them
    # sound, so the batched prox step does not check them again every round
    checks = []
    sound = prox._sound_lanes
    for module in (prox, learners):
        monkeypatch.setattr(module, "_sound_lanes",
                            lambda *args: checks.append(len(args[1])) or sound(*args))
    run_cell(_family(ENVIRONMENTS["drifting-quadratic"], "diomd"))
    assert checks == [5]


def test_a_family_whose_lanes_raise_reruns_one_cell_at_a_time(monkeypatch):
    cells = _family(ENVIRONMENTS["drifting-quadratic"], "diomd-doubling")
    alone = [run_cell([cell])[0] for cell in cells]
    step = learners.DynamicIOMD.step

    def fail_at_round_9(self, loss, path_increments):
        if len(self.x) > 1 and fail_at_round_9.calls == 8:
            raise SolverError("injected")
        fail_at_round_9.calls += len(self.x) > 1
        return step(self, loss, path_increments)

    fail_at_round_9.calls = 0
    monkeypatch.setattr(learners.DynamicIOMD, "step", fail_at_round_9)
    again = run_cell(cells)
    assert fail_at_round_9.calls == 8
    assert [r.trace_lines for r in again] == [r.trace_lines for r in alone]
    assert [r.report for r in again] == [r.report for r in alone]


@pytest.mark.parametrize("bad, message", [
    ({1: -1, 3: "4"}, "config field 'environment.params': expected non-negative integer"),
    ({1: "4", 3: -1}, "config field 'seed': must be an integer"),
])
def test_a_family_raises_the_error_of_its_first_failing_cell(bad, message):
    cells = _family(ENVIRONMENTS["fixed-loss"], "diomd")
    for i, seed in bad.items():
        cells[i] = {**cells[i], "seed": seed}
    assert families(cells) == [cells]
    with pytest.raises(ConfigError) as exc:
        run_cell(cells)
    assert str(exc.value) == message


def _beside_the_family_key(cell: dict) -> dict:
    """A cell without what may differ inside a family: seed, name and environment.params."""
    env = {k: v for k, v in cell["environment"].items() if k != "params"}
    return {**{k: v for k, v in cell.items() if k not in ("seed", "name")}, "environment": env}


def test_families_group_the_cells_that_differ_only_in_seed_name_and_environment_params():
    config = {"environment": ENVIRONMENTS["drifting-quadratic"], "T": 10, "seeds": [0, 1],
              "algorithms": ["greedy", "ogd", "greedy", {"name": "greedy", "x0": [0.0]}],
              "sweep": {"environment.params.tau": [0.5, 4.0]}}
    cells = runner.expand_sweep(config)
    groups = families(cells)
    # a spec's seeds at both sweep points, wherever they stand; equal specs are one
    assert [len(f) for f in groups] == [8, 4, 4]
    index = {id(cell): i for i, cell in enumerate(cells)}
    at = [[index[id(cell)] for cell in f] for f in groups]
    # every cell in exactly one family, in cell order within it, and the
    # families in order of their first cell
    assert sorted(i for f in at for i in f) == list(range(len(cells)))
    assert all(f == sorted(f) for f in at) and [f[0] for f in at] == sorted(f[0] for f in at)
    assert all(len({c["name"] for c in f}) == len(f) for f in groups)
    keys = [_beside_the_family_key(f[0]) for f in groups]
    assert all(_beside_the_family_key(c) == key for f, key in zip(groups, keys) for c in f)
    assert all(a != b for i, a in enumerate(keys) for b in keys[i + 1:])


_SWEPT = ["greedy", "diomd", FIXED_DIOMD, "diomd-doubling", "ogd",
          {"name": "abprod", "candidate": "diomd"}]


@pytest.mark.parametrize("sweep, lanes", [({"environment.params.tau": [0.5, 4.0]}, [4]),
                                          ({"environment.params.lo": [-1.0, -0.5]}, [2, 2])],
                         ids=["tau", "lo"])
def test_each_cell_of_a_sweep_writes_what_it_writes_alone(sweep, lanes, monkeypatch):
    cells = runner.expand_sweep({"environment": ENVIRONMENTS["drifting-quadratic"], "T": 24,
                                 "seeds": [3, 0], "algorithms": _SWEPT, "sweep": sweep})
    groups = families(cells)
    assert [len(f) for f in groups] == [4] * len(_SWEPT)
    sizes = []
    stacked = runner._Lanes
    monkeypatch.setattr(runner, "_Lanes", lambda learner, tables: (
        sizes.append(len(tables)) or stacked(learner, tables)))
    together = [result for f in groups for result in run_cell(f)]
    # a tau sweep keeps the domain, so a family steps as one group of lanes;
    # a sweep of lo moves it, so each point's seeds step as a group
    assert sizes == lanes * len(_SWEPT)
    alone = {cell["name"]: run_cell([cell])[0] for cell in cells}
    assert sorted(alone) == sorted(result.name for result in together)
    for result in together:
        assert result.trace_lines == alone[result.name].trace_lines, result.name
        assert result.report == alone[result.name].report, result.name


_CHILD = st.sampled_from(["greedy", FIXED_DIOMD, "diomd", "diomd-doubling", "ogd"])


@settings(max_examples=120, derandomize=True, deadline=None)
@given(env=st.sampled_from(sorted(ENVIRONMENTS)), candidate=_CHILD, benchmark=_CHILD,
       seeds=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
       T=st.integers(1, 30), hi=st.sampled_from([2.0, 4.0]))
def test_a_stacked_abprod_lane_steps_as_a_one_lane_abprod_bit_for_bit(
        env, candidate, benchmark, seeds, T, hi):
    cells = expand_config({"environment": ENVIRONMENTS[env], "T": T, "seeds": seeds,
                           "algorithm": {"name": "abprod", "candidate": candidate,
                                         "benchmark": benchmark, "loss_range": [0.0, hi]}})
    try:
        runs = [runner._build(cell) for cell in cells]
    except ConfigError:  # ogd off the euclidean geometry
        return
    alone = [runner._build(cell).learner for cell in cells]
    lanes = learners.stack([run.learner for run in runs])
    assert lanes is not None
    tables = [run.env.loss_table() for run in runs]
    rounds, t = LossTable.rounds(tables), iter(range(T))

    def step(path_increments):
        r = next(t)
        X, row = lanes.x, lanes.step(next(rounds), path_increments)
        for i, one in enumerate(alone):
            x, one_row = one.play(), one.update(tables[i][r], float(path_increments[i]))
            assert _bits(X[i]) == _bits(x), (r, i)
            assert set(row) == set(one_row)
            for key, col in row.items():
                assert (col is None) == (one_row[key] is None), key
                assert col is None or _bits(col[i]) == _bits(one_row[key]), (r, i, key)

    runner.play_rounds(step, [run.env.comparators() for run in runs], runs[0].geom.primal_norm)
    for i, one in enumerate(alone):  # the final play
        assert _bits(lanes.x[i]) == _bits(one.play()), i


@pytest.mark.parametrize("candidate", ["scaffold", "adapt-ml-prod"])
def test_an_abprod_whose_candidate_has_no_lanes_runs_one_cell_at_a_time(candidate, monkeypatch):
    cells = _family(ENVIRONMENTS["shifting-experts"], {"name": "abprod",
                                                       "candidate": {"name": candidate}})
    assert learners.stack([runner._build(cell).learner for cell in cells]) is None
    groups = []
    lanes = runner._Lanes
    monkeypatch.setattr(runner, "_Lanes", lambda learner, tables: (
        groups.append((learner, len(tables))) or lanes(learner, tables)))
    together = run_cell(cells)
    assert [k for _, k in groups] == [1] * len(cells)
    assert all(type(learner).__name__ == "ABProd" for learner, _ in groups)
    for result, cell in zip(together, cells):
        alone = run_cell([cell])[0]
        assert (result.trace_lines, result.report) == (alone.trace_lines, alone.report)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_algorithm_steps_its_one_lane_as_its_update_bit_for_bit(name):
    # the first environment where it builds, stepped as the runner steps it
    # (x, then step on a one-row LossTable) beside a twin that plays and updates
    for env in ENVIRONMENTS.values():
        cell = expand_config({"environment": env, "T": 12, "seeds": [5], "algorithm": name})[0]
        try:
            run, twin = runner._build(cell), runner._build(cell).learner
            break
        except ConfigError:
            continue
    table = run.env.loss_table()
    rounds, t = LossTable.rounds([table]), iter(range(len(table)))

    def step(path_increments):
        r = next(t)
        x = run.learner.x
        assert x.shape == (1, run.geom.domain.dim), r
        assert _bits(x[0]) == _bits(run.learner.play()) == _bits(twin.play()), r
        cols = run.learner.step(next(rounds), path_increments)
        row = twin.update(table[r], float(path_increments[0]))
        assert set(cols) == set(row), r
        for key, col in cols.items():
            if col is None or type(col) is list:
                assert col == (None if col is None else [row[key]]), (r, key)
            else:
                assert col.shape == (1,) and type(col.item()) is type(row[key]), (r, key)
                assert _bits(col[0]) == _bits(row[key]), (r, key)

    runner.play_rounds(step, [run.env.comparators()], run.geom.primal_norm)
    assert _bits(run.learner.x[0]) == _bits(twin.play())


# arm replays: an abprod cell plays back the arm an earlier cell of its grid ran

# every algorithm; the combiners' ranges hold the losses of every grid below
_WIDE = {"loss_range": [0.0, 8.0]}
_ARM_SPECS = [*ALGORITHMS, FIXED_DIOMD, {"name": "diomd", "tau": 2.0},
              {"name": "scaffold", "base": "greedy", **_WIDE},
              {"name": "scaffold", "base": FIXED_DIOMD, **_WIDE},
              {"name": "abprod", "candidate": "diomd", **_WIDE}]
# the specs that, by name alone, play on expert environments only
_EXPERTS_ONLY = ("scaffold", "adapt-ml-prod", "abprod")
_LINE = [{"mirror": "euclidean", "domain": {"kind": "interval", "lo": -2.0, "hi": 2.0}},
         {"domain": {"kind": "ball", "center": [0.0], "radius": 0.5}}]
# kind: (params, sweeps, geometry overrides, start points)
_GRIDS = {
    "drifting-quadratic": ({"tau": 2.0}, [{"environment.params.tau": [0.5, 4.0]}], _LINE,
                           [[0.5], [-0.25]]),
    "lower-bound": ({"sigma": 0.8}, [{"environment.params.sigma": [0.8, 1.0]}], _LINE,
                    [[0.5], [-0.25]]),
    "fixed-loss": ({}, [{"environment.params.hi": [1.0, 2.0]}], _LINE, [[0.5], [-0.25]]),
    "shifting-experts": ({"d": 3, "shifts": 1}, [{"environment.params.shifts": [1, 2]}],
                         [{"domain": {"kind": "clipped-simplex", "d": 3, "alpha": 0.3}},
                          {"mirror": "euclidean", "domain": {"kind": "box", "lo": [0.0] * 3,
                                                             "hi": [1.0] * 3}}],
                         [[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]]),
    "alternating-experts": ({}, [], [{"domain": {"kind": "clipped-simplex", "d": 2,
                                                 "alpha": 0.3}},
                                     {"mirror": "euclidean", "domain": {
                                         "kind": "box", "lo": [0.0] * 2, "hi": [1.0] * 2}}],
                            [[0.5, 0.5], [0.75, 0.25]]),
}


def _as_spec(spec) -> dict:
    return {"name": spec} if isinstance(spec, str) else spec


def _started(spec, starts: list, start):
    """``spec`` with start point ``starts[start]``, if it takes one."""
    if None in (spec, start) or "x0" not in ALGORITHMS[_as_spec(spec)["name"]][5]:
        return spec
    return {**_as_spec(spec), "x0": starts[start]}


@st.composite
def _arm_grids(draw):
    """(subcommand, config) of a grid: arms listed before an abprod, decoys
    that differ from an arm in their start point, and arms listed after it."""
    kind = draw(st.sampled_from(sorted(_GRIDS)))
    params, sweeps, geometries, starts = _GRIDS[kind]
    pool = [spec for spec in [None, *_ARM_SPECS]
            if "experts" in kind or spec not in (None, *_EXPERTS_ONLY)]
    abprod, arms = {"name": "abprod", **_WIDE}, {}
    for role, default in runner._ARMS.items():
        spec = draw(st.sampled_from(pool))
        spec = _started(spec, starts, draw(st.sampled_from([None, 0, 1])))
        if spec is not None:
            abprod[role] = spec
        arms[role] = default["name"] if spec is None else spec
    before, after = [], []
    for role, arm in arms.items():
        place = draw(st.sampled_from(["before", "after", "decoy", "none"]))
        if place == "decoy":  # the arm with another start point, or none
            start = _as_spec(arm).get("x0")
            arm = _started({k: v for k, v in _as_spec(arm).items() if k != "x0"}, starts,
                           None if start is not None else draw(st.sampled_from([0, 1])))
        (after if place == "after" else before if place != "none" else []).append(arm)
    config = {"environment": {"kind": kind, "params": params},
              "T": draw(st.sampled_from([1, 2, 5, 17])),
              "seeds": draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True)),
              "algorithms": [*draw(st.permutations(before)), abprod, *after]}
    geometry = draw(st.sampled_from([None, *geometries]))
    if geometry is not None:
        config["geometry"] = geometry
    sweep = draw(st.sampled_from([None, *sweeps]))
    if sweep is not None:
        config["sweep"] = sweep
    return ("run" if sweep is None else "sweep"), config


def _replays(monkeypatch) -> dict:
    """Each abprod cell that plays back an arm, with its (candidate,
    benchmark) as replays or not, recorded as the cell is built; an arm that
    is swapped out must never step."""
    swaps = {}
    replay = runner._Record.replay

    def record(self, cell, combiner):
        arms = combiner.a, combiner.b
        replay(self, cell, combiner)
        replayed = tuple(type(arm) is runner._Replay for arm in (combiner.a, combiner.b))
        if any(replayed):
            swaps[cell["name"]] = replayed
        for old, new in zip(arms, (combiner.a, combiner.b)):
            if old is not new:
                old.step = lambda *args: pytest.fail("a replayed arm stepped")

    monkeypatch.setattr(runner._Record, "replay", record)
    return swaps


def _reused(specs: list) -> dict:
    """Whether each abprod in ``specs`` plays back its (candidate,
    benchmark): an arm is replayed where its spec is listed before the abprod."""
    out = {}
    for i, spec in enumerate(specs):
        spec = _as_spec(spec)
        if spec["name"] == "abprod":
            earlier = [_as_spec(s) for s in specs[:i]]
            out[i] = tuple(_as_spec(spec.get(role, default)) in earlier
                           for role, default in runner._ARMS.items())
    return out


def _written_as_alone(cells: list, out) -> None:
    """Every file in ``out`` is what its cell writes run alone."""
    alone = [run_cell([cell])[0] for cell in cells]
    written = {p.name: p.read_text() for p in out.iterdir()}
    expected = {"summary.csv": runner.summarize([res.report for res in alone])}
    for res in alone:
        expected[f"{res.name}.trace.jsonl"] = res.text()
        expected[f"{res.name}.report.json"] = runner.report_json(res.report)
    assert sorted(written) == sorted(expected)
    for name, text in expected.items():
        assert written[name] == text, name


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grid=_arm_grids())
@example(grid=("sweep", {"environment": {"kind": "shifting-experts",
                                         "params": {"d": 3, "shifts": 1}},
                         "T": 17, "seeds": [0, 4], "sweep": {"environment.params.shifts": [1, 2]},
                         "algorithms": ["scaffold", {"name": "greedy", "x0": [0.5, 0.25, 0.25]},
                                        "greedy", "abprod", "diomd"]}))
def test_an_abprod_plays_back_the_arms_earlier_cells_ran_and_writes_what_it_writes_alone(
        grid, tmp_path_factory):
    from driftlab import cli

    command, config = grid
    cells = runner.expand_sweep(config)
    out = tmp_path_factory.mktemp("grid")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    with pytest.MonkeyPatch.context() as monkeypatch:
        swaps = _replays(monkeypatch)
        code = cli.main([command, str(cfg), "--output-dir", str(out / "out")])
    if code != 0:  # some cell does not run here, and fails alone too
        with pytest.raises((ConfigError, runner.TraceError)):
            for cell in cells:
                run_cell([cell])
        return
    _written_as_alone(cells, out / "out")
    reused = _reused(config["algorithms"])
    index = {json.dumps(_as_spec(s), sort_keys=True): i
             for i, s in reversed(list(enumerate(config["algorithms"])))}
    expected = {cell["name"]: reused[index[json.dumps(_as_spec(cell["algorithm"]),
                                                      sort_keys=True)]]
                for cell in cells if _as_spec(cell["algorithm"])["name"] == "abprod"}
    assert swaps == {name: arms for name, arms in expected.items() if any(arms)}


_QUAD = {"environment": ENVIRONMENTS["drifting-quadratic"], "T": 9}


@pytest.mark.parametrize("arm, abprod, replayed", [
    ({**_QUAD, "seeds": [0, 1], "algorithms": ["diomd", "greedy"]}, {}, True),
    ({**_QUAD, "seeds": [1]}, {}, False),
    ({**_QUAD, "seeds": [0], "algorithm": {"name": "diomd", "x0": [0.5]}}, {}, False),
    ({**_QUAD, "seeds": [0], "geometry": _LINE[0]}, {}, False),
    ({**_QUAD, "seeds": [0], "T": 8}, {}, False),
    ({**_QUAD, "seeds": [0], "algorithm": {"name": "diomd", "tau": 0.0}}, {}, False),
], ids=["same", "seed", "x0", "geometry", "T", "spec"])
def test_an_arm_is_replayed_only_on_its_own_cell_and_only_after_it_ran(
        arm, abprod, replayed, tmp_path, monkeypatch):
    from driftlab import cli

    arm = {"algorithm": "diomd", **arm}
    arms = expand_config(arm)
    abprods = expand_config({**_QUAD, "seeds": [0],
                             "algorithm": {"name": "abprod", "candidate": "diomd"}})
    swaps = _replays(monkeypatch)
    for order, cells in (("after", arms + abprods), ("before", abprods + arms)):
        swaps.clear()
        cli._execute(cells, 1, tmp_path / order)
        _written_as_alone(cells, tmp_path / order)
        # only the abprod after its arm's cell plays it back
        expected = replayed and order == "after"
        assert swaps == {cell["name"]: (True, "greedy" in str(arm))
                         for cell in abprods if expected}, order


def test_replayed_arms_stack_apart_from_stepped_ones(monkeypatch):
    # a family whose first abprod plays back its arm and whose second steps
    # it: the two group apart, each as lanes of one, and nothing reruns
    arms = expand_config({**_QUAD, "seeds": [0], "algorithm": "diomd"})
    abprods = expand_config({**_QUAD, "seeds": [0, 1],
                             "algorithm": {"name": "abprod", "candidate": "diomd"}})
    built, sizes = [], []
    build, lanes = runner._build, runner._Lanes
    monkeypatch.setattr(runner, "_build", lambda cell: built.append(cell["name"]) or build(cell))
    monkeypatch.setattr(runner, "_Lanes", lambda learner, tables: (
        sizes.append(type(getattr(learner, "a", learner)).__name__) or lanes(learner, tables)))
    with runner.reusing_arms([arms, abprods]):
        run_cell(arms)
        sizes.clear()
        together = run_cell(abprods)
    assert built == [cell["name"] for cell in arms + abprods]
    assert sizes == ["_Replay", "DynamicIOMD"]
    for result, cell in zip(together, abprods):
        alone = run_cell([cell])[0]
        assert (result.trace_lines, result.report) == (alone.trace_lines, alone.report)


def _expert_shift() -> dict:
    from test_golden import _WORKLOADS

    return _WORKLOADS.expert_shift(_WORKLOADS.GOLDEN_SEED)


def test_expert_shifts_abprod_plays_back_its_scaffold(tmp_path, monkeypatch):
    from driftlab import cli, combiners

    steps, running = [], []
    step, run = combiners.Scaffold.step, cli.run_cell
    monkeypatch.setattr(cli, "run_cell", lambda cells: running.append(
        _as_spec(cells[0]["algorithm"])["name"]) or run(cells))
    monkeypatch.setattr(combiners.Scaffold, "step", lambda self, *args: steps.append(
        running[-1]) or step(self, *args))
    cfg = tmp_path / "expert-shift.json"
    cfg.write_text(json.dumps(_expert_shift()))
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    # the scaffold cell's 512 rounds; its abprod steps no scaffold again
    assert running == ["diomd", "adapt-ml-prod", "scaffold", "abprod"]
    assert steps == ["scaffold"] * 512


def test_a_grid_with_no_abprod_records_nothing(tmp_path, monkeypatch):
    from driftlab import cli

    records, keys = [], []
    record, key = runner._Record, runner._arm_key
    monkeypatch.setattr(runner, "_Record", lambda jobs: records.append(jobs) or record(jobs))
    monkeypatch.setattr(runner, "_arm_key", lambda *args: keys.append(args) or key(*args))
    config = _expert_shift()
    config["algorithms"] = [spec for spec in config["algorithms"] if spec["name"] != "abprod"]
    cfg = tmp_path / "no-abprod.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert records == [] and keys == [] and runner._RECORD.get() is None
