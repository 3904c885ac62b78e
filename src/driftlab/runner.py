"""Cell execution and replay: traces, reports, and grid summaries.

A cell is one (environment, algorithm, seed) run.  Executing a cell yields a
line-oriented JSON trace, written from the run's columns, and a report that
the same code computes from the parsed trace alone, so re-deriving the report
from the written file (``verify``) matches the original byte for byte.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import RunRecord, bound_styles, evaluate_bounds
from .combiners import ABProd, AdaptMLProd, LossRange, RangeError, Scaffold
from .envs import _ENV_KINDS, GENERATOR_NAME, make_environment
from .geometry import (ENTROPY, EUCLIDEAN, ClippedSimplex, Geometry, _simplex_rows,
                       domain_from_dict, entropy_geometry, holds_flag)
from .learners import (AdaptiveSchedule, ConfigError, DoublingSchedule, DynamicIOMD,
                       GreedySchedule, OGD, _step_rule, fixed_schedule, stack, start_point)
from .losses import LossTable, loss_from_dict, step_lengths

SCHEMA_VERSION = 1
TRACE_KIND = "driftlab-trace"

_LEARNER_ROW = {"delta": "number", "gnorm_dual": "number", "lam": "number", "solver": "label"}
_PROD = {"loss_range": "increasing pair"}
_DIOMD_HEADER = {"beta_sq": "positive", "tau": "non-negative", "loss_sup": "non-negative"}
# kind: (what a value must be, its test).  Numeric kinds are read as finite
# floats (a pair: two) before their test; a nullable key may be absent or null,
# read as NaN.  Other kinds keep their JSON values; a tuple lists the labels.
_KINDS = {
    "number": ("a finite number", None),
    "positive": ("positive", lambda col: col > 0),
    "non-negative": ("non-negative", lambda col: col >= 0),
    "at least 1": ("at least 1", lambda col: col >= 1),
    "increasing pair": ("increasing", lambda col: col[:, 0] < col[:, 1]),
    "count": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "flag": ("true or false", lambda v: type(v) is bool),
    "label": ("a string", lambda v: type(v) is str),
}
_NUMERIC = ("number", "positive", "non-negative", "at least 1", "increasing pair")
# one encoder for every trace line, as json.dumps(rec, sort_keys=True) writes it
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True)
_ABSENT = object()  # the value of a key a trace record lacks


class TraceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_environment(cell: dict):
    spec = cell.get("environment")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config field 'environment': need a mapping with a 'kind'")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config field 'environment.params': must be a mapping")
    _fit("environment.kind", spec["kind"], tuple(sorted(_ENV_KINDS)))
    for key, value in params.items():  # every environment parameter is a number
        _fit(f"environment.params.{key}", value, "number")
    return _parsed(ConfigError, "config field 'environment.params'", lambda: make_environment(
        spec["kind"], T=cell["T"], seed=cell["seed"], **params))


def build_geometry(cell: dict, env) -> Geometry:
    # the default domain comes from the environment's parameters
    default = _parsed(ConfigError, "config field 'environment.params'", env.default_geometry)
    spec = cell.get("geometry")
    if spec is None:
        return default
    if not isinstance(spec, dict):
        raise ConfigError("config field 'geometry': must be a mapping")
    mirror = _fit("geometry.mirror", spec.get("mirror", default.mirror), (EUCLIDEAN, ENTROPY))
    domain = default.domain
    if "domain" in spec:
        domain = _parsed(ConfigError, "config field 'geometry.domain'",
                         domain_from_dict, spec["domain"])
        if domain.dim != default.domain.dim:
            raise ConfigError(f"config field 'geometry.domain': a {domain.dim}-d domain for "
                              f"the environment's {default.domain.dim}-d losses")
    return _parsed(ConfigError, "config field 'geometry'", Geometry, mirror, domain)


def _known(spec: dict, keys: tuple, field: str) -> None:
    """Reject a key of the config mapping ``spec`` at ``field`` that is not
    one of ``keys``: nothing would read it, so a misspelling would go unseen."""
    unknown = sorted(key for key in spec if key not in keys)
    if unknown:
        path = f"{field}.{unknown[0]}" if field else unknown[0]
        raise ConfigError(f"config field {path!r}: unknown key; expected one of "
                          + ", ".join(sorted(keys)))


def _parsed(error, field: str, build, *args):
    """``build(*args)``, with malformed input reported as an ``error`` naming
    ``field`` (which ends in a quoted path), or the key inside it that the
    fault names (see ``geometry.domain_from_dict``)."""
    try:
        return build(*args)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        if hasattr(exc, "key"):
            field = f"{field[:-1]}.{exc.key}'"
        raise error(f"{field}: {reason}") from None


def _fit(field: str, value, kind):
    """``value`` of config field ``field``, once it fits ``kind`` by the rule
    that ``verify`` applies to a header parameter of that kind; a number is
    not a boolean here."""
    if kind in _NUMERIC:
        _not_flag(field, value)
    try:
        _column([value], ["config"], field, kind)
    except TraceError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _number(field: str, value, kind: str) -> float:
    """``float(value)`` of config field ``field``, once it fits ``kind``:
    numeric text is not a number here, as in ``_fit``."""
    return float(_fit(field, value, kind))


def _not_flag(field: str, value):
    """Reject a boolean, or a list holding one, where config field ``field``
    wants numbers: ``float(True)`` is 1.0."""
    if holds_flag(value):
        raise ConfigError(f"config field {field!r}: must be a number, not true or false")


def _loss_range(spec: dict, field: str) -> LossRange:
    """The spec's ``loss_range`` pair [lo, hi], by default [0, 1]."""
    lo, hi = _fit(f"{field}.loss_range", spec.get("loss_range", (0.0, 1.0)),
                  _PROD["loss_range"])
    return LossRange(float(lo), float(hi))


def _loss_sup(env, spec: dict, field: str) -> float:
    if "loss_sup" in spec:
        return _number(f"{field}.loss_sup", spec["loss_sup"], _DIOMD_HEADER["loss_sup"])
    return float(env.loss_sup()) if hasattr(env, "loss_sup") else 1.0


def _expert_dim(env, spec: dict, field: str) -> int:
    if "d" not in spec:
        if hasattr(env, "d"):
            return int(env.d)
        raise ConfigError(f"config field '{field}.d': needed outside expert environments")
    d = _fit(f"{field}.d", spec["d"], "count")
    dim = env.default_geometry().domain.dim
    if d != dim or d < 2:
        raise ConfigError(f"config field '{field}.d': the environment has {dim}-d losses "
                          "and experts need d >= 2")
    return d


def _fixed(spec: dict, scale, T: int, field: str):
    """(resolved shape and scale, fixed schedule) of the spec."""
    shape = spec.get("shape", "inv_sqrt")
    scale = _number(f"{field}.scale", scale, "positive")
    return {"shape": shape, "scale": scale}, _parsed(
        ConfigError, f"config field '{field}.shape'", fixed_schedule, shape, scale, T)


def _start(spec: dict, geom, field: str) -> dict:
    """The spec's checked ``x0`` as a learner keyword and a resolved parameter;
    none, so the learner starts at the midpoint, when the spec has none."""
    x0 = spec.get("x0")
    if x0 is None:
        return {}
    _not_flag(f"{field}.x0", x0)
    return {"x0": start_point(geom, x0, f"{field}.x0").tolist()}


def _build_schedule_only(schedule):
    """The builder of implicit mirror descent under a parameterless schedule."""
    def build(spec, geom, env, T, field):
        start = _start(spec, geom, field)
        return DynamicIOMD(geom, schedule(), **start), start
    return build


def _build_diomd(spec, geom, env, T, field):
    # a header writes the schedule as schedule_kind, which a config may repeat
    key = "schedule" if "schedule" in spec else "schedule_kind"
    sched_kind = spec.get(key, "adaptive")
    if "schedule_kind" in spec and spec["schedule_kind"] != sched_kind:
        raise ConfigError(f"config field '{field}.schedule': {sched_kind!r} differs from "
                          f"schedule_kind {spec['schedule_kind']!r}")
    start = _start(spec, geom, field)
    if sched_kind == "fixed":
        if spec.get("scale") is None:
            raise ConfigError(f"config field '{field}.scale': required for fixed schedules")
        params, schedule = _fixed(spec, spec["scale"], T, field)
        return DynamicIOMD(geom, schedule, **start), {"schedule_kind": "fixed", **params,
                                                      **start}
    if sched_kind != "adaptive":
        raise ConfigError(f"config field '{field}.{key}': unknown kind {sched_kind!r}")
    tau = _number(f"{field}.tau", spec.get("tau", 0.0), _DIOMD_HEADER["tau"])
    beta_sq = spec.get("beta_sq")
    if beta_sq is None:
        beta_sq = geom.diameter_sq + geom.gamma * tau
    beta_sq = _number(f"{field}.beta_sq", beta_sq, _DIOMD_HEADER["beta_sq"])
    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq, tau), **start)
    params = {"schedule_kind": "adaptive", "beta_sq": beta_sq, "tau": tau, **start}
    if "bound_style" in spec:
        styles = bound_styles(geom.mirror)
        if spec["bound_style"] not in styles:
            raise ConfigError(f"config field '{field}.bound_style': must be one of "
                              + ", ".join(styles))
        params["bound_style"] = spec["bound_style"]
    if geom.mirror == "entropy":
        params["alpha"] = geom.domain.alpha
        params["loss_sup"] = _loss_sup(env, spec, field)
    return learner, params


def _build_ogd(spec, geom, env, T, field):
    params, schedule = _fixed(spec, spec.get("scale", 1.0), T, field)
    start = _start(spec, geom, field)
    return OGD(geom, schedule.etas, **start), {**params, **start}


# the arms an abprod spec plays when it names none
_ARMS = {"candidate": {"name": "scaffold"}, "benchmark": {"name": "greedy"}}


def _build_abprod(spec, geom, env, T, field):
    loss_range = _loss_range(spec, field)
    cand, cand_params = _build_algorithm(
        spec.get("candidate", _ARMS["candidate"]), geom, env, T, f"{field}.candidate")
    bench, bench_params = _build_algorithm(
        spec.get("benchmark", _ARMS["benchmark"]), geom, env, T, f"{field}.benchmark")
    return ABProd(cand, bench, loss_range), {"loss_range": [loss_range.lo, loss_range.hi],
                                             "candidate": cand_params, "benchmark": bench_params}


def _build_mlprod(spec, geom, env, T, field):
    loss_range = _loss_range(spec, field)
    d = _expert_dim(env, spec, field)
    return AdaptMLProd(d, loss_range, geom=geom), {"d": d, "loss_range": [loss_range.lo,
                                                                          loss_range.hi]}


def _build_scaffold(spec, geom, env, T, field):
    loss_range = _loss_range(spec, field)
    base_spec = spec.get("base")
    if base_spec is None:
        d = _expert_dim(env, spec, field)
        base_beta = _number(f"{field}.base_beta_sq",
                            spec.get("base_beta_sq", math.log(max(2, T))),
                            _DIOMD_HEADER["beta_sq"])
        # the bases play on the run's clipped simplex, so the mixture stays in it
        base_geom = geom if geom.mirror == "entropy" else entropy_geometry(
            ClippedSimplex(d, min(0.5, d / T)))

        def factory(interval):  # built directly: a run spawns thousands of bases
            return DynamicIOMD(base_geom, AdaptiveSchedule(base_beta))

        # what the diomd builder resolves for this base, so a header rebuilds it
        base = {"name": "diomd", "schedule_kind": "adaptive", "beta_sq": base_beta,
                "tau": 0.0, "alpha": base_geom.domain.alpha,
                "loss_sup": _loss_sup(env, {}, field)}
    else:
        def factory(interval):
            return _build_algorithm(base_spec, geom, env, T, f"{field}.base")[0]

        base = _build_algorithm(base_spec, geom, env, T, f"{field}.base")[1]
    return Scaffold(factory, T, loss_range), {"loss_range": [loss_range.lo, loss_range.hi],
                                              "base": base}


# The algorithm table.  A builder takes (spec, geometry, environment, T, the
# spec's config path) and returns the learner and its resolved parameters, which
# the header writes and which build the same run again.  The contract is the
# kind (see _KINDS) of the row keys besides t, loss, x, u and value, of the
# final-record keys besides x_final and value_sum, and of the config.algorithm
# parameters the bound rows read, checked where written; _contract adds what
# depends on the run.  The spec keys are those a spec may hold besides its name:
# what the builder reads, and what the header writes.
# name: (description, builder, row keys, final-record keys, header parameters, spec keys)
ALGORITHMS = {
    "greedy": ("follow the leader of the previous round's loss",
               _build_schedule_only(GreedySchedule), _LEARNER_ROW, {}, {}, ("x0",)),
    "diomd": ("implicit mirror descent, fixed or self-tuning weights",
              _build_diomd, _LEARNER_ROW, {}, _DIOMD_HEADER,
              ("schedule", "schedule_kind", "scale", "shape", "tau", "beta_sq", "bound_style",
               "x0", "alpha", "loss_sup")),
    "diomd-doubling": ("self-tuning implicit mirror descent with path doubling restarts",
                       _build_schedule_only(DoublingSchedule),
                       {**_LEARNER_ROW, "epoch": "count", "restart": "flag"},
                       {"epochs": "count", "lam_final": "number"}, {}, ("x0",)),
    "ogd": ("projected online gradient descent baseline", _build_ogd,
            {**_LEARNER_ROW, "delta": "nullable", "lam": "nullable"}, {}, {},
            ("scale", "shape", "x0")),
    "abprod": ("two-learner Prod combiner (candidate + benchmark)", _build_abprod,
               {"eta": "number", "k_acc": "at least 1", "loss_a": "number",
                "loss_b": "number", "p_a": "number", "r": "number"}, {}, _PROD,
               ("loss_range", "candidate", "benchmark")),
    "adapt-ml-prod": ("per-expert Prod over a loss vector", _build_mlprod,
                      {"k_acc": "at least 1", "lhat": "number"}, {}, _PROD, ("loss_range", "d")),
    "scaffold": ("strongly adaptive mixture over dyadic intervals", _build_scaffold,
                 {"active": "count", "k_acc": "at least 1"}, {}, _PROD,
                 ("loss_range", "base", "base_beta_sq", "d")),
}


def _build_algorithm(spec, geom, env, T, field="algorithm"):
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"config field {field!r}: need a mapping with a 'name'")
    name = spec["name"]
    if type(name) is not str or name not in ALGORITHMS:
        raise ConfigError(f"config field '{field}.name': unknown algorithm {name!r}; "
                          f"choose from {sorted(ALGORITHMS)}")
    _known(spec, ("name", *ALGORITHMS[name][5]), field)
    learner, params = ALGORITHMS[name][1](spec, geom, env, T, field)
    return learner, {"name": name, **params}


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    """One cell's name, report and trace.  The trace is the text of its file,
    or the lane's columns (``_TraceColumns``), which format the text each time
    it is read, so a family's results hold columns, not text."""

    name: str
    report: dict
    trace: object

    @property
    def trace_lines(self) -> list:
        """The trace's lines, without their newlines."""
        return self.trace.splitlines() if isinstance(self.trace, str) else self.trace.lines()

    def text(self) -> str:
        """The trace file's text: its lines, each ended by a newline."""
        return self.trace if isinstance(self.trace, str) else "\n".join(self.trace.lines()) + "\n"


class _TraceColumns(NamedTuple):
    """What one cell's trace lines are formatted from: its header, its rows
    as columns (see ``_column_lines``) but for the round numbers ``t``, which
    the header's T gives, and its final record."""

    header: dict
    rows: dict
    final: dict

    def lines(self) -> list:
        t = np.arange(1, self.header["config"]["T"] + 1)
        return [_TRACE_ENCODER.encode(self.header), *_column_lines({**self.rows, "t": t}),
                _TRACE_ENCODER.encode(self.final)]


class _Run(NamedTuple):
    """One cell, built: its name, environment, geometry, learner and header,
    and the key its plays are kept under for a later abprod (``_Record``), or
    None."""

    name: str
    env: object
    geom: Geometry
    learner: object
    header: dict
    arm: str | None = None


def _build(cell: dict) -> _Run:
    T = cell.get("T")
    if type(T) is not int or T < 1:
        raise ConfigError("config field 'T': must be a positive integer")
    if type(cell.get("seed")) is not int:
        raise ConfigError("config field 'seed': must be an integer")
    env = build_environment(cell)
    geom = build_geometry(cell, env)
    learner, resolved = _build_algorithm(cell.get("algorithm", {}), geom, env, T)
    name = cell.get("name") or f"{env.kind}-{resolved['name']}-s{cell['seed']}"
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": TRACE_KIND,
        "generator": GENERATOR_NAME,
        "cell": name,
        "config": {
            "environment": env.params(),
            "geometry": {"mirror": geom.mirror, "domain": geom.domain.to_dict()},
            "algorithm": resolved,
            "T": T,
            "seed": cell["seed"],
        },
    }
    record = _RECORD.get()
    if record is None:
        return _Run(name, env, geom, learner, header)
    if resolved["name"] == "abprod":
        record.replay(cell, learner)
    return _Run(name, env, geom, learner, header, record.wants(cell))


def _arm_key(cell: dict, spec):
    """The canonical JSON of ``cell`` but for its name, running ``spec`` (a
    name read as ``{name: ...}``); None if it is not JSON."""
    spec = {"name": spec} if isinstance(spec, str) else spec
    try:
        return json.dumps({**{k: v for k, v in cell.items() if k != "name"},
                           "algorithm": spec}, sort_keys=True)
    except (TypeError, ValueError):
        return None


def _arm_keys(cell: dict) -> dict:
    """The keys (``_arm_key``) of an abprod cell's candidate and benchmark,
    by role; none for another cell."""
    spec = cell.get("algorithm")
    spec = {"name": spec} if isinstance(spec, str) else spec
    if not isinstance(spec, dict) or spec.get("name") != "abprod":
        return {}
    return {role: _arm_key(cell, spec.get(role, default)) for role, default in _ARMS.items()}


class _Replay:
    """An arm that an earlier cell ran, played back: ``x`` is row t of its
    plays ``X`` (T + 1, k, d), and ``step`` returns its ``delta`` (T, k) as
    the arm's own step returned it, None, or no key.  It steps by its arm's
    rule, marked as a replay, so it stacks only with replays."""

    def __init__(self, X: np.ndarray, delta, rule):
        self.X, self.delta, self.rule, self.t = X, delta, rule, 0

    @property
    def x(self) -> np.ndarray:
        return self.X[self.t]

    def step(self, loss, path_increments: np.ndarray) -> dict:
        row = {} if self.delta is _ABSENT else {
            "delta": None if self.delta is None else self.delta[self.t]}
        self.t += 1
        return row

    def _rule(self):
        return None if self.rule is None else (_Replay, self.rule)

    def _join(self, replays: list):
        """This copy of ``replays[0]`` made their stack (``learners.stack``)."""
        self.X = np.concatenate([r.X for r in replays], axis=1)
        if isinstance(self.delta, np.ndarray):
            self.delta = np.concatenate([r.delta for r in replays], axis=1)
        return self


class _Record:
    """The plays of the cells that an abprod cell of a later job takes as
    its candidate or benchmark, found from the raw cells without building
    any: a cell's key (``_arm_key``) is its raw spec on its raw environment,
    geometry, T and seed, so equal keys build equal learners."""

    def __init__(self, jobs: list):
        self.wanted, self.arms, ran = set(), {}, set()
        for job in jobs:
            for cell in job:
                self.wanted.update(key for key in _arm_keys(cell).values() if key in ran)
            ran.update(_arm_key(cell, cell.get("algorithm")) for cell in job)

    def wants(self, cell: dict):
        """The key to keep ``cell``'s plays under, or None."""
        key = _arm_key(cell, cell.get("algorithm"))
        return key if key in self.wanted else None

    def keep(self, key: str, cols: dict, final: dict) -> None:
        """Keep a lane's plays and deltas (``_Lanes.lane``) under ``key``."""
        X = np.concatenate([cols["x"], [final["x_final"]]])[:, None, :]
        delta = cols.get("delta", _ABSENT)
        self.arms[key] = X, delta if delta is None or delta is _ABSENT else delta[:, None]

    def replay(self, cell: dict, combiner: ABProd) -> None:
        """Swap each arm of the built abprod ``combiner`` that a kept cell
        ran for its replay."""
        for role, key in _arm_keys(cell).items():
            if key in self.arms:
                attr = "a" if role == "candidate" else "b"
                arm = getattr(combiner, attr)
                setattr(combiner, attr, _Replay(*self.arms[key], _step_rule(arm)))


# the record of the grid that runs in this context (``reusing_arms``), or None
_RECORD = contextvars.ContextVar("driftlab_arm_record", default=None)


@contextlib.contextmanager
def reusing_arms(jobs: list):
    """Within it, ``run_cell`` keeps the plays of each cell of ``jobs`` (each
    a ``run_cell`` argument, in the order they run) that an abprod cell of a
    later job takes as its candidate or benchmark, and that abprod plays
    them back (``_Replay``) instead of stepping its arm again.  A grid whose
    abprod cells follow no arm's cell keeps nothing."""
    record = _Record(jobs) if any(_arm_keys(cell) for job in jobs for cell in job) else None
    token = _RECORD.set(record if record is not None and record.wanted else None)
    try:
        yield
    finally:
        _RECORD.reset(token)


class _Lanes:
    """A learner's lanes, one per run, stepped on the runs' loss tables: a
    stacked learner (``learners.stack``), or a lone one that does not stack;
    ``lane(i)`` reads lane i's (T, k) columns."""

    def __init__(self, learner, tables: list):
        self.learner, self.tables = learner, tables
        self.losses, self.T = LossTable.rounds(tables), len(tables[0])
        self.cols, self.t = None, 0

    def update(self, path_increments: np.ndarray) -> None:
        x = self.learner.x
        row = {"x": x, **self.learner.step(next(self.losses), path_increments)}
        if self.cols is None:  # the first round's keys: arrays become (T, k) columns
            self.cols = {key: v if v is None else [] if type(v) is list
                         else np.empty((self.T, *v.shape), v.dtype) for key, v in row.items()}
        elif x.shape != self.cols["x"].shape[1:]:  # the first play's width is checked later
            raise TraceError(f"line {self.t + 2}: trace field 'x' must be a list of "
                             f"{self.cols['x'].shape[2]} finite numbers")
        for key, col in self.cols.items():
            if type(col) is list:  # labels, a list per round
                col.append(row[key])
            elif col is not None:
                col[self.t] = row[key]
        self.t += 1

    def lane(self, i: int) -> tuple:
        """Lane i's columns, keyed as its learner's ``update`` rows (None for
        a null key), with plays ``x`` (T, d) and losses ``loss`` (a
        ``LossTable``); and its last play, weight and epoch, for the final record."""
        cols = {key: col if col is None else [labels[i] for labels in col]
                if type(col) is list else col[:, i] for key, col in self.cols.items()}
        cols["loss"] = self.tables[i]
        lam, epoch = (getattr(self.learner, key, None) for key in ("lam", "epoch"))
        return cols, {"x_final": self.learner.x[i].tolist(),
                      "lam_final": None if lam is None else lam[i].item(),
                      "epochs": None if epoch is None else epoch[i].item()}


def families(cells: list) -> list:
    """The cells as families, in order of their first cell: the cells that
    differ only in ``seed``, ``name`` and ``environment.params``, wherever
    they stand, so a spec's seeds at every sweep point are one family."""
    out = []
    for cell in cells:
        key = {k: v for k, v in cell.items() if k not in ("seed", "name")}
        if isinstance(key.get("environment"), dict):
            key["environment"] = {k: v for k, v in key["environment"].items() if k != "params"}
        family = next((f for k, f in out if k == key), None)
        if family is None:
            out.append((key, [cell]))
        else:
            family.append(cell)
    return [family for _, family in out]


def run_cell(cells: list) -> list:
    """The ``CellResult`` of each cell of one family (see ``families``), in
    order.  The learners of one step rule (``learners._step_rule``) step as
    the lanes of one learner (``learners.stack``), a group at a time in order
    of its first cell; a learner that does not stack runs as the one lane
    of its own ``_Lanes``.  Each cell's trace and report are written from
    its columns.  If any lane raises, the family reruns one cell at a time, so
    the error is the one the first failing cell raises on its own.

    Inside ``reusing_arms``, an abprod cell whose candidate or benchmark is
    the raw spec of a cell an earlier call ran on the same environment,
    geometry, T and seed plays that cell's kept plays back instead of
    stepping the arm again, with the same bytes.  The record lives for one
    ``reusing_arms`` block (one ``cli._execute`` call) and holds only the
    cells a later arm asks for, none in a run with no abprod; outside one,
    as in a worker process, each call runs every learner itself and shares
    nothing.  No flag, config key or environment variable selects this, and
    the only argument is ``cells``."""
    try:
        runs, groups = [_build(cell) for cell in cells], {}
        for run in runs:
            groups.setdefault(_step_rule(run.learner) or id(run), []).append(run)
        lanes = [_lanes(group) for group in groups.values()]
        if None not in lanes:
            done = {id(run): result for group, group_lanes in zip(groups.values(), lanes)
                    for run, result in zip(group, _results(group, group_lanes))}
            return [done[id(run)] for run in runs]
    except Exception:
        runs = map(_build, cells)  # lazily, so the cells build and run in order
    return [result for run in runs for result in _results([run], _lanes([run]))]


def _lanes(runs: list):
    """The lanes of runs whose learners ``stack``, or of a lone learner that
    does not, as lanes of one; None for several that do not."""
    learner = stack([run.learner for run in runs])
    if learner is None and len(runs) == 1:
        learner = runs[0].learner
    return None if learner is None else _Lanes(learner, [run.env.loss_table() for run in runs])


def _results(runs: list, lanes) -> list:
    """The ``CellResult`` of each run of the family, stepped by ``lanes``."""
    comparators = [run.env.comparators() for run in runs]
    play_rounds(lanes.update, comparators, runs[0].geom.primal_norm)
    results = []
    for i, (run, us) in enumerate(zip(runs, comparators)):
        cols, final = lanes.lane(i)
        if run.arm is not None:
            _RECORD.get().keep(run.arm, cols, final)
        results.append(_lane_result(run, us, cols, final))
    return results


def play_rounds(step, comparators: list, norm: str) -> None:
    """The round loop: each round ``step(path_increments)`` steps every lane
    of the family, lane i moving along its comparator path
    ``comparators[i]``, whose step lengths ``norm`` measures."""
    increments = np.column_stack([np.concatenate(([0.0], step_lengths(us, norm)))
                                  for us in comparators])
    for t, path_increments in enumerate(increments, start=1):
        try:
            step(path_increments)
        except RangeError as exc:
            raise ConfigError(f"config field 'algorithm.loss_range': round {t}: {exc}") from None


def _lane_result(run: _Run, comparators: np.ndarray, cols: dict, final: dict) -> CellResult:
    """The trace and report of one lane's columns (``_Lanes.lane``): the
    columns that format the text ``_TRACE_ENCODER`` writes for the same rows,
    and the report that ``trace_to_report`` makes of that text."""
    n = len(comparators)
    value_sum = 0.0
    for value in cols["value"].tolist():  # in order, one round at a time
        value_sum += value
    algorithm = run.header["config"]["algorithm"]
    state = {**final, "value_sum": value_sum}
    final_keys = _contract(algorithm["name"], algorithm, run.geom.mirror)[2]
    final = {"final": True, "x_final": final["x_final"], **{key: state[key] for key in final_keys}}
    losses = cols["loss"]
    rows = {**cols, "loss": losses.columns(), "u": comparators}
    cols = {**rows, "t": np.arange(1, n + 1)}

    def column(key):  # every row's value, as the parsed lines hold it; points as arrays
        col = cols.get(key, _ABSENT)
        if key in ("x", "u"):
            return col
        if isinstance(col, np.ndarray):
            return col.tolist()
        return col if isinstance(col, list) else [col] * n

    return CellResult(run.name, _report(run.header, run.geom, losses, column, final),
                      _TraceColumns(run.header, rows, final))


def _column_lines(columns: dict) -> list:
    """The trace lines of rows given as columns, each the text
    ``_TRACE_ENCODER`` writes for its row.  ``columns`` maps each row key to
    every row's value (an array of numbers, flags or points, or a list of
    labels), to a mapping of such keys, or to one value of every row.  The
    keys go through one template, sorted; an int or a finite float is
    written by ``repr``, which is how ``json`` writes it, and any other value
    (a flag, a label, a float in a column that holds a non-finite one) as
    the encoder writes it."""
    slots = []
    template = _template(columns, slots)
    return [template % row for row in zip(*slots)]


def _template(columns: dict, slots: list) -> str:
    """The ``%`` template of one row of ``columns``, its slots' values
    appended to ``slots`` column by column; a point has a slot for each
    coordinate."""
    fields = []
    for key in sorted(columns):
        col = columns[key]
        if isinstance(col, dict):
            slot = _template(col, slots)
        elif isinstance(col, np.ndarray) and col.ndim == 2:
            slot = "[" + ", ".join(_slot(coord, slots) for coord in col.T) + "]"
        elif isinstance(col, (np.ndarray, list)):
            slot = _slot(col, slots)
        else:
            slot = _TRACE_ENCODER.encode(col).replace("%", "%%")
        fields.append(f"{_TRACE_ENCODER.encode(key)}: {slot}")
    return "{" + ", ".join(fields) + "}"


def _slot(col, slots: list) -> str:
    """The template slot of one column of values, appended to ``slots``."""
    if isinstance(col, list):
        encode = _TRACE_ENCODER.encode
        # labels: few distinct ones, each encoded once.  Any other list goes
        # value by value: a memo would take -0.0 for 0.0, and 1 for 1.0 or True
        if all(type(v) is str for v in col):
            encode = {label: encode(label) for label in set(col)}.__getitem__
        slots.append(list(map(encode, col)))
        return "%s"
    values = col.tolist()
    if col.dtype.kind == "b" or col.dtype.kind == "f" and not np.isfinite(col).all():
        slots.append([_TRACE_ENCODER.encode(value) for value in values])
        return "%s"
    slots.append(values)
    return "%r"


# ---------------------------------------------------------------------------
# report construction (from trace records only)
# ---------------------------------------------------------------------------


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise TraceError(f"{where}: missing trace field {key!r}")
    return record[key]


def _header_field(config, dotted: str):
    node, path = config, "config"
    for key in dotted.split("."):
        path += "." + key
        if not isinstance(node, dict) or key not in node:
            raise TraceError(f"line 1: missing header field {path!r}")
        node = node[key]
    return node


def _points(raw: list, key: str, dim, wheres: list) -> np.ndarray:
    """The ``key`` points ``raw`` stacked into one (n, dim) array, checked once:
    each a list of ``dim`` finite numbers (one number when ``dim`` is None); the
    first that is not is named by its place in ``wheres`` and its field."""
    shape = () if dim is None else (dim,)
    try:
        pts = np.array(raw, dtype=float)
        if pts.shape == (len(raw), *shape) and np.isfinite(pts).all() and _numbers(raw, shape):
            return pts
    except (OverflowError, TypeError, ValueError):  # an int past the float range overflows
        pass
    where = next(w for w, p in zip(wheres, raw) if not _is_point(p, shape))
    what = "a finite number" if dim is None else f"a list of {dim} finite numbers"
    raise _misfit(raw, wheres, key, f"{_field(where, key)} must be {what}")


def _misfit(raw: list, wheres: list, key: str, message: str) -> TraceError:
    """The error of a column with a value that misfits: the first row that
    lacks the key, else ``message``."""
    missing = next((w for w, v in zip(wheres, raw) if v is _ABSENT), None)
    return TraceError(message if missing is None else f"{missing}: missing trace field {key!r}")


def _field(where: str, key: str) -> str:
    """How an error names ``key`` at ``where``: a trace field, or the config's."""
    return f"config field {key!r}:" if where == "config" else f"{where}: trace field {key!r}"


def _is_point(p, shape: tuple) -> bool:
    try:
        v = np.asarray(p, dtype=float)
        return v.shape == shape and bool(np.isfinite(v).all()) and _numbers(
            p if shape else [p], ())
    except (OverflowError, TypeError, ValueError):
        return False


def _numbers(raw, shape: tuple) -> bool:
    """Whether ``raw``, numbers or (``shape`` (d,)) lists of them, holds JSON
    numbers alone, since numpy reads true and "0.98" as numbers too; a run's
    own points come as a float array."""
    if isinstance(raw, np.ndarray):
        return True
    return set(map(type, itertools.chain.from_iterable(raw) if shape else raw)) <= {int, float}


def _contract(algorithm: str, params: dict, mirror: str, linear: bool = False):
    """(header, row, final-record) kinds that a trace of ``algorithm`` must fit;
    a learner key the algorithm does not declare, such as abprod's copied
    delta or doubling's eg2 (absent on restart rows of older traces), is nullable."""
    rows, final, header = ALGORITHMS[algorithm][2:5]
    rows = {"t": "count", "value": "number",
            **dict.fromkeys(("delta", "gnorm_dual", "lam", "eg2"), "nullable"), **rows}
    final = {"value_sum": "number", **final}
    header = {key: kind for key, kind in header.items() if key in params}
    if algorithm in ("diomd", "greedy") and mirror == "entropy" and linear:
        rows["eg2"] = "number"
    if algorithm == "diomd" and params.get("schedule_kind") != "fixed":
        header = {"beta_sq": "positive", **header}
        final["lam_final"] = "number"
        if "bound_style" in params:
            header["bound_style"] = bound_styles(mirror)
    return header, rows, final


def _column(raw: list, wheres: list, key: str, kind):
    """The ``key`` values ``raw`` (``_ABSENT`` where a record lacks the key),
    each of ``kind``: a float array for numeric kinds, else a list; the first
    misfit is named by its ``wheres`` and field."""
    if kind == "nullable":
        keep = [i for i, v in enumerate(raw) if v is not None and v is not _ABSENT]
        col = np.full(len(raw), np.nan)
        col[keep] = _points([raw[i] for i in keep], key, None, [wheres[i] for i in keep])
        return col
    what, test = _KINDS[kind] if type(kind) is str else (
        f"one of {', '.join(kind)}", lambda v: v in kind)
    if kind in _NUMERIC:
        col = _points(raw, key, 2 if kind == "increasing pair" else None, wheres)
        bad = () if test is None else np.flatnonzero(~test(col))
    else:
        col = raw
        bad = [i for i, v in enumerate(col) if not test(v)]  # _ABSENT fits no kind
    if len(bad):
        raise _misfit(raw, wheres, key, f"{_field(wheres[bad[0]], key)} must be {what}")
    return col


def _whole(col: np.ndarray):
    """``col``, or None where some row has no value."""
    return None if np.isnan(col).any() else col


def _on_simplex(params: dict) -> bool:
    """Whether adapt-ml-prod plays anywhere in the learner tree ``params``:
    its weights range over the whole probability simplex, not the domain."""
    return params.get("name") == "adapt-ml-prod" or any(
        isinstance(params.get(key), dict) and _on_simplex(params[key])
        for key in ("candidate", "benchmark", "base"))


def trace_to_report(records: list) -> dict:
    if len(records) < 3:
        raise TraceError("trace needs a header, at least one round, and a final record")
    misfit = next((i for i, record in enumerate(records) if type(record) is not dict), None)
    if misfit is not None:
        raise TraceError(f"line {misfit + 1}: a trace line must be a JSON object")
    header, rows, final = records[0], records[1:-1], records[-1]
    if header.get("kind") != TRACE_KIND:
        raise TraceError(f"line 1: not a {TRACE_KIND} header")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise TraceError(f"line 1: unsupported schema_version {header.get('schema_version')!r}")
    if not final.get("final"):
        raise TraceError(f"line {len(records)}: trace is truncated (no final record)")
    config = _require(header, "config", "line 1")
    T = _header_field(config, "T")
    if not isinstance(T, int) or len(rows) != T:
        raise TraceError(f"trace has {len(rows)} rounds, config says T={T!r}")

    algorithm = _header_field(config, "algorithm.name")
    if type(algorithm) is not str or algorithm not in ALGORITHMS:
        raise TraceError(f"line 1: header field 'config.algorithm.name': "
                         f"unknown algorithm {algorithm!r}")
    params = config["algorithm"]
    mirror = _header_field(config, "geometry.mirror")
    domain = _parsed(TraceError, "line 1: header field 'config.geometry.domain'",
                     domain_from_dict, _header_field(config, "geometry.domain"))
    geom = _parsed(TraceError, "line 1: header field 'config.geometry'",
                   Geometry, mirror, domain)
    specs = [row.get("loss", _ABSENT) for row in rows]
    try:
        losses = LossTable.from_dicts(specs)
    except (AttributeError, KeyError, TypeError, ValueError):
        for i, row in enumerate(rows):  # name the first row that lacks a loss,
            _require(row, "loss", f"line {i + 2}")
        for i, spec in enumerate(specs):  # else the first that does not parse
            _parsed(TraceError, f"line {i + 2}: trace field 'loss'", loss_from_dict, spec)
        raise
    off_dim = np.flatnonzero(losses.dims() != geom.domain.dim)
    if off_dim.size:
        raise TraceError(f"line {off_dim[0] + 2}: trace field 'loss' must have dimension "
                         f"{geom.domain.dim}")
    if mirror == ENTROPY and losses.kind != "linear":  # the only entropic prox route
        i = next(i for i, spec in enumerate(specs) if spec.get("kind") != "linear")
        raise TraceError(f"line {i + 2}: trace field 'loss' must be linear on the entropy mirror")
    return _report(header, geom, losses, lambda key: [row.get(key, _ABSENT) for row in rows],
                   final)


def _report(header: dict, geom: Geometry, losses: LossTable, column, final: dict) -> dict:
    """The report of a trace whose header, geometry and losses are checked,
    from its rows gathered into columns: ``column(key)`` is every row's
    ``key`` value, ``_ABSENT`` where a row lacks it (the points ``x`` and ``u``
    may be arrays).  Here, for ``run`` and ``verify`` alike, the points are
    checked, and each row key and final-record key against its kind."""
    config = header["config"]
    params = config["algorithm"]
    algorithm, mirror, dim, T = params["name"], geom.mirror, geom.domain.dim, len(losses)
    wheres = [f"line {i + 2}" for i in range(T)]
    plays = _points(column("x"), "x", dim, wheres)
    comparators = _points(column("u"), "u", dim, wheres)
    x_final = _points([final.get("x_final", _ABSENT)], "x_final", dim, ["final record"])[0]
    header_kinds, row_kinds, final_kinds = _contract(
        algorithm, params, mirror, losses.kind == "linear")
    for key, kind in header_kinds.items():
        _column([params.get(key, _ABSENT)], ["line 1"], key, kind)
    raw = {key: column(key) for key in row_kinds}
    cols = {key: _column(raw[key], wheres, key, kind) for key, kind in row_kinds.items()}
    for key, kind in final_kinds.items():
        _column([final.get(key, _ABSENT)], ["final record"], key, kind)
    lam_final, epochs = (final.get(key) if key in final_kinds else None
                         for key in ("lam_final", "epochs"))
    values = cols["value"]
    recomputed = losses.values(plays)
    off = np.abs(recomputed - values) > 1e-9
    low = cols["delta"] < -1e-8
    pts = np.vstack([plays, x_final])
    inside = _simplex_rows(pts, 0.0) if _on_simplex(params) else geom.domain._contains_rows(pts)
    violations = []
    for i in np.flatnonzero(off | low | ~inside[:-1]):
        if off[i]:
            violations.append({"round": raw["t"][i], "check": "value",
                               "recorded": float(values[i]),
                               "recomputed": float(recomputed[i])})
        if low[i]:
            violations.append({"round": raw["t"][i], "check": "delta-floor",
                               "delta": raw["delta"][i]})
        if not inside[i]:
            violations.append({"round": raw["t"][i], "check": "play-set"})
    if not inside[-1]:
        violations.append({"round": None, "check": "final-play-set"})
    if abs(float(np.sum(values)) - final["value_sum"]) > 1e-9:
        violations.append({"round": None, "check": "value-sum",
                           "recorded": final["value_sum"],
                           "recomputed": float(np.sum(values))})

    gnorms = _whole(cols["gnorm_dual"])
    sum_gsq = float(np.sum(gnorms ** 2)) if gnorms is not None else None
    record = RunRecord(
        algorithm=algorithm, geom=geom, losses=losses, plays=plays, x_final=x_final,
        comparators=comparators, values=values, deltas=_whole(cols["delta"]),
        lams=_whole(cols["lam"]), gnorms=gnorms, lam_final=lam_final, epochs=epochs,
        params=params, extras=cols)
    try:
        bound_rows = [b.to_dict() for b in evaluate_bounds(record)]
    except RangeError as exc:  # the ML-Prod replay met a loss outside loss_range
        raise TraceError(f"{wheres[exc.row]}: trace field 'loss': {exc}") from None
    vt = record.variability
    checked = [b["passed"] for b in bound_rows if b["status"] == "checked"]
    summary = {"checked": len(checked), "passed": sum(checked),
               "failed": len(checked) - sum(checked),
               "inapplicable": len(bound_rows) - len(checked)}
    metrics = {
        "rounds": T,
        "regret": record.regret(),
        "value_sum": float(np.sum(values)),
        "comparator_sum": float(np.sum(record.comparator_values)),
        "ct": record.path_len,
        "vt_signed": vt.signed,
        "vt_abs": vt.absolute,
        "vt_exact": vt.exact,
        "sum_gsq": sum_gsq,
        "lam_final": lam_final,
        "epochs": epochs,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "cell": header.get("cell"),
        "generator": header.get("generator"),
        "config": config,
        "metrics": metrics,
        "integrity": {"ok": not violations, "violations": violations},
        "bounds": bound_rows,
        "bounds_summary": summary,
    }


def parse_trace(text: str) -> list:
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise TraceError(f"line {i}: malformed trace line ({e.msg})") from None
    return records


def verify_trace(path) -> dict:
    """The report of the trace file at ``path``; errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return trace_to_report(parse_trace(text))
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# grids and summaries
# ---------------------------------------------------------------------------


_CONFIG_KEYS = ("environment", "T", "seeds", "algorithm", "algorithms", "geometry", "sweep")


def expand_config(config: dict, seed_override=None) -> list:
    """Materialize (algorithm x seed) cells from a config mapping."""
    if not isinstance(config, dict):
        raise ConfigError("config root: must be a mapping")
    _known(config, _CONFIG_KEYS, "")
    for key in ("environment", "T"):
        if key not in config:
            raise ConfigError(f"config field {key!r}: required")
    if not isinstance(config["environment"], dict):
        raise ConfigError("config field 'environment': must be a mapping")
    _known(config["environment"], ("kind", "params"), "environment")
    if isinstance(config.get("geometry"), dict):
        _known(config["geometry"], ("mirror", "domain"), "geometry")
    algs, key = config.get("algorithms"), "algorithms"
    if algs is None and "algorithm" in config:
        algs, key = [config["algorithm"]], "algorithm"
    if not isinstance(algs, list) or not algs or any(a is None for a in algs):
        raise ConfigError(f"config field {key!r}: need at least one algorithm spec")
    if seed_override is not None:
        seeds = list(seed_override) if isinstance(seed_override, (list, tuple)) else [seed_override]
    else:
        seeds = config.get("seeds", [0])
    if not isinstance(seeds, list) or not all(type(s) is int for s in seeds):
        raise ConfigError("config field 'seeds': must be a list of integers")
    if not seeds:  # a grid of no cells would check nothing
        where = "config field 'seeds'" if seed_override is None else "--seed-override"
        raise ConfigError(f"{where}: need at least one seed")
    cells = []
    names = set()
    for spec in algs:
        if isinstance(spec, str):
            spec = {"name": spec}
        if not isinstance(spec, dict):
            raise ConfigError("config field 'algorithm': need a mapping with a 'name'")
        alg_name = spec.get("name", "?")
        for seed in seeds:
            base = f"{config['environment'].get('kind', 'env')}-{alg_name}-s{seed}"
            name, k = base, 1
            while name in names:
                name = f"{base}-{k}"
                k += 1
            names.add(name)
            cells.append({
                "name": name,
                "environment": config["environment"],
                "geometry": config.get("geometry"),
                "algorithm": spec,
                "T": config["T"],
                "seed": seed,
            })
    return cells


def _set_path(config: dict, dotted: str, value):
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep key {dotted!r}: {k!r} is not a mapping")
    node[keys[-1]] = value


def expand_sweep(config: dict, seed_override=None) -> list:
    """Cartesian grid over the 'sweep' section, then per-point cell expansion."""
    sweep = config.get("sweep")
    if not sweep:
        return expand_config(config, seed_override)
    if not isinstance(sweep, dict):
        raise ConfigError("config field 'sweep': must map dotted keys to value lists")
    keys = sorted(sweep)
    for k in keys:
        if not isinstance(sweep[k], list) or not sweep[k]:
            raise ConfigError(f"config field 'sweep.{k}': must be a non-empty list")
    cells = []
    grid = [[]]
    for k in keys:
        grid = [g + [(k, v)] for g in grid for v in sweep[k]]
    for assignment in grid:
        point = json.loads(json.dumps({k: v for k, v in config.items() if k != "sweep"}))
        tag = "-".join(f"{k.split('.')[-1]}{v}" for k, v in assignment)
        for k, v in assignment:
            _set_path(point, k, v)
        for cell in expand_config(point, seed_override):
            cell["name"] = f"{cell['name']}-{tag}"
            cells.append(cell)
    return cells


_SUMMARY_COLUMNS = [
    "schema_version", "cell", "environment", "algorithm", "seed", "rounds",
    "regret", "ct", "vt_signed", "vt_abs", "sum_gsq", "lam_final", "epochs",
    "bounds_checked", "bounds_passed", "bounds_failed", "bounds_inapplicable",
    "integrity_ok",
]


def summarize(reports: list) -> str:
    """One CSV row per cell, sorted by cell name."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=_SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in sorted(reports, key=lambda r: r["cell"]):
        m, cfg = rep["metrics"], rep["config"]
        row = {"schema_version": rep["schema_version"], "cell": rep["cell"],
               "environment": cfg["environment"]["kind"], "algorithm": cfg["algorithm"]["name"],
               "seed": cfg["seed"], "rounds": m["rounds"], "integrity_ok": rep["integrity"]["ok"],
               "epochs": "" if m["epochs"] is None else m["epochs"]}
        row.update({key: "" if m[key] is None else repr(m[key])
                    for key in ("regret", "ct", "vt_signed", "vt_abs", "sum_gsq", "lam_final")})
        row.update({f"bounds_{key}": n for key, n in rep["bounds_summary"].items()})
        writer.writerow(row)
    return out.getvalue()


def strict_failures(reports: list) -> list:
    """(cell, bound name) pairs for every checked-and-failed bound row."""
    bad = []
    for rep in sorted(reports, key=lambda r: r["cell"]):
        for row in rep["bounds"]:
            if row["status"] == "checked" and not row["passed"]:
                bad.append((rep["cell"], row["name"]))
        if not rep["integrity"]["ok"]:
            bad.append((rep["cell"], "integrity"))
    return bad
