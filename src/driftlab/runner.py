"""Cell execution and replay: traces, reports, and grid summaries.

A cell is one (environment, algorithm, seed) run.  Executing a cell yields a
line-oriented JSON trace; the report is then computed from the parsed trace
alone, so re-deriving the report from the written file (``verify``) matches
the original byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import RunRecord, bound_styles, evaluate_bounds
from .combiners import ABProd, AdaptMLProd, LossRange, RangeError, Scaffold
from .envs import GENERATOR_NAME, make_environment
from .geometry import ClippedSimplex, Geometry, _simplex_rows, domain_from_dict, entropy_geometry
from .learners import (AdaptiveSchedule, ConfigError, DoublingSchedule, DynamicIOMD,
                       GreedySchedule, OGD, fixed_schedule)
from .losses import LossTable, loss_from_dict, step_lengths

SCHEMA_VERSION = 1
TRACE_KIND = "driftlab-trace"

ALGORITHMS = {
    "greedy": "follow the leader of the previous round's loss",
    "diomd": "implicit mirror descent, fixed or self-tuning weights",
    "diomd-doubling": "self-tuning implicit mirror descent with path doubling restarts",
    "ogd": "projected online gradient descent baseline",
    "abprod": "two-learner Prod combiner (candidate + benchmark)",
    "adapt-ml-prod": "per-expert Prod over a loss vector",
    "scaffold": "strongly adaptive mixture over dyadic intervals",
}

# The trace contract: for each algorithm, the kind (see _KINDS) of its row keys
# besides t, loss, x, u and value, of its final-record keys besides x_final and
# value_sum, and of the config.algorithm parameters its bound rows read, which
# are checked where written.  _contract adds what depends on the run.
_LEARNER_ROW = {"delta": "number", "gnorm_dual": "number", "lam": "number", "solver": "label"}
_PROD = {"loss_range": "increasing pair"}
_CONTRACT = {  # algorithm: (row keys, final-record keys, header parameters)
    "greedy": (_LEARNER_ROW, {}, {}),
    "diomd": (_LEARNER_ROW, {},
              {"beta_sq": "positive", "tau": "non-negative", "loss_sup": "non-negative"}),
    "diomd-doubling": ({**_LEARNER_ROW, "epoch": "count", "restart": "flag"},
                       {"epochs": "count", "lam_final": "number"}, {}),
    "ogd": ({**_LEARNER_ROW, "delta": "nullable", "lam": "nullable"}, {}, {}),
    "abprod": ({"eta": "number", "k_acc": "at least 1", "loss_a": "number",
                "loss_b": "number", "p_a": "number", "r": "number"}, {}, _PROD),
    "adapt-ml-prod": ({"k_acc": "at least 1", "lhat": "number"}, {}, _PROD),
    "scaffold": ({"active": "count", "k_acc": "at least 1"}, {}, _PROD),
}
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
    return make_environment(spec["kind"], T=cell["T"], seed=cell["seed"], **params)


def build_geometry(cell: dict, env) -> Geometry:
    spec = cell.get("geometry")
    if spec is None:
        return env.default_geometry()
    if not isinstance(spec, dict):
        raise ConfigError("config field 'geometry': must be a mapping")
    default = env.default_geometry()
    mirror = spec.get("mirror", default.mirror)
    domain = default.domain
    if "domain" in spec:
        domain = _parsed(ConfigError, "config field 'geometry.domain'",
                         domain_from_dict, spec["domain"])
    return _parsed(ConfigError, "config field 'geometry'", Geometry, mirror, domain)


def _parsed(error, field: str, build, *args):
    """``build(*args)``, with malformed input reported as an ``error`` naming ``field``."""
    try:
        return build(*args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise error(f"{field}: {reason}") from None


def _number(key: str, value) -> float:
    """``float(value)``, with malformed input a ConfigError naming ``algorithm.key``."""
    return _parsed(ConfigError, f"config field 'algorithm.{key}'", float, value)


def _loss_range(spec: dict) -> LossRange:
    """The spec's ``loss_range`` pair [lo, hi], by default [0, 1]."""
    def build(pair):
        lo, hi = pair
        return LossRange(float(lo), float(hi))
    return _parsed(ConfigError, "config field 'algorithm.loss_range'", build,
                   spec.get("loss_range", (0.0, 1.0)))


def _loss_sup(env, spec: dict) -> float:
    if "loss_sup" in spec:
        return _number("loss_sup", spec["loss_sup"])
    return float(env.loss_sup()) if hasattr(env, "loss_sup") else 1.0


def _expert_dim(env, spec: dict) -> int:
    if "d" in spec:
        return _parsed(ConfigError, "config field 'algorithm.d'", int, spec["d"])
    if hasattr(env, "d"):
        return int(env.d)
    raise ConfigError("config field 'algorithm.d': needed outside expert environments")


def _build_diomd(spec, geom, env, T):
    sched_kind = spec.get("schedule", "adaptive")
    if sched_kind == "fixed":
        shape = spec.get("shape", "inv_sqrt")
        scale = spec.get("scale")
        if scale is None:
            raise ConfigError("config field 'algorithm.scale': required for fixed schedules")
        scale = _number("scale", scale)
        learner = DynamicIOMD(geom, fixed_schedule(shape, scale, T), x0=spec.get("x0"))
        return learner, {"name": "diomd", "schedule_kind": "fixed",
                         "shape": shape, "scale": scale}
    if sched_kind != "adaptive":
        raise ConfigError(
            f"config field 'algorithm.schedule': unknown kind {sched_kind!r}")
    tau = _number("tau", spec.get("tau", 0.0))
    beta_sq = spec.get("beta_sq")
    if beta_sq is None:
        beta_sq = geom.diameter_sq + geom.gamma * tau
    beta_sq = _number("beta_sq", beta_sq)
    learner = DynamicIOMD(geom, AdaptiveSchedule(beta_sq, tau), x0=spec.get("x0"))
    resolved = {"name": "diomd", "schedule_kind": "adaptive",
                "beta_sq": beta_sq, "tau": tau}
    if "bound_style" in spec:
        styles = bound_styles(geom.mirror)
        if spec["bound_style"] not in styles:
            raise ConfigError("config field 'algorithm.bound_style': must be one of "
                              + ", ".join(styles))
        resolved["bound_style"] = spec["bound_style"]
    if isinstance(geom.domain, ClippedSimplex):
        resolved["alpha"] = geom.domain.alpha
        resolved["loss_sup"] = _loss_sup(env, spec)
    return learner, resolved


def _build_scaffold(spec, geom, env, T):
    loss_range = _loss_range(spec)
    base_spec = spec.get("base")
    if base_spec is None:
        d = _expert_dim(env, spec)
        base_beta = _number("base_beta_sq", spec.get("base_beta_sq", math.log(max(2, T))))
        # the bases play on the run's clipped simplex, so the mixture stays in it
        base_geom = geom if geom.mirror == "entropy" else entropy_geometry(
            ClippedSimplex(d, min(0.5, d / T)))

        def factory(interval):
            return DynamicIOMD(base_geom, AdaptiveSchedule(base_beta))

        resolved_base = {"name": "diomd", "schedule_kind": "adaptive",
                         "beta_sq": base_beta, "tau": 0.0, "alpha": base_geom.domain.alpha}
    else:
        def factory(interval):
            return _build_algorithm(base_spec, geom, env, T)[0]

        resolved_base = _build_algorithm(base_spec, geom, env, T)[1]
    learner = Scaffold(factory, T, loss_range)
    resolved = {"name": "scaffold", "loss_range": [loss_range.lo, loss_range.hi],
                "base": resolved_base}
    return learner, resolved


def _build_algorithm(spec, geom, env, T):
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("config field 'algorithm': need a mapping with a 'name'")
    name = spec["name"]
    if name == "greedy":
        return DynamicIOMD(geom, GreedySchedule(), x0=spec.get("x0")), {"name": "greedy"}
    if name == "diomd":
        return _build_diomd(spec, geom, env, T)
    if name == "diomd-doubling":
        learner = DynamicIOMD(geom, DoublingSchedule(), x0=spec.get("x0"))
        return learner, {"name": "diomd-doubling"}
    if name == "ogd":
        shape = spec.get("shape", "inv_sqrt")
        scale = _number("scale", spec.get("scale", 1.0))
        etas = fixed_schedule(shape, scale, T).etas
        return OGD(geom, etas, x0=spec.get("x0")), \
            {"name": "ogd", "shape": shape, "scale": scale}
    if name == "abprod":
        loss_range = _loss_range(spec)
        cand, cand_resolved = _build_algorithm(
            spec.get("candidate", {"name": "scaffold"}), geom, env, T)
        bench, bench_resolved = _build_algorithm(
            spec.get("benchmark", {"name": "greedy"}), geom, env, T)
        learner = ABProd(cand, bench, loss_range)
        return learner, {"name": "abprod",
                         "loss_range": [loss_range.lo, loss_range.hi],
                         "candidate": cand_resolved, "benchmark": bench_resolved}
    if name == "adapt-ml-prod":
        loss_range = _loss_range(spec)
        d = _expert_dim(env, spec)
        learner = AdaptMLProd(d, loss_range, geom=geom)
        return learner, {"name": "adapt-ml-prod", "d": d,
                         "loss_range": [loss_range.lo, loss_range.hi]}
    if name == "scaffold":
        return _build_scaffold(spec, geom, env, T)
    raise ConfigError(
        f"config field 'algorithm.name': unknown algorithm {name!r}; "
        f"choose from {sorted(ALGORITHMS)}")


def build_learner(cell: dict, geom: Geometry, env):
    return _build_algorithm(cell.get("algorithm", {}), geom, env, cell["T"])


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    name: str
    trace_lines: list
    report: dict


def run_cell(cell: dict) -> CellResult:
    T = cell.get("T")
    if not isinstance(T, int) or T < 1:
        raise ConfigError("config field 'T': must be a positive integer")
    if not isinstance(cell.get("seed"), int):
        raise ConfigError("config field 'seed': must be an integer")
    env = build_environment(cell)
    geom = build_geometry(cell, env)
    learner, resolved = build_learner(cell, geom, env)
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
    records = [header]
    us = env.comparators()
    incs = [0.0, *step_lengths(us, geom.primal_norm).tolist()]
    value_sum = 0.0
    for t, (u, inc) in enumerate(zip(us, incs), start=1):
        loss = env.loss(t)
        x = learner.play()
        try:
            row = learner.update(loss, inc)
        except RangeError as exc:
            raise ConfigError(f"config field 'algorithm.loss_range': round {t}: {exc}") from None
        value_sum += row["value"]
        rec = {"t": t, "loss": loss.to_dict(),
               "x": np.asarray(x, dtype=float).tolist(), "u": u.tolist()}
        rec.update(row)
        records.append(rec)
    state = {"value_sum": value_sum, "lam_final": getattr(learner, "lam", None),
             "epochs": getattr(learner, "epoch", None)}
    final_keys = _contract(resolved["name"], resolved, geom.mirror)[2]
    records.append({"final": True, "x_final": np.asarray(learner.play(), dtype=float).tolist(),
                    **{key: state[key] for key in final_keys}})
    # the report reads the records themselves; verify parses the same lines
    lines = [_TRACE_ENCODER.encode(rec) for rec in records]
    return CellResult(name, lines, trace_to_report(records))


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


def _points(records: list, key: str, dim, wheres: list) -> np.ndarray:
    """The records' ``key`` points stacked into one (n, dim) array, checked once:
    each a list of ``dim`` finite numbers (one number when ``dim`` is None); the
    first that is not is named by its place in ``wheres`` and its field."""
    raw = [_require(rec, key, where) for rec, where in zip(records, wheres)]
    shape = () if dim is None else (dim,)
    try:
        pts = np.array(raw, dtype=float)
        if pts.shape == (len(raw), *shape) and np.isfinite(pts).all():
            return pts
    except (TypeError, ValueError):
        pass
    where = next(w for w, p in zip(wheres, raw) if not _is_point(p, shape))
    what = "a finite number" if dim is None else f"a list of {dim} finite numbers"
    raise TraceError(f"{where}: trace field {key!r} must be {what}")


def _is_point(p, shape: tuple) -> bool:
    try:
        v = np.asarray(p, dtype=float)
        return v.shape == shape and bool(np.isfinite(v).all())
    except (TypeError, ValueError):
        return False


def _contract(algorithm: str, params: dict, mirror: str, linear: bool = False):
    """(header, row, final-record) kinds that a trace of ``algorithm`` must fit;
    a learner key the algorithm does not declare, such as abprod's copied
    delta or the eg2 that doubling omits on restart rows, is nullable."""
    rows, final, header = _CONTRACT[algorithm]
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


def _column(records: list, wheres: list, key: str, kind):
    """The records' ``key`` values, each of ``kind``: a float array for numeric
    kinds, else a list; the first misfit is named by its ``wheres`` and field."""
    if kind == "nullable":
        keep = [i for i, rec in enumerate(records) if rec.get(key) is not None]
        col = np.full(len(records), np.nan)
        col[keep] = _points([records[i] for i in keep], key, None, [wheres[i] for i in keep])
        return col
    what, test = _KINDS[kind] if type(kind) is str else (
        f"one of {', '.join(kind)}", lambda v: v in kind)
    if kind in _NUMERIC:
        col = _points(records, key, 2 if kind == "increasing pair" else None, wheres)
        bad = () if test is None else np.flatnonzero(~test(col))
    else:
        col = [_require(rec, key, where) for rec, where in zip(records, wheres)]
        bad = [i for i, v in enumerate(col) if not test(v)]
    if len(bad):
        raise TraceError(f"{wheres[bad[0]]}: trace field {key!r} must be {what}")
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
    if type(algorithm) is not str or algorithm not in _CONTRACT:
        raise TraceError(f"line 1: header field 'config.algorithm.name': "
                         f"unknown algorithm {algorithm!r}")
    params = config["algorithm"]
    mirror = _header_field(config, "geometry.mirror")
    domain = _parsed(TraceError, "line 1: header field 'config.geometry.domain'",
                     domain_from_dict, _header_field(config, "geometry.domain"))
    geom = _parsed(TraceError, "line 1: header field 'config.geometry'",
                   Geometry, mirror, domain)
    wheres = [f"line {i + 2}" for i in range(T)]
    dim = geom.domain.dim
    plays = _points(rows, "x", dim, wheres)
    comparators = _points(rows, "u", dim, wheres)
    x_final = _points([final], "x_final", dim, ["final record"])[0]
    specs = [_require(row, "loss", where) for row, where in zip(rows, wheres)]
    try:
        losses = LossTable.from_dicts(specs)
    except (AttributeError, KeyError, TypeError, ValueError):
        for spec, where in zip(specs, wheres):  # name the first row that does not parse
            _parsed(TraceError, f"{where}: trace field 'loss'", loss_from_dict, spec)
        raise
    off_dim = np.flatnonzero(losses.dims() != dim)
    if off_dim.size:
        raise TraceError(f"{wheres[off_dim[0]]}: trace field 'loss' must have dimension {dim}")
    header_kinds, row_kinds, final_kinds = _contract(
        algorithm, params, mirror, losses.kind == "linear")
    for key, kind in header_kinds.items():
        _column([params], ["line 1"], key, kind)
    cols = {key: _column(rows, wheres, key, kind) for key, kind in row_kinds.items()}
    for key, kind in final_kinds.items():
        _column([final], ["final record"], key, kind)
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
            violations.append({"round": rows[i]["t"], "check": "value",
                               "recorded": float(values[i]),
                               "recomputed": float(recomputed[i])})
        if low[i]:
            violations.append({"round": rows[i]["t"], "check": "delta-floor",
                               "delta": rows[i]["delta"]})
        if not inside[i]:
            violations.append({"round": rows[i]["t"], "check": "play-set"})
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


def expand_config(config: dict, seed_override=None) -> list:
    """Materialize (algorithm x seed) cells from a config mapping."""
    if not isinstance(config, dict):
        raise ConfigError("config root: must be a mapping")
    for key in ("environment", "T"):
        if key not in config:
            raise ConfigError(f"config field {key!r}: required")
    if not isinstance(config["environment"], dict):
        raise ConfigError("config field 'environment': must be a mapping")
    algs = config.get("algorithms")
    if algs is None:
        algs = [config.get("algorithm")]
    if not isinstance(algs, list) or not algs or any(a is None for a in algs):
        raise ConfigError("config field 'algorithms': need at least one algorithm spec")
    if seed_override is not None:
        seeds = list(seed_override) if isinstance(seed_override, (list, tuple)) else [seed_override]
    else:
        seeds = config.get("seeds", [0])
    if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("config field 'seeds': must be a list of integers")
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
