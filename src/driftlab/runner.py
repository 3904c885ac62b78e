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

from .bounds import RunRecord, evaluate_bounds
from .combiners import ABProd, AdaptMLProd, LossRange, RangeError, Scaffold
from .envs import GENERATOR_NAME, make_environment
from .geometry import ClippedSimplex, Geometry, domain_from_dict, entropy_geometry
from .learners import (
    AdaptiveSchedule,
    ConfigError,
    DoublingSchedule,
    DynamicIOMD,
    GreedySchedule,
    OGD,
    fixed_schedule,
)
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

# the per-round keys each algorithm writes besides t, loss, x, u and value;
# a trace missing one does not fit its header.  diomd and greedy rows on an
# entropy mirror under linear losses also carry eg2.  Every key beyond the
# learner keys is an extra column the bound rows may read.
_LEARNER_KEYS = ("delta", "gnorm_dual", "lam", "solver")
_ROW_KEYS = {
    "greedy": _LEARNER_KEYS,
    "diomd": _LEARNER_KEYS,
    "ogd": _LEARNER_KEYS,
    "diomd-doubling": _LEARNER_KEYS + ("epoch", "restart"),
    "abprod": ("eta", "k_acc", "loss_a", "loss_b", "p_a", "r"),
    "adapt-ml-prod": ("k_acc", "lhat"),
    "scaffold": ("active", "k_acc"),
}
# ogd writes null for these in every row
_NULL_KEYS = {"ogd": ("delta", "lam")}
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
        sched = fixed_schedule(shape, scale, T)
        learner = DynamicIOMD(geom, sched, x0=spec.get("x0"))
        resolved = {"name": "diomd", "schedule_kind": "fixed",
                    "shape": shape, "scale": scale}
        return learner, resolved
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
        alpha = min(0.5, d / T)
        base_beta = _number("base_beta_sq", spec.get("base_beta_sq", math.log(max(2, T))))
        base_geom = entropy_geometry(ClippedSimplex(d, alpha))

        def factory(interval):
            return DynamicIOMD(base_geom, AdaptiveSchedule(base_beta))

        resolved_base = {"name": "diomd", "schedule_kind": "adaptive",
                         "beta_sq": base_beta, "tau": 0.0, "alpha": alpha}
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
    final = {"final": True,
             "x_final": np.asarray(learner.play(), dtype=float).tolist(),
             "value_sum": value_sum}
    schedule = getattr(learner, "schedule", None)
    if isinstance(schedule, (AdaptiveSchedule, DoublingSchedule)):
        final["lam_final"] = learner.lam
    if isinstance(schedule, DoublingSchedule):
        final["epochs"] = learner.epoch
    records.append(final)
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
    """The records' ``key`` points stacked into one (n, dim) array, checked once.

    Each point must be a list of ``dim`` finite numbers, or one finite number
    when ``dim`` is None; the first that is not is named by its place in
    ``wheres`` and its field.
    """
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


def _declared_keys(algorithm: str, params: dict, mirror: str, losses: LossTable):
    """(row keys, final-record keys) that a trace of ``algorithm`` must carry."""
    rows = _ROW_KEYS.get(algorithm, ())
    if algorithm in ("diomd", "greedy") and mirror == "entropy" and losses.kind == "linear":
        rows += ("eg2",)
    final = ("epochs", "lam_final") if algorithm == "diomd-doubling" else ()
    if algorithm == "diomd" and params.get("schedule_kind") != "fixed":
        final = ("lam_final",)
    return rows, final


def _column(rows: list, wheres: list, key: str, nullable: bool) -> np.ndarray:
    """The rows' ``key`` values as a float array, each a finite number; where
    ``nullable``, a row may also omit the key or write null, which reads NaN."""
    if not nullable:
        return _points(rows, key, None, wheres)
    keep = [i for i, row in enumerate(rows) if row.get(key) is not None]
    col = np.full(len(rows), np.nan)
    col[keep] = _points([rows[i] for i in keep], key, None, [wheres[i] for i in keep])
    return col


def _whole(col: np.ndarray):
    """``col``, or None where some row has no value."""
    return None if np.isnan(col).any() else col


def _check_params(algorithm: str, params: dict, mirror: str) -> None:
    """The header parameters the bound rows read must be finite, and present
    where the rows give them no default."""
    need = ()
    if algorithm == "diomd" and params.get("schedule_kind") != "fixed":
        expert = mirror == "entropy" or params.get("bound_style") == "expert"
        need = ("beta_sq", "alpha") if expert else ("beta_sq",)
    for key in need + tuple(k for k in ("tau", "loss_sup", "loss_range") if k in params):
        _points([params], key, 2 if key == "loss_range" else None, ["line 1"])


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
    mirror = _header_field(config, "geometry.mirror")
    domain = _parsed(TraceError, "line 1: header field 'config.geometry.domain'",
                     domain_from_dict, _header_field(config, "geometry.domain"))
    geom = _parsed(TraceError, "line 1: header field 'config.geometry'",
                   Geometry, mirror, domain)
    _check_params(algorithm, config["algorithm"], mirror)
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
    row_keys, final_keys = _declared_keys(algorithm, config["algorithm"], mirror, losses)
    values = _points(rows, "value", None, wheres)
    # each declared key is present and a number, the solver label aside; ogd's
    # null keys and undeclared learner keys may be absent or null
    nullable = set(_NULL_KEYS.get(algorithm, ())) | set(_LEARNER_KEYS) - set(row_keys)
    cols = {key: _column(rows, wheres, key, key in nullable)
            for key in dict.fromkeys(("t",) + row_keys + _LEARNER_KEYS) if key != "solver"}
    if "solver" in row_keys:
        for row, where in zip(rows, wheres):
            _require(row, "solver", where)
    if "k_acc" in cols and (cols["k_acc"] < 1.0).any():
        where = wheres[np.flatnonzero(cols["k_acc"] < 1.0)[0]]
        raise TraceError(f"{where}: trace field 'k_acc' must be at least 1")
    epochs = final.get("epochs")
    if epochs is not None and not (type(epochs) is int and epochs >= 0):
        raise TraceError("final record: trace field 'epochs' must be a non-negative integer")
    for key in ("epochs", "lam_final", "value_sum"):
        if key in final_keys or final.get(key) is not None:
            _points([final], key, None, ["final record"])
    recomputed = losses.values(plays)
    off = np.abs(recomputed - values) > 1e-9
    low = cols["delta"] < -1e-8
    violations = []
    for i in np.flatnonzero(off | low):
        if off[i]:
            violations.append({"round": rows[i]["t"], "check": "value",
                               "recorded": float(values[i]),
                               "recomputed": float(recomputed[i])})
        if low[i]:
            violations.append({"round": rows[i]["t"], "check": "delta-floor",
                               "delta": rows[i]["delta"]})
    value_sum = final.get("value_sum")
    if value_sum is not None and abs(float(np.sum(values)) - value_sum) > 1e-9:
        violations.append({"round": None, "check": "value-sum",
                           "recorded": value_sum,
                           "recomputed": float(np.sum(values))})

    gnorms = _whole(cols["gnorm_dual"])
    sum_gsq = float(np.sum(gnorms ** 2)) if gnorms is not None else None
    record = RunRecord(
        algorithm=algorithm,
        geom=geom,
        losses=losses,
        plays=plays,
        x_final=x_final,
        comparators=comparators,
        values=values,
        deltas=_whole(cols["delta"]),
        lams=_whole(cols["lam"]),
        gnorms=gnorms,
        lam_final=final.get("lam_final"),
        epochs=final.get("epochs"),
        params=config["algorithm"],
        extras={key: cols[key] for key in row_keys if key not in _LEARNER_KEYS},
    )
    bound_rows = [b.to_dict() for b in evaluate_bounds(record)]
    vt = record.variability
    summary = {
        "checked": sum(1 for b in bound_rows if b["status"] == "checked"),
        "passed": sum(1 for b in bound_rows if b["status"] == "checked" and b["passed"]),
        "failed": sum(1 for b in bound_rows if b["status"] == "checked" and not b["passed"]),
        "inapplicable": sum(1 for b in bound_rows if b["status"] == "inapplicable"),
    }
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
        "lam_final": final.get("lam_final"),
        "epochs": final.get("epochs"),
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
        m, s = rep["metrics"], rep["bounds_summary"]
        writer.writerow({
            "schema_version": rep["schema_version"],
            "cell": rep["cell"],
            "environment": rep["config"]["environment"]["kind"],
            "algorithm": rep["config"]["algorithm"]["name"],
            "seed": rep["config"]["seed"],
            "rounds": m["rounds"],
            "regret": repr(m["regret"]),
            "ct": repr(m["ct"]),
            "vt_signed": repr(m["vt_signed"]),
            "vt_abs": repr(m["vt_abs"]),
            "sum_gsq": "" if m["sum_gsq"] is None else repr(m["sum_gsq"]),
            "lam_final": "" if m["lam_final"] is None else repr(m["lam_final"]),
            "epochs": "" if m["epochs"] is None else m["epochs"],
            "bounds_checked": s["checked"],
            "bounds_passed": s["passed"],
            "bounds_failed": s["failed"],
            "bounds_inapplicable": s["inapplicable"],
            "integrity_ok": rep["integrity"]["ok"],
        })
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
