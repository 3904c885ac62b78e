"""Per-run certificate checks: every regret guarantee as a realized inequality.

``evaluate_bounds`` consumes a completed run and emits one row per applicable
inequality with the realized left and right sides.  Rows never weaken the
stated guarantee: when a premise fails (for example the comparator path
exceeds the configured budget, or a comparator of the greedy drift bound
lies outside the domain) the row is marked inapplicable instead of passed.

Rows read the run's losses as ``losses.LossTable`` columns; the recursion
check takes the whole weight sequence at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .combiners import AdaptMLProd, LossRange, RangeError
from .geometry import Geometry
from .losses import LossTable, Variability, step_lengths, temporal_variability
from .prox import DELTA_FLOOR

DEFAULT_TOL = 1e-6
# the styles of adaptive diomd rows that ``_adaptive_rows`` implements
BOUND_STYLES = ("drift", "composite", "static", "expert", "composite-static")


def bound_styles(mirror: str) -> tuple:
    """The bound styles a run on ``mirror`` may name: expert needs entropy."""
    return BOUND_STYLES if mirror == "entropy" else tuple(
        s for s in BOUND_STYLES if s != "expert")


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    status: str = "checked"  # "checked" | "inapplicable"
    note: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class RunRecord:
    """Everything a bound check can see about one finished run.

    The run statistics the rows share (drift, comparator values, comparator
    steps and path) are computed on first use and then kept.  Points are
    trusted: ``runner.trace_to_report`` checks them once per trace.  A list
    of losses is wrapped in a ``LossTable``.
    """

    algorithm: str
    geom: Geometry
    losses: LossTable
    plays: np.ndarray
    x_final: np.ndarray
    comparators: np.ndarray | None = None
    values: np.ndarray | None = None
    deltas: np.ndarray | None = None
    lams: np.ndarray | None = None
    gnorms: np.ndarray | None = None
    lam_final: float | None = None
    epochs: int | None = None
    params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.losses, LossTable):
            self.losses = LossTable.from_losses(self.losses)

    @property
    def T(self) -> int:
        return len(self.losses)

    @cached_property
    def variability(self) -> Variability:
        return temporal_variability(self.losses, self.geom.domain)

    @cached_property
    def comparator_values(self) -> np.ndarray:
        return self.losses.values(self.comparators)

    @cached_property
    def comparator_steps(self) -> np.ndarray:
        return step_lengths(self.comparators, self.geom.primal_norm)

    @cached_property
    def path_len(self) -> float:
        return float(np.sum(self.comparator_steps))

    def regret(self) -> float:
        return float(np.sum(self.values) - np.sum(self.comparator_values))

    def endpoint_gap(self) -> float:
        """First-round value at the first play minus last loss at the final iterate."""
        return float(self.values[0]) - self.losses[-1]._value(self.x_final)


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def first_order_bound(b: float, c: float) -> float:
    """Largest-x certificate for x - b * sqrt(x) - c <= 0: x <= c + b^2 + b*sqrt(c)."""
    if b < 0 or c < 0:
        raise ValueError("first_order_bound needs b, c >= 0")
    return c + b * b + b * math.sqrt(c)


@dataclass(frozen=True)
class RecursionCheck:
    applicable: bool
    holds: bool
    lhs: float
    rhs: float
    violated_at: int | None = None


def check_recursion_bound(a_seq, b_seq, c: float, d: float, deltas) -> RecursionCheck:
    """Verify the incremental recursion and its closed-form consequence.

    Given nonnegative weights a_t, b_t and constants c, d >= 0, a sequence
    with Delta_1 = 0 and
    Delta_{t+1} <= Delta_t + min(d * b_t, c * a_t^2 / (2 * Delta_t))
    (division by zero reads as the first branch) must end below
    sqrt(d^2 * sum b_t^2 + c * sum a_t^2).  Returns whether the premise held
    step by step and, if so, whether the final bound does.
    """
    a = np.asarray(a_seq, dtype=float)
    b = np.asarray(b_seq, dtype=float)
    dl = np.asarray(deltas, dtype=float)
    if a.shape != b.shape or dl.shape != (a.size + 1,):
        raise ValueError("need len(deltas) == len(a) + 1 == len(b) + 1")
    if c < 0 or d < 0 or np.any(a < 0) or np.any(b < 0):
        raise ValueError("weights and constants must be nonnegative")
    if abs(dl[0]) > 1e-12:
        return RecursionCheck(False, False, dl[-1], 0.0, violated_at=0)
    # every step at once; np.where picks what Python's min and max would
    prev = dl[:-1]
    cap = d * b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alt = c * a * a / (2.0 * prev)
    cap = np.where((prev > 0) & (alt < cap), alt, cap)
    grow = np.abs(prev) + cap
    tol = 1e-9 * np.where(grow > 1.0, grow, 1.0)
    bad = np.flatnonzero(dl[1:] > prev + cap + tol)
    if bad.size:
        return RecursionCheck(False, False, dl[-1], 0.0, violated_at=int(bad[0]) + 1)
    rhs = math.sqrt(d * d * float(b @ b) + c * float(a @ a))
    holds = dl[-1] <= rhs + 1e-9 * max(1.0, rhs)
    return RecursionCheck(True, bool(holds), float(dl[-1]), rhs)


# ---------------------------------------------------------------------------
# bound rows
# ---------------------------------------------------------------------------


def _row(name, lhs, rhs, tol, note="", applicable=True):
    return BoundCheck(name, float(lhs), float(rhs), bool(lhs <= rhs + tol),
                      status="checked" if applicable else "inapplicable", note=note)


def _premise_row(name, ok, lhs, rhs, note=""):
    return BoundCheck(name, float(lhs), float(rhs), bool(ok),
                      status="checked" if ok else "inapplicable", note=note)


def _greedy_rows(rec, tol):
    # the bound compares against comparators the learner could have played
    inside = all(rec.geom.domain._contains(u) for u in rec.comparators)
    note = ("regret <= first value - final value + signed drift" if inside
            else "comparators leave the domain; the bound needs u_t in V")
    rhs = rec.endpoint_gap() + rec.variability.signed
    return [_row("greedy-drift-bound", rec.regret(), rhs, tol, note=note, applicable=inside)]


def _fixed_rows(rec, tol):
    lams = rec.lams
    rhs = (rec.geom.diameter_sq * lams[-1]
           + rec.geom.gamma * float(np.sum(lams[1:] * rec.comparator_steps))
           + float(np.sum(rec.deltas)))
    rows = [_row("fixed-schedule-bound", rec.regret(), rhs, tol,
                 note="regret <= D^2/eta_T + gamma * sum ||du||/eta_t + sum delta")]
    rows.append(_delta_floor_row(rec))
    return rows


def _delta_floor_row(rec):
    worst = float(np.min(rec.deltas)) if rec.deltas is not None and len(rec.deltas) else 0.0
    return BoundCheck("delta-floor", worst, DELTA_FLOOR, worst >= DELTA_FLOOR,
                      note="every progress certificate above -1e-8")


def _lam_rows(rec):
    lams = np.append(rec.lams, rec.lam_final)
    worst = float(np.min(np.diff(lams)))
    rows = [BoundCheck("lam-monotone", worst, 0.0, worst >= -1e-12,
                       note="adaptive weights never decrease")]
    beta_sq = rec.params["beta_sq"]
    gsq = float(np.sum(np.asarray(rec.gnorms) ** 2))
    cap = math.sqrt((2.0 * rec.geom.diameter_sq / beta_sq ** 2 + 1.0 / beta_sq) * gsq)
    rows.append(_row("lam-cap", rec.lam_final, cap, 1e-9,
                     note="final weight below the recursion cap"))
    g = np.asarray(rec.gnorms, dtype=float)
    rc = check_recursion_bound(
        g, g, beta_sq, math.sqrt(2.0 * rec.geom.diameter_sq),
        beta_sq * np.append(rec.lams, rec.lam_final),
    )
    rows.append(BoundCheck(
        "lam-recursion", rc.lhs, rc.rhs,
        rc.holds if rc.applicable else False,
        status="checked" if rc.applicable else "inapplicable",
        note="scaled weights satisfy the two-branch recursion"
        if rc.applicable else f"recursion premise failed at step {rc.violated_at}",
    ))
    return rows


def _adaptive_rows(rec, tol):
    style = rec.params.get("bound_style") or (
        "expert" if rec.geom.mirror == "entropy" else "drift"
    )
    if "composite" in rec.losses.kinds:
        style = rec.params.get("bound_style", "composite")
    rows = [_delta_floor_row(rec)]
    rows.extend(_lam_rows(rec))
    tau = rec.params.get("tau", 0.0)
    beta_sq = rec.params["beta_sq"]
    D2, g = rec.geom.diameter_sq, rec.geom.gamma
    gsq = float(np.sum(np.asarray(rec.gnorms) ** 2))
    regret = rec.regret()
    ct = rec.path_len
    vt = rec.variability.signed  # shared L1 parts cancel in consecutive differences

    if style in ("drift", "composite"):
        # a composite run's drift is that of its variable parts, its endpoints
        # those of the full losses
        endpoint_note, gradient_note = (
            ("regret <= 2 * (endpoint gap + signed drift)",
             "regret <= 2 * sqrt((3 D^2 + gamma tau) sum ||g||*^2)") if style == "drift"
            else ("variable-part drift, full-loss endpoints", ""))
        ok = ct <= tau + 1e-9
        rows.append(_premise_row("path-budget", ok, ct, tau,
                                 note="comparator path within configured budget"))
        rows.append(_row(f"{style}-arm-endpoint", regret,
                         2.0 * (rec.endpoint_gap() + vt), tol, applicable=ok,
                         note=endpoint_note))
        rows.append(_row(f"{style}-arm-gradient", regret,
                         2.0 * math.sqrt((3.0 * D2 + g * tau) * gsq), tol, applicable=ok,
                         note=gradient_note))
    elif style == "static":
        factor = 2.0 + g * ct / D2
        arm = min(rec.endpoint_gap() + vt, math.sqrt(3.0 * D2 * gsq))
        rows.append(_row("static-mode-bound", regret, factor * arm, tol,
                         note="beta^2 = D^2 checker mode"))
    elif style == "expert":
        rows.extend(_expert_rows(rec, tol, regret, gsq))
    elif style == "composite-static":
        rhs = min(2.0 * (rec.endpoint_gap() + vt),
                  2.0 * math.sqrt(D2) * math.sqrt(3.0 * gsq))
        rows.append(_row("composite-static-bound", regret, rhs, tol))
    return rows


def _expert_rows(rec, tol, regret, gsq):
    rows = []
    tau = rec.params.get("tau", 0.0)
    alpha = rec.geom.domain.alpha
    l_inf = rec.params.get("loss_sup", 1.0)
    T = rec.T
    gs = rec.losses.G
    range_ok = bool(np.all(gs >= -1e-12) and float(np.max(gs)) <= l_inf + 1e-12)
    rows.append(_premise_row("gradient-range", range_ok,
                             float(np.max(np.abs(gs))), l_inf,
                             note="losses within [0, L_inf]"))
    ct = rec.path_len
    path_ok = ct <= tau + 1e-9
    rows.append(_premise_row("path-budget", path_ok, ct, tau))
    ok = range_ok and path_ok
    clip_term = 2.0 * l_inf * T * alpha
    rows.append(_row("expert-arm-endpoint", regret,
                     2.0 * (rec.endpoint_gap() + rec.variability.signed) + clip_term, tol, applicable=ok,
                     note="includes the simplex clipping term"))
    eg2 = float(np.sum(rec.extras["eg2"]))
    lnT = math.log(T)
    rows.append(_row("expert-arm-gradient", regret,
                     2.0 * math.sqrt((1.0 + (1.0 + tau) * lnT) * eg2) + clip_term, tol,
                     applicable=ok, note="local-norm arm"))
    # first-order corollary: learner loss bounded via its own total
    lt = float(np.sum(rec.values))
    ltu = float(np.sum(rec.comparator_values))
    b = 2.0 * math.sqrt(l_inf * (1.0 + (1.0 + tau) * lnT))
    rows.append(_row("expert-first-order", lt,
                     first_order_bound(b, max(0.0, ltu) + clip_term), tol,
                     applicable=ok, note="small-loss form via first_order_bound"))
    return rows


def _doubling_rows(rec, tol):
    rows = [_delta_floor_row(rec)]
    D2, g = rec.geom.diameter_sq, rec.geom.gamma
    D = math.sqrt(D2)
    ct = rec.path_len
    n = int(rec.epochs or 0)
    cap_arg = ct / (math.sqrt(2.0) * D) + 1.0
    rows.append(_row("epoch-count", n, math.log2(cap_arg), 1e-12,
                     note="restarts bounded by the path budget doublings"))
    arm_a = rec.endpoint_gap() + rec.variability.signed
    arm_b = math.inf
    note = ""
    if ct > 0:
        inner = 3.0 * D2 * (math.log2(ct / (math.sqrt(2.0) * D)) + 1.0) + g * ct
        if inner > 0:
            gsq = float(np.sum(np.asarray(rec.gnorms) ** 2))
            arm_b = math.sqrt(inner * gsq)
        else:
            note = "gradient arm vacuous below one epoch of path"
    else:
        note = "gradient arm vacuous at zero path"
    c = math.sqrt(2.0) / (D + g * math.sqrt(2.0))
    rhs = (2.0 + c) * min(arm_a, arm_b)
    rows.append(_row("doubling-regret", rec.regret(), rhs, tol, note=note))
    return rows


def _diomd_rows(rec, tol):
    if rec.params.get("schedule_kind") == "fixed":
        return _fixed_rows(rec, tol)
    return _adaptive_rows(rec, tol)


def _abprod_rows(rec, tol):
    ex = rec.extras
    p = np.asarray(ex["p_a"])
    la = np.asarray(ex["loss_a"])
    lb = np.asarray(ex["loss_b"])
    r = np.asarray(ex["r"])
    k_final = float(ex["k_acc"][-1])
    mix = float(np.sum(p * la + (1.0 - p) * lb))
    two_ln2 = 2.0 * math.log(2.0)
    rows = [
        _row("prod-vs-benchmark", mix - float(np.sum(lb)),
             two_ln2 + 2.0 * math.log(k_final), tol,
             note="mixture loss tracks the benchmark learner"),
        _row("prod-vs-candidate", mix - float(np.sum(la)),
             two_ln2 + (2.0 + math.log(k_final)) * math.sqrt(1.0 + float(r @ r)), tol,
             note="mixture loss tracks the candidate learner"),
    ]
    return rows


def _mlprod_rows(rec, tol):
    G = rec.losses.G
    if G is None:
        return [BoundCheck("mlprod-replay", 0.0, 0.0, False,
                           status="inapplicable", note="needs linear losses")]
    d = G.shape[1]
    rng_cfg = rec.params.get("loss_range", (0.0, 1.0))
    comb = AdaptMLProd(d, LossRange(*rng_cfg))
    lhat_sum = 0.0
    unit_losses = np.empty((rec.T, d))
    weighted_rsq = np.zeros(d)
    for t, g_raw in enumerate(G.tolist()):
        try:
            unit_losses[t] = [comb.range.unit(v) for v in g_raw]
        except RangeError as exc:
            exc.row = t
            raise
        eta_old = comb.eta
        _, lhat, r = comb._step(unit_losses[t])
        lhat_sum += lhat
        weighted_rsq += eta_old * (r * r)
    k_final = comb.k_acc
    rows = []
    col = np.sum(unit_losses, axis=0)
    for i in range(d):
        rhs = (2.0 * math.log(d)
               + float(weighted_rsq[i])
               + math.log(k_final) / float(comb.eta[i]))
        rows.append(_row(f"mlprod-expert-{i}", lhat_sum - float(col[i]), rhs, tol,
                         note="excess over this expert within its prod budget"))
    return rows


# the rows of each algorithm that has any; scaffold and ogd have none yet
_ROWS = {"greedy": _greedy_rows, "diomd": _diomd_rows, "diomd-doubling": _doubling_rows,
         "abprod": _abprod_rows, "adapt-ml-prod": _mlprod_rows}


def evaluate_bounds(rec: RunRecord, tol: float = DEFAULT_TOL) -> list[BoundCheck]:
    """The bound rows of ``rec``'s algorithm; none for a name without rows."""
    return _ROWS[rec.algorithm](rec, tol) if rec.algorithm in _ROWS else []
