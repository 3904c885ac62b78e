"""Structured convex losses: values, subgradients, drift and path metrics.

Every loss is a small immutable object with ``value`` and ``subgradient``.
At kinks (absolute loss at zero residual, hinge at margin one, L1 at zero
coordinates) the zero element of the subdifferential is returned whenever it
belongs to it, so stationary points report a zero subgradient.

Validation contract: the public evaluators (``value``, ``subgradient``,
``residual``, ``margin``) validate the point, then call the trusted evaluator
of the same name with a leading underscore, which takes a validated 1-d
float64 vector.  Callers holding validated points call those directly.

Reports hold a run's losses as a ``LossTable`` of columns and evaluate them
and their drift column-wise, building ``Loss`` objects only for rows they index.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import Domain, Interval, _as_vector


class LossError(ValueError):
    pass


class Loss:
    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, x) -> float:
        return self._value(_as_vector(x))

    def subgradient(self, x) -> np.ndarray:
        return self._subgradient(_as_vector(x))

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _subgradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class LinearLoss(Loss):
    """x -> <g, x>."""

    kind = "linear"

    def __init__(self, g):
        self.g = _as_vector(g)
        self.g.setflags(write=False)

    @property
    def dim(self):
        return self.g.shape[0]

    def _value(self, x):
        return float(self.g @ x)

    def _subgradient(self, x):
        return self.g.copy()

    def to_dict(self):
        return {"kind": self.kind, "g": self.g.tolist()}

    def __repr__(self):
        return f"LinearLoss(g={self.g.tolist()})"


class _AffineLoss(Loss):
    """Base of the losses of one score <a, x> against a target y: each class
    gives its value as ``_link(score, y)``, elementwise on arrays."""

    def __init__(self, a, y: float):
        self.a = _as_vector(a)
        self.y = float(y)
        if not np.isfinite(self.y):
            raise LossError("loss target y must be finite")
        self.a.setflags(write=False)

    @property
    def dim(self):
        return self.a.shape[0]

    def residual(self, x) -> float:
        return self._residual(_as_vector(x))

    def _residual(self, x):
        return float(self.a @ x) - self.y

    def _value(self, x):
        return float(self._link(float(self.a @ x), self.y))

    def to_dict(self):
        return {"kind": self.kind, "a": self.a.tolist(), "y": self.y}

    def __repr__(self):
        return f"{type(self).__name__}(a={self.a.tolist()}, y={self.y})"


class QuadraticLoss(_AffineLoss):
    """x -> 0.5 * (<a, x> - y)^2."""

    kind = "quadratic"

    @staticmethod
    def _link(s, y):
        r = s - y
        return 0.5 * r * r

    def _subgradient(self, x):
        return self._residual(x) * self.a


class AbsoluteLoss(_AffineLoss):
    """x -> |<a, x> - y|."""

    kind = "absolute"

    @staticmethod
    def _link(s, y):
        return abs(s - y)

    def _subgradient(self, x):
        r = self._residual(x)
        if r == 0.0:
            return np.zeros_like(self.a)
        return np.sign(r) * self.a


class HingeLoss(_AffineLoss):
    """x -> max(0, 1 - y * <a, x>) with label y in {-1, +1}."""

    kind = "hinge"

    def __init__(self, a, y: float):
        super().__init__(a, y)
        if self.y not in (-1.0, 1.0):
            raise LossError("hinge label must be -1 or +1")

    def margin(self, x) -> float:
        return self._margin(_as_vector(x))

    def _margin(self, x):
        return self.y * float(self.a @ x)

    @staticmethod
    def _link(s, y):
        v = 1.0 - y * s
        return np.where(v > 0.0, v, 0.0)

    def _subgradient(self, x):
        if self._margin(x) < 1.0:
            return -self.y * self.a
        return np.zeros_like(self.a)


class CompositeLoss(Loss):
    """Smooth-ish base loss plus an L1 penalty l1_weight * ||x||_1."""

    kind = "composite"

    def __init__(self, base: Loss, l1_weight: float):
        if isinstance(base, CompositeLoss):
            raise LossError("composite base must not itself be composite")
        if not np.isfinite(l1_weight):
            raise LossError("l1_weight must be finite")
        if l1_weight < 0:
            raise LossError("l1_weight must be nonnegative")
        self.base = base
        self.l1_weight = float(l1_weight)

    @property
    def dim(self):
        return self.base.dim

    def _value(self, x):
        return self.base._value(x) + self.l1_weight * float(np.sum(np.abs(x)))

    def variable_value(self, x) -> float:
        """Value of the time-varying part only (the base loss)."""
        return self.base.value(x)

    def _subgradient(self, x):
        return self.base._subgradient(x) + self.l1_weight * np.sign(x)

    def to_dict(self):
        return {"kind": self.kind, "base": self.base.to_dict(), "l1_weight": self.l1_weight}

    def __repr__(self):
        return f"CompositeLoss(base={self.base!r}, l1_weight={self.l1_weight})"


def loss_from_dict(spec: dict) -> Loss:
    kind = spec.get("kind")
    if kind == "linear":
        return LinearLoss(spec["g"])
    if kind in _STACKED:
        return _STACKED[kind](spec["a"], spec["y"])
    if kind == "composite":
        return CompositeLoss(loss_from_dict(spec["base"]), spec["l1_weight"])
    raise LossError(f"unknown loss kind {kind!r}")


_STACKED = {"linear": LinearLoss, "quadratic": QuadraticLoss,
            "absolute": AbsoluteLoss, "hinge": HingeLoss}


class LossTable:
    """A run's losses: ``kinds`` present and, when they share one kind in
    ``_STACKED`` and one dimension, the columns ``G`` (T, d) of linear losses
    or ``A`` (T, d) and ``Y`` (T,) of affine ones.  ``table[i]`` is the
    caller's own object when the table wraps a list, else built from row i."""

    def __init__(self, kinds, M=None, Y=None, items=None):
        self.kinds = frozenset(kinds)
        self.kind = next(iter(self.kinds)) if len(self.kinds) == 1 else None
        self._M, self.Y, self._items = M, Y, items
        self.G, self.A = (M, None) if self.kind == "linear" else (None, M)

    @classmethod
    def from_losses(cls, losses) -> LossTable:
        items = list(losses)
        table = None
        if all(type(l) is _STACKED.get(l.kind) for l in items):
            table = cls._stacked([l.to_dict() for l in items])
        if table is None:
            table = cls({l.kind for l in items})
        table._items = items
        return table

    @classmethod
    def from_dicts(cls, specs: list) -> LossTable:
        """The table of parsed loss specs; any that do not stack go through
        ``loss_from_dict`` row by row, which raises its usual errors."""
        table = cls._stacked(specs)
        return table if table is not None else cls.from_losses(map(loss_from_dict, specs))

    @classmethod
    def _stacked(cls, specs: list):
        kind = specs[0].get("kind") if specs and type(specs[0]) is dict else None
        if kind not in _STACKED or not all(type(s) is dict and s.get("kind") == kind
                                           for s in specs):
            return None
        try:
            M = np.array([s["g" if kind == "linear" else "a"] for s in specs], dtype=float)
            Y = None if kind == "linear" else np.array([s["y"] for s in specs], dtype=float)
        except (KeyError, TypeError, ValueError):
            return None
        if M.ndim != 2 or not M.shape[1] or not np.isfinite(M).all() or Y is not None and (
                Y.shape != (len(specs),) or not np.isfinite(Y).all()
                or kind == "hinge" and not np.all(np.abs(Y) == 1.0)):
            return None
        return cls({kind}, M, Y)

    @classmethod
    def rounds(cls, tables: list):
        """Each round's losses of the runs ``tables``, in turn: one table, a row
        per run, made as the round comes."""
        first = tables[0]
        if first._M is None or any(t.kinds != first.kinds or t._M is None
                                   or t._M.shape != first._M.shape for t in tables):
            return (cls.from_losses(t[r] for t in tables) for r in range(len(first)))
        M = np.stack([t._M for t in tables], axis=1)
        Y = [None] * len(M) if first.Y is None else np.stack([t.Y for t in tables], axis=1)
        return (cls(first.kinds, m, y) for m, y in zip(M, Y))

    def __len__(self):
        return len(self._M) if self._items is None else len(self._items)

    def columns(self) -> dict:
        """The specs of a stacked table as columns, keyed as each row's loss
        ``to_dict`` writes it: the kind and the (T, d) and (T,) arrays."""
        if self.kind == "linear":
            return {"kind": "linear", "g": self._M}
        return {"kind": self.kind, "a": self._M, "y": self.Y}

    def __getitem__(self, i) -> Loss:
        if self._items is not None:
            return self._items[i]
        if self.kind == "linear":
            return LinearLoss(self._M[i])
        return _STACKED[self.kind](self._M[i], self.Y[i])

    def dims(self) -> np.ndarray:
        """Each loss's dimension, shape (T,)."""
        if self._M is not None:
            return np.full(len(self), self._M.shape[1])
        return np.array([l.dim for l in self._items], dtype=int)

    def values(self, points) -> np.ndarray:
        """Row i's loss at ``points[i]``, equal bit for bit to ``self[i]._value``."""
        points = np.asarray(points, dtype=float)
        M = self._M
        if M is None:
            return np.array([l._value(x) for l, x in zip(self._items, points)], dtype=float)
        if M.shape[1] == 1:
            # exact products; + 0.0 turns a -0.0 into the dot product's +0.0
            s = M[:, 0] * points[:, 0] + 0.0
        else:
            # one dot per row: a matrix product rounds differently
            s = np.array([m @ x for m, x in zip(M, points)], dtype=float)
        return s if self.Y is None else _STACKED[self.kind]._link(s, self.Y)


def batch_values(loss: Loss, pts: np.ndarray) -> np.ndarray:
    """Values of one loss at every row of ``pts``, shape (n, dim) -> (n,)."""
    if isinstance(loss, LinearLoss):
        return pts @ loss.g
    if isinstance(loss, _AffineLoss):
        return loss._link(pts @ loss.a, loss.y)
    if isinstance(loss, CompositeLoss):
        return batch_values(loss.base, pts) + loss.l1_weight * np.sum(np.abs(pts), axis=1)
    return np.array([loss.value(p) for p in pts])


# ---------------------------------------------------------------------------
# path length
# ---------------------------------------------------------------------------


def step_lengths(points, norm: str) -> np.ndarray:
    """Step lengths ||u_t - u_{t-1}|| of a sequence, shape (T, dim) -> (T-1,).

    A length-T scalar sequence is treated as (T, 1).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diffs = np.diff(pts, axis=0)
    if norm == "l2":
        return np.linalg.norm(diffs, axis=1)
    if norm == "l1":
        return np.sum(np.abs(diffs), axis=1)
    raise LossError(f"unknown norm {norm!r}")


def path_length(points, norm: str = "l2") -> float:
    """Total variation sum ||u_t - u_{t-1}|| over a comparator sequence.

    ``points`` is array-like of shape (T, dim); a length-T scalar sequence is
    treated as (T, 1).  An empty or single-point sequence has zero path.
    """
    if len(points) < 2:
        return 0.0
    return float(np.sum(step_lengths(points, norm)))


# ---------------------------------------------------------------------------
# temporal variability
# ---------------------------------------------------------------------------


class Variability(NamedTuple):
    """Both drift totals with an exactness flag (False means a grid lower estimate)."""

    signed: float
    absolute: float
    exact: bool


def temporal_variability(losses, domain: Domain, grid_points: int = 10_000) -> Variability:
    """Sum over t >= 2 of the largest round-to-round loss change on the domain.

    One sweep over the consecutive pairs yields both totals: ``absolute``
    sums sup |l_t - l_{t-1}| and ``signed`` sums sup (l_t - l_{t-1}) clamped
    at zero from below per term, which is the variant the per-run regret
    bounds consume.  Linear losses over simplexes, boxes and balls and
    arbitrary one-dimensional pairs are handled in closed form; other shapes
    fall back to a dense grid and are flagged inexact.  Stacked linear and
    1-d quadratic tables take all pairs at once, the rest go pair by pair.

    For losses over a clipped simplex the supremum is taken over the full
    simplex (the bounds compare against unclipped corners), which can only
    enlarge the total and keeps every checked inequality valid.
    """
    table = losses if isinstance(losses, LossTable) else LossTable.from_losses(losses)
    if table.G is not None:
        dg = np.diff(table.G, axis=0)
        pos, neg = domain._support(dg), domain._support(-dg)
    elif table.kind == "quadratic" and table.A is not None and isinstance(domain, Interval):
        a, y = table.A[:, 0], table.Y
        pos, neg = _segment_sups((0.5 * a * a, -a * y, 0.5 * y * y), domain.lo, domain.hi)
    else:
        return _variability_by_pair(list(table), domain, grid_points)
    # left-to-right sums of the terms Python's max(0.0, pos) and max(pos, neg) pick
    signed = np.cumsum(np.concatenate(([0.0], np.where(pos > 0.0, pos, 0.0))))[-1]
    absolute = np.cumsum(np.concatenate(([0.0], np.where(neg > pos, neg, pos))))[-1]
    return Variability(float(signed), float(absolute), True)


def _variability_by_pair(losses: list, domain: Domain, grid_points: int) -> Variability:
    if not losses:
        raise LossError("temporal variability needs at least one loss")
    signed = absolute = 0.0
    exact_all = True
    forms = {}  # id(loss) -> its 1-d piecewise form, built once per loss

    def pieces(loss):
        form = forms.get(id(loss))
        if form is None:
            form = forms[id(loss)] = _pieces_1d(loss, domain.lo, domain.hi)
        return form

    for prev, cur in zip(losses[:-1], losses[1:]):
        sup_pos, sup_neg, exact = _pair_sup(cur, prev, domain, grid_points, pieces)
        signed += max(0.0, sup_pos)
        absolute += max(sup_pos, sup_neg)
        exact_all = exact_all and exact
    return Variability(signed, absolute, exact_all)


def _segment_sups(coeffs, lo: float, hi: float):
    """Sups of l_t - l_{t-1} and l_{t-1} - l_t on [lo, hi] for every consecutive
    pair of single-segment quadratics (c2, c1, c0) given as (T,) columns."""
    d2, d1, d0 = (np.diff(c) for c in coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -d1 / (2.0 * d2)
    inside = (d2 != 0.0) & (lo < v) & (v < hi)
    v = np.where(inside, v, lo)  # a finite stand-in where there is no vertex
    sup_pos = sup_neg = np.full(d2.shape, -np.inf)
    for x, keep in ((lo, True), (hi, True), (v, inside)):
        f = d2 * x * x + d1 * x + d0
        sup_pos = np.where(keep & (f > sup_pos), f, sup_pos)
        sup_neg = np.where(keep & (-f > sup_neg), -f, sup_neg)
    return sup_pos, sup_neg


def _strip_matching_l1(cur: Loss, prev: Loss) -> tuple[Loss, Loss]:
    # a shared L1 penalty cancels in the difference
    if (isinstance(cur, CompositeLoss) and isinstance(prev, CompositeLoss)
            and cur.l1_weight == prev.l1_weight):
        return cur.base, prev.base
    return cur, prev


def _pair_sup(cur: Loss, prev: Loss, domain: Domain, grid_points: int, pieces):
    """Return (sup of cur-prev, sup of prev-cur, exact_flag) over the domain.

    ``pieces(loss)`` gives a loss's 1-d piecewise form on an interval domain.
    """
    cur, prev = _strip_matching_l1(cur, prev)
    if isinstance(cur, LinearLoss) and isinstance(prev, LinearLoss):
        dg = (cur.g - prev.g)[None, :]
        return float(domain._support(dg)[0]), float(domain._support(-dg)[0]), True
    if isinstance(domain, Interval):
        return _interval_pair_sup(pieces(cur), pieces(prev))
    return _grid_pair_sup(cur, prev, domain, grid_points)


# -- exact one-dimensional difference ---------------------------------------


def _pieces_1d(loss: Loss, lo: float, hi: float):
    """Piecewise-quadratic form of a scalar loss: (a2, a1, a0) per segment.

    Returns (breaks, coeffs) where breaks has k+1 edges covering [lo, hi] and
    coeffs[i] applies on [breaks[i], breaks[i+1]].
    """
    if isinstance(loss, CompositeLoss):
        breaks, coeffs = _pieces_1d(loss.base, lo, hi)
        out_breaks, out_coeffs = _split_at(breaks, coeffs, 0.0)
        for i in range(len(out_coeffs)):
            mid = 0.5 * (out_breaks[i] + out_breaks[i + 1])
            sign = 1.0 if mid >= 0 else -1.0
            a2, a1, a0 = out_coeffs[i]
            out_coeffs[i] = (a2, a1 + sign * loss.l1_weight, a0)
        return out_breaks, out_coeffs
    if isinstance(loss, LinearLoss):
        return [lo, hi], [(0.0, float(loss.g[0]), 0.0)]
    if isinstance(loss, QuadraticLoss):
        a, y = float(loss.a[0]), loss.y
        return [lo, hi], [(0.5 * a * a, -a * y, 0.5 * y * y)]
    if isinstance(loss, AbsoluteLoss):
        a, y = float(loss.a[0]), loss.y
        return _larger_line((a, -y), (-a, y), lo, hi)
    if isinstance(loss, HingeLoss):
        a, y = float(loss.a[0]), loss.y
        return _larger_line((0.0, 0.0), (-y * a, 1.0), lo, hi)
    raise LossError(f"no 1-d piecewise form for {loss.kind!r}")


def _larger_line(p, q, lo: float, hi: float):
    """Piecewise form of max(p1 x + p0, q1 x + q0) on [lo, hi], ties to p."""
    (p1, p0), (q1, q0) = p, q
    if p1 == q1:  # only for a = +-0: a constant, its zero +0.0
        return [lo, hi], [(0.0, 0.0, max(p0, q0) + 0.0)]
    breaks, _ = _split_at([lo, hi], [None], -(p0 - q0) / (p1 - q1))
    coeffs = []
    for left, right in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (left + right)
        coeffs.append((0.0, p1, p0) if p1 * mid + p0 >= q1 * mid + q0 else (0.0, q1, q0))
    return breaks, coeffs


def _split_at(breaks, coeffs, point):
    """Insert a breakpoint, duplicating the segment coefficients it lands in."""
    breaks = list(breaks)
    coeffs = list(coeffs)
    if point <= breaks[0] or point >= breaks[-1]:
        return breaks, coeffs
    for i in range(len(breaks) - 1):
        if breaks[i] < point < breaks[i + 1]:
            breaks.insert(i + 1, point)
            coeffs.insert(i, coeffs[i])
            break
    return breaks, coeffs


def _interval_pair_sup(cur_pieces, prev_pieces):
    b1, c1 = cur_pieces
    b2, c2 = prev_pieces
    edges = sorted(set(b1) | set(b2))

    def seg_coeff(breaks, coeffs, x):
        for i in range(len(coeffs)):
            if breaks[i] <= x <= breaks[i + 1]:
                return coeffs[i]
        return coeffs[-1]

    sup_pos = -np.inf
    sup_neg = -np.inf
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        p2, p1, p0 = seg_coeff(b1, c1, mid)
        q2, q1, q0 = seg_coeff(b2, c2, mid)
        d2, d1, d0 = p2 - q2, p1 - q1, p0 - q0
        cand = [a, b]
        if d2 != 0.0:
            v = -d1 / (2.0 * d2)
            if a < v < b:
                cand.append(v)
        for x in cand:
            f = d2 * x * x + d1 * x + d0
            sup_pos = max(sup_pos, f)
            sup_neg = max(sup_neg, -f)
    return float(sup_pos), float(sup_neg), True


# -- grid fallback ----------------------------------------------------------


def _grid_pair_sup(cur: Loss, prev: Loss, domain: Domain, grid_points: int):
    pts = domain._grid(grid_points)
    diffs = batch_values(cur, pts) - batch_values(prev, pts)
    return float(np.max(diffs)), float(np.max(-diffs)), False
