"""Mirror geometries: bounded domains, Bregman divergences, projections.

A geometry couples a mirror map with a bounded convex domain and carries the
two constants every regret bound in this package consumes: the squared
Bregman diameter ``diameter_sq`` and the drift sensitivity ``gamma`` (how much
the divergence to a fixed anchor can change when the reference point moves one
unit in the primal norm).

Validation contract: public functions and methods accept array-likes (lists,
int arrays, 0-d scalars) and raise ``GeometryError`` for NaN, infinite or
more than 1-d points.  Private helpers take points that passed
``_as_vector``: 1-d float64 vectors with finite coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:  # the ufunc np.clip dispatches to, without its Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip

MEMBERSHIP_TOL = 1e-9

EUCLIDEAN = "euclidean"
ENTROPY = "entropy"


class GeometryError(ValueError):
    """Raised for invalid geometry configurations or inputs."""


def _as_vector(x) -> np.ndarray:
    """Validate a point: a 1-d float64 vector with finite coordinates."""
    if type(x) is not np.ndarray or x.dtype != np.float64 or x.ndim != 1:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim != 1:
            raise GeometryError(f"expected a 1-d point, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise GeometryError("point has NaN or infinite coordinates")
    return x


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


class Domain:
    """Base class for bounded convex domains.

    Points are dense float vectors; scalars are accepted for one-dimensional
    domains and treated as length-1 vectors.
    """

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self._contains(_as_vector(x), tol)

    def _contains(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def _contains_rows(self, X: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Membership of each row of a checked (k, dim) array."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n member points, shape (n, dim)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def midpoint(self) -> np.ndarray:
        """The default first play: the center of the domain."""
        raise NotImplementedError

    def _project(self, p: np.ndarray) -> np.ndarray:
        """Projection of a checked point under the mirror the domain pairs with."""
        raise NotImplementedError

    def _linear_argmin(self, g: np.ndarray, x_t: np.ndarray) -> np.ndarray:
        """A minimizer of <g, x>: the lam -> 0 limit of the prox step from x_t."""
        raise NotImplementedError

    def _support(self, G: np.ndarray) -> np.ndarray:
        """The sup of <g, x> over the domain for each row g of G, (n, d) -> (n,)."""
        raise NotImplementedError

    def _grid(self, n: int) -> np.ndarray:
        """About n points of the domain to search; by default a seeded sample."""
        return self.sample(np.random.Generator(np.random.PCG64(0)), n)


class _Orthotope(Domain):
    """Coordinate-wise bounds ``lo <= x <= hi``: an interval or a box."""

    def clip(self, x: np.ndarray) -> np.ndarray:
        return _clip(x, self.lo, self.hi)

    def midpoint(self):
        return 0.5 * (np.atleast_1d(self.lo) + self.hi)

    def _project(self, p):
        return self.clip(p)

    def _linear_argmin(self, g, x_t):
        # coordinates with zero slope keep the anchor (lam -> 0 limit)
        return np.where(g > 0, self.lo, np.where(g < 0, self.hi, x_t))

    def _support(self, G):
        return np.sum(np.maximum(G * self.lo, G * self.hi), axis=1)


@dataclass(frozen=True)
class Interval(_Orthotope):
    lo: float
    hi: float
    kind = "interval"

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise GeometryError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return 1

    def _contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return x.shape == (1,) and self.lo - tol <= x[0] <= self.hi + tol

    def _contains_rows(self, X, tol: float = MEMBERSHIP_TOL):
        return (X[:, 0] >= self.lo - tol) & (X[:, 0] <= self.hi + tol)

    def l2_diameter(self) -> float:
        return self.hi - self.lo

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, 1))

    def to_dict(self):
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}


class Box(_Orthotope):
    """Axis-aligned box given by coordinate-wise bounds."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = _as_vector(lo)
        hi = _as_vector(hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise GeometryError("box bounds must satisfy lo < hi coordinate-wise")
        self.lo = lo
        self.hi = hi
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        if x.shape != self.lo.shape:
            return False
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def _contains_rows(self, X, tol: float = MEMBERSHIP_TOL):
        return ((X >= self.lo - tol) & (X <= self.hi + tol)).all(axis=1)

    def l2_diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def _grid(self, n):
        if self.dim == 1:
            return np.linspace(self.lo[0], self.hi[0], n)[:, None]
        if self.dim > 2:
            return super()._grid(n)
        side = max(2, int(np.sqrt(n)))
        xs = np.linspace(self.lo[0], self.hi[0], side)
        ys = np.linspace(self.lo[1], self.hi[1], side)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def to_dict(self):
        return {"kind": self.kind, "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self):
        return hash((self.kind, self.lo.tobytes(), self.hi.tobytes()))


@dataclass(frozen=True)
class ClippedSimplex(Domain):
    """Probability simplex with a coordinate floor alpha/d.

    Members satisfy x_i >= alpha/d and sum(x) == 1.  The floor keeps the
    negative-entropy divergence finite: the induced squared diameter is
    log(d / alpha).
    """

    d: int
    alpha: float
    kind = "clipped-simplex"

    def __post_init__(self):
        if self.d < 2:
            raise _keyed("d", "clipped simplex needs d >= 2")
        if not (0.0 < self.alpha < 1.0):
            raise _keyed("alpha", "alpha must lie in (0, 1)")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def floor(self) -> float:
        return self.alpha / self.d

    def _contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return x.shape == (self.d,) and bool(self._contains_rows(x[None, :], tol)[0])

    def _contains_rows(self, X, tol: float = MEMBERSHIP_TOL):
        return _simplex_rows(X, self.floor, tol)

    def sample(self, rng, n):
        # floor plus a Dirichlet spread of the free mass stays feasible
        w = rng.dirichlet(np.ones(self.d), size=n)
        return self.floor + (1.0 - self.alpha) * w

    def to_dict(self):
        return {"kind": self.kind, "d": self.d, "alpha": self.alpha}

    def midpoint(self):
        return np.full(self.d, 1.0 / self.d)

    def _project(self, p):
        if p.shape != (self.d,):
            raise GeometryError(f"expected {self.d} coordinates, got {p.shape}")
        return _kl_project_clipped_simplex(p[None, :], self)[0]

    def _linear_argmin(self, g, x_t):
        # floor everywhere, the remaining mass on the first argmin
        x = np.full(self.d, self.floor)
        x[int(np.argmin(g))] = 1.0 - self.floor * (self.d - 1)
        return x

    def _support(self, G):
        # over the full simplex: the bounds compare against unclipped corners
        return np.max(G, axis=1)

    def _grid(self, n):
        if self.d == 2:
            s = np.linspace(self.floor, 1.0 - self.floor, n)
            return np.column_stack([s, 1.0 - s])
        if self.d > 3:
            return super()._grid(n)
        side = max(2, int(np.sqrt(n)))
        s = np.linspace(self.floor, 1.0 - 2 * self.floor, side)
        g1, g2 = np.meshgrid(s, s)
        g3 = 1.0 - g1 - g2
        keep = g3 >= self.floor
        return np.column_stack([g1[keep], g2[keep], g3[keep]])


class Ball(Domain):
    """Euclidean ball of given center and radius."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = _as_vector(center)
        if not (np.isfinite(radius) and radius > 0):
            raise _keyed("radius", "ball radius must be positive and finite")
        self.center = center
        self.radius = float(radius)
        self.center.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        if x.shape != self.center.shape:
            return False
        return float(np.linalg.norm(x - self.center)) <= self.radius + tol

    def _contains_rows(self, X, tol: float = MEMBERSHIP_TOL):
        return np.linalg.norm(X - self.center, axis=1) <= self.radius + tol

    def l2_diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, rng, n):
        g = rng.normal(size=(n, self.dim))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / self.dim)
        return self.center + r * g

    def to_dict(self):
        return {"kind": self.kind, "center": self.center.tolist(), "radius": self.radius}

    def midpoint(self):
        return self.center.copy()

    def _project(self, p):
        r = p - self.center
        nr = float(np.linalg.norm(r))
        if nr <= self.radius:
            return p.copy()
        return self.center + (self.radius / nr) * r

    def _linear_argmin(self, g, x_t):
        ng = float(np.linalg.norm(g))
        return x_t.copy() if ng == 0.0 else self.center - (self.radius / ng) * g

    def _support(self, G):
        # one dot and one norm per row: a matrix product rounds differently
        return np.array([float(g @ self.center) + self.radius * float(np.linalg.norm(g))
                         for g in G], dtype=float)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def __eq__(self, other):
        return (
            isinstance(other, Ball)
            and self.radius == other.radius
            and np.array_equal(self.center, other.center)
        )

    def __hash__(self):
        return hash((self.kind, self.center.tobytes(), self.radius))


def _simplex_rows(X: np.ndarray, floor: float, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Whether each row of X is a probability vector with coordinates >= floor."""
    return (X >= floor - tol).all(axis=1) & (np.abs(X.sum(axis=1) - 1.0) <= tol)


def _keyed(key: str, message: str) -> GeometryError:
    """A fault in the value of one key of a domain's mapping, named by ``.key``."""
    error = GeometryError(message)
    error.key = key
    return error


def holds_flag(value) -> bool:
    """Whether ``value``, a number or a list of numbers as a config gives
    it, holds a boolean, which ``float`` would read as 0.0 or 1.0."""
    return type(value) is bool or isinstance(value, list) and any(
        type(v) is bool for v in value)


def _read(spec: dict, key: str, read=float):
    """``read(spec[key])``, which must be finite and hold no boolean and no
    text, though ``float`` reads "1.5"; a fault names ``key``."""
    raw = spec.get(key)
    if holds_flag(raw):
        raise _keyed(key, "must be a number, not true or false")
    try:
        value = read(spec[key])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise _keyed(key, "required" if isinstance(exc, KeyError) else str(exc)) from None
    if type(raw) is str or isinstance(raw, list) and any(type(v) is str for v in raw):
        raise _keyed(key, "must be a number, not text")
    if not np.isfinite(value).all():
        raise _keyed(key, "must be finite")
    return value


def domain_from_dict(spec: dict) -> Domain:
    """The domain of a ``to_dict`` mapping.  A fault in one key's value names
    that key in the error's ``key``; a fault between keys names none."""
    kind = spec.get("kind")
    if kind == "interval":
        return Interval(_read(spec, "lo"), _read(spec, "hi"))
    if kind == "box":
        return Box(_read(spec, "lo", _as_vector), _read(spec, "hi", _as_vector))
    if kind == "clipped-simplex":
        return ClippedSimplex(_read(spec, "d", int), _read(spec, "alpha"))
    if kind == "ball":
        return Ball(_read(spec, "center", _as_vector), _read(spec, "radius"))
    raise _keyed("kind", f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def derive_constants(mirror: str, domain: Domain) -> tuple[float, float]:
    """Return (diameter_sq, gamma) for a mirror/domain pairing.

    Entropy over the clipped simplex: both constants equal log(d / alpha),
    the KL diameter of the floored simplex.  Euclidean over an interval, box
    or ball: diameter_sq is half the squared l2 diameter and
    gamma = sqrt(2 * diameter_sq), the worst-case change of the half-squared
    distance to an anchor per unit movement of the reference point.
    """
    if mirror == ENTROPY:
        if not isinstance(domain, ClippedSimplex):
            raise GeometryError("entropy mirror pairs only with the clipped simplex")
        d2 = math.log(domain.d / domain.alpha)
        return d2, d2
    if mirror == EUCLIDEAN:
        if isinstance(domain, ClippedSimplex):
            raise GeometryError("euclidean mirror does not pair with the clipped simplex")
        diam = domain.l2_diameter()
        d2 = 0.5 * diam * diam
        return d2, math.sqrt(2.0 * d2)
    raise GeometryError(f"unknown mirror {mirror!r}")


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


class Geometry:
    """Mirror map + domain + norms + derived constants.

    The primal norm is pinned by the mirror (euclidean -> l2, entropy -> l1)
    and the dual norm is its conjugate.  Instances are immutable.
    """

    def __init__(self, mirror: str, domain: Domain):
        self.diameter_sq, self.gamma = derive_constants(mirror, domain)
        if self.diameter_sq <= 0:  # a tiny euclidean domain's squared diameter underflows
            raise GeometryError("diameter_sq and gamma must be positive")
        self.mirror = mirror
        self.domain = domain
        self.primal_norm = "l2" if mirror == EUCLIDEAN else "l1"

    def __repr__(self):
        return (f"Geometry({self.mirror}, {self.domain!r}, "
                f"D2={self.diameter_sq:.6g}, gamma={self.gamma:.6g})")

    # -- norms ------------------------------------------------------------

    def norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.primal_norm == "l2":
            return float(np.linalg.norm(v))
        return float(np.sum(np.abs(v)))

    def dual_norm(self, g) -> float:
        g = np.asarray(g, dtype=float)
        if self.primal_norm == "l2":
            return float(np.linalg.norm(g))
        return float(np.max(np.abs(g))) if g.size else 0.0

    # -- divergence -------------------------------------------------------

    def bregman(self, x, y) -> float:
        """Bregman divergence B(x, y) of the mirror map.

        Euclidean: 0.5 * ||x - y||_2^2.  Entropy: KL(x, y) with the
        convention 0 * log 0 = 0; y must have strictly positive coordinates.
        """
        return self._bregman(*self._divergence_pair(x, y))

    def _divergence_pair(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Validate the two arguments of the divergence."""
        x = _as_vector(x)
        y = _as_vector(y)
        if x.shape != y.shape:
            raise GeometryError("bregman arguments must share a shape")
        if self.mirror == ENTROPY and np.any(y <= 0.0):
            raise GeometryError("entropy divergence needs y > 0 coordinate-wise")
        return x, y

    def _bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        d = x - y
        if self.mirror == EUCLIDEAN:
            return 0.5 * float(d @ d)
        # fused per-term form x*log1p((x-y)/y) - (x-y): the absolute float
        # error scales with |x-y|, so lam * B stays meaningful at huge lam
        with np.errstate(divide="ignore"):
            terms = np.where(x > 0.0, x * np.log1p(np.where(x > 0.0, d, 0.0) / y) - d, y)
        return float(np.sum(terms))

    # -- projection -------------------------------------------------------

    def project(self, p) -> np.ndarray:
        """Bregman-project p onto the domain.

        Euclidean: coordinate clipping for intervals and boxes, radial
        scaling for balls.  Clipped simplex: KL projection of a positive
        weight vector by capping floored coordinates and renormalizing the
        rest (at most d passes).
        """
        return self.domain._project(_as_vector(p))


def _kl_project_clipped_simplex(P: np.ndarray, dom: ClippedSimplex) -> np.ndarray:
    """KL projection of each row of a positive (k, d) array onto the floored simplex.

    The minimizer has the form x_i = max(floor, c * p_i) with c chosen so the
    coordinates sum to one.  Each pass floors the coordinates that fell
    below the floor and renormalizes the rest.  Renormalizing only shrinks
    c, so floored coordinates never unfloor and every row settles within d
    passes; a settled row comes out of later passes unchanged.  A row's
    normalizer is the sum of its free coordinates alone, so each row equals
    the projection of that row on its own bit for bit.
    """
    if (P <= 0.0).any():
        raise GeometryError("simplex projection needs strictly positive weights")
    floor = dom.floor
    floored = np.zeros(P.shape, dtype=bool)
    n_floored = 0
    sums = P.sum(axis=1)
    for _ in range(dom.d):
        X = ((1.0 - floor * n_floored) / sums)[:, None] * P
        X[floored] = floor
        newly = X < floor
        if not newly.any():
            break
        floored |= newly
        n_floored = floored.sum(axis=1)
        sums = _free_sums(P, floored, dom.d - n_floored)
    X[floored] = floor
    return X


def _free_sums(P: np.ndarray, floored: np.ndarray, n_free: np.ndarray) -> np.ndarray:
    """Row sums of P over its un-floored coordinates, each summed as one
    compressed vector (numpy's pairwise grouping depends on the length):
    rows with the same free count share one (r, m) sum."""
    counts = n_free.tolist()
    if len(set(counts)) == 1:
        return P[~floored].reshape(-1, counts[0]).sum(axis=1)
    sums = np.empty(P.shape[0])
    for m in set(counts):
        same = n_free == m
        sums[same] = P[same][~floored[same]].reshape(-1, m).sum(axis=1)
    return sums


def euclidean_geometry(domain: Domain) -> Geometry:
    return Geometry(EUCLIDEAN, domain)


def entropy_geometry(domain: ClippedSimplex) -> Geometry:
    return Geometry(ENTROPY, domain)
