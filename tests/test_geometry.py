import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.geometry import (
    Ball,
    Box,
    ClippedSimplex,
    Geometry,
    GeometryError,
    Interval,
    derive_constants,
    domain_from_dict,
    _kl_project_clipped_simplex,
    entropy_geometry,
    euclidean_geometry,
)


def _kl(x, y):
    # batched KL with the 0 * log 0 = 0 convention; rows are points
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    ratio = np.zeros_like(x)
    mask = x > 0
    ratio[mask] = x[mask] * np.log(x[mask] / np.broadcast_to(y, x.shape)[mask])
    return ratio.sum(axis=1) - x.sum(axis=1) + np.broadcast_to(y, x.shape).sum(axis=1)


# ---------------------------------------------------------------------------
# divergence values
# ---------------------------------------------------------------------------


def test_bregman_euclidean_point_values():
    geom = euclidean_geometry(Box([-2, -2], [2, 2]))
    assert geom.bregman([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert geom.bregman([0.3, -0.7], [0.3, -0.7]) == 0.0


def test_bregman_entropy_point_values():
    geom = entropy_geometry(ClippedSimplex(2, 0.5))
    assert geom.bregman([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert geom.bregman([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.14384, abs=5e-6)


def test_bregman_entropy_rejects_boundary_reference():
    geom = entropy_geometry(ClippedSimplex(2, 0.5))
    with pytest.raises(GeometryError):
        geom.bregman([0.5, 0.5], [1.0, 0.0])


def test_bregman_nonnegative_and_zero_iff_equal():
    rng = np.random.Generator(np.random.PCG64(11))
    for geom in (
        euclidean_geometry(Box([-1, 0, -3], [2, 1, 3])),
        euclidean_geometry(Ball([0.5, -0.5], 2.0)),
        entropy_geometry(ClippedSimplex(4, 0.1)),
    ):
        pts = geom.domain.sample(rng, 200)
        for i in range(0, 200, 2):
            x, y = pts[i], pts[i + 1]
            b = geom.bregman(x, y)
            assert b >= 0.0
            if b < 1e-12:
                assert np.allclose(x, y, atol=1e-5)
            assert geom.bregman(x, x) <= 1e-12


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_derive_constants_entropy_simplex():
    d2, gamma = derive_constants("entropy", ClippedSimplex(10, 0.01))
    assert d2 == pytest.approx(math.log(1000.0), abs=1e-12)
    assert d2 == pytest.approx(6.9078, abs=5e-5)
    assert gamma == d2


def test_derive_constants_euclidean_interval():
    d2, gamma = derive_constants("euclidean", Interval(-1.0, 1.0))
    assert d2 == pytest.approx(2.0, abs=1e-12)
    assert gamma == pytest.approx(2.0, abs=1e-12)


def test_derive_constants_euclidean_box():
    for d in (1, 2, 5):
        d2, _ = derive_constants("euclidean", Box(np.zeros(d), np.ones(d)))
        assert d2 == pytest.approx(d / 2.0, abs=1e-12)


def test_diameter_dominates_sampled_divergences():
    rng = np.random.Generator(np.random.PCG64(7))
    for geom in (
        euclidean_geometry(Interval(-1.0, 1.0)),
        euclidean_geometry(Box([0, 0], [1, 1])),
        entropy_geometry(ClippedSimplex(5, 0.2)),
    ):
        pts = geom.domain.sample(rng, 400)
        for i in range(0, 400, 2):
            assert geom.bregman(pts[i], pts[i + 1]) <= geom.diameter_sq + 1e-9


def _sq_euclid(xs, ys):
    d = xs - ys
    return 0.5 * np.sum(d * d, axis=1)


def test_strong_convexity_in_paired_norm():
    # divergence dominates half the squared primal norm, 1e4 pairs each
    rng = np.random.Generator(np.random.PCG64(23))
    geom = euclidean_geometry(Box([-1, -1, -1], [1, 1, 1]))
    xs = geom.domain.sample(rng, 10_000)
    ys = geom.domain.sample(rng, 10_000)
    bs = np.array([geom.bregman(xs[i], ys[i]) for i in range(0, 10_000, 20)])
    half = _sq_euclid(xs[::20], ys[::20])
    np.testing.assert_allclose(bs, half, atol=1e-12)

    geom = entropy_geometry(ClippedSimplex(6, 0.3))
    xs = geom.domain.sample(rng, 10_000)
    ys = geom.domain.sample(rng, 10_000)
    kl = _kl(xs, ys)
    l1 = np.sum(np.abs(xs - ys), axis=1)
    assert np.all(0.5 * l1 * l1 <= kl + 1e-9)


def test_gamma_bounds_divergence_shift():
    # B(x, z) - B(y, z) <= gamma * ||x - y||, 1e4 sampled triples
    rng = np.random.Generator(np.random.PCG64(41))
    geom = euclidean_geometry(Interval(-1.0, 1.0))
    xs = geom.domain.sample(rng, 10_000)
    ys = geom.domain.sample(rng, 10_000)
    zs = geom.domain.sample(rng, 10_000)
    lhs = _sq_euclid(xs, zs) - _sq_euclid(ys, zs)
    assert np.all(lhs <= geom.gamma * np.linalg.norm(xs - ys, axis=1) + 1e-9)

    geom = entropy_geometry(ClippedSimplex(5, 0.25))
    xs = geom.domain.sample(rng, 10_000)
    ys = geom.domain.sample(rng, 10_000)
    zs = geom.domain.sample(rng, 10_000)
    kl_x = np.array([geom.bregman(xs[i], zs[i]) for i in range(0, 10_000, 10)])
    kl_y = np.array([geom.bregman(ys[i], zs[i]) for i in range(0, 10_000, 10)])
    l1 = np.array([np.sum(np.abs(xs[i] - ys[i])) for i in range(0, 10_000, 10)])
    assert np.all(kl_x - kl_y <= geom.gamma * l1 + 1e-9)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_interval_interior_point_unchanged():
    geom = euclidean_geometry(Interval(-1.0, 1.0))
    assert geom.project(0.3)[0] == 0.3


def test_project_box_clips_coordinates():
    geom = euclidean_geometry(Box([0, 0], [1, 1]))
    np.testing.assert_allclose(geom.project([1.5, -0.2]), [1.0, 0.0], atol=0)


def test_project_ball_radial_scaling():
    geom = euclidean_geometry(Ball([0.0, 0.0], 1.0))
    out = geom.project([3.0, 4.0])
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)
    np.testing.assert_allclose(geom.project([0.1, 0.2]), [0.1, 0.2], atol=0)


def test_project_clipped_simplex_two_dim_matches_grid():
    dom = ClippedSimplex(2, 0.5)
    geom = entropy_geometry(dom)
    p = np.array([0.9, 0.1])
    out = geom.project(p)
    np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    # brute-force check on a dense parametrization of the feasible segment
    theta = np.linspace(dom.floor, 1.0 - dom.floor, 40_001)
    cand = np.stack([theta, 1.0 - theta], axis=1)
    kls = _kl(cand, p)
    best = cand[np.argmin(kls)]
    np.testing.assert_allclose(out, best, atol=1e-4)
    assert _kl(out[None, :], p)[0] <= kls.min() + 1e-8


def test_project_clipped_simplex_handles_multiple_floors():
    dom = ClippedSimplex(5, 0.5)
    geom = entropy_geometry(dom)
    out = geom.project(np.array([100.0, 50.0, 1e-6, 1e-9, 1e-9]))
    assert abs(out.sum() - 1.0) <= 1e-9
    assert np.all(out >= dom.floor - 1e-12)
    assert out[0] > out[1] > out[2]
    assert out[3] == pytest.approx(dom.floor)


def test_projection_optimality_against_sampled_candidates():
    # bregman(project(p), p) <= bregman(q, p) for 1e3 points x 1e3 candidates
    rng = np.random.Generator(np.random.PCG64(3))

    geom = euclidean_geometry(Box([-1, -1], [1, 1]))
    qs = geom.domain.sample(rng, 1000)
    for _ in range(1000):
        p = rng.uniform(-3, 3, size=2)
        x = geom.project(p)
        d_best = 0.5 * np.sum((x - p) ** 2)
        d_all = 0.5 * np.sum((qs - p) ** 2, axis=1)
        assert d_best <= d_all.min() + 1e-8

    dom = ClippedSimplex(4, 0.2)
    geom = entropy_geometry(dom)
    qs = dom.sample(rng, 1000)
    for _ in range(1000):
        p = rng.uniform(0.05, 3.0, size=4)
        x = geom.project(p)
        assert dom.contains(x)
        # same objective the projection minimizes: KL(q, p) up to terms
        # constant in q, evaluated directly
        d_best = _kl(x[None, :], p)[0]
        d_all = _kl(qs, p)
        assert d_best <= d_all.min() + 1e-8


def test_project_simplex_outputs_stay_members():
    rng = np.random.Generator(np.random.PCG64(17))
    dom = ClippedSimplex(6, 0.12)
    geom = entropy_geometry(dom)
    for _ in range(300):
        p = rng.uniform(1e-4, 5.0, size=6)
        x = geom.project(p)
        assert np.min(x) >= dom.floor - 1e-12
        assert abs(float(np.sum(x)) - 1.0) <= 1e-9


def test_project_rejects_nonfinite_input():
    geom = euclidean_geometry(Interval(-1.0, 1.0))
    with pytest.raises(GeometryError):
        geom.project(float("nan"))
    with pytest.raises(GeometryError):
        geom.project(float("inf"))


def _loop_projection(p, dom):
    # the former one-vector projection loop, kept as the reference the
    # row-batched projection must reproduce bit for bit
    floor = dom.floor
    floored = np.zeros(dom.d, dtype=bool)
    x = np.empty(dom.d)
    for _ in range(dom.d):
        free = ~floored
        c = (1.0 - floor * floored.sum()) / float(np.sum(p[free]))
        x[free] = c * p[free]
        x[floored] = floor
        newly = free & (x < floor)
        if not newly.any():
            break
        floored |= newly
    x[floored] = floor
    return x


@st.composite
def _weights(draw):
    """(alpha, P): 1 to 5 rows of d positive weights spread over up to 30
    decades, so that the projection floors coordinates."""
    d = draw(st.integers(2, 40))
    k = draw(st.integers(1, 5))
    spread = draw(st.sampled_from([1.0, 5.0, 30.0]))
    logs = draw(st.lists(st.lists(st.floats(-spread, 1.0), min_size=d, max_size=d),
                         min_size=k, max_size=k))
    alpha = draw(st.sampled_from([1e-3, 0.05, 0.3, 0.9]) | st.floats(1e-4, 0.99))
    return alpha, np.exp(np.log(10.0) * np.array(logs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_weights())
def test_simplex_projection_properties(case):
    alpha, P = case
    dom = ClippedSimplex(P.shape[1], alpha)
    geom = entropy_geometry(dom)
    X = _kl_project_clipped_simplex(P, dom)
    for p, x in zip(P, X):
        assert np.all(x >= dom.floor)
        assert abs(float(np.sum(x)) - 1.0) <= 1e-12
        # x = max(floor, c * p) with one c
        free = x > dom.floor
        c = x[free] / p[free]
        np.testing.assert_allclose(c, c[0], rtol=1e-13)
        assert np.all(c[0] * p[~free] <= dom.floor * (1.0 + 1e-13))
        assert np.array_equal(geom.project(p), x)
        assert np.array_equal(_loop_projection(p, dom), x)


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


def test_domain_invariants_enforced():
    with pytest.raises(GeometryError):
        Interval(1.0, 1.0)
    with pytest.raises(GeometryError):
        Box([0, 0], [1, -1])
    with pytest.raises(GeometryError):
        ClippedSimplex(1, 0.5)
    with pytest.raises(GeometryError):
        ClippedSimplex(3, 1.5)
    with pytest.raises(GeometryError):
        Ball([0.0], -1.0)


def test_mirror_domain_pairing_enforced():
    with pytest.raises(GeometryError):
        Geometry("entropy", Interval(-1, 1))
    with pytest.raises(GeometryError):
        Geometry("euclidean", ClippedSimplex(3, 0.5))
    with pytest.raises(GeometryError, match="must be positive"):
        euclidean_geometry(Interval(0.0, 1e-200))


def test_domain_dict_roundtrip():
    for dom in (
        Interval(-1.0, 1.0),
        Box([0, 0], [1, 2]),
        ClippedSimplex(4, 0.25),
        Ball([0.0, 1.0], 2.0),
    ):
        back = domain_from_dict(dom.to_dict())
        assert back.to_dict() == dom.to_dict()


def test_norms_follow_mirror():
    ge = euclidean_geometry(Box([-1, -1], [1, 1]))
    assert ge.norm([3.0, 4.0]) == pytest.approx(5.0)
    assert ge.dual_norm([3.0, 4.0]) == pytest.approx(5.0)
    gn = entropy_geometry(ClippedSimplex(2, 0.5))
    assert gn.norm([0.5, -0.5]) == pytest.approx(1.0)
    assert gn.dual_norm([0.5, -0.25]) == pytest.approx(0.5)


@pytest.mark.parametrize("dom", [
    Interval(-0.4, 0.4),
    Box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0]),
    Ball([0.5, -1.0], 2.0),
    ClippedSimplex(4, 0.2),
], ids=lambda d: d.kind)
def test_row_membership_matches_the_point_rule(dom):
    rng = np.random.default_rng(5)
    inside = dom.sample(rng, 40)
    # points on, just inside and just outside the boundary, and far outside
    edge = np.vstack([dom.sample(rng, 40) * s for s in (1.0 - 1e-10, 1.0 + 1e-8, 3.0)])
    X = np.vstack([inside, edge, inside + 1e-10, inside - 1e-8])
    expected = [dom._contains(x) for x in X]
    assert dom._contains_rows(X).tolist() == expected
    assert all(expected[:40]) and not all(expected)


# ---------------------------------------------------------------------------
# the domain methods against the chains they replaced
# ---------------------------------------------------------------------------


def _former_center(domain):
    # learners.domain_center
    if isinstance(domain, Interval):
        return np.array([0.5 * (domain.lo + domain.hi)])
    if isinstance(domain, Box):
        return 0.5 * (domain.lo + domain.hi)
    if isinstance(domain, ClippedSimplex):
        return np.full(domain.d, 1.0 / domain.d)
    return domain.center.copy()


def _former_project(p, dom):
    # Geometry.project
    if isinstance(dom, (Interval, Box)):
        return dom.clip(p)
    if isinstance(dom, Ball):
        r = p - dom.center
        nr = float(np.linalg.norm(r))
        if nr <= dom.radius:
            return p.copy()
        return dom.center + (dom.radius / nr) * r
    return _kl_project_clipped_simplex(p[None, :], dom)[0]


def _former_linear_argmin(g, x_t, dom):
    # prox._linear_euclidean at lam = 0, and the entropy lanes' lam = 0 argmin
    if isinstance(dom, (Interval, Box)):
        if isinstance(dom, Interval):
            lo = np.array([dom.lo])
            hi = np.array([dom.hi])
        else:
            lo, hi = dom.lo, dom.hi
        return np.where(g > 0, lo, np.where(g < 0, hi, x_t)).astype(float)
    if isinstance(dom, Ball):
        ng = float(np.linalg.norm(g))
        return x_t.copy() if ng == 0.0 else dom.center - (dom.radius / ng) * g
    argmin = np.full(dom.d, dom.floor)
    argmin[int(np.argmin(g))] = 1.0 - dom.floor * (dom.d - 1)
    return argmin


def _former_sups(dg, dom):
    # losses._linear_sups, and losses._pair_sup's ball branch row by row
    if isinstance(dom, ClippedSimplex):
        return np.max(dg, axis=1), np.max(-dg, axis=1)
    if isinstance(dom, Ball):
        mids = [float(g @ dom.center) for g in dg]
        rads = [dom.radius * float(np.linalg.norm(g)) for g in dg]
        return (np.array([m + r for m, r in zip(mids, rads)]),
                np.array([-m + r for m, r in zip(mids, rads)]))
    lo, hi = np.atleast_1d(dom.lo), np.atleast_1d(dom.hi)
    return (np.sum(np.maximum(dg * lo, dg * hi), axis=1),
            np.sum(np.maximum(-dg * lo, -dg * hi), axis=1))


def _former_grid(domain, grid_points):
    # losses._domain_grid
    if isinstance(domain, Box) and domain.dim <= 2:
        if domain.dim == 1:
            return np.linspace(domain.lo[0], domain.hi[0], grid_points)[:, None]
        side = max(2, int(np.sqrt(grid_points)))
        xs = np.linspace(domain.lo[0], domain.hi[0], side)
        ys = np.linspace(domain.lo[1], domain.hi[1], side)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])
    if isinstance(domain, ClippedSimplex) and domain.d == 2:
        s = np.linspace(domain.floor, 1.0 - domain.floor, grid_points)
        return np.column_stack([s, 1.0 - s])
    if isinstance(domain, ClippedSimplex) and domain.d == 3:
        side = max(2, int(np.sqrt(grid_points)))
        s1 = np.linspace(domain.floor, 1.0 - 2 * domain.floor, side)
        s2 = np.linspace(domain.floor, 1.0 - 2 * domain.floor, side)
        g1, g2 = np.meshgrid(s1, s2)
        g3 = 1.0 - g1 - g2
        keep = g3 >= domain.floor
        return np.column_stack([g1[keep], g2[keep], g3[keep]])
    rng = np.random.Generator(np.random.PCG64(0))
    return domain.sample(rng, grid_points)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


DOMAINS = [
    Interval(-0.5, 2.0), Interval(0, 1), Box([-1.0], [0.5]), Box([-1.0, 0.0], [0.5, 3.0]),
    Box(np.linspace(-1.0, 0.0, 4), np.linspace(0.5, 3.0, 4)),
    ClippedSimplex(2, 0.1), ClippedSimplex(3, 0.3), ClippedSimplex(6, 0.05),
    Ball([0.25], 1.5), Ball([0.5, -1.0], 2.0), Ball([0.0, 1.0, -0.5, 2.0], 0.75),
]
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 1e-9]) | st.floats(-4.0, 4.0)


@st.composite
def _domain_vectors(draw):
    """(domain, three vectors of its dimension): a point, a slope and a
    stack of slopes, with zero, signed-zero, edge and far coordinates."""
    dom = draw(st.sampled_from(DOMAINS))
    vec = st.lists(_COORDS, min_size=dom.dim, max_size=dom.dim).map(np.array)
    return dom, draw(vec), draw(vec), np.array(draw(st.lists(vec, min_size=0, max_size=6)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_domain_vectors())
def test_domain_methods_equal_the_chains_they_replaced(case):
    dom, p, g, G = case
    assert _same_bits(dom.midpoint(), _former_center(dom))
    x_t = dom.midpoint()
    assert _same_bits(dom._linear_argmin(g, x_t), _former_linear_argmin(g, x_t, dom))
    if isinstance(dom, ClippedSimplex):
        p = np.abs(p) + 1e-3  # the KL projection takes positive weights
    assert _same_bits(Geometry("entropy" if isinstance(dom, ClippedSimplex) else "euclidean",
                               dom).project(p), _former_project(p, dom))
    G = G.reshape(-1, dom.dim)
    pos, neg = _former_sups(G, dom)
    assert _same_bits(dom._support(G), pos) and _same_bits(dom._support(-G), neg)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: f"{d.kind}{d.dim}")
def test_domain_grid_equals_the_former_grid(dom):
    for n in (1, 2, 17, 400):
        assert _same_bits(dom._grid(n), _former_grid(dom, n))
