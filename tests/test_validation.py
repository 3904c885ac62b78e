"""The validation contract: every public entry point checks its points.

Public functions and methods validate what they are given and private
helpers trust it, so the checks below pin what the public side must keep
rejecting (NaN, infinite and 2-d points raise ``GeometryError``) and keep
accepting (lists, int arrays and 0-d scalars).
"""

from __future__ import annotations

import numpy as np
import pytest

from driftlab.geometry import (
    Ball,
    Box,
    ClippedSimplex,
    GeometryError,
    Interval,
    euclidean_geometry,
)
from driftlab.losses import (
    AbsoluteLoss,
    CompositeLoss,
    HingeLoss,
    LinearLoss,
    QuadraticLoss,
)
from driftlab.prox import compute_delta, implicit_update, prox_objective

GEOM = euclidean_geometry(Interval(-1.0, 1.0))
QUAD = QuadraticLoss([1.0], 0.3)
LOSSES = {
    "linear": LinearLoss([0.5]),
    "quadratic": QUAD,
    "absolute": AbsoluteLoss([1.0], 0.3),
    "hinge": HingeLoss([1.0], 1.0),
    "composite": CompositeLoss(QuadraticLoss([1.0], 0.3), 0.1),
}

# entry point name -> callable of one point
ENTRIES = {
    **{f"{kind}.value": loss.value for kind, loss in LOSSES.items()},
    **{f"{kind}.subgradient": loss.subgradient for kind, loss in LOSSES.items()},
    "quadratic.residual": QUAD.residual,
    "absolute.residual": LOSSES["absolute"].residual,
    "hinge.margin": LOSSES["hinge"].margin,
    "bregman.x": lambda p: GEOM.bregman(p, [0.0]),
    "bregman.y": lambda p: GEOM.bregman([0.0], p),
    "project": GEOM.project,
    "interval.contains": Interval(-1.0, 1.0).contains,
    "box.contains": Box([-1.0], [1.0]).contains,
    "simplex.contains": ClippedSimplex(2, 0.5).contains,
    "ball.contains": Ball([0.0], 1.0).contains,
    "implicit_update.x_t": lambda p: implicit_update(QUAD, GEOM, p, 1.0),
    "compute_delta.x_t": lambda p: compute_delta(QUAD, GEOM, p, [0.0], 1.0),
    "compute_delta.x_next": lambda p: compute_delta(QUAD, GEOM, [0.0], p, 1.0),
    "prox_objective.x": lambda p: prox_objective(QUAD, GEOM, [0.0], 1.0, p),
    "prox_objective.x_t": lambda p: prox_objective(QUAD, GEOM, p, 1.0, [0.0]),
}

POINTS = {
    "nan": (np.array([np.nan]), False),
    "inf": (np.array([np.inf]), False),
    "-inf": (np.array([-np.inf]), False),
    "nan-list": ([float("nan")], False),
    "2-d": (np.array([[0.25]]), False),
    "list": ([0.25], True),
    "int-array": (np.array([0]), True),
    "0-d": (np.array(0.25), True),
    "float": (0.25, True),
}


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_public_entry_points_validate_their_points(entry, point):
    p, accepted = POINTS[point]
    if accepted:
        ENTRIES[entry](p)
    else:
        with pytest.raises(GeometryError):
            ENTRIES[entry](p)
