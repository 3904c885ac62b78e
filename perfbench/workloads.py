"""Benchmark workloads: each one is a driftlab config built from a seed.

A workload is what a user would type: one config file handed to
``driftlab run`` (or ``driftlab sweep``), then ``driftlab verify`` over every
trace that run wrote.  The seed only picks the environment seeds of the
cells; the shape of the work (environment, algorithms, horizon, number of
cells) is fixed per workload, so runs with different seeds do the same
amount of work on different inputs.
"""

from __future__ import annotations

# The seed the committed golden digests were computed at.
GOLDEN_SEED = 0

_DIOMD_ADAPTIVE = {"name": "diomd", "schedule": "adaptive", "tau": 4.0}


def _seeds(seed: int, count: int) -> list:
    return [seed * count + i for i in range(count)]


def quad_sweep(seed: int) -> dict:
    return {
        "environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}},
        "T": 300,
        "seeds": _seeds(seed, 2),
        "algorithms": [
            {"name": "greedy"},
            dict(_DIOMD_ADAPTIVE),
            {"name": "diomd", "schedule": "fixed", "shape": "inv_sqrt", "scale": 1.0},
            {"name": "diomd-doubling"},
            {"name": "ogd"},
            {"name": "abprod", "candidate": dict(_DIOMD_ADAPTIVE),
             "benchmark": {"name": "greedy"}},
        ],
        "sweep": {"environment.params.tau": [0.5, 4.0]},
    }


def noise_seeds(seed: int) -> dict:
    return {
        "environment": {"kind": "lower-bound", "params": {"sigma": 0.3}},
        "T": 1536,
        "seeds": _seeds(seed, 8),
        "algorithm": {"name": "diomd", "schedule": "adaptive", "tau": 0.0},
    }


def expert_shift(seed: int) -> dict:
    return {
        "environment": {"kind": "shifting-experts", "params": {"d": 16, "shifts": 8}},
        "T": 512,
        "seeds": _seeds(seed, 1),
        "algorithms": [
            {"name": "diomd", "schedule": "adaptive", "tau": 16.0},
            {"name": "adapt-ml-prod"},
            {"name": "scaffold"},
            {"name": "abprod", "candidate": {"name": "scaffold"},
             "benchmark": {"name": "greedy"}},
        ],
    }


# name -> (subcommand, config builder, why it was chosen)
WORKLOADS = {
    "quad-sweep": (
        "sweep", quad_sweep,
        "many algorithms, few seeds: scalar rounds cost small-array overhead and "
        "the report's exact 1-d variability is a third of a cell"),
    "noise-seeds": (
        "run", noise_seeds,
        "one learner over many seeds and a long horizon: the multi-seed shape that "
        "lane batching targets and montecarlo.run_family serves today"),
    "expert-shift": (
        "run", expert_shift,
        "vector rounds on the entropy simplex: scaffold wakes log T bases, KL "
        "projection and ML-Prod bound replay dominate; seed lanes do not help"),
}


def tiny_configs() -> dict:
    """Golden-digest cells: every registered algorithm at T=40, plus the box."""
    dq = {"kind": "drifting-quadratic", "params": {"tau": 2.0}}
    return {
        "tiny-quad": {
            "environment": dq,
            "T": 40,
            "seeds": [0],
            "algorithms": [
                {"name": "greedy"},
                {"name": "diomd", "schedule": "adaptive", "tau": 2.0},
                {"name": "diomd", "schedule": "fixed", "shape": "inv_sqrt", "scale": 1.0},
                {"name": "diomd-doubling"},
                {"name": "ogd"},
                {"name": "abprod", "candidate": {"name": "diomd", "schedule": "adaptive",
                                                 "tau": 2.0},
                 "benchmark": {"name": "greedy"}},
            ],
        },
        "tiny-experts": {
            "environment": {"kind": "shifting-experts", "params": {"d": 4, "shifts": 3}},
            "T": 40,
            "seeds": [0],
            "algorithms": [{"name": "adapt-ml-prod"}, {"name": "scaffold"}],
        },
        # The only cells that reach the numeric-descent prox route and the
        # 10 000-point variability grid, which costs about 0.4 s per round
        # pair, so T stays small.  The comparators leave the box, and at
        # seed 3 greedy's drift bound row fails: the bound assumes
        # comparators inside the domain.
        "tiny-box": {
            "environment": dq,
            "geometry": {"mirror": "euclidean",
                         "domain": {"kind": "box", "lo": [-0.4], "hi": [0.4]}},
            "T": 3,
            "seeds": [3],
            "algorithms": [{"name": "greedy"},
                           {"name": "diomd", "schedule": "adaptive", "tau": 2.0}],
        },
    }
