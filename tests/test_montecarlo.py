import json

import numpy as np
import pytest

from driftlab.learners import ConfigError
from driftlab.montecarlo import LEARNERS, lower_bound_sweep, noise_paths, run_family
from driftlab.runner import expand_config, run_cell

_ALG_SPECS = {
    "greedy": {"name": "greedy"},
    "diomd-adaptive": {"name": "diomd", "schedule": "adaptive", "tau": 0.0},
    "diomd-fixed": {"name": "diomd", "schedule": "fixed", "shape": "inv_sqrt", "scale": 1.0},
    "diomd-doubling": {"name": "diomd-doubling"},
    "ogd": {"name": "ogd"},
}


def _live_values(alg_spec, sigma, T, seed):
    config = {
        "environment": {"kind": "lower-bound", "params": {"sigma": sigma}},
        "algorithm": alg_spec,
        "T": T,
        "seeds": [seed],
    }
    res = run_cell(expand_config(config)[:1])[0]
    vals = []
    for line in res.trace_lines[1:]:
        rec = json.loads(line)
        if "final" in rec:
            break
        vals.append(rec["value"])
    return np.array(vals), res.report["metrics"]


def test_noise_paths_match_live_environment():
    sigma, T = 0.3, 64
    eps = noise_paths(sigma, T, [0, 5])
    for col, seed in enumerate([0, 5]):
        config = {
            "environment": {"kind": "lower-bound", "params": {"sigma": sigma}},
            "algorithm": {"name": "greedy"},
            "T": T,
            "seeds": [seed],
        }
        res = run_cell(expand_config(config)[:1])[0]
        ys = [json.loads(line)["loss"]["y"] for line in res.trace_lines[1:-1]]
        np.testing.assert_array_equal(eps[:, col], ys)


@pytest.mark.parametrize("learner", LEARNERS)
def test_batched_lane_equals_live_run(learner):
    # lane-for-lane replica of the production update arithmetic: the batch
    # and the live trace must agree to the last bit, not merely closely
    sigma, T, seeds = 0.3, 500, [0, 7]
    sweep = run_family(learner, sigma, T, seeds, keep_values=True)
    for col, seed in enumerate(seeds):
        live_vals, metrics = _live_values(_ALG_SPECS[learner], sigma, T, seed)
        np.testing.assert_array_equal(sweep.values[:, col], live_vals)
        assert sweep.regret[col] == pytest.approx(metrics["regret"], abs=1e-12)
        assert sweep.vt[col] == pytest.approx(metrics["vt_abs"], abs=1e-12)


def test_sweep_grid_shape_and_floor_sanity():
    seeds = list(range(40))
    out = lower_bound_sweep([0.3], 2000, seeds, learners=("greedy", "ogd"))
    for key, res in out.items():
        assert res.regret.shape == (40,)
        # noise floor: no learner beats sigma^2 T / 2 on average
        assert res.regret.mean() >= 0.95 * 0.3**2 * 2000 / 2
        # per-run drift never exceeds the 2 sigma T ceiling
        assert np.all(res.vt <= 2 * 0.3 * 2000)
    # the family the benchmark's traced run times after its passes
    res = run_family("diomd-adaptive", 0.3, 1536, list(range(8)))
    assert res.regret.shape == res.vt.shape == (8,)
    assert np.isfinite(res.regret).all() and np.isfinite(res.vt).all()


def test_input_validation():
    with pytest.raises(ConfigError):
        noise_paths(0.0, 100, [0])
    with pytest.raises(ConfigError):
        noise_paths(0.1, 50, [0])  # sigma * sqrt(T) <= 1
    with pytest.raises(ConfigError):
        run_family("hedge", 0.3, 500, [0])
