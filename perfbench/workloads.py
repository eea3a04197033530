"""The benchmark's workloads: CLI invocations built from a seed.

Each workload is a list of operations, one CLI invocation each. A run repeats
the whole list in rounds, so every round attempts the same operations. The
seed sets the physical parameters of the configs; command-line seeds given to
the program stay fixed (verify's statistical checks and the mb variance check
are judged at 3 and 4 standard errors, and a seed that happened to cross
them would fail the run by chance). With the sampler's seed fixed, mb's
variance check reads the same in standard errors for every m0 and T, because
the draws only scale.
"""

import json
import math
import os

import numpy as np

import checks

VERIFY_SEED = 0
ENSEMBLE_SEED = 7
STEP = 1e-3


class Op:
    """One CLI invocation, the check of what it writes, and its work count.

    expect_usage marks a probe: it passes only when the CLI refuses its
    config with exit code 2. rate names the throughput the op counts toward,
    as (metric, unit, amount of work per invocation).
    """

    def __init__(self, name, argv, config=None, check=None, expect_usage=False,
                 rate=None):
        self.name = name
        self.argv = argv
        self.config = config
        self.check = check
        self.expect_usage = expect_usage
        self.rate = rate


def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def _steps(cfg):
    return int(round(cfg["s_max"] / cfg["step"]))


def verify_ops(rng):
    return [Op("verify", ["verify", "--suite", "all", "--format", "csv",
                          "--seed", str(VERIFY_SEED)],
               check=checks.check_verify)]


def simulate_ops(rng):
    model = {"kind": "projectile", "m0": _u(rng, 0.8, 1.2),
             "u_x": _u(rng, 0.3, 0.7), "u_y": _u(rng, 0.8, 1.2),
             "g": _u(rng, 0.15, 0.25)}
    # record-heavy: one trajectory record (and its commutator) per step
    records = {"kind": "model", "model": model, "x0": [0.0, 0.0, 0.0, 0.0],
               "s_max": 20.0, "step": STEP, "method": "rk4",
               "canonical": False, "record_stride": 1}
    # step-heavy: the literal canonical flow, one record per 100 steps
    canonical = dict(records, s_max=10.0, canonical=True, record_stride=100)
    # Flat space in polar coordinates (t, r, theta, z), moving outward so r
    # grows from r0 and the chart's axis at r = 0 is never approached.
    r0, th0 = _u(rng, 0.8, 1.2), _u(rng, 0.0, 2.0 * math.pi)
    radial, tangential = _u(rng, 0.05, 0.4), _u(rng, -0.4, 0.4)
    polar = {"kind": "covariant", "metric": {"kind": "polar"},
             "x0": [0.0, r0, th0, 0.0],
             "p0_upper": [_u(rng, 1.2, 1.8), radial, round(tangential / r0, 6), 0.0],
             "s_max": 2.0, "step": STEP, "record_stride": 10}
    # the same metric written as polynomial entries, evaluated by eval_poly
    entries = [[[1.0, [0, 0, 0, 0]]], [[-1.0, [0, 0, 0, 0]]],
               [[-1.0, [0, 2, 0, 0]]], [[-1.0, [0, 0, 0, 0]]]]
    diagonal = dict(polar, metric={"kind": "diagonal", "entries": entries})
    # Probes the program should refuse with a usage error (exit 2). Their
    # inputs do not depend on the seed, so they fail alike in every run.
    stride_zero = {"kind": "model", "s_max": 0.01, "record_stride": 0}
    nested_key = {"kind": "model", "s_max": 0.01,
                  "model": {"kind": "projectile", "m0": 1.0, "u_x": 0.5,
                            "u_y": 1.0, "g": 0.2, "mass": 2.0}}
    return [
        Op("projectile-records", ["simulate"], records, checks.check_projectile,
           rate=("model_steps_per_s", "steps/s", _steps(records))),
        Op("projectile-canonical", ["simulate"], canonical, checks.check_canonical,
           rate=("model_steps_per_s", "steps/s", _steps(canonical))),
        Op("covariant-polar", ["simulate"], polar, checks.check_covariant,
           rate=("covariant_steps_per_s", "steps/s", _steps(polar))),
        Op("covariant-diagonal", ["simulate"], diagonal, checks.check_covariant,
           rate=("covariant_steps_per_s", "steps/s", _steps(diagonal))),
        Op("probe-record-stride-zero", ["simulate"], stride_zero, expect_usage=True),
        Op("probe-nested-unknown-key", ["simulate"], nested_key, expect_usage=True),
    ]


def ensemble_ops(rng):
    mb = {"kind": "mb", "n": 10 ** 6, "m0": _u(rng, 0.5, 2.0),
          "T": _u(rng, 0.5, 3.0), "kB": 1.0, "bins": 50}
    levels = sorted(_u(rng, 0.0, 1.5) for _ in range(12))
    occupancy = {"kind": "occupancy", "levels": levels, "n": 10,
                 "beta": _u(rng, 0.5, 2.0), "statistics": "BE"}
    seed = ["--seed", str(ENSEMBLE_SEED)]
    return [
        Op("mb", ["ensemble"] + seed, mb, checks.check_mb,
           rate=("mb_samples_per_s", "samples/s", mb["n"])),
        Op("occupancy", ["ensemble"] + seed, occupancy, checks.check_occupancy,
           rate=("enum_states_per_s", "states/s", math.comb(12 + 10 - 1, 10))),
    ]


WORKLOADS = {"verify": verify_ops, "simulate": simulate_ops,
             "ensemble": ensemble_ops}


def build(workload, seed, config_dir):
    """The workload's operations for this seed, with configs written to disk."""
    ops = WORKLOADS[workload](np.random.default_rng(seed))
    os.makedirs(config_dir, exist_ok=True)
    for op in ops:
        if op.config is not None:
            path = os.path.join(config_dir, op.name + ".json")
            with open(path, "w") as fh:
                json.dump(op.config, fh, indent=1)
            op.argv = op.argv + ["--config", path]
    return ops
