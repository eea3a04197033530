"""One small valid config per config kind, and a sweep of hostile values
over every key of every kind.

KIND_CONFIGS is the table: every kind of config.py's SIMULATE, MODEL,
METRIC and ENSEMBLE tables appears in it, and test_reach runs it. The sweep
sets each key of each kind, in turn, to each value of HOSTILE, in the
kind's config from the table, and runs it through cli.main. Every run must
exit 0, 1 or 2, with nothing escaping main, warn no RuntimeWarning, leave
no out directory when it fails, write only strict JSON when it succeeds and
finish under ALARM_S.
"""

import json
import signal
import sys
import warnings

import pytest

from hjdirac.cli import main
from hjdirac.config import ENSEMBLE, METRIC, MODEL, SIMULATE

SHORT = {"s_max": 0.02, "step": 0.01}
ONE = [[1.0, [0, 0, 0, 0]]]
MINUS_ONE = [[-1.0, [0, 0, 0, 0]]]
MINUS_R_SQUARED = [[-1.0, [0, 2, 0, 0]]]

# (command, config) of one small run per kind; a simulate config names a
# simulate kind and a model or metric kind
KIND_CONFIGS = [
    ("simulate", dict(SHORT, model={"kind": "free", "m0": 1.0}, p0=[1.2, 0.1, 0.2, 0.0])),
    ("simulate", dict(SHORT, model={"kind": "projectile", "m0": 1.0, "u_x": 0.5,
                                    "u_y": 1.0, "g": 0.2})),
    ("simulate", dict(SHORT, kind="covariant", metric={"kind": "minkowski"})),
    ("simulate", dict(SHORT, kind="covariant", metric={"kind": "polar"})),
    ("simulate", dict(SHORT, kind="covariant", metric={
        "kind": "diagonal", "entries": [ONE, MINUS_ONE, MINUS_R_SQUARED, MINUS_ONE]})),
    ("simulate", dict(SHORT, kind="covariant", metric={
        "kind": "custom-polynomial", "entries": [
            [ONE, [], [], []], [[], MINUS_ONE, [], []],
            [[], [], MINUS_R_SQUARED, []], [[], [], [], MINUS_ONE]]})),
    ("ensemble", {"kind": "mb", "n": 200}),
    ("ensemble", {"kind": "occupancy", "levels": [0.0, 0.5, 1.0]}),
]

# wrong types, signed zeros, the extremes of float64 and int64, and vectors
# whose squares or products overflow
HOSTILE = [None, True, "1", [], {}, -1, 0, 0.0, -0.0, 5e-324, -5e-324, 0.5, 1e300,
           -1e300, sys.float_info.max, -sys.float_info.max, 2 ** 63, [1.0],
           [1e154] * 4, [1e300] * 4, [-1e300] * 4, [5e-324] * 4]
ALARM_S = 10


def kinds(command, config):
    """{(family, kind)} of the config kinds one run names."""
    if command == "ensemble":
        return {("ensemble", config["kind"])}
    top = config.get("kind", "model")
    nested = "model" if top == "model" else "metric"
    return {("simulate", top), (nested, config[nested]["kind"])}


def test_the_table_has_one_config_per_kind():
    families = {"simulate": SIMULATE, "ensemble": ENSEMBLE, "model": MODEL,
                "metric": METRIC}
    assert set().union(*(kinds(*run) for run in KIND_CONFIGS)) == {
        (family, kind) for family, table in families.items() for kind in table}


def sweep():
    """(command, config) of every hostile run: each key of the run's
    command kind, on the first config of that kind, and each key of its
    model or metric kind, on each config."""
    runs, swept = [], set()
    for command, config in KIND_CONFIGS:
        top = config.get("kind", "model" if command == "simulate" else "mb")
        table = (SIMULATE if command == "simulate" else ENSEMBLE)[top]
        nested = {"model": "model", "covariant": "metric"}.get(top)
        for value in HOSTILE:
            if (command, top) not in swept:
                runs += [(command, dict(config, **{key: value})) for key in table]
            if nested:
                inner = (MODEL if nested == "model" else METRIC)[config[nested]["kind"]]
                runs += [(command, dict(config, **{nested: dict(config[nested], **{key: value})}))
                         for key in inner]
        swept.add((command, top))
    # ROADMAP item 14's finds: diagnostics that overflow, and a sample that
    # cannot be allocated
    runs += [("simulate", {"model": {"kind": "free", "m0": 1.0}, "p0": [1e300] * 4,
                           "s_max": 0.05, "step": 0.01}),
             ("ensemble", {"kind": "mb", "n": 10 ** 9})]
    return runs


def reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def on_alarm(signum, frame):
    raise TimeoutError("a swept run took more than %d s" % ALARM_S)


def test_hostile_values_are_refused_or_run_cleanly(tmp_path, capsys):
    previous = signal.signal(signal.SIGALRM, on_alarm)
    outcomes = []
    try:
        for i, (command, config) in enumerate(sweep()):
            cfg, out = tmp_path / ("cfg%d.json" % i), tmp_path / ("out%d" % i)
            cfg.write_text(json.dumps(config))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                signal.alarm(ALARM_S)
                try:
                    code = main([command, "--config", str(cfg), "--out", str(out)])
                finally:
                    signal.alarm(0)
            run = (command, config, code)
            assert code in (0, 1, 2), run
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
                (run, [str(w.message) for w in caught])
            if code:
                assert not out.exists(), run
            else:
                for path in out.glob("*.json"):
                    json.loads(path.read_text(), parse_constant=reject_constant)
            outcomes.append(code)
            capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the sweep reaches all three outcomes
    assert set(outcomes) == {0, 1, 2}
