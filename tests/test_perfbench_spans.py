"""The names perfbench/spans.py traces exist and are entered.

spans.Tracer.install looks up every LAYERS name and cli._SUITE_FUNCS with
getattr, so a function that is renamed or removed breaks a traced benchmark
run (perfbench/run.py --trace 1). This test loads spans.py by path, installs
a Tracer around one small run of each command, and checks that every run
exits 0 and that each span those runs reach recorded a call. It only reads
perfbench/.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from hjdirac.cli import main

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

# (command, config or None) of each run; verify takes no config
RUNS = [
    ("verify", None),
    ("simulate", {}),
    ("simulate", {"kind": "covariant"}),
    ("ensemble", {"kind": "mb", "n": 1000}),
    ("ensemble", {"kind": "occupancy"}),
]

# the LAYERS spans that RUNS enter, and the suite span verify --suite clifford enters
REACHED = {
    "cli.verify", "cli.simulate", "cli.ensemble",
    "dynamics.integrate", "dynamics.covariant_integrate", "dynamics.operator_commutator",
    "geometry.christoffel_at", "geometry.MetricField.matrix", "geometry.eval_poly",
    "clifford.slash", "clifford.slash_eigensystem",
    "statmech.sample_mb", "statmech.partition_enumerate",
    "statmech.write_samples_csv", "statmech.write_occupancy_csv",
    "util.write_csv", "util.write_json",
    "cli.suite.clifford",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_and_are_entered(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    codes = []
    tracer.install(0)
    try:
        for i, (command, config) in enumerate(RUNS):
            argv = [command, "--out", str(tmp_path / str(i))]
            if config is None:
                argv += ["--suite", "clifford"]
            else:
                path = tmp_path / ("cfg%d.json" % i)
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
    finally:
        tracer.remove()
    assert codes == [0] * len(RUNS)
    names = {span for span, *_ in spans.LAYERS} | {"cli.suite.clifford"}
    assert REACHED <= names
    called = {tracer.names[i] for i in tracer.name}
    assert REACHED - called == set()
