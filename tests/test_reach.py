"""Every function in src/ is entered by some command-line run.

One process runs a fixed list of cli.main invocations under sys.setprofile:
test_sweep's config of every kind, the model runs with canonical off and
on, verify --suite all, mb above one write_csv CSV_BLOCK, BE, FD and MB
occupancy, and test_cli's refused (exit 2) and failing (exit 1) configs.
A function is keyed by its module and co_qualname, nested functions and
lambdas included (two lambdas of one scope share a key), as enumerated
from the modules' code objects.
The test fails on a function that no invocation enters and that ALLOWED
does not name, and on an ALLOWED entry that names no such function any
more.
"""

import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

from hjdirac._util import CSV_BLOCK
from hjdirac.cli import main
from test_cli import BAD_CONFIGS, OVERFLOWED_FACTORIZATION
from test_public_names import CLAIM_CHECKS, public_names
from test_sweep import KIND_CONFIGS, MINUS_ONE, ONE

SRC = Path(__file__).parents[1] / "src" / "hjdirac"

# (module, qualname) of a definition no invocation enters, and why; an entry
# covers everything defined inside it too
ALLOWED = {
    ("hjdirac.dirac", "CurveSegment"): "C1: the curve of line_curve and projectile_curve",
    ("hjdirac.statmech", "EnsembleConfig.k"): "C4: the k of eigen_solution_check",
    ("hjdirac.hamilton_jacobi", "HamiltonJacobiField.value"):
        "W itself, which only WaveFunction reads",
    ("hjdirac.hamilton_jacobi", "construct_geodesic_W.<locals>.value"): "a W, as above",
    ("hjdirac.hamilton_jacobi", "ProjectileField._value_fn"): "a W, as above",
    ("hjdirac._util", "_operator"): "runs on import, writing Traced's operator methods",
}
# the claim checks no verify row runs yet, named once, in test_public_names
ALLOWED.update({(module, name): "%s: waits for a verify row (ROADMAP item 2)"
                                % CLAIM_CHECKS[name]
                for name, module in public_names().items() if name in CLAIM_CHECKS})


def invocations(tmp_path):
    """(exit code, argv, config or None) of every run, the config as JSON
    text or an object."""
    runs = [(0, ["verify", "--suite", "all"], None)]
    for command, config in KIND_CONFIGS:
        runs.append((0, [command], config))
        if "model" in config:
            runs.append((0, [command], dict(config, canonical=True)))
    runs.append((0, ["ensemble"], {"kind": "mb", "n": CSV_BLOCK + 1}))  # two writers
    for statistics in ("FD", "MB"):  # and BE, the table's
        runs.append((0, ["ensemble"], {"kind": "occupancy", "levels": [0.0, 0.5, 1.0],
                                       "statistics": statistics}))
    # refused: exit 2
    runs += [(2, [command], text) for command, text, _ in (p.values for p in BAD_CONFIGS)]
    for tol in ("bogus=1", "step", "step=fast", "anticomm=nan", "step=0.3"):
        runs.append((2, ["verify", "--suite", "all", "--tol", tol], None))
    runs += [(2, ["simulate"], text) for text in ("{ not json", "[1, 2]", '{"stepp": 0.1}')]
    runs += [(2, ["simulate"], {"model": {"kind": "warp"}}),
             (2, ["simulate"], {"model": {"kind": "free", "m0": 0.0}}),  # no p0
             (2, ["simulate"], {"s_max": 1e12}),
             (2, ["simulate"], {"kind": "covariant", "s_max": 1e12}),
             (2, ["ensemble"], {"kind": "grand-canonical"}),
             (2, ["simulate", "--config", str(tmp_path / "absent.json")], None)]
    # failing: exit 1
    runs += [(1, ["verify", "--suite", "dynamics", "--tol", "step=0.5"], None),
             (1, ["simulate"], {"p0": [1e-13, 0.0, 0.0, 0.0]}),  # guard
             (1, ["simulate"], {"kind": "covariant", "s_max": 0.01, "metric": {
                 "kind": "diagonal", "entries": [ONE, MINUS_ONE, [[0.0, [0, 0, 0, 0]]],
                                                 MINUS_ONE]}}),  # singular
             (1, ["simulate"], {"kind": "covariant", "s_max": 0.01,
                                "p0_upper": [1e100, 0, 1e100, 0]}),  # overflow
             (1, ["simulate"], {"kind": "covariant", "s_max": 0.01, "metric": {
                 "kind": "diagonal", "entries": [ONE, MINUS_ONE, [[-1e-13, [0, 0, 0, 0]]],
                                                 MINUS_ONE]}}),  # cond(g) over the guard
             (1, ["ensemble"], {"kind": "occupancy", "levels": [1.0, 2.0], "n": 3,
                                "beta": 1e6}),  # partition sum underflows
             (1, ["ensemble"], {"kind": "mb", "n": 1000, "T": 1e-300}),  # NaN kurtosis
             (1, ["ensemble"], OVERFLOWED_FACTORIZATION)]  # z_1 ** n overflows
    return runs


def src_functions():
    """{(module, co_qualname)} of every function and lambda in src/."""
    keys = set()
    for path in sorted(SRC.glob("*.py")):
        name = "hjdirac." + path.stem
        stack = [importlib.import_module(name).__loader__.get_code(name)]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # a function's own locals: not a module or class body, nor a
            # comprehension or generator expression
            if code.co_flags & inspect.CO_NEWLOCALS and (
                    code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                keys.add((name, code.co_qualname))
    return keys


def covered(key, entry):
    return key[0] == entry[0] and (key[1] == entry[1] or key[1].startswith(entry[1] + "."))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is Python 3.11+")
def test_every_src_function_is_entered(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs, codes = invocations(tmp_path), []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (_, argv, config) in enumerate(runs):
            argv = argv + ["--out", str(tmp_path / ("out%d" % i))]
            if config is not None:
                path = tmp_path / ("cfg%d.json" % i)
                path.write_text(config if isinstance(config, str) else json.dumps(config))
                argv += ["--config", str(path)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for code, _, _ in runs]

    names = ["hjdirac." + path.stem for path in SRC.glob("*.py")]
    modules = {importlib.import_module(name).__file__: name for name in names}
    reached = {(modules[code.co_filename], code.co_qualname) for code in entered
               if code.co_filename in modules}
    missed = src_functions() - reached
    unexplained = sorted(k for k in missed if not any(covered(k, e) for e in ALLOWED))
    stale = sorted(e for e in ALLOWED if not any(covered(k, e) for k in missed))
    assert (unexplained, stale) == ([], [])
