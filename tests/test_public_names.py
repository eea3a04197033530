"""Every public name of the package has a caller, and every defaulted
parameter of one is set by some caller.

A public name is one in its module's __all__ or, in a module without one, a
function or class the module defines; every HJDiracError subclass is one too.
It has a caller when code in src/ loads it outside the name's own top-level
definition, or tests/test_acceptance.py loads it. Only the names in
CLAIM_CHECKS may lack one: each checks an abstract claim (ROADMAP C1-C4)
that no verify row runs yet, and its entry goes once one does.

A defaulted parameter that no call in those files sets, by keyword or by
position, has one value in use and should be a constant; ONE_VALUE names the
few that stay parameters, each with its reason.
"""

import ast
import importlib
import inspect
from pathlib import Path

from hjdirac.errors import HJDiracError

ROOT = Path(__file__).parents[1]
SRC = sorted((ROOT / "src" / "hjdirac").glob("*.py"))

CLAIM_CHECKS = {
    "WaveFunction": "C1",
    "line_curve": "C1",
    "projectile_curve": "C1",
    "momentum_operator": "C1",
    "curve_derivative": "C1",
    "operator_derivative": "C1",
    "eigen_solution_check": "C4",
}

# (module, public name, parameter) of a defaulted parameter no caller sets
ONE_VALUE = {
    ("hjdirac.hamilton_jacobi", "construct_geodesic_W", "base_point"):
        "ROADMAP item 2's C2-in-a-chart row puts the base event on the polar "
        "line's past extension",
    ("hjdirac.hamilton_jacobi", "loop_integral", "segments"):
        "test_hamilton_jacobi refines it to measure the trapezoid's order",
    ("hjdirac.cli", "main", "argv"):
        "None reads sys.argv, as the console script does; tests and the "
        "benchmark pass argv",
}
SCANNED = SRC + [ROOT / "tests" / "test_acceptance.py"]


def loaded_names(path):
    """Names and attributes path's code loads, each counted only outside the
    top-level definition of the same name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def public_names():
    """{name: module} over the package, HJDiracError subclasses included."""
    names = {}
    for path in SRC:
        module = importlib.import_module("hjdirac." + path.stem)
        listed = getattr(module, "__all__", None)
        if listed is None:
            listed = [name for name, obj in vars(module).items()
                      if not name.startswith("_")
                      and getattr(obj, "__module__", None) == module.__name__]
        names.update(dict.fromkeys(listed, module.__name__))
    stack = [HJDiracError]
    while stack:
        cls = stack.pop()
        names[cls.__name__] = cls.__module__
        stack.extend(cls.__subclasses__())
    return names


def test_every_public_name_has_a_caller():
    called = set().union(*map(loaded_names, SCANNED))
    uncalled = {name: module for name, module in public_names().items()
                if name not in called}
    # both ways: no other name lacks a caller, and no listed name has gained one
    assert sorted(uncalled) == sorted(CLAIM_CHECKS), uncalled


def calls_by_name():
    """{name: [ast.Call]} of the calls in SCANNED, keyed by the called name
    or attribute."""
    calls = {}
    for path in SCANNED:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def sets(call, index, param):
    """Whether call passes param, the index-th parameter: by keyword, by
    position, or through *args or **kwargs."""
    if any(kw.arg in (param.name, None) for kw in call.keywords):
        return True
    return param.kind is not param.KEYWORD_ONLY and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults():
    """(module, name, parameter) of every defaulted parameter of a public
    function or class that no call in SCANNED sets; the CLAIM_CHECKS names,
    which have no caller yet, are left out."""
    calls = calls_by_name()
    found = set()
    for name, module in public_names().items():
        obj = getattr(importlib.import_module(module), name)
        if name in CLAIM_CHECKS or not callable(obj) or \
                (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is not param.empty and \
                    not any(sets(call, index, param) for call in calls.get(name, [])):
                found.add((module, name, param.name))
    return found


def test_every_defaulted_parameter_is_set():
    # both ways: every unset default is exempt, and no exemption is stale
    assert sorted(unset_defaults()) == sorted(ONE_VALUE)
