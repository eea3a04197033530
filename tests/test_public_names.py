"""Every public name of the package has a caller.

A public name is one in its module's __all__ or, in a module without one, a
function or class the module defines; every HJDiracError subclass is one too.
It has a caller when code in src/ loads it outside the name's own top-level
definition, or tests/test_acceptance.py loads it. Only the names in
CLAIM_CHECKS may lack one: each checks an abstract claim (ROADMAP C1-C4)
that no verify row runs yet, and its entry goes once one does.
"""

import ast
import importlib
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
    called = set().union(*map(loaded_names, SRC + [ROOT / "tests" / "test_acceptance.py"]))
    uncalled = {name: module for name, module in public_names().items()
                if name not in called}
    # both ways: no other name lacks a caller, and no listed name has gained one
    assert sorted(uncalled) == sorted(CLAIM_CHECKS), uncalled
