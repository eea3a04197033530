"""The one schema of the JSON configs the command line reads. A table per
config kind maps each key the kind reads to its Spec and default; the
README's config tables list the same keys."""

import math
from collections import namedtuple

import numpy as np

from .errors import UsageError

REQUIRED = object()  # the default of a key that has none
# occupancy enumeration's cap on levels and on particles; its count table
# holds one byte per count and the state column's kernel (_cells.count_cells)
# writes at most two digits per count, so keep it below 100
ENUM_BOUND = 12
# mb's cap on draws, a sample of at most 1 GiB at 32 B per draw (three
# velocity components and the energy)
MAX_SAMPLES = 2 ** 25
# mb's cap on histogram bins, at about 69 B of peak memory per bin
MAX_BINS = 2 ** 16
# a metric's cap on dimensions: a covariant record costs O(dim^4) (its
# christoffel_at), and RK4 compiles code that grows with the 2 * dim state
MAX_DIM = 8


class Spec(namedtuple("Spec", "text ok")):
    """What a config value must be: text says it, ok(value) tests it."""

    def check(self, value, name):
        if not self.ok(value):
            raise UsageError("%s must be %s, got %r" % (name, self.text, value))
        return value


def _int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _num(v):  # json.load also reads NaN and Infinity, which are not JSON
    return _int(v) or isinstance(v, float) and math.isfinite(v)


def _terms(v, dim):  # a polynomial term list [[coeff, [e0, e1, ...]], ...]
    return isinstance(v, list) and all(
        isinstance(t, list) and len(t) == 2 and _num(t[0]) and isinstance(t[1], list)
        and len(t[1]) <= dim and all(map(_int, t[1])) for t in v)


def integer(lo, hi=None):
    if hi is None:
        return Spec("an integer >= %d" % lo, lambda v: _int(v) and v >= lo)
    return Spec("an integer from %d to %d" % (lo, hi), lambda v: _int(v) and lo <= v <= hi)


NUMBER = Spec("a finite number", _num)
POSITIVE = Spec("a number > 0", lambda v: _num(v) and v > 0)
NUMBERS = Spec("a list of numbers", lambda v: isinstance(v, list) and all(map(_num, v)))
VECTOR = Spec("a list of 4 numbers", lambda v: NUMBERS.ok(v) and len(v) == 4)
# a model parameter squared as a Python float, whose ** raises on overflow:
# below 2 ** 511, a sum of two squares stays below 2 ** 1023
SQUARABLE = Spec("a number of magnitude below 2 ** 511", lambda v: _num(v) and abs(v) < 2 ** 511)
OBJECT = Spec("a JSON object", lambda v: isinstance(v, dict))
# a metric has 1 to MAX_DIM dimensions, one per entry, so an empty entries
# list is refused, and so is an exponent of a coordinate it lacks
TERM_LISTS = Spec("a list of 1 to %d term lists, no exponent list longer than "
                  "the list" % MAX_DIM,
                  lambda v: isinstance(v, list) and 1 <= len(v) <= MAX_DIM
                  and all(_terms(t, len(v)) for t in v))

# simulate's "model" and "metric" objects
MODEL = {"free": {"m0": (SQUARABLE, REQUIRED)},
         "projectile": {"m0": (SQUARABLE, REQUIRED), "u_x": (SQUARABLE, REQUIRED),
                        "u_y": (SQUARABLE, REQUIRED), "g": (NUMBER, REQUIRED)}}
METRIC = {"minkowski": {"dim": (integer(1, MAX_DIM), 4)},
          "polar": {"dim": (Spec("3 or 4", lambda v: _int(v) and v in (3, 4)), 4)},
          "diagonal": {"entries": (TERM_LISTS, REQUIRED)}}

# the top-level configs of simulate and ensemble
_RUN = {"s_max": (POSITIVE, 2.0), "step": (POSITIVE, 1e-3)}
SIMULATE = {
    "model": dict(_RUN, model=(OBJECT, {"kind": "projectile", "m0": 1.0, "u_x": 0.5,
                                        "u_y": 1.0, "g": 0.2}),
                  x0=(VECTOR, [0.0, 0.0, 0.0, 0.0]),
                  p0=(Spec("null or " + VECTOR.text, lambda v: v is None or VECTOR.ok(v)), None),
                  method=(Spec("'rk4'", lambda v: v == "rk4"), "rk4"),
                  canonical=(Spec("true or false", lambda v: isinstance(v, bool)), False),
                  record_stride=(integer(1), 1)),
    # x0 and p0_upper are checked against the metric's dim once it is built
    "covariant": dict(_RUN, metric=(OBJECT, {"kind": "polar"}),
                      x0=(NUMBERS, [0.0, 1.0, 0.3, 0.0]),
                      p0_upper=(NUMBERS, [1.5, 0.3055, -0.1935, 0.0]),
                      record_stride=(integer(1), 10)),
}
ENSEMBLE = {
    "mb": {"n": (integer(2, MAX_SAMPLES), 10 ** 5), "m0": (POSITIVE, 1.0), "T": (POSITIVE, 2.0),
           "kB": (POSITIVE, 1.0), "bins": (integer(1, MAX_BINS), 50)},
    "occupancy": {"levels": (Spec("a list of 1 to %d numbers" % ENUM_BOUND,
                                  lambda v: NUMBERS.ok(v) and 1 <= len(v) <= ENUM_BOUND),
                             [0.0, 1.0]),
                  "n": (integer(0, ENUM_BOUND), 2),
                  "beta": (NUMBER, 1.0), "statistics": (Spec(
                      "BE, FD or MB (in any case)",
                      lambda v: isinstance(v, str) and v.strip().upper() in ("BE", "FD", "MB")),
                      "BE")},
}


def parse(kinds, cfg, what, default_kind=None):
    """cfg, a config of the family kinds, as a dict of its kind and every key
    of the kind's table: supplied values as written, the others defaulted.
    Raises UsageError, naming the key, for a cfg that is not an object, an
    unknown kind, and a key that is unknown, missing or out of range."""
    if not isinstance(cfg, dict):
        raise UsageError("%s must be a JSON object, got %r" % (what, cfg))
    kind = cfg.get("kind", default_kind)
    if not isinstance(kind, str) or kind not in kinds:
        raise UsageError("unknown %s kind %r; expected one of %s"
                         % (what, kind, ", ".join(map(repr, kinds))))
    what = "%s %r" % (what, kind)
    unknown = set(cfg) - set(kinds[kind]) - {"kind"}
    if unknown:
        raise UsageError("unknown %s key(s): %s"
                         % (what, ", ".join(map(repr, sorted(unknown)))))
    out = {"kind": kind}
    for key, (spec, default) in kinds[kind].items():
        if key not in cfg and default is REQUIRED:
            raise UsageError("%s needs key %r" % (what, key))
        out[key] = spec.check(cfg.get(key, default), "%s key %r" % (what, key))
    return out
