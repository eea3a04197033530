"""Small shared helpers: atomic file writes, stable formatting, config checks
and the central-difference stencil."""

import json
import os
import tempfile

import numpy as np

from .errors import DegenerateData, UsageError

SCHEMA_VERSION = 1
CSV_BLOCK = 16384  # rows formatted per written chunk; bounds memory, not bytes


def atomic_write_text(path, text):
    """Write text (a str, or an iterable of str chunks written in order) to
    path via a temp file + rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            for chunk in ([text] if isinstance(text, str) else text):
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    """Serialize payload (dict) with schema_version, stable key order, atomic
    write. Strict JSON only: a NaN or infinite value raises DegenerateData
    before any file is created."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    try:
        text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DegenerateData("%s not written: %s" % (path, exc))
    atomic_write_text(path, text + "\n")


def fmt(value):
    """Deterministic float formatting for CSV cells (shortest round-trip form)."""
    if isinstance(value, float):
        return repr(float(value))  # builtin repr; numpy scalars print their type
    return str(value)


def write_csv(path, header, columns):
    """Write one CSV table given column-wise: each column is a numpy array or
    a list, one entry per row. Rows are formatted CSV_BLOCK at a time and
    streamed into the atomic write, so memory stays bounded while every cell
    reads exactly fmt(value). Ragged columns raise UsageError, writing nothing.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise UsageError("write_csv needs one column per header name, all of "
                         "one length; got %d names and lengths %s"
                         % (len(header), sorted(lengths)))
    n_rows = lengths.pop() if lengths else 0

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, n_rows, CSV_BLOCK):
            cells = []
            for column in columns:
                part = column[lo:lo + CSV_BLOCK]
                if isinstance(part, np.ndarray):
                    part = part.tolist()  # builtin scalars: fmt's bytes, faster
                cells.append(map(fmt, part))
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    atomic_write_text(path, chunks())


def central_difference(f, x, scale):
    """First partials of f by scaled central differences.

    out[a] = (f(x + h e_a) - f(x - h e_a)) / (2 h) with h = scale * max(1,
    |x_a|), taken per point when x stacks points (..., n); out[a] has the
    shape of f's value. Every first-derivative stencil in the package is
    this one, so they all share its steps and rounding.
    """
    x = np.asarray(x, dtype=float)
    parts = []
    for a, h in enumerate((scale * np.maximum(1.0, np.abs(x))).T):
        xp, xm = x.copy(), x.copy()
        xp.T[a] += h
        xm.T[a] -= h
        # np.subtract keeps a numpy type for scalar-valued f, so .T applies
        parts.append((np.subtract(f(xp), f(xm)).T / (2.0 * h)).T)
    return np.array(parts)


def positive_int(value, name):
    """value as an int >= 1; bools, floats and strings are usage errors."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise UsageError("%s must be an integer >= 1, got %r" % (name, value))
    return int(value)


def check_keys(cfg, known, what):
    """Reject a config that is not an object or names keys outside known."""
    if not isinstance(cfg, dict):
        raise UsageError("%s must be a JSON object" % what)
    unknown = set(cfg) - set(known)
    if unknown:
        raise UsageError("unknown %s key(s): %s" % (what, ", ".join(sorted(unknown))))


def config_kind(cfg, keys_by_kind, what):
    """cfg["kind"], once it names a known kind and cfg holds only "kind" plus
    the keys that kind reads (keys_by_kind maps kind -> tuple of keys)."""
    if not isinstance(cfg, dict):
        raise UsageError("%s must be a JSON object" % what)
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise UsageError("unknown %s kind %r" % (what, kind))
    check_keys(cfg, ("kind",) + keys_by_kind[kind], "%s %r" % (what, kind))
    return kind

