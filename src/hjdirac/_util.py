"""Small shared helpers: atomic file writes, stable formatting and the
central-difference stencil."""

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


def json_text(path, payload):
    """The text write_json(path, payload) writes: payload (dict) with
    schema_version, in stable key order. Strict JSON only: a NaN or infinite
    value raises DegenerateData naming path."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    try:
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DegenerateData("%s not written: %s" % (path, exc))


def write_json(path, payload):
    """Write json_text(path, payload) atomically; a payload that is not strict
    JSON raises DegenerateData before any file is created."""
    atomic_write_text(path, json_text(path, payload))


def fmt(value):
    """Deterministic float formatting for CSV cells (shortest round-trip form)."""
    if isinstance(value, float):
        return repr(float(value))  # builtin repr; numpy scalars print their type
    return str(value)


def _formatter(column):
    """The function write_csv applies to every cell of column: float.__repr__
    for a float16, float32 or float64 array, str for an int, uint or bool
    array, fmt for anything else. Each gives fmt's bytes for the builtin
    scalars tolist() returns; longdouble is left to fmt because its tolist()
    returns numpy scalars, which float.__repr__ refuses."""
    if isinstance(column, np.ndarray):
        if column.dtype.type in (np.float16, np.float32, np.float64):
            return float.__repr__
        if column.dtype.kind in "iub":
            return str
    return fmt


def write_csv(path, header, columns):
    """Write one CSV table given column-wise: each column is a numpy array, a
    list, or a sequence whose slices are lists, one entry per row. Rows are
    formatted CSV_BLOCK at a time and streamed into the atomic write, so
    memory stays bounded while every cell reads exactly fmt(value). Ragged
    columns raise UsageError, writing nothing.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise UsageError("write_csv needs one column per header name, all of "
                         "one length; got %d names and lengths %s"
                         % (len(header), sorted(lengths)))
    n_rows = lengths.pop() if lengths else 0
    formatters = [_formatter(column) for column in columns]

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, n_rows, CSV_BLOCK):
            cells = []
            for column, formatter in zip(columns, formatters):
                part = column[lo:lo + CSV_BLOCK]
                if isinstance(part, np.ndarray):
                    part = part.tolist()  # builtin scalars: fmt's bytes, faster
                cells.append(map(formatter, part))
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
