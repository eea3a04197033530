"""Small shared helpers: atomic file writes, stable formatting and the
central-difference stencil."""

import contextlib
import json
import os
import shutil
import tempfile

import numpy as np

from .errors import DegenerateData, UsageError

SCHEMA_VERSION = 1
CSV_BLOCK = 16384  # rows formatted per written chunk; bounds memory, not bytes
SPLIT_ROWS = 4 * CSV_BLOCK  # larger tables are formatted by two processes


@contextlib.contextmanager
def _atomic_handle(path):
    """A text handle on a temp file beside path, renamed onto path when the
    block ends and removed when it raises, so readers never see a partial
    file."""
    fd, tmp = _temp_beside(path)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _temp_beside(path):
    """(fd, name) of a new temp file in path's directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    return tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)


def atomic_write_text(path, text):
    """Write the str text to path atomically (a temp file, then a rename)."""
    with _atomic_handle(path) as handle:
        handle.write(text)


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


class TextColumn:
    """A column whose slices are lists of finished cell text: write_csv
    writes its cells as they are. Subclasses give __len__ and a
    __getitem__ that takes a slice of rows."""


def _formatter(column):
    """The function write_csv applies to every cell of column: float.__repr__
    for a float16, float32 or float64 array, str for an int, uint or bool
    array and for a TextColumn (whose cells are already str), fmt for
    anything else. Each gives fmt's bytes for the builtin scalars tolist()
    returns; longdouble is left to fmt because its tolist() returns numpy
    scalars, which float.__repr__ refuses."""
    if isinstance(column, TextColumn):
        return str
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
    memory stays bounded while every cell reads exactly fmt(value). A table
    of more than SPLIT_ROWS rows is formatted by two processes when this one
    may run on two CPUs (_write_halves); the bytes are the same. Ragged
    columns raise UsageError, writing nothing.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise UsageError("write_csv needs one column per header name, all of "
                         "one length; got %d names and lengths %s"
                         % (len(header), sorted(lengths)))
    n_rows = lengths.pop() if lengths else 0
    formatters = [_formatter(column) for column in columns]

    def rows(lo, hi):
        """The text of rows [lo, hi), CSV_BLOCK rows per chunk."""
        for start in range(lo, hi, CSV_BLOCK):
            cells = []
            for column, formatter in zip(columns, formatters):
                part = column[start:min(start + CSV_BLOCK, hi)]
                if isinstance(part, np.ndarray):
                    part = part.tolist()  # builtin scalars: fmt's bytes, faster
                cells.append(map(formatter, part))
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    with _atomic_handle(path) as handle:
        handle.write(",".join(header) + "\n")
        if (n_rows > SPLIT_ROWS and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) > 1):
            _write_halves(handle, path, rows, n_rows)
        else:
            handle.writelines(rows(0, n_rows))


def _write_halves(handle, path, rows, n_rows):
    """Write rows(0, n_rows) to handle, formatted by this process and one
    forked helper at once. The helper writes rows(mid, n_rows) to a temp file
    beside path while this process writes rows(0, mid); its file is then
    appended. If the fork fails, or the helper exits non-zero or is killed,
    this process formats the second half itself, so a column's exception is
    raised here with its own type. If this process's half raises, the helper
    is killed and reaped. The helper's file is removed in every case."""
    mid = n_rows // 2
    fd, part = _temp_beside(path)
    pid = None  # the helper, while it is to be reaped
    try:
        try:
            pid = os.fork()
        except OSError:
            pass
        if pid == 0:  # the helper: exits here, without unwinding
            code = 1
            try:
                with os.fdopen(fd, "w") as out:
                    out.writelines(rows(mid, n_rows))
                code = 0
            finally:
                os._exit(code)
        os.close(fd)
        handle.writelines(rows(0, mid))
        if pid is not None:
            status = os.waitpid(pid, 0)[1]
            pid = None
            if os.waitstatus_to_exitcode(status) == 0:
                handle.flush()
                with open(part, "rb") as second:
                    shutil.copyfileobj(second, handle.buffer)
                return
        handle.writelines(rows(mid, n_rows))
    finally:
        if pid:  # this process's half raised while the helper ran
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        os.unlink(part)


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
