"""Small shared helpers: atomic file writes, stable formatting and the
central-difference stencil."""

import contextlib
import json
import os
import shutil
import tempfile

import numpy as np

from ._cells import float_cells, int_cells
from .errors import DegenerateData, UsageError

SCHEMA_VERSION = 1
CSV_BLOCK = 16384  # rows formatted per written chunk; bounds memory, not bytes


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
    """(fd, name) of a new temp file in path's directory, with the mode
    open(path, "w") would give path: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, name = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    return fd, name


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


class CellColumn:
    """A column whose slices are its finished cells as a (rows, width) uint8
    matrix, each row one cell's bytes with zero bytes as padding: write_csv
    writes those bytes as they are. Subclasses give __len__ and a
    __getitem__ that takes a slice of rows."""


def _formatter(column):
    """The function whose bytes write_csv gives every cell of column:
    float.__repr__ for a float16, float32 or float64 array, str for an int,
    uint or bool array and for a range, fmt for anything else. Each gives
    fmt's bytes for the builtin scalars tolist() returns; longdouble is left
    to fmt because its tolist() returns numpy scalars, which float.__repr__
    refuses. write_csv formats float arrays, int and uint arrays and ranges
    by the numpy kernels of _cells, which the tests hold to these bytes, and
    calls it on the cells of every other column."""
    if isinstance(column, range):
        return str
    if isinstance(column, np.ndarray):
        if column.dtype.type in (np.float16, np.float32, np.float64):
            return float.__repr__
        if column.dtype.kind in "iub":
            return str
    return fmt


def _cells_of(name, column, encoding):
    """The function write_csv applies to a slice of column's rows to get
    their cells as a (rows, width) uint8 matrix, each row one cell's bytes
    with zero bytes as padding; None for a float array, whose cells
    write_csv gets from one float_cells call per chunk for all float
    columns. An int or uint array and a range within int64 go through
    int_cells; every other column's cells are _formatter's text, encoded,
    and a NUL in one raises UsageError naming the column, as the padding
    would drop it."""
    if isinstance(column, CellColumn):
        return lambda part: part
    formatter = _formatter(column)
    if formatter is float.__repr__:
        return None
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return int_cells
    if isinstance(column, range) and all(-2 ** 63 <= end < 2 ** 63 for end in
                                         (*column[:1], *column[-1:])):
        return lambda part: int_cells(np.arange(part.start, part.stop, part.step,
                                                dtype=np.int64))

    def text_cells(part):
        if isinstance(part, np.ndarray):
            part = part.tolist()  # builtin scalars: fmt's bytes, faster
        text = list(map(formatter, part))
        if "\0" in "".join(text):
            raise UsageError("CSV column %r not written: a cell holds a NUL "
                             "character" % name)
        cells = np.array([cell.encode(encoding) for cell in text], dtype=bytes)
        return cells.view(np.uint8).reshape(len(text), -1)
    return text_cells


def write_csv(path, header, columns):
    """Write one CSV table given column-wise: each column is a numpy array, a
    list, or a sequence whose slices are lists, one entry per row. Rows are
    formatted in chunks of about CSV_BLOCK cells, each column's cells as a
    uint8 matrix (_cells_of), joined and streamed into the atomic write, so
    memory stays bounded while every cell reads exactly fmt(value). A table
    of more than one CSV_BLOCK of rows is formatted by two processes when
    this one may run on two CPUs (_write_halves); the bytes are the same.
    Ragged columns, and a NUL in a cell, raise UsageError, writing nothing.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise UsageError("write_csv needs one column per header name, all of "
                         "one length; got %d names and lengths %s"
                         % (len(header), sorted(lengths)))
    n_rows = lengths.pop() if lengths else 0
    step = max(1, CSV_BLOCK // max(1, len(columns)))
    comma = np.full((step, 1), ord(","), np.uint8)
    newline = np.full((step, 1), ord("\n"), np.uint8)

    with _atomic_handle(path) as handle:
        kernels = [_cells_of(name, column, handle.encoding)
                   for name, column in zip(header, columns)]
        floats = [column for column, kernel in zip(columns, kernels) if kernel is None]

        def rows(lo, hi):
            """The bytes of rows [lo, hi), step rows per chunk."""
            for start in range(lo, hi, step):
                part = slice(start, min(start + step, hi))
                size = part.stop - start
                if floats:  # each float column's cells, in column order
                    block = float_cells(np.column_stack([c[part] for c in floats]).ravel())
                    float_parts = iter(block.reshape(size, len(floats), -1).swapaxes(0, 1))
                pieces = []
                for column, kernel in zip(columns, kernels):
                    pieces += (next(float_parts) if kernel is None else kernel(column[part]),
                               comma[:size])
                pieces[-1] = newline[:size]
                yield np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")

        out = handle.buffer
        out.write((",".join(header) + "\n").encode(handle.encoding))
        if (n_rows > CSV_BLOCK and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) > 1):
            _write_halves(out, path, rows, n_rows)
        else:
            out.writelines(rows(0, n_rows))


def _write_halves(handle, path, rows, n_rows):
    """Write rows(0, n_rows), bytes, to the binary handle, formatted by this
    process and one forked helper at once. The helper writes rows(mid,
    n_rows) to a temp file beside path while this process writes rows(0,
    mid); its file is then appended. If the fork fails, or the helper exits
    non-zero or is killed, this process formats the second half itself, so
    a column's exception is raised here with its own type. If this
    process's half raises, the helper is killed and reaped. The helper's
    file is removed in every case."""
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
                with os.fdopen(fd, "wb") as out:
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
                    shutil.copyfileobj(second, handle)
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
