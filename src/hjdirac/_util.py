"""Small shared helpers: atomic file writes, stable formatting and the
central-difference stencil."""

import contextlib
import json
import os
import pickle
import shutil
import tempfile
from functools import partial

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


class CellColumn:
    """A column whose slices are its finished cells as a (rows, width) uint8
    matrix, each row one cell's bytes with zero bytes as padding: write_csv
    writes those bytes as they are. Subclasses give __len__ and a
    __getitem__ that takes a slice of rows."""


def _cells_of(name, column, encoding):
    """The function write_csv applies to a slice of column's rows to get
    their cells as a (rows, width) uint8 matrix, each row one cell's bytes
    with zero bytes as padding; None for a float64 array, whose cells
    write_csv gets from one float_cells call per chunk for all float64
    columns. An int or uint array and a range within int64 go through
    int_cells; every other column's cells are str of its entries (of the
    builtin scalars tolist() gives, for an array), encoded, and a NUL in one
    raises UsageError naming the column, as the padding would drop it."""
    if isinstance(column, CellColumn):
        return lambda part: part
    if isinstance(column, np.ndarray) and column.dtype.type is np.float64:
        return None
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return int_cells
    if isinstance(column, range) and all(-2 ** 63 <= end < 2 ** 63 for end in
                                         (*column[:1], *column[-1:])):
        return lambda part: int_cells(np.arange(part.start, part.stop, part.step,
                                                dtype=np.int64))

    def text_cells(part):
        text = list(map(str, part.tolist() if isinstance(part, np.ndarray) else part))
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
    memory stays bounded. A float cell reads float.__repr__ of the value,
    any other str of it (the same text for a builtin float). A table
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
        if n_rows > CSV_BLOCK:
            _write_halves(out, path, rows, n_rows)
        else:
            out.writelines(rows(0, n_rows))


def _write_halves(handle, path, rows, n_rows):
    """Write rows(0, n_rows), bytes, to the binary handle, formatted by this
    process and a helper that forked() starts, at once. The helper writes
    rows(mid, n_rows) to a temp file beside path while this process writes
    rows(0, mid); its file is then appended, so only its True, not the
    rows, passes through forked()'s pipe. When forked() runs the second
    half in this process instead, it goes straight to handle. The temp
    file is removed in every case."""
    mid = n_rows // 2
    fd, part = _temp_beside(path)
    try:
        with os.fdopen(fd, "wb") as second, \
                forked(partial(_stream, second, rows(mid, n_rows)),
                        here=partial(handle.writelines, rows(mid, n_rows))) as second_half:
            _stream(handle, rows(0, mid))
            if second_half():  # True from the helper, None from here
                with open(part, "rb") as written:
                    shutil.copyfileobj(written, handle)
    finally:
        os.unlink(part)


def _stream(out, chunks):
    """Write the byte chunks to the binary handle out, flush it and return
    True."""
    out.writelines(chunks)
    out.flush()
    return True


@contextlib.contextmanager
def forked(task, here=None):
    """Run task() in a forked child while the with block runs in this
    process; the block calls the yielded function for task()'s value,
    pickled back through a pipe. That function runs here() in this process
    instead (task() when here is None) when only one CPU is available, the
    fork fails, or the child does not exit 0 with a value, so an exception
    of task is raised in this process with its own type. The child leaves
    by os._exit, so it flushes no buffer it inherited. If the block raises
    while the child runs, the child is killed and reaped."""
    pid = pipe = None  # the child, while it is to be reaped, and its pipe
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(write_end)
            os.close(read_end)
        if pid == 0:  # the child: exits here, without unwinding
            code = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as out:
                    pickle.dump(task(), out)
                code = 0
            finally:
                os._exit(code)
        if pid is not None:
            os.close(write_end)
            pipe = open(read_end, "rb")

    def value():
        nonlocal pid
        if pid is not None:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pid = None
            if data and os.waitstatus_to_exitcode(status) == 0:
                return pickle.loads(data)
        return (here or task)()

    try:
        yield value
    finally:
        if pid is not None:  # the block raised while the child ran
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        if pipe is not None:
            pipe.close()


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
