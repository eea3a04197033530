"""Small shared helpers: atomic file writes, stable formatting, the
central-difference stencil and the tape that compiles traced arithmetic."""

import contextlib
import json
import math
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


def json_text(path, payload):
    """The text of the report payload (dict) with schema_version, in stable
    key order. Strict JSON only: a NaN or infinite value raises DegenerateData
    naming path and the key path of the first such value written."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    try:
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DegenerateData("%s not written: %s" % (path, next(_non_finite(body), exc)))


def _non_finite(value, key=""):
    """'key is value' of each non-finite float in value, in written order."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _non_finite(value[k], "%s.%s" % (key, k) if key else k)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _non_finite(item, "%s[%d]" % (key, i))
    elif isinstance(value, float) and not math.isfinite(value):
        yield "%s is %r" % (key, float(value))


def write_json(path, text):
    """Write the str text, a json_text, to path atomically."""
    with _atomic_handle(path) as handle:
        handle.write(text)


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


# Most operations one fused expression nests. A term-list sum, written one
# summand a step, nests as deep as it is long once fused, and Python's
# compiler refuses a deep enough expression (RecursionError).
FUSE_DEPTH = 32
# form: (its precedence, the least precedence each operand is written bare
# at), operands left to right; + and - are 1, * and / 2, unary - 3, ** 4 and
# a name or a call 5. A number operand is always bare: its repr binds
# tighter than any operation it is an operand of here.
_FORMS = {"%s + %s": (1, (1, 2)), "%s - %s": (1, (1, 2)), "%s * %s": (2, (2, 3)),
          "%s / %s": (2, (2, 3)), "%s ** %s": (4, (5, 0)), "-%s": (3, (3,)),
          "sqrt(%s)": (5, (0,))}
# the forms that may raise on floats; + - * and unary - never do
_RAISING = {"%s / %s", "%s ** %s", "sqrt(%s)"}


class Tape:
    """Straight-line code recorded from arithmetic on Traced values: one step
    per IEEE operation in the order they ran, and the guard lines that
    require_nonzero writes between them. code() writes the steps out fused,
    so the compiled function has their bits and raises what they raise.
    Only reprs of numbers (float(c), or an int exponent) and of a guard's
    message reach the source; names holds the globals it reads, inf and nan
    among them, and head the lines compile() writes first."""

    def __init__(self):
        # (result, form, operands), a number operand as its text; a guard
        # line's result is None
        self.steps = []
        self.guarded = False  # a guard line is on the tape
        self.head = []
        self.names = {"sqrt": math.sqrt, "inf": math.inf, "nan": math.nan, "asarray": np.asarray}

    def emit(self, form, operands, fixed):
        """A Traced value named for a new step, form (a key of _FORMS) of
        the operands, fixed if they are, unless it may raise after a guard
        line."""
        result = Traced(self, "t%d" % len(self.steps),
                        fixed and not (self.guarded and form in _RAISING))
        self.steps.append((result, form, operands))
        return result

    def guard(self, form, operands):
        """Write a guard line, form % the operands' texts: a test that no
        step is moved across."""
        for v in operands:
            if type(v) is Traced:
                v.uses += 1
        self.steps.append((None, form, [v if type(v) is Traced else _text(v) for v in operands]))
        self.guarded = True

    def code(self, outputs):
        """(hoisted, body, results), in one pass over the tape: the steps as
        source lines and the outputs' expressions, for a tape written out
        once. A fixed step goes to hoisted, the others and the guard lines to
        body, in order. A step that one later step or output reads is
        written into it, unless a guard line comes between them, a fixed
        step is read by one that is not, or the reader would then nest more
        than FUSE_DEPTH operations. Parentheses keep each operation's
        operands, so each still rounds once, on the same operands."""
        for v in outputs:
            if type(v) is Traced:
                v.uses += 1
        hoisted, body = [], []
        fused = {}  # name: (expression, precedence, depth, fixed) of a step kept for its reader
        pop = fused.pop
        for result, form, operands in self.steps:
            if result is None:  # a guard line: no step moves across it
                for name, (expression, _, _, fixed) in fused.items():
                    (hoisted if fixed else body).append("%s = %s" % (name, expression))
                fused.clear()
                body.append(form % tuple(v if type(v) is str else v.name for v in operands))
                continue
            precedence, bare = _FORMS[form]
            fixed, depth, texts = result.fixed, 1, []
            for v, least in zip(operands, bare):
                if type(v) is Traced:
                    name = v.name
                    kept = pop(name, None)
                    if kept is None:
                        v = name
                    else:
                        expression, rank, below, lifted = kept
                        if lifted and not fixed:  # a hoisted step the loop reads
                            hoisted.append(name + " = " + expression)
                            v = name
                        else:
                            v = expression if rank >= least else "(" + expression + ")"
                            depth = max(depth, below + 1)
                texts.append(v)
            expression = form % tuple(texts)
            if result.uses == 1 and depth < FUSE_DEPTH:
                fused[result.name] = expression, precedence, depth, fixed
            else:
                (hoisted if fixed else body).append(result.name + " = " + expression)
        results = []
        for v in outputs:
            kept = pop(v.name, None) if type(v) is Traced else None
            if kept is not None and kept[3]:
                hoisted.append("%s = %s" % (v.name, kept[0]))
            results.append(_text(v) if kept is None or kept[3] else kept[0])
        return hoisted, body, results

    def compile(self, signature, outputs, label):
        """def signature: head, the code() lines, then return outputs (a list
        or a value)."""
        hoisted, body, results = self.code(outputs if isinstance(outputs, list) else [outputs])
        returned = "[%s]" % ", ".join(results) if isinstance(outputs, list) else results[0]
        return self.define("def %s:\n    %s\n    return %s\n" % (
            signature, "\n    ".join(self.head + hoisted + body), returned), label)

    def define(self, source, label):
        """The function that source, one def, defines, compiled over names."""
        exec(compile(source, label, "exec"), self.names)
        return self.names[source[4:source.index("(")]]


def _operator(form, reflected=False):
    """Traced's method for a binary form: self its left operand and other
    the right one, or the other way round when reflected."""
    def method(self, other):
        self.uses += 1
        if type(other) is Traced:
            other.uses += 1
            fixed = self.fixed and other.fixed
        else:
            other, fixed = _text(other), self.fixed
        return self.tape.emit(form, (other, self) if reflected else (self, other), fixed)
    return method


class Traced:
    """A float that a Tape's code computes. + - * / **, unary - and sqrt
    (which np.sqrt calls) write their step into the tape and answer its
    result, Traced. A truth test, a comparison or float() raises TypeError,
    so no branch on a traced value is frozen into the code. fixed: the value
    is the same on every pass of a loop around the code, so a step that
    reads only fixed values and numbers is fixed too; uses counts the steps
    and guard lines that read it."""

    __slots__ = ("tape", "name", "fixed", "uses")

    def __init__(self, tape, name, fixed=False):
        self.tape, self.name, self.fixed, self.uses = tape, name, fixed, 0

    __add__, __radd__ = _operator("%s + %s"), _operator("%s + %s", True)
    __sub__, __rsub__ = _operator("%s - %s"), _operator("%s - %s", True)
    __mul__, __rmul__ = _operator("%s * %s"), _operator("%s * %s", True)
    __truediv__, __rtruediv__ = _operator("%s / %s"), _operator("%s / %s", True)
    __pow__ = _operator("%s ** %s")

    def __neg__(self):
        self.uses += 1
        return self.tape.emit("-%s", (self,), self.fixed)

    def sqrt(self):
        self.uses += 1
        return self.tape.emit("sqrt(%s)", (self,), self.fixed)

    def __bool__(self, *_):
        raise TypeError("compiled code may not branch on a traced value")

    __eq__ = __ne__ = __bool__


def _text(value):
    """A Traced value's name, an int's repr (an exponent), else repr(float(value))."""
    if isinstance(value, Traced):
        return value.name
    return repr(value if type(value) is int else float(value))


def require_nonzero(values, error, message):
    """Raise error(message) unless every one of values is nonzero. Where
    they hold a Traced value, that test is written into its tape instead."""
    try:
        if not all(values):
            raise error(message)
    except TypeError:  # a Traced value has no truth value
        tape = next(v.tape for v in values if isinstance(v, Traced))
        tape.names[error.__name__] = error
        tape.guard("if not (%s): raise %s(%s)" % (
            " and ".join(["%s"] * len(values)), error.__name__,
            repr(message).replace("%", "%%")), values)
