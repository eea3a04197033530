import errno
import os
import signal
import time

import numpy as np
import pytest

from hjdirac import _util
from hjdirac._util import CSV_BLOCK, TextColumn, _formatter, fmt, write_csv, write_json
from hjdirac.errors import DegenerateData, UsageError

HEADER = ["i", "flag", "name", "x", "y"]


def reference_csv(header, columns):
    """The per-row formatter the streamed writer replaced, kept as its oracle:
    fmt on every cell, an array's cells taken as the builtin scalars its
    tolist() gives. A float32 cell is thus the repr of the float64 it widens
    to, as the streamed writer has always printed it; its numpy scalar would
    print the shorter float32 form."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, 1.0 / 3]


def mixed_columns(n):
    x = np.resize(np.array(SPECIALS), n)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    return [np.arange(n), np.arange(n) % 3 == 0,
            ["s%d;%d" % (k, k % 7) for k in range(n)], x, y]


@pytest.mark.parametrize("n", [0, 1, 9, CSV_BLOCK, CSV_BLOCK + 1])
def test_matches_per_row_reference(tmp_path, n):
    columns = mixed_columns(n)
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, columns)
    assert path.read_bytes() == reference_csv(HEADER, columns)


class Text(TextColumn):
    def __init__(self, cells):
        self.cells = cells

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, rows):
        return self.cells[rows]


def kind_column(kind, n):
    """An n-row column of one of the kinds _formatter tells apart."""
    x = np.resize(np.array(SPECIALS), n)
    k = np.arange(n)
    mixed = [[SPECIALS[i % 9], i - 5, i % 3 == 0, "s%d" % i][i % 4] for i in range(n)]
    if kind in ("float16", "float32"):
        with np.errstate(over="ignore"):  # 1e16 is inf in float16
            return x.astype(kind)
    if kind == "longdouble":  # x / 3 has digits a float64 cannot hold
        return x.astype(np.longdouble) / 3
    if kind == "complex":
        out = np.empty(n, dtype=complex)
        out.real, out.imag = x, x[::-1]
        return out
    return {"float64": x, "int8": (k % 256 - 128).astype(np.int8),
            "uint8": (k % 256).astype(np.uint8), "int64": k * 10 ** 12 - 7,
            "bool": k % 3 == 0, "object": np.array(mixed, dtype=object),
            "str_": np.array(["s%d;%d" % (i, i % 7) for i in range(n)]),
            "list": mixed, "text": Text(["s%d;%d" % (i, i % 7) for i in range(n)])}[kind]


# the formatter each kind must get: the fast paths give fmt's bytes on the
# builtin scalars tolist() returns and on a TextColumn's str cells, every
# other kind keeps fmt
KIND_FORMATTERS = {"float16": float.__repr__, "float32": float.__repr__,
                   "float64": float.__repr__, "longdouble": fmt, "int8": str,
                   "uint8": str, "int64": str, "bool": str, "object": fmt,
                   "str_": fmt, "complex": fmt, "list": fmt, "text": str}


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
@pytest.mark.parametrize("kind", sorted(KIND_FORMATTERS))
def test_each_column_kind_matches_per_row_reference(tmp_path, kind, n):
    columns = [np.arange(n), kind_column(kind, n)]
    path = tmp_path / "t.csv"
    write_csv(path, ["i", kind], columns)
    assert path.read_bytes() == reference_csv(["i", kind], columns)


@pytest.mark.parametrize("kind", sorted(KIND_FORMATTERS))
def test_formatter_rule(kind):
    assert _formatter(kind_column(kind, 3)) is KIND_FORMATTERS[kind]


def test_zero_rows_is_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, mixed_columns(0))
    assert path.read_bytes() == b"i,flag,name,x,y\n"


def test_python_lists_and_numpy_scalars_agree(tmp_path):
    values = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1e-5]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["v", "k", "ok"], [values, list(range(7)), [True] * 7])
    write_csv(b, ["v", "k", "ok"], [np.array(values), np.arange(7),
                                    np.ones(7, dtype=bool)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[1:3] == ["-0.0,0,True", "nan,1,True"]


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [np.arange(3), np.arange(4)]),
    (["a", "b"], [np.arange(CSV_BLOCK + 1), list(range(CSV_BLOCK))]),
    (["a", "b", "c"], [np.arange(3), np.arange(3)]),
])
def test_ragged_columns_raise_and_write_nothing(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(UsageError):
        write_csv(path, header, columns)
    assert os.listdir(tmp_path) == []


def test_failed_write_leaves_no_temp_file(tmp_path):
    class Boom:
        def __len__(self):
            return 2

        def __getitem__(self, key):
            raise RuntimeError("formatting failed")

    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        write_csv(path, ["a"], [Boom()])
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_text() == "old\n"


# -- tables of more than SPLIT_ROWS rows: two processes format them

@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # every helper has been reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Blocks of 4 rows, tables of more than 16 rows split, two CPUs offered;
    returns the list of forks made by this process."""
    monkeypatch.setattr(_util, "CSV_BLOCK", 4)
    monkeypatch.setattr(_util, "SPLIT_ROWS", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


@pytest.mark.parametrize("n", [15, 16, 17, 18, 43])
def test_split_matches_per_row_reference(tmp_path, split, n):
    columns = mixed_columns(n) + [kind_column("text", n)]
    path = tmp_path / "t.csv"
    write_csv(path, HEADER + ["text"], columns)
    assert path.read_bytes() == reference_csv(HEADER + ["text"], columns)
    assert len(split) == (n > 16)
    assert os.listdir(tmp_path) == ["t.csv"]


def test_one_cpu_stays_in_process(tmp_path, split, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    columns = mixed_columns(18)
    write_csv(tmp_path / "t.csv", HEADER, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(HEADER, columns)
    assert split == []


class Rows:
    """A column of n ints that calls act(lo) on each slice it gives: lo is
    the slice's first row."""

    def __init__(self, n, act):
        self.n, self.act = n, act

    def __len__(self):
        return self.n

    def __getitem__(self, rows):
        self.act(rows.start)
        return list(range(self.n))[rows]


class CellError(Exception):
    pass


def test_column_error_in_helper_rows_raises_its_type(tmp_path, split):
    def act(lo):
        if lo >= 9:  # the helper's rows, [9, 18)
            raise CellError("row %d" % lo)

    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(CellError, match="row 9"):
        write_csv(path, ["a"], [Rows(18, act)])
    assert len(split) == 1
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("death", [lambda: os.kill(os.getpid(), signal.SIGKILL),
                                   lambda: os._exit(3)])
def test_dead_helper_is_redone_here(tmp_path, split, death):
    parent = os.getpid()

    def act(lo):
        if os.getpid() != parent:
            death()

    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [Rows(18, act)])
    assert path.read_text() == "a\n" + "".join("%d\n" % i for i in range(18))
    assert len(split) == 1
    assert os.listdir(tmp_path) == ["t.csv"]


def test_failed_fork_is_done_here(tmp_path, split, monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "no process")

    monkeypatch.setattr(os, "fork", fork)
    columns = mixed_columns(18)
    write_csv(tmp_path / "t.csv", HEADER, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(HEADER, columns)
    assert os.listdir(tmp_path) == ["t.csv"]


def test_interrupt_in_own_half_kills_the_helper(tmp_path, split):
    parent = os.getpid()

    def act(lo):
        if os.getpid() != parent:
            time.sleep(60)  # still running when the interrupt comes
        elif lo >= 4:
            raise KeyboardInterrupt

    path = tmp_path / "t.csv"
    path.write_text("old\n")
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_csv(path, ["a"], [Rows(18, act)])
    assert time.monotonic() - start < 30
    assert len(split) == 1
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_non_finite_values(tmp_path, value):
    path = tmp_path / "r.json"
    with pytest.raises(DegenerateData, match="r.json"):
        write_json(path, {"ok": 1.0, "nested": {"values": [0.5, value]}})
    assert os.listdir(tmp_path) == []
