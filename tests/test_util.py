import os

import numpy as np
import pytest

from hjdirac._util import CSV_BLOCK, fmt, write_csv
from hjdirac.errors import UsageError

HEADER = ["i", "flag", "name", "x", "y"]


def reference_csv(header, columns):
    """The per-row formatter the streamed writer replaced, kept as its oracle."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def mixed_columns(n):
    specials = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, 1.0 / 3]
    x = np.resize(np.array(specials), n)
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
