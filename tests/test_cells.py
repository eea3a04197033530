"""The cell kernels against Python's own formatting: float_cells against
float.__repr__ (CPython's dtoa, an independent route to the shortest
round-trip digits), int_cells against str and count_cells against
";".join of str."""

import numpy as np
import pytest

from hjdirac._cells import count_cells, float_cells, int_cells


def texts(cells):
    """The text of each row of a cell matrix, padding dropped."""
    ends = np.full((len(cells), 1), ord("\n"), np.uint8)
    joined = np.concatenate([cells, ends], axis=1).tobytes().translate(None, b"\0")
    return joined.decode().split("\n")[:-1]


def assert_reprs(values):
    """float_cells of values, widened to float64, match float.__repr__."""
    values = np.asarray(values).astype(np.float64)
    assert texts(float_cells(values)) == list(map(float.__repr__, values.tolist()))


def test_special_values():
    assert texts(float_cells(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))) == \
        ["0.0", "-0.0", "inf", "-inf", "nan", "nan"]


def test_extremes():
    info = np.finfo(np.float64)
    assert_reprs([5e-324, -5e-324, info.max, -info.max, info.tiny, -info.tiny,
                  np.nextafter(info.tiny, 0), np.nextafter(info.tiny, 1)])


def test_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, np.inf)]))


def test_layout_edges():
    # the fixed form runs from decpt -3 to 16; each side of both edges
    edges = [1e-4, 1e-5, 0.00012345, 1.2345e-5, 9999999999999998.0, 1e16, 1e17,
             1234567890123456.7, 12345678901234567.0, 0.1, 1.0, 10.0, 1e15, 1e22,
             1e23, 1.5e300, 1e100, 1e-100, 2.5e-310]
    assert_reprs(edges + [-v for v in edges])


def test_integers_and_short_decimals():
    assert_reprs(np.arange(0, 2 ** 53 + 1, 2 ** 53 // 50021, dtype=np.int64))
    assert_reprs(np.arange(2 ** 53 - 1000, 2 ** 53 + 1))
    k = np.arange(-5000, 5000)
    for j in range(0, 20, 3):
        assert_reprs(k / 10.0 ** j)
    # as a trajectory writes them: s = k * step, constants, exact zeros
    s = np.arange(20001) * 1e-3
    assert_reprs(np.concatenate([s, np.zeros(50), np.full(50, 0.3055), np.full(50, -1.5),
                                 1.0 + s, -0.25 * np.arange(20001)]))


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_narrow_floats_print_as_the_float64_they_widen_to(dtype):
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore"):
        values = (rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 8, 20000)
                  ).astype(dtype)
    assert_reprs(values)
    if dtype is np.float16:  # every half-precision bit pattern
        assert_reprs(np.arange(0, 2 ** 16, dtype=np.uint16).view(np.float16))


def test_multiples_of_four_from_two_to_the_53():
    # the floats in [2^53, 2^54) with an even mantissa: the only ones at which
    # Ryu's vm trailing-zeros term of the e2 < 0 rows can hold, which
    # _shortest leaves false, as there it cannot change the digits
    k = np.random.default_rng(22).integers(2 ** 51, 2 ** 52, 100000, dtype=np.int64)
    assert_reprs(np.concatenate([[2 ** 51, 2 ** 52 - 1], k]) * 4)


def test_random_bit_patterns():
    bits = np.random.default_rng(21).integers(0, 2 ** 64, 200000, np.uint64,
                                              endpoint=False)
    assert_reprs(bits.view(np.float64))


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                   np.uint32, np.int64, np.uint64, ">i4", ">u8"])
def test_int_extremes(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, info.min + 1, -1 if info.min else 2, 0, 1, 9, 10,
                       info.max - 1, info.max], dtype)
    assert texts(int_cells(values)) == list(map(str, values.tolist()))


@pytest.mark.parametrize("span", [range(-12345, 100000, 7), range(99, -1001, -3),
                                  range(-2 ** 63, 2 ** 63 - 1, 2 ** 58 + 1)])
def test_int_ranges(span):
    values = np.arange(span.start, span.stop, span.step, dtype=np.int64)
    assert texts(int_cells(values)) == list(map(str, span))


def test_count_cells():
    counts = np.random.default_rng(2).integers(0, 13, (5000, 12), dtype=np.uint8)
    assert texts(count_cells(counts)) == [";".join(map(str, row)) for row in counts.tolist()]
    assert texts(count_cells(np.array([[0], [12], [99]], np.uint8))) == ["0", "12", "99"]
