"""CSV cells as numpy byte matrices.

Each kernel here turns one block of a column into a (cells, width) uint8
matrix: row k holds cell k's bytes in order, with zero bytes among them as
padding, which write_csv deletes once a chunk's rows are joined. An integer
cell has str's bytes, and a float cell float.__repr__'s: the shortest
decimal that reads back as the float, the closest of those, ties to an even
last digit, laid out by CPython's 'r' rule. The float digits come from Ryu
(Ulf Adams, "Ryu: fast float-to-string conversion", PLDI 2018), run on whole
arrays: its 64 x 128-bit products are done in 32-bit limbs.
"""

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_P10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_INV_ROWS = 342   # POW5_INV[q], q < 342, then POW5[i], i < 326, in one table
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")
_TABLES = {}


def _tables():
    """The digit and power-of-5 tables, built on first use: "%04d" % k as
    one uint32 per k < 10**4, and Ryu's 125-bit POW5_INV and POW5 entries
    as uint64 low and high halves."""
    if not _TABLES:
        rows = [(1 << (_pow5bits(q) - 1 + 125)) // 5 ** q + 1 for q in range(_INV_ROWS)]
        rows += [5 ** i >> _pow5bits(i) - 125 if _pow5bits(i) > 125
                 else 5 ** i << 125 - _pow5bits(i) for i in range(326)]
        _TABLES.update(
            digits=np.frombuffer(b"".join(b"%04d" % k for k in range(10 ** 4)), np.uint32),
            low=np.array([r & (1 << 64) - 1 for r in rows], np.uint64),
            high=np.array([r >> 64 for r in rows], np.uint64),
            pow5=np.array([5 ** q for q in range(22)], np.uint64),
            # row 21 lo + hi: 0xFF at the columns lo <= j < hi of 20, else 0
            spans=np.array([[255 * (lo <= j < hi) for j in range(20)]
                            for lo in range(21) for hi in range(21)], np.uint8))
    return _TABLES


def _pow5bits(e):
    """Bits of 5**e, for e >= 0 (Ryu's pow5bits); e an int or int64 array."""
    return ((e * 1217359) >> 19) + 1


def _digit_chars(v):
    """(len(v), 20) ASCII digits of the uint64 array v, zero-padded on the
    left, looked up four at a time."""
    top = v // _P10[16]
    rest = v - top * _P10[16]
    high = rest // _P10[8]
    groups = np.empty((len(v), 5), np.intp)
    groups[:, 0] = top
    for col, part in ((1, high), (3, rest - high * _P10[8])):
        # part // 10**4 for part < 2**32, as a multiply and a shift
        groups[:, col] = cut = (part * _U64(3518437209)) >> _U64(45)
        groups[:, col + 1] = part - cut * _U64(10 ** 4)
    return np.take(_tables()["digits"], groups).view(np.uint8)


def _mul_shift_all(m2, low, high, shift, mm_shift):
    """(vr, vp, vm): 4 m2, 4 m2 + 2 and 4 m2 - 1 - mm_shift times the 128-bit
    high * 2**64 + low, shifted right by 64 + shift, for uint64 m2 < 2**54
    and 1 < shift < 64. Ryu's mulShiftAll64: one product 2 m2 (high, low) in
    three words, its 64 x 64-bit products in 32-bit limbs, and the others
    from it by adding or subtracting (high, low)."""
    m = m2 << _U64(1)
    m0, m1 = m & _LOW32, m >> _U64(32)

    def product(b):  # the (high, low) words of m * b
        b0, b1 = b & _LOW32, b >> _U64(32)
        p00, p01, p10 = m0 * b0, m0 * b1, m1 * b0
        mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
        return (m1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32)),
                (mid << _U64(32)) | (p00 & _LOW32))

    def shifted(mid, hi, by):
        return (hi << (_U64(64) - by)) | (mid >> by)

    tmp, lo = product(low)
    hi, mid = product(high)
    mid += tmp
    hi += mid < tmp
    one = shift - _U64(1)
    vr = shifted(mid, hi, one)
    lo2 = lo + low
    mid2 = mid + high + (lo2 < lo)
    vp = shifted(mid2, hi + (mid2 < mid), one)
    lo2 = lo - low
    mid2 = mid - high - (lo2 > lo)
    vm = shifted(mid2, hi - (mid2 > mid), one)
    even = np.flatnonzero(mm_shift == 0)   # mantissa 0: the lower gap is half
    if even.size:
        lo, mid, hi, low, high = lo[even], mid[even], hi[even], low[even], high[even]
        lo2 = lo + lo
        mid2 = mid + mid + (lo2 < lo)
        hi2 = hi + hi + (mid2 < mid)
        lo3 = lo2 - low
        mid3 = mid2 - high - (lo3 > lo2)
        vm[even] = shifted(mid3, hi2 - (mid3 > mid2), shift[even])
    return vr, vp, vm


def _shortest(bits):
    """(digits, e10) as uint64 and int64 arrays: digits * 10**e10 is the
    shortest decimal that reads back as each positive finite float64 whose
    bits are bits, the closest such, ties to an even last digit (Ryu's
    d2d)."""
    t = _tables()
    mantissa = bits & _U64((1 << 52) - 1)
    biased = (bits >> _U64(52)).astype(np.int64)
    e2 = np.maximum(biased, 1) - 1077
    m2 = np.where(biased > 0, mantissa | _U64(1 << 52), mantissa)
    accept = (m2 & _U64(1)) == 0   # an even mantissa's round-trip interval is closed
    mm_shift = ((mantissa != 0) | (biased <= 1)).astype(np.uint64)
    mv = m2 << _U64(2)
    up = e2 >= 0
    e2_up, e2_down = np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(up, ((e2_up * 78913) >> 18) - (e2_up > 3),
                 ((e2_down * 732923) >> 20) - (e2_down > 1))
    i = np.where(up, 0, e2_down - q)
    e10 = np.where(up, q, -i)
    row = np.where(up, q, _INV_ROWS + i)
    shift = np.where(up, q - e2 + 124 + _pow5bits(q), q - _pow5bits(i) + 125) - 64
    low, high, shift = t["low"][row], t["high"][row], shift.astype(np.uint64)
    vr, vp, vm = _mul_shift_all(m2, low, high, shift, mm_shift)

    # whether the shift cut only zeros off vr and off vm (Ryu's
    # vrIsTrailingZeros and vmIsTrailingZeros)
    low_bits = (_U64(1) << np.minimum(q, 62).astype(np.uint64)) - _U64(1)
    vr_zeros = ~up & (q < 63) & (mv & low_bits == 0)
    # Ryu's vm term of the ~up, q <= 1 rows holds only at biased exponent
    # 1076 with one digit cut, where digits is 2 m2 and vm_cut 2 m2 - 1: odd,
    # so it cuts no zeros and never equals digits, and it changes nothing
    vm_zeros = np.zeros_like(vr_zeros)
    vp -= (~up & (q <= 1) & ~accept).astype(np.uint64)
    small = np.flatnonzero(up & (q <= 21))
    if small.size:
        p5, mvs = t["pow5"][q[small]], mv[small]
        mod5 = mvs % _U64(5) == 0
        vr_zeros[small] = mod5 & (mvs % p5 == 0)
        vm_zeros[small] = ~mod5 & accept[small] & ((mvs - _U64(1) - mm_shift[small]) % p5 == 0)
        vp[small] -= (~mod5 & ~accept[small] & ((mvs + _U64(2)) % p5 == 0)).astype(np.uint64)

    # Ryu's loop cuts a digit off vr, vp and vm while vp // 10 > vm // 10.
    # It cuts at least d - 1 of them, d being the digits of vp - vm, so
    # those go at once; the loop then goes on for the rows that need it.
    removed = np.maximum(np.searchsorted(_P10, vp - vm, side="right") - 1, 0)
    cut = vr // _P10[np.maximum(removed - 1, 0)]   # all cut digits but the last
    last = np.where(removed > 0, cut % _U64(10), _U64(0))
    digits = np.where(removed > 0, cut // _U64(10), vr)
    vp_cut, vm_cut = vp // _P10[removed], vm // _P10[removed]
    more = np.flatnonzero(vp_cut // _U64(10) > vm_cut // _U64(10))
    while more.size:
        last[more] = digits[more] % _U64(10)
        digits[more] //= _U64(10)
        vp_cut[more] //= _U64(10)
        vm_cut[more] //= _U64(10)
        removed[more] += 1
        more = more[vp_cut[more] // _U64(10) > vm_cut[more] // _U64(10)]
    round_up = (digits == vm_cut) | (last >= 5)
    odd = np.flatnonzero(vr_zeros | vm_zeros)
    if odd.size:   # Ryu's general case, rare: trailing zeros decide the rounding
        vrz = vr_zeros[odd] & (vr[odd] % _P10[np.maximum(removed[odd] - 1, 0)] == 0)
        vmz = vm_zeros[odd] & (vm[odd] % _P10[removed[odd]] == 0)
        v, m, d = digits[odd], vm_cut[odd], last[odd]
        more = np.flatnonzero(vmz & (m % _U64(10) == 0))
        while more.size:
            vrz[more] &= d[more] == 0
            d[more] = v[more] % _U64(10)
            v[more] //= _U64(10)
            m[more] //= _U64(10)
            removed[odd[more]] += 1
            more = more[m[more] % _U64(10) == 0]
        d[vrz & (d == 5) & (v % _U64(2) == 0)] = 4
        digits[odd] = v
        round_up[odd] = ((v == m) & (~accept[odd] | ~vmz)) | (d >= 5)
    return digits + round_up.astype(np.uint64), e10 + removed


def float_cells(values):
    """(len(values), width) cells of float.__repr__ of each entry of values,
    a float64 array."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    negative = bits >> _U64(63) == 1
    bits = bits & _U64((1 << 63) - 1)
    finite = bits < _U64(0x7FF0000000000000)
    regular = finite & (bits != 0)
    digits, e10 = _shortest(np.where(regular, bits, _U64(0x3FF0000000000000)))  # 1.0

    # digits as decimal text d1 d2 ... dn with the point after decpt of them
    # (before -decpt zeros when decpt <= 0); CPython's 'r' rule writes it
    # with an exponent when decpt <= -4 or decpt > 16, else in fixed form,
    # where a whole number ends in ".0"
    n = np.searchsorted(_P10, digits, side="right")
    decpt = e10 + n
    exponent = (decpt <= -4) | (decpt > 16)
    whole = np.flatnonzero(~exponent & (decpt > n))   # digits, then zeros
    if whole.size:
        digits[whole] *= _P10[decpt[whole] - n[whole]]
        n[whole] = decpt[whole]

    # A cell is: sign, integer part, point, fraction, a "0" for an empty
    # fraction, exponent. Both parts are slices of the 20 digit chars R of
    # digits, whose last n are the digits and whose first 3 or more are
    # zeros: the integer part is R[lo_int:hi_int], the fraction R[lo_frac:].
    start = 20 - n
    lo_int = start - (~exponent & (decpt <= 0))
    hi_int = np.where(exponent, start + 1, start + np.maximum(decpt, 0))
    lo_frac = np.where(exponent, start + 1, start + decpt)
    a, b, c = lo_int.min(), hi_int.max(), lo_frac.min()
    suffix = 5 if exponent.any() else 0
    cells = np.empty((len(bits), 23 + b - a - c + suffix), np.uint8)
    nan = bits > _U64(0x7FF0000000000000)
    cells[:, 0] = np.where(negative & ~nan, _MINUS, 0)   # a NaN prints unsigned
    R, spans = _digit_chars(digits), _tables()["spans"]
    np.bitwise_and(R[:, a:b], np.take(spans, lo_int * 21 + hi_int, axis=0)[:, a:b],
                   out=cells[:, 1:1 + b - a])
    dot = 1 + b - a
    cells[:, dot] = np.where(exponent & (n == 1), 0, _DOT)
    np.bitwise_and(R[:, c:], np.take(spans, lo_frac * 21 + 20, axis=0)[:, c:],
                   out=cells[:, dot + 1:dot + 21 - c])
    cells[:, dot + 21 - c] = np.where(~exponent & (lo_frac == 20), _ZERO, 0)
    if suffix:
        power = decpt - 1
        size = np.abs(power)
        tail = cells[:, -5:]
        tail[:, 0] = ord("e")
        tail[:, 1] = np.where(power < 0, _MINUS, ord("+"))
        tail[:, 2] = np.where(size >= 100, _ZERO + size // 100, 0)
        tail[:, 3] = _ZERO + size // 10 % 10
        tail[:, 4] = _ZERO + size % 10
        tail[~exponent] = 0
    # each class after the first is part of the one before and overwrites it
    for rows, text in ((~regular, b"0.0"), (~finite, b"inf"), (nan, b"nan")):
        rows = np.flatnonzero(rows)
        if rows.size:
            cells[rows, 1:] = 0
            cells[rows, 1:4] = np.frombuffer(text, np.uint8)
    return cells


def int_cells(values):
    """(len(values), width) cells of str of each entry of values, an int or
    uint array."""
    values = np.asarray(values)
    magnitude = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64)
    magnitude = magnitude.view(np.uint64)
    negative = values < 0
    magnitude = np.where(negative, -magnitude, magnitude)   # 2**63 for int64's least
    start = 20 - np.maximum(np.searchsorted(_P10, magnitude, side="right"), 1)
    lo = start.min()
    cells = np.empty((len(values), 21 - lo), np.uint8)
    cells[:, 0] = np.where(negative, _MINUS, 0)
    np.bitwise_and(_digit_chars(magnitude)[:, lo:],
                   np.take(_tables()["spans"], start * 21 + 20, axis=0)[:, lo:],
                   out=cells[:, 1:])
    return cells


def count_cells(counts):
    """(rows, width) cells of the (rows, levels) uint8 counts, each at most
    99: a row's counts in decimal, joined by ";"."""
    tens, ones = np.divmod(counts, 10)
    cells = np.empty(counts.shape + (3,), np.uint8)
    cells[..., 0] = np.where(tens > 0, _ZERO + tens, 0)
    cells[..., 1] = _ZERO + ones
    cells[..., 2] = ord(";")
    return cells.reshape(len(counts), -1)[:, :-1]
