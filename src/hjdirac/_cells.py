"""CSV cells as numpy byte matrices.

Each kernel here turns one block of a column into a (cells, width) uint8
matrix: row k holds cell k's bytes in order, with zero bytes among them as
padding, which write_csv deletes once a chunk's rows are joined. An integer
cell has str's bytes, and a float cell float.__repr__'s: the shortest
decimal that reads back as the float, the closest of those, ties to an even
last digit, laid out by CPython's 'r' rule. The float digits come from
Schubfach (Raffaello Giulietti, "The Schubfach way to render doubles",
2020), run on whole arrays: one exact product of the significand and a
126-bit power of ten per value, in 32-bit limbs, scales the float's
rounding interval to 16 or 17 digits, and one test between at most two
candidates picks the digits, with no search or loop.
"""

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_P10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_ZERO, _DOT, _MINUS = (np.uint8(ord(ch)) for ch in "0.-")
_TABLES = {}


def _tables():
    """The tables, built on first use: "%04d" % k as one uint32 per
    k < 10**4 and its trailing zeros (4 for 0), Schubfach's g for
    -324 <= k <= 292 as 63-bit halves, and the exponent suffixes."""
    if not _TABLES:
        # g = floor(10**-k 2**-r) + 1, r = floor(log2(10**-k)) - 125, so
        # 2**125 < g < 2**126; written over 10**324 2**1000 to keep every
        # power whole
        g = [(10 ** (324 - k) << 1125 - (-k * 913124641741 >> 38)) // (10 ** 324 << 1000) + 1
             for k in range(-324, 293)]
        suffixes = [b""] + [b"e%+03d" % p for p in range(-324, 309)]
        _TABLES.update(
            digits=np.frombuffer(b"".join(b"%04d" % k for k in range(10 ** 4)), np.uint32),
            zeros=np.array([4] + [len(b"%d" % k) - len((b"%d" % k).rstrip(b"0"))
                                  for k in range(1, 10 ** 4)], np.uint8),
            g1=np.array([v >> 63 for v in g], np.uint64),
            g0=np.array([v & (1 << 63) - 1 for v in g], np.uint64),
            # row 325 + p: "e%+03d" % p, zero-padded to 5 bytes; row 0 empty
            suffixes=np.frombuffer(b"".join(s.ljust(5, b"\0") for s in suffixes),
                                   np.uint8).reshape(-1, 5),
            # row 21 lo + hi: 0xFF at the columns lo <= j < hi of 20, else 0
            spans=np.array([[255 * (lo <= j < hi) for j in range(20)]
                            for lo in range(21) for hi in range(21)], np.uint8))
    return _TABLES


def _digit_groups(v):
    """(len(v), 5) indices into the 4-digit table that spell the uint64
    array v, v < 10**20, in 20 digits, zero-padded on the left."""
    top = v // _P10[16]
    rest = v - top * _P10[16]
    high = rest // _P10[8]
    groups = np.empty((len(v), 5), np.intp)
    groups[:, 0] = top
    for col, part in ((1, high), (3, rest - high * _P10[8])):
        # part // 10**4 for part < 2**32, as a multiply and a shift
        groups[:, col] = cut = (part * _U64(3518437209)) >> _U64(45)
        groups[:, col + 1] = part - cut * _U64(10 ** 4)
    return groups


def _digit_chars(v):
    """(len(v), 20) ASCII digits of the uint64 array v, zero-padded on the
    left, looked up four at a time."""
    return np.take(_tables()["digits"], _digit_groups(v)).view(np.uint8)


def _schubfach(bits):
    """(digits, e10) as uint64 and int64 arrays: digits * 10**e10 is the
    shortest decimal that reads back as each positive finite float64 whose
    bits are bits, the closest such, ties to an even last digit. digits may
    end in zeros; a normal float's has 16 or 17 digits. Unlike Java's
    Double.toString, which Giulietti wrote this for, there is no two-digit
    minimum, so no rescaling of small subnormals: 5e-324 has one digit."""
    t = _tables()
    biased = (bits >> _U64(52)).view(np.int64)
    c = bits & _U64((1 << 52) - 1)
    irregular = (c == 0) & (biased > 1)   # a power of two: its lower gap is half
    normal = biased > 0
    c |= normal.astype(np.uint64) << _U64(52)
    q = biased - 1075 + ~normal   # the float is c 2**q
    # k = floor(log10(2**q)), or of 3/4 2**q; h = q + floor(log2(10**-k)) + 2
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    del q, biased, normal
    g1, g0 = t["g1"][k + 324], t["g0"][k + 324]   # g = g1 2**63 + g0

    # P = g (4 c << h) exactly, as two 64 x 64-bit products in 32-bit limbs:
    # vb = floor(P / 2**127), its last bit set when bits 64..126 of P are
    # not all zero, is 4 c 2**q / 10**k to that precision, and vbr and vbl
    # the same for the interval's ends, from P + (g << h + 1) and
    # P - (g << h + 1), or P - (g << h) for the lower gap of a power of two
    cp = c << (h + _U64(2))
    a0, a1 = cp & _LOW32, cp >> _U64(32)
    del cp

    def product(b):   # the high and low words of 4 c 2**h b
        b0, b1 = b & _LOW32, b >> _U64(32)
        p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
        mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
        return (a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32)),
                (mid << _U64(32)) | (p00 & _LOW32))

    y1, y0 = product(g1)
    x1, x0 = product(g0)
    del a0, a1
    # P = y1 2**127 + y0 2**63 + x1 2**64 + x0
    z = (y0 >> _U64(1)) + x1 + ((y0 << _U64(63) & x0) >> _U64(63))
    low = (y0 << _U64(63)) + x0
    top = y1 + (z >> _U64(63))
    z &= _M63
    del y0, y1, x0, x1
    vb = top | (z != 0)

    def shifted(e):   # g << e, 1 <= e < 64, as P is split: over 2**127, bits 64..126, low
        return g1 >> (_U64(64) - e), (g1 << (e - _U64(1)) | g0 >> (_U64(64) - e)) & _M63, g0 << e

    e = h + _U64(1)
    gt, gm, gl = shifted(e)
    mid = z + gm + ((low + gl) < gl)
    vbr = top + gt + (mid >> _U64(63)) | ((mid & _M63) != 0)
    gt, gm, gl = shifted(e - irregular)
    mid = z - gm - (low < gl)
    vbl = top - gt - (mid >> _U64(63)) | ((mid & _M63) != 0)
    del gt, gm, gl, mid, z, low, top, g1, g0, e, h, irregular

    # The candidates: s 10**k and (s + 1) 10**k, and the two multiples of
    # 10**(k + 1) around them, sp10 10**k and (sp10 + 10) 10**k. The
    # interval holds at most one of the latter; if it holds exactly one,
    # that is the shortest. Else it holds s or s + 1 or both, and the
    # closer wins, ties to even. An odd c's interval is open.
    out = c & _U64(1)
    vbl += out
    vbr -= out
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) <= vbr
    uin = vbl <= vb & ~_U64(3)
    win = (vb | _U64(3)) + _U64(1) <= vbr
    closer_up = (vb & _U64(3)) + (s & _U64(1)) > 2   # past half, or at half with s odd
    pick_t = (win & (~uin | closer_up)).astype(np.uint64)
    one = (upin != wpin).astype(np.uint64)
    s += pick_t
    s += one * (sp10 + _U64(10) * wpin - s)   # modulo 2**64
    return s, k


def float_cells(values):
    """(len(values), width) cells of float.__repr__ of each entry of values,
    a float64 array."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    negative = (bits >> _U64(63)).astype(np.uint8)
    bits = bits & _M63
    special = np.flatnonzero(bits - _U64(1) >= _U64(0x7FEFFFFFFFFFFFFF))  # 0, inf, nan
    kind = bits[special]
    bits[special] = 0x3FF0000000000000   # 1.0, overwritten below
    digits, e10 = _schubfach(bits)

    # digits as decimal text: n digits, the last zeros of them trailing, and
    # the point after decpt of them (before -decpt zeros when decpt <= 0);
    # CPython's 'r' rule writes it with an exponent when decpt <= -4 or
    # decpt > 16, else in fixed form, where a whole number ends in ".0"
    n = 16 + (digits >= _P10[16])
    subnormal = np.flatnonzero(bits < _U64(1 << 52))
    n[subnormal] = np.searchsorted(_P10, digits[subnormal], side="right")
    decpt = e10 + n
    exponent = (decpt <= -4) | (decpt > 16)
    t = _tables()
    groups = _digit_groups(digits)
    R = np.take(t["digits"], groups).view(np.uint8)
    z = np.take(t["zeros"], groups)
    del groups, digits
    # trailing zeros: a group's, and the next group's while this one is 0000
    zeros = z[:, 1]
    for col in (2, 3, 4):
        zeros = z[:, col] + (z[:, col] == 4) * zeros
    del z

    # A cell is: sign, integer part, point, fraction, exponent. Both parts
    # are slices of the 20 digit chars R of digits, whose last n are the
    # digits and whose first 3 or more are zeros: the integer part is
    # R[lo_int:hi_int], the fraction R[lo_frac:hi_frac], which stops before
    # the trailing zeros. An empty fraction is "0" in fixed form; in
    # exponent form it drops the point.
    start = 20 - n
    point = np.where(exponent, 1, decpt)
    lo_int = start - (point <= 0)
    hi_int = start + np.maximum(point, 0)
    lo_frac = start + point
    hi_frac = 20 - zeros.astype(np.intp)
    empty = lo_frac >= hi_frac
    a = lo_int.min(initial=19)
    b = hi_int.max(initial=a)
    c = lo_frac.min(initial=19)
    d = hi_frac.max(initial=c + 1)
    suffix = 5 if exponent.any() else 0
    dot = 1 + b - a
    cells = np.empty((len(bits), dot + 1 + d - c + suffix), np.uint8)
    np.multiply(negative, _MINUS, out=cells[:, 0])
    spans = t["spans"]
    np.bitwise_and(R[:, a:b], np.take(spans[:, a:b], lo_int * 21 + hi_int, axis=0),
                   out=cells[:, 1:dot])
    cells[:, dot] = _DOT * ~(exponent & empty)
    np.bitwise_and(R[:, c:d], np.take(spans[:, c:d], lo_frac * 21 + hi_frac, axis=0),
                   out=cells[:, dot + 1:dot + 1 + d - c])
    cells[:, dot + 1] |= _ZERO * (empty & ~exponent)
    if suffix:
        cells[:, -5:] = np.take(t["suffixes"], exponent * (decpt + 324), axis=0)
    if special.size:   # 0.0 and -0.0, inf and -inf, nan (unsigned)
        cls = (kind != 0).astype(np.intp) + (kind > _U64(0x7FF0000000000000))
        cells[special, 1:] = 0
        cells[special, 1:4] = np.frombuffer(b"0.0infnan", np.uint8).reshape(3, 3)[cls]
        cells[special[cls == 2], 0] = 0
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
    lo = start.min(initial=19)
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
    return cells.reshape(len(counts), 3 * counts.shape[1])[:, :-1]
