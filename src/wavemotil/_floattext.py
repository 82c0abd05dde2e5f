"""CSV text of float64 tables, each float written as Python's ``repr``.

``csv_blocks(columns)`` renders a table block by block in numpy and yields
each block's bytes, so a writer streams a table of any length through a
working set of one block.
The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020).  A normal float v = c 2^q has the rounding interval
R_v = [v - 2^(q-1), v + 2^(q-1)] (its lower half-gap is 2^(q-2) when c is
the smallest significand, at the narrower gap below a power of two), ends
included when c is even, as round-half-even reads them back.  With
k = floor(log10 2^q) (floor(log10 (3/4) 2^q) at the narrower gap), v and the
two ends are scaled by 10^-k, times 4, through a 126-bit upper bound g of a
power of ten and rounded to odd, which keeps every comparison below exact.
R_v holds at most one multiple of 10^(k+1); if it does, that is the
shortest decimal.  Otherwise the shortest are the multiples of 10^k in R_v,
and the one nearest v is floor or ceil of v / 10^k.  That is the decimal
``repr`` writes.  All of it runs in uint64 arrays, the products in 32-bit
limbs.

The layout is ``repr``'s: positional for 1e-4 <= |x| < 1e16, with ``.0``
after an integral value; otherwise ``d.ddde+XX``, with at least two exponent
digits and no ``.`` after a single digit; ``0.0`` and ``-0.0`` for zeros.
Each cell's bytes are gathered from a 32-byte alphabet of its digits, point,
sign, exponent and separator through a table of these layouts, and the
cells go into one uint8 buffer.  The tables (g for k = -324..292, the
layouts, the exponents) are built from Python ints on first use, not at
import.  The kernel leaves three classes of cells to ``repr`` itself:
subnormals (whose candidates can have fewer than the three digits the test
of the shorter candidates assumes; a normal float's have 16 or 17),
infinities and NaN, and a value exactly halfway between its two nearest
candidates.  So every cell reads as its ``repr`` by construction.

Shifts, masks and products stay in uint64 and exponents in int64, never
mixed: under numpy < 2 a uint64 operand with an int64 one promotes to
float64.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292
#: Cells per block: the working arrays of a block stay within a few MB.
_CHUNK = 8192
#: Bytes of a cell: the longest ``repr`` of a float, 24, and a separator.
_WIDTH = 25
#: Byte columns of a cell's 32-byte alphabet (four little-endian uint64
#: words): its 17 digits S, then '.', '-', '0' and a 0 byte, which
#: ``csv_blocks`` drops; from 24 on, 'e', the exponent's sign and digits, and
#: the separator.
_S, _POINT, _MINUS, _ZERO, _NUL = 0, 17, 18, 19, 23
_E, _E_SIGN, _E_HUNDREDS, _E_TENS, _E_ONES, _SEP = 24, 25, 26, 27, 28, 29
#: Layouts, for a cell 0.S[:nd] 10^decpt: positional, decpt = -3..16 and
#: nd = 1..17; then exponential, nd = 1..17, two or three exponent digits.
_POSITIONAL = 20 * 17
_LAYOUTS = _POSITIONAL + 17 * 2
#: Bound on |decpt|: normal floats have -307 <= decpt <= 309.
_DECPT_SPAN = 330


def _flog10pow2(e):
    """floor(log10 2^e) for |e| < 5000."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10 (3/4) 2^e) for |e| < 5000."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2 10^e) for |e| < 1000."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers() -> np.ndarray:
    """g = floor(beta) + 1, where 10^-k = beta 2^r with 2^125 <= beta < 2^126,
    for k = _K_MIN.._K_MAX, as its low and high 64-bit words: shape (2, 617).
    """
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        if r < 0:
            num <<= -r
        else:
            den <<= r
        g = num // den + 1
        words.append((g & (1 << 64) - 1, g >> 64))
    table = np.array(words, dtype=_U).T.copy()
    table.flags.writeable = False
    return table


def _product(g, cp):
    """g cp for g < 2^126 given as two 64-bit words and cp < 2^60, as its
    bits 127 and up, its bits 64..126 and its bits 0..63; the products are
    taken in 32-bit limbs."""
    s32 = _U(32)
    c0, c1 = cp & _M32, cp >> s32
    limbs = (g[0] & _M32, g[0] >> s32, g[1] & _M32, g[1] >> s32)
    a = [gi * c0 for gi in limbs]
    b = [gi * c1 for gi in limbs]
    col1 = (a[0] >> s32) + (a[1] & _M32) + (b[0] & _M32)
    col2 = (a[1] >> s32) + (b[0] >> s32) + (a[2] & _M32) + (b[1] & _M32)
    col3 = (a[2] >> s32) + (b[1] >> s32) + (a[3] & _M32) + (b[2] & _M32)
    col4 = (a[3] >> s32) + (b[2] >> s32) + (b[3] & _M32)
    col2 += col1 >> s32
    col3 += col2 >> s32
    col4 += col3 >> s32
    col5 = (b[3] >> s32) + (col4 >> s32)
    high = (col5 << _U(33)) | ((col4 & _M32) << _U(1)) | ((col3 & _M32) >> _U(31))
    frac = (col2 & _M32) | ((col3 & _U(0x7FFFFFFF)) << s32)
    return high, frac, (a[0] & _M32) | (col1 << s32)


def _odd(high, frac):
    """high rounded to odd by the fraction bits 64..126.

    g exceeds beta by less than 1, so g cp exceeds the exact scaled value by
    less than cp < 2^64: bits 0..63 hold that excess, not a fraction of the
    value, and are left out, as Schubfach's rop leaves them out.
    """
    return high | (frac != 0).astype(_U)


def _shifted(g, shift):
    """g 2^shift, for shift < 8, split as ``_product`` splits its product."""
    high = g[1] >> (_U(63) - shift)
    frac = ((g[1] << shift) | (g[0] >> (_U(64) - shift))) & _M63
    return high, frac, g[0] << shift


def _shortest(x: np.ndarray):
    """Schubfach's shortest decimal d 10^k of each float in ``x``, and the
    cells it does not decide: (d, k, zero, undecided).

    Zeros read d = 0; the d and k of an undecided cell are meaningless.
    """
    bits = x.view(_U)
    be = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U((1 << 52) - 1)
    zero = (bits << _U(1)) == 0
    special = (be == 0) | (be == 0x7FF)
    undecided = special & ~zero
    be = np.where(special, _U(1023), be)  # decide 1.0 in their place
    narrow = (t == 0) & (be > 1)  # the gap below v is half the gap above
    q = be.astype(np.int64) - 1075
    k = np.where(narrow, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = _powers().take(k - _K_MIN, axis=1)
    # 4 v and the interval's ends, 4 v - 2 (4 v - 1 at the narrower gap) and
    # 4 v + 2, each times 2^h g / 2^127, rounded to odd.
    l_high, l_frac, l_low = _shifted(g, h + _U(1) - narrow.astype(_U))
    r_high, r_frac, r_low = _shifted(g, h + _U(1))
    high, frac, low = _product(g, ((t | _U(1 << 52)) << _U(2)) << h)
    vb = _odd(high, frac)
    below = frac + _U(1 << 63) - l_frac - (low < l_low).astype(_U)
    vbl = _odd(high - l_high - (below >> _U(63) ^ _U(1)), below & _M63)
    above = frac + r_frac + (low > ~r_low).astype(_U)
    vbr = _odd(high + r_high + (above >> _U(63)), above & _M63)
    out = t & _U(1)  # an odd c keeps the interval's ends out
    s = vb >> _U(2)
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    short = upin != wpin
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    # vb = 4 s + r: s is nearer v for r < 2, s + 1 for r > 2, r = 2 a tie.
    r = vb & _U(3)
    up = win & (~uin | (r > 1))
    d = np.where(short, sp10 + _U(10) * wpin, s + up)
    undecided |= ~short & uin & win & (r == 2)
    d[zero] = 0
    return d, k, zero, undecided


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10^8 as ASCII bytes of a uint64,
    most significant digit in the lowest byte: SWAR halving into 4-, 2- and
    1-digit lanes, the divisions by 100 and 10 done by multiply and shift."""
    hi = x // _U(10_000)
    v = hi | ((x - hi * _U(10_000)) << _U(32))
    h = ((v * _U(10_486)) >> _U(20)) & _U(0x0000007F0000007F)
    v = h | ((v - h * _U(100)) << _U(16))
    h = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return h | ((v - h * _U(10)) << _U(8))


def _top_byte(w: np.ndarray) -> np.ndarray:
    """Index of the highest nonzero byte of each w with bytes <= 0x7F, and a
    negative number for w = 0: the exponent of the bytes' marker bits."""
    marks = (w + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)
    return ((marks.astype(np.float64).view(np.int64) >> 52) - 1030) >> 3


@functools.cache
def _exponents() -> np.ndarray:
    """'e', the sign and three digits of the exponent decpt - 1 as the low
    five bytes of a uint64, for decpt = -_DECPT_SPAN.._DECPT_SPAN - 1."""
    words = [
        int.from_bytes(f"e{decpt - 1:+04d}".encode(), "little")
        for decpt in range(-_DECPT_SPAN, _DECPT_SPAN)
    ]
    table = np.array(words, dtype=_U)
    table.flags.writeable = False
    return table


@functools.cache
def _layouts() -> np.ndarray:
    """The alphabet column of each byte of each layout, first unsigned, then
    with a minus sign: shape (2 * _LAYOUTS, _WIDTH), 0-padded with _NUL.

    A cell reads 0.S[:nd] 10^decpt; this is ``repr``'s layout of it.  Rows
    come in the order of ``_render``'s layout index.
    """
    bodies = []
    for decpt in range(-3, 17):
        for nd in range(1, 18):
            if decpt <= 0:
                body = [_ZERO, _POINT] + [_ZERO] * -decpt + list(range(nd))
            elif decpt < nd:
                body = list(range(decpt)) + [_POINT] + list(range(decpt, nd))
            else:  # S holds '0' after its nd digits
                body = list(range(decpt)) + [_POINT, _ZERO]
            bodies.append(body + [_SEP])
    for nd in range(1, 18):
        for three in (0, 1):
            body = [_S] + ([_POINT] + list(range(1, nd)) if nd > 1 else [])
            body += [_E, _E_SIGN] + [_E_HUNDREDS] * three + [_E_TENS, _E_ONES, _SEP]
            bodies.append(body)
    rows = bodies + [[_MINUS] + body for body in bodies]
    table = np.array([row + [_NUL] * (_WIDTH - len(row)) for row in rows], dtype=np.uint8)
    table.flags.writeable = False
    return table


def _render(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The bytes of each float in ``x`` followed by its separator ``sep``,
    in a (len(x), _WIDTH) array padded with 0 bytes."""
    d, k, zero, undecided = _shortest(x)
    # d has 16 or 17 digits, or is 0: S is its 17 digits, d = 0.S 10^decpt.
    widen = d < _U(10**16)
    d = np.where(widen, d * _U(10), d)
    decpt = np.where(zero, 1, k + 17 - widen)
    tens = d // _U(10)
    top = tens // _U(10**8)
    digits = _ascii8(np.stack((top, tens - top * _U(10**8)), axis=1))
    last_digit = d - tens * _U(10)
    last = np.maximum(_top_byte(digits[:, 0]), _top_byte(digits[:, 1]) + 8)
    last[last_digit != 0] = 16
    nd = np.where(zero, 1, last + 1)
    alphabet = np.empty((len(x), 4), dtype=_U)
    alphabet[:, :2] = digits | _U(0x3030303030303030)
    alphabet[:, 2] = last_digit | _U(0x30 | ord(".") << 8 | ord("-") << 16 | ord("0") << 24)
    alphabet[:, 3] = _exponents().take(decpt + _DECPT_SPAN) | sep.astype(_U) << _U(40)
    expo = (decpt < -3) | (decpt > 16)
    three = (decpt < -98) | (decpt > 100)
    layout = np.where(expo, _POSITIONAL + (nd - 1) * 2 + three, (decpt + 3) * 17 + nd - 1)
    layout += (x.view(_U) >> _U(63)).astype(np.int64) * _LAYOUTS
    columns = _layouts().take(layout, axis=0).astype(np.intp)
    columns += np.arange(0, 32 * len(x), 32, dtype=np.intp)[:, None]
    cells = alphabet.astype("<u8", copy=False).view(np.uint8).ravel().take(columns)
    for i in np.flatnonzero(undecided).tolist():
        text = (repr(float(x[i])) + chr(sep[i])).encode()
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def csv_blocks(columns) -> Iterator[bytes]:
    """Newline-ended CSV rows of float columns, each float as its ``repr``,
    as ASCII byte blocks of whole rows, at most _CHUNK cells each (one row
    when a row is longer).

    Each block is stacked, rendered and compacted on its own, so a table is
    never held whole: a writer passes the blocks to a binary file as they
    come.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    n_cols = len(columns)
    seps = np.full(n_cols, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    step = max(1, _CHUNK // n_cols)
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([column[start : start + step] for column in columns])
        cells = _render(block.ravel(), np.tile(seps, len(block)))
        yield cells[cells != 0].tobytes()
