"""``float.__repr__`` of every value of a float64 array, by array operations.

The shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) in A. Bolz's form: a 128-bit
power-of-ten multiplier ``g``, and products rounded to odd, of which the
middle 64-bit limb only counts as a sticky bit.  The three products of a
value (its rounding interval's lower end, itself, its upper end) differ by
``g`` shifted, so one product is formed from 32-bit limbs, whose columns fit
``uint64`` unnormalized, and the other two by adding shifted copies of ``g``
before the carries run.  Everything that depends only on a value's binary
exponent (the multiplier, the shifts, the decimal exponent) is one row of a
table, and everything that depends only on the digit count, decimal point
and sign is one row of a layout table, which picks each output byte from
the value's digits, its exponent text and a few constant bytes.

Every constant that meets a ``uint64`` array is an ``np.uint64``: under
numpy 1.x a ``uint64`` scalar with a Python int promotes to float64.
NaN, infinities and zeros keep their per-value text.  The tables are built
when this module is imported, which the CSV writer does on its first
table large enough to use it.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_STICKY2 = _U(0xFFFFFFFE)  # limb 2 of a product without bit 64
_SIGNIFICAND = _U((1 << 52) - 1)
_EXPONENT = _U(0x7FF)
#: added to a decimal exponent or point so that a table index is never negative
_OFFSET = 400


def _multipliers() -> np.ndarray:
    """At ``m + 292`` for ``m`` in [-292, 324]: the four 32-bit limbs, least
    significant first, of ``floor(10^m 2^(127 - floor(log2 10^m))) + 1``,
    which has 128 bits, the top one set."""
    limbs = []
    for m in range(-292, 325):
        p = 10 ** abs(m)
        if m >= 0:
            shift = 127 - (p.bit_length() - 1)
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:  # 10^m is 2^-bits(p) times a fraction, as p is no power of 2
            g = (1 << (127 + p.bit_length())) // p + 1
        limbs.append([g >> 32 * j & 0xFFFFFFFF for j in range(4)])
    return np.array(limbs, dtype=np.uint64)


def _shifted(g: np.ndarray, shift: np.ndarray) -> list[np.ndarray]:
    """The five 32-bit limbs of ``g << shift``, ``g`` in four limbs and
    ``shift`` in [1, 31]."""
    g, shift = [*g.T, np.zeros(len(g), dtype=np.uint64)], shift.astype(np.uint64)
    return [(g[j] << shift) & _MASK32 | (g[j - 1] >> (_U(32) - shift) if j else _U(0))
            for j in range(5)]


def _exponent_rows() -> np.ndarray:
    """Per binary exponent field and closer lower boundary (a power of two
    above the least normal), at ``field + 2048 * closer``: the multiplier's
    four limbs, the hidden bit, the shift ``h`` of the interval ends, their
    offset below the value, the limbs of that offset times ``g`` and of the
    interval's width times ``g``, and the decimal exponent ``k`` plus
    ``_OFFSET``."""
    field = np.tile(np.arange(2048, dtype=np.int64), 2)
    closer = np.repeat(np.arange(2, dtype=np.int64), 2048)
    q = np.maximum(field, 1) - 1075
    k = (q * 1262611 - 524031 * closer) >> 22  # floor(log10(2^q)), or of 3/4 2^q
    h = q + ((-k * 1741647) >> 19) + 1  # + floor(log2(10^-k)); in [1, 4]
    g = _multipliers()[292 - k]
    lower = 2 - closer
    return np.array([*g.T, (field != 0) << 52, h, lower, *_shifted(g, h + 1 - closer),
                     *_shifted(g, h + 1), k + _OFFSET], dtype=np.uint64)


(_G0, _G1, _G2, _G3, _HIDDEN, _H, _LOWER, _L0, _L1, _L2, _L3, _L4,
 _W0, _W1, _W2, _W3, _W4, _K) = _exponent_rows()

#: 10 to 10^17, and 10^(17 - n) at n
_POWERS = np.array([10**j for j in range(1, 18)], dtype=np.uint64)
_SCALE = np.array([10 ** max(17 - n, 0) for n in range(18)], dtype=np.uint64)

_GROUP = np.arange(10000)
#: the ASCII of 0000-9999 as four bytes each
_GROUPS = (_GROUP[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_GROUPS = _GROUPS.view(np.uint32)[:, 0]

#: the 32 bytes a value's text picks from: its 17 significant digits at
#: 3-19 (five groups from _GROUPS), its exponent text at 20-27 and these
#: constant bytes at 28-31
_DOT, _MINUS, _ZERO, _PAD = 28, 29, 30, 31
_CONSTANTS = np.frombuffer(b".-0 ", dtype=np.uint32)[0]
_WIDTH = 25  # the longest text (24 bytes, "-1.2345678901234567e-308") and a pad

#: at g in 1-9999: 22 times the place, 1 to 4, of its last nonzero digit in
#: "%04d"; 0 at 0
_LAST = np.where(_GROUP > 0, 22 * (4 - sum(_GROUP % 10**j == 0 for j in (1, 2, 3))),
                 0).astype(np.uint64)


def _exponent_texts() -> tuple[np.ndarray, np.ndarray]:
    """At a decimal point ``dp`` plus ``_OFFSET``: the exponent text of
    ``e = dp - 1`` in 8 bytes, as two rows of four, and the layout form:
    ``dp + 3`` for a positional text (``-3 <= dp <= 16``), 20 or 21 for a
    two- or three-digit exponent."""
    texts, forms = [], []
    for dp in range(-_OFFSET, _OFFSET):
        e = dp - 1
        texts.append(b"e%+03d" % e if -1000 < e < 1000 else b"")
        forms.append(dp + 3 if -3 <= dp <= 16 else 20 + (abs(e) >= 100))
    text = np.frombuffer(b"".join(t.ljust(8, b" ") for t in texts), dtype=np.uint32)
    return np.ascontiguousarray(text.reshape(-1, 2).T), np.array(forms, dtype=np.uint64)


(_EXPONENT_A, _EXPONENT_B), _FORM = _exponent_texts()
#: the values laid out by one gather, whose indices take 200 bytes a value
#: and whose text 25
_BLOCK = 512


def _layouts() -> np.ndarray:
    """At ``374 * negative + 22 * (n - 1) + form``: the row bytes of a text
    with ``n`` significant digits, padded to ``_WIDTH``."""
    table = np.full((2, 17, 22, _WIDTH), _PAD, dtype=np.uint8)
    for negative in (0, 1):
        for n in range(1, 18):
            digits = list(range(3, 3 + n))
            for form in range(22):
                if form >= 20:
                    fraction = [_DOT, *digits[1:]] if n > 1 else []
                    body = [digits[0], *fraction, *range(20, 24 + (form == 21))]
                else:
                    dp = form - 3
                    if dp <= 0:
                        body = [_ZERO, _DOT, *[_ZERO] * -dp, *digits]
                    elif dp < n:
                        body = [*digits[:dp], _DOT, *digits[dp:]]
                    else:
                        body = [*digits, *[_ZERO] * (dp - n), _DOT, _ZERO]
                body = [_MINUS] * negative + body
                table[negative, n - 1, form, :len(body)] = body
    return table.reshape(-1, _WIDTH).astype(np.intp)


_LAYOUT = _layouts()
_LAYOUT_FIELD, _LAYOUT_BYTE = _LAYOUT // 4, _LAYOUT % 4


def _round_to_odd(m: list[np.ndarray]) -> np.ndarray:
    """``floor(P / 2^128)``, its last bit set where bits 65-127 of ``P`` are
    not all zero; ``P`` in unnormalized 32-bit columns ``m``."""
    m0, m1, m2, m3, m4 = m
    s1 = m1 + (m0 >> _U(32))
    s2 = m2 + (s1 >> _U(32))
    s3 = m3 + (s2 >> _U(32))
    top = m4 + (s3 >> _U(32))
    return top | (((s3 << _U(32)) | (s2 & _STICKY2)) != 0)


def float_reprs(values: np.ndarray) -> list[str]:
    """``[float.__repr__(v) for v in values.tolist()]`` for a float64 array.

    Each array is dropped once used, so that the temporaries fit the memory
    the heap already holds: fresh pages cost more than the arithmetic.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    special = ~np.isfinite(values) | (values == 0.0)
    bits = np.where(special, 1.0, values).view(np.uint64)
    t = bits & _SIGNIFICAND
    field = (bits >> _U(52)) & _EXPONENT
    row = field + ((t == 0) & (field > 1)) * _U(2048)  # the exponent's table row
    del field
    c = t | _HIDDEN.take(row)
    del t
    # the lower end's product, g (4c - lower) << h, in 32-bit columns: column
    # j holds the low half of g_j cp0 and the high half of g_(j-1) cp0 and
    # g_(j-1) cp1, below 2^60, with cp = cp1 2^32 + cp0 and cp1 below 2^27
    cp = ((c << _U(2)) - _LOWER.take(row)) << _H.take(row)
    cp0, cp1 = cp & _MASK32, cp >> _U(32)
    del cp
    m, carry = [], _U(0)
    for table in (_G0, _G1, _G2, _G3):
        g = table.take(row)
        product = g * cp0
        m.append((product & _MASK32) + carry)
        carry = (product >> _U(32)) + g * cp1
    m.append(carry)
    del g, product, carry, cp0, cp1
    vbl = _round_to_odd(m)
    for j, table in enumerate((_L0, _L1, _L2, _L3, _L4)):
        m[j] += table.take(row)
    vb = _round_to_odd(m)
    for j, table in enumerate((_W0, _W1, _W2, _W3, _W4)):
        m[j] += table.take(row)
    vbr = _round_to_odd(m)
    del m

    # Schubfach's choice: one digit fewer where exactly one of its two
    # candidates lies in the interval, else the nearer of s and s + 1
    odd = c & _U(1)
    low, high = vbl + odd, vbr - odd
    del c, odd, vbl, vbr
    s = vb >> _U(2)
    sp = s // _U(10)
    up_in = low <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= high
    shorter = (up_in != wp_in) & (s >= _U(10))
    four_s = s << _U(2)
    u_in = low <= four_s
    w_in = four_s + _U(4) <= high
    mid = four_s + _U(2)
    nearest = (vb > mid) | ((vb == mid) & (s & _U(1) == 1))
    d = np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, nearest))
    del s, sp, up_in, four_s, u_in, w_in, mid, nearest, low, high, vb

    # the digits, left-aligned to 17, in five groups: 1 and 4 x 4 digits;
    # the text's layout from its sign, its decimal point and the place of
    # its last nonzero digit, in the last nonzero group
    count = np.searchsorted(_POWERS, d, side="right") + 1
    point = _K.take(row) + shorter + count.astype(np.uint64)  # plus _OFFSET
    del row, shorter
    d *= _SCALE.take(count)
    high9 = d // _U(10**8)
    low8 = d - high9 * _U(10**8)
    g0 = high9 // _U(10**8)
    rest8 = high9 - g0 * _U(10**8)
    g1 = rest8 // _U(10**4)
    g2 = rest8 - g1 * _U(10**4)
    g3 = low8 // _U(10**4)
    g4 = low8 - g3 * _U(10**4)
    del d, high9, low8, rest8
    last = np.where(g4 != 0, g4, np.where(g3 != 0, g3, np.where(g2 != 0, g2, g1)))
    base = np.where(g4 != 0, _U(22 * 12), np.where(g3 != 0, _U(22 * 8), np.where(
        g2 != 0, _U(22 * 4), _U(0))))
    key = base + _LAST.take(last) + _FORM.take(point) + (bits >> _U(63)) * _U(374)
    del last, base

    # the bytes a text picks from: each value's four-byte fields, a field's
    # values in a row of their own
    n = len(values)
    source = np.empty((8, n), dtype=np.uint32)
    for j, group in enumerate((g0, g1, g2, g3, g4)):
        _GROUPS.take(group, out=source[j])
    _EXPONENT_A.take(point, out=source[5])
    _EXPONENT_B.take(point, out=source[6])
    source[7] = _CONSTANTS
    del g0, g1, g2, g3, g4, point
    layout = _LAYOUT_FIELD * (4 * n) + _LAYOUT_BYTE
    flat = source.reshape(-1).view(np.uint8)
    texts = []
    for start in range(0, n, _BLOCK):
        end = min(start + _BLOCK, n)
        offsets = layout.take(key[start:end], axis=0)
        offsets += np.arange(4 * start, 4 * end, 4)[:, None]
        texts += str(flat.take(offsets), "ascii").split()
    for i in np.flatnonzero(special).tolist():
        texts[i] = float.__repr__(values[i].item())
    return texts
