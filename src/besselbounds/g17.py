"""``%.17g`` text of float arrays, byte for byte, a whole array at a time.

``texts(values)`` gives each value's ``b"%.17g" % v`` as one fixed-width
bytes item, NUL-padded anywhere inside it, so removing every NUL byte
(``bytes.translate(None, b"\\0")``) leaves the text.  CSV writers lay such
items out as a byte matrix and compact it once.  ``percent(values, width)``
is ``%`` itself, NUL-padded at the end only; with ``width=TEXT_WIDTH`` it
gives text compact enough for the writers' narrow cells.

The 17 digits of |v| = f * 2**q (``np.frexp``) are N = f * 2**q * 10**(16 - k)
rounded to an integer, for the k that puts N in [10**16, 10**17).  A table
filled on demand holds, for each q, 2**q * 10**(16 - k) for both decades
that q spans, as double-double (hi, lo) pairs made with Python int true
division (correctly rounded), and the threshold on f between the two
decades.  Dekker's exact product f * hi, plus f * lo, gives N's integer and
fractional parts to within about 2**-46.  N splits into a lead digit and
four 4-digit groups, and each group's text is one lookup in a table of
10,000 uint64 entries (4 ASCII digits, each followed by an empty point
place), ORed into the slot; a second table of each group's trailing zeros,
read at the lowest nonzero group, finds the last digit kept.  Both tables
are made on the kernel's first call.  A value whose fraction lies within
TIE_MARGIN of one half (true ties among them), whose integer part falls
outside [10**16, 10**17) or that is not finite is formatted by ``%``
instead, so the result never rests on a tolerance; so is every value of an
array smaller than MIN_KERNEL_VALUES, where the kernel's fixed cost
exceeds ``%``.
"""

import numpy as np

# bytes per text: a sign, the "0.000" of a fixed-point value below 1, 17
# digits each followed by a place for the point, and an exponent "e-324"
WIDTH = 44
# bytes of the longest %.17g text, "-2.2250738585072014e-308"
TEXT_WIDTH = 24
TIE_MARGIN = 2.0 ** -40
# below this many values % is faster than the kernel's fixed cost (the two
# cross near 145 values on a 2-core x86-64 box)
MIN_KERNEL_VALUES = 192
_QOFF = 1075            # frexp exponents of nonzero finite floats: -1073 .. 1024
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter for 53-bit floats
_threshold = np.full(2 * _QOFF, np.nan)     # NaN: q not yet in the table
# per (q, decade): hi, lo, hi's two 26-bit halves, and the decimal exponent k
_scale = np.zeros((5, 4 * _QOFF))
# per index m of the last digit kept: the digits and point places through digit m
_KEEP = ((np.arange(33) <= 2 * np.arange(17)[:, None]) * 0xFF).astype(np.uint8)
# per decimal exponent k, at k + 324: the text's bytes but sign and digits
# (filled with the table), and the digit the point follows (negative: the
# point is in a leading "0.")
_LAYOUT = np.zeros((633, WIDTH), dtype=np.uint8)
_POINT = np.array([k if -4 <= k < 17 else 0 for k in range(-324, 309)], dtype=np.int8)


_GROUPS = None


def _groups():
    """Per 4-digit group value: its ASCII digits, each followed by an empty
    point place, as one uint64 (the slot's bytes in memory order), and its
    number of trailing zeros (4 for 0000).  Made on first use."""
    global _GROUPS
    spaced = np.zeros((10,) * 4 + (8,), dtype=np.uint8)     # indexed by the 4 digits
    zeros, run = np.zeros((10,) * 4, dtype=np.uint8), True
    for i in (3, 2, 1, 0):
        digit = np.arange(10, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
        spaced[..., 2 * i] = digit + ord("0")
        run = run & (digit == 0)
        zeros += run
    _GROUPS = spaced.view(np.uint64).ravel(), zeros.ravel()
    return _GROUPS


def _fill(qi: int) -> None:
    q = qi - _QOFF
    k0 = len(str(2 ** (q - 1))) - 1 if q >= 1 else -len(str(2 ** (1 - q)))
    for k in (k0, k0 + 1):
        # 2**q * 10**(16 - k) as a ratio of ints
        num, den = 2 ** max(q, 0) * 10 ** max(16 - k, 0), 2 ** max(-q, 0) * 10 ** max(k - 16, 0)
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        half = _SPLIT * hi - (_SPLIT * hi - hi)
        _scale[:, 2 * qi + k - k0] = hi, (num * hd - hn * den) / (den * hd), half, hi - half, k
        row, point = _LAYOUT[k + 324], _POINT[k + 324]
        if k < -4 or k >= 17:
            row[39:39 + len(b"e%+03d" % k)] = list(b"e%+03d" % k)
        elif k < 0:
            row[1:2 - k] = list(b"0." + b"0" * (-k - 1))
        if 0 <= point < 16:
            row[7 + 2 * point] = ord(".")
    # the f at which |v| reaches 10**(k0 + 1): 10**16 / (2**q * 10**(15 - k0))
    _threshold[qi] = 10 ** 16 * den / num


def percent(values: np.ndarray, width: int = WIDTH) -> np.ndarray:
    """The %.17g text of each value of a float array by ``%`` itself, as an
    array of its shape with dtype S{width}, NUL-padded at the end only (any
    width from TEXT_WIDTH up holds every text)."""
    texts = [b"%.17g" % v for v in values.ravel().tolist()]
    return np.array(texts, dtype="S%d" % width).reshape(values.shape)


def texts(values) -> np.ndarray:
    """The %.17g text of each value, as an array of the values' shape with
    dtype S{WIDTH}: NUL-padded anywhere, not only at the end."""
    v = np.asarray(values, dtype=float)
    if v.size < MIN_KERNEL_VALUES:
        return percent(v)
    v = v.ravel()
    zero, ok = v == 0, np.isfinite(v)
    f, qi = np.frexp(np.where(ok & ~zero, np.abs(v), 1.0))     # zero: 1's layout
    qi += _QOFF
    for new in set(qi[np.isnan(_threshold.take(qi))].tolist()):
        _fill(new)
    j = 2 * qi + (f >= _threshold.take(qi))
    del qi
    # rows of _scale are taken where they are used, so that few
    # value-sized arrays are live at once
    p = f * _scale[0].take(j)
    fh = _SPLIT * f - (_SPLIT * f - f)
    fl = f - fh
    hh, hl = _scale[2].take(j), _scale[3].take(j)
    frac = fh * hh - p + fh * hl + fl * hh + fl * hl + f * _scale[1].take(j)
    del fh, fl, hh, hl
    whole = np.floor(frac)
    frac -= whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    ok &= (np.abs(frac - 0.5) >= TIE_MARGIN) & (n >= 10 ** 16)
    n += frac > 0.5
    ok &= n < 10 ** 17
    k = _scale[4].take(j).astype(np.int64) + 324
    del j, f, p, whole, frac
    out = _LAYOUT.take(k, axis=0)
    point = _POINT.take(k)
    del k
    n[zero | ~ok] = 0       # zero's digits, and valid table indices where % formats
    lead, n = np.divmod(n, 10 ** 16)
    out[:, 6] = lead + ord("0")
    high, low = (part.astype(np.uint32) for part in np.divmod(n, 10 ** 8))
    del lead, n
    groups = np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)
    del high, low
    digits, zeros = _GROUPS or _groups()
    words = out[:, 8:40].view(np.uint64)    # digits 1-16 with their point places
    for col, group in enumerate(groups):
        words[:, col] |= digits.take(group)
    # the last nonzero digit, from the trailing zeros of the lowest nonzero group
    trailing = zeros.take(groups[0])
    for group in groups[1:]:
        trailing = zeros.take(group) + (group == 0) * trailing
    del groups, group
    last = 16 - trailing
    out[:, 0] = np.signbit(v) * ord("-")
    # trailing zeros after the point go, and the point too if no digit follows
    out[:, 6:39] &= _KEEP.take(np.maximum(last, point), axis=0)
    out = out.view("S%d" % WIDTH)[:, 0]
    out[~ok] = percent(v[~ok])
    return out.reshape(np.shape(values))
