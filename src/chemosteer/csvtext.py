"""The bytes of CPython's "%.17g" % v for float64 arrays, made with numpy.

A finite |x| in (1e-270, 1e270) is rounded to 17 digits at once: with
e = floor(log10 |x|), its scaled value |x| 10^(16-e) is p + t, p the product
with H = fl(10^(16-e)) and t its exact error (Dekker) plus |x| (10^(16-e) - H);
p + t is within about 1e-15 of the scaled value.  CPython itself formats the
rest one by one: roundings within 1e-6 of a tie (it rounds half-even), scaled
values on a power of ten, |x| outside that range and non-finite values.
Each value fills WIDTH byte columns, NUL where a character is absent, and a
CSV row is such fields side by side with the NULs taken out.
"""

import numpy as np

WIDTH = 44
BLOCK = 2048   # values per block: a few hundred kB of working memory
_DIGITS = slice(6, 39, 2)   # the 17 digit columns; the point slots lie between
_K = range(-260, 300)       # the exponents k = 16 - e the scaling can need
_tables = {}


def _table(name):
    """Powers of ten as double-doubles; digits and trailing zeros of 4-digit groups."""
    if not _tables:
        high = [float(f"1e{k}") for k in _K]
        low = []
        for k, h in zip(_K, high):  # L_k = 10^k - n/d, rounded once from integers
            n, d = h.as_integer_ratio()
            num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
            low.append((num * d - n * den) / (den * d))
        group = np.arange(10000.0)
        digits = np.empty((4, group.size), np.uint8)
        for j in range(4):
            digits[3 - j] = np.floor(group / 10 ** j) - 10 * np.floor(group / 10 ** (j + 1)) + 48
        zeros = np.zeros(group.size)
        for j in range(1, 5):
            zeros += np.where(np.floor(group / 10 ** j) * 10 ** j == group, 1.0, 0.0)
        _tables.update(high=np.array(high), low=np.array(low), digits=digits, zeros=zeros)
    return _tables[name]


def _split(a):
    """Veltkamp's split of a into two 26-bit halves."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, e):
    """p, t with p + t = a 10^(16-e) to about 1e-15."""
    i = (16 - _K.start - e).astype(np.intp)
    h, low = _table("high")[i], _table("low")[i]
    p = a * h
    (ah, al), (hh, hl) = _split(a), _split(h)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * low


def _outside(p, t):
    """-1 where p + t < 1e16, +1 where p + t >= 1e17, else 0."""
    return np.where((p - 1e17) + t >= 0, 1.0, np.where((p - 1e16) + t < 0, -1.0, 0.0))


def _divide(x, unit):
    """floor(x / unit) and the remainder, exact for the integer-valued x here:
    a quotient below 1e4, or x a 17-digit p, a multiple of its ulp, so that a
    quotient just below an integer is too far below it to round up to it."""
    q = np.floor(x / unit)
    return q, x - q * unit


def g17(values, out):
    """Write the %.17g field of each value into the rows of out, (n, WIDTH)
    uint8; returns how many values CPython formatted.  Every integer here is
    an exact float64: numpy's integer loops would be more code to page in
    after the solve, and so more peak memory."""
    x = np.ravel(np.asarray(values, dtype=float))
    a = np.abs(x)
    zero = a == 0
    fast = (a > 1e-270) & (a < 1e270)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a))
    p, t = _scaled(a, e)
    off = _outside(p, t)
    fix = np.flatnonzero(off)
    if fix.size:  # log10 missed the exponent by one: scale again
        e[fix] += off[fix]
        p[fix], t[fix] = _scaled(a[fix], e[fix])
        fast[fix[_outside(p[fix], t[fix]) != 0]] = False
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) > 1e-6   # CPython rounds ties to even
    # the 17 digits q = p + whole + [frac > 1/2] as hi 1e8 + lo, lo < 1e8
    hi, lo = _divide(p, 1e8)
    step, lo = _divide(lo + np.where(frac > 0.5, whole + 1, whole), 1e8)
    hi += step
    carry = hi == 1e9                   # rounded up to 10^17
    hi[carry], e[carry] = 1e8, e[carry] + 1
    hi[zero], lo[zero], e[zero] = 0.0, 0.0, 0.0
    fast |= zero

    lead, mid = _divide(hi, 1e8)
    groups = [*_divide(mid, 1e4), *_divide(lo, 1e4)]
    index = [g.astype(np.intp) for g in groups]
    zeros = _table("zeros")
    trailing = 12 + zeros[index[0]]
    for j in range(1, 4):
        trailing = np.where(groups[j] != 0, 12 - 4 * j + zeros[index[j]], trailing)
    kept = 17 - trailing                # significant digits once zeros are stripped
    table = _table("digits")            # (4, 10000): the 4 digits of each group
    digits = np.empty((17, x.size), np.uint8)   # digit j of every value in row j
    digits[0] = lead + 48
    for j, g in enumerate(index):
        np.take(table, g, axis=1, out=digits[1 + 4 * j:5 + 4 * j])
    fixed = (e >= -4) & (e < 17)
    shown = np.maximum(kept, np.where(fixed, e + 1, 0.0))   # integer digits are never cut
    np.copyto(digits, 0, where=np.arange(17.0)[:, None] >= shown)

    out[:] = 0
    out[:, 0] = np.where(np.signbit(x), 45, 0)
    below = fixed & (e < 0)            # 0.000ddd
    out[:, 1:6] = np.where(below & (e < [[0], [0], [-1], [-2], [-3]]),
                           [[48], [46], [48], [48], [48]], 0).T
    out[:, _DIGITS] = digits.T
    point = np.where(fixed, e, 0.0)
    at = np.flatnonzero((kept > point + 1) & (point >= 0))
    out[at, (7 + 2 * point[at]).astype(np.intp)] = 46
    sci = ~fixed
    mag = np.abs(e)
    exponent = np.take(table, mag.astype(np.intp), axis=1)
    exponent[0] = np.where(e < 0, 45, 43)
    exponent[1] = np.where(mag >= 100, exponent[1], 0)
    out[:, 39] = np.where(sci, 101, 0)
    out[:, 40:44] = np.where(sci, exponent, 0).T

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{WIDTH}")
        out[slow] = text.view(np.uint8).reshape(-1, WIDTH)
    return slow.size


def _padded(texts):
    """The ASCII texts as rows of a NUL-padded uint8 array."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def write_rows(fh, levels, centers, *fields):
    """Write the rows 't,x,a[,b...]' of every level and center, level-major.

    fh is a binary file; each field is (len(levels), len(centers)).  The
    rows of a block of levels, about BLOCK values, are laid out in one
    reused uint8 array and written without its NULs.
    """
    t = _padded(["%.17g," % v for v in np.asarray(levels).tolist()])
    x = _padded(["%.17g," % v for v in np.asarray(centers).tolist()])
    (_, wt), (n, wx) = t.shape, x.shape
    block = min(max(1, BLOCK // n), len(t))
    width = wt + wx + len(fields) * (WIDTH + 1)
    text = bytearray(block * n * width)   # numpy fills it; it translates with no copy
    rows = np.frombuffer(text, np.uint8).reshape(block, n, width)
    rows[:, :, wt:wt + wx] = x
    rows[:, :, wt + wx + WIDTH::WIDTH + 1] = 44
    rows[:, :, -1] = 10
    for start in range(0, len(t), block):
        row = rows[:min(block, len(t) - start)]
        row[:, :, :wt] = t[start:start + block, None]
        for j, f in enumerate(fields):
            col = wt + wx + j * (WIDTH + 1)
            g17(f[start:start + len(row)], row.reshape(-1, width)[:, col:col + WIDTH])
        fh.write((text if len(row) == block else text[:row.size]).translate(None, b"\0"))
