"""The bytes of CPython's "%.17g" % v for float64 arrays, made with numpy.

A finite |x| in (1e-270, 1e270) is rounded to 17 digits at once: with
e = floor(log10 |x|), its scaled value |x| 10^(16-e) is p + t, p the product
with H = fl(10^(16-e)) and t its exact error (Dekker) plus |x| (10^(16-e) - H);
p + t is within about 1e-15 of the scaled value.  CPython itself formats the
rest one by one: roundings within 1e-6 of a tie (it rounds half-even), scaled
values on a power of ten, |x| outside that range and non-finite values.
Each value fills a slot of SLOT bytes, its separator last, as whole words read
from tables: a head (sign, "0." to "0.000", the lead digit, a point), four
groups of 4 digits cut after the last digit shown, and an exponent.  NUL fills
the rest, and a CSV row is its t and x and such slots with the NULs taken out.
"""

import functools

import numpy as np

SLOT = 32      # bytes of a value: at most 24 of text, then its separator
BLOCK = 8192   # values per block: about 1.8 MiB of working memory
_E = range(-290, 290)   # the exponents e the tables cover; |x| < 1e270 needs +-271


def _words(texts):
    """The texts, of at most 8 bytes, as NUL-padded uint64 words."""
    return np.array(texts, dtype="S8").view(np.uint64)


def _rest(e, h):
    """10^(16-e) - h, h = fl(10^(16-e)), rounded once from integers."""
    n, d = h.as_integer_ratio()
    num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
    return (num * d - n * den) / (den * d)


# Tables over the exponents e: the powers 10^(16-e) as double-doubles, the head
# layout and the exponent; over the 4-digit groups: their words, their words with
# the trailing zeros cut, and how many zeros; and the head words.
_HIGH = np.array([float(f"1e{16 - e}") for e in _E])
_LOW = np.array([_rest(e, h) for e, h in zip(_E, _HIGH.tolist())])
# head layouts: d. (e = 0 and %e), d (e >= 1), 0.d, 0.0d, 0.00d, 0.000d
_KIND = np.array([10 * (1 if 1 <= e < 17 else 1 - e if -4 <= e < 0 else 0) for e in _E])
_INTS = np.array([float(e) if k == 10 else 0.0 for e, k in zip(_E, _KIND.tolist())])
_EXPONENT = {sep: _words([(b"e%+03d" % e if e < -4 or e >= 17 else b"").ljust(7, b"\0") + sep
                          for e in _E]) for sep in (b",", b"\n")}   # the separator last
# float64 only: a numpy loop first used after the solve pages in its code
_group = np.arange(10000.0)
_text = np.empty((4, _group.size), np.uint8)   # digit j of each group in row j
_ZEROS = np.zeros(_group.size)
for _j in range(4):
    _text[3 - _j] = np.floor(_group / 10 ** _j) - 10 * np.floor(_group / 10 ** (_j + 1)) + 48
    _ZEROS += np.where(np.floor(_group / 10 ** (_j + 1)) * 10 ** (_j + 1) == _group, 1.0, 0.0)
_text = _text.T.copy()
_last = _text.copy()
np.copyto(_last, 0, where=np.arange(4.0) >= 4 - _ZEROS[:, None])
_DIGITS, _LAST = _text.view(np.uint32)[:, 0], _last.view(np.uint32)[:, 0]
_HEAD = _words([b"-"[:sign] + [b"", b"", b"0.", b"0.0", b"0.00", b"0.000"][k] + b"%d" % d
                + b"."[:more and k == 0] for more in (1, 0) for sign in (0, 1)
                for k in range(6) for d in range(10)])
del _group, _text, _last, _j


def _split(a):
    """Veltkamp's split of a into two 26-bit halves."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, i):
    """p, t with p + t = a 10^(16-e) to about 1e-15; i indexes e in _E."""
    h, low = _HIGH[i], _LOW[i]
    p = a * h
    (ah, al), (hh, hl) = _split(a), _split(h)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * low


def _divide(x, unit):
    """floor(x / unit) and the remainder, exact for the integer-valued x here:
    a quotient below 1e4, or x a 17-digit p, a multiple of its ulp, so that a
    quotient just below an integer is too far below it to round up to it."""
    q = np.floor(x / unit)
    return q, x - q * unit


def _outside(p, t):
    """Where p + t < 1e16 or p + t >= 1e17."""
    return ((p - 1e17) + t >= 0) | ((p - 1e16) + t < 0)


def g17(values, slots, sep=b","):
    """Write the %.17g text of each value into the rows of slots, (n, SLOT // 8)
    uint64, and sep ("," or "\\n") last; returns how many values CPython
    formatted.  Zeros are written as they are; only the rest is formatted."""
    x = np.ravel(np.asarray(values, dtype=float))
    nonzero = x != 0
    if not nonzero.all():
        zero, negative = _words([b"0", b"-0"])
        slots[:, 0] = np.where(np.signbit(x), negative, zero)
        slots[:, 1:3] = 0
        slots[:, 3] = _EXPONENT[sep][-_E.start]   # e = 0: the separator alone
        at = np.flatnonzero(nonzero)
        part = np.empty((at.size, SLOT // 8), np.uint64)
        slow = g17(x[at], part, sep)
        slots[at] = part
        return slow
    a = np.abs(x)
    fast = (a > 1e-270) & (a < 1e270)
    if not fast.all():
        a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _E.start
    p, t = _scaled(a, i)
    fix = np.flatnonzero(_outside(p, t))
    if fix.size:  # log10 missed the exponent by one: scale again
        i[fix] += np.where((p[fix] - 1e17) + t[fix] >= 0, 1, -1)
        p[fix], t[fix] = _scaled(a[fix], i[fix])
        fast[fix[_outside(p[fix], t[fix])]] = False
    near = np.rint(t)
    fast &= 0.5 - np.abs(t - near) > 1e-6   # CPython rounds ties to even
    # the 17 digits p + near as hi 1e8 + lo, lo < 1e8
    hi, lo = _divide(p, 1e8)
    step, lo = _divide(lo + near, 1e8)
    hi += step
    carry = np.flatnonzero(hi == 1e9)   # rounded up to 10^17
    hi[carry], i[carry] = 1e8, i[carry] + 1
    lead, mid = _divide(hi, 1e8)   # the lead digit, then four 4-digit groups
    groups = np.array([lead, *_divide(mid, 1e4), *_divide(lo, 1e4)], np.intp)

    kind = _KIND[i]
    head = kind + groups[0]
    head += np.where(np.signbit(x), 60, 0)
    slots[:, 0] = _HEAD[head]
    slots[:, 3] = _EXPONENT[sep][i]
    half = slots.view(np.uint32)
    for j in range(3):
        half[:, 2 + j] = _DIGITS[groups[1 + j]]
    half[:, 5] = _LAST[groups[4]]   # its trailing zeros cut
    # the zeros reach into the other groups, or e >= 1 puts the point after digit e + 1
    ints = _INTS[i]
    at = np.flatnonzero((_ZEROS[groups[4]] == 4) | (ints > 0))
    if at.size:
        g = groups[1:, at]
        zeros = _ZEROS[g]   # 4 for a group of zeros
        trailing = zeros[0]
        for j in range(1, 4):
            trailing = zeros[j] + np.where(zeros[j] == 4, trailing, 0.0)
        kept = 16 - trailing   # digits after the lead once the trailing zeros are cut
        e = ints[at]   # integer digits after the lead
        text = _DIGITS[g.T].view(np.uint8).reshape(-1, 16)
        np.copyto(text, 0, where=np.arange(16.0) >= np.maximum(kept, e)[:, None])
        half[at, 2:6] = text.view(np.uint32)
        bare = at[kept == 0]   # no digit after the lead: no point after it
        slots[bare, 0] = _HEAD[head[bare] + 120]
        point = (e > 0) & (kept > e)
        at, e = at[point], e[point, None]
        if at.size:
            text = slots.view(np.uint8)[at, 8:25]   # the digits and a spare byte
            column = np.arange(17.0)
            moved = np.zeros_like(text)
            moved[:, 1:] = text[:, :-1]
            np.copyto(moved, text, where=column < e)
            moved[column == e] = 46
            slots.view(np.uint8)[at, 8:25] = moved

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{SLOT - 1}")
        slots.view(np.uint8)[slow, :-1] = text.view(np.uint8).reshape(-1, SLOT - 1)
    return slow.size


def _padded(texts):
    """The ASCII texts as rows of a NUL-padded uint8 array."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


@functools.lru_cache(maxsize=4)
def _column(raw):
    """The "%.17g," texts of the float64 values in the bytes raw, as read-only
    _padded rows: a command writes the same t and x columns into several files."""
    text = _padded(["%.17g," % v for v in np.frombuffer(raw).tolist()])
    text.flags.writeable = False
    return text


def write_rows(fh, levels, centers, *fields):
    """Write the rows 't,x,a[,b...]' of every level and center, level-major.

    fh is a binary file; each field is (len(levels), len(centers)).  The
    rows of a block of levels, about BLOCK values, are laid out in one
    reused array, each value in an 8-byte aligned slot, and written without
    its NULs.
    """
    t, x = (_column(np.asarray(v, dtype=float).tobytes()) for v in (levels, centers))
    (_, wt), (n, wx) = t.shape, x.shape
    block = min(max(1, BLOCK // n), len(t))
    lead = -(-(wt + wx) // 8) * 8   # t and x, padded to whole words
    width = lead + SLOT * len(fields)
    text = bytearray(block * n * width)   # numpy fills it; it translates with no copy
    rows = np.frombuffer(text, np.uint8).reshape(block, n, width)
    rows[:, :, wt:wt + wx] = x
    words = rows.view(np.uint64)
    for start in range(0, len(t), block):
        row = rows[:min(block, len(t) - start)]
        row[:, :, :wt] = t[start:start + block, None]
        slots = words[:len(row)].reshape(-1, width // 8)
        for j, f in enumerate(fields):
            col = (lead + j * SLOT) // 8
            g17(f[start:start + len(row)], slots[:, col:col + SLOT // 8],
                b"\n" if j == len(fields) - 1 else b",")
        fh.write((text if len(row) == block else text[:row.size]).translate(None, b"\0"))
