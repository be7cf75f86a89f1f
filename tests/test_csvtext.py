import io
import time
import tracemalloc

import numpy as np
import pytest

from chemosteer import csvtext


def adversarial(rng):
    """About 1.1e6 doubles of both signs that stress a 17-digit formatter."""
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    neighbours = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(2):   # 1 and 2 ulps away
            step = np.nextafter(step, direction)
            neighbours.append(step)
    near = [c + np.arange(-4000.0, 4000.0) for c in (2.0 ** 53, 1e16, 1e17)]
    k_times_ten = (np.arange(1, 1001)[:, None]
                   * np.array([float(f"1e{j}") for j in range(-40, 40)])).ravel()
    dyadic = rng.integers(-2 ** 53, 2 ** 53, 220_000) * 2.0 ** rng.integers(-80, 30, 220_000)
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e-270, 1e270,
             np.nextafter(1e-270, 0), np.nextafter(1e-270, 1), np.nextafter(1e270, 0),
             np.nextafter(1e270, np.inf), 1.7976931348623157e308, np.nan, np.inf]
    x = np.concatenate([
        rng.integers(0, 2 ** 64, 60_000, dtype=np.uint64).view(np.float64),
        *neighbours, *near, k_times_ten, dyadic, edges,
        rng.standard_normal(150_000) * 10.0 ** rng.integers(-30, 30, 150_000),
    ])
    return np.concatenate([x, -x])


def test_g17_equals_cpython_on_adversarial_doubles():
    x = adversarial(np.random.default_rng(20260418))
    assert x.size >= 1_000_000
    start = time.perf_counter()
    fallback = 0
    slots = np.empty((x.size, csvtext.SLOT // 8), np.uint64)
    for rows in np.array_split(np.arange(x.size), 8):
        fallback += csvtext.g17(x[rows], slots[rows[0]:rows[-1] + 1], b"\n")
    got = slots.tobytes().translate(None, b"\0")
    want = [b"%.17g\n" % v for v in x.tolist()]
    elapsed = time.perf_counter() - start
    if got != b"".join(want):
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.splitlines(True), want) if g != w]
        raise AssertionError(f"{len(bad)} mismatches, first {bad[:5]}")
    outside = np.count_nonzero(~((np.abs(x) > 1e-270) & (np.abs(x) < 1e270)))
    print(f"{x.size} values in {elapsed:.2f} s; CPython formatted {fallback / x.size:.2%}, "
          f"{(fallback - outside) / x.size:.2%} inside (1e-270, 1e270), mostly exact ties")


def test_g17_formats_zeros_and_typical_values_itself():
    rng = np.random.default_rng(7)
    x = np.concatenate([[0.0, -0.0, 1.0, -2.5, 1e-5, 0.1, 1.0 / 3.0, 123.0, 1e16, 2.0 ** 60],
                        rng.standard_normal(20_000) * 10.0 ** rng.integers(-250, 12, 20_000)])
    slots = np.empty((x.size, csvtext.SLOT // 8), np.uint64)
    assert csvtext.g17(x, slots, b",") == 0
    assert [bytes(r[r != 0]) for r in slots.view(np.uint8)] == [b"%.17g," % v for v in x.tolist()]


def plain_rows(levels, centers, *fields):
    """The bytes of write_rows, one "%.17g," at a time in plain Python."""
    return b"".join(b"".join(b"%.17g," % v for v in (t, x, *(f[k][i] for f in fields)))[:-1] + b"\n"
                    for k, t in enumerate(levels.tolist()) for i, x in enumerate(centers.tolist()))


# ties CPython rounds half-even, |x| outside (1e-270, 1e270) and non-finite values
FALLBACK = [0.0010004043579101562, -1.0251998901367188e-05, 1e-300, -5e-324, 1e300,
            np.nan, np.inf, -np.inf]
WIDE = [12.5, -123.456, 98765.4321, 1200.0, 123456789012345.67, 99999999999999984.0,
        1e16 + 2.0, 1e-7, -2.5e-200, 1.5e20, 1e22, 0.1, -0.5, 1.0 / 3.0, 1e-4, -1e-5]


def oracle_field(rng, n_levels, n_centers):
    """Whole rows of 0.0 and of -0.0, the values above, and random doubles."""
    shape = (n_levels, n_centers)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape)
    special = np.resize(FALLBACK + WIDE, values.size)
    values.flat[rng.permutation(values.size)[:special.size // 2]] = special[:special.size // 2]
    values[1], values[-2] = 0.0, -0.0
    return values


@pytest.mark.parametrize("block", [csvtext.BLOCK, 8, 4])
@pytest.mark.parametrize("n_fields", [1, 2])
def test_write_rows_equals_a_plain_python_writer(block, n_fields, monkeypatch):
    """The u.csv layout (one field) and the weights.csv layout (two) in one
    block, and across seams: 8 and 4 values cut 15 levels of 4 centers into
    blocks of 2 levels, the last of 1, and into blocks of 1 level."""
    monkeypatch.setattr(csvtext, "BLOCK", block)
    rng = np.random.default_rng(block + n_fields)
    levels, centers = np.linspace(0.0, 2.0, 15), np.array([0.125, 0.375, 1e-9, 12.75])
    fields = [oracle_field(rng, 15, 4) for _ in range(n_fields)]
    fh = io.BytesIO()
    csvtext.write_rows(fh, levels, centers, *fields)
    assert fh.getvalue() == plain_rows(levels, centers, *fields)


def test_oracle_values_reach_cpython_and_the_tables():
    """The FALLBACK values are formatted by CPython, the WIDE ones by g17."""
    slots = np.empty((len(FALLBACK + WIDE), csvtext.SLOT // 8), np.uint64)
    assert csvtext.g17(FALLBACK + WIDE, slots, b"\n") == len(FALLBACK)
    assert slots.tobytes().translate(None, b"\0") == b"".join(
        b"%.17g\n" % v for v in FALLBACK + WIDE)


def test_write_rows_working_memory_is_bounded(tmp_path):
    """A 401 x 200 field, the size of a nonlinear-coupled benchmark field,
    written into a file: the tracemalloc peak reads 1.82 MiB at BLOCK = 8192
    (0.93 MiB at 4096, 3.67 MiB at 16384), after the tables are built."""
    rng = np.random.default_rng(11)
    levels, centers = np.linspace(0.0, 1.0, 401), (np.arange(200) + 0.5) / 200
    field = rng.standard_normal((401, 200)) * 10.0 ** rng.integers(-12, 2, (401, 200))
    with open(tmp_path / "u.csv", "wb") as fh:
        csvtext.write_rows(fh, levels[:2], centers[:2], field[:2, :2])
        tracemalloc.start()
        try:
            csvtext.write_rows(fh, levels, centers, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
