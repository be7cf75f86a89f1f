import time

import numpy as np

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
    field = np.empty((x.size, csvtext.WIDTH + 1), np.uint8)
    for rows in np.array_split(np.arange(x.size), 8):
        fallback += csvtext.g17(x[rows], field[rows[0]:rows[-1] + 1, :-1])
    field[:, -1] = 10
    got = field.tobytes().translate(None, b"\0")
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
    field = np.empty((x.size, csvtext.WIDTH), np.uint8)
    assert csvtext.g17(x, field) == 0
    assert [bytes(r[r != 0]) for r in field] == [b"%.17g" % v for v in x.tolist()]
