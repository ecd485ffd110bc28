"""Benchmark the numba kernels against their pure-numpy fallbacks.

Runs each hot kernel on workload-sized inputs through both paths and prints
a timing table. Before timing, each numpy path is checked against the
plain-Python reference loop (`_*_loops`, the numba body) on a slice small
enough for the interpreter: bit-exact for the lattice and the double well,
within 1e-12 for patch entropy, rotor and ESN.

    python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from metrilab import kernels as K

GEN = np.random.default_rng(0)


def timeit(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_ca_step(repeats):
    E = np.zeros((256, 256), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    r2 = ((ii - 128) / 40.0) ** 2 + ((jj - 128) / 28.0) ** 2
    E[r2 < 1] = (300 * (1 - r2[r2 < 1])).astype(np.int64)
    part = np.ascontiguousarray(E[96:160, 96:160])
    a = K._ca_step_loops(part, np.int64(8), K.MOORE_OFFSETS)
    b = K._ca_step_numpy(part, 8, K.MOORE_OFFSETS)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    return ("ca_step 256x256",
            timeit(lambda: K._ca_step_impl(E, np.int64(8), K.MOORE_OFFSETS), repeats),
            timeit(lambda: K._ca_step_numpy(E, 8, K.MOORE_OFFSETS), repeats))


def bench_patch_entropy(repeats):
    E = GEN.integers(0, 300, size=(256, 256)).astype(np.int64)
    part = np.ascontiguousarray(E[:64, :64])
    a = K._patch_entropy_loops(part, np.int64(8), np.int64(4), np.int64(128), np.int64(300))
    b = K._patch_entropy_numpy(part, 8, 4, 128, 300)
    assert np.allclose(a, b, atol=1e-12)
    return ("patch_entropy 256x256",
            timeit(lambda: K._patch_entropy_impl(E, np.int64(8), np.int64(4), np.int64(128), np.int64(300)), repeats),
            timeit(lambda: K._patch_entropy_numpy(E, 8, 4, 128, 300), repeats))


def bench_doublewell(repeats):
    trials, steps = 1000, 2000
    p0 = GEN.standard_normal(trials) - 1.0
    cs = np.linspace(-2, 2, steps + 1)
    noise = 0.03 * GEN.standard_normal((steps, trials))
    # bit-exact against the plain-Python loop, on a slice it runs in a second
    ref = K._doublewell_chunk_loops(p0.copy(), np.zeros(trials), cs[:21], noise[:20], 1.0, 2.0, 1.0, 1.0, 0.002)
    got = K._doublewell_chunk_numpy(p0.copy(), np.zeros(trials), cs[:21], noise[:20], 1.0, 2.0, 1.0, 1.0, 0.002)
    assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])
    return ("doublewell 1000x2000",
            timeit(lambda: K._doublewell_chunk_impl(p0.copy(), np.zeros(trials), cs, noise, 1.0, 2.0, 1.0, 1.0, 0.002), repeats),
            timeit(lambda: K._doublewell_chunk_numpy(p0.copy(), np.zeros(trials), cs, noise, 1.0, 2.0, 1.0, 1.0, 0.002), repeats))


def bench_rotor(repeats):
    dim, steps = 300, 4000
    x0 = GEN.standard_normal(dim)
    x0 /= np.linalg.norm(x0)
    om = GEN.uniform(2, 40, dim // 2)
    cw, sw = np.cos(om * 0.1), np.sin(om * 0.1)
    bv = GEN.standard_normal(dim)
    u = GEN.standard_normal(steps)
    nz = 0.01 * GEN.standard_normal((steps, dim))
    sa = np.empty((steps, dim))
    sb = np.empty((steps, dim))
    K._rotor_chunk_loops(x0.copy(), cw, sw, 0.1, bv, u[:50], nz[:50], 0.1, sa[:50])
    K._rotor_chunk_numpy(x0.copy(), cw, sw, 0.1, bv, u[:50], nz[:50], 0.1, sb[:50])
    assert np.allclose(sa[:50], sb[:50], atol=1e-12)
    return ("rotor 300x4000",
            timeit(lambda: K._rotor_chunk_impl(x0.copy(), cw, sw, 0.1, bv, u, nz, 0.1, sa), repeats),
            timeit(lambda: K._rotor_chunk_numpy(x0.copy(), cw, sw, 0.1, bv, u, nz, 0.1, sb), repeats))


def bench_esn(repeats):
    n, steps = 200, 2200
    W = GEN.uniform(-1, 1, (n, n)) / n
    win = GEN.uniform(-0.2, 0.2, n)
    y = GEN.standard_normal(steps)
    nz = 0.03 * GEN.standard_normal((steps, n))
    sa = np.empty((steps, n))
    sb = np.empty((steps, n))
    K._esn_collect_loops(np.ascontiguousarray(W), win, y[:20], 0.3, nz[:20], sa[:20])
    K._esn_collect_numpy(W, win, y[:20], 0.3, nz[:20], sb[:20])
    assert np.allclose(sa[:20], sb[:20], atol=1e-12)
    return ("esn 200x2200",
            timeit(lambda: K._esn_collect_impl(np.ascontiguousarray(W), win, y, 0.3, nz, sa), repeats),
            timeit(lambda: K._esn_collect_numpy(W, win, y, 0.3, nz, sb), repeats))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    if not K.HAS_NUMBA:
        print("numba not importable: the jit column will equal the numpy fallback")
    elif not K.USE_NUMBA:
        print("METRILAB_NO_NUMBA is set: the jit column runs the numpy path")

    rows = [bench(args.repeats) for bench in
            (bench_ca_step, bench_patch_entropy, bench_doublewell, bench_rotor, bench_esn)]
    width = max(len(r[0]) for r in rows)
    print(f"\n{'kernel':<{width}}  {'jit (ms)':>10}  {'numpy (ms)':>10}  {'speedup':>8}")
    for name, t_jit, t_np in rows:
        print(f"{name:<{width}}  {1e3 * t_jit:>10.2f}  {1e3 * t_np:>10.2f}  {t_np / t_jit:>8.1f}x")


if __name__ == "__main__":
    main()
