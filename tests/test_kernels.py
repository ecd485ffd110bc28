"""Each public kernel against its reference loop, run as plain Python: the
lattice step and the double well must agree bit-exactly; patch entropy, rotor
and ESN within 1e-12. Besides a small input, each agreement test runs a slice
shaped like the workload that calls the kernel, small enough for the
interpreter."""

import numpy as np

from metrilab import kernels as K


def random_grid(gen, h=24, w=24, hi=300):
    E = gen.integers(0, hi, size=(h, w)).astype(np.int64)
    E[0, :] = E[-1, :] = E[:, 0] = E[:, -1] = 0
    return E


def blob_slice():
    # the middle 64x64 of a 256x256 elliptical blob capped at 300, as exp4
    # starts from; the cut runs through the long axis, so energy sits on the
    # slice's top and bottom rows
    ii, jj = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    r2 = ((ii - 128) / 40.0) ** 2 + ((jj - 128) / 28.0) ** 2
    E = np.zeros((256, 256), dtype=np.int64)
    E[r2 < 1] = (300 * (1 - r2[r2 < 1])).astype(np.int64)
    return np.ascontiguousarray(E[96:160, 96:160])


def test_ca_step_paths_agree_and_conserve():
    gen = np.random.default_rng(0)
    grids = [random_grid(gen) for _ in range(10)] + [blob_slice()]
    assert grids[-1][0].any() and grids[-1][-1].any()
    for E in grids:
        for Kdiv in (1, 4, 8):
            a_new, a_fl = K._ca_step_loops(E, np.int64(Kdiv), K.MOORE_OFFSETS)
            b_new, b_fl = K.ca_step(E, Kdiv)
            assert a_new.sum() == E.sum() == b_new.sum()
            assert np.array_equal(a_new, b_new)
            assert np.array_equal(a_fl, b_fl)
            assert np.all(a_new >= 0)


def test_patch_entropy_paths_agree():
    gen = np.random.default_rng(1)
    small = gen.integers(0, 200, size=(40, 40)).astype(np.int64)
    exp4_slice = gen.integers(0, 300, size=(64, 64)).astype(np.int64)
    for E, emax, grid in ((small, 250, (9, 9)), (exp4_slice, 300, (15, 15))):
        a = K._patch_entropy_loops(E, np.int64(8), np.int64(4), np.int64(128), np.int64(emax))
        b = K.patch_entropy(E, 8, 4, 128, emax)
        assert a.shape == grid
        assert np.allclose(a, b, atol=1e-12)


def test_patch_entropy_uniform_patch_is_zero():
    E = np.full((16, 16), 7, dtype=np.int64)
    h = K.patch_entropy(E, 8, 4, 128, 10)
    assert np.allclose(h, 0.0)


def test_doublewell_paths_agree():
    # the kernel runs the loop's operations in the loop's order, so the
    # plain-Python loop is a bit-exact oracle; the ensemble starts in the
    # negative well and crosses the barrier under a sine tilt
    gen = np.random.default_rng(2)
    trials, steps = 40, 600
    p = -1.4 + 0.05 * gen.standard_normal(trials)
    cs = 2.0 * np.sin(np.pi * np.arange(steps + 1) / steps - np.pi / 2.0)
    noise = 0.06 * gen.standard_normal((steps, trials))
    args = (cs, noise, 1.0, 2.0, 1.0, 1.0, 0.01)
    p_in = p.copy()
    pa, wa = K._doublewell_chunk_loops(p.copy(), np.zeros(trials), *args)
    pb, wb = K.doublewell_chunk(p, np.zeros(trials), *args)
    assert (pa > 0).mean() > 0.5  # the barrier was crossed
    assert np.array_equal(pa, pb)
    assert np.array_equal(wa, wb)
    assert np.array_equal(p, p_in)  # caller's state untouched
    # 1000 trials over 20 steps: the width of the bitflip and erasure ensembles
    trials, steps = 1000, 20
    p = gen.standard_normal(trials) - 1.0
    args = (np.linspace(-2, 2, steps + 1), 0.03 * gen.standard_normal((steps, trials)),
            1.0, 2.0, 1.0, 1.0, 0.002)
    pa, wa = K._doublewell_chunk_loops(p.copy(), np.zeros(trials), *args)
    pb, wb = K.doublewell_chunk(p, np.zeros(trials), *args)
    assert np.array_equal(pa, pb)
    assert np.array_equal(wa, wb)


def test_rotor_paths_agree_and_rotation_is_exact():
    gen = np.random.default_rng(3)
    # (dim, rotation pairs, steps, lam, dt, top frequency): a small case, then
    # exp1's reservoir (dim 300, 149 pairs) over 50 steps
    for dim, pairs, steps, lam, dt, om_hi in ((10, 4, 30, 0.5, 0.05, 20.0),
                                              (300, 149, 50, 0.1, 0.1, 40.0)):
        x0 = gen.standard_normal(dim)
        x0 /= np.linalg.norm(x0)
        om = gen.uniform(2.0, om_hi, pairs)
        bv = gen.standard_normal(dim)
        u = gen.standard_normal(steps)
        nz = 0.01 * gen.standard_normal((steps, dim))
        sa = np.empty((steps, dim))
        sb = np.empty((steps, dim))
        K._rotor_chunk_loops(x0.copy(), np.cos(om * dt), np.sin(om * dt), lam, bv, u, nz, dt, sa)
        K.rotor_chunk(x0.copy(), om, lam, bv, u, nz, dt, sb)
        assert np.allclose(sa, sb, atol=1e-12)
    # lam = 0, no input, no noise: the reversible split step preserves the norm
    x0 = gen.standard_normal(10)
    x0 /= np.linalg.norm(x0)
    sc = np.empty((200, 10))
    K.rotor_chunk(x0, gen.uniform(2.0, 20.0, 4), 0.0, np.zeros(10), np.zeros(200),
                  np.zeros((200, 10)), 0.05, sc)
    assert np.allclose(np.linalg.norm(sc, axis=1), 1.0, atol=1e-12)


def test_esn_paths_agree():
    gen = np.random.default_rng(4)
    # (reservoir size, steps, weight scale): a small case, then exp3's
    # 200-unit reservoir over 20 steps
    for n, steps, scale in ((12, 40, 1.0), (200, 20, 1.0 / 200)):
        W = scale * gen.uniform(-1, 1, (n, n))
        win = gen.uniform(-0.5, 0.5, n)
        y = gen.standard_normal(steps)
        nz = 0.01 * gen.standard_normal((steps, n))
        ea = np.empty((steps, n))
        eb = np.empty((steps, n))
        K._esn_collect_loops(W, win, y, 0.3, nz, ea)
        K.esn_collect(W, win, y, 0.3, nz, eb)
        assert np.allclose(ea, eb, atol=1e-12)


def test_ca_step_remainder_distribution_tiebreak():
    # E=10, K=1 on empty neighborhood: desired 10 to each of 8 neighbors,
    # capped to 10 total: floor share 1 each, remainder 2 goes to the first
    # two neighbors in index order (all differences tie)
    E = np.zeros((5, 5), dtype=np.int64)
    E[2, 2] = 10
    E_new, flows = K.ca_step(E, 1)
    assert E_new.sum() == 10
    assert E_new[2, 2] == 0
    assert flows[:, 2, 2].tolist() == [2, 2, 1, 1, 1, 1, 1, 1]
