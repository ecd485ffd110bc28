"""Each numpy kernel path against its reference loop, run as plain Python
(the loops are also the numba bodies): the lattice and double-well paths
must agree bit-exactly; patch entropy, rotor and ESN within the tolerances
below."""

import numpy as np

from metrilab import kernels as K


def random_grid(gen, h=24, w=24, hi=300):
    E = gen.integers(0, hi, size=(h, w)).astype(np.int64)
    E[0, :] = E[-1, :] = E[:, 0] = E[:, -1] = 0
    return E


def test_ca_step_paths_agree_and_conserve():
    gen = np.random.default_rng(0)
    for _ in range(10):
        E = random_grid(gen)
        for Kdiv in (1, 4, 8):
            a_new, a_fl = K._ca_step_loops(E, np.int64(Kdiv), K.MOORE_OFFSETS)
            b_new, b_fl = K._ca_step_numpy(E, Kdiv, K.MOORE_OFFSETS)
            assert a_new.sum() == E.sum() == b_new.sum()
            assert np.array_equal(a_new, b_new)
            assert np.array_equal(a_fl, b_fl)
            assert np.all(a_new >= 0)


def test_patch_entropy_paths_agree():
    gen = np.random.default_rng(1)
    E = gen.integers(0, 200, size=(40, 40)).astype(np.int64)
    a = K._patch_entropy_loops(E, np.int64(8), np.int64(4), np.int64(128), np.int64(250))
    b = K._patch_entropy_numpy(E, 8, 4, 128, 250)
    assert a.shape == (9, 9)
    assert np.allclose(a, b, atol=1e-12)


def test_patch_entropy_uniform_patch_is_zero():
    E = np.full((16, 16), 7, dtype=np.int64)
    h = K.patch_entropy(E, 8, 4, 128, 10)
    assert np.allclose(h, 0.0)


def test_doublewell_paths_agree():
    # the numpy path runs the loop's operations in the loop's order, so the
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
    pb, wb = K._doublewell_chunk_numpy(p, np.zeros(trials), *args)
    assert (pa > 0).mean() > 0.5  # the barrier was crossed
    assert np.array_equal(pa, pb)
    assert np.array_equal(wa, wb)
    assert np.array_equal(p, p_in)  # caller's state untouched


def test_rotor_paths_agree_and_rotation_is_exact():
    gen = np.random.default_rng(3)
    x0 = gen.standard_normal(10)
    x0 /= np.linalg.norm(x0)
    om = gen.uniform(2.0, 20.0, 4)
    bv = gen.standard_normal(10)
    u = gen.standard_normal(30)
    nz = 0.01 * gen.standard_normal((30, 10))
    cw, sw = np.cos(om * 0.05), np.sin(om * 0.05)
    sa = np.empty((30, 10))
    sb = np.empty((30, 10))
    K._rotor_chunk_loops(x0.copy(), cw, sw, 0.5, bv, u, nz, 0.05, sa)
    K._rotor_chunk_numpy(x0.copy(), cw, sw, 0.5, bv, u, nz, 0.05, sb)
    assert np.allclose(sa, sb, atol=1e-12)
    # lam = 0, no input, no noise: the reversible split step preserves the norm
    sc = np.empty((200, 10))
    K.rotor_chunk(x0.copy(), om, 0.0, 0.0 * bv, np.zeros(200), np.zeros((200, 10)), 0.05, sc)
    assert np.allclose(np.linalg.norm(sc, axis=1), 1.0, atol=1e-12)


def test_esn_paths_agree():
    gen = np.random.default_rng(4)
    W = gen.uniform(-1, 1, (12, 12))
    win = gen.uniform(-0.5, 0.5, 12)
    y = gen.standard_normal(40)
    nz = 0.01 * gen.standard_normal((40, 12))
    ea = np.empty((40, 12))
    eb = np.empty((40, 12))
    K._esn_collect_loops(np.ascontiguousarray(W), win, y, 0.3, nz, ea)
    K._esn_collect_numpy(W, win, y, 0.3, nz, eb)
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
