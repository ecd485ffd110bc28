"""Hot numeric kernels, one numpy implementation each.

Each kernel (`ca_step`, `patch_entropy`, `doublewell_chunk`, `rotor_chunk`,
`esn_collect`) has a plain-Python reference loop `_*_loops` in
tests/oracles.py, which tests/test_kernels.py runs as the oracle:

- lattice step and double well: the kernel is bit-exact with its loop;
- patch entropy, rotor and ESN: the kernel sums or rounds in another order
  and agrees with its loop within 1e-12.

`rotor_chunk` steps the rotor in place, one row of its output per step,
and rotates all pairs in one pass; tests/test_kernels.py also keeps its
earlier blockwise numpy form, which it equals bit for bit.

`esn_collect` steps a stack of reservoirs that share one input and one noise
sequence (exp3 passes four spectral radii at a time), so its per-step numpy
calls are paid once per stack. Its loop oracle runs one reservoir, and
tests/test_kernels.py keeps the earlier one-reservoir numpy form, which each
stack item equals bit for bit.

The lattice kernels take any window of a lattice: exp4 passes only the
cells near its energy blob, and a zero cell with zero neighbors neither
sends nor receives quanta, so the window's result equals the full lattice's
there. `patch_entropy` reads -p log p from a (w*w + 1)-entry table built per
call, bit-identical to evaluating it per bin.
"""

import math

import numpy as np

# Moore neighborhood, fixed order; index order breaks ties in the lattice
# remainder distribution, so this list is part of the update semantics.
MOORE_OFFSETS = np.array(
    [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
    dtype=np.int64,
)


# ---------------------------------------------------------------------------
# energy-lattice step
# ---------------------------------------------------------------------------

def ca_step(E, K):
    """One synchronous conservative-diffusion update on an integer lattice.

    Returns (E_next, flows) where flows[n] holds the quanta sent from each
    cell to its n-th Moore neighbor. sum(E_next) == sum(E) exactly.
    """
    E = np.asarray(E, dtype=np.int64)
    if np.any(E < 0):
        raise ValueError("lattice energies must be nonnegative integers")
    if K < 1:
        raise ValueError("flow divisor K must be >= 1")
    H, W = E.shape
    shifts = [((slice(max(0, -di), H - max(0, di)), slice(max(0, -dj), W - max(0, dj))),
               (slice(max(0, di), H - max(0, -di)), slice(max(0, dj), W - max(0, -dj))))
              for di, dj in MOORE_OFFSETS.tolist()]
    d = np.full((8, H, W), -1, dtype=np.int64)
    for n, (src, dst) in enumerate(shifts):
        np.subtract(E[src], E[dst], out=d[n][src])
    o = np.maximum(d, 0) // K
    total = o.sum(axis=0)
    cap = total > E
    if np.any(cap):
        scaled = o * E // np.where(total > 0, total, 1)
        rem = E - scaled.sum(axis=0)
        # stable argsort on -d reproduces (largest difference, lowest index)
        order = np.argsort(-d, axis=0, kind="stable")
        rank = np.argsort(order, axis=0, kind="stable")
        bump = (rank < rem[None, :, :]).astype(np.int64)
        o = np.where(cap[None, :, :], scaled + bump, o)
        total = o.sum(axis=0)
    E_new = E - total
    for n, (src, dst) in enumerate(shifts):
        E_new[dst] += o[n][src]
    return E_new, o


# ---------------------------------------------------------------------------
# sliding-patch entropy
# ---------------------------------------------------------------------------

def patch_entropy(E, w, stride, nbins, emax):
    """Shannon entropy (nats) of value histograms over sliding w x w patches.

    Values are binned linearly over the global range [0, emax] with `nbins`
    bins; patches are sampled on a `stride` grid.
    """
    H, W = E.shape
    hp = (H - w) // stride + 1
    wp = (W - w) // stride + 1
    bi = np.minimum(E * nbins // (emax + 1), nbins - 1)
    win = np.lib.stride_tricks.sliding_window_view(bi, (w, w))[::stride, ::stride]
    flat = win.reshape(hp * wp, w * w)
    ids = np.arange(hp * wp, dtype=np.int64)[:, None] * nbins + flat
    counts = np.bincount(ids.ravel(), minlength=hp * wp * nbins).reshape(hp * wp, nbins)
    # counts are integers 0..w*w, so -p log p is a lookup: each table entry is
    # the term the direct formula gives for that count
    p = np.arange(w * w + 1) / float(w * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.where(p > 0, -p * np.log(p), 0.0)
    return table[counts].sum(axis=1).reshape(hp, wp)


# ---------------------------------------------------------------------------
# overdamped double-well Langevin ensemble
# ---------------------------------------------------------------------------

def doublewell_chunk(p, work, csched, noise, a, b, c, inv_gamma, dt):
    """Advance a double-well Langevin ensemble over one chunk of steps.

    csched has one more entry than noise rows; work accumulates the
    control-substep energy changes (work done on each trial). Returns the new
    positions and `work`; the caller's `p` is not mutated.
    """
    # Same operations, in the same association order, as the reference loop
    # in tests/oracles.py (IEEE + and * are commutative, so only the grouping
    # matters), which keeps the two bit-exact. x*x*x also avoids float64
    # `power`, which is slow for negative bases.
    m = noise.shape[0]
    coef = -c * (csched[1:] - csched[:-1])
    cc1 = c * csched[1:]
    a4 = -4.0 * a
    b2 = 2.0 * b
    h = dt * inv_gamma
    x = p.copy()
    t = np.empty_like(x)
    u = np.empty_like(x)
    for s in range(m):
        np.multiply(x, coef[s], out=t)
        work += t
        np.multiply(x, a4, out=t)
        t *= x
        t *= x
        np.multiply(x, b2, out=u)
        t += u
        t += cc1[s]
        t *= h
        t += x
        t += noise[s]
        x, t = t, x
    return x, work


# ---------------------------------------------------------------------------
# rotor reservoir (block-rotation skew flow + isotropic decay + drive)
#
# Split step: Euler decay + input injection, then the exact per-block
# rotation (orthogonal, so the reversible flow is norm-preserving to machine
# precision), then additive noise and renormalization to unit norm.
# ---------------------------------------------------------------------------

def rotor_chunk(x, omegas, lam, bvec, u, noise, dt, states):
    """Drive the renormalized rotor reservoir over len(u) steps, filling `states`.

    Each step is computed in place in its row of `states`, with no per-step
    allocation. The pair rotation is one pass over the whole state,
    `v = C * v + S * v[swap]`: C holds each block's cosine twice and S holds
    (-sin, +sin), and coordinates outside the rotation pairs have C = 1,
    S = 0 and swap to themselves. This equals the blockwise form
    `(cos*a - sin*b, sin*a + cos*b)` bit for bit, since a + (-s)*b == a - s*b
    and + commutes in IEEE arithmetic. The norm is sqrt(v . v), which is what
    np.linalg.norm computes for a 1-D float array. Returns the final state
    (the last row of `states`); the caller's `x` is not mutated.
    """
    n = x.shape[0]
    wdt = np.asarray(omegas) * dt
    pair = slice(0, 2 * wdt.shape[0])
    C = np.ones(n)
    S = np.zeros(n)
    swap = np.arange(n)
    C[pair] = np.repeat(np.cos(wdt), 2)
    S[pair] = np.repeat(np.sin(wdt), 2)
    S[pair][0::2] *= -1.0
    swap[pair] ^= 1
    decay = 1.0 - lam * dt
    drive = dt * bvec
    w = np.empty(n)
    for t in range(noise.shape[0]):
        v = states[t]
        np.multiply(x, decay, out=v)
        np.multiply(drive, u[t], out=w)
        v += w
        v.take(swap, out=w)
        w *= S
        v *= C
        v += w
        v += noise[t]
        v /= math.sqrt(v.dot(v))
        x = v
    return x


# ---------------------------------------------------------------------------
# leaky tanh echo-state collection
# ---------------------------------------------------------------------------

def esn_collect(W, win, y, leak, noise, states):
    """Collect the leaky-tanh echo-state trajectories of a stack of reservoirs.

    W is a (g, n, n) stack of weight matrices driven by one input `y` and one
    noise sequence; states[i][t] = x_{t+1} of reservoir i, for a list of g
    (T, n) arrays. Each step runs the g matrix-vector products in one matmul
    call (one gemv per item, as `W[i] @ x` makes) and the update in place,
    in the order (1 - leak) * x + leak * tanh(W x + win * y_t) + noise_t, so
    each trajectory equals the one its matrix gives alone, bit for bit.
    """
    g, n = W.shape[0], W.shape[1]
    x = np.zeros((g, n, 1))
    pre = np.empty((g, n, 1))
    drive = np.empty((n, 1))
    win_col = win.reshape(n, 1)
    noise_col = noise.reshape(noise.shape[0], n, 1)
    for t in range(y.shape[0]):
        np.matmul(W, x, out=pre)
        np.multiply(win_col, y[t], out=drive)
        pre += drive
        np.tanh(pre, out=pre)
        pre *= leak
        x *= 1.0 - leak
        x += pre
        x += noise_col[t]
        for i in range(g):
            states[i][t] = x[i, :, 0]
    return states
