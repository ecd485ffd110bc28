"""Hot numeric kernels, one numpy implementation each.

Each public kernel (`ca_step`, `patch_entropy`, `doublewell_chunk`,
`rotor_chunk`, `esn_collect`) has a plain-Python reference loop `_*_loops`
beside it, which tests/test_kernels.py runs as the oracle:

- lattice step and double well: the kernel is bit-exact with its loop;
- patch entropy, rotor and ESN: the kernel sums or rounds in another order
  and agrees with its loop within 1e-12.
"""

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

def _ca_step_loops(E, K, offs):
    H, W = E.shape
    flows = np.zeros((8, H, W), dtype=np.int64)
    for i in range(H):
        for j in range(W):
            e = E[i, j]
            if e <= 0:
                continue
            d = np.empty(8, dtype=np.int64)
            o = np.zeros(8, dtype=np.int64)
            total = np.int64(0)
            for n in range(8):
                ni = i + offs[n, 0]
                nj = j + offs[n, 1]
                if ni < 0 or ni >= H or nj < 0 or nj >= W:
                    d[n] = -1
                    continue
                dd = e - E[ni, nj]
                d[n] = dd
                if dd > 0:
                    o[n] = dd // K
                    total += o[n]
            if total == 0:
                continue
            if total > e:
                acc = np.int64(0)
                for n in range(8):
                    o[n] = o[n] * e // total
                    acc += o[n]
                rem = e - acc
                # hand the remaining quanta to the largest-difference
                # neighbors, ties broken by neighbor index order
                while rem > 0:
                    best = -1
                    bestd = np.int64(0)
                    for n in range(8):
                        if d[n] > bestd:
                            bestd = d[n]
                            best = n
                    o[best] += 1
                    d[best] = -d[best]  # exclude from further bumps
                    rem -= 1
            for n in range(8):
                flows[n, i, j] = o[n]
    E_new = E.copy()
    for n in range(8):
        di = offs[n, 0]
        dj = offs[n, 1]
        for i in range(H):
            for j in range(W):
                f = flows[n, i, j]
                if f > 0:
                    E_new[i, j] -= f
                    E_new[i + di, j + dj] += f
    return E_new, flows


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
    d = np.full((8, H, W), -1, dtype=np.int64)
    for n in range(8):
        di, dj = int(MOORE_OFFSETS[n, 0]), int(MOORE_OFFSETS[n, 1])
        src = (slice(max(0, -di), H - max(0, di)), slice(max(0, -dj), W - max(0, dj)))
        dst = (slice(max(0, di), H - max(0, -di)), slice(max(0, dj), W - max(0, -dj)))
        d[n][src] = E[src] - E[dst]
    o = np.where(d > 0, np.maximum(d, 0) // K, 0).astype(np.int64)
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
    inflow = np.zeros_like(E)
    for n in range(8):
        di, dj = int(MOORE_OFFSETS[n, 0]), int(MOORE_OFFSETS[n, 1])
        src = (slice(max(0, -di), H - max(0, di)), slice(max(0, -dj), W - max(0, dj)))
        dst = (slice(max(0, di), H - max(0, -di)), slice(max(0, dj), W - max(0, -dj)))
        inflow[dst] += o[n][src]
    E_new = E - o.sum(axis=0) + inflow
    return E_new, o


# ---------------------------------------------------------------------------
# sliding-patch entropy
# ---------------------------------------------------------------------------

def _patch_entropy_loops(E, w, stride, nbins, emax):
    H, W = E.shape
    hp = (H - w) // stride + 1
    wp = (W - w) // stride + 1
    out = np.zeros((hp, wp), dtype=np.float64)
    denom = emax + 1
    npix = w * w
    counts = np.zeros(nbins, dtype=np.int64)
    for pi in range(hp):
        for pj in range(wp):
            counts[:] = 0
            r0 = pi * stride
            c0 = pj * stride
            for i in range(r0, r0 + w):
                for j in range(c0, c0 + w):
                    b = E[i, j] * nbins // denom
                    if b >= nbins:
                        b = nbins - 1
                    counts[b] += 1
            h = 0.0
            for b in range(nbins):
                if counts[b] > 0:
                    p = counts[b] / npix
                    h -= p * np.log(p)
            out[pi, pj] = h
    return out


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
    p = counts / float(w * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log(p), 0.0)
    return terms.sum(axis=1).reshape(hp, wp)


# ---------------------------------------------------------------------------
# overdamped double-well Langevin ensemble
# ---------------------------------------------------------------------------

def _doublewell_chunk_loops(p, work, csched, noise, a, b, c, inv_gamma, dt):
    m, n = noise.shape
    for s in range(m):
        c0 = csched[s]
        c1 = csched[s + 1]
        for k in range(n):
            x = p[k]
            # control substep: work = energy change at fixed state
            work[k] += -c * (c1 - c0) * x
            # relaxation substep under the new control value
            force = -4.0 * a * x * x * x + 2.0 * b * x + c * c1
            p[k] = x + dt * inv_gamma * force + noise[s, k]
    return p, work


def doublewell_chunk(p, work, csched, noise, a, b, c, inv_gamma, dt):
    """Advance a double-well Langevin ensemble over one chunk of steps.

    csched has one more entry than noise rows; work accumulates the
    control-substep energy changes (work done on each trial). Returns the new
    positions and `work`; the caller's `p` is not mutated.
    """
    # Same operations, in the same association order, as _doublewell_chunk_loops
    # (IEEE + and * are commutative, so only the grouping matters), which keeps
    # the two bit-exact. x*x*x also avoids float64 `power`, which is slow for
    # negative bases.
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

def _rotor_chunk_loops(x, cos_w, sin_w, lam, bvec, u, noise, dt, states):
    T, n = noise.shape
    m = cos_w.shape[0]
    for t in range(T):
        decay = 1.0 - lam * dt
        for i in range(n):
            x[i] = decay * x[i] + dt * bvec[i] * u[t]
        for k in range(m):
            i0 = 2 * k
            i1 = 2 * k + 1
            a = x[i0]
            b = x[i1]
            x[i0] = cos_w[k] * a - sin_w[k] * b
            x[i1] = sin_w[k] * a + cos_w[k] * b
        nrm = 0.0
        for i in range(n):
            x[i] += noise[t, i]
            nrm += x[i] * x[i]
        nrm = np.sqrt(nrm)
        for i in range(n):
            x[i] /= nrm
            states[t, i] = x[i]
    return x


def rotor_chunk(x, omegas, lam, bvec, u, noise, dt, states):
    """Drive the renormalized rotor reservoir over len(u) steps, filling `states`."""
    cos_w = np.cos(np.asarray(omegas) * dt)
    sin_w = np.sin(np.asarray(omegas) * dt)
    m = cos_w.shape[0]
    for t in range(noise.shape[0]):
        v = (1.0 - lam * dt) * x + dt * bvec * u[t]
        a = v[0 : 2 * m : 2].copy()
        b = v[1 : 2 * m : 2].copy()
        v[0 : 2 * m : 2] = cos_w * a - sin_w * b
        v[1 : 2 * m : 2] = sin_w * a + cos_w * b
        v = v + noise[t]
        v /= np.linalg.norm(v)
        states[t] = v
        x = v
    return x


# ---------------------------------------------------------------------------
# leaky tanh echo-state collection
# ---------------------------------------------------------------------------

def _esn_collect_loops(W, win, y, leak, noise, states):
    T = y.shape[0]
    n = W.shape[0]
    x = np.zeros(n)
    for t in range(T):
        pre = np.dot(W, x)
        for i in range(n):
            x[i] = (1.0 - leak) * x[i] + leak * np.tanh(pre[i] + win[i] * y[t]) + noise[t, i]
            states[t, i] = x[i]
    return states


def esn_collect(W, win, y, leak, noise, states):
    """Collect leaky-tanh echo-state trajectories; states[t] = x_{t+1}."""
    x = np.zeros(W.shape[0])
    for t in range(y.shape[0]):
        x = (1.0 - leak) * x + leak * np.tanh(W @ x + win * y[t]) + noise[t]
        states[t] = x
    return states
