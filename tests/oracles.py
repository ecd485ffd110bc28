"""Plain-Python reference loops for the numpy kernels of metrilab.kernels and
for exp4's patch outward flux.

Each loop steps one cell, bin, trial or coordinate at a time, in the order the
model is written down; tests/test_kernels.py, tests/test_metriplectic.py and
tests/test_experiments.py run them as oracles. The lattice step and the double
well agree with their kernels bit for bit, so their operation order is part of
what they check; the patch flux sums integers and agrees exactly; patch
entropy, rotor and ESN agree within 1e-12.
"""

import numpy as np


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


def _patch_outward_flux_loops(flows, w, stride, offs):
    _, H, W = flows.shape
    hp = (H - w) // stride + 1
    wp = (W - w) // stride + 1
    out = np.zeros((hp, wp), dtype=np.int64)
    for pi in range(hp):
        for pj in range(wp):
            r0 = pi * stride
            c0 = pj * stride
            for n in range(8):
                for i in range(r0, r0 + w):
                    for j in range(c0, c0 + w):
                        ti = i + offs[n, 0]
                        tj = j + offs[n, 1]
                        if not (r0 <= ti < r0 + w and c0 <= tj < c0 + w):
                            out[pi, pj] += flows[n, i, j]
    return out


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
