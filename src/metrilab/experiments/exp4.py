"""Energy-conserving lattice with patch-level transport/organization diagnostics.

A noisy elliptical blob of integer energy diffuses through the conservative
Moore-neighborhood rule. At sampled frames the run measures, per sliding
patch: histogram entropy, the clipped entropy drop (irreversible compression
proxy), outward boundary flux, and export efficiency S = flux / (drop + eps),
plus four scalar diagnostics tracking how transport couples to entropy
gradients and how persistent/coherent the efficient regions are.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import BorderContactError, InternalLogicError, InvalidConfigError, check_fields
from ..kernels import MOORE_OFFSETS, ca_step as _kernel_ca_step, patch_entropy
from ..numerics import SeededRng
from .base import ExperimentResult


def ca_step(E, K):
    """Conservative synchronous update; see kernels.ca_step."""
    E_new, flows = _kernel_ca_step(E, K)
    if np.any(E_new < 0):
        raise InternalLogicError("negative cell energy after update")
    return E_new, flows


@dataclass(frozen=True)
class Exp4Config:
    height: int = 256
    width: int = 256
    K: int = 8
    steps: int = 500
    patch: int = 8
    stride: int = 4
    bins: int = 128
    top_frac: float = 0.05
    eps: float = 1e-9
    frame_every: int = 10
    radius: float = 28.0
    eccentricity: float = 1.4
    noise_amp: float = 0.35
    peak: int = 300
    save_fields: bool = False

    POSITIVE = ("K", "stride", "bins", "frame_every", "eps", "radius", "eccentricity", "peak")

    def __post_init__(self):
        check_fields(self)
        if self.steps < 2 * self.frame_every:
            raise InvalidConfigError("steps must cover at least two frames")
        if not 0 < self.top_frac < 1:
            raise InvalidConfigError("top_frac must lie in (0, 1)")
        if not 0 <= self.noise_amp <= 1:
            raise InvalidConfigError("noise_amp must lie in [0, 1]")
        if not self.stride <= self.patch <= min(self.height, self.width):
            raise InvalidConfigError("need stride <= patch <= min(height, width)")


def initial_blob(cfg: Exp4Config, rng: SeededRng):
    """Noisy asymmetric elliptical energy blob centered on the lattice."""
    gen = rng.generator()
    ci, cj = cfg.height / 2.0, cfg.width / 2.0
    a = cfg.radius * cfg.eccentricity
    b = cfg.radius / cfg.eccentricity
    ii, jj = np.meshgrid(np.arange(cfg.height), np.arange(cfg.width), indexing="ij")
    r2 = ((ii - ci) / a) ** 2 + ((jj - cj) / b) ** 2
    profile = np.clip(1.0 - r2, 0.0, None)
    noise = 1.0 - cfg.noise_amp * gen.uniform(0.0, 1.0, (cfg.height, cfg.width))
    E = np.floor(cfg.peak * profile * noise).astype(np.int64)
    return E


def _border_ring(E):
    return np.concatenate([E[0, :], E[-1, :], E[:, 0], E[:, -1]])


def patch_outward_flux(flows, patch, stride):
    """Total outward flow of each patch: for each Moore direction (di, dj),
    the sum of that direction's flows (8, H, W) over the patch cells whose
    target cell lies outside the patch. The flows are integers, so the
    summation order cannot change the result."""
    out = 0
    for n, (di, dj) in enumerate(MOORE_OFFSETS.tolist()):
        leaves = np.ones((patch, patch), dtype=bool)
        # the cells whose target (i + di, j + dj) stays inside the patch
        leaves[max(0, -di):patch - max(0, di), max(0, -dj):patch - max(0, dj)] = False
        windows = np.lib.stride_tricks.sliding_window_view(flows[n], (patch, patch))
        out = out + windows[::stride, ::stride][..., leaves].sum(axis=-1)
    return out


def _pearson(a, b):
    a = a.ravel().astype(float)
    b = b.ravel().astype(float)
    sa, sb = a.std(), b.std()
    if sa < 1e-300 or sb < 1e-300:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def _neighbor_corr(S):
    pairs_a = np.concatenate([S[:, :-1].ravel(), S[:-1, :].ravel()])
    pairs_b = np.concatenate([S[:, 1:].ravel(), S[1:, :].ravel()])
    return _pearson(pairs_a, pairs_b)


def _top_set(S, top_frac):
    flat = S.ravel()
    q = max(1, int(round(top_frac * flat.size)))
    order = np.lexsort((np.arange(flat.size), -flat))  # value desc, index asc
    return set(order[:q].tolist())


def _jaccard(a, b):
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _frame_fields(cfg, H_prev, H_now, flux):
    drop = np.maximum(H_prev - H_now, 0.0)
    S = flux.astype(float) / (drop + cfg.eps)
    gx, gy = np.gradient(H_now)
    grad_mag = np.hypot(gx, gy)
    return S, grad_mag


def _occupied(A, axis):
    """[first, last + 1) of the indices along `axis` whose line holds a nonzero cell."""
    idx = np.flatnonzero(A.any(axis=1 - axis))
    return int(idx[0]), int(idx[-1]) + 1


def _grown(span, n):
    """`span` widened by a one-cell margin, clamped to [0, n)."""
    return max(span[0] - 1, 0), min(span[1] + 1, n)


def _patch_window(span, patch, stride, n):
    """Patch indices of the patches that meet cells `span`, and the cells they
    cover. Never empty: a span past the last patch keeps that patch, whose
    entropy and flux are then those of an empty patch."""
    p1 = min(n, (span[1] - 1) // stride + 1)
    p0 = min(max(0, -((patch - 1 - span[0]) // stride)), p1 - 1)
    return slice(p0, p1), slice(p0 * stride, (p1 - 1) * stride + patch)


def run_exp4(cfg: Exp4Config, seed: int, field_sink=None) -> ExperimentResult:
    E = initial_blob(cfg, SeededRng(seed))
    total0 = int(E.sum())
    emax = int(E.max())
    if emax <= 0:
        raise InvalidConfigError("initial blob is empty; raise peak or radius")

    result = ExperimentResult(
        name="exp4",
        columns=["t", "mean_S", "grad_corr", "jaccard", "neighbor_corr", "total_energy"],
        metadata={"seed": seed, "config": cfg.__dict__.copy(), "total_energy": total0,
                  "patch_grid": [(cfg.height - cfg.patch) // cfg.stride + 1,
                                 (cfg.width - cfg.patch) // cfg.stride + 1]},
    )

    hp, wp = result.metadata["patch_grid"]

    def entropy(arr):
        return patch_entropy(arr, cfg.patch, cfg.stride, cfg.bins, emax)

    def patch_map(window, values):
        out = np.zeros((hp, wp), dtype=values.dtype)
        out[window] = values
        return out

    # Each step runs on the active window: the bounding box of the nonzero
    # cells plus a one-cell margin holds every cell the step can change, and
    # outside it E stays zero and no quanta flow. On diagnose steps the window
    # also covers the patches that meet it; every other patch is empty, with
    # entropy 0 and outward flux 0.
    # frame t reads the step (t-1 -> t): entropy maps at both ends plus that
    # step's flow field; step t = 1 seeds the persistence reference set
    H, W = E.shape
    rows, cols = _occupied(E, 0), _occupied(E, 1)
    prev_top = None
    for t in range(1, cfg.steps + 1):
        is_frame = t % cfg.frame_every == 0
        diagnose = is_frame or t == 1
        rows, cols = _grown(rows, H), _grown(cols, W)
        if diagnose:
            pi, ri = _patch_window(rows, cfg.patch, cfg.stride, hp)
            pj, rj = _patch_window(cols, cfg.patch, cfg.stride, wp)
            rows = (min(rows[0], ri.start), max(rows[1], ri.stop))
            cols = (min(cols[0], rj.start), max(cols[1], rj.stop))
            H_before = patch_map((pi, pj), entropy(E[ri, rj]))
        window = (slice(*rows), slice(*cols))
        E_window, flows = ca_step(E[window], cfg.K)
        E[window] = E_window
        if int(E.sum()) != total0:
            raise InternalLogicError("energy conservation broken")
        if np.any(_border_ring(E) != 0):
            raise BorderContactError(f"energy reached the lattice border at step {t}")
        if diagnose:
            H_after = patch_map((pi, pj), entropy(E[ri, rj]))
            inner = flows[:, ri.start - rows[0] : ri.stop - rows[0],
                          rj.start - cols[0] : rj.stop - cols[0]]
            flux = patch_map((pi, pj), patch_outward_flux(inner, cfg.patch, cfg.stride))
            S, grad_mag = _frame_fields(cfg, H_before, H_after, flux)
            top = _top_set(S, cfg.top_frac)
            if is_frame:
                result.add_row(
                    t=t,
                    mean_S=float(S.mean()),
                    grad_corr=_pearson(S, grad_mag),
                    jaccard=_jaccard(top, prev_top) if prev_top is not None else 1.0,
                    neighbor_corr=_neighbor_corr(S),
                    total_energy=int(E.sum()),
                )
                if cfg.save_fields and field_sink is not None:
                    field_sink(t, E.copy())
            prev_top = top
        rows = tuple(rows[0] + i for i in _occupied(E_window, 0))
        cols = tuple(cols[0] + j for j in _occupied(E_window, 1))
    return result
