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

from ..errors import BorderContactError, InternalLogicError, InvalidConfigError
from ..kernels import MOORE_OFFSETS, ca_step as _kernel_ca_step, patch_entropy
from ..numerics import SeededRng
from .base import ExperimentResult


def ca_step(E, K):
    """Conservative synchronous update; see kernels.ca_step."""
    E_new, flows = _kernel_ca_step(E, K)
    if np.any(E_new < 0):
        raise InternalLogicError("negative cell energy after update")
    return E_new, flows


@dataclass
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

    def __post_init__(self):
        if self.K < 1:
            raise InvalidConfigError("K must be >= 1")
        if self.frame_every < 1:
            raise InvalidConfigError("frame_every must be >= 1")
        if self.steps < 2 * self.frame_every:
            raise InvalidConfigError("steps must cover at least two frames")
        if not 0 < self.top_frac < 1:
            raise InvalidConfigError("top_frac must lie in (0, 1)")
        if not 1 <= self.patch <= min(self.height, self.width):
            raise InvalidConfigError("patch must satisfy 1 <= patch <= min(height, width)")
        if not 1 <= self.stride <= self.patch:
            raise InvalidConfigError("stride must satisfy 1 <= stride <= patch")
        if self.bins < 1:
            raise InvalidConfigError("bins must be >= 1")


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


def _sat(F):
    """Summed-area table with a zero row/col so rect sums are pure diffs."""
    s = np.zeros((F.shape[0] + 1, F.shape[1] + 1), dtype=np.int64)
    s[1:, 1:] = F.cumsum(axis=0).cumsum(axis=1)
    return s


def _rect_sums(sat, r0, c0, r1, c1):
    """Inclusive-rectangle sums for vectorized corner arrays."""
    return sat[r1 + 1, c1 + 1] - sat[r0, c1 + 1] - sat[r1 + 1, c0] + sat[r0, c0]


def patch_outward_flux(flows, patch, stride):
    """Total outward flow across each patch boundary from per-direction flows.

    For direction d the outward part is the patch total minus the flows whose
    target cell stays inside the patch (an inner sub-rectangle shifted
    against d); both are summed-area-table lookups.
    """
    H, W = flows.shape[1:]
    hp = (H - patch) // stride + 1
    wp = (W - patch) // stride + 1
    r0 = (np.arange(hp) * stride)[:, None] * np.ones((1, wp), dtype=int)
    c0 = np.ones((hp, 1), dtype=int) * (np.arange(wp) * stride)[None, :]
    r0 = r0.astype(int)
    c0 = c0.astype(int)
    out = np.zeros((hp, wp), dtype=np.int64)
    for n in range(8):
        di, dj = int(MOORE_OFFSETS[n, 0]), int(MOORE_OFFSETS[n, 1])
        sat = _sat(flows[n])
        whole = _rect_sums(sat, r0, c0, r0 + patch - 1, c0 + patch - 1)
        ir0 = r0 + max(0, -di)
        ir1 = r0 + patch - 1 - max(0, di)
        ic0 = c0 + max(0, -dj)
        ic1 = c0 + patch - 1 - max(0, dj)
        inner = _rect_sums(sat, ir0, ic0, ir1, ic1)
        out += whole - inner
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


def _frame_fields(cfg, H_prev, H_now, flows):
    drop = np.maximum(H_prev - H_now, 0.0)
    flux = patch_outward_flux(flows, cfg.patch, cfg.stride).astype(float)
    S = flux / (drop + cfg.eps)
    gx, gy = np.gradient(H_now)
    grad_mag = np.hypot(gx, gy)
    return S, grad_mag


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

    def entropy(arr):
        return patch_entropy(arr, cfg.patch, cfg.stride, cfg.bins, emax)

    # frame t reads the step (t-1 -> t): entropy maps at both ends plus that
    # step's flow field; step t = 1 seeds the persistence reference set
    prev_top = None
    E_prev = E
    for t in range(1, cfg.steps + 1):
        is_frame = t % cfg.frame_every == 0
        diagnose = is_frame or t == 1
        if diagnose:
            H_before = entropy(E_prev)
        E, flows = ca_step(E_prev, cfg.K)
        if int(E.sum()) != total0:
            raise InternalLogicError("energy conservation broken")
        if np.any(_border_ring(E) != 0):
            raise BorderContactError(f"energy reached the lattice border at step {t}")
        if diagnose:
            H_after = entropy(E)
            S, grad_mag = _frame_fields(cfg, H_before, H_after, flows)
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
                    field_sink(t, E)
            prev_top = top
        E_prev = E
    return result
