"""Scalar efficiency measures, numerical bound checks and a safety monitor.

Two work-per-nat ratios (work per irreversible nat and work per preserved
nat) plus three checks: the current-fluctuation bound, the
mutual-information trace bound, and the isothermal power bound. Each check
returns one dict form: the bound's two sides `lhs` and `rhs`, a `satisfied`
flag that allows for estimator noise, and `slack`, the margin by which the
bound holds (negative when it fails), plus extras of its own. The safety
monitor flags every sample of a flux series that breaks a limit.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ChannelIrregularError,
    InsufficientDataError,
    UndefinedConsciousnessError,
    UndefinedIntelligenceError,
)
from .numerics import BLOCK_ELEMENTS, SeededRng

TUR_BOOTSTRAP = 200    # resamples behind tur_check's standard error
TUR_MIN_SAMPLES = 100  # fewest currents tur_check accepts
TRACE_GL_NODES = 16    # Gauss-Legendre nodes on each trace-bound path
TRACE_EPS = 1e-6       # numerical floor of the trace-bound slack
MI_Y_POINTS = 4001     # trapezoid nodes over y in mutual_information_quadrature
MI_PAD = 8.0           # channel sigmas of y beyond the extreme atom means


@dataclass
class MetricRecord:
    """Named scalar measure over a horizon, with its flux components."""

    name: str
    value: float
    horizon: tuple = (0.0, 0.0)
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"metric {self.name!r} must be finite")
        for key in ("I_irr", "I_preserved"):
            if key in self.components and self.components[key] < 0:
                raise ValueError(f"component {key} must be nonnegative")


def intelligence_record(w_goal, i_irr, horizon=(0.0, 0.0)) -> MetricRecord:
    return MetricRecord("intelligence", intelligence(w_goal, i_irr), horizon,
                        {"W_goal": w_goal, "I_irr": i_irr})


def consciousness_record(w_goal, i_preserved, horizon=(0.0, 0.0)) -> MetricRecord:
    return MetricRecord("consciousness", consciousness(w_goal, i_preserved), horizon,
                        {"W_goal": w_goal, "I_preserved": i_preserved})


def intelligence(w_goal, i_irr):
    """Goal-directed work per nat of irreversibly processed information."""
    if i_irr < 0:
        raise ValueError("i_irr must be nonnegative")
    if i_irr == 0:
        raise UndefinedIntelligenceError(
            "fully reversible horizon: work-per-nat ratio is undefined")
    return w_goal / i_irr


def consciousness(w_goal, i_preserved):
    """Goal-directed work per nat of information preserved over the horizon."""
    if i_preserved <= 0:
        raise UndefinedConsciousnessError("no preserved information over the horizon")
    return w_goal / i_preserved


# ---------------------------------------------------------------------------
# current-fluctuation (precision-dissipation) check
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _bootstrap_index(size):
    """tur_check's (TUR_BOOTSTRAP, size) resample index, read-only.

    It is drawn from a fixed seed, so it depends on the sample size alone, and
    a sweep of equal-size ensembles draws it once. The cache holds one size:
    a larger index kept past its last use would stay resident.

    The rows are drawn a block at a time as int32 into the smallest unsigned
    type that holds `size - 1` (uint16 up to 65 536 samples). numpy's bounded
    draw takes one 32-bit path for int32, and for int64 when the range fits
    32 bits, so the values and the generator's stream equal one whole int64
    draw.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xB007)))
    idx = np.empty((TUR_BOOTSTRAP, size), dtype=np.min_scalar_type(size - 1))
    rows = max(1, BLOCK_ELEMENTS // size)
    for r in range(0, TUR_BOOTSTRAP, rows):
        block = idx[r : r + rows]
        block[...] = gen.integers(0, size, size=block.shape, dtype=np.int32)
    idx.flags.writeable = False
    return idx


def _bootstrap_ratios(j):
    """Var/mean^2 of each of tur_check's TUR_BOOTSTRAP resamples of `j`.

    The resamples are gathered a block of rows at a time into one buffer by
    np.take, which widens each block of the compact index to intp on the way
    (indexing `j[idx]` through a uint16 index is about 2.8x slower). Every
    index is below j.size, so mode="clip" clips nothing; it spares the copy
    of `out` that mode="raise" makes. The moments are then formed in place,
    with the ufuncs of `ndarray.mean` and `ndarray.var(ddof=1)` in their
    order; each row is reduced along its own contiguous axis, so the result
    has the same bits as one whole (TUR_BOOTSTRAP, j.size) gather."""
    n = j.size
    idx = _bootstrap_index(n)
    rows = min(TUR_BOOTSTRAP, max(1, BLOCK_ELEMENTS // n))
    boots = np.empty((rows, n))
    bl = np.empty(TUR_BOOTSTRAP)
    for r in range(0, TUR_BOOTSTRAP, rows):
        k = min(rows, TUR_BOOTSTRAP - r)
        b = np.take(j, idx[r : r + k], out=boots[:k], mode="clip")
        mean = np.add.reduce(b, axis=1)
        mean /= n
        b -= mean[:, None]
        np.square(b, out=b)
        var = np.add.reduce(b, axis=1)
        var /= n - 1
        np.divide(var, mean**2, out=bl[r : r + k])
    return bl


def tur_check(current_samples, sigma_T):
    """Check Var(J_T)/E[J_T]^2 >= 2/Sigma_T (Sigma_T in nats) on currents.

    `satisfied` allows the lhs a downward slack of 3 bootstrap standard errors
    (eps_stat = 3*SE/rhs). A near-zero mean marks the ratio infinite and the
    bound vacuously satisfied.
    """
    j = np.asarray(current_samples, dtype=float)
    if j.size < TUR_MIN_SAMPLES:
        raise ValueError(f"need at least {TUR_MIN_SAMPLES} current samples")
    mean = j.mean()
    var = j.var(ddof=1)
    rhs = np.inf if sigma_T <= 0 else 2.0 / sigma_T
    if abs(mean) < 1e-12 * max(j.std(), 1e-300):
        return {"lhs": np.inf, "rhs": rhs, "satisfied": True, "slack": np.inf,
                "eps_stat": 0.0, "mean_zero": True}
    lhs = var / mean**2
    se = float(_bootstrap_ratios(j).std(ddof=1))
    eps = 3.0 * se / rhs if np.isfinite(rhs) and rhs > 0 else 0.0
    satisfied = bool(lhs >= rhs * (1.0 - eps)) if np.isfinite(rhs) else True
    return {"lhs": float(lhs), "rhs": float(rhs), "satisfied": satisfied,
            "slack": float(lhs - rhs), "eps_stat": float(eps), "mean_zero": False}


def biased_walk_currents(forward, backward, n_steps, n_walkers, rng: SeededRng):
    """Ensemble of hop-counting currents for a walk with forward/backward hop
    probabilities per step (the remainder stays put), plus the entropy
    produced under local detailed balance: Sigma_T = N (p - q) ln(p/q).

    Small hop probabilities discretize a continuous-time jump process, the
    regime in which the precision-dissipation bound is exact."""
    if forward <= 0 or backward <= 0 or forward + backward >= 1:
        raise ValueError("need forward, backward > 0 with forward + backward < 1")
    gen = rng.generator()
    counts = gen.multinomial(n_steps, [forward, backward, 1.0 - forward - backward],
                             size=n_walkers)
    currents = (counts[:, 0] - counts[:, 1]).astype(float)
    sigma = 0.0 if forward == backward else n_steps * (forward - backward) * np.log(forward / backward)
    return currents, float(sigma)


# ---------------------------------------------------------------------------
# mutual-information trace bound
# ---------------------------------------------------------------------------

@dataclass
class SmoothScalarChannel:
    """y = mean(z) + sigma * N(0,1) with analytic score and Fisher information."""

    mean_fn: callable
    dmean_fn: callable
    sigma: float
    name: str = "channel"
    score_scale: float = 1.0  # != 1 models a corrupted score (for negative tests)

    def fisher(self, z):
        d = self.score_scale * self.dmean_fn(z)
        return d * d / (self.sigma * self.sigma)

    def log_likelihood(self, y, z):
        r = y - self.mean_fn(z)
        return -0.5 * (r / self.sigma) ** 2 - 0.5 * np.log(2 * np.pi * self.sigma**2)


def linear_gaussian_channel(sigma=1.0):
    return SmoothScalarChannel(lambda z: z, lambda z: np.ones_like(np.asarray(z, dtype=float)),
                               sigma, name="linear-gaussian")


def logistic_mean_channel(level, slope, center, sigma, name="logistic-mean"):
    def m(z):
        return level / (1.0 + np.exp(-slope * (np.asarray(z, dtype=float) - center)))

    def dm(z):
        s = 1.0 / (1.0 + np.exp(-slope * (np.asarray(z, dtype=float) - center)))
        return level * slope * s * (1.0 - s)

    return SmoothScalarChannel(m, dm, sigma, name=name)


def mutual_information_quadrature(channel, z_atoms, weights):
    """I(Z;Y) for an atomized input prior, by fine trapezoid quadrature over y.

    Returns (mi, per_atom_kl) where mi = sum_i w_i KL(p(.|z_i) || p_mix)."""
    z = np.asarray(z_atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = channel.mean_fn(z)
    lo = float(m.min() - MI_PAD * channel.sigma)
    hi = float(m.max() + MI_PAD * channel.sigma)
    y = np.linspace(lo, hi, MI_Y_POINTS)
    # The mixture is taken over column blocks of y, with every atom in each.
    # Widths that are multiples of 64 points keep each output's gemv sum as
    # in one whole (atoms, y) product on a single OpenBLAS thread.
    width = max(64, BLOCK_ELEMENTS // z.size // 64 * 64)
    pmix = np.empty(MI_Y_POINTS)
    for c in range(0, MI_Y_POINTS, width):
        pmix[c : c + width] = w @ np.exp(channel.log_likelihood(y[None, c : c + width], z[:, None]))
    log_mix = np.log(np.maximum(pmix, 1e-300))[None, :]
    # The KL integrals are taken over blocks of atoms.
    rows = max(1, BLOCK_ELEMENTS // MI_Y_POINTS)
    kl = np.empty(z.size)
    for r in range(0, z.size, rows):
        ll = channel.log_likelihood(y[None, :], z[r : r + rows, None])
        p = np.exp(ll)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(p > 0, p * (ll - log_mix), 0.0)
        kl[r : r + rows] = np.trapezoid(integrand, y, axis=1)
    return float(w @ kl), kl


def trace_bound_check(channel, prior_samples):
    """Check I(Z;Y) <= 0.5 * tr(G) for a scalar channel and a sample-set prior.

    G couples input spread with the path-averaged Fisher information along
    straight interpolation paths (Gauss-Legendre on s in [0,1]). `tightness`
    compares the information against the covariance-weighted reference
    0.5 * Var(Z) * mean path Fisher, which linear-Gaussian channels saturate
    in the low-SNR limit.
    """
    z = np.asarray(prior_samples, dtype=float)
    if np.unique(z).size < 2:
        return {"lhs": 0.0, "rhs": 0.0, "satisfied": True, "slack": 0.0,
                "tightness": 1.0, "eps_num": TRACE_EPS}
    n = z.size
    w = np.full(n, 1.0 / n)

    mi, per_atom = mutual_information_quadrature(channel, z, w)
    se = float(per_atom.std(ddof=1) / np.sqrt(n))

    nodes, wts = np.polynomial.legendre.leggauss(TRACE_GL_NODES)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * wts
    dz = z[:, None] - z[None, :]
    fbar = np.zeros((n, n))
    for sk, wk in zip(s, ws):
        zs = z[None, :] + sk * dz  # path from z_j toward z_i
        fbar += wk * channel.fisher(zs)
    if not np.all(np.isfinite(fbar)):
        raise ChannelIrregularError("path-averaged Fisher information is non-finite")
    g = float(np.sum(dz * dz * fbar) / (n * n))
    half_trace = 0.5 * g

    var_z = 0.5 * float(np.mean(dz * dz))
    ref = 0.5 * var_z * float(fbar.mean())
    eps = TRACE_EPS + 3.0 * se
    return {"lhs": mi, "rhs": half_trace, "satisfied": bool(mi <= half_trace + eps),
            "slack": half_trace - mi, "tightness": mi / ref if ref > 0 else 1.0, "eps_num": eps}


# ---------------------------------------------------------------------------
# isothermal power bound
# ---------------------------------------------------------------------------

def classical_bound_check(fluxes, T_env, stat_tol=0.0):
    """Time-averaged check of W_dot <= T_env*Iirr_dot - F_sys_dot - T_env*Sprod_dot.

    `fluxes` carries per-time series: times, w_dot (power delivered by the
    system), i_irr_dot (nats/time, kB = 1), f_sys_dot, s_prod_dot. Averages use the
    trapezoid rule over `times`.
    """
    needed = ("times", "w_dot", "i_irr_dot", "f_sys_dot", "s_prod_dot")
    for k in needed:
        if k not in fluxes:
            raise InsufficientDataError(f"flux series missing channel {k!r}")
    t = np.asarray(fluxes["times"], dtype=float)
    span = t[-1] - t[0]
    if span <= 0:
        raise InsufficientDataError("flux series must span a positive interval")

    def avg(key):
        return float(np.trapezoid(np.asarray(fluxes[key], dtype=float), t) / span)

    lhs = avg("w_dot")
    rhs = T_env * avg("i_irr_dot") - avg("f_sys_dot") - T_env * avg("s_prod_dot")
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(lhs <= rhs + stat_tol), "slack": rhs - lhs}


def report_fluxes(report):
    """Derive the power-bound flux series and T_env = kT from a protocol report.

    Channels: delivered power -dW_on/dt; logical irreversibility rate from
    clipped label-entropy loss; free-energy rate d(U - T S_sys)/dt; total
    entropy-production rate dS_sys/dt + Q_dot/T.
    """
    s = report.series
    for k in ("times", "work_cum", "u_mean", "s_sys", "label_entropy"):
        if k not in s:
            raise InsufficientDataError(f"report lacks time-resolved channel {k!r}")
    t = np.asarray(s["times"], dtype=float)
    if len(t) < 3:
        raise InsufficientDataError("need at least 3 snapshots")
    T_env = report.kT
    dt = np.diff(t)
    w_on = np.diff(s["work_cum"]) / dt
    du = np.diff(s["u_mean"]) / dt
    ds = np.diff(s["s_sys"]) / dt
    q_env = w_on - du  # heat export rate, exact by the discrete first law
    dh = np.diff(s["label_entropy"]) / dt
    i_irr = np.maximum(-dh, 0.0)
    mid = 0.5 * (t[:-1] + t[1:])
    return {
        "times": mid,
        "w_dot": -w_on,
        "i_irr_dot": i_irr,
        "f_sys_dot": du - T_env * ds,
        "s_prod_dot": ds + q_env / T_env,
    }, T_env


# ---------------------------------------------------------------------------
# safety monitor
# ---------------------------------------------------------------------------

@dataclass
class SafetyLimits:
    chi_range: tuple = (0.0, np.inf)
    P_max: float = np.inf
    I_dot_max: float = np.inf
    s_crit: float = np.inf
    f_max: float = np.inf

    def __post_init__(self):
        lo, hi = self.chi_range
        if not lo < hi:
            raise ValueError("chi_range must satisfy chi_min < chi_max")
        if min(self.P_max, self.I_dot_max, self.s_crit, self.f_max) <= 0:
            raise ValueError("all limits must be positive")


@dataclass
class ViolationReport:
    first_violation_time: Optional[float]
    counts: dict
    n_samples: int

    @property
    def total(self):
        return sum(self.counts.values())


def safety_monitor(flux_series, limits: SafetyLimits, window=100) -> ViolationReport:
    """Flag every sample violating a flux or windowed-efficiency limit.

    `window` counts samples for the trailing work-per-nat ratio; the ratio
    check is skipped while the windowed information flow is zero (undefined
    efficiency is reported by the throughput limits instead). Each limit is
    one boolean mask over the samples, and every trailing window is a
    difference of the same two cumulative sums.
    """
    t = np.asarray(flux_series["times"], dtype=float)
    w = np.asarray(flux_series["w_dot"], dtype=float)
    i = np.asarray(flux_series["i_irr_dot"], dtype=float)
    sp = np.asarray(flux_series["s_prod_dot"], dtype=float)
    f = np.asarray(flux_series.get("f_sys_dot", np.zeros_like(t)), dtype=float)
    cw = np.concatenate([[0.0], np.cumsum(w)])
    ci = np.concatenate([[0.0], np.cumsum(i)])
    end = np.arange(1, len(t) + 1)
    start = np.maximum(0, end - window)
    iw = ci[end] - ci[start]
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = (cw[end] - cw[start]) / iw
    lo, hi = limits.chi_range
    masks = {"power": w > limits.P_max,
             "info_rate": i > limits.I_dot_max,
             "entropy_rate": (sp < 0) | (sp > limits.s_crit),
             "free_energy_rate": np.abs(f) > limits.f_max,
             "chi": (iw > 0) & ~((lo <= chi) & (chi <= hi))}
    bad = np.logical_or.reduce(list(masks.values()))
    first = float(t[bad.argmax()]) if bad.any() else None
    return ViolationReport(first_violation_time=first, n_samples=len(t),
                           counts={k: int(m.sum()) for k, m in masks.items()})
