"""Scalar efficiency measures and numerical bound checks.

Work-per-nat ratios (work per irreversible nat, work per preserved nat, and
the relative gain of coupling over a separable baseline) plus three checks:
the current-fluctuation bound, the mutual-information trace bound, and the
isothermal power bound. Each check returns lhs/rhs values with a `satisfied`
flag that allows for estimator noise.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuits import (
    FLIPFLOP_BAND,
    CircuitGraph,
    LogicalReadout,
    flipflop_space,
    integrate_circuit,
    read_stored_bit,
)
from .errors import (
    AmbiguousStateError,
    ChannelIrregularError,
    InsufficientDataError,
    UndefinedBaselineError,
    UndefinedConsciousnessError,
    UndefinedIntelligenceError,
)
from .numerics import SeededRng


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


def cumulative_intelligence(w_rates, i_rates, dt):
    """Ratio of integrated fluxes (left-endpoint sums), NOT the integral of the
    pointwise ratio: segments with zero information rate are averaged through."""
    w = float(np.sum(w_rates) * dt)
    i = float(np.sum(i_rates) * dt)
    return intelligence(w, i)


def consciousness(w_goal, i_preserved):
    """Goal-directed work per nat of information preserved over the horizon."""
    if i_preserved <= 0:
        raise UndefinedConsciousnessError("no preserved information over the horizon")
    return w_goal / i_preserved


def emergence_index(chi_coupled, chi_separable):
    """Relative gain of the coupled system over its decoupled baseline."""
    if chi_separable <= 0:
        raise UndefinedBaselineError("separable baseline must be positive")
    return (chi_coupled - chi_separable) / chi_separable


# ---------------------------------------------------------------------------
# current-fluctuation (precision-dissipation) check
# ---------------------------------------------------------------------------

def tur_check(current_samples, sigma_T, alpha=1.0, bootstrap=200):
    """Check Var(J_T)/E[J_T]^2 >= 2*alpha/Sigma_T on an ensemble of currents.

    `satisfied` allows the lhs a downward slack of 3 bootstrap standard errors
    (eps_stat = 3*SE/rhs). A near-zero mean marks the ratio infinite and the
    bound vacuously satisfied.
    """
    j = np.asarray(current_samples, dtype=float)
    if j.size < 100:
        raise ValueError("need at least 100 current samples")
    mean = j.mean()
    var = j.var(ddof=1)
    rhs = np.inf if sigma_T <= 0 else 2.0 * alpha / sigma_T
    if abs(mean) < 1e-12 * max(j.std(), 1e-300):
        return {"lhs": np.inf, "rhs": rhs, "satisfied": True, "slack": np.inf,
                "eps_stat": 0.0, "mean_zero": True}
    lhs = var / mean**2
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xB007)))
    idx = gen.integers(0, j.size, size=(bootstrap, j.size))
    boots = j[idx]
    bl = boots.var(axis=1, ddof=1) / boots.mean(axis=1) ** 2
    se = float(bl.std(ddof=1))
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


def mutual_information_quadrature(channel, z_atoms, weights, y_points=4001, pad=8.0):
    """I(Z;Y) for an atomized input prior, by fine trapezoid quadrature over y.

    Returns (mi, per_atom_kl) where mi = sum_i w_i KL(p(.|z_i) || p_mix)."""
    z = np.asarray(z_atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = channel.mean_fn(z)
    lo = float(m.min() - pad * channel.sigma)
    hi = float(m.max() + pad * channel.sigma)
    y = np.linspace(lo, hi, y_points)
    ll = channel.log_likelihood(y[None, :], z[:, None])  # (atoms, y)
    p = np.exp(ll)
    pmix = w @ p
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(p > 0, p * (ll - np.log(np.maximum(pmix, 1e-300))[None, :]), 0.0)
    kl = np.trapezoid(integrand, y, axis=1)
    return float(w @ kl), kl


def trace_bound_check(channel, prior_samples, mc_samples=0, rng: Optional[SeededRng] = None,
                      gl_nodes=16, eps_floor=1e-6):
    """Check I(Z;Y) <= 0.5 * tr(G) for a scalar channel and a sample-set prior.

    G couples input spread with the path-averaged Fisher information along
    straight interpolation paths (Gauss-Legendre on s in [0,1]). `tightness`
    compares the information against the covariance-weighted reference
    0.5 * Var(Z) * mean path Fisher, which linear-Gaussian channels saturate
    in the low-SNR limit.
    """
    if prior_samples is None:
        if rng is None or mc_samples < 2:
            raise ValueError("need prior samples or (mc_samples, rng)")
        prior_samples = rng.generator().standard_normal(mc_samples)
    z = np.asarray(prior_samples, dtype=float)
    if np.unique(z).size < 2:
        return {"c_t": 0.0, "half_trace_G": 0.0, "satisfied": True,
                "tightness": 1.0, "eps_num": eps_floor}
    n = z.size
    w = np.full(n, 1.0 / n)

    mi, per_atom = mutual_information_quadrature(channel, z, w)
    se = float(per_atom.std(ddof=1) / np.sqrt(n))

    nodes, wts = np.polynomial.legendre.leggauss(gl_nodes)
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
    eps = eps_floor + 3.0 * se
    return {
        "c_t": mi,
        "half_trace_G": half_trace,
        "satisfied": bool(mi <= half_trace + eps),
        "tightness": mi / ref if ref > 0 else 1.0,
        "eps_num": eps,
    }


# ---------------------------------------------------------------------------
# isothermal power bound
# ---------------------------------------------------------------------------

def classical_bound_check(fluxes, T_env, i_irr_total=None, kB=1.0, stat_tol=0.0):
    """Time-averaged check of W_dot <= kB*T_env*Iirr_dot - F_sys_dot - T_env*Sprod_dot.

    `fluxes` carries per-time series: times, w_dot (power delivered by the
    system), i_irr_dot (nats/time), f_sys_dot, s_prod_dot. Averages use the
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
    iirr = (i_irr_total / span) if i_irr_total is not None else avg("i_irr_dot")
    rhs = kB * T_env * iirr - avg("f_sys_dot") - T_env * avg("s_prod_dot")
    return {"lhs_power": lhs, "rhs_power": rhs,
            "satisfied": bool(lhs <= rhs + stat_tol), "slack": rhs - lhs}


def report_fluxes(report, kB=1.0):
    """Derive the power-bound flux series from a double-well protocol report.

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
    T_env = report.kT / kB
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
# safety monitor and recovery probe
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
    efficiency is reported by the throughput limits instead).
    """
    t = np.asarray(flux_series["times"], dtype=float)
    w = np.asarray(flux_series["w_dot"], dtype=float)
    i = np.asarray(flux_series["i_irr_dot"], dtype=float)
    sp = np.asarray(flux_series["s_prod_dot"], dtype=float)
    f = np.asarray(flux_series.get("f_sys_dot", np.zeros_like(t)), dtype=float)
    counts = {"power": 0, "info_rate": 0, "entropy_rate": 0, "free_energy_rate": 0, "chi": 0}
    first = None
    cw = np.concatenate([[0.0], np.cumsum(w)])
    ci = np.concatenate([[0.0], np.cumsum(i)])
    for k in range(len(t)):
        bad = []
        if w[k] > limits.P_max:
            bad.append("power")
        if i[k] > limits.I_dot_max:
            bad.append("info_rate")
        if sp[k] < 0 or sp[k] > limits.s_crit:
            bad.append("entropy_rate")
        if abs(f[k]) > limits.f_max:
            bad.append("free_energy_rate")
        lo = max(0, k + 1 - window)
        iw = ci[k + 1] - ci[lo]
        if iw > 0:
            chi = (cw[k + 1] - cw[lo]) / iw
            if not limits.chi_range[0] <= chi <= limits.chi_range[1]:
                bad.append("chi")
        for b in bad:
            counts[b] += 1
        if bad and first is None:
            first = float(t[k])
    return ViolationReport(first_violation_time=first, counts=counts, n_samples=len(t))


def recovery_probe(circuit: CircuitGraph, x_base, delta, T, trials, rng: SeededRng,
                   readout: Optional[LogicalReadout] = None):
    """Kick a settled bistable circuit with random perturbations of norm <= delta
    and measure the fraction returning to the original label (R_T) plus the
    mean ledger entropy spent on label transitions during recovery (C_T).

    All kicks are drawn first (direction, then radius, per trial); the trials
    then recover as one batch."""
    readout = readout or LogicalReadout()
    x_base = np.asarray(x_base, dtype=float)
    base_bit = read_stored_bit(circuit, x_base, readout)
    space = flipflop_space()
    gen = rng.generator()
    n = circuit.dim
    x0 = np.tile(x_base, (trials, 1))
    if delta > 0:
        for k in range(trials):
            direction = gen.standard_normal(n)
            direction /= np.linalg.norm(direction)
            r = delta * gen.uniform() ** (1.0 / n)
            x0[k] = x_base + r * direction
    traj = integrate_circuit(circuit, {"set": 0.0, "reset": 0.0}, x0, T, dt=readout.dt)
    # side of the band per (step, trial), -1 inside it; a band sample keeps
    # the side before it, starting from the base bit
    d = traj[:, :, 0] - traj[:, :, 1]
    side = np.vstack([np.full(trials, base_bit),
                      np.where(d > FLIPFLOP_BAND, 1, np.where(d < -FLIPFLOP_BAND, 0, -1))])
    seen = np.maximum.accumulate(np.where(side >= 0, np.arange(len(side))[:, None], 0), axis=0)
    jumps = np.count_nonzero(np.diff(np.take_along_axis(side, seen, axis=0), axis=0), axis=0)
    entropy = sum(j * space.alpha * np.log(2.0) for j in jumps.tolist())
    recovered = 0
    for x_final in traj[-1]:
        try:
            recovered += read_stored_bit(circuit, x_final, readout) == base_bit
        except AmbiguousStateError:
            continue
    return {"R_T": recovered / trials, "C_T": entropy / trials}
