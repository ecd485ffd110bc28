"""Frequency discrimination on two substrates with matched accuracy.

An entrainment bank of weakly damped phase rotators locks its matching
member onto the drive and is read out by quadrature demodulation of each
rotator against the observed signal; its information cost integrates the
dissipative channel gamma * sin(theta)^2 along the run. The register
machine counts clock ticks between hysteresis-gated zero crossings and pays
B*ln(2) per counter reset. Both classify perfectly at the defaults; the
cost ratio is what separates them.
"""

from dataclasses import dataclass

import numpy as np

from ..cce import BOUNDARY, EncodingSpace, encoding_path_length
from ..errors import InvalidConfigError
from ..numerics import SeededRng, Trajectory
from .base import ExperimentResult

LOCK_WINDOW_TIME = 10.0  # trailing window of the lock/drift phase-progress label
LOCK_RAD = 0.5           # progress per window below which a rotator is locked
DRIFT_RAD = 2.0          # progress per window above which it drifts


@dataclass
class Exp2Config:
    freqs: tuple = (0.6, 1.0, 1.6, 2.4)
    trials_per_freq: int = 50
    horizon: float = 60.0
    dt: float = 0.01
    amp: float = 1.0
    couple: float = 0.3          # drive-to-phase coupling strength
    gamma: float = 1e-3          # weak dissipative channel
    osc_noise: float = 0.01
    obs_noise: float = 0.05      # measurement noise on the observed signal
    bits: int = 16
    hyst_frac: float = 0.1       # hysteresis band, fraction of amplitude
    alpha: float = 1.0
    lock_window_frac: float = 0.75

    def __post_init__(self):
        if len(self.freqs) < 1:
            raise InvalidConfigError("need at least one candidate frequency")
        if self.trials_per_freq < 1:
            raise InvalidConfigError("trials_per_freq must be >= 1")
        if not 0 < self.lock_window_frac <= 1:
            raise InvalidConfigError("lock_window_frac must lie in (0, 1]")
        if not (self.dt > 0 and self.alpha > 0 and np.isfinite(self.horizon)):
            raise InvalidConfigError("dt and alpha must be > 0 and horizon finite")
        if self.steps < 1:
            raise InvalidConfigError("horizon must cover at least one step of dt")

    @property
    def steps(self):
        return int(round(self.horizon / self.dt))


def _run_bank(cfg: Exp2Config, omega_in, phase, rng: SeededRng):
    """Vectorized run of all trials: returns (osc scores, I_irr per trial,
    observed-signal samples for the register machine)."""
    n_trials = omega_in.size
    k = len(cfg.freqs)
    steps = cfg.steps
    gen = rng.generator()
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(n_trials, k))
    omegas = np.asarray(cfg.freqs)
    s_sin = np.zeros((n_trials, k))
    s_cos = np.zeros((n_trials, k))
    diss = np.zeros(n_trials)
    u_obs = np.empty((steps, n_trials))
    w_start = int(round((1.0 - cfg.lock_window_frac) * steps))
    sq = np.sqrt(cfg.dt)
    for s in range(steps):
        t = s * cfg.dt
        u = cfg.amp * np.sin(omega_in * t + phase)
        u = u + cfg.obs_noise * gen.standard_normal(n_trials)
        u_obs[s] = u
        sin_t = np.sin(theta)
        diss += cfg.gamma * (sin_t * sin_t).sum(axis=1) * cfg.dt
        if s >= w_start:
            s_sin += sin_t * u[:, None]
            s_cos += np.cos(theta) * u[:, None]
        dtheta = omegas[None, :] + cfg.couple * u[:, None] * np.cos(theta) - cfg.gamma * sin_t
        theta = theta + cfg.dt * dtheta + cfg.osc_noise * sq * gen.standard_normal((n_trials, k))
    scores = s_sin**2 + s_cos**2
    return scores, diss / cfg.alpha, u_obs


def _digital_classify(cfg: Exp2Config, u_obs):
    """Hysteresis-gated zero-crossing counter machine: returns per-trial
    (predicted index, reset count)."""
    steps, n_trials = u_obs.shape
    h = cfg.hyst_frac * cfg.amp
    periods = 2.0 * np.pi / np.asarray(cfg.freqs)
    pred = np.empty(n_trials, dtype=int)
    resets = np.empty(n_trials, dtype=int)
    for i in range(n_trials):
        u = u_obs[:, i]
        state = 1 if u[0] > 0 else 0
        cross_times = []
        for s in range(steps):
            if state == 0 and u[s] > h:
                state = 1
                cross_times.append(s)
            elif state == 1 and u[s] < -h:
                state = 0
                cross_times.append(s)
        resets[i] = len(cross_times)
        if len(cross_times) < 2:
            pred[i] = 0
            continue
        half = np.diff(np.asarray(cross_times)) * cfg.dt
        est_period = 2.0 * float(np.median(half))
        pred[i] = int(np.argmin(np.abs(est_period - periods)))
    return pred, resets


def run_exp2(cfg: Exp2Config, seed: int) -> ExperimentResult:
    base = SeededRng(seed)
    k = len(cfg.freqs)
    n_trials = k * cfg.trials_per_freq
    gen = base.derive(0).generator()
    true_idx = np.repeat(np.arange(k), cfg.trials_per_freq)
    gen.shuffle(true_idx)
    omega_in = np.asarray(cfg.freqs)[true_idx]
    phase = gen.uniform(0.0, 2.0 * np.pi, n_trials)

    scores, i_osc, u_obs = _run_bank(cfg, omega_in, phase, base.derive(1))
    osc_pred = scores.argmax(axis=1)
    osc_acc = float((osc_pred == true_idx).mean())
    osc_cost = float(i_osc.mean())

    dig_pred, resets = _digital_classify(cfg, u_obs)
    dig_acc = float((dig_pred == true_idx).mean())
    dig_i = resets * cfg.bits * np.log(2.0) / cfg.alpha
    dig_cost = float(dig_i.mean())

    result = ExperimentResult(
        name="exp2",
        columns=["substrate", "accuracy", "I_irr", "chi"],
        metadata={
            "seed": seed,
            "config": cfg.__dict__.copy(),
            "bits": cfg.bits,
            "clock_period": cfg.dt,
            "mean_resets": float(resets.mean()),
            "cost_ratio": dig_cost / osc_cost if osc_cost > 0 else float("inf"),
        },
    )
    result.add_row(substrate="oscillator", accuracy=osc_acc, I_irr=osc_cost,
                   chi=osc_acc / osc_cost if osc_cost > 0 else 0.0)
    result.add_row(substrate="digital", accuracy=dig_acc, I_irr=dig_cost,
                   chi=dig_acc / dig_cost if dig_cost > 0 else 0.0)
    return result


# ---------------------------------------------------------------------------
# lock/drift label sequence for path-length accounting
# ---------------------------------------------------------------------------

def lock_label_trajectory(cfg: Exp2Config, omega_in, seed):
    """Run a single rotator near the drive band and label each sample
    locked/drifting from the phase progress over a trailing window.

    A locked rotator keeps the relative phase bounded (progress well under a
    radian per window); a drifting one slips by many radians. The band
    between the two thresholds is undecided, so path-length counting with
    hold-previous hysteresis absorbs transient chatter.
    """
    gen = SeededRng(seed).generator()
    steps = cfg.steps
    theta = gen.uniform(0.0, 2.0 * np.pi)
    psi = np.empty(steps)
    sq = np.sqrt(cfg.dt)
    omega0 = cfg.freqs[0]
    for s in range(steps):
        t = s * cfg.dt
        u = cfg.amp * np.sin(omega_in * t) + cfg.obs_noise * gen.standard_normal()
        dtheta = omega0 + cfg.couple * u * np.cos(theta) - cfg.gamma * np.sin(theta)
        theta = theta + cfg.dt * dtheta + cfg.osc_noise * sq * gen.standard_normal()
        psi[s] = theta - omega_in * t
    w = max(1, int(round(LOCK_WINDOW_TIME / cfg.dt)))
    progress = np.empty(steps)
    for s in range(steps):
        lo = max(0, s - w)
        span = (s - lo) * cfg.dt
        # scale partial windows up so early samples use the same threshold units
        progress[s] = abs(psi[s] - psi[lo]) * (LOCK_WINDOW_TIME / span) if span > 0 else np.inf

    def classify(v, c=0.0):
        if v < LOCK_RAD:
            return "lock"
        if v > DRIFT_RAD:
            return "drift"
        return BOUNDARY

    space = EncodingSpace(labels=("lock", "drift"), classify=classify, alpha=cfg.alpha)
    traj = Trajectory(cfg.dt * np.arange(steps), progress[:, None])
    return traj, space


def lock_path_length(cfg: Exp2Config, omega_in, seed):
    traj, space = lock_label_trajectory(cfg, omega_in, seed)
    count, ledger = encoding_path_length(traj, space)
    return count, ledger
