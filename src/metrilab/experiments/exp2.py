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

from ..cce import EncodingSpace, label_jumps
from ..errors import InvalidConfigError, check_fields
from ..numerics import SeededRng
from .base import ExperimentResult

_BANK_BLOCK = 64  # bank steps per normal draw and per observed-signal pass


@dataclass(frozen=True)
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

    POSITIVE = ("freqs", "trials_per_freq", "dt", "amp", "bits", "alpha")
    NONNEGATIVE = ("gamma", "osc_noise", "obs_noise", "hyst_frac")

    def __post_init__(self):
        check_fields(self)
        if not self.freqs or len(set(self.freqs)) < len(self.freqs):
            raise InvalidConfigError(f"freqs must be nonempty and distinct, got {self.freqs}")
        if not 0 < self.lock_window_frac <= 1:
            raise InvalidConfigError("lock_window_frac must lie in (0, 1]")
        if self.steps < 1:
            raise InvalidConfigError("horizon must cover at least one step of dt")

    @property
    def steps(self):
        return int(round(self.horizon / self.dt))


def _run_bank(cfg: Exp2Config, omega_in, phase, rng: SeededRng):
    """Vectorized run of all trials: returns (osc scores, I_irr per trial,
    observed-signal samples for the register machine).

    Each step draws n_trials observation normals, then n_trials * k phase
    normals; a (block, n_trials * (1 + k)) draw is `block` such steps in a
    row. Only the phase update runs step by step: the observed signal is
    computed a block at a time before it, and the dissipation and demodulation
    sums a block at a time after it, as cumulative sums that add the steps in
    their order.
    """
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
    kick = cfg.osc_noise * np.sqrt(cfg.dt)
    blk = min(_BANK_BLOCK, steps)
    draws = np.empty((blk, n_trials * (1 + k)))
    cu = np.empty((blk, n_trials, 1))
    sin_blk = np.empty((blk, n_trials, k))
    cos_blk = np.empty((blk, n_trials, k))
    prod = np.empty((blk, n_trials, k))
    rate = np.empty((blk, n_trials))
    buf = np.empty((n_trials, k))
    dtheta = np.empty((n_trials, k))
    for s0 in range(0, steps, blk):
        b = min(blk, steps - s0)
        d = gen.standard_normal(out=draws[:b])
        obs = d[:, :n_trials]
        obs *= cfg.obs_noise
        kicks = d[:, n_trials:].reshape(b, n_trials, k)
        kicks *= kick
        u_blk = u_obs[s0 : s0 + b]
        np.multiply(np.arange(s0, s0 + b)[:, None] * cfg.dt, omega_in, out=u_blk)
        u_blk += phase
        np.sin(u_blk, out=u_blk)
        u_blk *= cfg.amp
        u_blk += obs
        u3 = u_blk[:, :, None]
        np.multiply(u3, cfg.couple, out=cu[:b])
        sin_b, cos_b, prod_b, rate_b = sin_blk[:b], cos_blk[:b], prod[:b], rate[:b]
        for j in range(b):
            # theta += dt * (omegas + couple * u * cos - gamma * sin) + kick
            sin_t = np.sin(theta, out=sin_b[j])
            cos_t = np.cos(theta, out=cos_b[j])
            np.multiply(cos_t, cu[j], out=dtheta)
            dtheta += omegas
            np.multiply(sin_t, cfg.gamma, out=buf)
            dtheta -= buf
            dtheta *= cfg.dt
            theta += dtheta
            theta += kicks[j]
        np.multiply(sin_b, sin_b, out=prod_b)
        prod_b.sum(axis=2, out=rate_b)
        rate_b *= cfg.gamma
        rate_b *= cfg.dt
        _accumulate(diss, rate_b)
        w0 = max(w_start - s0, 0)
        if w0 < b:
            _accumulate(s_sin, np.multiply(sin_b[w0:], u3[w0:], out=prod_b[w0:]))
            _accumulate(s_cos, np.multiply(cos_b[w0:], u3[w0:], out=prod_b[w0:]))
    scores = s_sin**2 + s_cos**2
    return scores, diss / cfg.alpha, u_obs


def _accumulate(total, terms):
    """total += terms[0]; total += terms[1]; ..., one term after another;
    `terms` is overwritten."""
    terms[0] += total
    np.add.accumulate(terms, axis=0, out=terms)
    total[...] = terms[-1]


def _digital_classify(cfg: Exp2Config, u_obs):
    """Hysteresis-gated zero-crossing counter machine: returns per-trial
    (predicted index, reset count).

    The comparator is the encoding EncodingSpace((0, 1), -h, h): a trial's
    crossings are the label jumps of its samples, read hold-previous from
    its starting sign, so a sample at +-h exactly or NaN keeps the state.
    """
    n_trials = u_obs.shape[1]
    h = cfg.hyst_frac * cfg.amp
    comparator = EncodingSpace((0, 1), -h, h)
    periods = 2.0 * np.pi / np.asarray(cfg.freqs)
    pred = np.empty(n_trials, dtype=int)
    resets = np.empty(n_trials, dtype=int)
    for i in range(n_trials):
        u = u_obs[:, i]
        cross_times = np.flatnonzero(label_jumps(comparator.classify(u), start=int(u[0] > 0))[1])
        resets[i] = len(cross_times)
        if len(cross_times) < 2:
            pred[i] = 0
            continue
        half = np.diff(cross_times) * cfg.dt
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
            "cost_ratio": dig_cost / osc_cost if osc_cost > 0 else None,
        },
    )
    result.add_row(substrate="oscillator", accuracy=osc_acc, I_irr=osc_cost,
                   chi=osc_acc / osc_cost if osc_cost > 0 else 0.0)
    result.add_row(substrate="digital", accuracy=dig_acc, I_irr=dig_cost,
                   chi=dig_acc / dig_cost if dig_cost > 0 else 0.0)
    return result
