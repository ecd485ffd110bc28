"""Memory capacity of a unit-renormalized rotor reservoir vs dissipation.

A bank of planar rotations (block-antisymmetric generator) carries the input
history; an isotropic relaxation channel of strength lambda erodes it. With
the state renormalized to unit norm after each step, the entropy export rate
is exactly lambda, so the information cost column is lambda/alpha by
construction and the efficiency column is alpha * MC / (T * lambda).
"""

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import InvalidConfigError, check_fields
from ..numerics import SeededRng, ridge_fit
from .base import ExperimentResult, sweep


@dataclass(frozen=True)
class Exp1Config:
    dim: int = 300
    rot_pairs: int = 149         # reversible sector = 2 * rot_pairs coordinates
    k_lags: int = 20
    steps: int = 4000            # half train, half test
    dt: float = 0.1              # lambda_max * dt = 1: the top of the sweep is memoryless
    lambda_grid: tuple = tuple(np.logspace(-3, 1, 10))
    alpha: float = 1.0
    amp1: float = 1.0
    amp2: float = 1.0
    omega1: float = 1.0
    omega2: float = float(np.sqrt(2.0))  # incommensurate with omega1
    input_noise: float = 0.7
    state_noise: float = 0.01
    ridge: float = 1e-6
    freq_low: float = 2.0
    freq_high: float = 40.0

    POSITIVE = ("dim", "k_lags", "dt", "lambda_grid", "alpha")  # lambda > 0 keeps chi finite
    NONNEGATIVE = ("rot_pairs", "input_noise", "state_noise", "ridge")

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        check_fields(self)
        if not self.lambda_grid or sorted(self.lambda_grid) != list(self.lambda_grid):
            raise InvalidConfigError("lambda_grid must be nonempty and sorted ascending")
        if 2 * self.rot_pairs > self.dim:
            raise InvalidConfigError("rot_pairs too large for dim")
        if self.freq_low > self.freq_high:
            raise InvalidConfigError(f"freq_low must be <= freq_high, got {self.freq_low} > {self.freq_high}")
        if self.steps < 4 * self.k_lags:
            raise InvalidConfigError("steps must cover several lag windows")


def make_input(cfg: Exp1Config, rng: SeededRng):
    t = np.arange(cfg.steps) * cfg.dt
    u = cfg.amp1 * np.sin(cfg.omega1 * t) + cfg.amp2 * np.sin(cfg.omega2 * t)
    u = u + cfg.input_noise * rng.generator().standard_normal(cfg.steps)
    return u


def lagged_r2(states, u, k_lags, ridge, n_skip):
    """Per-lag squared correlation of ridge readouts, clamped to [0, 1].

    Every lag is read out from the same training states by one ridge_fit
    call, and the test predictions of all lags are one (T_test, k_lags)
    product. A lag whose prediction or target has a standard deviation
    below 1e-300 gets r^2 = 0.
    """
    idx = np.arange(n_skip, len(u))
    half = len(idx) // 2
    train, test = idx[:half], idx[half:]
    lags = np.arange(1, k_lags + 1)
    # train and test are contiguous row ranges, so the states are read as views;
    # column k - 1 holds u[row - k]
    w = ridge_fit(states[n_skip : n_skip + half], u[train[:, None] - lags], ridge)
    pred = states[n_skip + half : len(u)] @ w
    target = u[test[:, None] - lags]
    sp, st = pred.std(axis=0), target.std(axis=0)
    cov = ((pred - pred.mean(axis=0)) * (target - target.mean(axis=0))).mean(axis=0)
    spread = (sp >= 1e-300) & (st >= 1e-300)
    # one spread at a time, as np.corrcoef divides: sp * st can underflow to 0
    # where each spread passes, and |cov / sp| <= st cannot overflow
    c = np.zeros(k_lags)
    np.divide(cov, sp, out=c, where=spread)
    np.divide(c, st, out=c, where=spread)
    return np.clip(c * c, 0.0, 1.0)


def run_exp1(cfg: Exp1Config, seed: int, threads: int = 1) -> ExperimentResult:
    base = SeededRng(seed)
    omegas = base.derive(0).generator().uniform(cfg.freq_low, cfg.freq_high, cfg.rot_pairs)
    bvec = base.derive(1).generator().standard_normal(cfg.dim)
    bvec /= np.linalg.norm(bvec)
    u = make_input(cfg, base.derive(2))
    noise = cfg.state_noise * np.sqrt(cfg.dt) * base.derive(3).generator().standard_normal((cfg.steps, cfg.dim))
    x0 = base.derive(4).generator().standard_normal(cfg.dim)
    x0 /= np.linalg.norm(x0)

    horizon = cfg.steps * cfg.dt

    def sweep_point(lam):
        states = np.empty((cfg.steps, cfg.dim))
        kernels.rotor_chunk(x0.copy(), omegas, lam, bvec, u, noise, cfg.dt, states)
        r2 = lagged_r2(states, u, cfg.k_lags, cfg.ridge, n_skip=2 * cfg.k_lags)
        mc = float(r2.sum())
        # unit-renormalized state: entropy export rate is exactly lambda
        return {"lambda": lam, "MC": mc, "I_irr_rate": lam / cfg.alpha,
                "chi": cfg.alpha * mc / (horizon * lam)}

    result = ExperimentResult(
        name="exp1",
        columns=["lambda", "MC", "I_irr_rate", "chi"],
        metadata={"seed": seed, "config": cfg.__dict__.copy()},
    )
    for row in sweep(sweep_point, cfg.lambda_grid, threads):
        result.add_row(**row)
    return result
