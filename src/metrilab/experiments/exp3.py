"""One-step prediction gain per unit state-update activity across a spectral sweep.

A leaky tanh echo-state reservoir is rebuilt at each spectral radius from one
base random matrix, driven by a noisy multi-sine, and trained by ridge
regression to predict the next observation. Useful work is the test-MSE
improvement over the persistence predictor; the cost proxy is the mean
squared state update on the test stretch.
"""

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import InvalidConfigError, check_fields
from ..numerics import SeededRng, ridge_fit, spectral_radius
from .base import ExperimentResult, sweep

# Spectral radii stepped together by one esn_collect call. Four 200-unit
# matrices (1.3 MB) stay within a 2 MB L2 cache; the whole grid at once
# would not, and its states would raise the process's peak memory.
_RHO_BLOCK = 4


@dataclass(frozen=True)
class Exp3Config:
    n_reservoir: int = 200
    leak: float = 0.3
    input_scale: float = 0.2
    ridge: float = 1e-6
    washout: int = 200
    train: int = 1000
    test: int = 1000
    rho_grid: tuple = tuple(np.linspace(0.1, 1.8, 20))
    eps: float = 1e-6
    amps: tuple = (1.0, 0.7, 0.5)
    periods: tuple = (17.0, 31.0, 59.0)  # steps per cycle
    signal_noise: float = 0.1
    state_noise: float = 0.03  # update jitter; weak reservoirs cannot lift the
                               # signal above this floor, near-critical ones can

    POSITIVE = ("n_reservoir", "rho_grid", "periods")
    NONNEGATIVE = ("ridge", "washout", "eps", "signal_noise", "state_noise")

    def __post_init__(self):
        object.__setattr__(self, "rho_grid", tuple(float(r) for r in self.rho_grid))
        check_fields(self)
        if not self.rho_grid or sorted(self.rho_grid) != list(self.rho_grid):
            raise InvalidConfigError("rho_grid must be nonempty and sorted ascending")
        if not 0 < self.leak <= 1:
            raise InvalidConfigError("leak must lie in (0, 1]")
        if self.train < 10 or self.test < 10:
            raise InvalidConfigError("train and test must be >= 10 steps")
        if len(self.amps) != len(self.periods):
            raise InvalidConfigError("amps and periods must have the same length")

    @property
    def total_steps(self):
        return self.washout + self.train + self.test


def make_signal(cfg: Exp3Config, rng: SeededRng):
    gen = rng.generator()
    t = np.arange(cfg.total_steps + 1, dtype=float)
    phases = gen.uniform(0.0, 2.0 * np.pi, len(cfg.periods))
    y = np.zeros_like(t)
    for amp, period, ph in zip(cfg.amps, cfg.periods, phases):
        y += amp * np.sin(2.0 * np.pi * t / period + ph)
    y += cfg.signal_noise * gen.standard_normal(len(t))
    return y


def run_exp3(cfg: Exp3Config, seed: int, threads: int = 1) -> ExperimentResult:
    base = SeededRng(seed)
    gen = base.derive(0).generator()
    W0 = gen.uniform(-1.0, 1.0, (cfg.n_reservoir, cfg.n_reservoir))
    win = cfg.input_scale * gen.uniform(-1.0, 1.0, cfg.n_reservoir)
    y = make_signal(cfg, base.derive(1))
    state_noise = cfg.state_noise * base.derive(2).generator().standard_normal(
        (cfg.total_steps, cfg.n_reservoir))

    rho0 = spectral_radius(W0)
    W_unit = W0 / rho0  # rescale once; per-rho matrices are exact multiples

    t0 = cfg.washout
    t1 = cfg.washout + cfg.train
    t2 = cfg.total_steps
    test_targets = y[t1 + 1 : t2 + 1]
    mse_base = float(np.mean((test_targets - y[t1:t2]) ** 2))

    def readout(rho, states):
        w = ridge_fit(states[t0:t1], y[t0 + 1 : t1 + 1], cfg.ridge)
        pred = states[t1:t2] @ w
        mse_res = float(np.mean((pred - test_targets) ** 2))
        delta_e = mse_base - mse_res
        c = float(np.mean(np.sum(np.diff(states[t1 - 1 : t2], axis=0) ** 2, axis=1)))
        return {"rho": rho, "deltaE": delta_e, "C": c, "chi": delta_e / (c + cfg.eps)}

    def sweep_block(rhos):
        W = np.array(rhos)[:, None, None] * W_unit
        states = [np.empty((cfg.total_steps, cfg.n_reservoir)) for _ in rhos]
        kernels.esn_collect(W, win, y[:cfg.total_steps], cfg.leak, state_noise, states)
        return [readout(rho, s) for rho, s in zip(rhos, states)]

    result = ExperimentResult(
        name="exp3",
        columns=["rho", "deltaE", "C", "chi"],
        metadata={"seed": seed, "config": cfg.__dict__.copy(), "mse_base": mse_base},
    )
    blocks = [cfg.rho_grid[i : i + _RHO_BLOCK] for i in range(0, len(cfg.rho_grid), _RHO_BLOCK)]
    for rows in sweep(sweep_block, blocks, threads):
        for row in rows:
            result.add_row(**row)
    return result
