"""Fixed-step integrators, ridge regression, spectral rescaling, seeded RNG.

All randomness in the package flows through :class:`SeededRng`, which wraps
numpy's PCG64 generator. Gaussian draws use numpy's ziggurat implementation
(`Generator.standard_normal`), which is deterministic for a fixed seed and
stable across platforms.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationDivergedError, NoConvergenceError, SingularMatrixError

POWER_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle: identical (seed, stream) -> identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.seed, self.stream))))

    def derive(self, k: int) -> "SeededRng":
        """Child stream `k`, independent of this one and of other children."""
        return SeededRng(self.seed, self.stream * 1_000_003 + k + 1)


@dataclass
class Trajectory:
    """Uniform-step trajectory: times[i] = t0 + i*dt, states[i] in R^n."""

    times: np.ndarray
    states: np.ndarray
    fluxes: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if len(self.times) > 1:
            dts = np.diff(self.times)
            if np.any(dts <= 0):
                raise ValueError("times must be strictly increasing")
            if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
                raise ValueError("time grid must have constant step")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _check_finite(x, step):
    if not np.all(np.isfinite(x)):
        raise IntegrationDivergedError(step)


def integrate_rk4(field, x0, dt, steps) -> Trajectory:
    """Classical fourth-order Runge-Kutta on a time-independent vector field."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    f = lambda s: np.asarray(field(s))
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for i in range(steps):
        x = rk4_step(f, x, dt)
        _check_finite(x, i)
        out[i + 1] = x
    times = dt * np.arange(steps + 1)
    return Trajectory(times, out)


def rk4_step(field, x, dt):
    """One classical RK4 step of x' = field(x): the package's single RK4
    step. x may have any shape, so a (batch, n) state steps every row at once
    when field maps rows independently."""
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_em(drift, diffusion, x0, dt, steps, rng: SeededRng) -> Trajectory:
    """Euler-Maruyama: x' = x + drift(x) dt + diffusion * sqrt(dt) * N(0,1).

    `diffusion` is a scalar or per-coordinate array of noise amplitudes; with
    diffusion = 0 the result is bitwise identical to explicit Euler.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    diff = np.broadcast_to(np.asarray(diffusion, dtype=float), x.shape)
    if np.any(diff < 0):
        raise ValueError("diffusion must be nonnegative")
    gen = rng.generator()
    sq = np.sqrt(dt)
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for i in range(steps):
        x = x + dt * np.asarray(drift(x)) + diff * sq * gen.standard_normal(x.size)
        _check_finite(x, i)
        out[i + 1] = x
    return Trajectory(dt * np.arange(steps + 1), out)


def ridge_fit(features, targets, regularizer) -> np.ndarray:
    """Minimize ||X w - y||^2 + regularizer * ||w||^2 via normal equations.

    Solved with a Cholesky factorization of (X^T X + reg I); a singular system
    at regularizer = 0 raises SingularMatrixError.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("features must be a T x n matrix with T >= 1")
    if regularizer < 0:
        raise ValueError("regularizer must be nonnegative")
    A = X.T @ X + regularizer * np.eye(X.shape[1])
    b = X.T @ y
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations not positive definite: {exc}") from exc
    w = np.linalg.solve(L.T, np.linalg.solve(L, b))
    return w


def spectral_radius(W, tol=1e-4, cap=POWER_ITERATION_CAP) -> float:
    """Spectral radius by direct power iteration with periodic normalization.

    The estimate is the running mean of log growth factors past a short
    warmup, which converges even when the dominant eigenvalues are a complex
    pair (oscillating per-step growth). Converged when successive estimates
    agree within tol relative.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0x5EED)))
    x = gen.standard_normal(n)
    x /= np.linalg.norm(x)
    check_every = 32
    logs = np.empty(cap)
    prev_est = None
    for it in range(cap):
        y = W @ x
        ny = np.linalg.norm(y)
        if ny < 1e-300:
            return 0.0
        x = y / ny
        logs[it] = np.log(ny)
        if (it + 1) % check_every == 0 and it > 64:
            # mean log growth over the trailing half discards the transient
            half = (it + 1) // 2
            est = float(np.exp(logs[half : it + 1].mean()))
            if prev_est is not None and abs(est - prev_est) < tol * max(est, 1e-30):
                return est
            prev_est = est
    raise NoConvergenceError(f"power iteration did not converge in {cap} iterations")


def rescale_spectral_radius(W, target, tol=1e-3) -> np.ndarray:
    """Return (target / rho(W)) * W with rho estimated by power iteration."""
    if target <= 0:
        raise ValueError("target must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho = spectral_radius(W, tol=min(1e-2 * tol, 1e-5))
    if rho == 0.0:
        raise NoConvergenceError("matrix has zero spectral radius; cannot rescale")
    return (target / rho) * np.asarray(W, dtype=float)
