"""The RK4 step, ridge regression, spectral radius, seeded RNG, trajectories.

All randomness in the package flows through :class:`SeededRng`, which wraps
numpy's PCG64 generator. Gaussian draws use numpy's ziggurat implementation
(`Generator.standard_normal`), which is deterministic for a fixed seed and
stable across platforms.

`blas_threads` reads the thread count of the OpenBLAS that numpy loaded. A
BLAS product's low bits can move with the BLAS kernel and its thread count,
so `cli.main` runs each subcommand under `one_blas_thread` and its manifest
records the count.
"""

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, SingularMatrixError

POWER_ITERATION_CAP = 10_000
#: float64 elements (512 KiB) in one working block of a row-blocked statistic
#: or a blocked noise draw; small enough that a block and its temporaries stay
#: in a core's L2 cache
BLOCK_ELEMENTS = 1 << 16


def _openblas_function(stem):
    """OpenBLAS's `openblas_<stem>` from the library mapped into this process,
    under whichever of its builds' export names it carries; None when no
    OpenBLAS is mapped or /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = (f"openblas_{stem}", f"openblas_{stem}64_",
             f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def blas_threads():
    """Thread count the mapped OpenBLAS reports, or None without one."""
    fn = _openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], ctypes.c_int
    return int(fn())


@contextlib.contextmanager
def one_blas_thread():
    """Pin the mapped OpenBLAS to one thread inside the block and restore its
    count after; yields the count in effect inside (None without OpenBLAS)."""
    set_threads = _openblas_function("set_num_threads")
    if set_threads is None:
        yield None
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    before = blas_threads()
    set_threads(1)
    try:
        yield blas_threads()
    finally:
        set_threads(before)


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


def rk4_step(field, x, dt):
    """One classical RK4 step of x' = field(x): the package's single RK4
    step. x may have any shape, so a (batch, n) state steps every row at once
    when field maps rows independently."""
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ridge_fit(features, targets, regularizer) -> np.ndarray:
    """Minimize ||X w - y||^2 + regularizer * ||w||^2 via normal equations.

    Solved with a Cholesky factorization L L^T of (X^T X + reg I) and one
    pair of np.linalg.solve calls, with L and then L^T, against X^T y; a
    singular system at regularizer = 0 raises SingularMatrixError. `targets`
    of shape (T, k) give a (n, k) result from one multi-column solve; a 1-D
    target is the k = 1 case and gives a (n,) result.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("features must be a T x n matrix with T >= 1")
    if regularizer < 0:
        raise ValueError("regularizer must be nonnegative")
    A = X.T @ X + regularizer * np.eye(X.shape[1])
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations not positive definite: {exc}") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, X.T @ y))


def spectral_radius(W, tol=1e-4) -> float:
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
    logs = np.empty(POWER_ITERATION_CAP)
    prev_est = None
    for it in range(POWER_ITERATION_CAP):
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
    raise NoConvergenceError(f"power iteration did not converge in {POWER_ITERATION_CAP} iterations")
