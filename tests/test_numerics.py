import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from metrilab import numerics
from metrilab.errors import SingularMatrixError
from metrilab.numerics import SeededRng, blas_threads, ridge_fit, rk4_step, spectral_radius


def rk4_states(field, x0, dt, steps):
    """x0 and the states after each of `steps` rk4_step calls."""
    states = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        states.append(rk4_step(field, states[-1], dt))
    return np.array(states)


class TestRK4:
    def test_planar_rotation_preserves_norm(self):
        omega = 1.3
        field = lambda x: omega * np.array([-x[1], x[0]])
        states = rk4_states(field, [1.0, 0.0], dt=0.01, steps=1000)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_scalar_decay_closed_form(self):
        states = rk4_states(lambda x: -x, [1.0], dt=0.01, steps=100)
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-6

    def test_linear_system_vs_matrix_exponential_oracle(self):
        A = np.array([[-0.3, 1.1], [-0.8, 0.2]])
        x0 = np.array([0.7, -0.4])
        states = rk4_states(lambda x: A @ x, x0, dt=1e-3, steps=1000)
        expected = scipy.linalg.expm(A) @ x0  # scaling-and-squaring oracle at t = 1
        assert np.max(np.abs(states[-1] - expected)) < 1e-6


class TestRidge:
    def test_exact_interpolation_in_span(self):
        gen = SeededRng(3).generator()
        X = gen.standard_normal((30, 5))
        w_true = gen.standard_normal(5)
        y = X @ w_true
        w = ridge_fit(X, y, 0.0)
        assert np.linalg.norm(X @ w - y) < 1e-8

    def test_shrinkage_limit(self):
        gen = SeededRng(4).generator()
        X = gen.standard_normal((20, 4))
        y = gen.standard_normal(20)
        w = ridge_fit(X, y, 1e9)
        assert np.linalg.norm(w) < 1e-6

    def test_matches_dense_normal_equations_oracle(self):
        gen = SeededRng(5).generator()
        X = gen.standard_normal((20, 5))
        y = gen.standard_normal(20)
        reg = 0.37
        oracle = np.linalg.inv(X.T @ X + reg * np.eye(5)) @ (X.T @ y)
        assert np.max(np.abs(ridge_fit(X, y, reg) - oracle)) < 1e-8

    def test_row_permutation_invariance(self):
        gen = SeededRng(6).generator()
        X = gen.standard_normal((25, 4))
        y = gen.standard_normal(25)
        perm = gen.permutation(25)
        w1 = ridge_fit(X, y, 1e-3)
        w2 = ridge_fit(X[perm], y[perm], 1e-3)
        assert np.allclose(w1, w2, atol=1e-10)

    def test_singular_at_zero_regularizer(self):
        X = np.ones((10, 3))  # rank 1
        with pytest.raises(SingularMatrixError):
            ridge_fit(X, np.ones(10), 0.0)

    @pytest.mark.parametrize("reg", [0.0, 1e-6, 0.37])
    def test_column_targets_equal_one_dimensional_calls(self, reg):
        # one multi-column solve agrees with solving each column on its own
        # within 1e-14 absolute (measured: at most 2.2e-16, 9.1e-14 relative),
        # whatever the target's memory layout; a 1-D call runs the per-column
        # operations exactly, which exp3's bytes rely on
        gen = SeededRng(7).generator()
        X = gen.standard_normal((200, 30))
        Y = gen.standard_normal((200, 6))
        expected = _ridge_fit_per_column(X, Y, reg)
        for targets in (Y, np.asfortranarray(Y)):
            W = ridge_fit(X, targets, reg)
            assert W.shape == (30, 6)
            assert np.max(np.abs(W - expected)) <= 1e-14
        for j in range(6):
            col = Y[:, j].copy()
            assert np.array_equal(ridge_fit(X, col, reg), _ridge_fit_per_column(X, col, reg))


def _ridge_fit_per_column(X, y, reg):
    # ridge_fit as it solved each column of a (T, k) target with its own pair
    # of triangular solves
    L = np.linalg.cholesky(X.T @ X + reg * np.eye(X.shape[1]))

    def solve(col):
        return np.linalg.solve(L.T, np.linalg.solve(L, X.T @ col))

    if y.ndim == 1:
        return solve(y)
    return np.array([solve(np.ascontiguousarray(col)) for col in y.T]).T


class TestSpectralRescale:
    """spectral_radius, the estimate exp3 divides its reservoir by."""

    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_gives_zero(self):
        assert spectral_radius(np.array([[0.0, 2.0], [0.0, 0.0]])) == 0.0

    def test_random_dense_against_norm_growth_oracle(self):
        W = SeededRng(8).generator().standard_normal((50, 50))

        # oracle: repeated squaring; rho = lim ||M^(2^k)||^(1/2^k)
        def growth_radius(M, squarings=12):
            nrm = np.linalg.norm(M, 2)
            logn = np.log(nrm)
            Mh = M / nrm
            for _ in range(squarings):
                M2 = Mh @ Mh
                n2 = np.linalg.norm(M2, 2)
                logn = 2 * logn + np.log(n2)
                Mh = M2 / n2
            return np.exp(logn / 2**squarings)

        rho = growth_radius(W)
        assert abs(spectral_radius(W) - rho) < 1e-3 * rho


# the OpenBLAS count before, inside and after one_blas_thread, and after a
# block that raises
_PIN_PROBE = """
import json
from metrilab.numerics import blas_threads, one_blas_thread
seen = [blas_threads()]
with one_blas_thread() as inside:
    seen += [inside, blas_threads()]
seen.append(blas_threads())
try:
    with one_blas_thread():
        raise KeyError
except KeyError:
    seen.append(blas_threads())
print(json.dumps(seen))
"""


class TestOneBlasThread:
    @pytest.mark.skipif(blas_threads() is None or (os.cpu_count() or 1) < 2,
                        reason="needs OpenBLAS and two cores for two threads")
    def test_pins_one_thread_and_restores_the_callers_count(self):
        src = str(pathlib.Path(numerics.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env, check=True,
                             capture_output=True, text=True).stdout
        # before, as yielded, inside, after, after the raising block
        assert json.loads(out) == [2, 1, 1, 2, 2]
