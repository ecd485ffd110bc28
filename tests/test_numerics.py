import numpy as np
import pytest
import scipy.linalg

from metrilab.errors import IntegrationDivergedError, NoConvergenceError, SingularMatrixError
from metrilab.numerics import (
    _EM_BLOCK,
    SeededRng,
    integrate_em,
    integrate_rk4,
    rescale_spectral_radius,
    ridge_fit,
    spectral_radius,
)


class TestRK4:
    def test_planar_rotation_preserves_norm(self):
        omega = 1.3
        field = lambda x: omega * np.array([-x[1], x[0]])
        traj = integrate_rk4(field, np.array([1.0, 0.0]), dt=0.01, steps=1000)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_scalar_decay_closed_form(self):
        traj = integrate_rk4(lambda x: -x, np.array([1.0]), dt=0.01, steps=100)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6

    def test_linear_system_vs_matrix_exponential_oracle(self):
        A = np.array([[-0.3, 1.1], [-0.8, 0.2]])
        x0 = np.array([0.7, -0.4])
        dt = 1e-3
        traj = integrate_rk4(lambda x: A @ x, x0, dt=dt, steps=1000)
        expected = scipy.linalg.expm(A) @ x0  # scaling-and-squaring oracle at t = 1
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-6

    def test_divergence_carries_step_index(self):
        with np.errstate(over="ignore"), pytest.raises(IntegrationDivergedError) as err:
            integrate_rk4(lambda x: x**3, np.array([2.0]), dt=0.5, steps=50)
        assert err.value.step >= 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda x: -x, [1.0], dt=0.0, steps=10)
        with pytest.raises(ValueError):
            integrate_rk4(lambda x: -x, [1.0], dt=0.1, steps=0)


class TestEulerMaruyama:
    def test_zero_noise_equals_explicit_euler(self):
        drift = lambda x: -0.5 * x
        x0 = np.array([1.0, -2.0])
        traj = integrate_em(drift, 0.0, x0, dt=0.1, steps=50, rng=SeededRng(1))
        x = x0.copy()
        for _ in range(50):
            x = x + 0.1 * drift(x)
        assert np.array_equal(traj.states[-1], x)  # bitwise: same code path

    def test_ou_stationary_variance_oracle(self):
        # analytic stationary variance of dX = -theta X dt + sqrt(2 D) dW is D/theta
        theta, D = 1.0, 0.5
        traj = integrate_em(lambda x: -theta * x, np.sqrt(2 * D), np.array([0.0]),
                            dt=0.01, steps=1_000_000, rng=SeededRng(42))
        samples = traj.states[5000:, 0]
        assert abs(samples.var() - D / theta) / (D / theta) < 0.05

    def test_divergence_reports_first_nonfinite_step(self):
        # growth by 1.15 per step overflows past the first noise block; the
        # error names the step a per-step check would have stopped at
        drift = lambda x: 0.15 * x
        x, first = np.array([1.0, 0.5]), None
        with np.errstate(over="ignore"):
            for i in range(6000):
                x = x + 1.0 * drift(x)
                if not np.all(np.isfinite(x)):
                    first = i
                    break
            with pytest.raises(IntegrationDivergedError) as err:
                integrate_em(drift, 0.0, [1.0, 0.5], dt=1.0, steps=6000, rng=SeededRng(1))
        assert first is not None and first > _EM_BLOCK
        assert err.value.step == first

    def test_fixed_seed_bit_reproducible(self):
        a = integrate_em(lambda x: -x, 0.3, [1.0], dt=0.05, steps=200, rng=SeededRng(9, 4))
        b = integrate_em(lambda x: -x, 0.3, [1.0], dt=0.05, steps=200, rng=SeededRng(9, 4))
        assert np.array_equal(a.states, b.states)

    def test_high_barrier_escape_is_rare(self):
        # Kramers rate for barrier 8 kT predicts well under 1% escapes here
        a, b, kT = 1.0, 2.83, 0.25  # barrier b^2/(4a) = 2.0 = 8 kT
        drift = lambda x: -(4 * a * x**3 - 2 * b * x)
        escapes = 0
        for k in range(20):
            traj = integrate_em(drift, np.sqrt(2 * kT), [-np.sqrt(b / (2 * a))],
                                dt=0.002, steps=5000, rng=SeededRng(100, k))
            escapes += np.any(traj.states[:, 0] > 0)
        assert escapes / 20 < 0.01 + 1e-9


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
        # a (T, k) target shares one factorization; each column must still be
        # bit-identical to the 1-D call, whatever the target's memory layout
        gen = SeededRng(7).generator()
        X = gen.standard_normal((200, 30))
        Y = gen.standard_normal((200, 6))
        for targets in (Y, np.asfortranarray(Y)):
            W = ridge_fit(X, targets, reg)
            assert W.shape == (30, 6)
            for j in range(6):
                assert np.array_equal(W[:, j], ridge_fit(X, Y[:, j].copy(), reg))


class TestSpectralRescale:
    def test_identity(self):
        W = rescale_spectral_radius(np.eye(4), 0.9)
        assert np.allclose(W, 0.9 * np.eye(4), atol=1e-3)

    def test_nilpotent_errors(self):
        W = np.array([[0.0, 2.0], [0.0, 0.0]])
        with pytest.raises(NoConvergenceError):
            rescale_spectral_radius(W, 1.0)

    def test_random_dense_against_norm_growth_oracle(self):
        gen = SeededRng(8).generator()
        W = gen.standard_normal((50, 50))
        scaled = rescale_spectral_radius(W, 1.0, tol=1e-3)

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

        rho = growth_radius(scaled)
        assert abs(rho - 1.0) < 1e-3
