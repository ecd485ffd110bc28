import dataclasses
import warnings

import numpy as np
import pytest

from metrilab.errors import IntegrationDivergedError
from metrilab.metriplectic import (
    MetriplecticSystem,
    block_disjoint_preset,
    block_rotation,
    entropy_production_rate,
    harmonic_preset,
    isotropic_decay_preset,
    make_preset,
    simulate,
    step,
)
from metrilab.numerics import SeededRng
from oracles import _rotor_chunk_loops


class TestConstruction:
    def test_antisymmetry_enforced(self):
        sys = harmonic_preset()
        assert np.array_equal(sys.J, -sys.J.T)

    @pytest.mark.parametrize("R,A,Q,match", [
        (np.diag([1.0, -1.0]), np.eye(2), np.eye(2), "positive semidefinite"),
        (np.eye(2), np.eye(3), np.eye(2), "one size"),
        (np.eye(2), np.eye(2), np.ones(2), "one size"),
    ], ids=["indefinite_R", "A_shape", "Q_shape"])
    def test_indefinite_r_rejected(self, R, A, Q, match):
        with pytest.raises(ValueError, match=match):
            MetriplecticSystem(J=np.zeros((2, 2)), R=R, A=A, Q=Q)

    def test_frozen_after_construction(self):
        # a built system cannot change under its cached propagator: fields
        # cannot be reassigned and the stored matrices are read-only copies
        A = np.eye(2)
        sys = MetriplecticSystem(J=block_rotation([1.0], 2), R=np.eye(2), A=A, Q=np.eye(2))
        step(sys, np.array([1.0, 0.0]), 0.0, dt=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.A = np.zeros((2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.alpha = 2.0
        for M in (sys.J, sys.R, sys.A, sys.Q, sys.B):
            with pytest.raises(ValueError, match="read-only"):
                M[0] = 1.0
        assert A.flags.writeable and sys.A is not A
        still = dataclasses.replace(sys, A=np.zeros((2, 2)))
        x, _ = step(still, np.array([1.0, 0.0]), 0.0, dt=0.1)
        assert np.array_equal(x, [1.0, 0.0])


class TestDegeneracy:
    """The degeneracy conditions J Q = 0 and R A = 0, as matrix identities."""

    def test_harmonic_passes_with_zero_residuals(self):
        sys = harmonic_preset()
        assert not (sys.J @ sys.Q).any() and not (sys.R @ sys.A).any()

    def test_block_disjoint_passes(self):
        # constructed so J annihilates Q x and R annihilates A x identically
        sys = block_disjoint_preset()
        assert np.max(np.abs(sys.J @ sys.Q)) < 1e-12
        assert np.max(np.abs(sys.R @ sys.A)) < 1e-12

    def test_overlapping_sectors_fail_with_state_size_residual(self):
        omega = 1.0
        sys = MetriplecticSystem(J=block_rotation([omega], 2), R=np.zeros((2, 2)),
                                 A=np.eye(2), Q=np.eye(2))
        # ||J Q x|| = omega ||x|| for every x: the spectral norm of J Q is omega
        assert abs(np.linalg.norm(sys.J @ sys.Q, 2) - omega) < 1e-12
        assert not (sys.R @ sys.A).any()


class TestEntropyRate:
    def test_reversible_limit_zero(self):
        sys = isotropic_decay_preset(dim=3, lam=0.0)
        gen = SeededRng(3).generator()
        for _ in range(5):
            assert entropy_production_rate(sys, gen.standard_normal(3)) == 0.0

    def test_unit_norm_state_rate_is_lambda_exactly(self):
        lam = 0.7
        sys = isotropic_decay_preset(dim=4, lam=lam)
        x = SeededRng(4).generator().standard_normal(4)
        x /= np.linalg.norm(x)
        assert entropy_production_rate(sys, x) == pytest.approx(lam, abs=1e-14)

    def test_diagonal_quadratic_hand_value(self):
        sys = MetriplecticSystem(J=np.zeros((2, 2)), R=np.diag([1.0, 2.0]),
                                 A=np.zeros((2, 2)), Q=np.eye(2), lam=1.0)
        assert entropy_production_rate(sys, np.array([1.0, 1.0])) == pytest.approx(3.0)


class TestStep:
    def test_reversible_norm_preserved(self):
        sys = harmonic_preset()
        x = np.array([1.0, 0.0])
        for _ in range(100):
            x, _ = step(sys, x, 0.0, dt=1e-3, renormalize=True)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10

    def test_decay_closed_form_without_renormalization(self):
        sys = isotropic_decay_preset(dim=2, lam=1.0)
        x = np.array([1.0, 0.0])
        dt, steps = 1e-4, 10_000
        for _ in range(steps):
            x, _ = step(sys, x, 0.0, dt=dt)
        assert abs(x[0] - np.exp(-1.0)) < 1e-4

    def test_renormalize_forces_unit_norm(self):
        sys = isotropic_decay_preset(dim=3, lam=2.0, noise=0.1)
        gen = SeededRng(5).generator()
        x = np.array([0.3, -0.2, 0.9])
        x, _ = step(sys, x, 0.5, dt=0.01, renormalize=True, gen=gen)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_flux_record_consistency(self):
        sys = dataclasses.replace(isotropic_decay_preset(dim=2, lam=1.5), alpha=2.0)
        traj, fluxes = simulate(sys, [1.0, 0.0], np.zeros(50), dt=0.01, rng=SeededRng(6))
        for fl in fluxes:
            assert fl.entropy_production_rate >= 0.0
            assert fl.irr_info_rate == fl.entropy_production_rate / 2.0

    def test_reversible_map_norm_drift_per_unit_time(self):
        sys = harmonic_preset(omega=2.0)
        traj, _ = simulate(sys, [1.0, 0.0], np.zeros(1000), dt=1e-3)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6


class TestDivergence:
    def test_reports_the_diverging_step(self):
        # each step multiplies the state by 1 - lam * dt = -299: the first
        # non-finite state is step 124 (299**124 < 1.8e308 < 299**125)
        sys = isotropic_decay_preset(dim=2, lam=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as err:
                simulate(sys, [1.0, 0.0], np.zeros(400), dt=1.0)
        assert err.value.step == 124


class TestNoise:
    def test_noisy_system_without_generator_rejected(self):
        sys = isotropic_decay_preset(dim=2, lam=0.0, noise=1.0)
        with pytest.raises(ValueError):
            simulate(sys, [0.0, 0.0], np.zeros(4), dt=1.0)
        with pytest.raises(ValueError):
            step(sys, np.zeros(2), 0.0, dt=1.0)

    def test_increments_follow_one_stream(self):
        # lam = 0, J = 0: each increment is the next draw of the rng's generator,
        # never the same vector repeated
        sys = isotropic_decay_preset(dim=2, lam=0.0, noise=1.0)
        traj, _ = simulate(sys, [0.0, 0.0], np.zeros(4), dt=1.0, rng=SeededRng(0))
        draws = SeededRng(0).generator().standard_normal((4, 2))
        assert np.array_equal(traj.states[1:], np.cumsum(draws, axis=0))
        assert len({tuple(d) for d in np.diff(traj.states, axis=0)}) == 4


class TestRotorKernelIsTheLaw:
    """exp1's reservoir (kernels.rotor_chunk) is simulate() on block_rotation J,
    R = I, B = bvec with renormalization, run on exp1's own draws."""

    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_simulate_matches_rotor_loops(self, lam):
        from metrilab.experiments import Exp1Config
        from metrilab.experiments.exp1 import make_input

        cfg = Exp1Config(dim=40, rot_pairs=19, steps=400, k_lags=5)
        base = SeededRng(5)
        omegas = base.derive(0).generator().uniform(cfg.freq_low, cfg.freq_high, cfg.rot_pairs)
        bvec = base.derive(1).generator().standard_normal(cfg.dim)
        bvec /= np.linalg.norm(bvec)
        u = make_input(cfg, base.derive(2))
        noise = cfg.state_noise * np.sqrt(cfg.dt) * base.derive(3).generator().standard_normal(
            (cfg.steps, cfg.dim))
        x0 = base.derive(4).generator().standard_normal(cfg.dim)
        x0 /= np.linalg.norm(x0)

        states = np.empty((cfg.steps, cfg.dim))
        _rotor_chunk_loops(x0.copy(), np.cos(omegas * cfg.dt), np.sin(omegas * cfg.dt),
                           lam, bvec, u, noise, cfg.dt, states)

        eye = np.eye(cfg.dim)
        sys = MetriplecticSystem(J=block_rotation(omegas, cfg.dim), R=eye, A=eye, Q=eye,
                                 lam=lam, B=bvec, noise=cfg.state_noise, alpha=cfg.alpha)
        traj, fluxes = simulate(sys, x0, u, cfg.dt, rng=base.derive(3), renormalize=True)
        assert np.max(np.abs(traj.states[1:] - states)) < 1e-12
        # exp1's I_irr_rate column is lam / alpha: every step exports exactly lam
        rates = np.array([fl.entropy_production_rate for fl in fluxes])
        assert np.max(np.abs(rates - lam)) <= 1e-15
        assert all(fl.irr_info_rate == fl.entropy_production_rate / cfg.alpha for fl in fluxes)


class TestPresets:
    def test_make_preset_builds_and_audits(self):
        sys = make_preset("block-disjoint", n_rev=4, n_diss=2, lam=0.5)
        assert sys.dim == 6
        assert np.max(np.abs(sys.J @ sys.Q)) < 1e-10
        assert np.max(np.abs(sys.R @ sys.A)) < 1e-10

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="warp-core"):
            make_preset("warp-core")
